"""Benchmark for arm-lab: one workload per process, closed loop, one client.

    python3 bench/run.py --workload train-arm --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its `src/`
and nowhere else. With `--trace 0` the last line of standard output is a JSON
object whose metrics are the end-to-end metrics of BENCHMARK.json; with
`--trace 1` they are the per-layer metrics, from spans recorded around the
package's public functions (see tracing.py). The line before it is a JSON
report: machine facts, the workload's own named metrics, timing samples and
every output-check failure. `--smoke` runs toy sizes for the benchmark's own
test. Corpora and checkpoints go to `.bench_work/` in the checkout and are
deleted on exit.

Set-up time is the p90 of several set-ups spread through the run, after a
cold first one. It covers loading the corpus and building the network or
checkpoint. Writing the seeded corpus (and eval-arm's checkpoint) is input
generation and untimed: file creation on a 2-vCPU ext4 VM drifted 3-4x
within minutes. The traced run still reports the writers' per-call cost
(data.synth_dataset, pgm.write_pgm, arm.save_checkpoint).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer, layer_of, self_times_ns

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("train-arm", "eval-arm", "sweep-small", "erosion-maps")

# Threads are pinned before numpy loads: OpenBLAS reads its thread count once,
# and an unpinned pool made the same forward pass vary several-fold between
# processes. BLAS runs single-threaded everywhere; sweep-small also runs
# k_sweep's pool, whose workers each use one BLAS thread.
BLAS_THREADS = 1
POOL_THREADS = {"sweep-small": 2}
SETUP_REPEATS = 10
MIN_OPS = 3

CONV_BLOCKS = ("block0", "block1", "block2", "weighting")
TIMED_SPANS = (
    [(f"tensor.conv2d_{d}.{b}", "ms") for d in ("forward", "backward") for b in CONV_BLOCKS]
    + [(f"tensor.{n}", "ms") for n in (
        "batchnorm", "batchnorm_backward", "linear", "linear_backward",
        "softmax_cross_entropy", "relu", "relu_backward")]
    + [("arrange.pixel_shuffle", "ms"), ("arrange.pixel_unshuffle", "ms")]
    + [(f"arm.{n}", "ms") for n in (
        "backbone_forward", "backbone_backward", "head_forward", "head_backward",
        "affinity_forward", "affinity_backward", "zero_grads",
        "load_checkpoint", "save_checkpoint")]
    + [(f"train.{n}", "ms") for n in ("adam_step", "evaluate", "epoch_sample_ids")]
    + [("data.load_dataset", "s"), ("data.synth_dataset", "s"),
       ("pgm.read_pgm", "us"), ("pgm.write_pgm", "us")]
    + [("erosion.perception_map", "us"), ("erosion.albino_maps_per_layer", "ms"),
       ("erosion.cluster_weight_profile", "us"), ("erosion.outer_ring_interior_split", "us")]
)
INPUT_SPANS = {"data.synth_dataset", "pgm.write_pgm", "arm.save_checkpoint"}
UNIT_SCALE = {"s": 1e-9, "ms": 1e-6, "us": 1e-3}
LAYERS = ("tensor", "arrange", "arm", "train", "data", "erosion")


def per_layer_spec() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in BENCHMARK.json order."""
    spec = [(f"{name}.{unit}", unit) for name, unit in TIMED_SPANS]
    for d in ("forward", "backward"):
        for b in CONV_BLOCKS:
            base = f"tensor.conv2d_{d}.{b}"
            spec += [
                (f"{base}.mflop", "Mflop-computed"),
                (f"{base}.mbytes", "MB-computed"),
                (f"{base}.gflops", "GFLOP/s"),
                (f"{base}.peak_mb", "MB"),
            ]
    spec.append(("train.train.self_ms", "ms"))
    spec += [(f"layer.{layer}.self_ms", "ms") for layer in LAYERS]
    spec.append(("trace_overhead_pct", "%"))
    return spec


# The gated metrics. Latency and set-up time are gated at p90, not p50: on a
# shared 2-vCPU host the machine flips between a fast and a ~1.5x slower
# state for tens of seconds at a time, so a run's median (and its mean
# throughput) lands in either state, while nearly every run sees enough of
# the slow one to pin its p90. For the same reason the set-ups are spread
# through the run rather than done back to back before it. p50 and
# throughput are still reported, ungated, in the report line.
END_TO_END = (
    ("op_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the self-test")
    return parser.parse_args(argv)


def pin_threads(workload: str, nproc: int) -> dict:
    pool = max(1, min(POOL_THREADS.get(workload, 1), nproc // BLAS_THREADS))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["ARM_LAB_THREADS"] = str(pool)
    return {"ARM_LAB_THREADS": pool, "BLAS_THREADS_REQUESTED": BLAS_THREADS}


def import_package():
    """Import arm_lab from this checkout's src/, refusing any other copy."""
    src = REPO_ROOT / "src"
    if not (src / "arm_lab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no arm_lab package under {src}")
    sys.path.insert(0, str(src))
    import arm_lab

    if Path(arm_lab.__file__).resolve().parent != (src / "arm_lab").resolve():
        raise SystemExit(f"bench: imported arm_lab from {arm_lab.__file__}, not {src}")


def machine_facts(threads: dict) -> dict:
    import numpy as np

    from blas import blas_facts

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    facts.update(blas_facts())
    facts.update(threads)
    return facts


def percentile_90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run(args, workdir: Path) -> tuple[dict, dict]:
    import tracemalloc

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    tracer = Tracer() if args.trace else None
    attempted = failed = 0

    def call(phase: str, fn, *fn_args):
        """Run fn, traced under the given phase when this is the traced run."""
        if not tracer:
            return fn(*fn_args)
        tracer.phase = phase
        try:
            with tracer.installed():
                return fn(*fn_args)
        finally:
            tracer.phase = "op"

    inputs = str(workdir / "inputs")
    call("inputs", workload.make_inputs, inputs)
    setup_times = []

    def set_up() -> float:
        start = time.perf_counter()
        call("setup", workload.setup, inputs)
        return time.perf_counter() - start

    cold_setup_s = set_up()  # first in the process: imports and page faults

    def attempt(traced: bool, memory_tracer=None) -> tuple[float, int]:
        nonlocal attempted, failed
        active = memory_tracer or tracer
        start = time.perf_counter()
        try:
            if traced:
                with active.installed(), active.span("op"):
                    units, tried, bad = workload.op()
            else:
                units, tried, bad = workload.op()
        except Exception as exc:  # every failure is counted, never dropped
            workload.problems.append(f"{type(exc).__name__}: {exc}")
            units, tried, bad = 0, 1, 1
        elapsed = time.perf_counter() - start
        attempted += tried
        failed += bad
        return elapsed, units

    attempt(traced=False)  # untimed: fills caches and sets the replay reference

    plain_ms, traced_ms, units_done, busy_s = [], [], 0, 0.0
    setups = 2 if args.smoke else SETUP_REPEATS
    began = time.perf_counter()
    deadline = began + args.seconds
    i = 0
    while time.perf_counter() < deadline or len(plain_ms) < MIN_OPS:
        if time.perf_counter() >= began + args.seconds * len(setup_times) / setups:
            setup_times.append(set_up())
        # the traced run alternates traced and untraced operations so both
        # see the same machine state; the untraced ones give the overhead
        traced = bool(tracer) and i % 2 == 1
        elapsed, units = attempt(traced)
        (traced_ms if traced else plain_ms).append(elapsed * 1e3)
        if not traced:
            units_done += units
            busy_s += elapsed
        i += 1
    while len(setup_times) < setups:
        setup_times.append(set_up())

    memory = None
    if tracer:
        # one extra operation under tracemalloc measures each conv call's
        # peak allocation; single-threaded so peaks are not interleaved
        memory = Tracer(memory=True)
        pool = os.environ["ARM_LAB_THREADS"]
        os.environ["ARM_LAB_THREADS"] = "1"
        tracemalloc.start()
        try:
            attempt(traced=True, memory_tracer=memory)
        finally:
            tracemalloc.stop()
            os.environ["ARM_LAB_THREADS"] = pool

    summary = {
        "op_ms_p50": statistics.median(plain_ms),
        "op_ms_p90": percentile_90(plain_ms),
        "throughput_per_s": units_done / busy_s,
        "setup_s": percentile_90(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "op": workload.op_label,
        "op_samples": len(plain_ms),
        "op_ms": [round(v, 3) for v in plain_ms],
        "setup_s_samples": setup_times,
        "cold_setup_s": cold_setup_s,
        "problems": workload.problems,
        "error_rate": failed / attempted,
        "named_metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in {
                "setup_s": (summary["setup_s"], "s"),
                "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
                "error_rate": (failed / attempted, "fraction"),
                f"{workload.op_label}_ms_p50": (summary["op_ms_p50"], "ms"),
                f"{workload.op_label}_ms_p90": (summary["op_ms_p90"], "ms"),
                f"{workload.op_label}_samples": (len(plain_ms), "count"),
                **workload.named_metrics(summary),
            }.items()
        },
    }
    if tracer:
        report["trace"] = trace_report(tracer, memory, traced_ms, plain_ms)
        metrics = report["trace"].pop("metrics")
    else:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END}
    result = {
        "correct": failed == 0 and not workload.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return report, result


def trace_report(tracer, memory, traced_ms, plain_ms) -> dict:
    """Per-call means, self times and computed work from the recorded spans.

    A span name's numbers come from the measured operations, or from the
    set-ups for names that run only there (corpus and checkpoint loading).
    The writers (corpus synthesis, checkpoint save) run only while the
    inputs are generated and are measured there.
    """
    spans = tracer.spans
    self_ns = self_times_ns(spans)
    stats: dict[tuple[str, str], dict] = {}
    for span, own in zip(spans, self_ns):
        entry = stats.setdefault(
            (span.phase, span.name), {"calls": 0, "ns": 0, "self_ns": 0, "mflop": 0.0, "mbytes": 0.0}
        )
        entry["calls"] += 1
        entry["ns"] += span.end - span.start
        entry["self_ns"] += own
        if span.attrs:
            entry["mflop"] += span.attrs["mflop"]
            entry["mbytes"] += span.attrs["mbytes"]

    def lookup(name: str) -> dict | None:
        phases = ("inputs",) if name in INPUT_SPANS else ("op", "setup")
        return next((stats[(p, name)] for p in phases if (p, name) in stats), None)

    peaks: dict[str, float] = {}
    for span in memory.spans if memory else ():
        if span.attrs and "peak_mb" in span.attrs:
            peaks[span.name] = max(peaks.get(span.name, 0.0), span.attrs["peak_mb"])

    values: dict[str, float] = {}
    for name, unit in TIMED_SPANS:
        entry = lookup(name)
        values[f"{name}.{unit}"] = entry["ns"] / entry["calls"] * UNIT_SCALE[unit] if entry else 0.0
    for d in ("forward", "backward"):
        for b in CONV_BLOCKS:
            base = f"tensor.conv2d_{d}.{b}"
            entry = lookup(base)
            calls = entry["calls"] if entry else 0
            values[f"{base}.mflop"] = entry["mflop"] / calls if calls else 0.0
            values[f"{base}.mbytes"] = entry["mbytes"] / calls if calls else 0.0
            values[f"{base}.gflops"] = entry["mflop"] / (entry["ns"] * 1e-6) if calls else 0.0
            values[f"{base}.peak_mb"] = peaks.get(base, 0.0)
    entry = lookup("train.train")
    values["train.train.self_ms"] = entry["self_ns"] / entry["calls"] * 1e-6 if entry else 0.0
    layer_ns = dict.fromkeys(LAYERS, 0)
    for (phase, name), entry in stats.items():
        layer = layer_of(name)
        if phase == "op" and layer:
            layer_ns[layer] += entry["self_ns"]
    for layer in LAYERS:
        values[f"layer.{layer}.self_ms"] = layer_ns[layer] * 1e-6 / len(traced_ms)
    overhead = statistics.median(traced_ms) / statistics.median(plain_ms) - 1.0
    values["trace_overhead_pct"] = overhead * 100.0

    units = dict(per_layer_spec())
    return {
        "traced_ops": len(traced_ms),
        "untraced_ops": len(plain_ms),
        "overhead_ms": statistics.median(traced_ms) - statistics.median(plain_ms),
        "spans": {
            f"{phase}:{name}": {
                "calls": e["calls"],
                "ms_per_call": e["ns"] / e["calls"] * 1e-6,
                "self_ms_per_call": e["self_ns"] / e["calls"] * 1e-6,
            }
            for (phase, name), e in sorted(stats.items())
        },
        "metrics": {name: {"value": values[name], "unit": units[name]} for name, _ in per_layer_spec()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("bench: --seconds must be positive")
    threads = pin_threads(args.workload, len(os.sched_getaffinity(0)))
    import_package()
    workdir = REPO_ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report, result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only if no concurrent run still uses it
        except OSError:
            pass
    report["machine"] = machine_facts(threads)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
