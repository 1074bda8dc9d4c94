"""Self-test of the benchmark at toy sizes, so the script cannot rot.

    python3 -m pytest bench/test_smoke.py

Every workload runs untraced and traced; each must pass its output checks
and emit every metric BENCHMARK.json declares, with its unit, plus the named
metrics of its own report.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, WORKLOAD_NAMES, per_layer_spec  # noqa: E402

COMMON = ("setup_s", "peak_rss_mb", "error_rate")
NAMED = {
    "train-arm": ("train_samples_per_s", "train_loss_final", "val_wa",
                  "train_call_ms_p50", "train_call_ms_p90", "train_call_samples"),
    "eval-arm": ("eval_samples_per_s", "eval_batch_ms_p50", "eval_batch_ms_p90",
                 "eval_batch_samples"),
    "sweep-small": ("sweep_s", "sweep_k_points_per_s", "sweep_call_ms_p50",
                    "sweep_call_ms_p90", "sweep_call_samples"),
    "erosion-maps": ("erosion_calls_per_s", "erosion_set_ms_p50", "erosion_set_ms_p90",
                     "erosion_set_samples"),
}
MACHINE = ("nproc", "python", "numpy", "blas", "blas_version", "blas_threads", "ARM_LAB_THREADS")


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_emits_every_metric(workload, trace):
    out = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                    "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    report_line, result_line = out.stdout.strip().splitlines()[-2:]
    report, result = json.loads(report_line), json.loads(result_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = dict(END_TO_END if trace == 0 else per_layer_spec())
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    named = report["named_metrics"]
    for name in COMMON + NAMED[workload]:
        assert name in named and named[name]["unit"], name
    assert named["error_rate"]["value"] == 0.0
    for fact in MACHINE:
        assert fact in report["machine"], fact
    assert not (ROOT / ".bench_work").exists()


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_spec()


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(tmp_path, "--workload", "erosion-maps", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
