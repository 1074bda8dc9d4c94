"""Command line front end.

Every subcommand writes its outputs under --out with fixed file names and
drops a manifest.json recording every parsed argument but --out, the
self-checks that can fail, the results and the environment. Exit codes are
documented in --help.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .arm import CHECKPOINT_MANIFEST, ArmConfig, environment, load_checkpoint
from .data import (
    class_counts_report,
    load_dataset,
    split_index,
    synth_dataset,
    write_confusion_csv,
)
from .erosion import (
    albino_maps_per_layer,
    cluster_weight_profile,
    k_sweep,
    outer_ring_interior_split,
    perception_map,
)
from .errors import (
    ConfigError,
    DataError,
    GeometryError,
    TrainingDiverged,
    UninitializedStateError,
)
from .pgm import write_heatmap
from .tensor import ConvGeometry
from .train import TrainConfig, build_description, evaluate, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GEOMETRY = 3
EXIT_DATA = 4
EXIT_CONFIG = 5
EXIT_RUNTIME = 6
EXIT_UNEXPECTED = 7

EXIT_HELP = """\
exit codes:
  0  success
  2  usage error (bad arguments)
  3  geometry error (kernel does not fit, incompatible shapes)
  4  data error (corpus, labels, or file contents)
  5  configuration error (inconsistent settings)
  6  runtime error (training divergence, uninitialized state)
  7  unexpected internal error
"""


def _fail(exc: Exception, code: int) -> int:
    print(f"arm-lab: error: {exc}", file=sys.stderr)
    return code


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _run_record(args, checks, results) -> dict:
    """A run's record: its command, every parsed argument but --out, checks, results."""
    config = {k: v for k, v in vars(args).items() if k not in ("out", "func", "command")}
    return {"command": args.command, "config": config, "checks": checks,
            "results": results, "environment": environment()}


def _write_manifest(args, checks, results) -> None:
    payload = dict(_run_record(args, checks, results), tool="arm-lab")
    with open(os.path.join(args.out, "manifest.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def _parse_int_list(raw: str, what: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"{what} must be comma-separated integers, got {raw!r}") from None
    if not values:
        raise ConfigError(f"{what} is empty")
    return values


def _parse_layers(raw: str) -> list[tuple[int, int, int]]:
    layers = []
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        triple = _parse_int_list(part, "layer")
        if len(triple) != 3:
            raise ConfigError(
                f"each layer needs kernel,stride,padding; got {part!r}"
            )
        layers.append(tuple(triple))
    if not layers:
        raise ConfigError("no layers given")
    return layers


def _train_config(args, **head) -> TrainConfig:
    """The training options every training subcommand shares, plus head settings."""
    return TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        lr_decay=args.lr_decay,
        seed=args.seed,
        sampler=args.sampler,
        val_fraction=args.val_fraction,
        **head,
    )


def _write_history_csv(path, history) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "lr", "wa", "ua"])
        for row in history:
            writer.writerow(
                [row["epoch"], f"{row['loss']:.6f}", f"{row['lr']:.8f}",
                 f"{row['wa']:.6f}", f"{row['ua']:.6f}"]
            )


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_perception(args) -> int:
    pm = perception_map(args.height, args.width, args.kernel, args.stride, args.padding)
    out = _ensure_out(args.out)
    np.savetxt(os.path.join(out, "perception.csv"), pm.counts, fmt="%d", delimiter=",")
    write_heatmap(os.path.join(out, "perception.pgm"), pm.counts)
    geom = ConvGeometry(args.kernel, args.stride, args.padding, 1, 1)
    out_h = geom.out_extent(args.height, "height")
    out_w = geom.out_extent(args.width, "width")
    total = int(pm.counts.sum())
    bound = out_h * out_w * args.kernel * args.kernel
    checks = {
        "total_coverage": total,
        "max_possible": bound,
        "conserved": total == bound if args.padding == 0 else total <= bound,
    }
    results = {
        "corner": int(pm.counts[0, 0]),
        "max": int(pm.counts.max()),
        "min": int(pm.counts.min()),
    }
    _write_manifest(args, checks, results)
    print(
        f"perception {args.height}x{args.width} k={args.kernel} s={args.stride} "
        f"p={args.padding}: corner={results['corner']} max={results['max']} -> {out}"
    )
    return EXIT_OK


def cmd_erosion(args) -> int:
    layers = _parse_layers(args.layers)
    maps = albino_maps_per_layer(args.height, args.width, layers)
    out = _ensure_out(args.out)
    per_layer_max = []
    for n, amap in enumerate(maps, start=1):
        np.savetxt(
            os.path.join(out, f"erosion_L{n}.csv"),
            amap.contamination, fmt="%.9g", delimiter=",",
        )
        write_heatmap(os.path.join(out, f"erosion_L{n}.pgm"), amap.contamination)
        per_layer_max.append(float(amap.contamination.max()))
    in_range = all(
        float(m.contamination.min()) >= 0.0 and float(m.contamination.max()) <= 1.0
        for m in maps
    )
    checks = {"contamination_in_unit_interval": in_range}
    results = {"per_layer_max_contamination": per_layer_max}
    _write_manifest(args, checks, results)
    print(
        f"erosion through {len(layers)} layer(s): final max contamination "
        f"{per_layer_max[-1]:.4f} -> {out}"
    )
    return EXIT_OK


def cmd_synth(args) -> int:
    if "," in args.per_class:
        per_class = _parse_int_list(args.per_class, "--per-class")
        if len(per_class) != args.classes:
            raise ConfigError(
                f"--per-class lists {len(per_class)} counts for {args.classes} classes"
            )
    else:
        try:
            per_class = int(args.per_class)
        except ValueError:
            raise ConfigError(
                f"--per-class must be a count or comma list, got {args.per_class!r}"
            ) from None
    index = synth_dataset(args.out, args.classes, per_class, args.extent, args.seed)
    manifest_path = os.path.join(args.out, "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    manifest["run"] = _run_record(args, {}, {})
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    report = class_counts_report(index)
    print(
        f"synthesized {index.n_samples} samples over {len(index.classes)} classes "
        f"(imbalance {report['imbalance_ratio']:.1f}:1) -> {args.out}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    index = load_dataset(args.data)
    config = _train_config(
        args,
        smoothing_init=args.smoothing,
        smoothing_learnable=not args.freeze_smoothing,
        backbone_widths=tuple(_parse_int_list(args.widths, "--widths")),
    )
    description = build_description(index, config, args.head)
    result = train(config, index, description=description,
                   out_dir=os.path.join(args.out, "checkpoint"))
    out = _ensure_out(args.out)
    _write_history_csv(os.path.join(out, "metrics.csv"), result["history"])
    write_confusion_csv(os.path.join(out, "confusion.csv"), result["confusion"])
    _write_manifest(args, {}, result["outcome"])
    if result["diverged"]:
        print(
            f"arm-lab: error: training halted ({result['halt_reason']}); "
            f"kept the last completed epoch -> {out}",
            file=sys.stderr,
        )
        return EXIT_RUNTIME
    print(
        f"trained {args.head} head for {result['epochs_run']} epoch(s): "
        f"val wa={result['wa']:.4f} ua={result['ua']:.4f} -> {out}"
    )
    return EXIT_OK


def _training_record(manifest: dict, path: str) -> tuple[dict, dict]:
    """A checkpoint's recorded data split and training result, with field types checked."""
    extra = manifest.get("extra", {})
    sections = [extra.get(k, {}) for k in ("data", "result")] if isinstance(extra, dict) else []
    if len(sections) != 2 or not all(isinstance(section, dict) for section in sections):
        raise DataError(f"{path}: 'extra' and its 'data' and 'result' must be JSON objects")
    data_info, trained = sections
    number, seed = (int, float), data_info.get("split_seed", 0)
    malformed = [key for key, ok in [
        ("classes", isinstance(data_info.get("classes", []), list)),
        ("val_fraction", isinstance(data_info.get("val_fraction", 0.5), number)),
        ("split_seed", isinstance(seed, int) and seed >= 0),
        ("wa", isinstance(trained.get("wa", 0.0), number)),
        ("ua", isinstance(trained.get("ua", 0.0), number)),
        ("wa/ua pair", ("wa" in trained) == ("ua" in trained)),
    ] if not ok]
    if malformed:
        raise DataError(f"{path}: malformed recorded {', '.join(malformed)}")
    return data_info, trained


def cmd_eval(args) -> int:
    network, manifest = load_checkpoint(args.checkpoint)
    data_info, trained = _training_record(
        manifest, os.path.join(args.checkpoint, CHECKPOINT_MANIFEST)
    )
    index = load_dataset(args.data)
    stored_classes = data_info.get("classes")
    if stored_classes is not None and list(stored_classes) != list(index.classes):
        raise DataError(
            f"dataset classes {index.classes} do not match checkpoint classes "
            f"{stored_classes}"
        )
    if args.split == "all":
        subset = index
    else:
        if "val_fraction" not in data_info or "split_seed" not in data_info:
            raise ConfigError(
                "checkpoint does not record its split; use --split all"
            )
        train_rows, val_rows = split_index(
            index, data_info["val_fraction"], data_info["split_seed"]
        )
        subset = index.subset(val_rows if args.split == "val" else train_rows)
    cm, wa, ua = evaluate(network, subset, args.batch_size)
    out = _ensure_out(args.out)
    write_confusion_csv(os.path.join(out, "confusion.csv"), cm)
    with open(os.path.join(out, "metrics.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["wa", "ua"])
        writer.writerow([f"{wa:.6f}", f"{ua:.6f}"])
    checks = {}
    if args.split == "val" and "wa" in trained:
        checks["matches_training_eval"] = (
            abs(trained["wa"] - wa) < 1e-9 and abs(trained["ua"] - ua) < 1e-9
        )
    _write_manifest(args, checks, {"wa": wa, "ua": ua, "samples": subset.n_samples})
    print(
        f"evaluated {subset.n_samples} sample(s) [{args.split}]: "
        f"wa={wa:.4f} ua={ua:.4f} -> {out}"
    )
    return EXIT_OK


def cmd_sweep_k(args) -> int:
    if args.k_min < 1 or args.k_max < args.k_min:
        raise ConfigError(
            f"need 1 <= k-min <= k-max, got {args.k_min}..{args.k_max}"
        )
    index = load_dataset(args.data)
    config = _train_config(args)
    rows = k_sweep(index, range(args.k_min, args.k_max + 1), config)
    out = _ensure_out(args.out)
    with open(os.path.join(out, "sweep_k.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "wa", "ua", "error"])
        for row in rows:
            writer.writerow(
                [row["k"], f"{row['wa']:.6f}", f"{row['ua']:.6f}", row["error"]]
            )
    scored = [r for r in rows if np.isfinite(r["wa"])]
    best = max(scored, key=lambda r: r["wa"]) if scored else None
    checks = {"completed": len(scored), "failed": len(rows) - len(scored)}
    results = {"best_k": None if best is None else best["k"],
               "best_wa": None if best is None else best["wa"]}
    _write_manifest(args, checks, results)
    for row in rows:
        note = f" ({row['error']})" if row["error"] else ""
        print(f"k={row['k']}: wa={row['wa']:.4f} ua={row['ua']:.4f}{note}")
    if best is not None:
        print(f"best k={best['k']} (wa={best['wa']:.4f}) -> {out}")
    return EXIT_OK


def cmd_clusters(args) -> int:
    if min(args.channels, args.height, args.width) < 1:
        # a geometry error, as for every other impossible cluster geometry
        raise GeometryError(
            f"invalid input shape ({args.channels}, {args.height}, {args.width})"
        )
    # the head's own defaults: the classifier size does not affect the profile
    head = ArmConfig(
        args.channels, args.height, args.width, classes=2,
        ratio=args.ratio, da_kernel=args.kernel, da_stride=args.stride,
    )
    ratio, kernel, stride = head.ratio, head.da_kernel, head.da_stride
    profile = cluster_weight_profile(head.shuffle_spec, head.da_geometry)
    ring, interior = outer_ring_interior_split(profile)
    out = _ensure_out(args.out)
    np.savetxt(os.path.join(out, "clusters.csv"), profile, fmt="%d", delimiter=",")
    write_heatmap(os.path.join(out, "clusters.pgm"), profile)
    strictly_lighter = bool(ring.max() < interior.min())
    checks = {"outer_ring_strictly_lighter": strictly_lighter}
    results = {
        "ratio": ratio, "kernel": kernel, "stride": stride,
        "ring_max": int(ring.max()), "interior_min": int(interior.min()),
        "profile_min": int(profile.min()), "profile_max": int(profile.max()),
    }
    _write_manifest(args, checks, results)
    verdict = "strictly lighter" if strictly_lighter else "NOT strictly lighter"
    print(
        f"cluster weights {args.height}x{args.width} (r={ratio}, k={kernel}, "
        f"s={stride}): outer ring {verdict} than interior "
        f"(ring max {results['ring_max']} vs interior min {results['interior_min']}) -> {out}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arm-lab",
        description="Sub-pixel arrangement, padding-erosion analysis, and "
        "amendment-head training on small grayscale corpora.",
        epilog=EXIT_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("perception", help="window coverage counts for one geometry")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--kernel", type=int, required=True)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--padding", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_perception)

    p = sub.add_parser("erosion", help="padding contamination through a layer stack")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument(
        "--layers", required=True,
        help="semicolon-separated kernel,stride,padding triples, e.g. '3,1,1;3,1,1'",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_erosion)

    p = sub.add_parser("synth", help="generate the synthetic grayscale corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=7)
    p.add_argument(
        "--per-class", default="200",
        help="samples per class: one count or a comma list (imbalanced)",
    )
    p.add_argument("--extent", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    def add_train_options(q):
        q.add_argument("--data", required=True)
        q.add_argument("--out", required=True)
        q.add_argument("--epochs", type=int, default=30)
        q.add_argument("--batch-size", type=int, default=256)
        q.add_argument("--lr", type=float, default=0.001)
        q.add_argument("--lr-decay", type=float, default=0.9)
        q.add_argument("--seed", type=int, default=0)
        q.add_argument("--sampler", choices=["plain", "mrr"], default="plain")
        q.add_argument("--val-fraction", type=float, default=0.2)

    p = sub.add_parser("train", help="train a head on a corpus")
    add_train_options(p)
    p.add_argument("--head", choices=["arm", "gap"], default="arm")
    p.add_argument("--smoothing", type=float, default=0.3)
    p.add_argument("--freeze-smoothing", action="store_true")
    p.add_argument("--widths", default="8,16,32", help="backbone widths, comma separated")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=["val", "train", "all"], default="val")
    p.add_argument("--batch-size", type=int, default=256)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "sweep-k",
        help="train one stride-1 weighting head per kernel size on a fixed 8,16 backbone",
    )
    add_train_options(p)
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, default=8)
    p.set_defaults(func=cmd_sweep_k)

    p = sub.add_parser("clusters", help="per-cluster weighting of the arranged map")
    p.add_argument("--channels", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--ratio", type=int, default=None)
    p.add_argument("--kernel", type=int, default=None)
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_clusters)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except GeometryError as exc:
        return _fail(exc, EXIT_GEOMETRY)
    except DataError as exc:
        return _fail(exc, EXIT_DATA)
    except ConfigError as exc:
        return _fail(exc, EXIT_CONFIG)
    except (TrainingDiverged, UninitializedStateError) as exc:
        return _fail(exc, EXIT_RUNTIME)
    except Exception as exc:  # last resort: anything escaping the typed paths
        return _fail(exc, EXIT_UNEXPECTED)


if __name__ == "__main__":
    raise SystemExit(main())
