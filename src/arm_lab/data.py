"""Dataset indexing, balanced resampling, metrics, and the synthetic corpus.

The synthetic corpus gives every class a shared background component plus a
class-specific grating and blob constellation, so representations have a
generic part common to all classes and a unique part that identifies each
one. Images are stored as 8-bit binary PGM files next to a labels.csv and a
generator manifest.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .pgm import read_pgm, write_pgm
from .tensor import load_tensor

LABELS_FILE = "labels.csv"
MANIFEST_FILE = "manifest.json"


@dataclass
class DatasetIndex:
    """Per-class sample bookkeeping plus (optionally) the loaded pixel data."""

    classes: list[str]
    paths: list[str]
    labels: np.ndarray
    images: np.ndarray | None = None  # (n, 1, H, W) float32; PGM rows in [0, 1]
    per_class: list[np.ndarray] = field(init=False)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.paths) != len(self.labels):
            raise DataError(
                f"{len(self.paths)} paths but {len(self.labels)} labels"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= len(self.classes)):
            raise DataError("label index outside the declared class set")
        self.per_class = [
            np.flatnonzero(self.labels == c) for c in range(len(self.classes))
        ]

    @property
    def n_samples(self) -> int:
        return len(self.paths)

    @property
    def counts(self) -> np.ndarray:
        return np.array([ids.size for ids in self.per_class], dtype=np.int64)

    def subset(self, sample_ids) -> "DatasetIndex":
        ids = np.asarray(sample_ids, dtype=np.int64)
        return DatasetIndex(
            classes=list(self.classes),
            paths=[self.paths[i] for i in ids],
            labels=self.labels[ids],
            images=None if self.images is None else self.images[ids],
        )


def mrr_epoch_sample(index: DatasetIndex, seed) -> np.ndarray:
    """One balanced epoch: the minimum class count drawn from every class.

    Each class contributes exactly m = min count samples, drawn uniformly
    without replacement, with fresh randomness per call; the concatenation is
    shuffled before it is returned.
    """
    rng = np.random.default_rng(seed)
    for name, ids in zip(index.classes, index.per_class):
        if ids.size == 0:
            raise DataError(f"class {name!r} has no samples")
    m = int(index.counts.min())
    chosen = [rng.choice(ids, size=m, replace=False) for ids in index.per_class]
    epoch = np.concatenate(chosen)
    rng.shuffle(epoch)
    return epoch


def plain_epoch_sample(index: DatasetIndex, seed) -> np.ndarray:
    """One unbalanced epoch: a fresh permutation of every sample."""
    return np.random.default_rng(seed).permutation(index.n_samples)


def class_counts_report(index: DatasetIndex) -> dict:
    counts = index.counts
    if counts.size == 0:
        raise DataError("index declares no classes")
    report = {
        "classes": list(index.classes),
        "counts": [int(c) for c in counts],
        "total": int(counts.sum()),
        "max": int(counts.max()),
        "min": int(counts.min()),
    }
    report["imbalance_ratio"] = (
        float(counts.max()) / float(counts.min()) if counts.min() > 0 else float("inf")
    )
    return report


@dataclass
class ConfusionMatrix:
    """K x K counts; rows are true classes, columns are predictions."""

    classes: list[str]
    counts: np.ndarray = field(init=False)

    def __post_init__(self):
        self.counts = np.zeros((len(self.classes), len(self.classes)), dtype=np.int64)

    def update(self, true_labels, predictions) -> None:
        true_labels = np.asarray(true_labels, dtype=np.int64)
        predictions = np.asarray(predictions, dtype=np.int64)
        np.add.at(self.counts, (true_labels, predictions), 1)


def metrics(confusion: ConfusionMatrix) -> tuple[float, float, np.ndarray]:
    """Weighted accuracy, unweighted accuracy, and per-class accuracies.

    WA is overall sample accuracy (trace over total). UA averages per-class
    accuracy over the classes that have at least one evaluated sample;
    classes without samples get NaN in the per-class vector.
    """
    counts = confusion.counts
    total = counts.sum()
    if total == 0:
        raise DataError("confusion matrix is empty")
    row_sums = counts.sum(axis=1)
    diag = np.diag(counts)
    per_class = np.full(len(row_sums), np.nan)
    present = row_sums > 0
    per_class[present] = diag[present] / row_sums[present]
    wa = float(np.trace(counts) / total)
    ua = float(per_class[present].mean())
    return wa, ua, per_class


def write_confusion_csv(path, confusion: ConfusionMatrix) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true_class"] + list(confusion.classes))
        for name, row in zip(confusion.classes, confusion.counts):
            writer.writerow([name] + [int(v) for v in row])


def _class_pattern_params(rng: np.random.Generator, num_classes: int, extent: int):
    params = []
    margin = extent / 5.0
    for c in range(num_classes):
        params.append(
            {
                "angle": np.pi * c / num_classes,
                "freq": 2.0 + (c % 3),
                "phase": rng.uniform(0.0, 2.0 * np.pi),
                "blob_centers": rng.uniform(margin, extent - margin, size=(3, 2)),
            }
        )
    return params


def _background(extent: int) -> np.ndarray:
    yy, xx = np.mgrid[0:extent, 0:extent].astype(np.float64)
    cy = cx = (extent - 1) / 2.0
    sigma = extent / 3.0
    bump = 0.6 * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma**2))
    ramp = 0.1 * xx / extent
    return bump + ramp


def _render_sample(rng, extent, background, params) -> np.ndarray:
    yy, xx = np.mgrid[0:extent, 0:extent].astype(np.float64)
    phase = params["phase"] + rng.uniform(-0.4, 0.4)
    amp = 0.35 + rng.uniform(-0.08, 0.08)
    direction = xx * np.cos(params["angle"]) + yy * np.sin(params["angle"])
    grating = amp * np.sin(2.0 * np.pi * params["freq"] * direction / extent + phase)
    blobs = np.zeros_like(background)
    sigma = extent / 10.0
    for center in params["blob_centers"]:
        jitter = rng.uniform(-1.5, 1.5, size=2)
        blob_amp = 0.5 + rng.uniform(-0.1, 0.1)
        cy, cx = center + jitter
        blobs += blob_amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma**2))
    brightness = rng.uniform(-0.05, 0.05)
    noise = rng.normal(0.0, 0.05, size=background.shape)
    raw = background + grating + blobs + brightness + noise
    return np.clip((raw + 0.5) / 2.2, 0.0, 1.0)


def synth_dataset(
    root,
    num_classes: int,
    per_class,
    extent: int = 32,
    seed: int = 0,
) -> DatasetIndex:
    """Generate a deterministic grayscale corpus and return its loaded index.

    per_class is either one count for every class or a sequence of per-class
    counts (for imbalanced corpora).
    """
    if num_classes < 2:
        raise DataError(f"need at least 2 classes, got {num_classes}")
    if extent < 1:
        raise DataError(f"extent must be >= 1, got {extent}")
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    if isinstance(per_class, (int, np.integer)):
        counts = [int(per_class)] * num_classes
    else:
        counts = [int(c) for c in per_class]
        if len(counts) != num_classes:
            raise DataError(
                f"{len(counts)} per-class counts for {num_classes} classes"
            )
    if any(c < 1 for c in counts):
        raise DataError("per-class counts must be >= 1")

    rng = np.random.default_rng(seed)
    classes = [f"class_{c}" for c in range(num_classes)]
    params = _class_pattern_params(rng, num_classes, extent)
    background = _background(extent)

    os.makedirs(root, exist_ok=True)
    rows = []
    for c, name in enumerate(classes):
        class_dir = os.path.join(root, name)
        os.makedirs(class_dir, exist_ok=True)
        for i in range(counts[c]):
            image = _render_sample(rng, extent, background, params[c])
            rel = f"{name}/sample_{i:04d}.pgm"
            write_pgm(os.path.join(root, rel), np.rint(image * 255.0).astype(np.uint8))
            rows.append((rel, name))

    with open(os.path.join(root, LABELS_FILE), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["relative_path", "label"])
        writer.writerows(rows)
    manifest = {
        "classes": classes,
        "per_class": counts,
        "extent": extent,
        "seed": seed,
        "generator": {
            "pattern": "background + oriented grating + blob constellation",
            "noise_sigma": 0.05,
        },
    }
    with open(os.path.join(root, MANIFEST_FILE), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return load_dataset(root)


def _load_image(root: str, rel: str) -> np.ndarray:
    """A PGM row's uint8 pixels, or a .ten row's float32 values."""
    path = os.path.join(root, rel)
    try:
        if not rel.endswith(".ten"):
            return read_pgm(path)
        image = load_tensor(path)
    except DataError:
        raise
    except FileNotFoundError:
        raise DataError(f"missing image file {rel!r}") from None
    except (OSError, ValueError) as exc:  # a directory, a NUL byte, an over-long field
        raise DataError(f"{rel}: cannot read the image file: {exc}") from None
    if image.ndim != 2:
        raise DataError(f"{rel}: expected a rank-2 tensor image")
    if not np.isfinite(image).all():
        raise DataError(f"{rel}: image holds a non-finite value")
    return image


def read_json_object(path) -> dict:
    """Parse a metadata file that must hold one JSON object."""
    try:
        with open(path, encoding="utf-8") as fh:
            value = json.load(fh)
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise DataError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(value, dict):
        raise DataError(f"{path}: expected a JSON object, got {type(value).__name__}")
    return value


def load_dataset(root) -> DatasetIndex:
    """Load labels.csv plus referenced images (PGM P5 or .ten) from a corpus root."""
    labels_path = os.path.join(root, LABELS_FILE)
    if not os.path.exists(labels_path):
        raise DataError(f"{root}: missing {LABELS_FILE}")
    declared = None
    manifest_path = os.path.join(root, MANIFEST_FILE)
    if os.path.exists(manifest_path):
        declared = read_json_object(manifest_path).get("classes", [])
        if not isinstance(declared, list) or not all(isinstance(n, str) for n in declared):
            raise DataError(f"{manifest_path}: 'classes' must be a list of class names")
        repeated = [name for i, name in enumerate(declared) if name in declared[:i]]
        if repeated:
            raise DataError(f"{manifest_path}: 'classes' repeats {repeated}")
        declared = declared or None

    try:
        with open(labels_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise DataError(f"{labels_path}: not UTF-8 text: {exc}") from None
    if not rows or [h.strip() for h in rows[0][:2]] != ["relative_path", "label"]:
        raise DataError(f"{LABELS_FILE}: expected header 'relative_path,label'")
    paths, names = [], []
    for row_no, row in enumerate(rows[1:], start=2):
        if len(row) != 2 or not row[0] or not row[1]:
            raise DataError(f"{LABELS_FILE}: malformed row {row_no}")
        paths.append(row[0])
        names.append(row[1])
    if not paths:
        raise DataError(f"{LABELS_FILE}: no samples listed")

    classes = declared if declared is not None else sorted(set(names))
    class_to_idx = {name: i for i, name in enumerate(classes)}
    labels = np.empty(len(names), dtype=np.int64)
    for i, name in enumerate(names):
        if name not in class_to_idx:
            raise DataError(
                f"{LABELS_FILE}: unknown label {name!r} at row {i + 2}"
            )
        labels[i] = class_to_idx[name]

    images = [_load_image(root, rel) for rel in paths]
    extents = {img.shape for img in images}
    if len(extents) != 1:
        raise DataError(f"images disagree on extent: {sorted(extents)}")
    # one float32 copy, scaled in place; a .ten row keeps its values, and a corpus
    # of PGMs alone skips the mask, which would make numpy's divide about 4x slower
    stack = np.stack(images)[:, None].astype(np.float32, copy=False)
    pgm = np.array([image.dtype == np.uint8 for image in images])
    np.divide(stack, 255.0, out=stack, where=True if pgm.all() else pgm[:, None, None, None])
    return DatasetIndex(classes=classes, paths=paths, labels=labels, images=stack)


def split_index(
    index: DatasetIndex, val_fraction: float, seed
) -> tuple[DatasetIndex, DatasetIndex]:
    """Per-class train/validation split; a class of 2+ samples keeps one on each side."""
    if not 0.0 < val_fraction < 1.0:
        raise DataError(f"val_fraction must be in (0, 1), got {val_fraction}")
    rng = np.random.default_rng(seed)
    train_ids, val_ids = [], []
    for name, ids in zip(index.classes, index.per_class):
        shuffled = rng.permutation(ids)
        n_val = max(1, int(round(val_fraction * ids.size))) if ids.size > 1 else 0
        if ids.size > 1 and n_val == ids.size:
            raise DataError(
                f"val_fraction {val_fraction} leaves class {name!r} "
                f"({ids.size} samples) no training sample"
            )
        val_ids.append(shuffled[:n_val])
        train_ids.append(shuffled[n_val:])
    if not any(ids.size for ids in val_ids):
        raise DataError("validation split is empty: no class has two or more samples")
    return (
        index.subset(np.sort(np.concatenate(train_ids))),
        index.subset(np.sort(np.concatenate(val_ids))),
    )
