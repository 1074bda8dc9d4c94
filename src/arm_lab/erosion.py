"""Quantitative tools for padding erosion and convolutional perception bias.

perception_map counts how many kernel windows cover each input pixel under a
given geometry. albino_map tracks, layer by layer, what fraction of each
activation's receptive mass originates from zero padding rather than real
pixels; that fraction is this library's contamination metric, defined by
propagating an all-ones mass map through all-ones normalized kernels in which
padding contributes zero mass. That map and every kernel are outer products
of ones vectors, and padding and stride act on each axis alone, so each map
here is exactly built from the outer product of two O(extent) axis profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .arrange import ShuffleSpec
from .errors import ConfigError, GeometryError, TrainingDiverged
from .tensor import ConvGeometry


@dataclass(frozen=True)
class PerceptionMap:
    """Per-pixel window coverage counts for one convolution geometry."""

    counts: np.ndarray  # (height, width) int64


@dataclass(frozen=True)
class AlbinoMap:
    """Per-pixel padding contamination in [0, 1] after a stack of layers."""

    contamination: np.ndarray  # (height, width) float64


def coverage_counts_1d(extent: int, k: int, s: int, p: int) -> np.ndarray:
    """Number of windows covering each position along one axis."""
    out = ConvGeometry(k, s, p, 1, 1).out_extent(extent, "axis")
    pos = np.arange(extent) + p
    lo = np.maximum(0, -(-(pos - k + 1) // s))  # ceil division
    hi = np.minimum(out - 1, pos // s)
    return np.maximum(0, hi - lo + 1).astype(np.int64)


def perception_map(height: int, width: int, k: int, s: int, p: int) -> PerceptionMap:
    """Window coverage counts over the real (unpadded) pixel grid.

    Coverage is separable, so the 2-D count is the outer product of the
    per-axis counts.
    """
    if height < 1 or width < 1:
        raise GeometryError(f"extents must be >= 1, got {height}x{width}")
    rows = coverage_counts_1d(height, k, s, p)
    cols = coverage_counts_1d(width, k, s, p)
    return PerceptionMap(counts=np.outer(rows, cols))


def _window_mean_1d(mass: np.ndarray, k: int, s: int, p: int, axis: str) -> np.ndarray:
    """The mean of each k-tap window at stride s along one zero-padded axis."""
    out = ConvGeometry(k, s, p, 1, 1).out_extent(mass.size, axis)
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(mass, p), k)[::s][:out]
    return windows.sum(axis=1) / float(k)


def albino_maps_per_layer(
    height: int, width: int, layers: Sequence[tuple[int, int, int]]
) -> list[AlbinoMap]:
    """Contamination map after each prefix of the layer stack."""
    if height < 1 or width < 1:
        raise GeometryError(f"extents must be >= 1, got {height}x{width}")
    if not layers:
        raise GeometryError("at least one layer is required")
    rows, cols = np.ones(height), np.ones(width)  # clean mass per axis
    maps = []
    for idx, (k, s, p) in enumerate(layers):
        try:
            rows = _window_mean_1d(rows, k, s, p, "height")
            cols = _window_mean_1d(cols, k, s, p, "width")
        except GeometryError as exc:
            raise type(exc)(f"layer {idx}: {exc}") from None
        maps.append(AlbinoMap(contamination=1.0 - np.outer(rows, cols)))
    return maps


def albino_map(
    height: int, width: int, layers: Sequence[tuple[int, int, int]]
) -> AlbinoMap:
    """Contamination after the full layer stack."""
    return albino_maps_per_layer(height, width, layers)[-1]


def cluster_weight_profile(spec: ShuffleSpec, da: ConvGeometry) -> np.ndarray:
    """Total perception weight per feature cluster of the rearranged map.

    Sums the coverage counts of the weighting convolution inside each r x r
    cluster; the result has one cell per original spatial site.
    """
    r = spec.ratio
    rows = coverage_counts_1d(spec.out_height, da.kernel, da.stride, da.padding)
    cols = coverage_counts_1d(spec.out_width, da.kernel, da.stride, da.padding)
    return np.outer(rows.reshape(-1, r).sum(axis=1), cols.reshape(-1, r).sum(axis=1))


def outer_ring_interior_split(profile: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cluster totals on the outermost ring versus the fully interior block."""
    h, w = profile.shape
    if h < 3 or w < 3:
        raise GeometryError("profile needs at least 3x3 clusters to have an interior")
    mask = np.zeros((h, w), dtype=bool)
    mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = True
    return profile[mask], profile[~mask]


def k_sweep(index, k_values: Iterable[int], base_config):
    """Train one weighting-convolution classifier per kernel size.

    Each run replaces global average pooling with a stride-1 shared
    single-channel convolution of the given kernel size and an adaptive
    classifier layer; base_config.backbone_widths is replaced by
    train.SWEEP_WIDTHS. Returns a list of per-k result dicts. A geometry or
    config failure, or a run that diverged, becomes that k's error row (NaN
    scores; a divergence's error is its halt reason, e.g. "epoch 1:
    non-finite loss") and the sweep continues; any other exception
    propagates. Kernel sizes train one after another, in input order.
    """
    from .train import train_sweep_point

    def run_one(k: int) -> dict:
        try:
            result = train_sweep_point(index, k, base_config)
            return {"k": k, "wa": result["wa"], "ua": result["ua"], "error": ""}
        # typed per-k failures become rows; any other exception is a bug and propagates
        except (GeometryError, ConfigError, TrainingDiverged) as exc:
            return {"k": k, "wa": float("nan"), "ua": float("nan"), "error": str(exc)}

    ks = [int(k) for k in k_values]  # a non-integer k fails before any training
    return [run_one(k) for k in ks]
