"""Quantitative tools for padding erosion and convolutional perception bias.

perception_map counts how many kernel windows cover each input pixel under a
given geometry. albino_map tracks, layer by layer, what fraction of each
activation's receptive mass originates from zero padding rather than real
pixels; that fraction is this library's contamination metric, computed by
propagating an all-ones mass map through all-ones normalized kernels in which
padding contributes zero mass.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .arrange import ShuffleSpec
from .errors import ConfigError, GeometryError, KernelTooLargeError, TrainingDiverged
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
    if k < 1 or s < 1 or p < 0:
        raise GeometryError(f"invalid geometry k={k}, s={s}, p={p}")
    rows = coverage_counts_1d(height, k, s, p)
    cols = coverage_counts_1d(width, k, s, p)
    return PerceptionMap(counts=np.outer(rows, cols))


def _propagate_clean_mass(mass: np.ndarray, k: int, s: int, p: int) -> np.ndarray:
    h, w = mass.shape
    geom = ConvGeometry(k, s, p, 1, 1)
    out_h = geom.out_extent(h, "height")
    out_w = geom.out_extent(w, "width")
    padded = np.pad(mass, p) if p else mass
    win = np.lib.stride_tricks.sliding_window_view(padded, (k, k))
    win = win[::s, ::s][:out_h, :out_w]
    return win.sum(axis=(2, 3)) / float(k * k)


def albino_maps_per_layer(
    height: int, width: int, layers: Sequence[tuple[int, int, int]]
) -> list[AlbinoMap]:
    """Contamination map after each prefix of the layer stack."""
    if height < 1 or width < 1:
        raise GeometryError(f"extents must be >= 1, got {height}x{width}")
    if not layers:
        raise GeometryError("at least one layer is required")
    mass = np.ones((height, width), dtype=np.float64)
    maps = []
    for idx, (k, s, p) in enumerate(layers):
        if k < 1 or s < 1 or p < 0:
            raise GeometryError(f"invalid geometry k={k}, s={s}, p={p} at layer {idx}")
        try:
            mass = _propagate_clean_mass(mass, k, s, p)
        except KernelTooLargeError as exc:
            raise KernelTooLargeError(f"layer {idx}: {exc}") from None
        maps.append(AlbinoMap(contamination=1.0 - mass))
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
    pm = perception_map(spec.out_height, spec.out_width, da.kernel, da.stride, da.padding)
    r = spec.ratio
    return (
        pm.counts.reshape(spec.in_height, r, spec.in_width, r).sum(axis=(1, 3)).astype(np.int64)
    )


def outer_ring_interior_split(profile: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cluster totals on the outermost ring versus the fully interior block."""
    h, w = profile.shape
    if h < 3 or w < 3:
        raise GeometryError("profile needs at least 3x3 clusters to have an interior")
    mask = np.zeros((h, w), dtype=bool)
    mask[0, :] = mask[-1, :] = mask[:, 0] = mask[:, -1] = True
    return profile[mask], profile[~mask]


def k_sweep(
    index,
    k_values: Iterable[int],
    base_config,
    out_channels: int = 16,
    downsampling_blocks: int = 2,
):
    """Train one weighting-convolution classifier per kernel size.

    Each run replaces global average pooling with a stride-1 shared
    single-channel convolution of the given kernel size and an adaptive
    classifier layer; returns a list of per-k result dicts. A geometry or
    config failure, or a run that diverged, becomes that k's error row (NaN
    scores; a divergence's error is its halt reason, e.g. "epoch 1:
    non-finite loss") and the sweep continues; any other exception
    propagates. ARM_LAB_THREADS (default 1) caps how many kernel sizes
    train concurrently, on worker threads reused across calls; results are
    ordered by input position either way.
    """
    from .train import train_sweep_point

    def run_one(k: int) -> dict:
        try:
            result = train_sweep_point(
                index, k, base_config, out_channels, downsampling_blocks
            )
            return {"k": k, "wa": result["wa"], "ua": result["ua"], "error": ""}
        # typed per-k failures become rows; any other exception is a bug and propagates
        except (GeometryError, ConfigError, TrainingDiverged) as exc:
            return {"k": k, "wa": float("nan"), "ua": float("nan"), "error": str(exc)}

    ks = [int(k) for k in k_values]
    workers = sweep_worker_count()
    if workers <= 1:
        return [run_one(k) for k in ks]
    return list(_sweep_pool(workers).map(run_one, ks))


_SWEEP_POOLS: dict[int, ThreadPoolExecutor] = {}
_SWEEP_POOLS_LOCK = threading.Lock()


def _sweep_pool(workers: int) -> ThreadPoolExecutor:
    """The process's k_sweep pool for a worker count, created on first use.

    Its threads outlive each sweep on purpose. With a pool per call, a new
    worker that started while the previous call's workers were still
    exiting got a fresh malloc arena, so resident memory grew by a whole
    training run's working set at random points of repeated sweeps.
    """
    with _SWEEP_POOLS_LOCK:
        pool = _SWEEP_POOLS.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="k_sweep")
            _SWEEP_POOLS[workers] = pool
        return pool


def sweep_worker_count() -> int:
    """Worker cap for k_sweep, from ARM_LAB_THREADS (default and minimum 1)."""
    raw = os.environ.get("ARM_LAB_THREADS", "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"ARM_LAB_THREADS must be an integer, got {raw!r}") from None
    return max(1, value)
