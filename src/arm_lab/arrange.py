"""Feature arrangement: parameter-free sub-pixel rearrangement.

Collapses channels into space so that values which originated at the same
spatial site land together in an r x r cluster, and pixels with the same
distance to the border (hence the same padding erosion) stay grouped at the
same depth of the output periphery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError


def max_shuffle_ratio(channels: int) -> int:
    """Largest r whose square divides the channel count."""
    if channels < 1:
        raise GeometryError(f"channel count must be >= 1, got {channels}")
    for r in range(math.isqrt(channels), 1, -1):
        if channels % (r * r) == 0:
            return r
    return 1


@dataclass(frozen=True)
class ShuffleSpec:
    """Geometry of one rearrangement: (C, H, W) -> (C/r^2, H*r, W*r)."""

    ratio: int
    in_channels: int
    in_height: int
    in_width: int

    def __post_init__(self):
        if self.ratio < 1:
            raise GeometryError(f"ratio must be >= 1, got {self.ratio}")
        if self.in_channels % (self.ratio * self.ratio) != 0:
            raise GeometryError(
                f"ratio^2={self.ratio ** 2} does not divide channel count {self.in_channels}"
            )

    @property
    def out_channels(self) -> int:
        return self.in_channels // (self.ratio * self.ratio)

    @property
    def out_height(self) -> int:
        return self.in_height * self.ratio

    @property
    def out_width(self) -> int:
        return self.in_width * self.ratio


def pixel_shuffle(x: np.ndarray, ratio: int) -> np.ndarray:
    """Move input element (n, c*r^2 + dy*r + dx, i, j) to (n, c, i*r + dy, j*r + dx).

    Pure data movement: a bijection on elements, no arithmetic on values.
    """
    if x.ndim != 4:
        raise GeometryError(f"pixel_shuffle expects NCHW input, got rank {x.ndim}")
    n, c, h, w = x.shape
    if ratio < 1:
        raise GeometryError(f"ratio must be >= 1, got {ratio}")
    if c % (ratio * ratio) != 0:
        raise GeometryError(f"ratio^2={ratio ** 2} does not divide channel count {c}")
    r, oc = ratio, c // (ratio * ratio)
    # (n, oc, dy, dx, h, w) -> (n, oc, h, dy, w, dx)
    v = x.reshape(n, oc, r, r, h, w)
    return v.transpose(0, 1, 4, 2, 5, 3).reshape(n, oc, h * r, w * r)


def pixel_unshuffle(y: np.ndarray, ratio: int) -> np.ndarray:
    """Exact inverse of pixel_shuffle; also its adjoint, so it backpropagates it."""
    if y.ndim != 4:
        raise GeometryError(f"pixel_unshuffle expects NCHW input, got rank {y.ndim}")
    if ratio < 1:
        raise GeometryError(f"ratio must be >= 1, got {ratio}")
    n, c, hr, wr = y.shape
    if hr % ratio != 0 or wr % ratio != 0:
        raise GeometryError(
            f"spatial extents ({hr}, {wr}) are not divisible by ratio {ratio}"
        )
    r, h, w = ratio, hr // ratio, wr // ratio
    v = y.reshape(n, c, h, r, w, r)
    return v.transpose(0, 1, 3, 5, 2, 4).reshape(n, c * r * r, h, w)
