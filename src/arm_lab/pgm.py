"""Minimal binary PGM (P5, 8-bit) reader/writer and heatmap emitter."""

from __future__ import annotations

import os
import re

import numpy as np

from .errors import DataError


def write_pgm(path, image: np.ndarray) -> None:
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise DataError(f"PGM image must be 2-D, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        if arr.min() < 0 or arr.max() > 255:
            raise DataError("PGM payload must fit 0..255")
        arr = arr.astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


# P5, then width, height and maxval, each after whitespace or "#"-to-newline comments
_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*)*(\S*)" * 3)


def read_pgm(path) -> np.ndarray:
    fd = os.open(path, os.O_RDONLY)
    try:
        raw = b"".join(iter(lambda: os.read(fd, 1 << 16), b""))
    finally:
        os.close(fd)
    header = _HEADER.match(raw)
    if header is None:
        raise DataError(f"{path}: not a binary PGM (P5) file")
    fields = []
    for token in header.groups():
        if not token:
            raise DataError(f"{path}: truncated header")
        if not token.isdigit():
            raise DataError(f"{path}: header field {token!r} is not a non-negative integer")
        fields.append(int(token))
    width, height, maxval = fields
    if maxval != 255:
        raise DataError(f"{path}: only maxval 255 supported, got {maxval}")
    pos = header.end() + 1  # single whitespace byte after maxval
    payload = raw[pos : pos + width * height]
    if len(payload) != width * height:
        raise DataError(f"{path}: truncated payload")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width)


def write_heatmap(path, values: np.ndarray) -> None:
    """Linear per-file scaling with the maximum mapped to 255."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise DataError(f"heatmap values must be 2-D, got shape {arr.shape}")
    peak = arr.max() if arr.size else 0.0
    if peak > 0:
        scaled = np.rint(arr * (255.0 / peak))
    else:
        scaled = np.zeros_like(arr)
    write_pgm(path, np.clip(scaled, 0, 255).astype(np.uint8))
