"""Parameters and the array primitives used by the ARM network.

Activations and gradients flow between layers as float32 NCHW arrays; only
learnable parameters are `Tensor`s, each with a gradient of its own shape
that is all zeros from construction. Forward reductions (convolution sums,
normalization statistics, losses) and the BatchNorm and linear backwards
accumulate in 64-bit before rounding back to storage precision;
conv2d_backward runs in float32 throughout. Every convolution is a dense
GEMM over a tap-major im2col matrix filled from a zero-padded
(C, H+2p, W+2p, B) buffer, batch innermost; a shared single-channel kernel
is the dense convolution with one input and one output channel over all
B = N*C planes. Primitives take NCHW-shaped arrays of any strides. A
convolution returns an NCHW-shaped view of a batch-innermost array, and
batchnorm and relu keep their input's memory order, so backbone
activations stay batch-innermost. The float64 scratch of a step is
bounded: conv2d_forward builds and multiplies its im2col columns a chunk
of output rows at a time, and batchnorm (in both modes) and
batchnorm_backward work one group of whole channels at a time, in slabs
of about SLAB_VALUES values each. ReLU can rectify a fresh array in place,
and conv2d_backward writes the column gradient into its column buffer.
Its col2im adds each tap's in-bounds range straight into the unpadded
(C, H, W, B) gradient: no padded gradient buffer, no interior copy. Each
of these evaluates the same expressions in the same order, so every
result is unchanged bit for bit.

Importing this module sets one heap policy for the whole process. Every
primitive allocates and frees its arrays within its own call. By default
glibc maps an allocation above its mmap threshold afresh and unmaps it
when freed, and trims a free heap top above its trim threshold back to
the kernel; both start at 128 KiB and rise only to the largest mapped
chunk freed so far and twice that. Left so, each training step faults
the same pages in again, about 5,000 minor faults per step at batch 256.
So on glibc, import sets the mmap threshold to HEAP_MMAP_THRESHOLD and
then the trim threshold to HEAP_TRIM_THRESHOLD, where glibc's own rule
would settle once the process had freed a 32 MiB chunk. Freed pages stay
mapped and the next call reuses them; no buffer is kept across calls,
values do not change, and the peak resident set barely moves. The policy
is left out when the C library is not glibc, or when the environment
already sets either threshold through glibc's own interface
(MALLOC_MMAP_THRESHOLD_, MALLOC_TRIM_THRESHOLD_, or
glibc.malloc.mmap_threshold or glibc.malloc.trim_threshold in
GLIBC_TUNABLES); setting any of them is the way to opt out.
"""

from __future__ import annotations

import ctypes
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, KernelTooLargeError, DataError

TEN_MAGIC = b"ARMT"
TEN_VERSION = 1
# float64 values in one working slab: a BatchNorm channel group's,
# or one forward im2col chunk's columns and product
SLAB_VALUES = 1 << 16
# a forward chunk whose column count is a multiple of this gets every value
# bit for bit as the whole-matrix float64 GEMM would: BLAS computes columns in
# tiles of up to 8, and other chunk widths moved a last bit in about 1 in 3 trials
GEMM_COLUMN_TILE = 8
# glibc malloc thresholds set at import (see the module docstring): glibc's own
# cap for its dynamic mmap threshold on 64-bit, and twice that for trimming,
# the ratio its dynamic rule keeps
HEAP_MMAP_THRESHOLD = 32 << 20
HEAP_TRIM_THRESHOLD = 2 * HEAP_MMAP_THRESHOLD


def _keep_freed_pages() -> None:
    """Set glibc's mmap and trim thresholds, unless the C library is not glibc
    or the environment already sets either of them."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc's name
        return
    tunables = os.environ.get("GLIBC_TUNABLES", "")
    if (
        not libc.startswith("glibc")
        or "MALLOC_MMAP_THRESHOLD_" in os.environ
        or "MALLOC_TRIM_THRESHOLD_" in os.environ
        or "glibc.malloc.mmap_threshold" in tunables
        or "glibc.malloc.trim_threshold" in tunables
    ):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # glibc's <malloc.h>
    if mallopt(m_mmap_threshold, HEAP_MMAP_THRESHOLD):  # 0 where it exceeds the cap
        mallopt(m_trim_threshold, HEAP_TRIM_THRESHOLD)


_keep_freed_pages()


class Tensor:
    """A parameter: float32 data of rank <= 4 plus its accumulated gradient, zero at first."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        arr = np.ascontiguousarray(data, dtype=np.float32)
        if arr.ndim > 4:
            raise GeometryError(f"rank {arr.ndim} exceeds the supported maximum of 4")
        self.data = arr
        self.grad = np.zeros_like(arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def add_grad(self, delta) -> None:
        self.grad += np.asarray(delta, dtype=np.float32).reshape(self.data.shape)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


def save_tensor(path, data: np.ndarray) -> None:
    """Write an array in the .ten container (magic, version, rank, extents, f32 payload)."""
    if data.ndim > 4:
        raise GeometryError(f"rank {data.ndim} exceeds the supported maximum of 4")
    with open(path, "wb") as fh:
        fh.write(TEN_MAGIC)
        fh.write(struct.pack("<BB", TEN_VERSION, data.ndim))
        for extent in data.shape:
            fh.write(struct.pack("<I", extent))
        fh.write(data.astype("<f4").tobytes())


def load_tensor(path) -> np.ndarray:
    """Read a .ten file as a float32 array."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != TEN_MAGIC:
        raise DataError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 6:
        raise DataError(f"{path}: truncated header ({len(raw)} bytes)")
    version, rank = struct.unpack_from("<BB", raw, 4)
    if version != TEN_VERSION:
        raise DataError(f"{path}: unsupported version {version}")
    if rank > 4:
        raise DataError(f"{path}: rank {rank} exceeds 4")
    offset = 6
    shape = []
    for _ in range(rank):
        if len(raw) < offset + 4:
            raise DataError(f"{path}: truncated header ({len(raw)} bytes for rank {rank})")
        (extent,) = struct.unpack_from("<I", raw, offset)
        shape.append(extent)
        offset += 4
    count = math.prod(shape)  # exact: an int64 product of four extents can wrap
    if len(raw) < offset + 4 * count:
        raise DataError(
            f"{path}: truncated payload ({len(raw) - offset} bytes for {count} values)"
        )
    payload = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
    return payload.astype(np.float32).reshape(shape)


@dataclass(frozen=True)
class ConvGeometry:
    """Square-kernel convolution geometry.

    With shared_single_channel=True a single kernel of shape (k, k) is applied
    independently to every input channel, so out_channels == in_channels and
    the parameter count is exactly k*k (no bias). It is computed as a 1-in,
    1-out dense convolution over every (sample, channel) plane.
    """

    kernel: int
    stride: int
    padding: int
    in_channels: int
    out_channels: int
    shared_single_channel: bool = False

    def __post_init__(self):
        if self.kernel < 1:
            raise GeometryError(f"kernel must be >= 1, got {self.kernel}")
        if self.stride < 1:
            raise GeometryError(f"stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise GeometryError(f"padding must be >= 0, got {self.padding}")
        if self.in_channels < 1 or self.out_channels < 1:
            raise GeometryError("channel counts must be >= 1")
        if self.shared_single_channel and self.in_channels != self.out_channels:
            raise GeometryError(
                "shared single-channel convolution keeps the channel count: "
                f"in_channels={self.in_channels} != out_channels={self.out_channels}"
            )

    def out_extent(self, in_extent: int, axis: str = "spatial") -> int:
        out = (in_extent + 2 * self.padding - self.kernel) // self.stride + 1
        if out < 1:
            raise KernelTooLargeError(
                f"kernel {self.kernel} with stride {self.stride} and padding "
                f"{self.padding} does not fit {axis} extent {in_extent}"
            )
        return out

    @property
    def param_count(self) -> int:
        return math.prod(self.kernel_shape())

    def kernel_shape(self) -> tuple[int, ...]:
        if self.shared_single_channel:
            return (self.kernel, self.kernel)
        return (self.out_channels, self.in_channels, self.kernel, self.kernel)


def _conv_operands(x: np.ndarray, kernel: Tensor, geom: ConvGeometry):
    """Check the shapes; return the dense conv's planes, kernel matrix and output extents.

    The planes are (B, C', H, W) and the kernel matrix a float32 view
    (O', C'*k*k): (N, C, H, W) and (O, C*k*k) for a dense kernel,
    (N*C, 1, H, W) and (1, k*k) for a shared single-channel one.
    """
    if x.ndim != 4:
        raise GeometryError(f"conv2d expects NCHW input, got rank {x.ndim}")
    n, c, h, w = x.shape
    if c != geom.in_channels:
        raise GeometryError(
            f"channel dimension mismatch: input has {c}, geometry expects {geom.in_channels}"
        )
    if kernel.shape != geom.kernel_shape():
        raise GeometryError(
            f"kernel shape {kernel.shape} does not match geometry {geom.kernel_shape()}"
        )
    out_h = geom.out_extent(h, "height")
    out_w = geom.out_extent(w, "width")
    planes = x.reshape(-1, 1 if geom.shared_single_channel else c, h, w)
    kmat = kernel.data.reshape(-1, planes.shape[1] * geom.kernel**2)
    return planes, kmat, out_h, out_w


def _padded(planes: np.ndarray, padding: int) -> np.ndarray:
    """A zero-padded float32 copy of planes laid out (C, H + 2p, W + 2p, B).

    Its inner runs are contiguous rows of B values. planes may have any
    strides; the copy is made even when p = 0, since a shared kernel's
    (N*C, 1, H, W) planes would otherwise be read H*W values apart.
    """
    b, c, h, w = planes.shape
    src = np.zeros((c, h + 2 * padding, w + 2 * padding, b), np.float32)
    src[:, padding : padding + h, padding : padding + w] = planes.transpose(1, 2, 3, 0)
    return src


def _im2col(src: np.ndarray, geom: ConvGeometry, first_row: int, cols: np.ndarray) -> np.ndarray:
    """Fill cols, shaped (C, k, k, rows, out_w, B), with the windows of output
    rows first_row onward read from a _padded buffer; return it as a
    batch-innermost (C*k*k, rows*out_w*B) matrix.

    Row (c, ky, kx) holds tap (ky, kx) of channel c at every (i, j, b) output
    position, so each tap is one strided copy (and cast to cols' dtype) of src.
    """
    c, k, _, rows, out_w, b = cols.shape
    s = geom.stride
    top = s * first_row
    for ky in range(k):
        for kx in range(k):
            rows_read = slice(top + ky, top + ky + s * rows, s)
            cols[:, ky, kx] = src[:, rows_read, kx : kx + s * out_w : s]
    return cols.reshape(c * k * k, rows * out_w * b)


def _in_bounds(offset: int, stride: int, out_extent: int, extent: int) -> tuple[slice, slice]:
    """The output positions i whose input position i*stride + offset lies in
    [0, extent), and those input positions, as slices (empty if there are none)."""
    first = max(0, -(offset // stride))
    stop = max(first, min(out_extent, (extent - 1 - offset) // stride + 1))
    start = first * stride + offset
    return slice(first, stop), slice(start, start + (stop - first) * stride, stride)


def conv2d_forward(x: np.ndarray, kernel: Tensor, geom: ConvGeometry) -> np.ndarray:
    """Cross-correlate x with the kernel; padding logically extends x with zeros.

    The GEMM runs in float64 (in float32 it strayed 2.9e-6 from a float64
    window-by-window sum). Its columns are built and multiplied a chunk of
    output rows at a time, so at once the call holds the float32 padded
    input, the float32 result and one chunk's float64 columns and product.
    A chunk holds at least SLAB_VALUES values, so a small call makes one
    chunk, and at most about two slabs or one output row's worth, whichever
    is more. Each output value is the same dot
    product over the same taps as in one whole-matrix GEMM, and it is bit
    for bit the same as long as every chunk covers whole BLAS column tiles;
    when an output row's out_w*B columns are not a multiple of
    GEMM_COLUMN_TILE, the call makes one chunk of all rows.
    The result is an NCHW-shaped view of a batch-innermost (O, out_h, out_w,
    N) array, so a following convolution's im2col copies contiguous batch
    rows.
    """
    planes, kmat, out_h, out_w = _conv_operands(x, kernel, geom)
    b, c = planes.shape[:2]
    k = geom.kernel
    o, taps = kmat.shape
    kmat = kmat.astype(np.float64)
    src = _padded(planes, geom.padding)
    row = out_w * b  # GEMM columns per output row
    rows = out_h
    if row % GEMM_COLUMN_TILE == 0:  # as many chunks as whole slabs fit, at most one per row
        chunks = min(out_h, max(1, (taps + o) * out_h * row // SLAB_VALUES))
        rows = -(-out_h // chunks)
    slab = np.empty((taps + o) * rows * row)  # a chunk's columns, then its product
    out = np.empty((o, out_h, out_w, b), np.float32)
    for top in range(0, out_h, rows):
        n = min(rows, out_h - top)
        split = taps * n * row
        cols = _im2col(src, geom, top, slab[:split].reshape(c, k, k, n, out_w, b))
        product = np.matmul(kmat, cols, out=slab[split : split + o * n * row].reshape(o, -1))
        out[:, top : top + n] = product.reshape(o, n, out_w, b)
    return out.transpose(3, 0, 1, 2).reshape(x.shape[0], -1, out_h, out_w)


def conv2d_backward(
    grad_out: np.ndarray,
    x: np.ndarray,
    kernel: Tensor,
    geom: ConvGeometry,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Gradients of sum(grad_out * conv2d_forward(x)) w.r.t. x and the kernel, in float32.

    With go the output gradient as a float32 (O, out_h*out_w*B) matrix, the
    kernel gradient is go @ cols^T. The column gradient W^T @ go is written
    into the cols buffer once the kernel gradient has been taken from it, so
    one column-sized buffer serves both. With one output channel (a shared
    kernel) W^T @ go is an outer product, which numpy's matmul does not send
    to BLAS; the broadcast product W^T * go gives the same values about ten
    times faster. Only the sign of a zero product can differ, and col2im
    erases it: it adds each tap's plane, over the output positions whose
    input lies in the image (_in_bounds), onto a float32 (C, H, W, B)
    buffer of +0.0, taps in (ky, kx) order, and a sum that starts from +0.0
    never reads -0.0. grad_x is an NCHW-shaped view of that buffer,
    batch-innermost like the forward output. With input_grad=False only the
    kernel gradient is computed and grad_x is None. At the reference shapes
    both gradients lie within 1e-6 of float64's, relative to their largest
    magnitude.
    """
    planes, kmat, out_h, out_w = _conv_operands(x, kernel, geom)
    expected = (x.shape[0], geom.out_channels, out_h, out_w)
    if grad_out.shape != expected:
        raise GeometryError(
            f"grad_out shape {grad_out.shape} does not match forward output {expected}"
        )
    b, ci, h, w = planes.shape
    k, s, p = geom.kernel, geom.stride, geom.padding
    go = grad_out.reshape(b, -1, out_h, out_w).transpose(1, 2, 3, 0)
    go = np.ascontiguousarray(go, np.float32).reshape(kmat.shape[0], -1)
    cols = np.empty((ci, k, k, out_h, out_w, b), np.float32)
    cols = _im2col(_padded(planes, p), geom, 0, cols)
    grad_kernel = (go @ cols.T).reshape(kernel.shape)
    if not input_grad:
        return None, grad_kernel
    if kmat.shape[0] == 1:  # one output channel: an outer product
        grad_cols = np.multiply(kmat.T, go, out=cols)
    else:
        grad_cols = np.matmul(kmat.T, go, out=cols)
    grad_cols = grad_cols.reshape(ci, k, k, out_h, out_w, b)
    grad_x = np.zeros((ci, h, w, b), np.float32)
    for ky in range(k):
        out_rows, ys = _in_bounds(ky - p, s, out_h, h)
        for kx in range(k):
            out_cols, xs = _in_bounds(kx - p, s, out_w, w)
            tap = grad_x[:, ys, xs]
            tap += grad_cols[:, ky, kx, out_rows, out_cols]
    return grad_x.transpose(3, 0, 1, 2).reshape(x.shape), grad_kernel


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0); out=x rectifies x in place, as numpy's own out= does."""
    return np.maximum(x, 0.0, out=out)


def relu_backward(grad_out: np.ndarray, x: np.ndarray) -> np.ndarray:
    """grad_out where x > 0, +0.0 elsewhere: the masked multiply leaves -0.0
    where a negative gradient is masked, and adding +0.0 clears the sign, so
    this equals np.where(x > 0, grad_out, 0.0) bit for bit for finite grad_out.
    """
    grad = np.multiply(x > 0.0, grad_out)
    grad += 0.0
    return grad


BN_MOMENTUM = 0.1  # weight of each train batch in the running statistics
BN_EPS = 1e-5


@dataclass
class RunningStats:
    """Per-channel running mean/variance updated by train-mode batchnorm."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def init(cls, channels: int) -> "RunningStats":
        return cls(np.zeros(channels, np.float32), np.ones(channels, np.float32))


@dataclass
class BatchNormCache:
    """What train-mode batchnorm leaves for its backward: the float32 input,
    by reference, and the float64 per-channel mean, inverse std and scale.
    The backward recomputes xhat from them, so x must not be written between."""

    x: np.ndarray
    mean: np.ndarray
    inv_std: np.ndarray
    scale: np.ndarray


def _channel_groups(channels: int, per_channel: int, *arrays: np.ndarray) -> list[slice]:
    """Slices of whole channels, each about SLAB_VALUES float64 values of work.

    The work is split only when every array is batch-innermost, so that each
    channel is one contiguous run: a group's reductions then run over the
    same runs, in the same order, as the whole array's. In any other layout
    numpy may order a slab's sums differently, so all channels form one group.
    """
    step = channels
    if all(a.transpose(1, 2, 3, 0).flags.c_contiguous for a in arrays):
        step = max(1, SLAB_VALUES // per_channel)
    return [slice(start, start + step) for start in range(0, channels, step)]


def batchnorm(
    x: np.ndarray,
    scale: Tensor,
    shift: Tensor,
    running: RunningStats,
    mode: str = "train",
) -> tuple[np.ndarray, BatchNormCache | None]:
    """Per-channel standardization followed by the learned affine map.

    Train mode normalizes with batch statistics (biased variance), folds them
    into the running estimates and returns the backward cache; eval mode uses
    the running estimates, leaves them alone and returns no cache.

    x is never written. Both modes work one channel group at a time
    (_channel_groups): a group's float64 copy of x is centred, scaled into
    xhat and mapped to its output in place, then written into the float32
    result; train mode also squares the centred slab once for the variance.
    So at once it holds the result and at most two slabs of about
    SLAB_VALUES values each, and the cache keeps x itself and three
    per-channel vectors rather than xhat. The values and their summation
    order are those of np.var and (x - mean) * inv_std * scale + shift.
    """
    if x.ndim != 4:
        raise GeometryError(f"batchnorm expects NCHW input, got rank {x.ndim}")
    c = x.shape[1]
    if scale.shape != (c,) or shift.shape != (c,):
        raise GeometryError(
            f"scale/shift must have shape ({c},), got {scale.shape} and {shift.shape}"
        )
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    scale64 = scale.data.astype(np.float64)
    shift64 = shift.data.astype(np.float64)
    count = x.size // c
    if mode == "train":
        mean, var, inv_std = np.empty(c), np.empty(c), np.empty(c)
    else:
        mean, var = running.mean.astype(np.float64), running.var.astype(np.float64)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
    out = np.empty_like(x, np.float32)
    for g in _channel_groups(c, count, x):
        data = x[:, g].astype(np.float64)
        if mode == "train":
            mean[g] = data.mean(axis=(0, 2, 3))
        data -= mean[None, g, None, None]
        if mode == "train":
            var[g] = np.square(data).sum(axis=(0, 2, 3)) / count
            inv_std[g] = 1.0 / np.sqrt(var[g] + BN_EPS)
        data *= inv_std[None, g, None, None]  # xhat
        data *= scale64[None, g, None, None]
        data += shift64[None, g, None, None]
        out[:, g] = data
        del data  # free this group's slab before the next group's is made
    if mode == "eval":
        return out, None
    running.mean = ((1.0 - BN_MOMENTUM) * running.mean + BN_MOMENTUM * mean).astype(np.float32)
    running.var = ((1.0 - BN_MOMENTUM) * running.var + BN_MOMENTUM * var).astype(np.float32)
    return out, BatchNormCache(x, mean, inv_std, scale64)


def batchnorm_backward(
    grad_out: np.ndarray, cache: BatchNormCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of batchnorm w.r.t. x, scale and shift, from a train-mode cache.

    grad_x = (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) * inv_std with
    dxhat = grad_out * scale, evaluated left to right one channel group at a
    time (_channel_groups over x and grad_out). Each group recomputes its
    xhat from the cached x with the forward's own expressions, and works in
    two more float64 slabs: go becomes dxhat and then the difference, and
    tmp holds each product with xhat in the memory order a fresh product
    would have. So at once it holds the float32 grad_x and three slabs.
    """
    axes = (0, 2, 3)
    x = cache.x
    c = x.shape[1]
    grad_x = np.empty_like(grad_out, np.float32)
    grad_scale, grad_shift = np.empty(c), np.empty(c)
    for g in _channel_groups(c, x.size // c, x, grad_out):
        xhat = x[:, g].astype(np.float64)
        xhat -= cache.mean[None, g, None, None]
        xhat *= cache.inv_std[None, g, None, None]
        go = grad_out[:, g].astype(np.float64)
        tmp = np.multiply(go, xhat)
        grad_scale[g] = tmp.sum(axis=axes)
        grad_shift[g] = go.sum(axis=axes)
        go *= cache.scale[None, g, None, None]  # dxhat
        mean_dxhat = go.mean(axis=axes, keepdims=True)
        np.multiply(go, xhat, out=tmp)
        mean_dxhat_xhat = tmp.mean(axis=axes, keepdims=True)
        go -= mean_dxhat
        np.multiply(xhat, mean_dxhat_xhat, out=tmp)
        go -= tmp
        go *= cache.inv_std[None, g, None, None]
        grad_x[:, g] = go
        del xhat, go, tmp  # free this group's slabs before the next group's are made
    return grad_x, grad_scale.astype(np.float32), grad_shift.astype(np.float32)


def linear(x: np.ndarray, weight: Tensor, bias: Tensor) -> np.ndarray:
    """Affine map: x (N, F) times weight (K, F) transposed, plus bias (K,)."""
    if x.ndim != 2:
        raise GeometryError(f"linear expects (N, features) input, got rank {x.ndim}")
    n, f = x.shape
    if len(weight.shape) != 2 or weight.shape[1] != f:
        raise GeometryError(
            f"weight shape {weight.shape} incompatible with feature length {f}"
        )
    k = weight.shape[0]
    if bias.shape != (k,):
        raise GeometryError(f"bias shape {bias.shape} must be ({k},)")
    out = x.astype(np.float64) @ weight.data.astype(np.float64).T
    out += bias.data.astype(np.float64)
    return out.astype(np.float32)


def linear_backward(
    grad_out: np.ndarray, x: np.ndarray, weight: Tensor
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    go = grad_out.astype(np.float64)
    grad_x = go @ weight.data.astype(np.float64)
    grad_w = go.T @ x.astype(np.float64)
    grad_b = go.sum(axis=0)
    return grad_x.astype(np.float32), grad_w.astype(np.float32), grad_b.astype(np.float32)


def channel_mean(x: np.ndarray) -> np.ndarray:
    """Arithmetic mean over the channel axis: (N, C, H, W) -> (N, H, W)."""
    if x.ndim != 4:
        raise GeometryError(f"channel_mean expects NCHW input, got rank {x.ndim}")
    return x.mean(axis=1, dtype=np.float64).astype(np.float32)


def channel_mean_backward(grad_out: np.ndarray, channels: int) -> np.ndarray:
    go = grad_out.astype(np.float64) / channels
    grad_x = np.broadcast_to(go[:, None], (go.shape[0], channels) + go.shape[1:])
    return grad_x.astype(np.float32, order="C")


def softmax_cross_entropy(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean negative log softmax at the label, with the analytic logit gradient.

    Stabilized by max subtraction; loss and gradient are accumulated in 64-bit.
    """
    if logits.ndim != 2:
        raise GeometryError(f"logits must be (N, K), got rank {logits.ndim}")
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise GeometryError(f"labels shape {labels.shape} must be ({n},)")
    bad = np.flatnonzero((labels < 0) | (labels >= k))
    if bad.size:
        idx = bad[0]
        raise DataError(f"label {int(labels[idx])} out of range [0, {k}) at sample {idx}")
    z = logits.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1, keepdims=True))
    log_probs = z - log_norm
    loss = float(-log_probs[np.arange(n), labels].mean())
    grad = np.exp(log_probs)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad.astype(np.float32)


def kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Fan-in scaled uniform init for conv kernels and linear weights."""
    bound = float(np.sqrt(6.0 / fan_in))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)
