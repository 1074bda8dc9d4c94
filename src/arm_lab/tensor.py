"""Parameters and the array primitives used by the ARM network.

Activations and gradients flow between layers as float32 NCHW arrays; only
learnable parameters are `Tensor`s, each with a gradient of its own shape
that is all zeros from construction. Every reduction (convolution sums,
normalization statistics, losses) accumulates in 64-bit before the result
is rounded back to storage precision. Every convolution is one dense GEMM
over a tap-major im2col matrix filled from a zero-padded (C, H+2p, W+2p, B)
buffer, batch innermost; a shared single-channel kernel is the dense
convolution with one input and one output channel over all B = N*C planes.
Primitives take NCHW-shaped arrays of any strides. A convolution returns an
NCHW-shaped view of a batch-innermost array, and batchnorm and relu keep
their input's memory order, so backbone activations stay batch-innermost.
Full-size scratch arrays are reused rather than allocated afresh at each
step: batchnorm and batchnorm_backward each work in at most two float64
arrays, ReLU can rectify a fresh array in place, and conv2d_backward writes
the column gradient into the column buffer. Each reuse evaluates the same
expressions in the same order, so every result is unchanged bit for bit.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, KernelTooLargeError, DataError

TEN_MAGIC = b"ARMT"
TEN_VERSION = 1


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

    The planes are (B, C', H, W) and the kernel matrix float64 (O', C'*k*k):
    (N, C, H, W) and (O, C*k*k) for a dense kernel, (N*C, 1, H, W) and
    (1, k*k) for a shared single-channel one.
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
    kmat = kernel.data.reshape(-1, planes.shape[1] * geom.kernel**2).astype(np.float64)
    return planes, kmat, out_h, out_w


def _im2col(planes: np.ndarray, geom: ConvGeometry, out_h: int, out_w: int) -> np.ndarray:
    """Batch-innermost float64 (C*k*k, out_h*out_w*B) matrix of the padded input's windows.

    Row (c, ky, kx) holds tap (ky, kx) of channel c at every (i, j, b) output
    position, so each tap is one strided copy (and float64 cast) of a
    zero-padded float32 buffer laid out (C, H + 2p, W + 2p, B), whose inner
    runs are contiguous rows of B values. planes may have any strides; the
    buffer is filled even when p = 0, since a shared kernel's (N*C, 1, H, W)
    planes would otherwise be read H*W values apart.
    """
    b, c, h, w = planes.shape
    k, s, p = geom.kernel, geom.stride, geom.padding
    src = np.zeros((c, h + 2 * p, w + 2 * p, b), np.float32)
    src[:, p : p + h, p : p + w] = planes.transpose(1, 2, 3, 0)
    cols = np.empty((c, k, k, out_h, out_w, b))
    for ky in range(k):
        for kx in range(k):
            cols[:, ky, kx] = src[:, ky : ky + s * out_h : s, kx : kx + s * out_w : s]
    return cols.reshape(c * k * k, out_h * out_w * b)


def conv2d_forward(x: np.ndarray, kernel: Tensor, geom: ConvGeometry) -> np.ndarray:
    """Cross-correlate x with the kernel; padding logically extends x with zeros.

    The result is an NCHW-shaped view of a batch-innermost (O, out_h, out_w, N)
    array, so a following convolution's im2col copies contiguous batch rows.
    """
    planes, kmat, out_h, out_w = _conv_operands(x, kernel, geom)
    out = (kmat @ _im2col(planes, geom, out_h, out_w)).reshape(-1, out_h, out_w, planes.shape[0])
    return out.astype(np.float32).transpose(3, 0, 1, 2).reshape(x.shape[0], -1, out_h, out_w)


def conv2d_backward(
    grad_out: np.ndarray, x: np.ndarray, kernel: Tensor, geom: ConvGeometry
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of sum(grad_out * conv2d_forward(x)) w.r.t. x and the kernel.

    With go the output gradient as an (O, out_h*out_w*B) matrix, the kernel
    gradient is go @ cols^T and the column gradient W^T @ go, written into
    the cols buffer once the kernel gradient has been taken from it, so one
    column-sized buffer serves both; col2im then adds each tap's plane back
    onto a float64 (C, H + 2p, W + 2p, B) buffer, taps in (ky, kx) order.
    grad_x is an NCHW-shaped view of that buffer's float32 interior,
    batch-innermost like the forward output.
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
    go = go.astype(np.float64, order="C").reshape(kmat.shape[0], -1)
    cols = _im2col(planes, geom, out_h, out_w)
    grad_kernel = (go @ cols.T).reshape(kernel.shape)
    grad_cols = np.matmul(kmat.T, go, out=cols).reshape(ci, k, k, out_h, out_w, b)
    grad_padded = np.zeros((ci, h + 2 * p, w + 2 * p, b))
    for ky in range(k):
        for kx in range(k):
            tap = grad_padded[:, ky : ky + s * out_h : s, kx : kx + s * out_w : s]
            tap += grad_cols[:, ky, kx]
    grad_x = grad_padded[:, p : p + h, p : p + w].astype(np.float32).transpose(3, 0, 1, 2)
    return grad_x.reshape(x.shape), grad_kernel.astype(np.float32)


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
    xhat: np.ndarray
    inv_std: np.ndarray
    scale: np.ndarray


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

    x is never written. Its one float64 copy is centred and then scaled in
    place into xhat, which the cache keeps. In train mode a second float64
    array holds the squares for the variance and is then overwritten with
    the output; eval mode caches nothing, so xhat itself becomes the output.
    The values and their summation order are those of np.var and
    (x - mean) * inv_std * scale + shift.
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
    data = x.astype(np.float64)
    if mode == "train":
        mean = data.mean(axis=(0, 2, 3))
        data -= mean[None, :, None, None]
        out = np.square(data)
        var = out.sum(axis=(0, 2, 3)) / (data.size // c)
        running.mean = ((1.0 - BN_MOMENTUM) * running.mean + BN_MOMENTUM * mean).astype(np.float32)
        running.var = ((1.0 - BN_MOMENTUM) * running.var + BN_MOMENTUM * var).astype(np.float32)
    else:
        data -= running.mean.astype(np.float64)[None, :, None, None]
        var = running.var.astype(np.float64)
        out = data
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    data *= inv_std[None, :, None, None]
    scale64 = scale.data.astype(np.float64)
    np.multiply(data, scale64[None, :, None, None], out=out)
    out += shift.data.astype(np.float64)[None, :, None, None]
    cache = BatchNormCache(data, inv_std, scale64) if mode == "train" else None
    return out.astype(np.float32), cache


def batchnorm_backward(
    grad_out: np.ndarray, cache: BatchNormCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of batchnorm w.r.t. x, scale and shift, from a train-mode cache.

    grad_x = (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) * inv_std with
    dxhat = grad_out * scale, evaluated left to right in two float64 arrays:
    go becomes dxhat and then the difference, and tmp holds each product
    with xhat in the memory order a fresh product would have.
    """
    axes = (0, 2, 3)
    xhat = cache.xhat
    go = grad_out.astype(np.float64)
    tmp = np.multiply(go, xhat)
    grad_scale = tmp.sum(axis=axes)
    grad_shift = go.sum(axis=axes)
    go *= cache.scale[None, :, None, None]  # dxhat
    mean_dxhat = go.mean(axis=axes, keepdims=True)
    np.multiply(go, xhat, out=tmp)
    mean_dxhat_xhat = tmp.mean(axis=axes, keepdims=True)
    go -= mean_dxhat
    np.multiply(xhat, mean_dxhat_xhat, out=tmp)
    go -= tmp
    go *= cache.inv_std[None, :, None, None]
    return go.astype(np.float32), grad_scale.astype(np.float32), grad_shift.astype(np.float32)


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
