"""Independent brute-force oracles.

Everything here is written with plain loops against the definitions, on
purpose: these are the reference implementations the fast library paths are
verified against, so they must not share any code with the package.
"""

import csv

import numpy as np

from arm_lab.errors import DataError


def shuffle_oracle(x: np.ndarray, ratio: int) -> np.ndarray:
    """Move element (n, c*r^2 + dy*r + dx, i, j) to (n, c, i*r + dy, j*r + dx)."""
    n, c, h, w = x.shape
    r = ratio
    oc = c // (r * r)
    out = np.zeros((n, oc, h * r, w * r), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            base, rem = divmod(ci, r * r)
            dy, dx = divmod(rem, r)
            for i in range(h):
                for j in range(w):
                    out[ni, base, i * r + dy, j * r + dx] = x[ni, ci, i, j]
    return out


def max_ratio_oracle(channels: int) -> int:
    best = 1
    for r in range(1, channels + 1):
        if r * r > channels:
            break
        if channels % (r * r) == 0:
            best = r
    return best


def conv_oracle(
    x: np.ndarray, kernel: np.ndarray, stride: int, padding: int, shared: bool
) -> np.ndarray:
    """Cross-correlation with explicit loops over every output element."""
    n, c, h, w = x.shape
    k = kernel.shape[-1]
    out_h = (h + 2 * padding - k) // stride + 1
    out_w = (w + 2 * padding - k) // stride + 1
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=np.float64)
    padded[:, :, padding : padding + h, padding : padding + w] = x
    if shared:
        out = np.zeros((n, c, out_h, out_w))
        for ni in range(n):
            for ci in range(c):
                for oi in range(out_h):
                    for oj in range(out_w):
                        acc = 0.0
                        for ky in range(k):
                            for kx in range(k):
                                acc += (
                                    padded[ni, ci, oi * stride + ky, oj * stride + kx]
                                    * float(kernel[ky, kx])
                                )
                        out[ni, ci, oi, oj] = acc
        return out
    oc = kernel.shape[0]
    out = np.zeros((n, oc, out_h, out_w))
    for ni in range(n):
        for oi in range(out_h):
            for oj in range(out_w):
                for co in range(oc):
                    acc = 0.0
                    for ci in range(c):
                        for ky in range(k):
                            for kx in range(k):
                                acc += (
                                    padded[ni, ci, oi * stride + ky, oj * stride + kx]
                                    * float(kernel[co, ci, ky, kx])
                                )
                    out[ni, co, oi, oj] = acc
    return out


def conv2d_forward_naive(
    x: np.ndarray, kernel: np.ndarray, stride: int, padding: int, shared: bool
) -> np.ndarray:
    """Cross-correlation by explicit window iteration, rounded to float32."""
    k = kernel.shape[-1]
    pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    padded = np.pad(np.asarray(x, dtype=np.float64), pad)
    kern = np.asarray(kernel, dtype=np.float64)
    n, c = padded.shape[:2]
    out_h = (padded.shape[2] - k) // stride + 1
    out_w = (padded.shape[3] - k) // stride + 1
    out = np.zeros((n, c if shared else kern.shape[0], out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            window = padded[:, :, i * stride : i * stride + k, j * stride : j * stride + k]
            if shared:
                out[:, :, i, j] = np.sum(window * kern, axis=(2, 3))
            else:
                out[:, :, i, j] = np.einsum("ncyx,ocyx->no", window, kern)
    return out.astype(np.float32)


def conv_forward_one_gemm(
    x: np.ndarray, kernel: np.ndarray, stride: int, padding: int, shared: bool
) -> np.ndarray:
    """The forward as one float64 GEMM over the whole im2col matrix, rounded to float32.

    The matrix has a row per (channel, ky, kx) tap and a column per (i, j, b)
    output position, batch innermost, where a shared kernel's batch is every
    (sample, channel) plane; the kernel is (out channels, taps). Any way of
    building the same product in pieces must give these values bit for bit.
    """
    n, c, h, w = x.shape
    k = kernel.shape[-1]
    planes = np.asarray(x, dtype=np.float64).reshape(-1, 1 if shared else c, h, w)
    b, ci = planes.shape[:2]
    pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    padded = np.pad(planes, pad)
    out_h = (h + 2 * padding - k) // stride + 1
    out_w = (w + 2 * padding - k) // stride + 1
    cols = np.empty((ci, k, k, out_h, out_w, b))
    for ky in range(k):
        for kx in range(k):
            window = padded[:, :, ky : ky + stride * out_h : stride, kx : kx + stride * out_w : stride]
            cols[:, ky, kx] = window.transpose(1, 2, 3, 0)
    kmat = np.asarray(kernel, dtype=np.float64).reshape(-1, ci * k * k)
    out = kmat @ cols.reshape(ci * k * k, -1)
    out = out.reshape(-1, out_h, out_w, b).transpose(3, 0, 1, 2).reshape(n, -1, out_h, out_w)
    return out.astype(np.float32)


def conv_backward_oracle(
    x: np.ndarray,
    kernel: np.ndarray,
    grad_out: np.ndarray,
    stride: int,
    padding: int,
    shared: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Input and kernel gradients of sum(grad_out * conv(x)), one product at a time.

    Every output element (n, o, i, j) read input pixel (n, c, i*s + ky - p,
    j*s + kx - p) through kernel tap (ky, kx); taps that landed on padding
    contribute to the kernel gradient with a zero input and to no input pixel.
    """
    n, c, h, w = x.shape
    k = kernel.shape[-1]
    _, oc, out_h, out_w = grad_out.shape
    grad_x = np.zeros((n, c, h, w), dtype=np.float64)
    grad_kernel = np.zeros(kernel.shape, dtype=np.float64)
    for ni in range(n):
        for co in range(oc):
            for oi in range(out_h):
                for oj in range(out_w):
                    g = float(grad_out[ni, co, oi, oj])
                    for ci in [co] if shared else range(c):
                        for ky in range(k):
                            for kx in range(k):
                                y = oi * stride + ky - padding
                                xx = oj * stride + kx - padding
                                if not (0 <= y < h and 0 <= xx < w):
                                    continue
                                tap = (ky, kx) if shared else (co, ci, ky, kx)
                                grad_x[ni, ci, y, xx] += g * float(kernel[tap])
                                grad_kernel[tap] += g * float(x[ni, ci, y, xx])
    return grad_x, grad_kernel


def conv_backward_float64(
    x: np.ndarray,
    kernel: np.ndarray,
    grad_out: np.ndarray,
    stride: int,
    padding: int,
    shared: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """conv_backward_oracle's gradients in float64, one kernel tap at a time.

    Fast enough for full-size batches: tap (ky, kx) reads the strided window
    of the zero-padded input that it multiplied, and its input gradient is
    added back onto that window.
    """
    _, _, h, w = x.shape
    k = kernel.shape[-1]
    _, _, out_h, out_w = grad_out.shape
    pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    padded = np.pad(np.asarray(x, dtype=np.float64), pad)
    go = np.asarray(grad_out, dtype=np.float64)
    kern = np.asarray(kernel, dtype=np.float64)
    grad_padded = np.zeros_like(padded)
    grad_kernel = np.zeros(kern.shape)
    for ky in range(k):
        for kx in range(k):
            window = (
                slice(None), slice(None),
                slice(ky, ky + stride * out_h, stride), slice(kx, kx + stride * out_w, stride),
            )
            if shared:
                grad_kernel[ky, kx] = np.sum(go * padded[window])
                grad_padded[window] += go * kern[ky, kx]
            else:
                grad_kernel[:, :, ky, kx] = np.einsum("nohw,nchw->oc", go, padded[window])
                grad_padded[window] += np.einsum("nohw,oc->nchw", go, kern[:, :, ky, kx])
    return grad_padded[:, :, padding : padding + h, padding : padding + w], grad_kernel


def conv_backward_padded(
    x: np.ndarray,
    kernel: np.ndarray,
    grad_out: np.ndarray,
    stride: int,
    padding: int,
    shared: bool,
    broadcast: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """conv2d_backward as it was while its col2im ran on a padded buffer.

    Float32 im2col columns, a row per (channel, ky, kx) tap and a column per
    (i, j, b) output position, batch innermost; the kernel gradient
    go @ cols^T; the column gradient W^T @ go written into the column buffer,
    as a broadcast product when there is one output channel (broadcast=False
    keeps the matmul there, as before that change). col2im adds each tap's
    plane back onto a (C, H + 2p, W + 2p, B) buffer of +0.0 in (ky, kx)
    order, and grad_x is a copy of its interior. The primitive must equal
    this bit for bit, zero signs included.
    """
    n, c, h, w = x.shape
    k = kernel.shape[-1]
    s, p = stride, padding
    _, _, out_h, out_w = grad_out.shape
    planes = np.asarray(x, np.float32).reshape(-1, 1 if shared else c, h, w)
    b, ci = planes.shape[:2]
    padded = np.zeros((ci, h + 2 * p, w + 2 * p, b), np.float32)
    padded[:, p : p + h, p : p + w] = planes.transpose(1, 2, 3, 0)
    cols = np.empty((ci, k, k, out_h, out_w, b), np.float32)
    for ky in range(k):
        for kx in range(k):
            cols[:, ky, kx] = padded[:, ky : ky + s * out_h : s, kx : kx + s * out_w : s]
    cols = cols.reshape(ci * k * k, -1)
    kmat = np.asarray(kernel, np.float32).reshape(-1, ci * k * k)
    go = np.asarray(grad_out, np.float32).reshape(b, -1, out_h, out_w).transpose(1, 2, 3, 0)
    go = np.ascontiguousarray(go).reshape(kmat.shape[0], -1)
    grad_kernel = (go @ cols.T).reshape(kernel.shape)
    if broadcast and kmat.shape[0] == 1:
        grad_cols = np.multiply(kmat.T, go, out=cols)
    else:
        grad_cols = np.matmul(kmat.T, go, out=cols)
    grad_cols = grad_cols.reshape(ci, k, k, out_h, out_w, b)
    grad_padded = np.zeros((ci, h + 2 * p, w + 2 * p, b), np.float32)
    for ky in range(k):
        for kx in range(k):
            tap = grad_padded[:, ky : ky + s * out_h : s, kx : kx + s * out_w : s]
            tap += grad_cols[:, ky, kx]
    del cols, grad_cols  # free the column buffer before the interior copy
    grad_x = grad_padded[:, p : p + h, p : p + w].copy().transpose(3, 0, 1, 2)
    return grad_x.reshape(x.shape), grad_kernel


def conv_backward_matmul(x, kernel, grad_out, stride, padding, shared):
    """conv_backward_padded with the column gradient always one matmul, W^T @ go."""
    return conv_backward_padded(x, kernel, grad_out, stride, padding, shared, broadcast=False)


# The three expressions below are batchnorm, batchnorm_backward and
# relu_backward as written before their scratch arrays were reused. They are
# not loops: the primitives must equal them bit for bit, so they keep the
# exact operations, memory orders and evaluation order of that version.
BN_ORACLE_MOMENTUM = 0.1
BN_ORACLE_EPS = 1e-5


def batchnorm_oracle(x, scale, shift, running_mean, running_var, mode):
    """(out, new running mean, new running var, (xhat, inv_std, scale64) or None)."""
    data = x.astype(np.float64)
    if mode == "train":
        mean = data.mean(axis=(0, 2, 3))
        var = data.var(axis=(0, 2, 3))
        m = BN_ORACLE_MOMENTUM
        running_mean = ((1.0 - m) * running_mean + m * mean).astype(np.float32)
        running_var = ((1.0 - m) * running_var + m * var).astype(np.float32)
    else:
        mean = running_mean.astype(np.float64)
        var = running_var.astype(np.float64)
    inv_std = 1.0 / np.sqrt(var + BN_ORACLE_EPS)
    xhat = (data - mean[None, :, None, None]) * inv_std[None, :, None, None]
    scale64 = scale.astype(np.float64)
    out = xhat * scale64[None, :, None, None]
    out += shift.astype(np.float64)[None, :, None, None]
    cache = (xhat, inv_std, scale64) if mode == "train" else None
    return out.astype(np.float32), running_mean, running_var, cache


def batchnorm_backward_oracle(grad_out, xhat, inv_std, scale64):
    """(grad_x, grad_scale, grad_shift) from a train-mode batchnorm_oracle cache."""
    go = grad_out.astype(np.float64)
    grad_scale = np.sum(go * xhat, axis=(0, 2, 3))
    grad_shift = np.sum(go, axis=(0, 2, 3))
    dxhat = go * scale64[None, :, None, None]
    grad_x = (
        dxhat
        - dxhat.mean(axis=(0, 2, 3), keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=(0, 2, 3), keepdims=True)
    ) * inv_std[None, :, None, None]
    return grad_x.astype(np.float32), grad_scale.astype(np.float32), grad_shift.astype(np.float32)


def relu_backward_oracle(grad_out, x):
    return np.where(x > 0.0, grad_out, 0.0)


def perception_oracle(height: int, width: int, k: int, s: int, p: int) -> np.ndarray:
    """Slide every window explicitly and count which real pixels it covers."""
    out_h = (height + 2 * p - k) // s + 1
    out_w = (width + 2 * p - k) // s + 1
    counts = np.zeros((height, width), dtype=np.int64)
    for oi in range(out_h):
        for oj in range(out_w):
            top, left = oi * s - p, oj * s - p
            for y in range(top, top + k):
                for x in range(left, left + k):
                    if 0 <= y < height and 0 <= x < width:
                        counts[y, x] += 1
    return counts


def albino_oracle(height, width, layers) -> list[np.ndarray]:
    """Contamination after each layer prefix, via explicit window mass sums."""
    mass = np.ones((height, width), dtype=np.float64)
    results = []
    for k, s, p in layers:
        h, w = mass.shape
        out_h = (h + 2 * p - k) // s + 1
        out_w = (w + 2 * p - k) // s + 1
        nxt = np.zeros((out_h, out_w))
        for oi in range(out_h):
            for oj in range(out_w):
                total = 0.0
                top, left = oi * s - p, oj * s - p
                for y in range(top, top + k):
                    for x in range(left, left + k):
                        if 0 <= y < h and 0 <= x < w:
                            total += mass[y, x]
                nxt[oi, oj] = total / (k * k)
        mass = nxt
        results.append(1.0 - mass)
    return results


def cluster_profile_oracle(
    in_h: int, in_w: int, ratio: int, k: int, s: int
) -> np.ndarray:
    """Sum perception counts of the arranged map inside each r x r cluster."""
    counts = perception_oracle(in_h * ratio, in_w * ratio, k, s, 0)
    profile = np.zeros((in_h, in_w), dtype=np.int64)
    for i in range(in_h):
        for j in range(in_w):
            for dy in range(ratio):
                for dx in range(ratio):
                    profile[i, j] += counts[i * ratio + dy, j * ratio + dx]
    return profile


def adam_oracle(param, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8) -> np.ndarray:
    """Replay a gradient sequence through textbook Adam in float64."""
    p = np.asarray(param, dtype=np.float64).copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        g = np.asarray(g, dtype=np.float64)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


def accuracy_oracle(counts: np.ndarray) -> tuple[float, float]:
    """Overall and class-averaged accuracy from raw confusion counts."""
    counts = np.asarray(counts, dtype=np.float64)
    wa = float(np.trace(counts) / counts.sum())
    per_class = []
    for i, row in enumerate(counts):
        if row.sum() > 0:
            per_class.append(row[i] / row.sum())
    return wa, float(np.mean(per_class))


def arm_shape_trace(config) -> list[tuple[str, tuple[int, ...]]]:
    """Per-stage output shapes of the amendment head for one sample, input through logits.

    Reads only the config's resolved fields; the arithmetic is the definition:
    arrangement maps (C, H, W) to (C/r^2, H*r, W*r), and the unpadded
    weighting window of size k and stride s leaves (E - k) // s + 1 positions.
    """
    r, k, s = config.ratio, config.da_kernel, config.da_stride
    oc, ah, aw = config.channels // (r * r), config.height * r, config.width * r
    fh, fw = (ah - k) // s + 1, (aw - k) // s + 1
    return [
        ("input", (config.channels, config.height, config.width)),
        ("arranged", (oc, ah, aw)),
        ("weighted", (oc, fh, fw)),
        ("normalized", (oc, fh, fw)),
        ("pooled", (fh, fw)),
        ("affinity", (fh, fw)),
        ("flattened", (fh * fw,)),
        ("logits", (config.classes,)),
    ]


def read_confusion_csv(path) -> tuple[list[str], np.ndarray]:
    """Class names and counts back from a confusion.csv."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    classes = rows[0][1:]
    counts = np.array([[int(v) for v in row[1:]] for row in rows[1:]], dtype=np.int64)
    return classes, counts


def pgm_header_oracle(raw: bytes, path) -> np.ndarray:
    """A P5 file's pixels by the byte loop the reader used to run, or ValueError.

    Whitespace is what bytes.isspace() accepts; a "#" comment may start only
    where a field may and runs to the next newline; a field is a run of ASCII
    digits; exactly one byte follows maxval. The messages are the reader's.
    """
    if not raw.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM (P5) file")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"{path}: truncated header")
        token = raw[start:pos]
        if not token.isdigit():
            raise ValueError(f"{path}: header field {token!r} is not a non-negative integer")
        fields.append(int(token))
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = fields
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported, got {maxval}")
    payload = raw[pos : pos + width * height]
    if len(payload) != width * height:
        raise ValueError(f"{path}: truncated payload")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width)


def split_index_oracle(index, val_fraction: float, seed):
    """The (train, val) indexes of a split that copies each side's images.

    This is split_index's body from before it returned row ids. It builds
    each side with DatasetIndex.subset, so a comparison checks which rows
    each side holds and in what order.
    """
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
