"""Finite-difference harness shared by the gradient unit and acceptance suites.

Each case builds a randomized small instance of one layer, computes the
analytic gradient of a fixed float64 dot-product probe loss, and compares it
against central differences. Shapes vary with the seed so many seeds cover
many geometries.
"""

import copy
import tracemalloc
import zlib
from functools import partial

import numpy as np

from arm_lab.arm import GenericFeatureState, affinity_backward, affinity_forward
from arm_lab.arrange import pixel_shuffle, pixel_unshuffle
from arm_lab.tensor import (
    ConvGeometry,
    RunningStats,
    Tensor,
    batchnorm,
    batchnorm_backward,
    channel_mean,
    channel_mean_backward,
    conv2d_backward,
    conv2d_forward,
    linear,
    linear_backward,
    relu,
    relu_backward,
    softmax_cross_entropy,
)

TOLERANCE = 1e-3
TOLERANCE_CROSS_ENTROPY = 1e-4


class OracleError(RuntimeError):
    """A verification oracle hit a non-finite evaluation."""


def finite_diff_grad(f, x: np.ndarray, step: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time.

    Divides by the realized float32 step rather than the nominal one so the
    storage rounding of x +/- h does not bias the quotient. Returns float64.
    """
    if step <= 0:
        raise OracleError(f"step must be positive, got {step}")
    base = x.copy()
    flat = base.reshape(-1)
    grad = np.zeros(flat.shape, dtype=np.float64)
    probe = base.copy()
    probe_flat = probe.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        hi = np.float32(orig + step)
        lo = np.float32(orig - step)
        probe_flat[i] = hi
        f_hi = float(f(probe))
        probe_flat[i] = lo
        f_lo = float(f(probe))
        probe_flat[i] = orig
        if not (np.isfinite(f_hi) and np.isfinite(f_lo)):
            raise OracleError(f"non-finite evaluation at coordinate {i}")
        denom = float(hi) - float(lo)
        grad[i] = (f_hi - f_lo) / denom
    return grad.reshape(x.shape)


def traced_peak(fn) -> int:
    """Bytes allocated at the peak of fn(), over what was live before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def _rel_error(fd: np.ndarray, analytic: np.ndarray) -> float:
    analytic = np.asarray(analytic, dtype=np.float64).reshape(fd.shape)
    denom = max(np.abs(fd).max(), np.abs(analytic).max(), 1e-10)
    return float(np.abs(fd - analytic).max() / denom)


def _probe(forward, analytic_fn, x0: np.ndarray, rng, step=1e-3) -> float:
    """Compare FD and analytic gradients of sum(w * forward(x)) at x0."""
    out0 = forward(x0)
    weights = rng.standard_normal(out0.shape)

    def loss(t: np.ndarray) -> float:
        return float(np.sum(forward(t).astype(np.float64) * weights))

    fd = finite_diff_grad(loss, x0, step=step)
    analytic = analytic_fn(weights.astype(np.float32))
    return _rel_error(fd, analytic)


# A conv or batchnorm case's layout lays out every NCHW activation and output
# gradient it feeds the layer, finite-difference probes included.


def nchw(a: np.ndarray) -> np.ndarray:
    return a


def batch_innermost(a: np.ndarray) -> np.ndarray:
    """The values of NCHW array a in memory order (C, H, W, N), as convolutions return them."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def _conv_setup(rng, shared: bool):
    n = int(rng.integers(2, 4))
    c = int(rng.integers(2, 5))
    h = int(rng.integers(5, 9))
    w = int(rng.integers(5, 9))
    k = int(rng.integers(2, 4))
    s = int(rng.integers(1, 3))
    p = int(rng.integers(0, 2))
    oc = c if shared else int(rng.integers(2, 5))
    geom = ConvGeometry(k, s, p, c, oc, shared_single_channel=shared)
    x = rng.standard_normal((n, c, h, w)).astype(np.float32)
    kernel = (rng.standard_normal(geom.kernel_shape()) * 0.5).astype(np.float32)
    return x, kernel, geom


def case_conv_input(rng, shared=False, layout=nchw) -> float:
    x, kernel, geom = _conv_setup(rng, shared)
    return _probe(
        lambda t: conv2d_forward(layout(t), Tensor(kernel), geom),
        lambda w: conv2d_backward(layout(w), layout(x), Tensor(kernel), geom)[0],
        x, rng,
    )


def case_conv_kernel(rng, shared=False, layout=nchw) -> float:
    x, kernel, geom = _conv_setup(rng, shared)
    x = layout(x)
    return _probe(
        lambda t: conv2d_forward(x, Tensor(t), geom),
        lambda w: conv2d_backward(layout(w), x, Tensor(kernel), geom)[1],
        kernel, rng,
    )


def _bn_setup(rng):
    n = int(rng.integers(3, 6))
    c = int(rng.integers(2, 5))
    h = int(rng.integers(3, 6))
    x = rng.standard_normal((n, c, h, h)).astype(np.float32)
    scale = (1.0 + 0.3 * rng.standard_normal(c)).astype(np.float32)
    shift = (0.2 * rng.standard_normal(c)).astype(np.float32)
    return x, scale, shift, c


def case_batchnorm(rng, which: str, layout=nchw) -> float:
    x, scale, shift, c = _bn_setup(rng)

    def forward(t: np.ndarray) -> np.ndarray:
        parts = {"x": x, "scale": scale, "shift": shift}
        parts[which] = t
        out, _ = batchnorm(
            layout(parts["x"]), Tensor(parts["scale"]), Tensor(parts["shift"]),
            RunningStats.init(c), mode="train",
        )
        return out

    def analytic(w: np.ndarray):
        _, cache = batchnorm(
            layout(x), Tensor(scale), Tensor(shift), RunningStats.init(c), mode="train"
        )
        gx, gs, gb = batchnorm_backward(layout(w), cache)
        return {"x": gx, "scale": gs, "shift": gb}[which]

    x0 = {"x": x, "scale": scale, "shift": shift}[which]
    return _probe(forward, analytic, x0, rng)


def _linear_setup(rng):
    n = int(rng.integers(3, 7))
    f = int(rng.integers(4, 12))
    k = int(rng.integers(2, 6))
    x = rng.standard_normal((n, f)).astype(np.float32)
    weight = (rng.standard_normal((k, f)) * 0.4).astype(np.float32)
    bias = (rng.standard_normal(k) * 0.1).astype(np.float32)
    return x, weight, bias


def case_linear_input(rng) -> float:
    x, weight, bias = _linear_setup(rng)
    return _probe(
        lambda t: linear(t, Tensor(weight), Tensor(bias)),
        lambda w: linear_backward(w, x, Tensor(weight))[0],
        x, rng,
    )


def case_linear_weight(rng) -> float:
    x, weight, bias = _linear_setup(rng)
    return _probe(
        lambda t: linear(x, Tensor(t), Tensor(bias)),
        lambda w: linear_backward(w, x, Tensor(weight))[1],
        weight, rng,
    )


def case_linear_bias(rng) -> float:
    x, weight, bias = _linear_setup(rng)
    return _probe(
        lambda t: linear(x, Tensor(weight), Tensor(t)),
        lambda w: linear_backward(w, x, Tensor(weight))[2],
        bias, rng,
    )


def case_channel_mean(rng) -> float:
    n, c, h = int(rng.integers(2, 5)), int(rng.integers(2, 7)), int(rng.integers(3, 7))
    x = rng.standard_normal((n, c, h, h)).astype(np.float32)
    return _probe(
        channel_mean, lambda w: channel_mean_backward(w, c), x, rng,
    )


def case_relu(rng) -> float:
    # magnitudes bounded away from zero so the finite step cannot cross the kink
    n, c, h = int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(3, 7))
    sign = rng.choice([-1.0, 1.0], size=(n, c, h, h))
    x = (sign * rng.uniform(0.25, 1.5, size=(n, c, h, h))).astype(np.float32)
    return _probe(
        relu, lambda w: relu_backward(w, x), x, rng,
    )


def case_arrangement(rng) -> float:
    r = int(rng.integers(2, 4))
    oc = int(rng.integers(1, 3))
    n, h = int(rng.integers(2, 4)), int(rng.integers(2, 5))
    x = rng.standard_normal((n, oc * r * r, h, h)).astype(np.float32)
    return _probe(
        lambda t: pixel_shuffle(t, r),
        lambda w: pixel_unshuffle(w, r),
        x, rng,
    )


def _primed_state(rng, shape) -> GenericFeatureState:
    state = GenericFeatureState.create(float(rng.uniform(0.1, 0.9)))
    primer = rng.standard_normal((3,) + shape).astype(np.float32)
    affinity_forward(state, primer, "train")
    return state


def _affinity_train(state: GenericFeatureState, features, smoothing=None):
    """One train pass on a copy of the primed state, so every probe sees the same buffer."""
    probe_state = copy.deepcopy(state)
    if smoothing is not None:
        probe_state.smoothing.data = smoothing
    return affinity_forward(probe_state, features, "train")


def case_affinity_features(rng) -> float:
    h = int(rng.integers(3, 7))
    state = _primed_state(rng, (h, h))
    x = rng.standard_normal((4, h, h)).astype(np.float32)
    return _probe(
        lambda t: _affinity_train(state, t)[0],
        lambda w: affinity_backward(w, _affinity_train(state, x)[1])[0],
        x, rng,
    )


def case_affinity_smoothing(rng) -> float:
    h = int(rng.integers(3, 7))
    state = _primed_state(rng, (h, h))
    x = rng.standard_normal((4, h, h)).astype(np.float32)
    return _probe(
        lambda t: _affinity_train(state, x, smoothing=t)[0],
        lambda w: np.array([affinity_backward(w, _affinity_train(state, x)[1])[1]]),
        state.smoothing.data.copy(), rng,
    )


def case_cross_entropy(rng) -> float:
    n, k = int(rng.integers(3, 9)), int(rng.integers(3, 9))
    logits = rng.standard_normal((n, k)).astype(np.float32)
    labels = rng.integers(0, k, n)
    _, analytic = softmax_cross_entropy(logits, labels)
    fd = finite_diff_grad(lambda t: softmax_cross_entropy(t, labels)[0], logits, step=1e-3)
    return _rel_error(fd, analytic)


LAYER_CASES = {
    "conv_input": case_conv_input,
    "conv_kernel": case_conv_kernel,
    "shared_conv_input": partial(case_conv_input, shared=True),
    "shared_conv_kernel": partial(case_conv_kernel, shared=True),
    "batchnorm_input": partial(case_batchnorm, which="x"),
    "batchnorm_scale": partial(case_batchnorm, which="scale"),
    "batchnorm_shift": partial(case_batchnorm, which="shift"),
}

CASES = {
    **{name: (fn, TOLERANCE) for name, fn in LAYER_CASES.items()},
    **{f"{name}_batch_innermost": (partial(fn, layout=batch_innermost), TOLERANCE)
       for name, fn in LAYER_CASES.items()},
    "linear_input": (case_linear_input, TOLERANCE),
    "linear_weight": (case_linear_weight, TOLERANCE),
    "linear_bias": (case_linear_bias, TOLERANCE),
    "channel_mean": (case_channel_mean, TOLERANCE),
    "relu": (case_relu, TOLERANCE),
    "arrangement": (case_arrangement, TOLERANCE),
    "affinity_features": (case_affinity_features, TOLERANCE),
    "affinity_smoothing": (case_affinity_smoothing, TOLERANCE),
    "cross_entropy": (case_cross_entropy, TOLERANCE_CROSS_ENTROPY),
}


def run_case(name: str, seed: int) -> tuple[float, float]:
    """Run one named case under one seed; returns (rel_error, tolerance)."""
    fn, tol = CASES[name]
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    return fn(rng), tol
