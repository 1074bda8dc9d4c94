import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arm_lab
from arm_lab.data import synth_dataset
from arm_lab.errors import DataError, GeometryError, KernelTooLargeError
from arm_lab.tensor import (
    GEMM_COLUMN_TILE,
    SLAB_VALUES,
    ConvGeometry,
    RunningStats,
    Tensor,
    batchnorm,
    batchnorm_backward,
    channel_mean,
    channel_mean_backward,
    conv2d_backward,
    conv2d_forward,
    kaiming_uniform,
    linear,
    load_tensor,
    relu,
    relu_backward,
    save_tensor,
    softmax_cross_entropy,
)

from gradcheck import batch_innermost, finite_diff_grad, traced_peak
from oracles import (
    batchnorm_backward_oracle,
    batchnorm_oracle,
    conv2d_forward_naive,
    conv_backward_float64,
    conv_backward_matmul,
    conv_backward_oracle,
    conv_backward_padded,
    conv_forward_one_gemm,
    conv_oracle,
    relu_backward_oracle,
)

# (n, c, h, w, k, s, p, out_channels, shared)
CONV_CASES = [
    (2, 3, 7, 7, 3, 1, 0, 4, False),
    (1, 2, 8, 6, 3, 2, 1, 5, False),
    (3, 4, 5, 5, 2, 1, 2, 3, False),
    (2, 3, 7, 7, 3, 1, 0, 3, True),
    (1, 4, 9, 9, 4, 2, 0, 4, True),
    (2, 2, 6, 6, 3, 3, 1, 2, True),
    (2, 2, 16, 16, 8, 2, 0, 2, True),  # the ARM head's reference weighting geometry
    (2, 3, 5, 4, 1, 1, 0, 3, True),
]


class TestTensor:
    def test_stores_float32_contiguous(self):
        t = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        assert t.data.dtype == np.float32
        assert t.data.flags["C_CONTIGUOUS"]
        assert t.shape == (2, 3)

    def test_rejects_rank_over_four(self):
        with pytest.raises(GeometryError, match="rank 5"):
            Tensor(np.zeros((1, 1, 1, 1, 1)))

    def test_grad_accumulates(self):
        t = Tensor(np.zeros((2, 2)))
        t.add_grad(np.ones((2, 2)))
        t.add_grad(np.ones(4))  # flat deltas reshape to the tensor
        assert np.all(t.grad == 2.0)
        t.zero_grad()
        assert np.all(t.grad == 0.0)


class TestTenFormat:
    @pytest.mark.parametrize("shape", [(), (3,), (2, 3), (2, 3, 4), (1, 2, 3, 4)])
    def test_round_trip(self, tmp_path, shape):
        rng = np.random.default_rng(0)
        t = rng.standard_normal(shape).astype(np.float32)
        path = tmp_path / "x.ten"
        save_tensor(path, t)
        back = load_tensor(path)
        assert back.shape == t.shape
        assert np.array_equal(back, t)

    def test_layout_is_as_documented(self, tmp_path):
        path = tmp_path / "x.ten"
        save_tensor(path, np.array([[1.0, 2.0], [3.0, 4.0]], np.float32))
        raw = path.read_bytes()
        assert raw[:4] == b"ARMT"
        assert raw[4] == 1  # version
        assert raw[5] == 2  # rank
        assert np.frombuffer(raw[6:14], dtype="<u4").tolist() == [2, 2]
        assert np.frombuffer(raw[14:], dtype="<f4").tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ten"
        path.write_bytes(b"NOPE" + bytes(10))
        with pytest.raises(DataError, match="magic"):
            load_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.ten"
        save_tensor(path, np.ones((4, 4), np.float32))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match="truncated"):
            load_tensor(path)

    def test_truncation_at_every_offset_is_data_error(self, tmp_path):
        path = tmp_path / "x.ten"
        save_tensor(path, np.arange(6, dtype=np.float32).reshape(2, 3))
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(DataError):
                load_tensor(path)

    def test_huge_extents_are_data_error(self, tmp_path):
        path = tmp_path / "x.ten"
        path.write_bytes(b"ARMT" + bytes([1, 4]) + b"\xff" * 16 + bytes(16))
        with pytest.raises(DataError, match="truncated payload"):
            load_tensor(path)


class TestConvGeometry:
    def test_out_extent(self):
        geom = ConvGeometry(32, 8, 0, 2, 2, shared_single_channel=True)
        assert geom.out_extent(112) == 11

    def test_kernel_too_large(self):
        geom = ConvGeometry(5, 1, 0, 1, 1)
        with pytest.raises(KernelTooLargeError):
            geom.out_extent(4)

    def test_param_counts(self):
        assert ConvGeometry(3, 1, 1, 4, 8).param_count == 8 * 4 * 9
        shared = ConvGeometry(32, 8, 0, 2, 2, shared_single_channel=True)
        assert shared.param_count == 1024
        assert shared.kernel_shape() == (32, 32)

    def test_shared_requires_equal_channels(self):
        with pytest.raises(GeometryError, match="channel count"):
            ConvGeometry(3, 1, 0, 2, 4, shared_single_channel=True)


def in_layout(a: np.ndarray, layout: str) -> np.ndarray:
    """The values of NCHW array a, laid out in memory as the layout names."""
    if layout == "nchw":
        return np.ascontiguousarray(a)
    if layout == "batch_innermost":
        return batch_innermost(a)
    n, c, h, w = a.shape  # "sliced": every other column of a larger buffer, offset one sample
    buf = np.full((n + 1, c, h, 2 * w), np.nan, a.dtype)
    buf[1:, :, :, ::2] = a
    return buf[1:, :, :, ::2]


# every conv case in each layout; the NCHW cases keep their plain ids
CONV_LAYOUT_CASES = [
    pytest.param(*case, layout, id="-".join(map(str, case)) + f"-{layout}" * (layout != "nchw"))
    for layout in ("nchw", "batch_innermost", "sliced")
    for case in CONV_CASES
]


class TestConv2d:
    @pytest.mark.parametrize("n,c,h,w,k,s,p,oc,shared,layout", CONV_LAYOUT_CASES)
    def test_matches_loop_oracle_and_naive_path(self, n, c, h, w, k, s, p, oc, shared, layout):
        rng = np.random.default_rng([n, c, h, w, k, s, p])
        geom = ConvGeometry(k, s, p, c, oc, shared_single_channel=shared)
        x = rng.standard_normal((n, c, h, w)).astype(np.float32)
        kernel = Tensor(rng.standard_normal(geom.kernel_shape()).astype(np.float32))
        fast = conv2d_forward(in_layout(x, layout), kernel, geom)
        naive = conv2d_forward_naive(x, kernel.data, s, p, shared)
        oracle = conv_oracle(x, kernel.data, s, p, shared)
        assert np.abs(fast - naive).max() <= 1e-6
        assert np.abs(fast.astype(np.float64) - oracle).max() <= 1e-5
        # the layout decides only where values are read from, never their sums
        assert np.array_equal(fast, conv2d_forward(x, kernel, geom))

    @pytest.mark.parametrize("n,c,h,w,k,s,p,oc,shared,layout", CONV_LAYOUT_CASES)
    def test_backward_matches_loop_oracle(self, n, c, h, w, k, s, p, oc, shared, layout):
        rng = np.random.default_rng([n, c, h, w, k, s, p, 1])
        geom = ConvGeometry(k, s, p, c, oc, shared_single_channel=shared)
        x = rng.standard_normal((n, c, h, w)).astype(np.float32)
        kernel = Tensor(rng.standard_normal(geom.kernel_shape()).astype(np.float32))
        out_shape = (n, oc, geom.out_extent(h), geom.out_extent(w))
        grad_out = rng.standard_normal(out_shape).astype(np.float32)
        grad_x, grad_kernel = conv2d_backward(
            in_layout(grad_out, layout), in_layout(x, layout), kernel, geom
        )
        want_x, want_kernel = conv_backward_oracle(x, kernel.data, grad_out, s, p, shared)
        assert grad_x.shape == x.shape and grad_kernel.shape == kernel.shape
        assert np.abs(grad_x.astype(np.float64) - want_x).max() <= 1e-5
        assert np.abs(grad_kernel.astype(np.float64) - want_kernel).max() <= 1e-5
        nchw_x, nchw_kernel = conv2d_backward(grad_out, x, kernel, geom)
        assert np.array_equal(grad_x, nchw_x) and np.array_equal(grad_kernel, nchw_kernel)

    def test_padding_equals_explicit_zero_extension(self):
        """Padded convolution must equal p=0 on an explicitly extended input, bit for bit."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        kernel = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        for p in (1, 2):
            padded_geom = ConvGeometry(3, 1, p, 3, 4)
            zero_geom = ConvGeometry(3, 1, 0, 3, 4)
            extended = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
            a = conv2d_forward(x, Tensor(kernel), padded_geom)
            b = conv2d_forward(extended, Tensor(kernel), zero_geom)
            assert np.array_equal(a, b)

    def test_shared_kernel_is_channelwise_independent(self):
        rng = np.random.default_rng(9)
        geom = ConvGeometry(2, 1, 0, 3, 3, shared_single_channel=True)
        x = rng.standard_normal((1, 3, 4, 4)).astype(np.float32)
        kernel = Tensor(rng.standard_normal((2, 2)).astype(np.float32))
        full = conv2d_forward(x, kernel, geom)
        for ci in range(3):
            single_geom = ConvGeometry(2, 1, 0, 1, 1, shared_single_channel=True)
            single = conv2d_forward(x[:, ci : ci + 1], kernel, single_geom)
            assert np.array_equal(full[:, ci : ci + 1], single)

    def test_backbone_activations_stay_batch_innermost(self):
        """Every backbone block's outputs keep the layout the next im2col copies fastest."""
        rng = np.random.default_rng(11)
        x = rng.standard_normal((16, 1, 32, 32)).astype(np.float32)  # NCHW images
        for c_in, c_out in [(1, 8), (8, 16), (16, 32)]:
            geom = ConvGeometry(3, 2, 1, c_in, c_out)
            kernel = Tensor(kaiming_uniform(rng, geom.kernel_shape(), c_in * 9))
            conv = conv2d_forward(x, kernel, geom)
            normalized, _ = batchnorm(
                conv, Tensor(np.ones(c_out, np.float32)), Tensor(np.zeros(c_out, np.float32)),
                RunningStats.init(c_out),
            )
            activated = relu(normalized)
            grad_out = rng.standard_normal(conv.shape).astype(np.float32)  # NCHW, as heads give
            grad_x, _ = conv2d_backward(grad_out, x, kernel, geom)
            for out in (conv, normalized, activated, grad_x):
                assert out.transpose(1, 2, 3, 0).flags.c_contiguous
            x = activated

    def test_channel_mismatch_raises(self):
        geom = ConvGeometry(3, 1, 0, 4, 4)
        with pytest.raises(GeometryError, match="channel"):
            conv2d_forward(np.zeros((1, 3, 5, 5)), Tensor(np.zeros((4, 4, 3, 3))), geom)


# train-arm's convolutions at batch 256: (x shape, kernel, stride, padding, out channels, shared)
REFERENCE_CONVS = {
    "block0": ((256, 1, 32, 32), 3, 2, 1, 8, False),
    "block1": ((256, 8, 16, 16), 3, 2, 1, 16, False),
    "block2": ((256, 16, 8, 8), 3, 2, 1, 32, False),
    "weighting": ((256, 2, 16, 16), 8, 2, 0, 2, True),
}


class TestFloat32Backward:
    """conv2d_backward runs in float32; its gradients stay close to float64's."""

    @pytest.mark.parametrize("case", CONV_CASES, ids=lambda case: "-".join(map(str, case)))
    def test_float64_reference_matches_loop_oracle(self, case):
        n, c, h, w, k, s, p, oc, shared = case
        rng = np.random.default_rng([n, c, h, w, k, s, p, 2])
        geom = ConvGeometry(k, s, p, c, oc, shared_single_channel=shared)
        x = rng.standard_normal((n, c, h, w)).astype(np.float32)
        kernel = rng.standard_normal(geom.kernel_shape()).astype(np.float32)
        out_shape = (n, oc, geom.out_extent(h), geom.out_extent(w))
        grad_out = rng.standard_normal(out_shape).astype(np.float32)
        for got, want in zip(
            conv_backward_float64(x, kernel, grad_out, s, p, shared),
            conv_backward_oracle(x, kernel, grad_out, s, p, shared),
        ):
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("name", REFERENCE_CONVS)
    def test_reference_shapes_within_1e_5_of_float64(self, name):
        shape, k, s, p, oc, shared = REFERENCE_CONVS[name]
        rng = np.random.default_rng(list(shape) + [k])
        geom = ConvGeometry(k, s, p, shape[1], oc, shared_single_channel=shared)
        x = batch_innermost(rng.standard_normal(shape).astype(np.float32))
        fan_in = math.prod(geom.kernel_shape()[-3:])
        kernel = Tensor(kaiming_uniform(rng, geom.kernel_shape(), fan_in))
        out_shape = (shape[0], oc, geom.out_extent(shape[2]), geom.out_extent(shape[3]))
        grad_out = batch_innermost(rng.standard_normal(out_shape).astype(np.float32))
        grad_x, grad_kernel = conv2d_backward(grad_out, x, kernel, geom)
        want_x, want_kernel = conv_backward_float64(x, kernel.data, grad_out, s, p, shared)
        assert grad_x.dtype == grad_kernel.dtype == np.float32
        for got, want in ((grad_x, want_x), (grad_kernel, want_kernel)):
            assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


# one-output-channel convolutions, whose column gradient is a broadcast product
SHARED_KERNEL_CONVS = {
    "weighting": REFERENCE_CONVS["weighting"],
    "sweep": ((16, 16, 8, 8), 3, 1, 0, 16, True),  # SweepHead on sweep-small's 2-block backbone
}


class TestSharedKernelColumnGradient:
    """A shared kernel's broadcast column gradient gives the matmul's gradients bit for bit."""

    @pytest.mark.parametrize("name", SHARED_KERNEL_CONVS)
    def test_equals_the_matmul(self, name):
        shape, k, s, p, oc, shared = SHARED_KERNEL_CONVS[name]
        rng = np.random.default_rng(list(shape) + [k, 5])
        geom = ConvGeometry(k, s, p, shape[1], oc, shared_single_channel=shared)
        x = batch_innermost(rng.standard_normal(shape).astype(np.float32))
        kernel = Tensor(kaiming_uniform(rng, geom.kernel_shape(), k * k))
        out_shape = (shape[0], oc, geom.out_extent(shape[2]), geom.out_extent(shape[3]))
        grad_out = rng.standard_normal(out_shape).astype(np.float32)
        # zero products, whose sign a matmul and a multiply set apart
        kernel.data[0, 1] = 0.0
        grad_out[0, :, 0, ::2] = -0.0
        grad_out[1, :, 0, ::2] = 0.0
        grad_out = batch_innermost(grad_out)
        got = conv2d_backward(grad_out, x, kernel, geom)
        for got_grad, want in zip(got, conv_backward_matmul(x, kernel.data, grad_out, s, p, shared)):
            assert_same_bits(got_grad, want)


@st.composite
def col2im_cases(draw):
    """A convolution that fits, with padding up to past the kernel, odd and
    even extents, a dense or shared kernel, and scratch layouts for x and grad_out."""
    k, s = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    p = draw(st.integers(0, k + 1))
    h, w = draw(st.integers(max(1, k - 2 * p), 9)), draw(st.integers(max(1, k - 2 * p), 9))
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    shared = draw(st.booleans())
    oc = c if shared else draw(st.integers(1, 3))
    layouts = draw(st.sampled_from(SCRATCH_LAYOUTS))
    return (n, c, h, w, k, s, p, oc, shared), layouts, draw(st.integers(0, 2**32 - 1))


class TestCol2im:
    """col2im adds straight into the unpadded gradient: the padded buffer's values, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(col2im_cases())
    def test_equals_the_padded_buffer(self, case):
        (n, c, h, w, k, s, p, oc, shared), (x_layout, grad_layout), seed = case
        rng = np.random.default_rng(seed)
        geom = ConvGeometry(k, s, p, c, oc, shared_single_channel=shared)
        x = rng.standard_normal((n, c, h, w)).astype(np.float32)
        kernel = rng.standard_normal(geom.kernel_shape()).astype(np.float32)
        kernel.reshape(-1)[::3] = 0.0  # zero products, with either sign
        out_shape = (n, oc, geom.out_extent(h), geom.out_extent(w))
        grad_out = gradient_in(rng, out_shape, grad_layout)
        grad_out[..., ::2] = -0.0
        grad_out[:, :, ::2] *= -1.0  # a -0.0 times -1.0 is +0.0
        got_x, got_kernel = conv2d_backward(grad_out, in_layout(x, x_layout), Tensor(kernel), geom)
        want_x, want_kernel = conv_backward_padded(x, kernel, grad_out, s, p, shared)
        assert_same_bits(got_x, want_x)
        assert_same_bits(got_kernel, want_kernel)
        # still a batch-innermost view: (C', H, W, B) over the dense conv's B planes
        planes = got_x.reshape(-1, 1 if shared else c, h, w)
        assert planes.transpose(1, 2, 3, 0).flags.c_contiguous


# (x shape, kernel, stride, padding, out channels, shared): the forward runs in
# row chunks there; the dense case's rows leave a short last chunk
CHUNKED_CONVS = {
    "dense-short-last": ((16, 2, 29, 29), 3, 1, 1, 3, False),
    "weighting": ((252, 2, 16, 16), 8, 2, 0, 2, True),  # train-arm's training step
}


class TestForwardChunks:
    """conv2d_forward's row chunks give the values of one whole-matrix GEMM, bit for bit."""

    @pytest.mark.parametrize("name", CHUNKED_CONVS)
    def test_chunked_geometries_split(self, name):
        (n, c, h, w), k, s, p, oc, shared = CHUNKED_CONVS[name]
        geom = ConvGeometry(k, s, p, c, oc, shared_single_channel=shared)
        out_h, out_w = geom.out_extent(h), geom.out_extent(w)
        row = out_w * (n * c if shared else n)
        taps = (1 if shared else c) * k * k
        # as many chunks as whole slabs of columns and product fit, at most one per row
        chunks = min(out_h, (taps + (1 if shared else oc)) * out_h * row // SLAB_VALUES)
        rows = -(-out_h // chunks)
        assert row % GEMM_COLUMN_TILE == 0 and chunks > 1
        if name == "dense-short-last":
            assert rows > 1 and out_h % rows != 0

    @pytest.mark.parametrize("layout", ["nchw", "batch_innermost"])
    @pytest.mark.parametrize("name", CHUNKED_CONVS)
    def test_equals_one_gemm(self, name, layout):
        shape, k, s, p, oc, shared = CHUNKED_CONVS[name]
        rng = np.random.default_rng(list(shape) + [k, 3])
        geom = ConvGeometry(k, s, p, shape[1], oc, shared_single_channel=shared)
        x = rng.standard_normal(shape).astype(np.float32)
        kernel = Tensor(kaiming_uniform(rng, geom.kernel_shape(), math.prod(geom.kernel_shape()[-3:])))
        got = conv2d_forward(in_layout(x, layout), kernel, geom)
        assert_same_bits(got, conv_forward_one_gemm(x, kernel.data, s, p, shared))


class TestBatchNorm:
    def test_train_uses_biased_batch_statistics(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 3, 5, 5)).astype(np.float32)
        out, _ = batchnorm(
            x, Tensor(np.ones(3, np.float32)), Tensor(np.zeros(3, np.float32)),
            RunningStats.init(3),
        )
        data = x.astype(np.float64)
        mean = data.mean(axis=(0, 2, 3))
        var = data.var(axis=(0, 2, 3))  # biased: divide by N*H*W
        expected = (data - mean[None, :, None, None]) / np.sqrt(var + 1e-5)[None, :, None, None]
        assert np.abs(out - expected).max() <= 1e-6

    def test_running_update_rule(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 2, 4, 4)).astype(np.float32)
        running = RunningStats.init(2)
        running.mean = np.array([0.5, -0.5], np.float32)
        running.var = np.array([2.0, 3.0], np.float32)
        batchnorm(
            x, Tensor(np.ones(2, np.float32)), Tensor(np.zeros(2, np.float32)), running
        )
        data = x.astype(np.float64)
        expect_mean = 0.9 * np.array([0.5, -0.5]) + 0.1 * data.mean(axis=(0, 2, 3))
        expect_var = 0.9 * np.array([2.0, 3.0]) + 0.1 * data.var(axis=(0, 2, 3))
        assert np.abs(running.mean - expect_mean).max() <= 1e-6
        assert np.abs(running.var - expect_var).max() <= 1e-6

    def test_eval_uses_running_statistics_and_leaves_them_alone(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 2, 4, 4)).astype(np.float32)
        running = RunningStats.init(2)
        running.mean = np.array([1.0, -1.0], np.float32)
        running.var = np.array([4.0, 0.25], np.float32)
        before = (running.mean.copy(), running.var.copy())
        out, cache = batchnorm(
            x, Tensor(np.ones(2, np.float32)), Tensor(np.zeros(2, np.float32)),
            running, mode="eval",
        )
        assert np.array_equal(running.mean, before[0])
        assert np.array_equal(running.var, before[1])
        expected = (x.astype(np.float64) - np.array([1.0, -1.0])[None, :, None, None]) / np.sqrt(
            np.array([4.0, 0.25]) + 1e-5
        )[None, :, None, None]
        assert np.abs(out - expected).max() <= 1e-6
        assert cache is None


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # -0.0 is not +0.0


BLOCK0_SHAPE = (252, 8, 16, 16)  # block 0's BatchNorm input in the train-arm step
GROUPS_SHAPE = (84, 8, 16, 16)  # batch-innermost, it splits into channel groups of 3, 3 and 2
# (x layout, gradient layout); "head" is the ARM head's mix: a batch-innermost x
# with the C-order NCHW gradient that channel_mean_backward returns
SCRATCH_LAYOUTS = [
    ("nchw", "nchw"),
    ("batch_innermost", "batch_innermost"),
    ("sliced", "sliced"),
    ("batch_innermost", "head"),
]


def gradient_in(rng, shape, layout: str) -> np.ndarray:
    n, c, h, w = shape
    if layout == "head":
        return channel_mean_backward(rng.standard_normal((n, h, w)).astype(np.float32), c)
    if layout == "channel_constant":
        # batchnorm's input gradient is then zero up to rounding, so the float32
        # result keeps the float64 rounding of every step and shows its order
        per_channel = rng.standard_normal(c).astype(np.float32)[None, :, None, None]
        return np.ascontiguousarray(np.broadcast_to(per_channel, shape))
    return in_layout(rng.standard_normal(shape).astype(np.float32), layout)


class TestScratchReuse:
    """The in-place primitives equal the expressions they replaced, bit for bit."""

    def test_groups_shape_makes_three_groups_with_a_short_last_one(self):
        n, c, h, w = GROUPS_SHAPE
        per_group = SLAB_VALUES // (n * h * w)
        assert -(-c // per_group) >= 3 and c % per_group != 0

    @pytest.mark.parametrize(
        "shape", [(5, 3, 6, 4), BLOCK0_SHAPE, GROUPS_SHAPE], ids=["small", "block0", "groups"]
    )
    @pytest.mark.parametrize(
        "x_layout,grad_layout",
        SCRATCH_LAYOUTS + [("nchw", "channel_constant"), ("batch_innermost", "channel_constant")],
    )
    def test_batchnorm_matches_the_old_expressions(self, shape, x_layout, grad_layout):
        rng = np.random.default_rng(list(shape))
        c = shape[1]
        x = in_layout((rng.standard_normal(shape) * 2.0 + 0.5).astype(np.float32), x_layout)
        scale = rng.uniform(0.5, 1.5, c).astype(np.float32)
        shift = rng.standard_normal(c).astype(np.float32)
        before = x.copy()
        for mode in ("train", "eval"):
            running = RunningStats(
                rng.standard_normal(c).astype(np.float32), rng.uniform(0.5, 2.0, c).astype(np.float32)
            )
            want_out, want_mean, want_var, want_cache = batchnorm_oracle(
                x, scale, shift, running.mean, running.var, mode
            )
            out, cache = batchnorm(x, Tensor(scale), Tensor(shift), running, mode)
            assert np.array_equal(x, before)  # x is never written
            assert_same_bits(out, want_out)
            assert_same_bits(running.mean, want_mean)
            assert_same_bits(running.var, want_var)
            if mode == "eval":
                assert cache is None
                continue
            _, want_inv_std, want_scale = want_cache
            assert cache.x is x
            assert_same_bits(cache.mean, x.astype(np.float64).mean(axis=(0, 2, 3)))
            assert_same_bits(cache.inv_std, want_inv_std)
            assert_same_bits(cache.scale, want_scale)
            grad = gradient_in(rng, shape, grad_layout)
            got_grads = batchnorm_backward(grad, cache)
            want_grads = batchnorm_backward_oracle(grad, *want_cache)
            for got, want in zip(got_grads, want_grads):
                assert_same_bits(got, want)

    @pytest.mark.parametrize("x_layout,grad_layout", SCRATCH_LAYOUTS)
    def test_relu_backward_matches_where(self, x_layout, grad_layout):
        rng = np.random.default_rng(13)
        shape = (6, 4, 5, 7)
        x = rng.standard_normal(shape).astype(np.float32)
        x.reshape(-1)[::7] = 0.0
        x.reshape(-1)[3::11] = -0.0
        x = in_layout(x, x_layout)
        grad = gradient_in(rng, shape, grad_layout)
        got = relu_backward(grad, x)
        assert_same_bits(got, relu_backward_oracle(grad, x))
        assert (grad[x <= 0.0] < 0.0).any()  # the case where a plain multiply gives -0.0
        assert not np.signbit(got[x <= 0.0]).any()

    def test_batchnorm_peak_is_two_float64_copies_and_the_result(self):
        rng = np.random.default_rng(17)
        c = BLOCK0_SHAPE[1]
        x = batch_innermost(rng.standard_normal(BLOCK0_SHAPE).astype(np.float32))
        grad = batch_innermost(rng.standard_normal(BLOCK0_SHAPE).astype(np.float32))
        scale, shift = Tensor(np.ones(c, np.float32)), Tensor(np.zeros(c, np.float32))
        budget = x.size * (8 + 8 + 4) + 64 * 1024  # two float64 arrays, the float32 result, slack
        before = x.copy()
        assert traced_peak(lambda: batchnorm(x, scale, shift, RunningStats.init(c))) <= budget
        assert np.array_equal(x, before)
        _, cache = batchnorm(x, scale, shift, RunningStats.init(c))
        assert traced_peak(lambda: batchnorm_backward(grad, cache)) <= budget

    def test_conv_backward_peak_is_float32_columns_padding_and_go(self):
        """Block 1's backward at train-arm's shapes allocates float32 scratch only."""
        rng = np.random.default_rng(23)
        n, c, h, w = BLOCK0_SHAPE
        geom = ConvGeometry(3, 2, 1, c, 16)
        x = batch_innermost(rng.standard_normal(BLOCK0_SHAPE).astype(np.float32))
        kernel = Tensor(kaiming_uniform(rng, geom.kernel_shape(), c * 9))
        grad_out = batch_innermost(rng.standard_normal((n, 16, 8, 8)).astype(np.float32))
        cols = c * 9 * 8 * 8 * n * 4
        padded = c * (h + 2) * (w + 2) * n * 4
        # the float32 column buffer and padded input, and slack: go is a view of
        # the batch-innermost grad_out, and col2im adds into the unpadded gradient
        # once the padded input is freed (a padded col2im buffer peaks 72 KB above)
        budget = cols + padded + 16 * 1024
        assert traced_peak(lambda: conv2d_backward(grad_out, x, kernel, geom)) <= budget

    def test_batchnorm_train_step_peak_is_the_results_and_three_slabs(self):
        """Train-mode batchnorm and its backward hold float64 slabs, never a full float64 copy."""
        rng = np.random.default_rng(29)
        n, c, h, w = BLOCK0_SHAPE
        x = batch_innermost(rng.standard_normal(BLOCK0_SHAPE).astype(np.float32))
        grad = batch_innermost(rng.standard_normal(BLOCK0_SHAPE).astype(np.float32))
        scale, shift = Tensor(np.ones(c, np.float32)), Tensor(np.zeros(c, np.float32))

        def step():
            _, cache = batchnorm(x, scale, shift, RunningStats.init(c))
            batchnorm_backward(grad, cache)

        slab = max(SLAB_VALUES, n * h * w) * 8  # a group holds at least one whole channel
        # the float32 output and input gradient, three float64 slabs, and slack
        budget = 2 * x.size * 4 + 3 * slab + 64 * 1024
        assert traced_peak(step) <= budget

    def test_conv_forward_peak_is_padding_output_and_one_chunk(self):
        """Block 1's forward at train-arm's shapes never holds its whole float64 im2col matrix."""
        rng = np.random.default_rng(31)
        n, c, h, w = BLOCK0_SHAPE
        geom = ConvGeometry(3, 2, 1, c, 16)
        x = batch_innermost(rng.standard_normal(BLOCK0_SHAPE).astype(np.float32))
        kernel = Tensor(kaiming_uniform(rng, geom.kernel_shape(), c * 9))
        padded = c * (h + 2) * (w + 2) * n * 4
        out = 16 * 8 * 8 * n * 4
        row = (c * 9 + 16) * 8 * n  # one output row's float64 columns and product
        assert row > SLAB_VALUES  # so every chunk is one row
        # the float32 padded buffer and output, one float64 chunk, and slack
        budget = padded + out + row * 8 + 64 * 1024
        assert traced_peak(lambda: conv2d_forward(x, kernel, geom)) <= budget


# train-arm's corpus and training call (bench/workloads.py), in a fresh interpreter
FAULT_CHILD = """
import resource, sys
from arm_lab.data import load_dataset
from arm_lab.train import TrainConfig, train
config = TrainConfig(
    epochs=1, batch_size=256, lr=0.001, seed=1, sampler="mrr", backbone_widths=(8, 16, 32)
)
index = load_dataset(sys.argv[1])
train(config, index)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train(config, index)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
HEAP_VARIABLES = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")


@pytest.fixture(scope="module")
def train_arm_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("train-arm") / "corpus"
    synth_dataset(str(root), 7, 45, extent=32, seed=1)
    return str(root)


def second_train_faults(corpus: str, **heap_env: str) -> int:
    """Minor page faults of a second train() call at train-arm's config, after a warm-up."""
    env = {key: value for key, value in os.environ.items() if key not in HEAP_VARIABLES}
    package_parent = str(Path(arm_lab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_parent, env.get("PYTHONPATH")]))
    env.update(OPENBLAS_NUM_THREADS="1", **heap_env)
    done = subprocess.run(
        [sys.executable, "-c", FAULT_CHILD, corpus],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return int(done.stdout)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
class TestHeapPolicy:
    """Importing the package keeps freed heap pages mapped, unless the environment says otherwise."""

    def test_a_training_step_reuses_freed_pages(self, train_arm_corpus):
        assert second_train_faults(train_arm_corpus) < 500

    def test_an_environment_threshold_is_left_alone(self, train_arm_corpus):
        assert second_train_faults(train_arm_corpus, MALLOC_MMAP_THRESHOLD_="131072") > 1000


class TestLossAndMisc:
    def test_uniform_logits_loss_is_log_k(self):
        loss, grad = softmax_cross_entropy(np.zeros((5, 7)), np.zeros(5, int))
        assert abs(loss - math.log(7)) <= 1e-7
        # gradient rows: softmax minus one-hot, divided by batch
        expected = np.full((5, 7), 1 / 7.0)
        expected[:, 0] -= 1.0
        assert np.abs(grad - expected / 5.0).max() <= 1e-7

    def test_label_out_of_range_names_sample(self):
        with pytest.raises(DataError, match="sample 1"):
            softmax_cross_entropy(np.zeros((3, 4)), [0, 7, 1])

    def test_extreme_logits_stay_finite(self):
        logits = np.array([[1e4, -1e4, 0.0]], np.float32)
        loss, grad = softmax_cross_entropy(logits, [1])
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))

    def test_relu(self):
        x = np.array([-2.0, 0.0, 3.0], np.float32)
        assert relu(x).tolist() == [0.0, 0.0, 3.0]

    def test_channel_mean_value(self):
        x = np.zeros((1, 2, 2, 2), np.float32)
        x[0, 0] = 1.0
        x[0, 1] = 3.0
        assert np.all(channel_mean(x) == 2.0)

    def test_linear_shape_validation(self):
        with pytest.raises(GeometryError):
            linear(np.zeros((2, 3)), Tensor(np.zeros((4, 5))), Tensor(np.zeros(4)))

    def test_finite_diff_on_quadratic(self):
        # loss = sum(x^2) has exact gradient 2x; fd should be very close
        x = np.array([0.5, -1.25, 2.0], np.float32)
        fd = finite_diff_grad(lambda t: float(np.sum(t.astype(np.float64) ** 2)), x, step=1e-3)
        assert np.abs(fd - 2.0 * x.astype(np.float64)).max() <= 1e-4

    @given(st.integers(min_value=1, max_value=4096))
    @settings(max_examples=50, deadline=None)
    def test_kaiming_bound(self, fan_in):
        rng = np.random.default_rng(0)
        sample = kaiming_uniform(rng, (64,), fan_in)
        bound = math.sqrt(6.0 / fan_in)
        assert np.abs(sample).max() <= bound
