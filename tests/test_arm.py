import filecmp
import json
import os
import platform
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arm_lab.arm as arm_module
from arm_lab.arm import (
    ArmConfig,
    ArmHead,
    BatchNorm,
    ConvBlock,
    GenericFeatureState,
    Module,
    Network,
    TinyBackbone,
    affinity_backward,
    affinity_forward,
    arm_param_count,
    backbone_extent,
    build_network,
    environment,
    load_checkpoint,
    save_checkpoint,
)
from arm_lab.cli import main
from arm_lab.erosion import albino_map
from arm_lab.errors import ConfigError, DataError, KernelTooLargeError, UninitializedStateError
from arm_lab.tensor import (
    RunningStats,
    Tensor,
    batchnorm,
    batchnorm_backward,
    conv2d_backward,
    conv2d_forward,
    relu_backward,
    softmax_cross_entropy,
)

from gradcheck import batch_innermost, traced_peak
from oracles import arm_shape_trace, relu_backward_oracle


class TestArmConfig:
    def test_reference_defaults(self):
        cfg = ArmConfig(channels=512, height=7, width=7, classes=7)
        assert cfg.ratio == 16
        assert cfg.da_kernel == 32
        assert cfg.da_stride == 8
        assert cfg.shuffle_spec.out_channels == 2
        assert (cfg.feature_height, cfg.feature_width) == (11, 11)
        assert cfg.feature_count == 121

    def test_desk_scale_defaults(self):
        cfg = ArmConfig(channels=32, height=4, width=4, classes=7)
        assert cfg.ratio == 4
        assert cfg.da_kernel == 8
        assert cfg.da_stride == 2
        assert cfg.shuffle_spec.out_channels == 2
        assert cfg.feature_count == 25

    def test_explicit_ratio_must_divide(self):
        with pytest.raises(Exception):
            ArmConfig(channels=32, height=4, width=4, classes=7, ratio=3)

    def test_kernel_must_fit(self):
        with pytest.raises(KernelTooLargeError):
            ArmConfig(channels=32, height=4, width=4, classes=7, da_kernel=99)

    def test_smoothing_range(self):
        with pytest.raises(ConfigError):
            ArmConfig(channels=32, height=4, width=4, classes=7, smoothing_init=1.5)

    def test_round_trips_through_dict(self):
        cfg = ArmConfig(channels=32, height=4, width=4, classes=5)
        again = ArmConfig(**cfg.to_dict())
        assert again == cfg


class TestParamCounts:
    def test_reference_golden(self):
        cfg = ArmConfig(channels=512, height=7, width=7, classes=7)
        counts = arm_param_count(cfg)
        assert counts == {
            "arrangement": 0,
            "de_albino": 1024,
            "batchnorm": 4,
            "mean": 0,
            "affinity": 1,
            "fc": 854,
            "total": 1883,
        }

    def test_counts_match_allocated_tensors(self):
        cfg = ArmConfig(channels=32, height=4, width=4, classes=7)
        head = ArmHead(np.random.default_rng(0), cfg)
        allocated = sum(t.data.size for _, t in head.params())
        assert allocated == arm_param_count(cfg)["total"]

    def test_frozen_smoothing_drops_the_parameter(self):
        cfg = ArmConfig(
            channels=32, height=4, width=4, classes=7, smoothing_learnable=False
        )
        assert arm_param_count(cfg)["affinity"] == 0
        head = ArmHead(np.random.default_rng(0), cfg)
        assert "smoothing" not in dict(head.params())


class TestShapeTrace:
    def test_reference_trace(self):
        cfg = ArmConfig(channels=512, height=7, width=7, classes=7)
        trace = dict(arm_shape_trace(cfg))
        assert trace["input"] == (512, 7, 7)
        assert trace["arranged"] == (2, 112, 112)
        assert trace["weighted"] == (2, 11, 11)
        assert trace["pooled"] == (11, 11)
        assert trace["flattened"] == (121,)
        assert trace["logits"] == (7,)

    def test_trace_matches_actual_forward(self):
        cfg = ArmConfig(channels=32, height=4, width=4, classes=7)
        head = ArmHead(np.random.default_rng(1), cfg)
        x = np.random.default_rng(2).standard_normal((3, 32, 4, 4)).astype(np.float32)
        logits, cache = head.forward(x, mode="train")
        trace = dict(arm_shape_trace(cfg))
        assert cache["arranged"].shape == (3,) + trace["arranged"]
        assert cache["pooled_shape"] == (3,) + trace["pooled"]
        assert cache["flat"].shape == (3,) + trace["flattened"]
        assert logits.shape == (3, 7)


class TestAffinitySplit:
    def test_ema_blend_golden(self):
        state = GenericFeatureState.create(0.3)
        affinity_forward(state, np.full((2, 2), 1.0)[None], "train")  # first batch initializes
        affinity_forward(state, np.full((2, 2), 2.0)[None], "train")
        assert np.allclose(state.feature, 1.3, atol=1e-7)

    def test_smoothing_zero_keeps_the_buffer_exactly(self):
        state = GenericFeatureState.create(0.0)
        affinity_forward(state, np.full((2, 2), 0.5)[None], "train")
        before = state.feature.copy()
        affinity_forward(state, np.full((2, 2), 123.0)[None], "train")
        assert np.array_equal(state.feature, before)

    def test_smoothing_one_tracks_the_batch_exactly(self):
        state = GenericFeatureState.create(1.0)
        affinity_forward(state, np.full((2, 2), 0.5)[None], "train")
        affinity_forward(state, np.full((2, 2), 0.25)[None], "train")
        assert np.all(state.feature == 0.25)

    def test_first_batch_subtracts_its_own_mean(self):
        state = GenericFeatureState.create(0.3)
        rng = np.random.default_rng(0)
        features = rng.standard_normal((4, 3, 3)).astype(np.float32)
        out, _ = affinity_forward(state, features, "train")
        expected = features - features.mean(axis=0, dtype=np.float64)[None].astype(np.float32)
        assert np.abs(out - expected).max() <= 1e-6
        assert state.feature is not None

    @pytest.mark.parametrize("smoothing", [0.0, 0.3, float(np.nextafter(np.float32(1), 0)), 1.0])
    def test_first_batch_buffer_is_its_float32_mean(self, smoothing):
        rng = np.random.default_rng(3)
        features = rng.standard_normal((5, 4, 4)).astype(np.float32)
        # two adjacent float32 values: their mean is exactly the midpoint between them
        features[:2, 0, 0] = [1.0, np.nextafter(np.float32(1), np.float32(2))]
        for batch in (features, features[:2]):
            state = GenericFeatureState.create(smoothing)
            affinity_forward(state, batch, "train")
            expected = batch.mean(axis=0, dtype=np.float64).astype(np.float32)
            assert state.feature.tobytes() == expected.tobytes()

    def test_train_blends_batch_mean_with_buffer(self):
        state = GenericFeatureState.create(0.25)
        state.feature = np.full((2, 2), 1.0, np.float32)
        features = np.full((3, 2, 2), 5.0, np.float32)
        out, _ = affinity_forward(state, features, "train")
        # mixed estimate: 0.25*5 + 0.75*1 = 2.0, so output is 5 - 2 = 3
        assert np.all(out == 3.0)
        assert np.all(state.feature == 2.0)  # buffer moved to the blend

    def test_eval_subtracts_frozen_buffer(self):
        state = GenericFeatureState.create(0.3)
        state.feature = np.full((2, 2), 1.5, np.float32)
        out, cache = affinity_forward(state, np.full((1, 2, 2), 2.0, np.float32), "eval")
        assert np.all(out == 0.5)
        assert cache is None
        assert np.all(state.feature == 1.5)

    def test_eval_before_any_batch_is_an_error(self):
        state = GenericFeatureState.create(0.3)
        with pytest.raises(UninitializedStateError):
            affinity_forward(state, np.zeros((1, 2, 2), np.float32), "eval")

    @pytest.mark.parametrize("shape", [(0, 2, 2), (2, 2)])
    def test_empty_or_flat_batch_is_data_error(self, shape):
        state = GenericFeatureState.create(0.3)
        with pytest.raises(DataError, match="non-empty"):
            affinity_forward(state, np.zeros(shape, np.float32), "train")
        assert state.feature is None

    def test_out_of_range_coefficient_is_clamped_at_use(self):
        state = GenericFeatureState.create(0.3)
        state.smoothing.data[0] = 1.7
        assert state.clamped_smoothing() == 1.0
        state.smoothing.data[0] = -0.2
        assert state.clamped_smoothing() == 0.0
        state.post_step()
        assert state.smoothing.data[0] == 0.0

    def test_smoothing_gradient_sign(self):
        # raising the coefficient moves the estimate toward the batch mean;
        # if the batch mean exceeds the buffer, outputs drop, so d(sum out)/d(lam) < 0
        state = GenericFeatureState.create(0.5)
        state.feature = np.zeros((2, 2), np.float32)
        features = np.full((2, 2, 2), 1.0, np.float32)
        _, cache = affinity_forward(state, features, "train")
        _, grad_lam = affinity_backward(np.ones((2, 2, 2), np.float32), cache)
        assert grad_lam == -8.0  # sum over 2 samples x 4 cells of (mean - buffer) = 1


class TestNetworks:
    def make_desc(self, kind, **extra):
        desc = {
            "type": kind,
            "input_extent": 16,
            "backbone_widths": [4, 8],
            "classes": 3,
        }
        if kind == "arm":
            desc["arm"] = {"channels": 8, "height": 4, "width": 4, "classes": 3}
        desc.update(extra)
        return desc

    def test_build_is_seed_deterministic(self):
        a = build_network(self.make_desc("arm"), seed=4)
        b = build_network(self.make_desc("arm"), seed=4)
        for (name_a, ta), (name_b, tb) in zip(a.params(), b.params()):
            assert name_a == name_b
            assert np.array_equal(ta.data, tb.data)

    @pytest.mark.parametrize("kind", ["arm", "gap", "sweep"])
    def test_fresh_parameters_hold_zero_gradients(self, kind):
        desc = self.make_desc(kind, kernel=2) if kind == "sweep" else self.make_desc(kind)
        for name, tensor in build_network(desc, seed=0).params():
            assert isinstance(tensor.grad, np.ndarray), name
            assert tensor.grad.dtype == np.float32 and tensor.grad.shape == tensor.shape, name
            assert not tensor.grad.any(), name

    @pytest.mark.parametrize("kind", ["arm", "gap"])
    @pytest.mark.parametrize("shape", [(2, 1, 24, 24), (2, 1, 16, 24), (2, 2, 16, 16), (1, 16, 16)])
    def test_batch_of_another_shape_is_data_error(self, kind, shape):
        net = build_network(self.make_desc(kind), seed=0)
        for mode in ("train", "eval"):
            with pytest.raises(DataError, match=r"\(N, 1, 16, 16\)"):
                net.forward(np.zeros(shape, np.float32), mode=mode)

    def test_head_backbone_shape_mismatch_rejected(self):
        desc = self.make_desc("arm")
        desc["arm"]["channels"] = 16
        with pytest.raises(ConfigError, match="backbone"):
            build_network(desc)

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            build_network(self.make_desc("mystery"))

    @pytest.mark.parametrize("kind", ["arm", "gap", "sweep"])
    def test_forward_backward_runs(self, kind):
        desc = self.make_desc(kind, kernel=2) if kind == "sweep" else self.make_desc(kind)
        net = build_network(desc, seed=0)
        rng = np.random.default_rng(1)
        # prime stateful buffers on a separate batch so every later gradient,
        # the smoothing coefficient's included, is comfortably nonzero
        net.forward(rng.standard_normal((4, 1, 16, 16)).astype(np.float32), mode="train")
        x = rng.standard_normal((4, 1, 16, 16)).astype(np.float32)
        logits, cache = net.forward(x, mode="train")
        assert logits.shape == (4, 3)
        net.zero_grads()
        assert net.backward(np.ones((4, 3), np.float32), cache) is None  # no image gradient
        for name, tensor in net.params():
            assert np.abs(tensor.grad).sum() > 0, name

    def test_checkpoint_round_trip(self, tmp_path):
        net = build_network(self.make_desc("arm"), seed=2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 1, 16, 16)).astype(np.float32)
        net.forward(x, mode="train")  # initialize affinity buffer and BN stats
        eval_before, cache = net.forward(x, mode="eval")
        assert cache is None
        save_checkpoint(tmp_path / "ckpt", net, extra={"note": "test"})
        loaded, manifest = load_checkpoint(tmp_path / "ckpt")
        assert manifest["extra"]["note"] == "test"
        eval_after, _ = loaded.forward(x, mode="eval")
        assert np.array_equal(eval_before, eval_after)
        state_a = net.state_dict()
        state_b = loaded.state_dict()
        assert state_a.keys() == state_b.keys()
        for key in state_a:
            assert np.array_equal(state_a[key], state_b[key]), key

    def test_checkpoint_without_state_stays_uninitialized(self, tmp_path):
        net = build_network(self.make_desc("arm"), seed=2)
        save_checkpoint(tmp_path / "fresh", net)
        loaded, _ = load_checkpoint(tmp_path / "fresh")
        with pytest.raises(UninitializedStateError):
            loaded.forward(np.zeros((1, 1, 16, 16), np.float32), mode="eval")

    def test_corrupt_checkpoint_shape_rejected(self, tmp_path):
        from arm_lab.tensor import save_tensor

        net = build_network(self.make_desc("gap"), seed=0)
        save_checkpoint(tmp_path / "ckpt", net)
        save_tensor(tmp_path / "ckpt" / "head_fc_bias.ten", np.zeros(99, np.float32))
        with pytest.raises(DataError, match="head.fc_bias"):
            load_checkpoint(tmp_path / "ckpt")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="manifest"):
            load_checkpoint(tmp_path)


class TestConvBlock:
    def test_in_place_relu_keeps_the_input_and_the_gradient(self):
        """The block rectifies its own BatchNorm output in place and caches that activation."""
        rng = np.random.default_rng(21)
        block = ConvBlock(rng, 4, 8)
        x = batch_innermost(rng.standard_normal((6, 4, 10, 10)).astype(np.float32))
        before = x.copy()
        out, cache = block.forward(x, "train")
        assert np.array_equal(x, before)
        assert cache[-1] is out
        pre, bn_cache = batchnorm(
            conv2d_forward(x, block.kernel, block.geom), block.bn.scale, block.bn.shift,
            RunningStats.init(8),
        )
        assert np.array_equal(out, np.maximum(pre, 0.0))
        grad_out = rng.standard_normal(out.shape).astype(np.float32)
        masked = relu_backward_oracle(grad_out, pre)
        got = relu_backward(grad_out, cache[-1])
        assert np.array_equal(got, masked) and np.array_equal(np.signbit(got), np.signbit(masked))
        grad_conv, _, _ = batchnorm_backward(masked, bn_cache)
        want_x, _ = conv2d_backward(grad_conv, x, block.kernel, block.geom)
        assert np.array_equal(block.backward(grad_out, cache), want_x)


class TestBackboneBackward:
    def test_block0_kernel_gradient_equals_the_full_backward(self, monkeypatch):
        """Block 0 skips the image gradient; its kernel gradient is unchanged bit for bit."""
        net = build_network(reference_description("arm"), seed=0)
        rng = np.random.default_rng(29)
        logits, cache = net.forward(rng.standard_normal((16, 1, 32, 32)).astype(np.float32))
        calls = []

        def recording(*args, **kwargs):
            calls.append((args, kwargs, conv2d_backward(*args, **kwargs)))
            return calls[-1][2]

        monkeypatch.setattr(arm_module, "conv2d_backward", recording)
        net.backward(rng.standard_normal(logits.shape).astype(np.float32), cache)
        block0 = net.backbone.blocks[0]
        [(args, kwargs, (skipped, _))] = [call for call in calls if call[0][2] is block0.kernel]
        assert kwargs == {"input_grad": False} and skipped is None
        grad_x, grad_kernel = conv2d_backward(*args)
        assert grad_x.shape == (16, 1, 32, 32)
        assert np.array_equal(block0.kernel.grad, grad_kernel)


def saved_arrays(cache) -> list[weakref.ref]:
    """Weak references to what a train forward saved: each block's input,
    activation and BatchNorm input, in block order, then the head's arrays."""
    refs = [[weakref.ref(x), weakref.ref(activated), weakref.ref(bn_cache.x)]
            for x, bn_cache, activated in cache["backbone"]]
    head = cache["head"]
    refs.append([weakref.ref(head["arranged"]), weakref.ref(head["bn_cache"].x),
                 weakref.ref(head["flat"])])
    return refs


# one forward and backward at train-arm's shapes allocates this much at its
# peak: measured 12.44 MB, where keeping every cache through the backward and
# col2im on a padded buffer measured 17.23 MB
STEP_PEAK_BYTES = 13_000_000


class TestBackwardConsumesCache:
    """A backward frees each saved array once the stage that saved it has run."""

    def test_saved_arrays_die_stage_by_stage(self, monkeypatch):
        net = build_network(reference_description("arm"), seed=0)
        rng = np.random.default_rng(31)
        logits, cache = net.forward(rng.standard_normal((16, 1, 32, 32)).astype(np.float32))
        saved = saved_arrays(cache)
        kernels = [block.kernel for block in net.backbone.blocks]
        incoming, seen = [], []

        def relu_recording(grad_out, x):
            incoming.append(weakref.ref(grad_out))
            return relu_backward(grad_out, x)

        def conv_recording(grad_out, x, kernel, *args, **kwargs):
            for i in (i for i, k in enumerate(kernels) if k is kernel):  # a backbone block's
                alive = [[ref() is not None for ref in stage] for stage in saved]
                seen.append((i, alive, incoming[-1]() is not None))
            return conv2d_backward(grad_out, x, kernel, *args, **kwargs)

        monkeypatch.setattr(arm_module, "relu_backward", relu_recording)
        monkeypatch.setattr(arm_module, "conv2d_backward", conv_recording)
        net.backward(rng.standard_normal(logits.shape).astype(np.float32), cache)
        assert [i for i, _, _ in seen] == [2, 1, 0]
        for i, alive, incoming_alive in seen:
            # the block's input and the earlier blocks' caches; not its
            # activation, its BatchNorm input, its incoming gradient or the head's
            assert alive[:i] == [[True] * 3] * i
            assert alive[i] == [True, False, False]
            assert not any(map(any, alive[i + 1 :]))
            assert not incoming_alive
        assert cache == {}
        assert not any(ref() is not None for stage in saved for ref in stage)

    def test_parameter_gradients_equal_the_primitives(self):
        rng = np.random.default_rng(37)
        backbone = TinyBackbone(rng, 32, (8, 16, 32))
        out, caches = backbone.forward(rng.standard_normal((12, 1, 32, 32)).astype(np.float32), "train")
        grad_out = rng.standard_normal(out.shape).astype(np.float32)
        grad, want = batch_innermost(grad_out), {}
        for i in reversed(range(3)):
            block = backbone.blocks[i]
            x, bn_cache, activated = caches[i]
            grad, want[f"block{i}.bn_scale"], want[f"block{i}.bn_shift"] = batchnorm_backward(
                relu_backward(grad, activated), bn_cache
            )
            grad, want[f"block{i}.kernel"] = conv2d_backward(
                grad, x, block.kernel, block.geom, input_grad=i > 0
            )
        backbone.backward(grad_out, caches)
        assert caches == []
        got = dict(backbone.params())
        assert got.keys() == want.keys()
        for name, tensor in got.items():
            assert np.array_equal(tensor.grad, want[name]), name

    def test_a_training_step_peak_is_bounded(self):
        """One forward and backward at train-arm's batch of 252 stays under STEP_PEAK_BYTES."""
        net = build_network(reference_description("arm"), seed=0)
        rng = np.random.default_rng(41)
        images = rng.standard_normal((252, 1, 32, 32)).astype(np.float32)
        labels = rng.integers(0, 7, 252)

        def step():
            logits, cache = net.forward(images)
            _, grad = softmax_cross_entropy(logits, labels)
            net.backward(grad, cache)

        step()  # the generic-feature buffer exists from here on
        assert traced_peak(step) <= STEP_PEAK_BYTES


class TestBackboneGeometry:
    @given(extent=st.integers(1, 40), depth=st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_one_extent_for_the_backbone_and_its_erosion(self, extent, depth):
        side = backbone_extent(extent, depth)
        backbone = TinyBackbone(np.random.default_rng(0), extent, [2] * depth)
        assert backbone.out_extent == side
        features, _ = backbone.forward(np.ones((1, 1, extent, extent), np.float32), mode="eval")
        assert features.shape == (1, 2, side, side)
        # the same blocks, propagated by the padding-erosion model
        assert albino_map(extent, extent, [(3, 2, 1)] * depth).contamination.shape == (side, side)


V1_CHECKPOINTS = Path(__file__).resolve().parent / "data" / "checkpoints_v1"
BACKBONE_PARAMS = [
    f"backbone.block{i}.{name}" for i in (0, 1) for name in ("kernel", "bn_scale", "bn_shift")
]
HEAD_PARAMS = {
    "arm": ["weighting_kernel", "bn_scale", "bn_shift", "fc_weight", "fc_bias", "smoothing"],
    "arm_frozen": ["weighting_kernel", "bn_scale", "bn_shift", "fc_weight", "fc_bias"],
    "gap": ["fc_weight", "fc_bias"],
    "sweep": ["weighting_kernel", "fc_weight", "fc_bias"],
}


class TestVersion1Checkpoints:
    """Checkpoints written by the hand-written per-class state code still load.

    Each fixture has backbone widths [4, 8] and input extent 16, laid out as
    in TestNetworks.make_desc: "arm" after one training batch (so it holds a
    generic feature), "arm_frozen" untrained with a frozen smoothing
    coefficient, "gap" and "sweep" (kernel 2) after one training batch.
    """

    @pytest.mark.parametrize("kind", sorted(HEAD_PARAMS))
    def test_load_and_resave_is_byte_identical(self, kind, tmp_path):
        source = V1_CHECKPOINTS / kind
        network, manifest = load_checkpoint(source)
        assert [name for name, _ in network.params()] == BACKBONE_PARAMS + [
            f"head.{name}" for name in HEAD_PARAMS[kind]
        ]
        assert ("head.generic_feature" in network.state_dict()) == (kind == "arm")
        save_checkpoint(tmp_path / kind, network)
        with open(tmp_path / kind / "manifest.json") as fh:
            resaved = json.load(fh)
        assert resaved["tensors"] == manifest["tensors"]
        assert resaved["network"] == manifest["network"]
        for fname in manifest["tensors"].values():
            assert filecmp.cmp(source / fname, tmp_path / kind / fname, shallow=False), fname

    def test_undeclared_tensor_is_data_error(self, tmp_path, capsys):
        ckpt = tmp_path / "gap"
        shutil.copytree(V1_CHECKPOINTS / "gap", ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["tensors"]["head.bogus"] = manifest["tensors"]["head.fc_bias"]
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="head.bogus"):
            load_checkpoint(ckpt)
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(tmp_path / "corpus"),
                     "--out", str(tmp_path / "out")])
        assert code == 4
        assert "head.bogus" in capsys.readouterr().err


def reference_description(kind):
    """Backbone widths 8/16/32 over 32x32 inputs, seven classes."""
    desc = {"type": kind, "input_extent": 32, "backbone_widths": [8, 16, 32], "classes": 7}
    if kind == "arm":
        desc["arm"] = {"channels": 32, "height": 4, "width": 4, "classes": 7}
    if kind == "sweep":
        desc["kernel"] = 2
    return desc


def walk(module):
    yield module
    for _, child in module.children():
        yield from walk(child)


class TestModuleTree:
    @pytest.mark.parametrize(
        "kind, learnable", [("arm", True), ("arm", False), ("gap", True), ("sweep", True)]
    )
    def test_every_tensor_is_a_parameter_or_saved(self, kind, learnable):
        desc = reference_description(kind)
        if kind == "arm":
            desc["arm"]["smoothing_learnable"] = learnable
        network = build_network(desc, seed=0)
        params = {id(tensor) for _, tensor in network.params()}
        saved = {id(data) for data in network.state_dict().values()}
        reached = 0
        for module in walk(network):
            children = {id(child) for _, child in module.children()}
            for attr, value in vars(module).items():
                if isinstance(value, Tensor):
                    reached += 1
                    assert id(value) in params or id(value.data) in saved, (module, attr)
                for held in value if isinstance(value, list) else [value]:
                    if isinstance(held, Module):
                        assert id(held) in children, (module, attr)
        # a frozen smoothing coefficient is the one Tensor saved without learning
        assert reached == len(params) + (not learnable)

    def test_reference_arm_network_reaches_four_batchnorms(self):
        network = build_network(reference_description("arm"), seed=0)
        assert sum(isinstance(module, BatchNorm) for module in walk(network)) == 4


class TestEnvironment:
    """The replay record names the BLAS kernel and its live thread count."""

    def test_keys_and_types(self):
        record = environment()
        assert record["python"] == platform.python_version()
        assert record["numpy"] == np.__version__
        assert record["blas_core"] is None or isinstance(record["blas_core"], str)
        assert record["blas_threads"] is None or isinstance(record["blas_threads"], int)
        if "openblas" in (record["blas"] or ""):
            assert record["blas_core"] and record["blas_threads"] >= 1
        else:
            assert record["blas_core"] is None and record["blas_threads"] is None

    def test_thread_count_is_the_one_the_blas_runs(self):
        if environment()["blas_threads"] is None:
            pytest.skip("the BLAS is not OpenBLAS")
        package_parent = str(Path(arm_module.__file__).resolve().parent.parent)
        # OpenBLAS caps a larger request at the core count, so ask for one thread
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            filter(None, [package_parent, os.environ.get("PYTHONPATH")])))
        child = subprocess.run(
            [sys.executable, "-c", "import json; from arm_lab.arm import environment; "
             "print(json.dumps(environment()))"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout)["blas_threads"] == 1
