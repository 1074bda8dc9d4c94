import filecmp
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)

from gradcheck import batch_innermost
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
        grad_x = net.backward(np.ones((4, 3), np.float32), cache)
        assert grad_x.shape == (4, 1, 16, 16)
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
        assert cache[1] is out
        pre, bn_cache = batchnorm(
            conv2d_forward(x, block.kernel, block.geom), block.bn.scale, block.bn.shift,
            RunningStats.init(8),
        )
        assert np.array_equal(out, np.maximum(pre, 0.0))
        grad_out = rng.standard_normal(out.shape).astype(np.float32)
        masked = relu_backward_oracle(grad_out, pre)
        got = relu_backward(grad_out, cache[1])
        assert np.array_equal(got, masked) and np.array_equal(np.signbit(got), np.signbit(masked))
        grad_conv, _, _ = batchnorm_backward(masked, bn_cache)
        want_x, _ = conv2d_backward(grad_conv, x, block.kernel, block.geom)
        assert np.array_equal(block.backward(grad_out, cache), want_x)


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
