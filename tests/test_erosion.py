import importlib
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arm_lab.arrange import ShuffleSpec
from arm_lab.erosion import (
    albino_map,
    albino_maps_per_layer,
    cluster_weight_profile,
    coverage_counts_1d,
    k_sweep,
    outer_ring_interior_split,
    perception_map,
    sweep_worker_count,
)
from arm_lab.errors import ConfigError, GeometryError, KernelTooLargeError
from arm_lab.tensor import ConvGeometry, softmax_cross_entropy
from arm_lab.train import TrainConfig

from oracles import albino_oracle, cluster_profile_oracle, perception_oracle

# the package exports a function named train, so fetch the module itself
TRAIN_MODULE = importlib.import_module("arm_lab.train")


class TestPerceptionMap:
    def test_small_unpadded_map(self):
        pm = perception_map(7, 7, 3, 1, 0)
        assert pm.counts[0, 0] == 1
        assert pm.counts[3, 3] == 9
        assert pm.counts[0, 3] == 3

    @pytest.mark.parametrize(
        "h,w,k,s,p",
        [
            (7, 7, 3, 1, 0),
            (7, 9, 3, 1, 1),
            (10, 10, 4, 2, 0),
            (12, 8, 5, 3, 2),
            (6, 6, 6, 1, 0),
            (112, 112, 32, 8, 0),
        ],
    )
    def test_matches_window_oracle(self, h, w, k, s, p):
        pm = perception_map(h, w, k, s, p)
        assert np.array_equal(pm.counts, perception_oracle(h, w, k, s, p))

    def test_separable_outer_product(self):
        pm = perception_map(9, 13, 3, 2, 1)
        rows = coverage_counts_1d(9, 3, 2, 1)
        cols = coverage_counts_1d(13, 3, 2, 1)
        assert np.array_equal(pm.counts, np.outer(rows, cols))

    def test_total_coverage_conserved_without_padding(self):
        pm = perception_map(11, 9, 3, 2, 0)
        out_h = (11 - 3) // 2 + 1
        out_w = (9 - 3) // 2 + 1
        assert pm.counts.sum() == out_h * out_w * 9

    def test_reference_axis_ramp(self):
        counts = coverage_counts_1d(112, 32, 8, 0)
        # first 32 positions ramp 1,2,3,4 in blocks of the stride
        assert counts[:32].tolist() == [1] * 8 + [2] * 8 + [3] * 8 + [4] * 8
        assert np.array_equal(counts, counts[::-1])
        assert counts.max() == 4

    def test_kernel_too_large(self):
        with pytest.raises(KernelTooLargeError):
            perception_map(4, 4, 5, 1, 0)

    @pytest.mark.parametrize(
        "k, s, p", [(0, 1, 0), (3, 0, 0), (3, 1, -1)], ids=["kernel0", "stride0", "padding-1"]
    )
    def test_axis_counts_reject_invalid_geometry(self, k, s, p):
        with pytest.raises(GeometryError):
            coverage_counts_1d(5, k, s, p)

    def test_axis_counts_name_the_axis_when_the_kernel_overruns(self):
        with pytest.raises(KernelTooLargeError, match="does not fit axis extent 5"):
            coverage_counts_1d(5, 7, 1, 0)

    @given(
        h=st.integers(3, 16),
        w=st.integers(3, 16),
        k=st.integers(1, 5),
        s=st.integers(1, 3),
        p=st.integers(0, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_oracle_property(self, h, w, k, s, p):
        if h + 2 * p < k or w + 2 * p < k:
            return
        pm = perception_map(h, w, k, s, p)
        assert np.array_equal(pm.counts, perception_oracle(h, w, k, s, p))


class TestAlbinoMap:
    def test_same_size_layer_fractions(self):
        am = albino_map(8, 8, [(3, 1, 1)])
        corner = am.contamination[0, 0]
        edge = am.contamination[0, 4]
        assert corner == 5.0 / 9.0
        assert abs(edge - 3.0 / 9.0) <= 1e-15
        assert np.all(am.contamination[1:-1, 1:-1] == 0.0)

    def test_no_padding_means_no_contamination(self):
        am = albino_map(10, 10, [(3, 1, 0), (3, 1, 0)])
        assert np.all(am.contamination == 0.0)

    @pytest.mark.parametrize(
        "h,w,layers",
        [
            (8, 8, [(3, 1, 1)]),
            (9, 7, [(3, 1, 1), (3, 1, 1)]),
            (12, 12, [(5, 2, 2), (3, 1, 1)]),
            (10, 10, [(3, 2, 1), (3, 1, 1), (2, 2, 0)]),
        ],
    )
    def test_matches_mass_oracle_per_prefix(self, h, w, layers):
        maps = albino_maps_per_layer(h, w, layers)
        oracle = albino_oracle(h, w, layers)
        assert len(maps) == len(oracle)
        for got, want in zip(maps, oracle):
            assert got.contamination.shape == want.shape
            # summation order differs between the two routes, so allow roundoff
            assert np.abs(got.contamination - want).max() <= 1e-12

    def test_contamination_grows_with_depth(self):
        # identical size-preserving layers: contamination never decreases anywhere
        layers = [(3, 1, 1)] * 5
        maps = albino_maps_per_layer(16, 16, layers)
        for shallow, deep in zip(maps, maps[1:]):
            assert np.all(deep.contamination >= shallow.contamination)
        # and it genuinely spreads inward: the front reaches new pixels
        assert maps[0].contamination[2, 2] == 0.0
        assert maps[-1].contamination[2, 2] > 0.0

    def test_in_unit_interval(self):
        maps = albino_maps_per_layer(10, 10, [(5, 1, 2)] * 4)
        for amap in maps:
            assert amap.contamination.min() >= 0.0
            assert amap.contamination.max() <= 1.0

    def test_layer_error_names_the_layer(self):
        with pytest.raises(GeometryError, match="layer 1"):
            albino_maps_per_layer(8, 8, [(3, 2, 0), (9, 1, 0)])


class TestClusterWeights:
    def test_reference_profile_outer_product(self):
        spec = ShuffleSpec(16, 512, 7, 7)
        geom = ConvGeometry(32, 8, 0, 2, 2, shared_single_channel=True)
        profile = cluster_weight_profile(spec, geom)
        axis = np.array([24, 56, 64, 64, 64, 56, 24])
        assert np.array_equal(profile, np.outer(axis, axis))

    def test_matches_loop_oracle(self):
        spec = ShuffleSpec(4, 32, 5, 5)
        geom = ConvGeometry(8, 2, 0, 2, 2, shared_single_channel=True)
        profile = cluster_weight_profile(spec, geom)
        assert np.array_equal(profile, cluster_profile_oracle(5, 5, 4, 8, 2))

    def test_outer_ring_strictly_lighter_in_reference_geometry(self):
        spec = ShuffleSpec(16, 512, 7, 7)
        geom = ConvGeometry(32, 8, 0, 2, 2, shared_single_channel=True)
        ring, interior = outer_ring_interior_split(cluster_weight_profile(spec, geom))
        assert ring.max() < interior.min()
        assert ring.max() == 24 * 64
        assert interior.min() == 56 * 56

    def test_split_needs_an_interior(self):
        with pytest.raises(GeometryError, match="3x3"):
            outer_ring_interior_split(np.ones((2, 5), dtype=np.int64))


class TestSweepWorkers:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("ARM_LAB_THREADS", raising=False)
        assert sweep_worker_count() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("ARM_LAB_THREADS", "3")
        assert sweep_worker_count() == 3
        monkeypatch.setenv("ARM_LAB_THREADS", "0")
        assert sweep_worker_count() == 1

    def test_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("ARM_LAB_THREADS", "many")
        with pytest.raises(ConfigError, match="ARM_LAB_THREADS"):
            sweep_worker_count()

    def test_pool_threads_outlive_each_sweep(self, monkeypatch):
        seen = []

        def record(index, k, *args):
            seen.append(threading.current_thread())
            return {"k": k, "wa": 1.0, "ua": 1.0}

        monkeypatch.setattr(TRAIN_MODULE, "train_sweep_point", record)
        monkeypatch.setenv("ARM_LAB_THREADS", "2")
        for _ in range(5):
            rows = k_sweep(None, [1, 2, 3, 4], None)
            assert [row["k"] for row in rows] == [1, 2, 3, 4]
        assert threading.main_thread() not in seen
        assert len(set(seen)) <= 2


class TestKSweepFailures:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_programming_error_propagates(self, monkeypatch, threads):
        def broken(*args, **kwargs):
            raise RuntimeError("bug in the sweep point")

        monkeypatch.setattr(TRAIN_MODULE, "train_sweep_point", broken)
        monkeypatch.setenv("ARM_LAB_THREADS", threads)
        with pytest.raises(RuntimeError, match="bug in the sweep point"):
            k_sweep(None, [1, 2], None)

    def test_diverged_kernel_is_an_error_row(self, corpus_index, monkeypatch):
        def nan_loss(logits, labels):
            return float("nan"), softmax_cross_entropy(logits, labels)[1]

        monkeypatch.setattr(TRAIN_MODULE, "softmax_cross_entropy", nan_loss)
        config = TrainConfig(epochs=2, batch_size=32, seed=3, val_fraction=0.25)
        rows = k_sweep(corpus_index, [1, 2, 3], config)
        assert [row["k"] for row in rows] == [1, 2, 3]
        for row in rows:
            # the rolled-back network scores like an untrained one; that is no result
            assert np.isnan(row["wa"]) and np.isnan(row["ua"])
            assert row["error"] == "epoch 1: non-finite loss"
