"""Acceptance gate for the whole library.

Each test here covers one release criterion end to end, asserts it at the
stated tolerance, enforces its wall-clock budget, and prints exactly one
``ACCEPTANCE <n> PASS|FAIL - <label>`` line with capture suspended so the
verdicts land on the real stdout. Criterion 9 additionally archives its
comparison report under artifacts/ at the repository root.
"""

import csv
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from gradcheck import CASES, run_case
from oracles import (
    accuracy_oracle,
    albino_oracle,
    arm_shape_trace,
    cluster_profile_oracle,
    max_ratio_oracle,
    perception_oracle,
    read_confusion_csv,
    shuffle_oracle,
)

from arm_lab.arm import (
    ArmConfig,
    GenericFeatureState,
    affinity_update,
    arm_param_count,
)
from arm_lab.arrange import ShuffleSpec, max_shuffle_ratio, pixel_shuffle, pixel_unshuffle
from arm_lab.data import (
    DatasetIndex,
    mrr_epoch_sample,
    synth_dataset,
    write_confusion_csv,
)
from arm_lab.erosion import (
    albino_map,
    albino_maps_per_layer,
    cluster_weight_profile,
    outer_ring_interior_split,
    perception_map,
)
from arm_lab.tensor import ConvGeometry
from arm_lab.train import TrainConfig, compare_heads, train

ARTIFACTS = Path(__file__).resolve().parent.parent / "artifacts"


@contextmanager
def criterion(capsys, number: int, label: str, budget_seconds: float | None = None):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        if budget_seconds is not None and elapsed > budget_seconds:
            raise AssertionError(
                f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds:.0f}s"
            )
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {number} FAIL - {label}", flush=True)
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {number} PASS - {label}", flush=True)


def label_only_index(counts) -> DatasetIndex:
    labels = np.repeat(np.arange(len(counts)), counts)
    return DatasetIndex(
        classes=[f"class_{c}" for c in range(len(counts))],
        paths=[f"mem/{i}" for i in range(labels.size)],
        labels=labels,
    )


@pytest.fixture(scope="module")
def balanced_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance") / "balanced"
    return synth_dataset(root, num_classes=7, per_class=200, extent=32, seed=0)


@pytest.fixture(scope="module")
def imbalanced_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance") / "imbalanced"
    counts = [350, 175, 88, 44, 22, 11, 10]
    return synth_dataset(root, num_classes=7, per_class=counts, extent=32, seed=1)


def test_criterion_1_reference_geometry(capsys):
    with criterion(capsys, 1, "reference geometry and parameter budget", 1.0):
        assert max_shuffle_ratio(512) == 16
        assert max_shuffle_ratio(48) == 4
        cfg = ArmConfig(channels=512, height=7, width=7, classes=7)
        assert (cfg.ratio, cfg.da_kernel, cfg.da_stride) == (16, 32, 8)
        trace = dict(arm_shape_trace(cfg))
        assert trace["input"] == (512, 7, 7)
        assert trace["arranged"] == (2, 112, 112)
        assert trace["weighted"] == (2, 11, 11)
        assert trace["pooled"] == (11, 11)
        assert trace["flattened"] == (121,)
        assert trace["logits"] == (7,)
        assert arm_param_count(cfg) == {
            "arrangement": 0,
            "de_albino": 1024,
            "batchnorm": 4,
            "mean": 0,
            "affinity": 1,
            "fc": 854,
            "total": 1883,
        }


def test_criterion_2_gradient_suite(capsys):
    with criterion(capsys, 2, "analytic gradients match finite differences", 120.0):
        failures = []
        checks = 0
        for seed in range(10):
            for name in sorted(CASES):
                rel_error, tolerance = run_case(name, seed)
                checks += 1
                if rel_error > tolerance:
                    failures.append(f"{name} seed {seed}: {rel_error:.3e} > {tolerance:.0e}")
        assert checks >= 100
        assert not failures, "\n".join(failures)


def test_criterion_3_arrangement_bijection(capsys):
    with criterion(capsys, 3, "arrangement bijection, inverse, and adjoint", 60.0):
        for channels in range(1, 257):
            assert max_shuffle_ratio(channels) == max_ratio_oracle(channels)

        rng = np.random.default_rng(33)
        pairs = [
            (r * r * m, r)
            for r in range(2, 9)
            for m in range(1, 64 // (r * r) + 1)
        ]
        configs = 0
        for channels, ratio in pairs:
            for height in range(1, 9):
                for width in range(1, 9):
                    x = rng.standard_normal((2, channels, height, width)).astype(
                        np.float32
                    )
                    shuffled = pixel_shuffle(x, ratio)
                    assert np.array_equal(shuffled, shuffle_oracle(x, ratio))
                    back = pixel_unshuffle(shuffled, ratio)
                    assert np.array_equal(back, x)

                    y = rng.standard_normal(shuffled.shape).astype(np.float32)
                    lhs = np.vdot(
                        shuffled.astype(np.float64), y.astype(np.float64)
                    )
                    rhs = np.vdot(
                        x.astype(np.float64),
                        pixel_unshuffle(y, ratio).astype(np.float64),
                    )
                    assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(lhs))
                    configs += 1
        assert configs == len(pairs) * 64


def test_criterion_4_perception_and_contamination(capsys):
    with criterion(capsys, 4, "perception and contamination oracles", 120.0):
        geometries = [
            (7, 7, 3, 1, 0),
            (7, 7, 3, 1, 1),
            (9, 11, 4, 2, 1),
            (15, 10, 5, 3, 2),
            (8, 8, 2, 2, 0),
            (112, 112, 32, 8, 0),
        ]
        for h, w, k, s, p in geometries:
            assert np.array_equal(
                perception_map(h, w, k, s, p).counts, perception_oracle(h, w, k, s, p)
            ), (h, w, k, s, p)

        ramp = [1] * 8 + [2] * 8 + [3] * 8
        axis = np.array(ramp + [4] * 64 + ramp[::-1])
        reference = perception_map(112, 112, 32, 8, 0).counts
        assert np.array_equal(reference, np.outer(axis, axis))

        single = albino_map(8, 8, [(3, 1, 1)]).contamination
        assert single[0, 0] == 5.0 / 9.0
        assert abs(single[0, 3] - 1.0 / 3.0) <= 1e-15
        assert np.all(single[1:-1, 1:-1] == 0.0)

        unpadded = albino_map(9, 9, [(3, 1, 0), (2, 1, 0)]).contamination
        assert np.all(unpadded == 0.0)

        stacks = [
            (10, 12, [(3, 1, 1), (3, 1, 1)]),
            (13, 17, [(5, 2, 2), (3, 2, 1)]),
            (16, 16, [(3, 1, 1), (3, 1, 1), (3, 1, 1)]),
        ]
        for h, w, layers in stacks:
            maps = albino_maps_per_layer(h, w, layers)
            expected = albino_oracle(h, w, layers)
            for got, want in zip(maps, expected):
                assert np.abs(got.contamination - want).max() <= 1e-12

        depth = albino_maps_per_layer(16, 16, [(3, 1, 1)] * 6)
        previous = np.zeros((16, 16))
        for step in depth:
            assert np.all(step.contamination - previous >= -1e-12)
            previous = step.contamination
        assert depth[-1].contamination[0, 0] > depth[0].contamination[0, 0]
        assert depth[-1].contamination[5, 5] > 0.0  # contamination reaches the middle


def test_criterion_5_cluster_weighting(capsys):
    with criterion(capsys, 5, "outer clusters are strictly lighter", 1.0):
        spec = ShuffleSpec(16, 512, 7, 7)
        geom = ConvGeometry(
            kernel=32, stride=8, padding=0,
            in_channels=2, out_channels=2, shared_single_channel=True,
        )
        profile = cluster_weight_profile(spec, geom)
        assert np.array_equal(profile, cluster_profile_oracle(7, 7, 16, 32, 8))
        axis = np.array([24, 56, 64, 64, 64, 56, 24])
        assert np.array_equal(profile, np.outer(axis, axis))
        ring, interior = outer_ring_interior_split(profile)
        assert ring.max() == 1536
        assert interior.min() == 3136
        assert ring.max() < interior.min()


def test_criterion_6_blending_coefficients(capsys):
    with criterion(capsys, 6, "generic-feature blending coefficients", 1.0):
        state = GenericFeatureState.create(0.3)
        affinity_update(state, np.ones((3, 3)))
        previous = state.feature
        for _ in range(8):
            affinity_update(state, np.zeros((3, 3)))
            ratio = state.feature / previous
            assert np.abs(ratio - 0.7).max() <= 1e-6
            previous = state.feature

        frozen = GenericFeatureState.create(0.0)
        first = np.random.default_rng(0).standard_normal((4, 4)).astype(np.float32)
        affinity_update(frozen, first)
        affinity_update(frozen, -first * 3.0)
        assert np.array_equal(frozen.feature, first)

        tracking = GenericFeatureState.create(1.0)
        affinity_update(tracking, first)
        affinity_update(tracking, first * 0.25)
        assert np.array_equal(tracking.feature, first * np.float32(0.25))

        overrun = GenericFeatureState.create(0.3)
        overrun.smoothing.data[0] = 1.7  # out-of-range coefficient clamps to 1
        affinity_update(overrun, first)
        affinity_update(overrun, first * 0.5)
        assert np.array_equal(overrun.feature, first * np.float32(0.5))


def test_criterion_7_resampling_statistics(capsys):
    with criterion(capsys, 7, "balanced resampling statistics", 60.0):
        index = label_only_index((3, 5, 7))
        for epoch in range(50):
            ids = mrr_epoch_sample(index, [9, epoch])
            assert ids.size == 9
            assert np.bincount(index.labels[ids], minlength=3).tolist() == [3, 3, 3]
            assert np.unique(ids).size == ids.size  # within-epoch, no replacement

        tally = np.zeros(index.n_samples, dtype=np.int64)
        for epoch in range(10_000):
            tally[mrr_epoch_sample(index, [123, epoch])] += 1
        for ids in index.per_class[1:]:  # the minimum class is always fully drawn
            assert stats.chisquare(tally[ids]).pvalue > 0.01

        skewed = label_only_index((350, 10))
        seen = np.zeros(skewed.n_samples, dtype=bool)
        for epoch in range(200):
            seen[mrr_epoch_sample(skewed, [7, epoch])] = True
        assert seen[skewed.per_class[0]].mean() > 0.99
        assert seen[skewed.per_class[1]].all()


def test_criterion_8_end_to_end_training(balanced_corpus, tmp_path, capsys):
    with criterion(capsys, 8, "training reaches the accuracy bar, deterministically", 600.0):
        config = TrainConfig(
            epochs=30,
            batch_size=256,
            lr=0.001,
            lr_decay=0.9,
            seed=0,
            sampler="mrr",
            val_fraction=0.2,
            backbone_widths=(8, 16, 32),
        )
        result = train(config, balanced_corpus)
        assert not result["diverged"], result["halt_reason"]
        assert result["epochs_run"] == 30
        best = max(entry["wa"] for entry in result["history"])
        assert best >= 0.90, f"best validation accuracy {best:.4f}"

        replay = train(config, balanced_corpus)
        assert replay["history"] == result["history"]
        state, again = result["network"].state_dict(), replay["network"].state_dict()
        assert state.keys() == again.keys()
        for key in state:
            assert np.array_equal(state[key], again[key]), key

        path = tmp_path / "confusion.csv"
        write_confusion_csv(path, result["confusion"])
        classes, counts = read_confusion_csv(path)
        assert classes == list(result["confusion"].classes)
        assert np.array_equal(counts, result["confusion"].counts)
        wa, ua = accuracy_oracle(counts)
        assert abs(wa - result["wa"]) <= 1e-12
        assert abs(ua - result["ua"]) <= 1e-12


def test_criterion_9_paired_comparison(imbalanced_corpus, capsys):
    with criterion(capsys, 9, "amendment-versus-pooling comparison archived", 600.0):
        config = TrainConfig(
            epochs=10,
            batch_size=256,
            lr=0.001,
            lr_decay=0.9,
            sampler="mrr",
            val_fraction=0.2,
            backbone_widths=(8, 16, 32),
        )
        seeds = [0, 1, 2, 3, 4]
        report = compare_heads(imbalanced_corpus, config, seeds)
        rows = report["rows"]
        assert [row["seed"] for row in rows] == seeds
        for row in rows:
            for key in ("arm_wa", "arm_ua", "gap_wa", "gap_ua"):
                assert 0.0 <= row[key] <= 1.0, row

        ARTIFACTS.mkdir(exist_ok=True)
        with open(ARTIFACTS / "head_comparison.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["seed", "arm_wa", "arm_ua", "gap_wa", "gap_ua"])
            for row in rows:
                writer.writerow(
                    [row["seed"], f"{row['arm_wa']:.6f}", f"{row['arm_ua']:.6f}",
                     f"{row['gap_wa']:.6f}", f"{row['gap_ua']:.6f}"]
                )
        payload = {
            "corpus": {
                "classes": list(imbalanced_corpus.classes),
                "per_class": imbalanced_corpus.counts.tolist(),
                "imbalance_ratio": float(
                    imbalanced_corpus.counts.max() / imbalanced_corpus.counts.min()
                ),
            },
            "config": config.to_dict(),
            "seeds": seeds,
            "summary": report["summary"],
        }
        with open(ARTIFACTS / "head_comparison.json", "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        assert (ARTIFACTS / "head_comparison.csv").exists()
        assert (ARTIFACTS / "head_comparison.json").exists()
