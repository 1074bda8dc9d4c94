import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import accuracy_oracle, adam_oracle

import arm_lab
from arm_lab.arm import build_network, environment, load_checkpoint
from arm_lab.data import DatasetIndex, synth_dataset
from arm_lab.errors import ConfigError, KernelTooLargeError, TrainingDiverged
from arm_lab.tensor import Tensor, softmax_cross_entropy
from arm_lab.train import (
    SWEEP_WIDTHS,
    VAL_BATCH,
    Adam,
    TrainConfig,
    build_description,
    compare_heads,
    epoch_sample_ids,
    evaluate,
    train,
    train_sweep_point,
)


def memory_index(counts=(6, 6, 6), extent=16, seed=0):
    labels = np.repeat(np.arange(len(counts)), counts)
    rng = np.random.default_rng(seed)
    images = rng.normal(0.5, 0.15, size=(labels.size, 1, extent, extent))
    images = np.clip(images, 0.0, 1.0).astype(np.float32)
    # weak class signal so short trainings still have something to fit
    for i, label in enumerate(labels):
        images[i, 0, label % extent, :] += 0.3
    return DatasetIndex(
        classes=[f"class_{c}" for c in range(len(counts))],
        paths=[f"mem/{i:03d}" for i in range(labels.size)],
        labels=labels,
        images=images,
    )


SMALL_WIDTHS = (4, 8)


def small_config(**overrides):
    base = dict(
        epochs=2,
        batch_size=16,
        lr=0.002,
        seed=3,
        sampler="mrr",
        val_fraction=0.25,
        backbone_widths=SMALL_WIDTHS,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "bad",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"lr": -0.1},
            {"lr": float("nan")},
            {"lr": float("inf")},
            {"lr_decay": 0.0},
            {"lr_decay": 1.5},
            {"sampler": "magic"},
            {"backbone_widths": ()},
            {"backbone_widths": (0, 8)},
            {"backbone_widths": (4, -8)},
        ],
    )
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)

    def test_round_trips_through_dict(self):
        config = small_config(epochs=5)
        assert TrainConfig(**config.to_dict()) == config


class TestAdam:
    def test_matches_reference_replay(self):
        rng = np.random.default_rng(0)
        start = rng.standard_normal(6).astype(np.float32)
        grads = rng.standard_normal((5, 6)).astype(np.float32)
        tensor = Tensor(start.copy())
        optimizer = Adam([("w", tensor)], lr=0.01)
        for g in grads:
            tensor.grad = g.copy()
            optimizer.step()
        expected = adam_oracle(start, grads, lr=0.01)
        assert not np.array_equal(tensor.data, start)
        assert np.abs(tensor.data.astype(np.float64) - expected).max() <= 1e-5

    def test_first_step_is_signed_learning_rate(self):
        rng = np.random.default_rng(1)
        g = (rng.choice([-1.0, 1.0], 8) * rng.uniform(0.2, 1.0, 8)).astype(np.float32)
        tensor = Tensor(np.zeros(8, np.float32))
        optimizer = Adam([("w", tensor)], lr=0.05)
        tensor.grad = g
        optimizer.step()
        assert np.allclose(tensor.data, -0.05 * np.sign(g), atol=1e-6)

    def test_missing_gradient_leaves_param_alone(self):
        a, b = Tensor(np.ones(3, np.float32)), Tensor(np.ones(3, np.float32))
        optimizer = Adam([("a", a), ("b", b)], lr=0.1)
        a.grad = np.ones(3, np.float32)
        optimizer.step()
        assert not np.array_equal(a.data, np.ones(3))
        assert np.array_equal(b.data, np.ones(3))

    def test_non_finite_gradient_applies_nothing(self):
        a, b = Tensor(np.ones(3, np.float32)), Tensor(np.ones(3, np.float32))
        optimizer = Adam([("a", a), ("b", b)], lr=0.1)
        a.grad = np.ones(3, np.float32)
        b.grad = np.array([1.0, np.inf, 1.0], np.float32)
        with pytest.raises(TrainingDiverged, match="b"):
            optimizer.step()
        # the healthy parameter must not move either: the step is atomic
        assert np.array_equal(a.data, np.ones(3))
        assert np.array_equal(b.data, np.ones(3))
        assert optimizer.steps == 0
        assert not np.any(optimizer.m["a"])


class TestEpochSampling:
    def test_replays_and_varies(self):
        index = memory_index((6, 4, 2))
        config = small_config()
        first = epoch_sample_ids(index, config, epoch=0)
        again = epoch_sample_ids(index, config, epoch=0)
        later = epoch_sample_ids(index, config, epoch=1)
        assert np.array_equal(first, again)
        assert not np.array_equal(first, later)

    def test_mrr_balances_every_epoch(self):
        index = memory_index((6, 4, 2))
        config = small_config(sampler="mrr")
        for epoch in range(5):
            ids = epoch_sample_ids(index, config, epoch)
            assert ids.size == 6
            assert np.bincount(index.labels[ids], minlength=3).tolist() == [2, 2, 2]

    def test_plain_covers_everything(self):
        index = memory_index((6, 4, 2))
        ids = epoch_sample_ids(index, small_config(sampler="plain"), epoch=0)
        assert sorted(ids.tolist()) == list(range(12))


class TestTrainLoop:
    def test_history_schedule_and_determinism(self, corpus_index):
        config = small_config(epochs=4, batch_size=32, sampler="mrr")
        first = train(config, corpus_index)
        second = train(config, corpus_index)

        assert [h["epoch"] for h in first["history"]] == [1, 2, 3, 4]
        expected_lr = [config.lr * config.lr_decay**e for e in range(4)]
        assert [h["lr"] for h in first["history"]] == expected_lr
        assert first["epochs_run"] == 4
        assert not first["diverged"]
        assert first["history"][-1]["loss"] < first["history"][0]["loss"]

        assert first["history"] == second["history"]
        state_a, state_b = first["network"].state_dict(), second["network"].state_dict()
        assert state_a.keys() == state_b.keys()
        for key in state_a:
            assert np.array_equal(state_a[key], state_b[key]), key

    def test_split_is_stratified(self, corpus_index):
        result = train(small_config(epochs=1), corpus_index)
        train_index, val_index = result["train_index"], result["val_index"]
        assert train_index.n_samples + val_index.n_samples == corpus_index.n_samples
        per_class_val = np.bincount(val_index.labels, minlength=7)
        assert per_class_val.tolist() == [6] * 7  # 25% of 24, every class

    def test_metrics_match_confusion_recount(self, corpus_index):
        result = train(small_config(epochs=1), corpus_index)
        wa, ua = accuracy_oracle(result["confusion"].counts)
        assert abs(result["wa"] - wa) <= 1e-12
        assert abs(result["ua"] - ua) <= 1e-12
        assert result["confusion"].counts.sum() == result["val_index"].n_samples

    def test_checkpoint_restores_the_exact_model(self, corpus_index, tmp_path):
        config = small_config(epochs=2)
        result = train(config, corpus_index, out_dir=tmp_path / "run")
        loaded, manifest = load_checkpoint(tmp_path / "run")

        val = result["val_index"]
        ours, _ = result["network"].forward(val.images, mode="eval")
        theirs, _ = loaded.forward(val.images, mode="eval")
        assert np.array_equal(ours, theirs)

        _, wa, _ = evaluate(loaded, val, batch_size=config.batch_size)
        assert wa == result["wa"]
        assert manifest["extra"]["train"]["epochs"] == 2
        assert manifest["extra"]["result"]["wa"] == result["wa"]
        assert manifest["extra"]["result"]["diverged"] is False

    def test_gap_head_trains_too(self, corpus_index):
        config = small_config(epochs=1, sampler="plain")
        description = build_description(corpus_index, config, "gap")
        result = train(config, corpus_index, description=description)
        assert result["epochs_run"] == 1
        assert 0.0 <= result["wa"] <= 1.0


class TestDivergenceHandling:
    def poisoned_index(self):
        index = memory_index((6, 6, 6))
        index.images[index.labels == 0] = np.nan
        return index

    def test_amendment_run_rolls_back_to_init(self):
        index = self.poisoned_index()
        config = small_config(epochs=3)
        description = build_description(index, config)
        result = train(config, index, description=description)

        assert result["diverged"] is True
        assert result["epochs_run"] == 0
        assert result["history"] == []
        assert "epoch 1" in result["halt_reason"]
        assert np.isnan(result["wa"]) and np.isnan(result["ua"])
        assert result["confusion"].counts.sum() == 0

        fresh = build_network(description, seed=config.seed)
        state, expected = result["network"].state_dict(), fresh.state_dict()
        assert state.keys() == expected.keys()
        for key in state:
            assert np.array_equal(state[key], expected[key]), key

    def test_stateless_head_still_reports_metrics(self):
        index = self.poisoned_index()
        config = small_config(epochs=2)
        description = build_description(index, config, "gap")
        result = train(config, index, description=description)
        assert result["diverged"] is True
        assert np.isfinite(result["wa"])  # eval needs no trained state
        fresh = build_network(description, seed=config.seed)
        for key, value in result["network"].state_dict().items():
            assert np.array_equal(value, fresh.state_dict()[key]), key

    def test_training_requires_loaded_images(self):
        index = memory_index((4, 4))
        bare = DatasetIndex(
            classes=index.classes, paths=index.paths, labels=index.labels
        )
        with pytest.raises(ConfigError, match="images"):
            train(small_config(), bare)


class TestEvaluationCount:
    """Each completed epoch is scored once, and that score is the run's result."""

    @pytest.fixture
    def counted(self, monkeypatch):
        module = importlib.import_module("arm_lab.train")  # arm_lab.train is the function
        calls = []  # the batch size of each call
        signature = inspect.signature(evaluate)

        def counting(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append(bound.arguments["batch_size"])
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(module, "evaluate", counting)
        return module, calls

    @pytest.mark.parametrize("head", ["arm", "gap"])
    def test_one_evaluation_per_epoch(self, corpus_index, counted, head):
        _, calls = counted
        config = small_config(epochs=3)
        result = train(config, corpus_index, description=build_description(corpus_index, config, head))
        assert len(calls) == 3
        last = result["history"][-1]
        assert (result["wa"], result["ua"]) == (last["wa"], last["ua"])
        confusion, wa, ua = evaluate(result["network"], result["val_index"], config.batch_size)
        assert np.array_equal(result["confusion"].counts, confusion.counts)
        assert (result["wa"], result["ua"]) == (wa, ua)

    @pytest.mark.parametrize("head", ["arm", "gap"])
    def test_later_divergence_returns_the_rolled_back_score(
        self, corpus_index, counted, head, monkeypatch
    ):
        module, calls = counted
        losses = []

        def loss_nan_from_epoch_two(logits, labels):
            loss, grad = softmax_cross_entropy(logits, labels)
            losses.append(loss)
            return (float("nan") if len(losses) > 1 else loss), grad

        monkeypatch.setattr(module, "softmax_cross_entropy", loss_nan_from_epoch_two)
        # one batch holds the whole epoch, so the second loss is epoch 2's
        config = small_config(epochs=3, batch_size=1024)
        result = train(config, corpus_index, description=build_description(corpus_index, config, head))
        assert result["diverged"] and "epoch 2" in result["halt_reason"]
        assert len(result["history"]) == 1 and len(calls) == 1
        # what scoring the rolled-back network at the end of the run returns
        confusion, wa, ua = evaluate(result["network"], result["val_index"], config.batch_size)
        assert np.array_equal(result["confusion"].counts, confusion.counts)
        assert (result["wa"], result["ua"]) == (wa, ua)
        assert (wa, ua) == (result["history"][0]["wa"], result["history"][0]["ua"])

    @pytest.mark.parametrize("batch_size", [8, VAL_BATCH, 1024])
    def test_validation_runs_at_val_batch_or_larger(self, corpus_index, counted, batch_size):
        _, calls = counted
        train(small_config(epochs=2, batch_size=batch_size), corpus_index)
        assert calls == [max(batch_size, VAL_BATCH)] * 2

    def test_rolled_back_initial_state_is_scored_at_val_batch(self, counted):
        _, calls = counted
        index = memory_index((6, 6, 6))
        index.images[index.labels == 0] = np.nan
        config = small_config(epochs=2, batch_size=4)
        result = train(config, index, description=build_description(index, config, "gap"))
        assert result["epochs_run"] == 0
        assert calls == [VAL_BATCH]


class TestEvalBatchInvariance:
    """An eval forward treats each sample alone, so its batch size should change no bit.

    train() may score at VAL_BATCH rather than the training batch size on this
    basis. Bit identity also rests on the BLAS splitting GEMM columns alike at
    every batch size, so a BLAS that does not would fail here.
    """

    BATCH_SIZES = (1, 7, 16, 64, 256)

    @pytest.fixture(scope="class", params=["arm", "gap", "sweep"])
    def trained(self, request, corpus_index):
        config = small_config(epochs=1)
        settings = {"kernel": 2} if request.param == "sweep" else {}
        description = build_description(corpus_index, config, request.param, **settings)
        return train(config, corpus_index, description=description)["network"]

    @staticmethod
    def batched_logits(network, images, batch_size):
        return np.concatenate(
            [
                network.forward(images[start : start + batch_size], mode="eval")[0]
                for start in range(0, len(images), batch_size)
            ]
        )

    def test_confusion_counts_do_not_depend_on_the_batch(self, corpus_index, trained):
        scores = [evaluate(trained, corpus_index, size) for size in self.BATCH_SIZES]
        first, wa, ua = scores[0]
        assert first.counts.sum() == corpus_index.n_samples
        for confusion, other_wa, other_ua in scores[1:]:
            assert np.array_equal(confusion.counts, first.counts)
            assert (other_wa, other_ua) == (wa, ua)

    def test_logits_are_the_same_bits_at_every_batch(self, corpus_index, trained):
        images = corpus_index.images
        whole = self.batched_logits(trained, images, len(images))
        for size in self.BATCH_SIZES:
            logits = self.batched_logits(trained, images, size)
            assert logits.shape == whole.shape and logits.dtype == whole.dtype
            assert logits.tobytes() == whole.tobytes(), size


# a small train() call on train-arm's corpus, in a fresh interpreter whose
# OpenBLAS kernel the environment chooses
REPLAY_CHILD = """
import json, sys
from arm_lab.arm import environment
from arm_lab.data import load_dataset
from arm_lab.train import TrainConfig, train
result = train(TrainConfig(epochs=5, batch_size=64, seed=1, sampler="mrr"), load_dataset(sys.argv[1]))
print(json.dumps({
    "blas_core": environment()["blas_core"],
    "history": [[entry["wa"], entry["ua"]] for entry in result["history"]],
    "confusion": result["confusion"].counts.tolist(),
    "state": {name: value.tolist() for name, value in result["network"].state_dict().items()},
}))
"""
# largest state difference between two kernels, relative to the tensor's
# largest magnitude: measured 4.1e-7 (Katmai), 2.7e-7 (Haswell) and 7.5e-7
# (Nehalem) against SkylakeX
KERNEL_STATE_TOLERANCE = 4e-6


def replay_under(corpus: str, **blas_env: str) -> dict:
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    package_parent = str(Path(arm_lab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_parent, env.get("PYTHONPATH")]))
    env.update(OPENBLAS_NUM_THREADS="1", **blas_env)
    done = subprocess.run(
        [sys.executable, "-c", REPLAY_CHILD, corpus],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.skipif(environment()["blas_core"] is None, reason="the BLAS is not OpenBLAS")
class TestKernelReplay:
    """Two OpenBLAS kernels train to the same scores and nearly the same state."""

    def test_prescott_kernel_scores_alike(self, tmp_path):
        synth_dataset(str(tmp_path / "corpus"), 7, 45, extent=32, seed=1)
        default = replay_under(str(tmp_path / "corpus"))
        other = replay_under(str(tmp_path / "corpus"), OPENBLAS_CORETYPE="Prescott")
        if other["blas_core"] == default["blas_core"]:
            pytest.skip(f"the default kernel is already {default['blas_core']}")
        assert other["history"] == default["history"]
        assert other["confusion"] == default["confusion"]
        assert other["state"].keys() == default["state"].keys()
        for name, value in default["state"].items():
            want, got = np.array(value), np.array(other["state"][name])
            assert np.abs(got - want).max() <= KERNEL_STATE_TOLERANCE * np.abs(want).max(), name


class TestComparativeRuns:
    def test_paired_comparison_shape(self, corpus_index):
        config = small_config(epochs=1)
        report = compare_heads(corpus_index, config, seeds=[0, 1])
        assert [row["seed"] for row in report["rows"]] == [0, 1]
        summary = report["summary"]
        assert summary["runs"] == 2
        deltas = [row["arm_wa"] - row["gap_wa"] for row in report["rows"]]
        assert abs(summary["mean_wa_delta"] - np.mean(deltas)) <= 1e-12

    def test_diverged_pairs_are_flagged_and_left_out_of_the_means(self):
        config = small_config(epochs=2, batch_size=8, lr=1e30, seed=0)
        report = compare_heads(memory_index((12, 12, 12)), config, seeds=[0, 1])
        for row in report["rows"]:
            assert row["diverged"] is True
            assert row["halt_reason"].startswith("arm: epoch 1: non-finite loss")
        summary = report["summary"]
        assert summary["runs"] == 0
        assert all(np.isnan(value) for key, value in summary.items() if key != "runs")

    def test_a_diverged_side_drops_its_pair(self, corpus_index, monkeypatch):
        module = importlib.import_module("arm_lab.train")  # arm_lab.train is the function
        real_train = module.train

        def gap_diverges_for_seed_one(config, index, description=None, out_dir=None):
            result = real_train(config, index, description, out_dir)
            if config.seed == 1 and description["type"] == "gap":
                result.update(diverged=True, halt_reason="epoch 1: injected")
            return result

        monkeypatch.setattr(module, "train", gap_diverges_for_seed_one)
        report = compare_heads(corpus_index, small_config(epochs=1), seeds=[0, 1])
        first, second = report["rows"]
        assert (first["diverged"], first["halt_reason"]) == (False, "")
        assert (second["diverged"], second["halt_reason"]) == (True, "gap: epoch 1: injected")
        summary = report["summary"]
        assert summary["runs"] == 1
        assert summary["mean_arm_wa"] == first["arm_wa"]
        assert summary["mean_wa_delta"] == first["arm_wa"] - first["gap_wa"]

    def test_sweep_point_runs_and_propagates_geometry(self, corpus_index):
        config = small_config(epochs=1)
        row = train_sweep_point(corpus_index, kernel=2, base_config=config)
        assert row["k"] == 2
        assert 0.0 <= row["wa"] <= 1.0
        with pytest.raises(KernelTooLargeError):
            train_sweep_point(corpus_index, kernel=99, base_config=config)

    def test_sweep_point_trains_the_fixed_backbone(self, corpus_index, monkeypatch):
        module = importlib.import_module("arm_lab.train")  # arm_lab.train is the function
        calls = []

        def recording(config, index, description=None, out_dir=None):
            calls.append((config, description))
            return {"diverged": False, "halt_reason": "", "wa": 0.5, "ua": 0.25}

        monkeypatch.setattr(module, "train", recording)
        config = small_config()
        assert config.backbone_widths == SMALL_WIDTHS != SWEEP_WIDTHS
        row = train_sweep_point(corpus_index, 2, config)
        assert row == {"k": 2, "wa": 0.5, "ua": 0.25}
        [(passed, description)] = calls
        assert passed == dataclasses.replace(config, backbone_widths=SWEEP_WIDTHS)
        assert description["type"] == "sweep"
        assert description["kernel"] == 2
        assert description["backbone_widths"] == list(SWEEP_WIDTHS)
        # the widths the sweep-small benchmark workload trains
        assert SWEEP_WIDTHS == (8, 16)
