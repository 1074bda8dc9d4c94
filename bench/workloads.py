"""The four benchmark workloads.

Each workload writes its inputs from the seed in `make_inputs` (untimed:
input generation is not the system's set-up), gets ready in `setup` (timed,
repeated), then runs one closed-loop client: `op` performs one operation,
times nothing itself, and checks its outputs against the first repetition
(bitwise replay) or a closed form. The package is used only through its
public functions, looked up on the module at call time so that a tracer can
wrap them.

Sizes come in two sets: the measured one and a toy `smoke` one used by the
benchmark's own test.
"""

from __future__ import annotations

import hashlib
import importlib
import os

import numpy as np

# arm_lab re-exports the function train() under the submodule's name
arm, data, erosion, train = (
    importlib.import_module(f"arm_lab.{m}") for m in ("arm", "data", "erosion", "train")
)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for key, value in arrays:
        h.update(key.encode())
        h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


class Workload:
    """One closed-loop client; subclasses fill in setup, op and named metrics."""

    name = ""
    op_label = ""  # what one operation is, for the named timing metrics

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.reference = None  # outputs of the first operation
        self.problems: list[str] = []

    def make_inputs(self, root: str) -> None:
        """Write the seeded inputs under root; runs once, untimed."""

    def setup(self, inputs: str) -> None:
        """Load the inputs and build what the operations need; timed."""
        raise NotImplementedError

    def op(self) -> tuple[int, int, int]:
        """Run one operation; returns (work units, attempted, failed)."""
        raise NotImplementedError

    def named_metrics(self, summary: dict) -> dict:
        return {}

    def _fail(self, message: str) -> None:
        self.problems.append(message)


class TrainArm(Workload):
    """Repeated train.train() on the reference ARM network, batch 256."""

    name = "train-arm"
    op_label = "train_call"

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.per_class = 6 if smoke else 45  # 45 -> 36 train/class, one 252-sample MRR step
        self.config = train.TrainConfig(
            epochs=1,
            batch_size=16 if smoke else 256,
            lr=0.001,
            seed=seed,
            sampler="mrr",
            backbone_widths=(8, 16, 32),
        )
        self.last = None

    def make_inputs(self, root):
        data.synth_dataset(os.path.join(root, "corpus"), 7, self.per_class, extent=32, seed=self.seed)

    def setup(self, inputs):
        self.index = data.load_dataset(os.path.join(inputs, "corpus"))

    def op(self):
        result = train.train(self.config, self.index)
        self.last = result
        state = result["network"].state_dict()
        outputs = (
            result["history"],
            result["confusion"].counts.tolist(),
            _digest(sorted(state.items())),
        )
        failed = 0
        if result["diverged"]:
            self._fail(f"diverged: {result['halt_reason']}")
            failed = 1
        elif not 0.0 <= result["wa"] <= 1.0:
            self._fail(f"validation WA {result['wa']} outside [0, 1]")
            failed = 1
        elif self.reference is None:
            self.reference = outputs
        elif outputs != self.reference:
            self._fail("train.train() replay differs from the first call")
            failed = 1
        samples = int(result["train_index"].counts.min()) * len(self.index.classes)
        return samples * self.config.epochs, 1, failed

    def named_metrics(self, summary):
        history = self.last["history"] if self.last else [{"loss": float("nan")}]
        return {
            "train_samples_per_s": (summary["throughput_per_s"], "1/s"),
            "train_loss_final": (history[-1]["loss"], "nats"),
            "val_wa": (self.last["wa"] if self.last else float("nan"), "fraction"),
        }


class EvalArm(Workload):
    """Eval-mode train.evaluate on a loaded checkpoint, one 256-sample batch per op."""

    name = "eval-arm"
    op_label = "eval_batch"

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.per_class = 10 if smoke else 147  # 1029 samples -> four full batches
        self.batch = 32 if smoke else 256
        self.next_batch = 0

    def make_inputs(self, root):
        index = data.synth_dataset(
            os.path.join(root, "corpus"), 7, self.per_class, extent=32, seed=self.seed
        )
        # a short training run on a small subset yields a checkpoint whose
        # generic-feature buffer and BatchNorm statistics are initialized
        few = np.concatenate([ids[:5] for ids in index.per_class])
        config = train.TrainConfig(
            epochs=1, batch_size=64, seed=self.seed, sampler="plain", backbone_widths=(8, 16, 32)
        )
        train.train(config, index.subset(few), out_dir=os.path.join(root, "checkpoint"))

    def setup(self, inputs):
        index = data.load_dataset(os.path.join(inputs, "corpus"))
        self.network, _ = arm.load_checkpoint(os.path.join(inputs, "checkpoint"))
        order = np.random.default_rng(self.seed).permutation(index.n_samples)
        self.batches = [
            index.subset(np.sort(order[start : start + self.batch]))
            for start in range(0, index.n_samples - self.batch + 1, self.batch)
        ]
        if self.reference is None:  # set-ups repeat; the replay reference stays
            self.reference = [None] * len(self.batches)

    def op(self):
        j = self.next_batch
        self.next_batch = (j + 1) % len(self.batches)
        confusion, wa, ua = train.evaluate(self.network, self.batches[j], batch_size=self.batch)
        counts = confusion.counts
        if counts.sum() != self.batch or not 0.0 <= wa <= 1.0:
            self._fail(f"batch {j}: confusion total {counts.sum()}, WA {wa}")
            return self.batch, 1, 1
        if self.reference[j] is None:
            self.reference[j] = counts.copy()
        elif not np.array_equal(counts, self.reference[j]):
            self._fail(f"batch {j}: confusion matrix differs from its first evaluation")
            return self.batch, 1, 1
        return self.batch, 1, 0

    def named_metrics(self, summary):
        return {
            "eval_samples_per_s": (summary["throughput_per_s"], "1/s"),
            "eval_batch_ms_p50": (summary["op_ms_p50"], "ms"),
            "eval_batch_ms_p90": (summary["op_ms_p90"], "ms"),
        }


class SweepSmall(Workload):
    """erosion.k_sweep over k=1..4 on the 35:1 corpus with small batches."""

    name = "sweep-small"
    op_label = "sweep_call"

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.counts = [14, 7, 4, 3, 2, 2, 2] if smoke else [350, 175, 88, 44, 22, 11, 10]
        self.ks = [1, 2] if smoke else [1, 2, 3, 4]
        self.config = train.TrainConfig(
            epochs=1, batch_size=8 if smoke else 16, lr=0.001, seed=seed, sampler="mrr"
        )

    def make_inputs(self, root):
        data.synth_dataset(os.path.join(root, "corpus"), 7, self.counts, extent=32, seed=self.seed)

    def setup(self, inputs):
        self.index = data.load_dataset(os.path.join(inputs, "corpus"))

    def op(self):
        rows = erosion.k_sweep(self.index, self.ks, self.config)
        failed = 0
        for row in rows:
            # k_sweep turns any exception into a row; each one is a failure
            if row["error"]:
                self._fail(f"k={row['k']}: {row['error']}")
                failed += 1
            elif not 0.0 <= row["wa"] <= 1.0:
                self._fail(f"k={row['k']}: WA {row['wa']} outside [0, 1]")
                failed += 1
        if failed == 0:
            if self.reference is None:
                self.reference = rows
            elif rows != self.reference:
                self._fail("k_sweep rows differ from the first sweep")
                failed = len(rows)
        return len(rows), len(rows), failed

    def named_metrics(self, summary):
        return {
            "sweep_s": (summary["op_ms_p50"] / 1000.0, "s"),
            "sweep_k_points_per_s": (summary["throughput_per_s"], "1/s"),
        }


class ErosionMaps(Workload):
    """Perception, contamination and cluster-weight maps at the paper's shapes."""

    name = "erosion-maps"
    op_label = "erosion_set"
    CALLS_PER_OP = 5

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.extent = 32 if smoke else 224
        self.depth = 4 if smoke else 16

    def setup(self, inputs):
        rng = np.random.default_rng(self.seed)
        # the seed varies the map shape slightly so different seeds run
        # different inputs; the closed forms hold for every shape
        self.height = self.extent + int(rng.integers(0, 8))
        self.width = self.extent + int(rng.integers(0, 8))
        self.unstrided = [(3, 1, 1)] * self.depth
        self.strided = [(3, 1, 1), (3, 1, 1), (3, 2, 1)] * (self.depth // 3 or 1)
        head = arm.ArmConfig(512, 7, 7, classes=7)
        self.spec, self.geom = head.shuffle_spec, head.da_geometry
        self.expected_counts = _window_counts(self.height, self.width, 3, 1, 1)

    def op(self):
        pm = erosion.perception_map(self.height, self.width, 3, 1, 1)
        flat = erosion.albino_maps_per_layer(self.height, self.width, self.unstrided)
        strided = erosion.albino_maps_per_layer(self.height, self.width, self.strided)
        profile = erosion.cluster_weight_profile(self.spec, self.geom)
        ring, interior = erosion.outer_ring_interior_split(profile)
        first = flat[0].contamination
        problems = []
        if not np.array_equal(pm.counts, self.expected_counts):
            problems.append("perception counts differ from window enumeration")
        if not (np.isclose(first[0, 0], 5 / 9) and np.isclose(first[0, 1], 1 / 3)
                and first[1:-1, 1:-1].max() == 0.0):
            problems.append("3x3/1/1 contamination is not 5/9 corner, 1/3 edge, 0 inside")
        if any(m.contamination.min() < 0 or m.contamination.max() > 1 for m in flat + strided):
            problems.append("contamination outside [0, 1]")
        if not ring.max() < interior.min():
            problems.append("outer cluster ring is not lighter than the interior")
        outputs = _digest(
            [("pm", pm.counts), ("flat", flat[-1].contamination),
             ("strided", strided[-1].contamination), ("profile", profile)]
        )
        if not problems:
            if self.reference is None:
                self.reference = outputs
            elif outputs != self.reference:
                problems.append("maps differ from the first repetition")
        for p in problems:
            self._fail(p)
        return self.CALLS_PER_OP, 1, 1 if problems else 0

    def named_metrics(self, summary):
        return {"erosion_calls_per_s": (summary["throughput_per_s"], "1/s")}


def _window_counts(height, width, k, s, p) -> np.ndarray:
    """Oracle: enumerate every window and count the real pixels it covers."""
    counts = np.zeros((height + 2 * p, width + 2 * p), dtype=np.int64)
    for top in range(0, height + 2 * p - k + 1, s):
        for left in range(0, width + 2 * p - k + 1, s):
            counts[top : top + k, left : left + k] += 1
    return counts[p : p + height, p : p + width]


WORKLOADS = {w.name: w for w in (TrainArm, EvalArm, SweepSmall, ErosionMaps)}
