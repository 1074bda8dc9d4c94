"""Adam optimization and the training/evaluation loops.

Epoch seeds derive from (run seed, epoch), so resampling is fresh every
epoch yet the whole run replays exactly. A non-finite loss or gradient
stops the run and rolls the network back to the last completed epoch.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .arm import ArmConfig, Network, backbone_extent, build_network, save_checkpoint
from .data import (
    ConfusionMatrix,
    DatasetIndex,
    metrics,
    mrr_epoch_sample,
    plain_epoch_sample,
    split_index,
)
from .errors import ConfigError, DataError, TrainingDiverged, UninitializedStateError
from .tensor import softmax_cross_entropy

SAMPLERS = ("plain", "mrr")
# train() scores validation in batches of max(config.batch_size, this): an
# eval forward couples no samples (BatchNorm uses running statistics, the
# affinity step a stored buffer), and its logits kept every bit at each batch
# size tested, which rests on the BLAS (see GEMM_COLUMN_TILE in tensor.py)
VAL_BATCH = 64
# the kernel sweep's fixed backbone: two stride-2 blocks, so k runs on a
# larger map than the reference three-block backbone leaves
SWEEP_WIDTHS = (8, 16)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 256
    lr: float = 0.001
    lr_decay: float = 0.9
    seed: int = 0
    sampler: str = "plain"
    val_fraction: float = 0.2
    smoothing_init: float = 0.3
    smoothing_learnable: bool = True
    backbone_widths: tuple = (8, 16, 32)

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.lr < np.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        if not 0.0 <= self.smoothing_init <= 1.0:
            raise ConfigError(f"smoothing_init must be in [0, 1], got {self.smoothing_init}")
        if self.sampler not in SAMPLERS:
            raise ConfigError(
                f"sampler must be one of {SAMPLERS}, got {self.sampler!r}"
            )
        object.__setattr__(self, "backbone_widths", tuple(self.backbone_widths))
        if not self.backbone_widths or min(self.backbone_widths) < 1:
            raise ConfigError(
                f"backbone_widths must be one or more widths >= 1, got {self.backbone_widths}"
            )

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["backbone_widths"] = list(self.backbone_widths)
        return out


class Adam:
    """Adam with bias correction; refuses to apply non-finite gradients."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr=0.001):
        self.params = list(params)
        self.lr = lr
        self.steps = 0
        self.m = {name: np.zeros(t.shape, np.float64) for name, t in self.params}
        self.v = {name: np.zeros(t.shape, np.float64) for name, t in self.params}

    def step(self) -> None:
        for name, tensor in self.params:
            if not np.all(np.isfinite(tensor.grad)):
                raise TrainingDiverged(f"non-finite gradient in {name}")
        self.steps += 1
        correction1 = 1.0 - self.beta1**self.steps
        correction2 = 1.0 - self.beta2**self.steps
        for name, tensor in self.params:
            g = tensor.grad.astype(np.float64)
            m = self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            v = self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            update = (m / correction1) / (np.sqrt(v / correction2) + self.eps)
            tensor.data = (tensor.data.astype(np.float64) - self.lr * update).astype(
                np.float32
            )


def epoch_sample_ids(index: DatasetIndex, config: TrainConfig, epoch: int) -> np.ndarray:
    sample = mrr_epoch_sample if config.sampler == "mrr" else plain_epoch_sample
    return sample(index, [config.seed, epoch])


def evaluate(network: Network, index: DatasetIndex, batch_size: int = 256):
    """Eval-mode pass over an index; returns the confusion matrix and metrics."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    cm = ConfusionMatrix(classes=list(index.classes))
    for start in range(0, index.n_samples, batch_size):
        stop = min(start + batch_size, index.n_samples)
        logits, _ = network.forward(index.images[start:stop], mode="eval")
        predictions = np.argmax(logits, axis=1)
        cm.update(index.labels[start:stop], predictions)
    wa, ua, _ = metrics(cm)
    return cm, wa, ua


def _snapshot(network: Network) -> dict:
    return {name: data.copy() for name, data in network.state_dict().items()}


def build_description(index: DatasetIndex, config: TrainConfig, head="arm", **settings) -> dict:
    """A network description for index's square images: head, config's backbone, settings."""
    *_, height, extent = index.images.shape
    if height != extent:
        raise DataError(f"images are {height}x{extent}, but a network takes square images")
    description = {
        "type": head,
        "input_extent": int(extent),
        "backbone_widths": list(config.backbone_widths),
        "classes": len(index.classes),
        **settings,
    }
    if head == "arm":
        side = backbone_extent(extent, len(config.backbone_widths))
        description["arm"] = ArmConfig(
            channels=config.backbone_widths[-1],
            height=side,
            width=side,
            classes=len(index.classes),
            smoothing_init=config.smoothing_init,
            smoothing_learnable=config.smoothing_learnable,
        ).to_dict()
    return description


def train(
    config: TrainConfig,
    index: DatasetIndex,
    description: dict | None = None,
    out_dir=None,
) -> dict:
    """Train a network on a stratified split of the index.

    A non-finite loss or gradient rolls the network back to the start of
    that epoch and ends the run. Returns the outcome record (epochs_run,
    diverged, halt_reason, wa, ua), also under "outcome", merged with the
    network, per-epoch history, final validation confusion matrix and
    split indexes. When out_dir is given, a checkpoint directory is
    written there with the outcome as its extra["result"].

    The validation split is scored in batches of max(config.batch_size,
    VAL_BATCH), so a small-batch run makes fewer eval forwards; the
    logits keep every bit under the BLAS tested (TestEvalBatchInvariance).
    """
    if index.images is None:
        raise ConfigError("training needs a loaded index (images present)")
    train_index, val_index = split_index(index, config.val_fraction, config.seed)
    if description is None:
        description = build_description(index, config)
    network = build_network(description, seed=config.seed)
    optimizer = Adam(network.params(), lr=config.lr)

    val_batch = max(config.batch_size, VAL_BATCH)
    history = []
    halt_reason = ""
    for epoch in range(config.epochs):
        optimizer.lr = config.lr * config.lr_decay**epoch
        ids = epoch_sample_ids(train_index, config, epoch)
        last_good = _snapshot(network)
        total_loss = 0.0
        try:
            # a diverging run overflows; the finite-loss and finite-gradient checks decide
            with np.errstate(over="ignore", invalid="ignore"):
                for start in range(0, ids.size, config.batch_size):
                    batch = ids[start : start + config.batch_size]
                    logits, cache = network.forward(train_index.images[batch], mode="train")
                    loss, grad_logits = softmax_cross_entropy(logits, train_index.labels[batch])
                    if not np.isfinite(loss):
                        raise TrainingDiverged("non-finite loss")
                    network.zero_grads()
                    network.backward(grad_logits, cache)
                    optimizer.step()
                    network.post_step()
                    total_loss += loss * batch.size
        except TrainingDiverged as exc:
            halt_reason = f"epoch {epoch + 1}: {exc}"
            network.load_state_dict(last_good)
            break
        # the run's result unless a later epoch completes: a rollback restores this state
        confusion, final_wa, final_ua = evaluate(network, val_index, val_batch)
        history.append(
            {
                "epoch": epoch + 1,
                "loss": total_loss / max(1, ids.size),
                "lr": optimizer.lr,
                "wa": final_wa,
                "ua": final_ua,
            }
        )

    if not history:  # no epoch completed, so nothing has scored the initial state
        try:
            confusion, final_wa, final_ua = evaluate(network, val_index, val_batch)
        except UninitializedStateError:
            # diverged before the first epoch finished; there is nothing to score
            confusion = ConfusionMatrix(classes=list(index.classes))
            final_wa, final_ua = float("nan"), float("nan")
    outcome = {
        "epochs_run": len(history),
        "diverged": bool(halt_reason),
        "halt_reason": halt_reason,
        "wa": final_wa,
        "ua": final_ua,
    }
    if out_dir is not None:
        extra = {
            "train": config.to_dict(),
            "data": {
                "classes": list(index.classes),
                "val_fraction": config.val_fraction,
                "split_seed": config.seed,
                "input_extent": int(index.images.shape[-1]),
            },
            "result": outcome,
        }
        save_checkpoint(out_dir, network, extra=extra)
    return dict(outcome, outcome=outcome, network=network, history=history,
                confusion=confusion, train_index=train_index, val_index=val_index)


def train_sweep_point(index: DatasetIndex, kernel: int, base_config: TrainConfig) -> dict:
    """Train one stride-1 weighting-convolution classifier for one kernel size.

    base_config.backbone_widths is replaced by SWEEP_WIDTHS, so every kernel
    size is swept on the same two-block backbone. Geometry errors (kernel
    larger than the map) propagate to the caller, and a diverged run raises
    TrainingDiverged with its halt reason instead of returning the scores of
    the rolled-back network.
    """
    config = dataclasses.replace(base_config, backbone_widths=SWEEP_WIDTHS)
    description = build_description(index, config, "sweep", kernel=int(kernel))
    result = train(config, index, description=description)
    if result["diverged"]:
        raise TrainingDiverged(result["halt_reason"])
    return {"k": int(kernel), "wa": result["wa"], "ua": result["ua"]}


def compare_heads(index: DatasetIndex, config: TrainConfig, seeds) -> dict:
    """Paired amendment-vs-pooling runs: same data, split, and seed per pair.

    A pair with a diverged side is flagged in its row and left out of the means.
    """
    rows = []
    for seed in seeds:
        run_config = dataclasses.replace(config, seed=int(seed))
        row = {"seed": int(seed)}
        halts = []
        for head in ("arm", "gap"):
            run = train(run_config, index, description=build_description(index, run_config, head))
            row.update({f"{head}_wa": run["wa"], f"{head}_ua": run["ua"]})
            if run["diverged"]:
                halts.append(f"{head}: {run['halt_reason']}")
        rows.append(dict(row, diverged=bool(halts), halt_reason="; ".join(halts)))
    finished = [r for r in rows if not r["diverged"]]
    arm_wa = np.array([r["arm_wa"] for r in finished])
    gap_wa = np.array([r["gap_wa"] for r in finished])
    arm_ua = np.array([r["arm_ua"] for r in finished])
    gap_ua = np.array([r["gap_ua"] for r in finished])

    def mean(values) -> float:  # NaN, without numpy's empty-slice warning, if none finished
        return float(values.mean()) if finished else float("nan")

    summary = {
        "runs": len(finished),
        "mean_arm_wa": mean(arm_wa),
        "mean_gap_wa": mean(gap_wa),
        "mean_arm_ua": mean(arm_ua),
        "mean_gap_ua": mean(gap_ua),
        "mean_wa_delta": mean(arm_wa - gap_wa),
        "mean_ua_delta": mean(arm_ua - gap_ua),
    }
    return {"rows": rows, "summary": summary}
