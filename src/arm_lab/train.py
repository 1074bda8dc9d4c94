"""Adam optimization and the training/evaluation loops.

Epoch seeds derive from (run seed, epoch), so resampling is fresh every
epoch yet the whole run replays exactly. A non-finite loss or gradient
stops the run and rolls the network back to the last completed epoch.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .arm import ArmConfig, Network, build_network, save_checkpoint
from .data import (
    ConfusionMatrix,
    DatasetIndex,
    metrics,
    mrr_epoch_sample,
    plain_epoch_sample,
    split_index,
)
from .errors import ConfigError, TrainingDiverged, UninitializedStateError
from .tensor import softmax_cross_entropy

SAMPLERS = ("plain", "mrr")


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
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
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
            grad = tensor.grad
            if grad is None:
                continue
            if not np.all(np.isfinite(grad)):
                raise TrainingDiverged(f"non-finite gradient in {name}")
        self.steps += 1
        correction1 = 1.0 - self.beta1**self.steps
        correction2 = 1.0 - self.beta2**self.steps
        for name, tensor in self.params:
            grad = tensor.grad
            if grad is None:
                continue
            g = grad.astype(np.float64)
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


def build_arm_description(index: DatasetIndex, config: TrainConfig) -> dict:
    extent = index.images.shape[-1]
    widths = config.backbone_widths
    arm_cfg = ArmConfig(
        channels=widths[-1],
        height=extent // (2 ** len(widths)),
        width=extent // (2 ** len(widths)),
        classes=len(index.classes),
        smoothing_init=config.smoothing_init,
        smoothing_learnable=config.smoothing_learnable,
    )
    return {
        "type": "arm",
        "input_extent": int(extent),
        "backbone_widths": list(widths),
        "classes": len(index.classes),
        "arm": arm_cfg.to_dict(),
    }


def build_gap_description(index: DatasetIndex, config: TrainConfig) -> dict:
    return {
        "type": "gap",
        "input_extent": int(index.images.shape[-1]),
        "backbone_widths": list(config.backbone_widths),
        "classes": len(index.classes),
    }


def train(
    config: TrainConfig,
    index: DatasetIndex,
    description: dict | None = None,
    out_dir=None,
) -> dict:
    """Train a network on a stratified split of the index.

    Returns the trained network, per-epoch history, the final validation
    confusion matrix, and a divergence flag. When out_dir is given, a
    checkpoint directory is written there.
    """
    if index.images is None:
        raise ConfigError("training needs a loaded index (images present)")
    train_index, val_index = split_index(index, config.val_fraction, config.seed)
    if description is None:
        description = build_arm_description(index, config)
    network = build_network(description, seed=config.seed)
    optimizer = Adam(network.params(), lr=config.lr)

    history = []
    diverged = False
    halt_reason = ""
    last_good = _snapshot(network)
    for epoch in range(config.epochs):
        optimizer.lr = config.lr * config.lr_decay**epoch
        ids = epoch_sample_ids(train_index, config, epoch)
        total_loss, total_samples = 0.0, 0
        epoch_ok = True
        for start in range(0, ids.size, config.batch_size):
            batch = ids[start : start + config.batch_size]
            images = train_index.images[batch]
            labels = train_index.labels[batch]
            logits, cache = network.forward(images, mode="train")
            loss, grad_logits = softmax_cross_entropy(logits, labels)
            if not np.isfinite(loss):
                halt_reason = f"non-finite loss in epoch {epoch + 1}"
                epoch_ok = False
                break
            network.zero_grads()
            network.backward(grad_logits, cache)
            try:
                optimizer.step()
            except TrainingDiverged as exc:
                halt_reason = f"epoch {epoch + 1}: {exc}"
                epoch_ok = False
                break
            network.post_step()
            total_loss += loss * batch.size
            total_samples += batch.size
        if not epoch_ok:
            diverged = True
            network.load_state_dict(last_good)
            break
        last_good = _snapshot(network)
        # the run's result unless a later epoch completes: a rollback restores this state
        confusion, final_wa, final_ua = evaluate(network, val_index, config.batch_size)
        history.append(
            {
                "epoch": epoch + 1,
                "loss": total_loss / max(1, total_samples),
                "lr": optimizer.lr,
                "wa": final_wa,
                "ua": final_ua,
            }
        )

    if not history:  # no epoch completed, so nothing has scored the initial state
        try:
            confusion, final_wa, final_ua = evaluate(network, val_index, config.batch_size)
        except UninitializedStateError:
            # diverged before the first epoch finished; there is nothing to score
            confusion = ConfusionMatrix(classes=list(index.classes))
            final_wa, final_ua = float("nan"), float("nan")
    result = {
        "network": network,
        "description": description,
        "history": history,
        "diverged": diverged,
        "halt_reason": halt_reason,
        "confusion": confusion,
        "wa": final_wa,
        "ua": final_ua,
        "epochs_run": len(history),
        "train_index": train_index,
        "val_index": val_index,
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
            "result": {
                "epochs_run": len(history),
                "diverged": diverged,
                "halt_reason": halt_reason,
                "wa": final_wa,
                "ua": final_ua,
            },
        }
        save_checkpoint(out_dir, network, extra=extra)
    return result


def train_sweep_point(
    index: DatasetIndex,
    kernel: int,
    base_config: TrainConfig,
    out_channels: int = 16,
    downsampling_blocks: int = 2,
) -> dict:
    """Train one stride-1 weighting-convolution classifier for one kernel size.

    The backbone is shortened to the requested number of stride-2 blocks so
    the kernel sweep happens on a larger spatial map. Geometry errors (kernel
    larger than the map) propagate to the caller.
    """
    widths = tuple(
        max(1, out_channels // 2 ** (downsampling_blocks - 1 - i))
        for i in range(downsampling_blocks)
    )
    description = {
        "type": "sweep",
        "input_extent": int(index.images.shape[-1]),
        "backbone_widths": list(widths),
        "classes": len(index.classes),
        "kernel": int(kernel),
    }
    result = train(base_config, index, description=description)
    return {"k": int(kernel), "wa": result["wa"], "ua": result["ua"]}


def compare_heads(index: DatasetIndex, config: TrainConfig, seeds) -> dict:
    """Paired amendment-vs-pooling runs: same data, split, and seed per pair."""
    rows = []
    for seed in seeds:
        run_config = dataclasses.replace(config, seed=int(seed))
        arm = train(run_config, index, description=build_arm_description(index, run_config))
        gap = train(run_config, index, description=build_gap_description(index, run_config))
        rows.append(
            {
                "seed": int(seed),
                "arm_wa": arm["wa"],
                "arm_ua": arm["ua"],
                "gap_wa": gap["wa"],
                "gap_ua": gap["ua"],
            }
        )
    arm_wa = np.array([r["arm_wa"] for r in rows])
    gap_wa = np.array([r["gap_wa"] for r in rows])
    arm_ua = np.array([r["arm_ua"] for r in rows])
    gap_ua = np.array([r["gap_ua"] for r in rows])
    summary = {
        "runs": len(rows),
        "mean_arm_wa": float(arm_wa.mean()),
        "mean_gap_wa": float(gap_wa.mean()),
        "mean_arm_ua": float(arm_ua.mean()),
        "mean_gap_ua": float(gap_ua.mean()),
        "mean_wa_delta": float((arm_wa - gap_wa).mean()),
        "mean_ua_delta": float((arm_ua - gap_ua).mean()),
    }
    return {"rows": rows, "summary": summary}
