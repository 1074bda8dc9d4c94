"""The amendment head and the small networks built around it.

The head rearranges backbone channels into space, applies one shared
single-channel weighting convolution without padding, normalizes, averages
the surviving channels, and subtracts a running estimate of the generic
(class-independent) feature before classification. That estimate is a buffer,
not a parameter; one rule, in affinity_forward, blends each training batch
into it, and only its smoothing coefficient can learn.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import os
import platform
from dataclasses import asdict, dataclass
from operator import attrgetter

import numpy as np

from .arrange import ShuffleSpec, max_shuffle_ratio, pixel_shuffle, pixel_unshuffle
from .data import read_json_object
from .errors import ConfigError, DataError, UninitializedStateError
from .tensor import (
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
    linear_backward,
    load_tensor,
    relu,
    relu_backward,
    save_tensor,
)

CHECKPOINT_MANIFEST = "manifest.json"
BLOCK_CONV = (3, 2, 1)  # every backbone block convolution's kernel, stride and padding


@dataclass(frozen=True)
class ArmConfig:
    """Geometry and state settings of the amendment head.

    ratio defaults to the largest square divisor of the channel count; the
    weighting kernel defaults to two clusters wide with a stride of half a
    cluster, so neighbouring windows overlap by one cluster.
    """

    channels: int
    height: int
    width: int
    classes: int
    ratio: int | None = None
    da_kernel: int | None = None
    da_stride: int | None = None
    smoothing_init: float = 0.3
    smoothing_learnable: bool = True

    def __post_init__(self):
        if self.channels < 1 or self.height < 1 or self.width < 1:
            raise ConfigError(
                f"invalid input shape ({self.channels}, {self.height}, {self.width})"
            )
        if self.classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.classes}")
        if not 0.0 <= self.smoothing_init <= 1.0:
            raise ConfigError(
                f"smoothing_init must be in [0, 1], got {self.smoothing_init}"
            )
        resolved = self.ratio if self.ratio is not None else max_shuffle_ratio(self.channels)
        object.__setattr__(self, "ratio", int(resolved))
        if self.da_kernel is None:
            object.__setattr__(self, "da_kernel", 2 * self.ratio)
        if self.da_stride is None:
            object.__setattr__(self, "da_stride", max(1, self.ratio // 2))
        spec = self.shuffle_spec  # validates divisibility
        # validates that the kernel fits at least once
        self.da_geometry.out_extent(spec.out_height, "height")
        self.da_geometry.out_extent(spec.out_width, "width")

    @property
    def shuffle_spec(self) -> ShuffleSpec:
        return ShuffleSpec(self.ratio, self.channels, self.height, self.width)

    @property
    def da_geometry(self) -> ConvGeometry:
        oc = self.shuffle_spec.out_channels
        return ConvGeometry(
            kernel=self.da_kernel,
            stride=self.da_stride,
            padding=0,
            in_channels=oc,
            out_channels=oc,
            shared_single_channel=True,
        )

    @property
    def feature_height(self) -> int:
        return self.da_geometry.out_extent(self.shuffle_spec.out_height, "height")

    @property
    def feature_width(self) -> int:
        return self.da_geometry.out_extent(self.shuffle_spec.out_width, "width")

    @property
    def feature_count(self) -> int:
        return self.feature_height * self.feature_width

    def to_dict(self) -> dict:
        return asdict(self)


def arm_param_count(config: ArmConfig) -> dict:
    """Learnable parameters per stage of the amendment head."""
    oc = config.shuffle_spec.out_channels
    counts = {
        "arrangement": 0,
        "de_albino": config.da_geometry.param_count,
        "batchnorm": 2 * oc,
        "mean": 0,
        "affinity": 1 if config.smoothing_learnable else 0,
        "fc": (config.feature_count + 1) * config.classes,
    }
    counts["total"] = sum(counts.values())
    return counts


class Module:
    """Parameter, state and checkpoint plumbing derived from declarations.

    A subclass lists (checkpoint name, attribute path) pairs, in checkpoint
    order: PARAMS for its learnable tensors, BUFFERS for the saved arrays that
    do not learn; CHILDREN, (name prefix, attribute path) pairs of child
    modules, from which children() yields (name prefix, module) pairs. A
    module's state is its parameters' data, then its buffers, then each
    child's state under the child's prefix. Layers' forward(x, mode) returns
    (output, backward cache); backward(grad_out, cache) accumulates parameter
    gradients and returns the input gradient, except that TinyBackbone and
    Network, whose input is the images, return None. A backward consumes its
    cache: ConvBlock, TinyBackbone and Network empty theirs, so each saved
    array is freed once the backward of the stage that saved it has run.
    """

    PARAMS: tuple[tuple[str, str], ...] = ()
    BUFFERS: tuple[tuple[str, str], ...] = ()
    CHILDREN: tuple[tuple[str, str], ...] = ()

    def children(self):
        return [(prefix, attrgetter(path)(self)) for prefix, path in self.CHILDREN]

    def params(self, prefix=""):
        out = [(prefix + name, attrgetter(path)(self)) for name, path in self.PARAMS]
        for child_prefix, child in self.children():
            out.extend(child.params(prefix + child_prefix))
        return out

    def _saved(self):
        return [(name, path + ".data") for name, path in self.PARAMS] + list(self.BUFFERS)

    def state_dict(self, prefix=""):
        out = {prefix + name: attrgetter(path)(self) for name, path in self._saved()}
        for child_prefix, child in self.children():
            out.update(child.state_dict(prefix + child_prefix))
        return out

    def load_state_dict(self, values, prefix=""):
        for name, path in self._saved():
            owner_path, _, attr = path.rpartition(".")
            owner = attrgetter(owner_path)(self)
            shape = getattr(owner, attr).shape
            setattr(owner, attr, _taken(values, prefix + name, shape))
        for child_prefix, child in self.children():
            child.load_state_dict(values, prefix + child_prefix)

    def post_step(self):
        """Hook run after each optimizer step; projects parameters if needed."""
        for _, child in self.children():
            child.post_step()


# ---------------------------------------------------------------------------
# Affinity splitting: running estimate of the generic feature.


@dataclass
class GenericFeatureState(Module):
    """Smoothing coefficient plus the float32 generic-feature buffer (None until a batch).

    The coefficient is saved either way but is a parameter only when learnable.
    """

    smoothing: Tensor
    feature: np.ndarray | None = None

    @classmethod
    def create(cls, init: float = 0.3, learnable: bool = True) -> "GenericFeatureState":
        state = cls(smoothing=Tensor(np.array([init], np.float32)))
        if learnable:
            state.PARAMS = (("smoothing", "smoothing"),)
        else:
            state.BUFFERS = (("smoothing", "smoothing.data"),)
        return state

    def clamped_smoothing(self) -> float:
        return float(min(1.0, max(0.0, float(self.smoothing.data[0]))))

    def post_step(self) -> None:
        """Project the stored coefficient back into [0, 1] after an update."""
        self.smoothing.data[0] = np.float32(self.clamped_smoothing())


@dataclass
class AffinityCache:
    lam: float
    buffer: np.ndarray  # float64, the estimate before this batch was folded in
    batch_mean: np.ndarray  # float64


def affinity_forward(
    state: GenericFeatureState, features: np.ndarray, mode: str = "train"
) -> tuple[np.ndarray, AffinityCache | None]:
    """Subtract the generic-feature estimate from each sample's feature map.

    Train mode subtracts lam*(batch mean) + (1-lam)*buffer, in 64-bit, keeps
    its float32 rounding as the buffer (the first batch's buffer is its own
    float32 mean) and returns the backward cache. Eval subtracts the buffer,
    returns no cache, and is an error before any training batch.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    features = np.asarray(features, dtype=np.float32)
    if features.ndim != 3 or features.shape[0] < 1:
        raise DataError(f"expected a non-empty (N, H, W) batch, got shape {features.shape}")
    if mode == "eval":
        if state.feature is None:
            raise UninitializedStateError(
                "generic feature buffer is empty; run at least one training batch"
            )
        buffer = state.feature.astype(np.float64)
        return (features.astype(np.float64) - buffer[None]).astype(np.float32), None

    bm = features.mean(axis=0, dtype=np.float64)
    buffer = (bm.astype(np.float32) if state.feature is None else state.feature).astype(np.float64)
    lam = state.clamped_smoothing()
    mixed = lam * bm + (1.0 - lam) * buffer
    state.feature = mixed.astype(np.float32)
    out = (features.astype(np.float64) - mixed[None]).astype(np.float32)
    return out, AffinityCache(lam=lam, buffer=buffer, batch_mean=bm)


def affinity_backward(
    grad_out: np.ndarray, cache: AffinityCache
) -> tuple[np.ndarray, float]:
    """Gradients w.r.t. the input features and the smoothing coefficient."""
    g = np.asarray(grad_out, dtype=np.float64)
    grad_features = g - cache.lam * g.mean(axis=0, keepdims=True)
    grad_smoothing = -float(np.sum(g * (cache.batch_mean - cache.buffer)[None]))
    return grad_features.astype(np.float32), grad_smoothing


# ---------------------------------------------------------------------------
# Building blocks.


class Conv(Module):
    """One bias-free convolution kernel with its geometry (dense or shared)."""

    PARAMS = (("kernel", "kernel"),)

    def __init__(self, rng, geom: ConvGeometry):
        self.geom = geom
        shape = geom.kernel_shape()
        self.kernel = Tensor(kaiming_uniform(rng, shape, math.prod(shape[-3:])))

    def forward(self, x: np.ndarray, mode: str):
        return conv2d_forward(x, self.kernel, self.geom), x

    def backward(self, grad_out: np.ndarray, x, input_grad: bool = True) -> np.ndarray | None:
        grad_x, grad_kernel = conv2d_backward(
            grad_out, x, self.kernel, self.geom, input_grad=input_grad
        )
        self.kernel.add_grad(grad_kernel)
        return grad_x


class BatchNorm(Module):
    """Per-channel scale and shift, plus the running statistics eval uses."""

    PARAMS = (("scale", "scale"), ("shift", "shift"))
    BUFFERS = (("running_mean", "running.mean"), ("running_var", "running.var"))

    def __init__(self, channels: int):
        self.scale = Tensor(np.ones(channels, np.float32))
        self.shift = Tensor(np.zeros(channels, np.float32))
        self.running = RunningStats.init(channels)

    def forward(self, x: np.ndarray, mode: str):
        return batchnorm(x, self.scale, self.shift, self.running, mode)

    def backward(self, grad_out: np.ndarray, cache) -> np.ndarray:
        grad_x, grad_scale, grad_shift = batchnorm_backward(grad_out, cache)
        self.scale.add_grad(grad_scale)
        self.shift.add_grad(grad_shift)
        return grad_x


class Linear(Module):
    """Fully connected classifier layer: weight (out, in) and bias (out,)."""

    PARAMS = (("weight", "weight"), ("bias", "bias"))

    def __init__(self, rng, in_features: int, out_features: int):
        self.weight = Tensor(kaiming_uniform(rng, (out_features, in_features), in_features))
        self.bias = Tensor(np.zeros(out_features, np.float32))

    def forward(self, x: np.ndarray, mode: str):
        return linear(x, self.weight, self.bias), x

    def backward(self, grad_out: np.ndarray, x) -> np.ndarray:
        grad_x, grad_weight, grad_bias = linear_backward(grad_out, x, self.weight)
        self.weight.add_grad(grad_weight)
        self.bias.add_grad(grad_bias)
        return grad_x


def backbone_extent(input_extent: int, depth: int) -> int:
    """Spatial extent after depth backbone blocks; GeometryError if one does not fit."""
    for _ in range(depth):
        input_extent = ConvGeometry(*BLOCK_CONV, 1, 1).out_extent(input_extent)
    return input_extent


class ConvBlock(Conv):
    """Bias-free BLOCK_CONV convolution, batch normalization, rectification."""

    CHILDREN = (("bn_", "bn"),)

    def __init__(self, rng, in_channels, out_channels):
        super().__init__(rng, ConvGeometry(*BLOCK_CONV, in_channels, out_channels))
        self.bn = BatchNorm(out_channels)

    def forward(self, x: np.ndarray, mode: str):
        conv_out, _ = super().forward(x, mode)
        bn_out, bn_cache = self.bn.forward(conv_out, mode)
        # bn_out is fresh, so it is rectified in place; it is positive exactly where it was
        activated = relu(bn_out, out=bn_out)
        return activated, [x, bn_cache, activated]

    def backward(self, grad_out: np.ndarray, cache, input_grad: bool = True) -> np.ndarray | None:
        # popped last to first, each saved array and gradient dies once read
        grad_out = relu_backward(grad_out, cache.pop())
        grad_out = self.bn.backward(grad_out, cache.pop())
        return super().backward(grad_out, cache.pop(), input_grad)


class TinyBackbone(Module):
    """Stack of blocks mapping (N, 1, E, E) to (N, C, E', E'), E' = backbone_extent(E, depth)."""

    def __init__(self, rng, input_extent: int, widths):
        sizes = [1] + [int(w) for w in widths]
        self.blocks = [ConvBlock(rng, c_in, c_out) for c_in, c_out in zip(sizes, sizes[1:])]
        self.in_extent = input_extent
        self.out_channels = sizes[-1]
        self.out_extent = backbone_extent(input_extent, len(self.blocks))

    def forward(self, x: np.ndarray, mode: str):
        caches = []
        for block in self.blocks:
            x, cache = block.forward(x, mode)
            caches.append(cache)
        return x, caches

    def backward(self, grad_out: np.ndarray, caches) -> None:
        """Accumulate every block's gradients, popping caches; nothing reads the images' own."""
        # lay the head's gradient out like the activations it meets, batch innermost;
        # the gradient in flight lives only in this list, so a block can free it
        held = [np.ascontiguousarray(grad_out.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)]
        del grad_out
        for i in reversed(range(len(self.blocks))):
            held.append(self.blocks[i].backward(held.pop(), caches.pop(), input_grad=i > 0))

    def children(self):
        return [(f"block{i}.", block) for i, block in enumerate(self.blocks)]


class ArmHead(Module):
    """Arrange, weight, normalize, pool, split affinity, classify.

    The generic-feature buffer is saved only once a batch has initialized
    it, so an absent entry loads as uninitialized.
    """

    CHILDREN = (("weighting_", "weighting"), ("bn_", "bn"), ("fc_", "fc"), ("", "state"))

    def __init__(self, rng, config: ArmConfig):
        self.config = config
        self.weighting = Conv(rng, config.da_geometry)
        self.bn = BatchNorm(config.shuffle_spec.out_channels)
        self.state = GenericFeatureState.create(config.smoothing_init, config.smoothing_learnable)
        self.fc = Linear(rng, config.feature_count, config.classes)

    def forward(self, x: np.ndarray, mode: str):
        cfg = self.config
        arranged = pixel_shuffle(x, cfg.ratio)
        weighted, _ = self.weighting.forward(arranged, mode)
        normalized, bn_cache = self.bn.forward(weighted, mode)
        pooled = channel_mean(normalized)
        split, aff_cache = affinity_forward(self.state, pooled, mode)
        flat = split.reshape(split.shape[0], cfg.feature_count)
        logits, _ = self.fc.forward(flat, mode)
        cache = {"arranged": arranged, "bn_cache": bn_cache, "aff_cache": aff_cache,
                 "flat": flat, "pooled_shape": pooled.shape}
        return logits, cache

    def backward(self, grad_logits: np.ndarray, cache) -> np.ndarray:
        cfg = self.config
        grad_split = self.fc.backward(grad_logits, cache["flat"]).reshape(cache["pooled_shape"])
        grad_pooled, grad_smoothing = affinity_backward(grad_split, cache["aff_cache"])
        if cfg.smoothing_learnable:
            self.state.smoothing.add_grad(np.array([grad_smoothing], np.float32))
        grad_norm = channel_mean_backward(grad_pooled, cfg.shuffle_spec.out_channels)
        grad_weighted = self.bn.backward(grad_norm, cache["bn_cache"])
        grad_arranged = self.weighting.backward(grad_weighted, cache["arranged"])
        return pixel_unshuffle(grad_arranged, cfg.ratio)

    def state_dict(self, prefix=""):
        out = super().state_dict(prefix)
        if self.state.feature is not None:
            out[prefix + "generic_feature"] = self.state.feature
        return out

    def load_state_dict(self, values, prefix=""):
        super().load_state_dict(values, prefix)
        key = prefix + "generic_feature"
        shape = (self.config.feature_height, self.config.feature_width)
        # exact inverse of state_dict: an absent buffer means uninitialized
        self.state.feature = _taken(values, key, shape) if key in values else None


class GapHead(Module):
    """Plain global-average-pool classifier over the backbone output."""

    CHILDREN = (("fc_", "fc"),)

    def __init__(self, rng, channels: int, classes: int):
        self.fc = Linear(rng, channels, classes)

    def forward(self, x: np.ndarray, mode: str):
        pooled = x.mean(axis=(2, 3), dtype=np.float64).astype(np.float32)
        logits, _ = self.fc.forward(pooled, mode)
        return logits, {"pooled": pooled, "shape": x.shape}

    def backward(self, grad_logits: np.ndarray, cache) -> np.ndarray:
        grad_pooled = self.fc.backward(grad_logits, cache["pooled"])
        n, c, h, w = cache["shape"]
        g = grad_pooled.astype(np.float64) / (h * w)
        return np.broadcast_to(g[:, :, None, None], (n, c, h, w)).astype(np.float32, order="C")


class SweepHead(Module):
    """Shared single-channel weighting convolution, flatten, classify.

    Used for kernel-size sweeps: stride 1, no padding, classifier sized to
    whatever spatial extent the kernel leaves over.
    """

    CHILDREN = (("weighting_", "weighting"), ("fc_", "fc"))

    def __init__(self, rng, channels: int, extent: int, kernel: int, classes: int):
        geom = ConvGeometry(kernel, 1, 0, channels, channels, shared_single_channel=True)
        out = geom.out_extent(extent)
        self.features = channels * out * out
        self.weighting = Conv(rng, geom)
        self.fc = Linear(rng, self.features, classes)

    def forward(self, x: np.ndarray, mode: str):
        weighted, _ = self.weighting.forward(x, mode)
        flat = weighted.reshape(x.shape[0], self.features)
        logits, _ = self.fc.forward(flat, mode)
        return logits, {"x": x, "flat": flat, "weighted_shape": weighted.shape}

    def backward(self, grad_logits: np.ndarray, cache) -> np.ndarray:
        grad_weighted = self.fc.backward(grad_logits, cache["flat"])
        return self.weighting.backward(grad_weighted.reshape(cache["weighted_shape"]), cache["x"])


class Network(Module):
    """Backbone plus head with explicit forward caches and accumulated grads."""

    CHILDREN = (("backbone.", "backbone"), ("head.", "head"))

    def __init__(self, backbone: TinyBackbone, head, description: dict):
        self.backbone = backbone
        self.head = head
        self.description = description

    def forward(self, images, mode: str = "train"):
        """Train updates the running state and returns the backward cache; eval returns None."""
        x = np.ascontiguousarray(images, np.float32)
        e = self.backbone.in_extent
        if x.shape[1:] != (1, e, e):
            raise DataError(f"batch shape {x.shape} does not fit this network's (N, 1, {e}, {e})")
        features, bb_caches = self.backbone.forward(x, mode)
        logits, head_cache = self.head.forward(features, mode)
        if mode != "train":
            return logits, None
        return logits, {"backbone": bb_caches, "head": head_cache}

    def backward(self, grad_logits: np.ndarray, cache) -> None:
        self.backbone.backward(
            self.head.backward(grad_logits, cache.pop("head")), cache.pop("backbone")
        )

    def zero_grads(self):
        for _, tensor in self.params():
            tensor.zero_grad()


def _taken(values: dict, key: str, shape) -> np.ndarray:
    if key not in values:
        raise DataError(f"checkpoint is missing tensor {key!r}")
    arr = np.asarray(values[key], dtype=np.float32)
    if arr.shape != tuple(shape):
        raise DataError(
            f"checkpoint tensor {key!r} has shape {arr.shape}, expected {tuple(shape)}"
        )
    return arr.copy()


# ---------------------------------------------------------------------------
# Construction and checkpointing.


def build_network(description: dict, seed: int = 0) -> Network:
    """Instantiate a network from its description dict.

    Types: "arm" (backbone + amendment head), "gap" (backbone + global
    average pooling), "sweep" (backbone + stride-1 weighting head).
    """
    kind = description.get("type")
    rng = np.random.default_rng(seed)
    widths = tuple(description.get("backbone_widths", (8, 16, 32)))
    extent = int(description.get("input_extent", 32))
    classes = int(description.get("classes", 0))
    if classes < 2:
        raise ConfigError(f"network description needs classes >= 2, got {classes}")
    backbone = TinyBackbone(rng, extent, widths)
    if kind == "arm":
        cfg = ArmConfig(**description["arm"])
        if (cfg.channels, cfg.height, cfg.width) != (
            backbone.out_channels, backbone.out_extent, backbone.out_extent,
        ):
            raise ConfigError(
                "amendment head expects "
                f"({cfg.channels}, {cfg.height}, {cfg.width}) but the backbone "
                f"produces ({backbone.out_channels}, {backbone.out_extent}, "
                f"{backbone.out_extent})"
            )
        head = ArmHead(rng, cfg)
    elif kind == "gap":
        head = GapHead(rng, backbone.out_channels, classes)
    elif kind == "sweep":
        head = SweepHead(
            rng, backbone.out_channels, backbone.out_extent,
            int(description["kernel"]), classes,
        )
    else:
        raise ConfigError(f"unknown network type {kind!r}")
    return Network(backbone, head, dict(description))


@functools.cache
def _openblas_getters():
    """The loaded OpenBLAS's core-name and thread-count functions, or None.

    numpy loads its BLAS privately, so the library is found by path in the
    process's memory map (Linux only) and opened again through ctypes, which
    hands back the copy already loaded.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "blas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}"):
            corename = getattr(lib, symbol.format("get_corename"), None)
            threads = getattr(lib, symbol.format("get_num_threads"), None)
            if corename is not None and threads is not None:
                corename.restype, corename.argtypes = ctypes.c_char_p, []
                threads.restype, threads.argtypes = ctypes.c_int, []
                return corename, threads
    return None


def environment() -> dict:
    """What bitwise replay depends on: the interpreter, numpy, its BLAS and the BLAS kernel.

    `blas_core` is the kernel a run-time-dispatching OpenBLAS chose (the names
    OPENBLAS_CORETYPE takes) and `blas_threads` its live thread count; both are
    None where the BLAS is not OpenBLAS.
    """
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 has no dict mode
        blas = {}
    getters = _openblas_getters()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_core": getters[0]().decode() if getters else None,
        "blas_threads": getters[1]() if getters else None,
    }


def save_checkpoint(out_dir, network: Network, extra: dict | None = None) -> None:
    """Write every tensor as a .ten file plus a manifest; extra gains the environment."""
    os.makedirs(out_dir, exist_ok=True)
    files = {}
    for name, data in network.state_dict().items():
        fname = name.replace(".", "_") + ".ten"
        save_tensor(os.path.join(out_dir, fname), data)
        files[name] = fname
    manifest = {
        "format": "arm-lab-checkpoint",
        "version": 1,
        "network": network.description,
        "tensors": files,
        "extra": dict(extra or {}, environment=environment()),
    }
    with open(os.path.join(out_dir, CHECKPOINT_MANIFEST), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def load_checkpoint(ckpt_dir) -> tuple[Network, dict]:
    """Rebuild a network from a checkpoint directory; returns it with the manifest."""
    manifest_path = os.path.join(ckpt_dir, CHECKPOINT_MANIFEST)
    if not os.path.exists(manifest_path):
        raise DataError(f"{ckpt_dir}: missing {CHECKPOINT_MANIFEST}")
    manifest = read_json_object(manifest_path)
    if manifest.get("format") != "arm-lab-checkpoint":
        raise DataError(f"{ckpt_dir}: not a checkpoint manifest")
    description, files = manifest.get("network"), manifest.get("tensors")
    if not isinstance(description, dict) or not isinstance(files, dict):
        raise DataError(f"{manifest_path}: 'network' and 'tensors' must be JSON objects")
    try:
        network = build_network(description, seed=0)
    except (KeyError, TypeError, ValueError) as exc:  # missing, mistyped or unknown fields
        raise DataError(f"{manifest_path}: bad network description: {exc}") from None
    values = {}
    for name, fname in files.items():
        path = os.path.join(ckpt_dir, str(fname))
        if not os.path.isfile(path):
            raise DataError(f"{manifest_path}: missing tensor file {fname!r}")
        values[name] = data = load_tensor(path)
        if not np.isfinite(data).all():
            raise DataError(f"{manifest_path}: tensor {name!r} holds a non-finite value")
        if name.endswith("running_var") and (data < 0).any():
            raise DataError(f"{manifest_path}: tensor {name!r} holds a negative variance")
    network.load_state_dict(values)
    undeclared = sorted(set(values) - set(network.state_dict()))
    if undeclared:
        raise DataError(f"{manifest_path}: the network declares no tensors named {undeclared}")
    return network, manifest
