"""Span tracing of arm_lab from outside the package.

`Tracer.installed()` temporarily replaces the package functions and methods
each layer calls with wrappers that record a span (name, start, end, parent)
per call, then puts the originals back. Nothing in the package is edited;
the wrappers are installed on the module attributes that callers look up at
call time, which is why e.g. `conv2d_forward` is patched in `arm_lab.arm`
(its only caller) rather than in `arm_lab.tensor`.

Spans are kept in memory; run.py turns them into per-call means, layer self
times and computed work counts.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
import tracemalloc

# Layer of each span name prefix. `pgm` belongs to the data layer.
LAYER_OF_PREFIX = {
    "tensor": "tensor",
    "arrange": "arrange",
    "arm": "arm",
    "train": "train",
    "data": "data",
    "pgm": "data",
    "erosion": "erosion",
}

class Span:
    __slots__ = ("name", "start", "end", "parent", "phase", "attrs")

    def __init__(self, name, start, parent, phase):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.phase = phase
        self.attrs = None


class Tracer:
    """Records spans from every thread; one per traced run."""

    def __init__(self, memory: bool = False):
        self.spans: list[Span] = []
        self.phase = "op"  # or "inputs" / "setup", set by the caller
        # with memory=True the conv wrappers also record the peak of traced
        # allocations during each call (tracemalloc must be running)
        self.memory = memory
        self._local = threading.local()
        self._main_stack: list[int] = []
        # kernel tensor id -> "block<i>", refreshed on every backbone pass
        self._block_of_kernel: dict[int, str] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # worker threads (k_sweep's pool) hang their root spans under the
            # span the main thread has open, so the sweep's self time is
            # what its workers do not cover
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        span = Span(name, time.perf_counter_ns(), parent, self.phase)
        self.spans.append(span)
        idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter_ns()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield self.spans[idx]
        finally:
            self.end(idx)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    def _wrap_conv(self, direction, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if direction == "forward":
                x, kernel, geom = args[0], args[1], args[2]
            else:
                x, kernel, geom = args[1], args[2], args[3]
            if geom.shared_single_channel:
                block = "weighting"
            else:
                block = self._block_of_kernel.get(id(kernel), "other")
            idx = self.begin(f"tensor.conv2d_{direction}.{block}")
            if self.memory:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
                attrs = conv_work(x.shape, geom, direction)
                if self.memory:
                    attrs["peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 1e6
                self.spans[idx].attrs = attrs

        return traced

    def _wrap_backbone(self, name, fn):
        @functools.wraps(fn)
        def traced(backbone, *args, **kwargs):
            for i, block in enumerate(backbone.blocks):
                self._block_of_kernel[id(block.kernel)] = f"block{i}"
            idx = self.begin(name)
            try:
                return fn(backbone, *args, **kwargs)
            finally:
                self.end(idx)

        return traced

    def _targets(self):
        """(owner, attribute, wrapper factory) for every traced call site."""
        # arm_lab re-exports the function train() under the submodule's name
        arm, data, erosion, train = (
            importlib.import_module(f"arm_lab.{m}") for m in ("arm", "data", "erosion", "train")
        )

        plain = self._wrap
        conv = self._wrap_conv
        out = [
            (arm, "conv2d_forward", lambda f: conv("forward", f)),
            (arm, "conv2d_backward", lambda f: conv("backward", f)),
            (arm.TinyBackbone, "forward", lambda f: self._wrap_backbone("arm.backbone_forward", f)),
            (arm.TinyBackbone, "backward", lambda f: self._wrap_backbone("arm.backbone_backward", f)),
        ]
        for attr in ("batchnorm", "batchnorm_backward", "linear", "linear_backward",
                     "relu", "relu_backward", "channel_mean", "channel_mean_backward"):
            out.append((arm, attr, functools.partial(plain, f"tensor.{attr}")))
        out.append((train, "softmax_cross_entropy",
                    functools.partial(plain, "tensor.softmax_cross_entropy")))
        for attr in ("pixel_shuffle", "pixel_unshuffle"):
            out.append((arm, attr, functools.partial(plain, f"arrange.{attr}")))
        for head in (arm.ArmHead, arm.GapHead, arm.SweepHead):
            out.append((head, "forward", functools.partial(plain, "arm.head_forward")))
            out.append((head, "backward", functools.partial(plain, "arm.head_backward")))
        out += [
            (arm, "affinity_forward", functools.partial(plain, "arm.affinity_forward")),
            (arm, "affinity_backward", functools.partial(plain, "arm.affinity_backward")),
            (arm.Network, "zero_grads", functools.partial(plain, "arm.zero_grads")),
            (arm, "load_checkpoint", functools.partial(plain, "arm.load_checkpoint")),
            (train, "save_checkpoint", functools.partial(plain, "arm.save_checkpoint")),
            (train, "build_network", functools.partial(plain, "arm.build_network")),
            (train.Adam, "step", functools.partial(plain, "train.adam_step")),
            (train, "train", functools.partial(plain, "train.train")),
            (train, "evaluate", functools.partial(plain, "train.evaluate")),
            (train, "epoch_sample_ids", functools.partial(plain, "train.epoch_sample_ids")),
            (train, "train_sweep_point", functools.partial(plain, "train.train_sweep_point")),
            (train, "split_index", functools.partial(plain, "data.split_index")),
            (data, "synth_dataset", functools.partial(plain, "data.synth_dataset")),
            (data, "load_dataset", functools.partial(plain, "data.load_dataset")),
            (data, "read_pgm", functools.partial(plain, "pgm.read_pgm")),
            (data, "write_pgm", functools.partial(plain, "pgm.write_pgm")),
        ]
        for attr in ("perception_map", "albino_maps_per_layer", "cluster_weight_profile",
                     "outer_ring_interior_split", "k_sweep"):
            out.append((erosion, attr, functools.partial(plain, f"erosion.{attr}")))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Route the package's layer calls through span-recording wrappers."""
        saved = []
        try:
            for owner, attr, make in self._targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def conv_work(x_shape, geom, direction: str) -> dict:
    """Computed (not measured) work of one conv call, from shapes alone.

    Forward is one multiply-add per kernel tap per output element; backward
    computes both the input and the kernel gradient, twice that. Bytes are
    the float32 input, kernel and output (plus the output gradient going
    backward) each moved once, independent of how the call buffers them.
    """
    n, c, h, w = x_shape
    oh = geom.out_extent(h)
    ow = geom.out_extent(w)
    taps = geom.kernel * geom.kernel
    if geom.shared_single_channel:
        macs = n * c * oh * ow * taps
    else:
        macs = n * geom.out_channels * oh * ow * c * taps
    flop = 2 * macs
    tensors = n * c * h * w + geom.param_count + n * geom.out_channels * oh * ow
    if direction == "backward":
        flop *= 2
        tensors *= 2  # read x, kernel, grad_out; write grad_x, grad_kernel
    return {"mflop": flop / 1e6, "mbytes": 4 * tensors / 1e6}


def _union_ns(intervals) -> int:
    """Total length covered by possibly overlapping (start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (span.end - span.start) - _union_ns(children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def layer_of(name: str) -> str | None:
    return LAYER_OF_PREFIX.get(name.split(".", 1)[0])
