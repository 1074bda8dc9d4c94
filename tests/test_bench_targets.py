"""The benchmark's tracer can still find every call site it patches.

bench/tracing.py wraps package functions and methods by (owner, attribute)
and reads each original from the owner's own __dict__, so a refactor that
moves a traced method into a base class (or a function into another module)
breaks `bench/run.py --trace 1`. It also names each backbone conv span by the
identity of the kernel `Tensor` it is passed, so passing anything but the
block's own parameter renames the span, and it sees train()'s split only
while train() calls split_index through its own module. The tier-1 run
collects these checks and the benchmark's own smoke test,
bench/test_smoke.py, which runs each workload end to end at toy sizes.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from arm_lab.data import synth_dataset

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_defined_on_its_owner():
    targets = load_tracing().Tracer()._targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in targets
        if attr not in vars(owner)
    ]
    assert not missing, f"the tracer patches names its owners do not define: {missing}"


@pytest.fixture(scope="module")
def traced_train(tmp_path_factory):
    """The spans of one traced train() call."""
    index = synth_dataset(tmp_path_factory.mktemp("traced") / "corpus", 3, 8, extent=16, seed=0)
    # arm_lab.train is the re-exported function; the tracer patches the submodule
    train = importlib.import_module("arm_lab.train")
    config = train.TrainConfig(epochs=1, batch_size=8, backbone_widths=(4, 8))
    with load_tracing().Tracer().installed() as tracer:
        train.train(config, index)
    return tracer.spans


def test_traced_conv_spans_keep_their_block_names(traced_train):
    conv_spans = {span.name for span in traced_train if span.name.startswith("tensor.conv2d_")}
    assert conv_spans == {
        f"tensor.conv2d_{direction}.{block}"
        for direction in ("forward", "backward")
        for block in ("block0", "block1", "weighting")
    }


def test_train_records_its_split(traced_train):
    """train() calls split_index through its own module, where the tracer patches it."""
    [split] = [span for span in traced_train if span.name == "data.split_index"]
    assert traced_train[split.parent].name == "train.train"
