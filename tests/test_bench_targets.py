"""The benchmark's tracer can still find every call site it patches.

bench/tracing.py wraps package functions and methods by (owner, attribute)
and reads each original from the owner's own __dict__, so a refactor that
moves a traced method into a base class (or a function into another module)
breaks `bench/run.py --trace 1`. The benchmark's own smoke test is not part
of the tier-1 run; this check is.
"""

import importlib.util
from pathlib import Path

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
