"""Run acceptance criterion 8's train() once; print its three digests, wall time and memory.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/criterion8_digests.py

The corpus and TrainConfig are those of
tests/test_acceptance.py::test_criterion_8_end_to_end_training. The digests
are SHA-256 hex strings:

- state: each state_dict() entry's name (UTF-8), then its float32 bytes, in
  sorted-key order, so regrouping a module's keys does not move it;
- history: json.dumps(history, sort_keys=True) as UTF-8;
- confusion: the confusion counts' tobytes().

The wall time and the minor page faults (ru_minflt) cover the train() call
alone, not building the corpus; maxrss_mb is the whole process's peak
resident set (ru_maxrss) after the call. So one command checks both the
replay and the memory of a change. The last two lines name the OpenBLAS
kernel the digests depend on and its live thread count, as
arm_lab.arm.environment() records them. The file name does not match
test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import tempfile
import time
from pathlib import Path

import numpy as np

from arm_lab.arm import environment
from arm_lab.data import synth_dataset
from arm_lab.train import TrainConfig, train

CONFIG = TrainConfig(
    epochs=30,
    batch_size=256,
    lr=0.001,
    lr_decay=0.9,
    seed=0,
    sampler="mrr",
    val_fraction=0.2,
    backbone_widths=(8, 16, 32),
)


def digests(result: dict) -> dict[str, str]:
    state = hashlib.sha256()
    for name, value in sorted(result["network"].state_dict().items()):
        state.update(name.encode())
        state.update(np.ascontiguousarray(value, np.float32).tobytes())
    history = json.dumps(result["history"], sort_keys=True).encode()
    return {
        "state": state.hexdigest(),
        "history": hashlib.sha256(history).hexdigest(),
        "confusion": hashlib.sha256(result["confusion"].counts.tobytes()).hexdigest(),
    }


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "balanced"
        corpus = synth_dataset(root, num_classes=7, per_class=200, extent=32, seed=0)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        result = train(CONFIG, corpus)
        wall_s = time.perf_counter() - start
        usage = resource.getrusage(resource.RUSAGE_SELF)
    for name, digest in digests(result).items():
        print(f"{name:9s} {digest}")
    best = max(entry["wa"] for entry in result["history"])
    print(f"best_wa   {best:.4f}")
    print(f"wall_s    {wall_s:.2f}")
    print(f"maxrss_mb {usage.ru_maxrss / 1024:.1f}")  # Linux reports kilobytes
    print(f"minflt    {usage.ru_minflt - faults}")
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    blas = environment()
    print(f"blas_core {blas['blas_core']}")
    print(f"blas_threads {blas['blas_threads']}")


if __name__ == "__main__":
    main()
