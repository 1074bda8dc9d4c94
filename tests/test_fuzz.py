"""Byte-level fuzzing of every file the lab reads.

Each target file is truncated at, and has its low bit flipped at, every
offset; hypothesis then writes arbitrary bytes at arbitrary offsets. Reading
a corpus or a checkpoint may only succeed or raise DataError. Evaluating a
checkpoint may only exit 0 or 4, or 5 with the documented "does not record
its split" error when a flip renames a split key. Exit 7 would mean a
malformed input escaped as an untyped exception.
"""

import contextlib
import functools
import io
import json
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arm_lab import cli
from arm_lab.arm import load_checkpoint
from arm_lab.data import load_dataset, synth_dataset
from arm_lab.errors import DataError

TRAIN_ARGS = [
    "--epochs", "1", "--batch-size", "8", "--widths", "4",
    "--seed", "2", "--sampler", "mrr", "--val-fraction", "0.25",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny corpus and an ARM checkpoint trained on it, for in-place mutation."""
    work = tmp_path_factory.mktemp("fuzz")
    synth_dataset(work / "corpus", num_classes=2, per_class=2, extent=8, seed=4)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train", "--data", str(work / "corpus"),
                         "--out", str(work / "run"), *TRAIN_ARGS]) == 0
    shutil.move(work / "run" / "checkpoint", work / "checkpoint")
    # eval never reads the training config or the environment record; dropping
    # them keeps the fuzzed bytes to those that reach a parser or a check
    path = work / "checkpoint" / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["extra"]["train"], manifest["extra"]["environment"]
    path.write_text(json.dumps(manifest))
    return work


def load_corpus(work):
    try:
        load_dataset(work / "corpus")
    except DataError:
        pass


def load_tensors(work):
    try:
        load_checkpoint(work / "checkpoint")
    except DataError:
        pass


def evaluate_checkpoint(work):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["eval", "--checkpoint", str(work / "checkpoint"), "--data",
                         str(work / "corpus"), "--out", str(work / "out"), "--split", "val"])
    assert code in (0, 4) or (code == 5 and "does not record its split" in err.getvalue()), (
        code, err.getvalue())


TARGETS = {
    "pgm_sample": ("corpus/class_0/sample_0000.pgm", load_corpus),
    "labels_csv": ("corpus/labels.csv", load_corpus),
    "corpus_manifest": ("corpus/manifest.json", load_corpus),
    "checkpoint_manifest": ("checkpoint/manifest.json", evaluate_checkpoint),
    "checkpoint_tensor": ("checkpoint/head_fc_weight.ten", load_tensors),
}


@pytest.fixture
def cached_parser(monkeypatch):
    # building the argument parser costs more than a failed load; reuse one
    monkeypatch.setattr(cli, "build_parser", functools.lru_cache(cli.build_parser))


def check_all(work, target, damaged_versions):
    rel, read = TARGETS[target]
    path = work / rel
    raw = path.read_bytes()
    try:
        for what, damaged in damaged_versions(raw):
            path.write_bytes(damaged)
            try:
                read(work)
            except Exception as exc:
                raise AssertionError(f"{rel} {what}: {exc!r}") from exc
    finally:
        path.write_bytes(raw)


def every_offset(raw: bytes):
    for offset in range(len(raw)):
        yield f"truncated at {offset}", raw[:offset]
        # the low bit keeps ASCII text ASCII: digits, quotes and keys move by one
        flipped = bytes([raw[offset] ^ 0x01])
        yield f"byte {offset} xor 0x01", raw[:offset] + flipped + raw[offset + 1:]


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_truncation_and_low_bit_flip_at_every_offset(workspace, cached_parser, target):
    check_all(workspace, target, every_offset)


@pytest.mark.parametrize("target", sorted(TARGETS))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(position=st.floats(0, 1, exclude_max=True), value=st.integers(0, 255))
def test_arbitrary_byte_at_any_offset(workspace, cached_parser, target, position, value):
    def overwrite(raw):
        offset = int(position * len(raw))
        yield f"byte {offset} = {value:#04x}", raw[:offset] + bytes([value]) + raw[offset + 1:]

    check_all(workspace, target, overwrite)
