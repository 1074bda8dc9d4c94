import csv
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from arm_lab.data import (
    ConfusionMatrix,
    DatasetIndex,
    class_counts_report,
    load_dataset,
    metrics,
    mrr_epoch_sample,
    plain_epoch_sample,
    split_index,
    synth_dataset,
    write_confusion_csv,
)
from arm_lab.errors import DataError
from arm_lab.pgm import read_pgm, write_heatmap, write_pgm
from arm_lab.tensor import save_tensor

from oracles import accuracy_oracle, pgm_header_oracle, read_confusion_csv


def label_only_index(counts, names=None):
    names = names or [f"class_{i}" for i in range(len(counts))]
    labels = np.concatenate([[i] * n for i, n in enumerate(counts)]).astype(np.int64)
    paths = [f"sample_{i}" for i in range(labels.size)]
    return DatasetIndex(classes=names, paths=paths, labels=labels)


class TestIndex:
    def test_per_class_partition(self):
        idx = label_only_index([3, 5, 7])
        assert idx.counts.tolist() == [3, 5, 7]
        all_ids = np.concatenate(idx.per_class)
        assert sorted(all_ids.tolist()) == list(range(15))

    def test_label_outside_class_set(self):
        with pytest.raises(DataError):
            DatasetIndex(classes=["a"], paths=["x", "y"], labels=np.array([0, 1]))

    def test_counts_report_reference_ratio(self):
        counts = [74874, 134415, 25459, 14090, 6378, 3803, 24882, 3750]
        report = class_counts_report(label_only_index(counts))
        assert report["max"] == 134415
        assert report["min"] == 3750
        assert abs(report["imbalance_ratio"] - 35.844) <= 1e-3


class TestMrrSampler:
    def test_epoch_size_is_classes_times_min(self):
        idx = label_only_index([3, 5, 7])
        epoch = mrr_epoch_sample(idx, 0)
        assert epoch.size == 9
        for ids in idx.per_class:
            assert int(np.isin(epoch, ids).sum()) == 3

    def test_within_class_draw_has_no_replacement(self):
        idx = label_only_index([6, 6, 9])
        for seed in range(20):
            epoch = mrr_epoch_sample(idx, seed)
            assert np.unique(epoch).size == epoch.size

    def test_epochs_differ_and_replay_deterministically(self):
        idx = label_only_index([4, 8])
        a1 = mrr_epoch_sample(idx, [9, 0])
        a2 = mrr_epoch_sample(idx, [9, 1])
        assert not np.array_equal(a1, a2)
        assert np.array_equal(a1, mrr_epoch_sample(idx, [9, 0]))

    def test_empty_class_names_the_class(self):
        idx = label_only_index([3, 0, 2], names=["ok", "hollow", "fine"])
        with pytest.raises(DataError, match="hollow"):
            mrr_epoch_sample(idx, 0)

    def test_selection_is_uniform_within_classes(self):
        idx = label_only_index([3, 5, 7])
        hits = np.zeros(15, dtype=np.int64)
        for epoch in range(2000):
            hits[mrr_epoch_sample(idx, [55, epoch])] += 1
        # classes where selection is an actual subset (5 choose 3, 7 choose 3)
        for ids in idx.per_class[1:]:
            p = stats.chisquare(hits[ids]).pvalue
            assert p > 0.01

    def test_minority_never_starves_under_heavy_imbalance(self):
        idx = label_only_index([350, 10])
        seen = np.zeros(360, dtype=bool)
        for epoch in range(200):
            ids = mrr_epoch_sample(idx, [7, epoch])
            assert int(np.isin(ids, idx.per_class[1]).sum()) == 10
            seen[ids] = True
        assert seen[idx.per_class[1]].all()
        assert seen[idx.per_class[0]].mean() > 0.99

    def test_plain_sampler_permutes_everything(self):
        idx = label_only_index([4, 4])
        epoch = plain_epoch_sample(idx, 3)
        assert sorted(epoch.tolist()) == list(range(8))


class TestMetrics:
    def test_golden_small_matrix(self):
        cm = ConfusionMatrix(classes=["a", "b", "c"])
        cm.counts = np.array([[8, 1, 1], [2, 6, 2], [0, 0, 10]])
        wa, ua, per_class = metrics(cm)
        assert wa == 24 / 30
        assert abs(ua - (0.8 + 0.6 + 1.0) / 3) <= 1e-12
        assert per_class.tolist() == [0.8, 0.6, 1.0]

    def test_zero_sample_classes_excluded_from_ua(self):
        cm = ConfusionMatrix(classes=["a", "b", "c"])
        cm.counts = np.array([[4, 0, 0], [0, 0, 0], [1, 0, 3]])
        wa, ua, per_class = metrics(cm)
        assert wa == 7 / 8
        assert ua == (1.0 + 0.75) / 2
        assert np.isnan(per_class[1])

    def test_matches_oracle_on_random_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            counts = rng.integers(0, 30, size=(4, 4))
            counts[rng.integers(0, 4)] += 1  # keep at least one non-empty row
            cm = ConfusionMatrix(classes=list("abcd"))
            cm.counts = counts
            wa, ua, _ = metrics(cm)
            owa, oua = accuracy_oracle(counts)
            assert abs(wa - owa) <= 1e-12
            assert abs(ua - oua) <= 1e-12

    def test_update_and_csv_round_trip(self, tmp_path):
        cm = ConfusionMatrix(classes=["x", "y"])
        cm.update([0, 0, 1, 1, 1], [0, 1, 1, 1, 0])
        assert cm.counts.tolist() == [[1, 1], [1, 2]]
        path = tmp_path / "confusion.csv"
        write_confusion_csv(path, cm)
        classes, counts = read_confusion_csv(path)
        assert classes == ["x", "y"]
        assert np.array_equal(counts, cm.counts)

    def test_empty_matrix_rejected(self):
        with pytest.raises(DataError, match="empty"):
            metrics(ConfusionMatrix(classes=["a", "b"]))


WHITESPACE = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]


def rarely(draw, odds, strategy, otherwise):
    """Draw from strategy about once in odds draws; otherwise keep the given value."""
    return draw(strategy) if draw(st.sampled_from([False] * (odds - 1) + [True])) else otherwise


@st.composite
def pgm_files(draw):
    """P5-like bytes: a magic, three separated fields, one byte, then a payload.

    Each departure from a well-formed file is drawn rarely, so about half of
    the examples load and the rest fail in one place.
    """
    comment = st.builds(lambda text, end: b"#" + text + end,
                        st.binary(max_size=4), st.sampled_from([b"\n", b"\n", b"\n", b""]))
    pieces = st.lists(st.sampled_from(WHITESPACE) | comment, max_size=2)
    raw = rarely(draw, 8, st.sampled_from([b"P2", b"P6", b"p5", b"P", b""]), b"P5")
    height, width = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    maxval = rarely(draw, 8, st.sampled_from([b"65535", b"254", b"0255", b"0"]), b"255")
    fields = [str(width).encode(), str(height).encode(), maxval]
    bad_field = st.sampled_from(
        [b"", b"-3", b"x4", b"4#x", b"+4", b"4.0", b"\xd9\xa3", b"00"])
    for field in fields:
        separator = draw(st.sampled_from(WHITESPACE)) + b"".join(draw(pieces))
        separator = rarely(draw, 10, st.sampled_from([b"", b"#\n"]), separator)
        raw += separator + rarely(draw, 10, bad_field, field)
    raw += rarely(draw, 10, st.just(b""), draw(st.sampled_from(WHITESPACE)))
    area = width * height
    payload = draw(st.binary(min_size=area, max_size=area + 2))
    return raw + payload[: rarely(draw, 6, st.integers(0, max(0, area - 1)), len(payload))]


class TestPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        image = rng.integers(0, 256, size=(5, 9), dtype=np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(path, image)
        assert np.array_equal(read_pgm(path), image)

    def test_header_is_binary_p5(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.zeros((2, 3), np.uint8))
        assert path.read_bytes().startswith(b"P5\n3 2\n255\n")

    def test_rejects_wrong_maxval(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(DataError):
            read_pgm(path)

    @pytest.mark.parametrize("header", [b"P5\n4 x4\n255\n", b"P5\n4 4\n-255\n"])
    def test_non_integer_header_field_is_data_error(self, tmp_path, header):
        path = tmp_path / "img.pgm"
        path.write_bytes(header + bytes(16))
        with pytest.raises(DataError, match="header field"):
            read_pgm(path)

    def test_commented_header_loads(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5 # made by hand\n3\t# width\n# height next\n2\r255\n" + bytes(range(6)))
        assert np.array_equal(read_pgm(path), np.arange(6, dtype=np.uint8).reshape(2, 3))

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=pgm_files())
    def test_header_grammar_matches_the_byte_loop_oracle(self, tmp_path, raw):
        path = tmp_path / "img.pgm"
        path.write_bytes(raw)
        try:
            expected = pgm_header_oracle(raw, path)
        except ValueError as exc:
            with pytest.raises(DataError) as caught:
                read_pgm(path)
            assert str(caught.value) == str(exc)
        else:
            image = read_pgm(path)
            assert image.dtype == np.uint8 and image.shape == expected.shape
            assert np.array_equal(image, expected)

    def test_heatmap_scales_peak_to_white(self, tmp_path):
        path = tmp_path / "heat.pgm"
        write_heatmap(path, np.array([[0.0, 2.0], [1.0, 4.0]]))
        image = read_pgm(path)
        assert image[1, 1] == 255
        assert image[0, 0] == 0
        assert image[0, 1] == 128  # rounds 2/4*255


class TestSynthCorpus:
    def test_generation_is_deterministic(self, tmp_path):
        a = synth_dataset(tmp_path / "a", 3, 4, extent=16, seed=5)
        b = synth_dataset(tmp_path / "b", 3, 4, extent=16, seed=5)
        assert np.array_equal(a.images, b.images)
        c = synth_dataset(tmp_path / "c", 3, 4, extent=16, seed=6)
        assert not np.array_equal(a.images, c.images)

    def test_negative_seed_is_rejected_before_writing(self, tmp_path):
        with pytest.raises(DataError, match="seed must be >= 0"):
            synth_dataset(tmp_path / "neg", 3, 4, extent=16, seed=-1)
        assert not (tmp_path / "neg").exists()

    def test_round_trip_and_normalization(self, tmp_path):
        idx = synth_dataset(tmp_path / "d", 2, 3, extent=16, seed=0)
        assert idx.images.shape == (6, 1, 16, 16)
        assert idx.images.min() >= 0.0 and idx.images.max() <= 1.0
        again = load_dataset(tmp_path / "d")
        assert np.array_equal(idx.images, again.images)
        assert idx.classes == again.classes

    def test_imbalanced_counts(self, tmp_path):
        idx = synth_dataset(tmp_path / "e", 3, [5, 3, 2], extent=16, seed=0)
        assert idx.counts.tolist() == [5, 3, 2]

    def test_classes_are_separable_by_nearest_centroid(self, tmp_path):
        idx = synth_dataset(tmp_path / "f", 7, 30, extent=32, seed=3)
        flat = idx.images[:, 0].reshape(idx.n_samples, -1).astype(np.float64)
        rng = np.random.default_rng(0)
        order = rng.permutation(idx.n_samples)
        half = idx.n_samples // 2
        fit, hold = order[:half], order[half:]
        centroids = np.stack(
            [flat[fit][idx.labels[fit] == c].mean(axis=0) for c in range(7)]
        )
        dist = ((flat[hold][:, None, :] - centroids[None]) ** 2).sum(axis=2)
        accuracy = (np.argmin(dist, axis=1) == idx.labels[hold]).mean()
        assert accuracy > 0.8


class TestLoadDataset:
    def test_missing_labels_file(self, tmp_path):
        with pytest.raises(DataError, match="labels.csv"):
            load_dataset(tmp_path)

    def test_malformed_row_is_numbered(self, tmp_path):
        (tmp_path / "labels.csv").write_text(
            "relative_path,label\nok.pgm,a\nbroken-line\n"
        )
        with pytest.raises(DataError, match="row 3"):
            load_dataset(tmp_path)

    def test_unknown_label_against_manifest(self, tmp_path):
        synth_dataset(tmp_path, 2, 2, extent=8, seed=0)
        with open(tmp_path / "labels.csv", "a", newline="") as fh:
            csv.writer(fh).writerow(["class_0/sample_0000.pgm", "mystery"])
        with pytest.raises(DataError, match="mystery"):
            load_dataset(tmp_path)

    def test_missing_image_named(self, tmp_path):
        synth_dataset(tmp_path, 2, 2, extent=8, seed=0)
        os.remove(tmp_path / "class_1" / "sample_0001.pgm")
        with pytest.raises(DataError, match="missing image file 'class_1/sample_0001.pgm'"):
            load_dataset(tmp_path)

    def test_repeated_class_name(self, tmp_path):
        synth_dataset(tmp_path, 2, 3, extent=8, seed=0)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["classes"] = ["class_0", "class_0", "class_1"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="repeats \\['class_0'\\]"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("rel, message", [
        ("class_0", "class_0: cannot read the image file: .*Is a directory"),
        ("stack.ten", "stack.ten: cannot read the image file: .*Is a directory"),
        ("class_0/sample_0000.pgm/x.pgm", "x.pgm: cannot read the image file: .*Not a directory"),
        ("class_0/sample\0.pgm", "cannot read the image file: embedded null byte"),
    ], ids=["directory", "ten-directory", "file-as-parent", "nul-byte"])
    def test_unreadable_image_row_is_data_error(self, tmp_path, rel, message):
        synth_dataset(tmp_path, 2, 2, extent=8, seed=0)
        (tmp_path / "stack.ten").mkdir()
        with open(tmp_path / "labels.csv", "a", newline="") as fh:
            csv.writer(fh).writerow([rel, "class_0"])
        with pytest.raises(DataError, match=message):
            load_dataset(tmp_path)

    def test_header_field_past_the_int_digit_limit_is_data_error(self, tmp_path):
        synth_dataset(tmp_path, 2, 2, extent=4, seed=0)
        (tmp_path / "class_0" / "sample_0000.pgm").write_bytes(
            b"P5 " + b"1" * 5000 + b" 4 255\n" + bytes(16))
        with pytest.raises(DataError, match="sample_0000.pgm: cannot read the image file"):
            load_dataset(tmp_path)

    def test_images_are_the_scaled_pgm_bytes(self, tmp_path):
        idx = synth_dataset(tmp_path, 3, 4, extent=8, seed=1)
        expected = np.stack(
            [read_pgm(tmp_path / rel).astype(np.float32) / 255.0 for rel in idx.paths]
        )[:, None]
        assert idx.images.dtype == np.float32 and idx.images.shape == (12, 1, 8, 8)
        assert idx.images.flags.c_contiguous
        assert idx.images.tobytes() == expected.tobytes()

    def test_ten_rows_come_through_unscaled(self, tmp_path):
        idx = synth_dataset(tmp_path, 2, 3, extent=8, seed=2)
        values = np.linspace(-2.0, 300.0, 64, dtype=np.float32).reshape(8, 8)
        save_tensor(tmp_path / "raw.ten", values)
        with open(tmp_path / "labels.csv", "a", newline="") as fh:
            csv.writer(fh).writerow(["raw.ten", "class_1"])
        mixed = load_dataset(tmp_path)
        assert mixed.images.dtype == np.float32 and mixed.images.flags.c_contiguous
        assert mixed.images[-1, 0].tobytes() == values.tobytes()
        assert mixed.images[:-1].tobytes() == idx.images.tobytes()

    def test_mismatched_extents(self, tmp_path):
        synth_dataset(tmp_path, 2, 2, extent=8, seed=0)
        write_pgm(tmp_path / "class_0" / "sample_0000.pgm", np.zeros((4, 4), np.uint8))
        with pytest.raises(DataError, match="extent"):
            load_dataset(tmp_path)


class TestSplit:
    def test_stratified_and_deterministic(self, tmp_path):
        idx = synth_dataset(tmp_path, 3, 10, extent=8, seed=1)
        train, val = split_index(idx, 0.2, 7)
        assert train.counts.tolist() == [8, 8, 8]
        assert val.counts.tolist() == [2, 2, 2]
        train2, val2 = split_index(idx, 0.2, 7)
        assert train2.paths == train.paths
        assert val2.paths == val.paths
        # disjoint and complete
        assert set(train.paths) | set(val.paths) == set(idx.paths)
        assert not set(train.paths) & set(val.paths)

    def test_subset_keeps_images_aligned(self, tmp_path):
        idx = synth_dataset(tmp_path, 2, 6, extent=8, seed=2)
        sub = idx.subset([1, 4, 7])
        for row, original in enumerate([1, 4, 7]):
            assert sub.paths[row] == idx.paths[original]
            assert np.array_equal(sub.images[row], idx.images[original])
            assert sub.labels[row] == idx.labels[original]

    def test_rejects_bad_fraction(self, tmp_path):
        idx = synth_dataset(tmp_path, 2, 4, extent=8, seed=0)
        with pytest.raises(DataError):
            split_index(idx, 1.5, 0)

    def test_every_class_keeps_a_training_sample(self):
        train, val = split_index(label_only_index([6, 2, 6, 1]), 0.4, 3)
        assert train.counts.tolist() == [4, 1, 4, 1]
        assert val.counts.tolist() == [2, 1, 2, 0]

    def test_class_left_without_training_samples_is_named(self):
        # round(0.8 * 2) = 2 would send both of class_1's samples to validation
        with pytest.raises(DataError, match=r"val_fraction 0\.8 leaves class 'class_1' \(2 samples\)"):
            split_index(label_only_index([6, 2, 6]), 0.8, 0)

    def test_empty_validation_side_is_rejected(self):
        with pytest.raises(DataError, match="validation split is empty"):
            split_index(label_only_index([1, 1, 1]), 0.5, 0)
