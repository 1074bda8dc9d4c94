import csv
import json
import os
import platform
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import arm_lab
from arm_lab import cli
from arm_lab.arm import build_network, save_checkpoint
from arm_lab.cli import main
from arm_lab.data import load_dataset
from arm_lab.erosion import perception_map
from arm_lab.tensor import save_tensor
from arm_lab.train import TrainConfig, build_description


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
PACKAGE_PARENT = str(Path(arm_lab.__file__).resolve().parent.parent)


def run_child(command):
    """Run ``command`` importing the same ``arm_lab`` as this process, from any cwd."""
    path = os.pathsep.join(filter(None, [PACKAGE_PARENT, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(command, capture_output=True, text=True, env=env)


def read_manifest(out_dir):
    with open(out_dir / "manifest.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data") / "corpus"
    code = main(
        ["synth", "--out", str(root), "--classes", "3", "--per-class", "10",
         "--extent", "16", "--seed", "5"]
    )
    assert code == 0
    return root


TRAIN_ARGS = [
    "--epochs", "2", "--batch-size", "16", "--widths", "4,8",
    "--seed", "1", "--sampler", "mrr", "--val-fraction", "0.25",
]


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus):
    out = tmp_path_factory.mktemp("cli-train") / "run"
    assert main(["train", "--data", str(corpus), "--out", str(out), *TRAIN_ARGS]) == 0
    return out


class TestParsing:
    def test_help_lists_exit_codes(self, capsys):
        assert main(["--help"]) == 0
        assert "exit codes" in capsys.readouterr().out

    def test_missing_required_argument(self):
        assert main(["perception"]) == 2

    def test_unknown_command(self):
        assert main(["mystery"]) == 2

    def test_entry_points_work(self):
        run = run_child([sys.executable, "-m", "arm_lab", "--help"])
        assert run.returncode == 0 and "usage" in run.stdout
        try:
            import tomllib
        except ImportError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")
        with open(PYPROJECT, "rb") as fh:
            value = tomllib.load(fh)["project"]["scripts"]["arm-lab"]
        assert callable(EntryPoint("arm-lab", value, "console_scripts").load())
        # Run the target the way a console-script wrapper does.
        wrapper = (
            "import sys\n"
            "from importlib.metadata import EntryPoint\n"
            f"target = EntryPoint('arm-lab', {value!r}, 'console_scripts').load()\n"
            "sys.argv[0] = 'arm-lab'\n"
            "sys.exit(target())\n"
        )
        run = run_child([sys.executable, "-c", wrapper, "--help"])
        assert run.returncode == 0 and "usage" in run.stdout

    @pytest.mark.skipif(
        shutil.which("arm-lab") is None, reason="arm-lab console script not on PATH"
    )
    def test_installed_console_script(self):
        run = run_child([shutil.which("arm-lab"), "--help"])
        assert run.returncode == 0 and "usage" in run.stdout


class TestPerception:
    def test_writes_counts_matching_library(self, tmp_path, capsys):
        out = tmp_path / "p"
        code = main(
            ["perception", "--height", "7", "--width", "7", "--kernel", "3",
             "--out", str(out)]
        )
        assert code == 0
        grid = np.loadtxt(out / "perception.csv", delimiter=",", dtype=int)
        assert np.array_equal(grid, perception_map(7, 7, 3, 1, 0).counts)
        assert grid[0, 0] == 1 and grid[3, 3] == 9
        assert (out / "perception.pgm").exists()
        manifest = read_manifest(out)
        assert manifest["checks"]["conserved"] is True
        assert "corner=1" in capsys.readouterr().out

    def test_oversized_kernel_is_geometry_error(self, tmp_path, capsys):
        code = main(
            ["perception", "--height", "7", "--width", "7", "--kernel", "9",
             "--out", str(tmp_path / "p")]
        )
        assert code == 3
        assert "arm-lab: error" in capsys.readouterr().err


class TestErosion:
    def test_two_layer_stack(self, tmp_path):
        out = tmp_path / "e"
        code = main(
            ["erosion", "--height", "8", "--width", "8",
             "--layers", "3,1,1;3,1,1", "--out", str(out)]
        )
        assert code == 0
        first = np.loadtxt(out / "erosion_L1.csv", delimiter=",")
        assert abs(first[0, 0] - 5.0 / 9.0) <= 1e-9
        assert (out / "erosion_L2.pgm").exists()
        manifest = read_manifest(out)
        assert manifest["checks"]["contamination_in_unit_interval"] is True
        peaks = manifest["results"]["per_layer_max_contamination"]
        assert len(peaks) == 2 and peaks[1] >= peaks[0]

    def test_malformed_layers(self, tmp_path):
        code = main(
            ["erosion", "--height", "8", "--width", "8", "--layers", "3,1",
             "--out", str(tmp_path / "e")]
        )
        assert code == 5


class TestSynth:
    def test_imbalanced_counts(self, tmp_path):
        out = tmp_path / "c"
        code = main(
            ["synth", "--out", str(out), "--classes", "3", "--per-class", "6,4,2",
             "--extent", "16", "--seed", "0"]
        )
        assert code == 0
        index = load_dataset(out)
        assert index.counts.tolist() == [6, 4, 2]
        manifest = read_manifest(out)
        assert manifest["run"]["command"] == "synth"

    def test_count_list_length_must_match(self, tmp_path):
        code = main(
            ["synth", "--out", str(tmp_path / "c"), "--classes", "3",
             "--per-class", "6,4", "--extent", "16"]
        )
        assert code == 5

    def test_garbage_count(self, tmp_path):
        code = main(
            ["synth", "--out", str(tmp_path / "c"), "--classes", "3",
             "--per-class", "many", "--extent", "16"]
        )
        assert code == 5

    @pytest.mark.parametrize("extent", ["0", "-3"])
    def test_impossible_extent_is_data_error(self, tmp_path, extent):
        out = tmp_path / "c"
        code = main(
            ["synth", "--out", str(out), "--classes", "3", "--per-class", "2",
             "--extent", extent]
        )
        assert code == 4
        assert not out.exists()


    def test_negative_seed_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "c"
        code = main(
            ["synth", "--out", str(out), "--classes", "3", "--per-class", "2",
             "--extent", "8", "--seed", "-1"]
        )
        assert code == 4
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestTrainCommand:
    def test_artifacts_and_manifest(self, trained, corpus):
        manifest = read_manifest(trained)
        assert manifest["command"] == "train"
        assert manifest["results"]["epochs_run"] == 2
        assert manifest["results"]["diverged"] is False
        assert 0.0 <= manifest["results"]["wa"] <= 1.0

        with open(trained / "metrics.csv") as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "epoch,loss,lr,wa,ua"
        assert len(lines) == 3
        assert (trained / "confusion.csv").exists()
        assert (trained / "checkpoint" / "manifest.json").exists()

    def test_manifests_record_the_environment(self, trained, corpus, tmp_path):
        assert main(["perception", "--height", "7", "--width", "7", "--kernel", "3",
                     "--out", str(tmp_path / "p")]) == 0
        blocks = [
            read_manifest(trained)["environment"],
            read_manifest(trained / "checkpoint")["extra"]["environment"],
            read_manifest(corpus)["run"]["environment"],
            read_manifest(tmp_path / "p")["environment"],
        ]
        for block in blocks:
            assert sorted(block) == [
                "blas", "blas_core", "blas_threads", "blas_version", "numpy", "python"]
            assert block["numpy"] == np.__version__
            assert block["python"] == platform.python_version()

    def test_repeated_class_name_is_data_error(self, corpus, tmp_path, capsys):
        root = tmp_path / "corpus"
        shutil.copytree(corpus, root)
        manifest = read_manifest(root)
        manifest["classes"] = ["class_0", "class_0", "class_1"]
        (root / "manifest.json").write_text(json.dumps(manifest))
        code = main(["train", "--data", str(root), "--out", str(tmp_path / "out"), *TRAIN_ARGS])
        assert code == 4
        assert "repeats" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [
        ["--val-fraction", "0"], ["--val-fraction", "1"], ["--val-fraction", "1.5"],
        ["--val-fraction", "-0.2"], ["--head", "gap", "--smoothing", "5"],
        ["--lr", "nan"], ["--lr", "inf"], ["--widths", "0,8"], ["--widths", "4,-8"],
        ["--seed", "-1"],
    ])
    def test_out_of_range_option_is_config_error(self, corpus, tmp_path, capsys, bad):
        out = tmp_path / "out"
        code = main(["train", "--data", str(corpus), "--out", str(out), *TRAIN_ARGS, *bad])
        assert code == 5
        assert "arm-lab: error" in capsys.readouterr().err
        assert not out.exists()

    def test_divergence_keeps_artifacts_and_exits_six(self, corpus, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["train", "--data", str(corpus), "--out", str(out), *TRAIN_ARGS,
                     "--head", "gap", "--lr", "1e30"])
        assert code == 6
        assert "training halted (epoch 1: non-finite loss)" in capsys.readouterr().err
        for name in ("metrics.csv", "confusion.csv", "checkpoint"):
            assert (out / name).exists(), name
        results = read_manifest(out)["results"]
        assert results["diverged"] is True and results["epochs_run"] == 0
        # a GAP head needs no trained state to score, so neither record holds a NaN
        assert results == read_manifest(out / "checkpoint")["extra"]["result"]

    def test_missing_corpus_is_data_error(self, tmp_path, capsys):
        code = main(
            ["train", "--data", str(tmp_path / "nowhere"), "--out",
             str(tmp_path / "out"), *TRAIN_ARGS]
        )
        assert code == 4
        assert "arm-lab: error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage",
        ["truncated_ten", "nan_ten", "inf_ten", "non_integer_pgm_header", "directory_pgm"],
    )
    def test_malformed_sample_is_data_error(self, tmp_path, capsys, damage):
        root = tmp_path / "corpus"
        assert main(
            ["synth", "--out", str(root), "--classes", "2", "--per-class", "3",
             "--extent", "16", "--seed", "3"]
        ) == 0
        labels = (root / "labels.csv").read_text().splitlines()
        rel = labels[1].split(",")[0]
        if damage.endswith("_ten"):
            ten_rel = rel[: -len(".pgm")] + ".ten"
            image = np.zeros((16, 16), np.float32)
            # a non-finite pixel is bad data, not a training divergence (exit 6)
            image[0, 0] = {"nan_ten": np.nan, "inf_ten": np.inf}.get(damage, 0.0)
            save_tensor(root / ten_rel, image)
            if damage == "truncated_ten":
                (root / ten_rel).write_bytes((root / ten_rel).read_bytes()[:9])
            labels[1] = labels[1].replace(rel, ten_rel)
            (root / "labels.csv").write_text("\n".join(labels) + "\n")
        elif damage == "directory_pgm":
            os.remove(root / rel)
            (root / rel).mkdir()
        else:
            (root / rel).write_bytes(b"P5\n16 x16\n255\n" + bytes(256))
        code = main(["train", "--data", str(root), "--out", str(tmp_path / "out"), *TRAIN_ARGS])
        err = capsys.readouterr().err
        assert code == 4, err
        assert "arm-lab: error" in err and rel[: -len(".pgm")] in err


    @pytest.mark.parametrize("per_class, options, message", [
        ("6,2,6", ["--sampler", "mrr"], "leaves class 'class_1' (2 samples) no training sample"),
        ("6,2,6", ["--sampler", "plain", "--head", "gap"], "leaves class 'class_1'"),
        ("1", ["--sampler", "mrr"], "validation split is empty"),
    ])
    def test_unusable_split_is_data_error_before_training(
        self, tmp_path, capsys, per_class, options, message
    ):
        root, out = tmp_path / "corpus", tmp_path / "out"
        assert main(["synth", "--out", str(root), "--classes", "3", "--per-class", per_class,
                     "--extent", "8"]) == 0
        code = main(["train", "--data", str(root), "--out", str(out), "--epochs", "1",
                     "--val-fraction", "0.8", "--widths", "4", *options])
        assert code == 4
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestEvalCommand:
    def test_reproduces_training_metrics(self, trained, corpus, tmp_path):
        out = tmp_path / "eval"
        code = main(
            ["eval", "--checkpoint", str(trained / "checkpoint"), "--data",
             str(corpus), "--out", str(out), "--split", "val",
             "--batch-size", "16"]
        )
        assert code == 0
        manifest = read_manifest(out)
        assert manifest["checks"]["matches_training_eval"] is True
        train_manifest = read_manifest(trained)
        assert abs(manifest["results"]["wa"] - train_manifest["results"]["wa"]) <= 1e-9
        assert manifest["results"]["samples"] == 6  # 25% of 10, three classes

    def test_train_split_size(self, trained, corpus, tmp_path):
        out = tmp_path / "eval"
        code = main(
            ["eval", "--checkpoint", str(trained / "checkpoint"), "--data",
             str(corpus), "--out", str(out), "--split", "train"]
        )
        assert code == 0
        assert read_manifest(out)["results"]["samples"] == 24

    def test_class_mismatch_is_data_error(self, trained, corpus, tmp_path, capsys):
        other = tmp_path / "other"
        assert main(
            ["synth", "--out", str(other), "--classes", "4", "--per-class", "4",
             "--extent", "16", "--seed", "2"]
        ) == 0
        # the same class count, so only the recorded class list tells it apart
        reordered = tmp_path / "reordered"
        shutil.copytree(corpus, reordered)
        manifest = read_manifest(reordered)
        manifest["classes"] = manifest["classes"][::-1]
        (reordered / "manifest.json").write_text(json.dumps(manifest))
        for data in (other, reordered):
            code = main(
                ["eval", "--checkpoint", str(trained / "checkpoint"), "--data",
                 str(data), "--out", str(tmp_path / "out")]
            )
            err = capsys.readouterr().err
            assert code == 4, err
            assert f"dataset classes {read_manifest(data)['classes']}" in err
            assert "checkpoint classes ['class_0', 'class_1', 'class_2']" in err

    @pytest.mark.parametrize("bad", [["--batch-size", "0"], ["--batch-size", "-4"]])
    def test_out_of_range_option_is_config_error(self, trained, corpus, tmp_path, capsys, bad):
        out = tmp_path / "out"
        code = main(["eval", "--checkpoint", str(trained / "checkpoint"), "--data",
                     str(corpus), "--out", str(out), *bad])
        err = capsys.readouterr().err
        assert code == 5, err
        assert "batch_size must be >= 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("head", ["arm", "gap"])
    def test_corpus_of_another_extent_is_data_error(self, corpus, tmp_path, capsys, head):
        run = tmp_path / "run"
        assert main(["train", "--data", str(corpus), "--out", str(run), *TRAIN_ARGS,
                     "--head", head]) == 0
        larger = tmp_path / "larger"  # the same classes, 24-pixel images
        assert main(["synth", "--out", str(larger), "--classes", "3", "--per-class", "4",
                     "--extent", "24", "--seed", "5"]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        code = main(["eval", "--checkpoint", str(run / "checkpoint"), "--data", str(larger),
                     "--out", str(out), "--split", "all"])
        err = capsys.readouterr().err
        assert code == 4, err
        assert "(12, 1, 24, 24)" in err and "(N, 1, 16, 16)" in err
        assert not out.exists()

    def test_untrained_amendment_state_is_runtime_error(self, corpus, tmp_path, capsys):
        index = load_dataset(corpus)
        config = TrainConfig(backbone_widths=(4, 8))
        network = build_network(build_description(index, config), seed=0)
        save_checkpoint(tmp_path / "fresh", network)
        code = main(
            ["eval", "--checkpoint", str(tmp_path / "fresh"), "--data", str(corpus),
             "--out", str(tmp_path / "out"), "--split", "all"]
        )
        assert code == 6
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage",
        [
            "manifest_not_json", "manifest_not_object", "missing_tensors",
            "missing_network", "network_is_list", "tensors_is_list",
            "non_integer_width", "unknown_arm_field", "missing_arm_section",
            "missing_tensor_file",
            "corpus_manifest_not_json", "corpus_classes_not_list", "corpus_class_not_string",
            "labels_not_utf8",
            # the recorded split and result; a "_val" case evaluates with --split val
            "extra_not_object", "extra_not_object_val", "data_not_object",
            "data_not_object_val", "stored_classes_not_list", "stored_classes_not_list_val",
            "val_fraction_not_number_val", "split_seed_not_integer_val",
            "split_seed_negative_val", "wa_not_number_val", "ua_missing_val",
        ],
    )
    def test_malformed_metadata_is_data_error(self, trained, corpus, tmp_path, capsys, damage):
        ckpt = tmp_path / "checkpoint"
        data = tmp_path / "corpus"
        shutil.copytree(trained / "checkpoint", ckpt)
        shutil.copytree(corpus, data)
        manifest = read_manifest(ckpt)
        named = "manifest.json"
        split = "val" if damage.endswith("_val") else "all"
        damage = damage.removesuffix("_val")
        recorded = {
            "val_fraction_not_number": ("data", "val_fraction", "x"),
            "split_seed_not_integer": ("data", "split_seed", "x"),
            "split_seed_negative": ("data", "split_seed", -1),
            "stored_classes_not_list": ("data", "classes", 5),
            "wa_not_number": ("result", "wa", "x"),
        }
        if damage == "manifest_not_json":
            (ckpt / "manifest.json").write_text('{"format": "arm-lab-checkpoint",')
        elif damage == "manifest_not_object":
            (ckpt / "manifest.json").write_text("[]")
        elif damage == "corpus_manifest_not_json":
            (data / "manifest.json").write_text("{classes")
        elif damage == "corpus_classes_not_list":
            (data / "manifest.json").write_text('{"classes": 3}')
        elif damage == "corpus_class_not_string":
            (data / "manifest.json").write_text('{"classes": [["class_0"], "class_1", "class_2"]}')
        elif damage == "labels_not_utf8":
            (data / "labels.csv").write_bytes(b"relative_path,label\nx.pgm,\xff\xfe\n")
            named = "labels.csv"
        else:
            if damage == "missing_tensors":
                del manifest["tensors"]
            elif damage == "missing_network":
                del manifest["network"]
            elif damage == "network_is_list":
                manifest["network"] = [manifest["network"]]
            elif damage == "tensors_is_list":
                manifest["tensors"] = list(manifest["tensors"].values())
            elif damage == "non_integer_width":
                manifest["network"]["backbone_widths"] = ["x"]
            elif damage == "unknown_arm_field":
                manifest["network"]["arm"]["bogus"] = 1
            elif damage == "missing_arm_section":
                del manifest["network"]["arm"]
            elif damage == "missing_tensor_file":
                (ckpt / manifest["tensors"]["head.fc_bias"]).unlink()
            elif damage == "extra_not_object":
                manifest["extra"] = []
            elif damage == "data_not_object":
                manifest["extra"]["data"] = []
            elif damage == "ua_missing":
                del manifest["extra"]["result"]["ua"]
            else:
                section, key, value = recorded[damage]
                manifest["extra"][section][key] = value
            (ckpt / "manifest.json").write_text(json.dumps(manifest))
        code = main(
            ["eval", "--checkpoint", str(ckpt), "--data", str(data),
             "--out", str(tmp_path / "out"), "--split", split]
        )
        err = capsys.readouterr().err
        assert code == 4, err
        assert named in err

    @pytest.mark.parametrize(
        "name,value",
        [
            ("head.fc_weight", np.nan),
            ("head.generic_feature", np.inf),
            ("head.bn_running_var", -1.0),
            ("backbone.block0.bn_running_var", -1.0),
        ],
    )
    def test_corrupt_tensor_value_is_data_error(
        self, trained, corpus, tmp_path, capsys, name, value
    ):
        # such a tensor makes every logit non-finite, and argmax then picks class 0
        ckpt = tmp_path / "checkpoint"
        shutil.copytree(trained / "checkpoint", ckpt)
        path = ckpt / read_manifest(ckpt)["tensors"][name]
        raw = bytearray(path.read_bytes())
        first = 6 + 4 * raw[5]  # magic, version and rank, then one uint32 per extent
        raw[first : first + 4] = np.array(value, "<f4").tobytes()
        path.write_bytes(bytes(raw))
        code = main(
            ["eval", "--checkpoint", str(ckpt), "--data", str(corpus),
             "--out", str(tmp_path / "out"), "--split", "all"]
        )
        err = capsys.readouterr().err
        assert code == 4, err
        assert "manifest.json" in err and name in err

    def test_checkpoint_without_split_info_needs_split_all(self, corpus, tmp_path):
        index = load_dataset(corpus)
        config = TrainConfig(backbone_widths=(4, 8))
        network = build_network(build_description(index, config, "gap"), seed=0)
        save_checkpoint(tmp_path / "bare", network)
        code = main(
            ["eval", "--checkpoint", str(tmp_path / "bare"), "--data", str(corpus),
             "--out", str(tmp_path / "out"), "--split", "val"]
        )
        assert code == 5


class TestInputExtent:
    """Any square extent trains; a non-square corpus is bad data."""

    @pytest.fixture(scope="class")
    def wide_corpus(self, tmp_path_factory, corpus):
        root = tmp_path_factory.mktemp("cli-wide") / "corpus"
        shutil.copytree(corpus, root)
        rows = (root / "labels.csv").read_text().splitlines()
        rng = np.random.default_rng(0)
        for i, row in enumerate(rows[1:], start=1):
            rel, label = row.split(",")
            ten_rel = rel[: -len(".pgm")] + ".ten"
            save_tensor(root / ten_rel, rng.random((16, 32)).astype(np.float32))
            rows[i] = f"{ten_rel},{label}"
        (root / "labels.csv").write_text("\n".join(rows) + "\n")
        return root

    @pytest.mark.parametrize("command", [
        ["train", *TRAIN_ARGS, "--head", "arm"],
        ["train", *TRAIN_ARGS, "--head", "gap"],
        ["sweep-k", "--k-min", "1", "--k-max", "2", "--epochs", "1", "--batch-size", "16"],
    ])
    def test_non_square_corpus_is_data_error(self, wide_corpus, tmp_path, capsys, command):
        out = tmp_path / "out"
        code = main([*command, "--data", str(wide_corpus), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 4, err
        assert "16x32" in err
        assert not out.exists()

    def test_odd_extent_trains_and_evaluates(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert main(["synth", "--out", str(corpus), "--classes", "3", "--per-class", "10",
                     "--extent", "33", "--seed", "5"]) == 0
        for head in ("arm", "gap"):
            run = tmp_path / head
            code = main(["train", "--data", str(corpus), "--out", str(run), *TRAIN_ARGS,
                         "--head", head])
            assert code == 0
            network = read_manifest(run / "checkpoint")["network"]
            assert network["input_extent"] == 33
            if head == "arm":  # 33 -> 17 -> 9 through the two blocks
                assert (network["arm"]["height"], network["arm"]["width"]) == (9, 9)
            out = tmp_path / f"{head}-eval"
            assert main(["eval", "--checkpoint", str(run / "checkpoint"), "--data", str(corpus),
                         "--out", str(out), "--split", "val"]) == 0
            assert read_manifest(out)["checks"]["matches_training_eval"] is True


class TestSweepCommand:
    def test_sweep_records_failures_without_dying(self, corpus, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["sweep-k", "--data", str(corpus), "--out", str(out),
             "--k-min", "3", "--k-max", "5", "--epochs", "1",
             "--batch-size", "16", "--seed", "0"]
        )
        assert code == 0
        with open(out / "sweep_k.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "wa", "ua", "error"]
        assert [row[0] for row in rows[1:]] == ["3", "4", "5"]
        assert rows[1][3] == "" and rows[2][3] == ""
        assert rows[3][3] != ""  # k=5 cannot fit the 4x4 map
        manifest = read_manifest(out)
        # two downsampling blocks leave a 4x4 map: k=5 cannot fit
        assert manifest["checks"]["completed"] == 2
        assert manifest["checks"]["failed"] == 1
        assert manifest["results"]["best_k"] in (3, 4)

    def test_bad_range(self, corpus, tmp_path):
        code = main(
            ["sweep-k", "--data", str(corpus), "--out", str(tmp_path / "s"),
             "--k-min", "0", "--k-max", "2"]
        )
        assert code == 5

    def test_negative_seed_is_config_error(self, corpus, tmp_path, capsys):
        out = tmp_path / "s"
        code = main(["sweep-k", "--data", str(corpus), "--out", str(out),
                     "--k-min", "1", "--k-max", "2", "--seed", "-1"])
        assert code == 5
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_diverged_kernels_are_failures(self, corpus, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["sweep-k", "--data", str(corpus), "--out", str(out), "--k-min", "1",
             "--k-max", "3", "--epochs", "2", "--batch-size", "8", "--lr", "1e30"]
        )
        assert code == 0
        with open(out / "sweep_k.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[0] for row in rows] == ["1", "2", "3"]
        assert all(row[1:] == ["nan", "nan", "epoch 1: non-finite loss"] for row in rows)
        manifest = read_manifest(out)
        assert manifest["checks"] == {"completed": 0, "failed": len(rows)}
        assert manifest["results"] == {"best_k": None, "best_wa": None}

    @pytest.mark.parametrize(
        "head_option",
        [["--widths", "4,8"], ["--smoothing", "0.9"], ["--freeze-smoothing"],
         ["--blocks", "2"], ["--out-channels", "16"]],
    )
    def test_head_options_are_train_only(self, corpus, tmp_path, head_option):
        # the sweep trains on the fixed train.SWEEP_WIDTHS backbone and has no affinity
        code = main(
            ["sweep-k", "--data", str(corpus), "--out", str(tmp_path / "s"), *head_option]
        )
        assert code == 2
        assert not (tmp_path / "s").exists()


class TestClustersCommand:
    def test_reference_geometry_verdict(self, tmp_path):
        out = tmp_path / "cl"
        code = main(
            ["clusters", "--channels", "512", "--height", "7", "--width", "7",
             "--out", str(out)]
        )
        assert code == 0
        profile = np.loadtxt(out / "clusters.csv", delimiter=",", dtype=int)
        axis = np.array([24, 56, 64, 64, 64, 56, 24])
        assert np.array_equal(profile, np.outer(axis, axis))
        manifest = read_manifest(out)
        assert manifest["checks"]["outer_ring_strictly_lighter"] is True
        assert manifest["results"]["ring_max"] == 1536
        assert manifest["results"]["interior_min"] == 3136

    def test_kernel_overrun_is_geometry_error(self, tmp_path):
        code = main(
            ["clusters", "--channels", "512", "--height", "1", "--width", "1",
             "--out", str(tmp_path / "cl")]
        )
        assert code == 3

    @pytest.mark.parametrize("empty", ["--channels", "--height"])
    def test_empty_input_shape_is_geometry_error(self, tmp_path, empty):
        shape = {"--channels": "512", "--height": "7", "--width": "7", empty: "0"}
        args = [part for item in shape.items() for part in item]
        assert main(["clusters", *args, "--out", str(tmp_path / "cl")]) == 3


class TestRunRecord:
    @pytest.mark.parametrize(
        "command", ["perception", "erosion", "synth", "train", "eval", "sweep-k", "clusters"]
    )
    def test_config_is_every_parsed_argument_but_out(self, command, corpus, trained, tmp_path):
        options = {
            "perception": ["--height", "7", "--width", "7", "--kernel", "3"],
            "erosion": ["--height", "8", "--width", "8", "--layers", "3,1,1;3,2,0"],
            "synth": ["--classes", "2", "--per-class", "3,2", "--extent", "8"],
            "train": ["--data", str(corpus), "--head", "gap", "--smoothing", "0.5",
                      "--freeze-smoothing", *TRAIN_ARGS],
            "eval": ["--checkpoint", str(trained / "checkpoint"), "--data", str(corpus),
                     "--split", "all", "--batch-size", "8"],
            "sweep-k": ["--data", str(corpus), "--k-min", "2", "--k-max", "2",
                        "--epochs", "1", "--batch-size", "16"],
            "clusters": ["--channels", "512", "--height", "7", "--width", "7", "--kernel", "4"],
        }[command]
        argv = [command, *options, "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        manifest = read_manifest(tmp_path / "out")
        record = manifest["run"] if command == "synth" else manifest
        parsed = vars(cli.build_parser().parse_args(argv))
        for key in ("out", "func", "command"):
            del parsed[key]
        assert record["command"] == command
        assert record["config"] == parsed
        assert set(record) - {"tool"} == {"command", "config", "checks", "results", "environment"}


class TestUnexpectedErrors:
    def test_internal_failure_maps_to_seven(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli, "perception_map", boom)
        code = main(
            ["perception", "--height", "7", "--width", "7", "--kernel", "3",
             "--out", str(tmp_path / "p")]
        )
        assert code == 7
        assert "wires crossed" in capsys.readouterr().err
