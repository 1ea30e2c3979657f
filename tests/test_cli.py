import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gbmpatch.checkpoint import load_checkpoint, save_checkpoint
from gbmpatch.cli import format_report, main
from gbmpatch.data import (CLASS_CODES, DatasetManifest, generate_synthetic,
                           write_atomic)
from gbmpatch.metrics import METRIC_NAMES

SRC = Path(__file__).resolve().parents[1] / "src"
SMALL_NET = ["--image-size", "28", "--tile-size", "14", "--dim", "8",
             "--depth", "1", "--heads", "2", "--registers", "2",
             "--mlp-ratio", "2", "--bottleneck", "4"]
QUICK_TRAIN = ["--folds", "3", "--epochs", "2", "--warmup-epochs", "1",
               "--batch-size", "16", "--lr-max", "1e-3", "--lr-min", "1e-4"]
# nested past the JSON decoder's recursion limit (RecursionError, not ValueError)
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def one_line_error(capsys):
    err = capsys.readouterr().err
    return err.count("\n") == 1 and "Traceback" not in err


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    generate_synthetic(root, [3] * 9, seed=0, size=28)
    return root


@pytest.fixture(scope="module")
def finished_run(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    code = main(["cv", "--data", str(dataset), "--out", str(out), "--seed",
                 "1"] + SMALL_NET + QUICK_TRAIN)
    assert code == 0
    runs = sorted(p for p in out.iterdir() if p.name.startswith("run-"))
    assert len(runs) == 1
    return out, runs[0]


class TestGenData:
    def test_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "d"
        code = main(["gen-data", "--out", str(out), "--counts",
                     "2,2,2,2,2,2,2,2,2", "--seed", "3", "--size", "16"])
        assert code == 0
        manifest = DatasetManifest.load(out)
        assert len(manifest.entries) == 18
        assert "18 patches" in capsys.readouterr().out

    def test_refuses_nonempty_without_force(self, tmp_path, capsys):
        out = tmp_path / "d"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        code = main(["gen-data", "--out", str(out), "--counts",
                     "1,1,1,1,1,1,1,1,1", "--size", "16"])
        assert code == 2
        assert "--force" in capsys.readouterr().err
        code = main(["gen-data", "--out", str(out), "--counts",
                     "1,1,1,1,1,1,1,1,1", "--size", "16", "--force"])
        assert code == 0

    def test_bad_counts_string_is_usage_error(self, tmp_path):
        assert main(["gen-data", "--out", str(tmp_path / "x"),
                     "--counts", "1,2,banana"]) == 2

    def test_wrong_count_arity_is_data_error(self, tmp_path):
        assert main(["gen-data", "--out", str(tmp_path / "y"),
                     "--counts", "1,2,3", "--size", "16"]) == 3

    def test_all_zero_counts_is_data_error(self, tmp_path, capsys):
        assert main(["gen-data", "--out", str(tmp_path / "z"),
                     "--counts", "0,0,0,0,0,0,0,0,0", "--size", "16"]) == 3
        assert one_line_error(capsys)
        assert not (tmp_path / "z" / "manifest.json").exists()

    @pytest.mark.parametrize("flag,value", [("--seed", "-1"),
                                            ("--size", "-5"),
                                            ("--size", "0")])
    def test_out_of_range_value_is_usage_error(self, tmp_path, capsys,
                                               flag, value):
        code = main(["gen-data", "--out", str(tmp_path / "d"),
                     "--counts", "1,1,1,1,1,1,1,1,1", f"{flag}={value}"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not list(tmp_path.rglob("*.ppm"))


class TestCv:
    def test_artifacts_and_manifest(self, finished_run):
        out, run = finished_run
        for name in ("metrics.csv", "confusion.txt", "report.txt",
                     "model.ckpt", "run.json"):
            assert (run / name).is_file(), name

        payload = json.loads((run / "run.json").read_text())
        assert payload["settings"]["dim"] == 8
        assert payload["settings"]["folds"] == 3
        assert len(payload["per_class"]) == 9
        assert len(payload["folds"]) == 3
        assert np.asarray(payload["confusion"]).shape == (9, 9)
        assert sum(sum(row) for row in payload["confusion"]) == 27
        assert set(payload["fold_average"]) == set(METRIC_NAMES)

    def test_csv_column_order(self, finished_run):
        _, run = finished_run
        header = (run / "metrics.csv").read_text().splitlines()[0]
        assert header == "class,accuracy,precision,recall,specificity,f1,mcc"
        lines = (run / "metrics.csv").read_text().splitlines()
        assert len(lines) == 1 + 9 + 1
        assert lines[1].startswith("CT,")
        assert lines[-1].startswith("micro,")

    def test_report_table_shape(self, finished_run):
        _, run = finished_run
        text = (run / "report.txt").read_text()
        lines = text.splitlines()
        assert lines[0].split() == ["metric"] + list(CLASS_CODES) + ["Average"]
        mcc_row = [l for l in lines if l.startswith("mcc")][0]
        assert mcc_row.count("--") == 9

    def test_latest_symlink(self, finished_run):
        out, run = finished_run
        link = out / "latest"
        assert link.is_symlink()
        assert (link / "run.json").is_file()
        assert link.resolve() == run.resolve()

    def test_missing_data_dir_is_data_error(self, tmp_path):
        assert main(["cv", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "runs")]) == 3

    def test_deeply_nested_manifest_is_data_error(self, tmp_path, capsys):
        root = tmp_path / "data"
        generate_synthetic(root, [3] * 9, seed=0, size=28)
        (root / "manifest.json").write_text(DEEP_JSON)
        assert main(["cv", "--data", str(root),
                     "--out", str(tmp_path / "runs")]) == 3
        assert one_line_error(capsys)

    def test_stratification_failure_is_data_error(self, dataset, tmp_path,
                                                  capsys):
        # 3 samples per class cannot fill the default 5 folds
        code = main(["cv", "--data", str(dataset),
                     "--out", str(tmp_path / "runs")] + SMALL_NET)
        assert code == 3
        assert "fewer than" in capsys.readouterr().err

    @pytest.mark.parametrize("extra,code", [
        (["--lr-max=inf"], 2),
        (["--weight-decay=inf"], 2),
        (["--weight-decay=nan"], 2),
        # finite settings whose one update overflows float32
        (["--lr-max=1e300", "--lr-min=1e300"], 4),
    ], ids=["lr_max_inf", "weight_decay_inf", "weight_decay_nan", "lr_1e300"])
    def test_non_finite_training_fails(self, dataset, tmp_path, capsys,
                                       extra, code):
        # one step per fold: no later loss sees the update's result
        assert main(["cv", "--data", str(dataset),
                     "--out", str(tmp_path / "runs"), "--image-size", "28",
                     "--dim", "4", "--depth", "1", "--heads", "1",
                     "--folds", "2", "--epochs", "1",
                     "--warmup-epochs", "0"] + extra) == code
        assert one_line_error(capsys)
        assert not list(tmp_path.rglob("model.ckpt"))

    def test_numeric_failure_prints_one_stderr_line(self, dataset, tmp_path):
        """Run as a process: pytest records numpy's warnings apart from the
        captured stderr, so only a real stderr shows them."""
        proc = subprocess.run(
            [sys.executable, "-m", "gbmpatch.cli", "cv", "--data",
             str(dataset), "--out", str(tmp_path / "runs"), "--lr-max=1e300",
             "--lr-min=1e300", "--epochs", "1", "--warmup-epochs", "0",
             "--folds", "3"] + SMALL_NET,
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 4
        assert proc.stderr.startswith("error: non-finite parameter")
        assert proc.stderr.count("\n") == 1, proc.stderr

    def test_settings_keys_pinned(self, finished_run):
        _, run = finished_run
        settings = json.loads((run / "run.json").read_text())["settings"]
        assert list(settings) == [
            "folds", "epochs", "warmup_epochs", "batch_size", "lr_max",
            "lr_min", "weight_decay", "seed",
            "image_size", "tile_size", "dim", "depth", "heads", "registers",
            "mlp_ratio", "bottleneck", "dropout"]

    @pytest.mark.parametrize("command", ["cv", "eval"])
    def test_empty_dataset_is_data_error(self, finished_run, tmp_path, capsys,
                                         command):
        DatasetManifest(root=tmp_path, entries=[], seed=0).save()
        _, run = finished_run
        extra = {"cv": ["--out", str(tmp_path / "runs")] + SMALL_NET,
                 "eval": ["--checkpoint", str(run / "model.ckpt")]}[command]
        assert main([command, "--data", str(tmp_path)] + extra) == 3
        assert "no patches" in capsys.readouterr().err

    def test_bad_flag_value_is_usage_error(self, dataset, tmp_path):
        code = main(["cv", "--data", str(dataset),
                     "--out", str(tmp_path / "runs"),
                     "--folds", "1"] + SMALL_NET)
        assert code == 2

    @pytest.mark.parametrize("entry", [{"heads": 0}, {"heads": -4}, {"dim": 0},
                                       {"seed": -1}])
    def test_bad_model_value_is_usage_error(self, dataset, tmp_path, capsys,
                                            entry):
        (key, value), = entry.items()
        code = main(["cv", "--data", str(dataset),
                     "--out", str(tmp_path / "runs"), f"--{key}={value}"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_verbose_prints_epochs_before_each_fold(self, dataset, tmp_path,
                                                    capsys):
        assert main(["cv", "--data", str(dataset), "--out",
                     str(tmp_path / "runs"), "--verbose"]
                    + SMALL_NET + QUICK_TRAIN) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith(("fold ", "  fold "))]
        want = []
        for k in range(3):
            want += [f"  fold {k} epoch {e}:" for e in range(2)]
            want.append(f"fold {k}: micro f1")
        assert len(lines) == len(want)
        for line, prefix in zip(lines, want):
            assert line.startswith(prefix), (line, prefix)

    def test_every_artifact_written_atomically(self, dataset, tmp_path,
                                               monkeypatch):
        written = []

        def recording(path, content):
            written.append(Path(path).name)
            return write_atomic(path, content)

        monkeypatch.setattr("gbmpatch.cli.write_atomic", recording)
        monkeypatch.setattr("gbmpatch.checkpoint.write_atomic", recording)
        out = tmp_path / "runs"
        assert main(["cv", "--data", str(dataset), "--out", str(out),
                     "--epochs", "1", "--warmup-epochs", "0", "--folds", "3"]
                    + SMALL_NET) == 0
        files = sorted(p.name for p in (out / "latest").iterdir())
        assert sorted(written) == files == [
            "confusion.txt", "metrics.csv", "model.ckpt", "report.txt",
            "run.json"]


class TestEval:
    def test_checkpoint_on_dataset(self, dataset, finished_run, tmp_path,
                                   capsys):
        _, run = finished_run
        csv_path = tmp_path / "m.csv"
        code = main(["eval", "--checkpoint", str(run / "model.ckpt"),
                     "--data", str(dataset), "--csv", str(csv_path),
                     "--confusion"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Average" in out
        header = csv_path.read_text().splitlines()[0]
        assert header == "class,accuracy,precision,recall,specificity,f1,mcc"

    def test_garbage_checkpoint_is_data_error(self, dataset, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"nonsense")
        assert main(["eval", "--checkpoint", str(bad),
                     "--data", str(dataset)]) == 3

    def test_deeply_nested_metadata_is_data_error(self, dataset,
                                                  finished_run, tmp_path,
                                                  capsys):
        _, run = finished_run
        lines = (run / "model.ckpt").read_bytes().split(b"\n")
        lines[1] = DEEP_JSON.encode()
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"\n".join(lines))
        assert main(["eval", "--checkpoint", str(path),
                     "--data", str(dataset)]) == 3
        assert one_line_error(capsys)

    @pytest.mark.parametrize("section,key,value", [
        ("encoder", "heads", 0),
        ("encoder", "heads", 3),            # does not divide dim 8
        ("encoder", "dim", 8.0),
        ("encoder", "registers", 1.5),
        ("encoder", "dim", 2 ** 62),        # more than numpy can allocate
        ("encoder", "channels", 3),         # written before it was a constant
        ("head", "n_classes", 9),
    ])
    def test_bad_model_metadata_is_data_error(self, dataset, finished_run,
                                              tmp_path, capsys, section, key,
                                              value):
        _, run = finished_run
        params, meta = load_checkpoint(run / "model.ckpt")
        meta[section][key] = value
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, meta)
        code = main(["eval", "--checkpoint", str(path), "--data", str(dataset)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "describe a model" in err
        if key in ("channels", "n_classes"):
            assert key in err


class TestReport:
    def test_rerenders_finished_run(self, finished_run, capsys):
        _, run = finished_run
        assert main(["report", "--run", str(run)]) == 0
        out = capsys.readouterr().out
        assert "Average" in out
        assert "fold-average micro metrics" in out

    def test_works_through_latest_symlink(self, finished_run, capsys):
        out_dir, _ = finished_run
        assert main(["report", "--run", str(out_dir / "latest")]) == 0

    def test_unfinished_run_is_data_error(self, tmp_path):
        assert main(["report", "--run", str(tmp_path)]) == 3

    def test_deeply_nested_run_json_is_data_error(self, tmp_path, capsys):
        (tmp_path / "run.json").write_text(DEEP_JSON)
        assert main(["report", "--run", str(tmp_path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        lambda p: p.update(folds=[{}]),
        lambda p: p["micro"].update(f1="high"),
        lambda p: p.update(fold_average=[1]),
    ], ids=["empty_fold", "text_f1", "list_fold_average"])
    def test_malformed_run_json_is_data_error(self, finished_run, tmp_path,
                                              capsys, edit):
        _, run = finished_run
        payload = json.loads((run / "run.json").read_text())
        edit(payload)
        (tmp_path / "run.json").write_text(json.dumps(payload))
        code = main(["report", "--run", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    lambda tmp, data, ckpt: ["gen-data", "--out", f"{tmp}/file", "--counts",
                             "1,1,1,1,1,1,1,1,1", "--size", "16"],
    lambda tmp, data, ckpt: ["gen-data", "--out", f"{tmp}/file/sub",
                             "--counts", "1,1,1,1,1,1,1,1,1", "--size", "16"],
    lambda tmp, data, ckpt: ["cv", "--data", data, "--out", f"{tmp}/file"]
    + SMALL_NET + QUICK_TRAIN,
    lambda tmp, data, ckpt: ["eval", "--checkpoint", f"{tmp}/missing.ckpt",
                             "--data", data],
    lambda tmp, data, ckpt: ["eval", "--checkpoint", tmp, "--data", data],
    lambda tmp, data, ckpt: ["eval", "--checkpoint", ckpt, "--data", data,
                             "--csv", tmp],
    lambda tmp, data, ckpt: ["eval", "--checkpoint", ckpt, "--data", data,
                             "--csv", f"{tmp}/missing/metrics.csv"],
], ids=["gen_data_out_file", "gen_data_out_under_file", "cv_out_file",
        "eval_missing_checkpoint", "eval_checkpoint_dir", "eval_csv_dir",
        "eval_csv_missing_parent"])
def test_path_error_is_data_error(dataset, finished_run, tmp_path, capsys,
                                  argv):
    """A path that cannot be read or written exits 3 with one error line."""
    (tmp_path / "file").write_text("not a directory")
    _, run = finished_run
    code = main(argv(str(tmp_path), str(dataset), str(run / "model.ckpt")))
    assert code == 3
    assert one_line_error(capsys)


class TestFormatReport:
    def test_layout(self):
        per_class = [{m: 0.5 for m in METRIC_NAMES} for _ in range(9)]
        micro = {m: 0.25 for m in METRIC_NAMES}
        text = format_report(per_class, micro)
        lines = text.splitlines()
        assert len(lines) == 2 + len(METRIC_NAMES)
        assert lines[2].startswith("accuracy")
        assert lines[2].rstrip().endswith("0.2500")
        mcc_row = lines[2 + METRIC_NAMES.index("mcc")]
        assert mcc_row.count("--") == 9
        assert mcc_row.rstrip().endswith("0.2500")

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as info:
            main(["definitely-not-a-command"])
        assert info.value.code == 2
