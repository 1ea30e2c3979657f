import datetime
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from gbmpatch import data
from gbmpatch.cli import _make_run_dir, _point_latest, format_report, main
from gbmpatch.data import (CLASS_CODES, DatasetManifest, generate_synthetic,
                           write_atomic)
from gbmpatch.metrics import METRIC_NAMES, MetricBundle

SRC = Path(__file__).resolve().parents[1] / "src"
SMALL_NET = ["--image-size", "28", "--tile-size", "14", "--dim", "8",
             "--depth", "1", "--heads", "2", "--registers", "2",
             "--mlp-ratio", "2", "--bottleneck", "4"]
QUICK_TRAIN = ["--folds", "3", "--epochs", "2", "--warmup-epochs", "1",
               "--batch-size", "16", "--lr-max", "1e-3", "--lr-min", "1e-4"]
# nested past the JSON decoder's recursion limit (RecursionError, not ValueError)
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def edit_metadata(src, dst, section, key, value):
    """Copy the checkpoint ``src`` to ``dst`` with one metadata field set."""
    first, line, blob = Path(src).read_bytes().split(b"\n", 2)
    meta = json.loads(line)
    meta[section][key] = value
    Path(dst).write_bytes(first + b"\n" + json.dumps(meta).encode() + b"\n"
                          + blob)


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

    @pytest.mark.parametrize("premade", [False, True])
    def test_failed_run_does_not_block_its_retry(self, tmp_path, capsys,
                                                 premade):
        out = tmp_path / "d"
        if premade:
            out.mkdir()
        # the first canvas cannot be allocated, after the class directories
        # are made
        assert main(["gen-data", "--out", str(out), "--size", "100000000"]) == 3
        assert one_line_error(capsys)
        # directories the run made are gone; one that was there stays
        assert sorted(tmp_path.rglob("*")) == ([out] if premade else [])
        code = main(["gen-data", "--out", str(out), "--size", "16",
                     "--counts", "1,1,1,1,1,1,1,1,1"])
        assert code == 0
        assert len(DatasetManifest.load(out).entries) == 9

    def test_force_removes_earlier_patches_only(self, tmp_path):
        out = tmp_path / "d"
        assert main(["gen-data", "--out", str(out), "--size", "8",
                     "--counts", "3,1,1,1,1,1,1,1,1"]) == 0
        for name in ("notes.txt", "0001.ppm.bak", "0007.jpg"):
            (out / "CT" / name).write_text("keep")
        assert main(["gen-data", "--out", str(out), "--size", "8", "--force",
                     "--counts", "1,1,1,1,1,1,1,1,1"]) == 0
        listed = {rel for rel, _ in DatasetManifest.load(out).entries}
        patches = {p.relative_to(out).as_posix() for p in out.rglob("*.ppm")}
        assert patches == listed
        assert sorted(p.name for p in (out / "CT").iterdir()) == [
            "0000.ppm", "0001.ppm.bak", "0007.jpg", "notes.txt"]

    @pytest.mark.parametrize("argv, says", [
        (["--size", "100000000"], "error: out of memory: "),
        (["--size", "8", "--counts", "4,4,4,4,4,4,4,4,4"], "Permission denied"),
    ], ids=["unallocatable_size", "unwritable"])
    def test_pool_failure_exits_3(self, tmp_path, capsys, monkeypatch, pooled,
                                  argv, says):
        def refuse(pixels, path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(data, "save_ppm", refuse)
        out = tmp_path / "d"
        assert main(["gen-data", "--out", str(out)] + argv) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert says in err and "Traceback" not in err
        assert pooled == ["fork"]
        assert not out.exists()

    def test_torn_down_pool_leaves_nothing_behind(self, tmp_path, capsys,
                                                  monkeypatch, pooled):
        out = tmp_path / "d"
        monkeypatch.setattr(data, "_POOL_CHUNK", 1)

        def stall_or_fail(pixels, path):
            if path == out / "CT" / "0001.ppm":
                # the second worker is stopped halfway through this write
                path.with_name(path.name + ".tmp").write_bytes(b"P6\n")
                time.sleep(60)
            while not list(out.rglob("*.tmp")):
                time.sleep(0.005)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(data, "save_ppm", stall_or_fail)
        assert main(["gen-data", "--out", str(out), "--size", "8"]) == 3
        assert one_line_error(capsys)
        assert pooled == ["fork"]
        assert not out.exists()
        monkeypatch.undo()
        assert main(["gen-data", "--out", str(out), "--size", "8",
                     "--counts", "1,1,1,1,1,1,1,1,1"]) == 0

    def test_runs_where_os_cannot_list_cpus(self, tmp_path, monkeypatch,
                                            pooled):
        # macOS and Windows have no os.sched_getaffinity: the patches
        # render in-process, into the bytes a pooled run writes
        argv = ["--counts", "2,1,1,1,1,1,1,1,3", "--seed", "5", "--size", "16"]
        assert main(["gen-data", "--out", str(tmp_path / "pooled")] + argv) == 0
        monkeypatch.delattr(os, "sched_getaffinity")
        assert main(["gen-data", "--out", str(tmp_path / "local")] + argv) == 0
        assert pooled == ["fork"]
        trees = [{p.relative_to(root): p.read_bytes()
                  for p in sorted(root.rglob("*")) if p.is_file()}
                 for root in (tmp_path / "pooled", tmp_path / "local")]
        assert len(trees[0]) == 13 and trees[0] == trees[1]

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

    def test_run_json_records_load_and_fold_seconds(self, finished_run):
        _, run = finished_run
        payload = json.loads((run / "run.json").read_text())
        assert payload["load_s"] > 0
        assert [f["fold"] for f in payload["folds"]] == [0, 1, 2]
        assert all(f["wall_s"] > 0 for f in payload["folds"])

    def test_latest_is_replaced_by_a_swap(self, tmp_path, capsys):
        for name in ("run-a", "run-b"):
            (tmp_path / name).mkdir()
            _point_latest(tmp_path, tmp_path / name)
        assert os.readlink(tmp_path / "latest") == "run-b"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "latest", "run-a", "run-b"]   # no temp link left behind
        assert capsys.readouterr().out == ""

    def test_latest_that_is_a_directory_gives_a_note(self, tmp_path, capsys):
        (tmp_path / "run-a").mkdir()
        (tmp_path / "latest").mkdir()
        _point_latest(tmp_path, tmp_path / "run-a")
        out = capsys.readouterr().out
        assert out.startswith("note: could not refresh") and out.count("\n") == 1
        assert (tmp_path / "latest").is_dir() and not (tmp_path / "latest").is_symlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["latest", "run-a"]

    def test_run_directory_another_run_claims_is_skipped(self, tmp_path,
                                                         monkeypatch):
        # another cv makes the same-second name between any probe and
        # this run's mkdir
        class Fixed(datetime.datetime):
            @classmethod
            def now(cls, tz=None):
                return cls(2026, 1, 2, 3, 4, 5)

        monkeypatch.setattr("gbmpatch.cli._dt.datetime", Fixed)
        rival = tmp_path / "run-20260102-030405"
        real_mkdir = Path.mkdir

        def racing_mkdir(self, *args, **kwargs):
            if self == rival and not rival.exists():
                real_mkdir(rival)
            return real_mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", racing_mkdir)
        assert _make_run_dir(tmp_path) == tmp_path / "run-20260102-030405-1"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "run-20260102-030405", "run-20260102-030405-1"]

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

    def test_failed_run_leaves_no_run_directory(self, dataset, tmp_path,
                                                capsys):
        # dim 2**46 fails to allocate once training starts, after the
        # run directory was made
        out = tmp_path / "runs"
        assert main(["cv", "--data", str(dataset), "--out", str(out),
                     "--image-size", "28", "--folds", "3",
                     "--dim", str(2 ** 46), "--heads", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert out.is_dir() and not list(out.glob("run-*"))

    def test_killed_run_leaves_no_run_directory(self, dataset, tmp_path):
        # SIGKILL skips every cleanup; the kill lands while fold 1 of 2
        # trains (~1 s of 1000 epochs), before the run directory exists
        out = tmp_path / "runs"
        proc = subprocess.Popen(
            [sys.executable, "-m", "gbmpatch.cli", "cv", "--data",
             str(dataset), "--out", str(out), "--folds", "2", "--epochs",
             "1000", "--warmup-epochs", "0"] + SMALL_NET,
            stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
        line = ""
        try:
            for line in proc.stdout:
                if line.startswith("fold 0:"):
                    break
        finally:
            proc.kill()
            proc.wait(timeout=60)
            proc.stdout.close()
        assert line.startswith("fold 0:") and proc.returncode == -signal.SIGKILL
        assert out.is_dir() and not list(out.glob("run-*"))

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

    def test_every_artifact_written_atomically(self, dataset, tmp_path,
                                               monkeypatch):
        written = []

        def recording(path, *parts):
            written.append(Path(path).name)
            return write_atomic(path, *parts)

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
        ("encoder", "heads", 2.0),          # in no shape; broke the forward
        ("head", "bottleneck", 4.0),
        ("encoder", "depth", 10 ** 12),     # a table longer than the blob
    ])
    def test_bad_model_metadata_is_data_error(self, dataset, finished_run,
                                              tmp_path, capsys, section, key,
                                              value):
        _, run = finished_run
        path = tmp_path / "m.ckpt"
        edit_metadata(run / "model.ckpt", path, section, key, value)
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

    def test_prints_load_and_fold_seconds(self, finished_run, capsys):
        _, run = finished_run
        payload = json.loads((run / "run.json").read_text())
        assert main(["report", "--run", str(run)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"data loaded in {payload['load_s']:.2f} s" in lines
        folds = [l for l in lines if l.startswith("fold ")]
        assert len(folds) == 3
        for line, f in zip(folds, payload["folds"]):
            assert line.endswith(f", {f['wall_s']:.2f} s)")

    def test_prints_epoch_losses_before_each_fold(self, finished_run, capsys):
        _, run = finished_run
        payload = json.loads((run / "run.json").read_text())
        for f in payload["folds"]:
            assert len(f["epoch_losses"]) == f["epochs_run"] == 2
            assert f["epoch_losses"][-1] == f["final_loss"]
        assert main(["report", "--run", str(run)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith(("fold ", "  fold "))]
        want = []
        for f in payload["folds"]:
            want += [f"  fold {f['fold']} epoch {e}: loss {loss:.4f}"
                     for e, loss in enumerate(f["epoch_losses"])]
            want.append(f"fold {f['fold']}: micro f1")
        assert len(lines) == len(want) == 9
        for line, prefix in zip(lines, want):
            assert line.startswith(prefix), (line, prefix)

    def test_renders_a_run_json_without_timings(self, finished_run, tmp_path,
                                                capsys):
        _, run = finished_run
        payload = json.loads((run / "run.json").read_text())
        del payload["load_s"]
        for f in payload["folds"]:
            del f["wall_s"], f["epoch_losses"]
        (tmp_path / "run.json").write_text(json.dumps(payload))
        assert main(["report", "--run", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "data loaded" not in out and " epoch " not in out
        assert [l for l in out.splitlines() if l.startswith("fold ")][0].endswith(
            f"final loss {payload['folds'][0]['final_loss']:.4f})")

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
        lambda p: p["confusion"][0].__setitem__(0, "high"),
        lambda p: p.update(fold_average=[1]),
        lambda p: p["folds"][0].update(epoch_losses=["low"]),
        lambda p: p["folds"][0].update(epoch_losses=3),
        lambda p: p.pop("confusion"),
    ], ids=["empty_fold", "text_confusion_cell", "list_fold_average",
            "text_epoch_loss", "number_epoch_losses", "no_confusion"])
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

    @pytest.mark.parametrize("edit, says", [
        (lambda m: m[:3], "counts shape (3, 9)"),
        (lambda m: m + m[:3], "counts shape (12, 9)"),
        (lambda m: [row[:8] for row in m], "counts shape (9, 8)"),
        (lambda m: [m[0][:5]] + m[1:], "not a matrix"),
        (lambda m: [[c + 0.5 for c in row] for row in m], "float64"),
        (lambda m: [[c > 0 for c in row] for row in m], "bool"),
        (lambda m: [[True] + m[0][1:]] + m[1:], "bool"),
        (lambda m: [[str(c) for c in row] for row in m], "<U"),
        (lambda m: [[2 ** 70] + row[1:] for row in m], "object"),
        (lambda m: [[-1] + row[1:] for row in m], "nonnegative"),
        (lambda m: [[0] * 9 for _ in m], "at least one"),
    ], ids=["rows3", "rows12", "columns8", "ragged", "float", "bool",
            "int_and_bool", "string", "wide", "negative", "empty"])
    def test_confusion_not_nine_by_nine_counts_is_data_error(
            self, finished_run, tmp_path, capsys, edit, says):
        # report scores the stored matrix; one that is not 9 x 9
        # non-negative integers with a sample ends in one line, exit 3
        _, run = finished_run
        payload = json.loads((run / "run.json").read_text())
        payload["confusion"] = edit(payload["confusion"])
        (tmp_path / "run.json").write_text(json.dumps(payload))
        code = main(["report", "--run", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and says in err

    def test_table_is_scored_from_the_confusion(self, finished_run, tmp_path,
                                                capsys):
        # the stored scores are not read: the table is cv's report.txt,
        # scored again from the matrix
        _, run = finished_run
        payload = json.loads((run / "run.json").read_text())
        payload["micro"] = payload["per_class"] = "not read"
        (tmp_path / "run.json").write_text(json.dumps(payload))
        assert main(["report", "--run", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        assert "".join(lines[2:10]) == (run / "report.txt").read_text()


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


@pytest.mark.parametrize("entry", ["missing", "directory", "long_name"])
@pytest.mark.parametrize("command", ["cv", "eval"])
def test_unreadable_entry_exits_3(finished_run, tmp_path, capsys, command,
                                  entry):
    """An entry the loader cannot stat as a file ends in one error line."""
    root = tmp_path / "data"
    manifest = generate_synthetic(root, [3] * 9, seed=0, size=28)
    rel, label = manifest.entries[4]
    if entry == "long_name":
        manifest.entries[4] = "a" * 300, label
        manifest.save()
    else:
        (root / rel).unlink()
        if entry == "directory":
            (root / rel).mkdir()
    _, run = finished_run
    out = tmp_path / "runs"
    extra = {"cv": ["--out", str(out)] + SMALL_NET + QUICK_TRAIN,
             "eval": ["--checkpoint", str(run / "model.ckpt")]}[command]
    assert main([command, "--data", str(root)] + extra) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: manifest lists missing file")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not list(out.glob("run-*"))


# Each size asks for arrays past 128 TiB, the x86-64 user address space, so
# numpy is refused under any overcommit setting and no memory is touched. A
# size in the GiB range could be granted, and the test would then swap.
CV_QUICK = ["--image-size", "28"] + QUICK_TRAIN


@pytest.mark.parametrize("argv,says", [
    # dim 2**46: patch.w and even a float32 bias vector (256 TiB)
    (lambda tmp, data, ckpt: ["cv", "--data", data, "--out", tmp] + CV_QUICK
     + ["--dim", str(2 ** 46), "--heads", "1"], "out of memory"),
    # 2**40 registers at dim 32: reg is drawn as 256 TiB of float64
    (lambda tmp, data, ckpt: ["cv", "--data", data, "--out", tmp] + CV_QUICK
     + ["--registers", str(2 ** 40)], "out of memory"),
    # 27 images at 1400000 px: load_preprocessed's block is 577 TiB
    (lambda tmp, data, ckpt: ["cv", "--data", data, "--out", tmp] + CV_QUICK
     + ["--image-size", "1400000", "--tile-size", "14"], "out of memory"),
    # _render_patch's canvas is 213 PiB
    (lambda tmp, data, ckpt: ["gen-data", "--out", f"{tmp}/d",
                              "--size", "100000000"], "out of memory"),
    # metadata saying dim 2**46 fails the table check, before any allocation
    (lambda tmp, data, ckpt: ["eval", "--checkpoint", ckpt, "--data", data],
     "describe a model"),
], ids=["cv_dim", "cv_registers", "cv_image_size", "gen_data_size",
        "eval_metadata_dim"])
def test_unallocatable_size_exits_3(dataset, finished_run, tmp_path, capsys,
                                    argv, says):
    _, run = finished_run
    edit_metadata(run / "model.ckpt", tmp_path / "m.ckpt", "encoder", "dim",
                  2 ** 46)
    code = main(argv(str(tmp_path), str(dataset), str(tmp_path / "m.ckpt")))
    err = capsys.readouterr().err
    assert code == 3
    assert says in err
    assert err.count("\n") == 1 and "Traceback" not in err


class TestFormatReport:
    def test_layout(self):
        per_class = [MetricBundle(*[0.5] * len(METRIC_NAMES))] * 9
        micro = MetricBundle(*[0.25] * len(METRIC_NAMES))
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


def run_with_closed_stdout(args):
    """Run the CLI as a process whose stdout is a pipe with no reader, as
    under ``| head -1`` once ``head`` has exited."""
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run(
            [sys.executable, "-m", "gbmpatch.cli", *args], stdout=write,
            stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(SRC)),
            text=True, timeout=300)
    finally:
        os.close(write)


class TestClosedStdout:
    """A reader that goes away stops the progress lines, not the work."""

    def test_gen_data_finishes(self, tmp_path):
        out = tmp_path / "d"
        proc = run_with_closed_stdout(["gen-data", "--out", str(out),
                                       "--size", "16", "--counts",
                                       "2,1,1,1,1,1,1,1,1"])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert len(DatasetManifest.load(out).entries) == 10

    def test_cv_finishes(self, dataset, tmp_path):
        out = tmp_path / "runs"
        proc = run_with_closed_stdout(["cv", "--data", str(dataset), "--out",
                                       str(out), "--seed", "1"]
                                      + SMALL_NET + QUICK_TRAIN)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert (out / "latest" / "run.json").is_file()
        assert (out / "latest" / "model.ckpt").is_file()

    def test_error_still_exits_with_its_code(self, tmp_path):
        proc = run_with_closed_stdout(["cv", "--data", str(tmp_path / "none")])
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
