"""Fuzz ``cli.main`` with argv built from the parser's real flags.

Whatever the flags and whatever the files they name, ``main`` returns 0,
2, 3 or 4 (a non-zero code with one ``error:`` line on stderr) or argparse
exits 2; nothing else escapes. Path-valued flags draw from a fixed tree
holding a dataset, a dataset with no patches, a finished run, a plain
file, an empty directory, missing paths and a corrupted ``run.json``,
manifest and checkpoint. Each
example runs in a fresh copy of that tree, so one that writes cannot
change the next. Numbers come from small ranges plus zero and negatives,
and every ``cv`` example sets the image size, epochs and folds, so it
trains for a few steps on 27 images of 28 px at most. Beside the fuzz, a
fixed grid sets each path flag of each subcommand to each tree entry
with every other value clean.
"""

import argparse
import shutil
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gbmpatch.cli import build_parser, main
from gbmpatch.data import MANIFEST_NAME, DatasetManifest, generate_synthetic

# each example copies the tree and chdirs itself, so the function-scoped
# fixtures are reset by hand between examples
FUZZ = settings(max_examples=40, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.function_scoped_fixture])

PATHS = ["data", "baddata", "nodata", "run", "badrun", "run/model.ckpt",
         "bad.ckpt", "file.txt", "empty", "missing", "missing/sub",
         "file.txt/sub"]
# per path flag, the tree entry a clean example uses
GOOD_PATH = {"data": "data", "checkpoint": "run/model.ckpt", "run": "run",
             "out": "missing", "csv": "missing"}
# flags every example of a subcommand sets, to bound its work
ALWAYS = {"gen-data": {"counts", "size"},
          "cv": {"image_size", "epochs", "folds", "warmup_epochs"}}

# values a clean example draws, per flag; an edge example also draws the
# zero, negative, non-dividing and non-finite ones
GOOD = {"counts": ["1,1,1,1,1,1,1,1,1", "1,0,0,0,0,0,0,0,0"],
        "size": [1, 8, 16], "image_size": [14, 28], "tile_size": [7, 14],
        "dim": [4, 8], "heads": [1, 2], "depth": [0, 1, 2],
        "registers": [0, 1, 2], "folds": [2, 3], "epochs": [1, 2],
        "warmup_epochs": [0], "seed": [0, 1, 2], "batch_size": [1, 8, 32],
        "lr_max": [1e-3, 1e-2], "lr_min": [1e-6, 1e-4],
        "weight_decay": [0.0, 0.01], "dropout": [0.0, 0.5]}
GOOD_INTS, GOOD_FLOATS = [1, 2], [0.0, 0.01]
EDGE_INTS = [-1, 0, 3]
EDGE_FLOATS = [-1.0, 0.0, 1.0, "nan", "inf", "-inf"]
EDGE_COUNTS = ["0,0,0,0,0,0,0,0,0", "1,2,3", "-1,1,1,1,1,1,1,1,1", "a,b",
               "", ","]


def _subparsers():
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _flag_values(action, clean):
    """The strategy for one flag's argv words; ``--flag=value`` keeps a
    negative value from reading as a flag."""
    flag = action.option_strings[0]
    if action.nargs == 0:                      # --force, --verbose
        return st.just([flag])
    if action.dest in GOOD_PATH:
        values = [GOOD_PATH[action.dest]] if clean else PATHS
    elif action.dest == "counts":
        values = GOOD["counts"] + ([] if clean else EDGE_COUNTS)
    elif action.type in (int, float):
        ints = action.type is int
        values = GOOD.get(action.dest, GOOD_INTS if ints else GOOD_FLOATS)
        if not clean:
            values = values + (EDGE_INTS if ints else EDGE_FLOATS)
    else:
        raise AssertionError(f"no fuzz values for {flag}")
    return st.sampled_from(values).map(lambda v: [f"{flag}={v}"])


@st.composite
def argvs(draw, command):
    """argv for ``command``: a clean example keeps every value valid, so
    it reaches training and the writers; an edge example may not."""
    clean = draw(st.booleans())
    argv = [command]
    for action in _subparsers()[command]._actions:
        if not action.option_strings or action.dest == "help":
            continue
        if (action.required or action.dest in ALWAYS.get(command, ())
                or draw(st.booleans())):
            argv += draw(_flag_values(action, clean))
    return argv


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """The pristine file tree every example starts from."""
    root = tmp_path_factory.mktemp("tree")
    generate_synthetic(root / "data", [3] * 9, seed=0, size=28)
    assert main(["cv", "--data", str(root / "data"), "--out",
                 str(root / "runs"), "--image-size", "28", "--dim", "4",
                 "--depth", "1", "--heads", "1", "--folds", "3",
                 "--epochs", "1", "--warmup-epochs", "0", "--seed", "1"]) == 0
    run = next((root / "runs").glob("run-*"))
    shutil.move(str(run), str(root / "run"))
    shutil.rmtree(root / "runs")
    (root / "file.txt").write_text("not json, not a dataset\n")
    (root / "empty").mkdir()
    shutil.copytree(root / "data", root / "baddata")
    manifest = (root / "data" / MANIFEST_NAME).read_bytes()
    (root / "baddata" / MANIFEST_NAME).write_bytes(manifest[:len(manifest) // 2])
    (root / "nodata").mkdir()
    DatasetManifest(root=root / "nodata", entries=[], seed=0).save()
    (root / "badrun").mkdir()
    run_json = (root / "run" / "run.json").read_bytes()
    (root / "badrun" / "run.json").write_bytes(run_json[:len(run_json) // 2])
    ckpt = (root / "run" / "model.ckpt").read_bytes()
    (root / "bad.ckpt").write_bytes(ckpt[:len(ckpt) * 2 // 3])
    return root


def _exits_cleanly(tree, tmp_path, monkeypatch, capsys, argv):
    """Run ``argv`` in a fresh copy of the tree and check the contract."""
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    shutil.copytree(tree, work, dirs_exist_ok=True)
    monkeypatch.chdir(work)
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        return
    finally:
        monkeypatch.chdir(tmp_path)
        shutil.rmtree(work)
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), argv
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


@pytest.mark.parametrize("command", sorted(_subparsers()))
@FUZZ
@given(data=st.data())
def test_any_argv_exits_cleanly(tree, tmp_path, monkeypatch, capsys,
                                command, data):
    argv = data.draw(argvs(command), label="argv")
    _exits_cleanly(tree, tmp_path, monkeypatch, capsys, argv)


# (command, path flag, tree entry): every entry for every path flag
PATH_GRID = [(command, action.dest, entry)
             for command, parser in sorted(_subparsers().items())
             for action in parser._actions if action.dest in GOOD_PATH
             for entry in PATHS]


def _clean_argv(command, bad_flag, entry):
    """argv that sets ``bad_flag`` to ``entry``, every other required path
    flag to its clean entry and the bounding flags to their first clean
    value."""
    argv = [command]
    for action in _subparsers()[command]._actions:
        if action.dest == bad_flag:
            argv.append(f"{action.option_strings[0]}={entry}")
        elif action.dest in GOOD_PATH and action.required:
            argv.append(f"{action.option_strings[0]}={GOOD_PATH[action.dest]}")
        elif action.dest in ALWAYS.get(command, ()):
            argv.append(f"{action.option_strings[0]}={GOOD[action.dest][0]}")
    return argv


@pytest.mark.parametrize("command,flag,entry", PATH_GRID,
                         ids=["-".join(case) for case in PATH_GRID])
def test_each_bad_path_exits_cleanly(tree, tmp_path, monkeypatch, capsys,
                                     command, flag, entry):
    """The fuzz rarely pairs a bad path with otherwise valid flags, which
    is what reaches the data-dependent failures behind a path."""
    argv = _clean_argv(command, flag, entry)
    _exits_cleanly(tree, tmp_path, monkeypatch, capsys, argv)
