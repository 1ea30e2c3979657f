"""Every walkthrough under demos/ runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo, tmp_path) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    run_demo(demo, tmp_path)


def test_checkpoint_demo_prints_the_two_header_lines(tmp_path):
    out = run_demo(ROOT / "demos" / "checkpoint_roundtrip.py", tmp_path)
    lines = out.splitlines()
    assert lines[1].split()[0] == "GBMPATCH-CKPT-3"
    assert lines[2].lstrip().startswith('{"encoder": {')
    assert "reloaded logits bit-identical: True" in out
