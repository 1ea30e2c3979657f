"""Smoke tests of the benchmark: every workload, untraced and traced, on a
tiny geometry and a tiny dataset.

    python3 -m pytest bench/test_smoke.py

They check that the last output line carries exactly the metrics
BENCHMARK.json declares, each with its declared unit, that every output
check ran and passed, and that the benchmark fails without printing a
result when the program it measures is missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3

STEP_CHECKS = {"loss_finite", "predict_is_argmax", "replay_losses",
               "replay_preds"}
CHECKS = {
    "paper224": STEP_CHECKS,
    "desk56": STEP_CHECKS,
    "cv_e2e": {"exit_zero", "run_json_exists", "cv_total", "cv_micro_identity",
               "cv_epochs_run", "cv_metrics_csv_identical", "eval_total",
               "eval_csv_exists", "eval_micro_identity", "eval_csv_identical",
               "dataset_size"},
}
TRACED_CHECKS = {
    "paper224": {"exact_counts", "traced_replay_losses", "traced_replay_preds"},
    "desk56": {"exact_counts", "traced_replay_losses", "traced_replay_preds"},
    "cv_e2e": {"exact_counts"},
}


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(CHECKS))
def test_smoke(workload, trace):
    proc = run_bench("--workload", workload, "--seed", str(SEED),
                     "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(final["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = final["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert f"{m['name']} " in proc.stdout, m["name"]

    result = json.loads((ROOT / ".bench_work" / "results" /
                         f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    measured = result["layers"] if trace else result["e2e_metrics"]
    assert {m["name"] for m in declared} <= set(measured)
    expected = CHECKS[workload] | (TRACED_CHECKS[workload] if trace else set())
    ran = {name for name, (runs, fails) in result["checks"].items()
           if runs > 0 and fails == 0}
    assert expected <= ran, expected - ran
    if not trace:
        for m in declared:
            assert measured[m["name"]][0] > 0, m["name"]


def test_fails_without_the_program():
    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench("--workload", "desk56", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
