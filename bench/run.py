"""gbmpatch benchmark: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload {paper224,desk56,cv_e2e,all}
                         --seed N --seconds S --trace {0,1} [--smoke]

Each workload runs in a fresh worker process (``worker.py``) whose
environment pins the BLAS thread count and puts this checkout's ``src`` on
``PYTHONPATH``; set-up is also timed in fresh set-up-only processes and
reported as the median. Prints one ``name value unit`` line per metric,
the provenance, and as the last line a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``. A layer that did no work on a workload reports 0. Full
results (and spans, when traced) land in ``.bench_work/results``.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import config  # noqa: E402

WORK = ROOT / ".bench_work"
WORKER_TIMEOUT_S = 900


class WorkerFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(config.BLAS_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # every run compiles the same sources, so set-up time does not depend
    # on whether an earlier run left bytecode behind
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(args, workload: str, work: Path, result: Path, setup_only: bool):
    """Run one worker to completion; returns (result dict, set-up seconds)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work),
           "--result", str(result)]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(), cwd=work, stdout=sys.stderr,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not result.is_file():
        raise WorkerFailed(f"{workload} worker exited with {proc.returncode}")
    out = json.loads(result.read_text())
    return out, out["ready_at"] - started


def run_workload(args, workload: str) -> dict:
    kind = config.WORKLOADS[workload]["kind"]
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = WORK / f"{workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups = []
        for i in range(0 if args.trace else config.SETUP_PROBES[kind]):
            probe = work / f"probe{i}"
            probe.mkdir(parents=True)
            _, seconds = spawn(args, workload, probe, probe / "result.json", True)
            setups.append(seconds)
        work.mkdir(parents=True, exist_ok=True)
        result_path = results / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        result, seconds = spawn(args, workload, work, result_path, False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(seconds)
    metrics = dict(result.get("e2e", {}))
    metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MiB")
    metrics["setup_s"] = (statistics.median(setups), "s")
    attempted, failed = result["attempted"], result["failed"]
    metrics["ops_ok_frac"] = (1.0 - failed / max(attempted, 1), "frac")
    result["setup_samples_s"] = setups
    result["e2e_metrics"] = metrics
    result_path.write_text(json.dumps(result, indent=1))
    return result


def declared(trace: int) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def report(args, workload: str, result: dict) -> dict:
    """Print every metric with its unit; return the declared ones."""
    measured = result.get("layers", {}) if args.trace else result["e2e_metrics"]
    chosen = {}
    for entry in declared(args.trace):
        value, unit = measured.get(entry["name"], (0.0, entry["unit"]))
        chosen[entry["name"]] = {"value": value, "unit": unit}
    print(f"# workload {workload} seed {args.seed} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}: {result.get('repeats', 0)} repeats,"
          f" samples {result.get('samples', {})}")
    for name, (value, unit) in sorted(measured.items()):
        mark = "" if name in chosen else "  (not in BENCHMARK.json)"
        print(f"{name:40s} {value:>14.6g} {unit}{mark}")
    for name in sorted(set(chosen) - set(measured)):
        print(f"{name:40s} {0.0:>14.6g} {chosen[name]['unit']}  (not measured, reported as 0)")
    for name, (runs, fails) in sorted(result["checks"].items()):
        print(f"check {name:34s} {runs - fails}/{runs} passed")
    for line in result["errors"]:
        print(f"error {line}")
    prov = result["provenance"]
    print("# provenance " + json.dumps(prov, sort_keys=True))
    return chosen


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=sorted(config.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny geometry and dataset, finishes in seconds")
    args = p.parse_args(argv)

    names = list(config.WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in names:
            result = run_workload(args, workload)
            chosen = report(args, workload, result)
            summary["correct"] &= result["failed"] == 0 and result["attempted"] > 0
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            prefix = f"{workload}/" if len(names) > 1 else ""
            summary["metrics"].update({prefix + k: v for k, v in chosen.items()})
    except (WorkerFailed, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
