"""One workload in one fresh process; started by ``run.py`` with the BLAS
thread count pinned in its environment and ``src`` on ``PYTHONPATH``.

Writes a JSON result (timings, checks, provenance, per-layer metrics when
traced) to ``--result``. Every loop is closed: the next step, chunk or CLI
call starts only after the previous one returned.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import config  # noqa: E402
import tracing  # noqa: E402

clock = time.perf_counter


class Ledger:
    """Operations attempted, the ones that failed, and every check run.

    A failed check marks its operation failed; it is never dropped.
    """

    def __init__(self):
        self.kinds: dict = {}
        self.failed: set = set()
        self.checks: dict = {}
        self.errors: list = []

    def op(self, kind: str) -> tuple:
        n = self.kinds.get(kind, 0)
        self.kinds[kind] = n + 1
        return (kind, n)

    def fail(self, op, why: str):
        self.failed.add(op)
        if len(self.errors) < 20:
            self.errors.append(f"{op[0]}#{op[1]}: {why}")

    def check(self, name: str, ok: bool, op, why: str = ""):
        runs, fails = self.checks.get(name, (0, 0))
        self.checks[name] = (runs + 1, fails + (not ok))
        if not ok:
            self.fail(op, f"{name} {why}".strip())
        return ok

    @property
    def attempted(self) -> int:
        return sum(self.kinds.values())


def provenance(seed: int, cfg: dict) -> dict:
    import numpy as np
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (TypeError, KeyError):  # older numpy: no dict mode
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE.parent, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(HERE.parent.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "commit": commit,
        "seed": seed,
        "config": cfg,
        "model": config.MODEL,
        "batch": config.BATCH, "chunk": config.CHUNK, "lr": config.LR,
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def bits(value) -> str:
    return float(value).hex()


# ----------------------------------------------------------------------
# paper224 / desk56: train steps and predict chunks in this process


class StepWorkload:
    def __init__(self, cfg: dict, seed: int):
        import gbmpatch.cv
        import numpy as np
        from gbmpatch import (AdamState, EncoderConfig, HeadConfig,
                              PatchClassifier, TrainConfig)
        self.np, self.cfg = np, cfg
        # looked up at each call, so the tracer's rebinding is seen
        self.cv = gbmpatch.cv
        self.AdamState = AdamState
        self.PatchClassifier = PatchClassifier
        self.enc_cfg = EncoderConfig(image_size=cfg["image_size"], **config.MODEL)
        self.head_cfg = HeadConfig()
        self.train_cfg = TrainConfig(lr_max=config.LR, lr_min=config.LR)
        # inputs: class-offset noise tensors, balanced labels; the class
        # offsets are the corners of a cube (plus its centre) in RGB space
        rng = np.random.default_rng(seed)
        corners = [(0, 0, 0)] + [(a, b, c) for a in (-1, 1) for b in (-1, 1)
                                 for c in (-1, 1)]
        offsets = np.asarray(corners, dtype=np.float32) * config.SIGNAL
        size = cfg["image_size"]

        def draw(n):
            labels = rng.permutation(np.arange(n) % 9)
            images = rng.standard_normal((n, 3, size, size), dtype=np.float32)
            images += offsets[labels][:, :, None, None]
            return images, labels

        self.batches = [draw(config.BATCH) for _ in range(cfg["batches"])]
        self.eval_images, self.eval_labels = draw(cfg["eval_images"])
        self.new_model()

    def new_model(self):
        return self.PatchClassifier(self.enc_cfg, self.head_cfg,
                                    seed=config.MODEL_SEED)

    def repeat(self, ledger: Ledger, index: int, argmax: bool = True) -> dict:
        """Fresh model, the pinned train steps, then predict every chunk;
        with ``argmax``, one chunk is checked against ``logits``."""
        np = self.np
        t_train = clock()
        model = self.new_model()
        params = model.parameters()
        state = self.AdamState(params)
        losses, step_s, step_ops = [], [], []
        for i in range(self.cfg["steps"]):
            images, labels = self.batches[i % len(self.batches)]
            op = ledger.op("train_step")
            step_ops.append(op)
            t0 = clock()
            try:
                model.zero_grad()
                loss = model.loss(images, labels, train=True, dropout_seed=i)
                value = loss.item()
                loss.backward()
                self.cv.adam_step(params, state, config.LR, self.train_cfg)
            except Exception as exc:  # counted as a failed step
                ledger.fail(op, repr(exc))
                losses.append(None)
                continue
            step_s.append(clock() - t0)
            ledger.check("loss_finite", math.isfinite(value), op, repr(value))
            losses.append(value)
        train_wall = clock() - t_train

        preds, chunk_s, chunk_ops = [], [], []
        t_eval = clock()
        for start in range(0, len(self.eval_images), config.CHUNK):
            chunk = self.eval_images[start:start + config.CHUNK]
            op = ledger.op("predict_chunk")
            t0 = clock()
            try:
                out = model.predict(chunk)
            except Exception as exc:
                ledger.fail(op, repr(exc))
                out = None
            chunk_s.append(clock() - t0)
            preds.append(out)
            chunk_ops.append(op)
        eval_wall = clock() - t_eval

        # predict == argmax(logits) on one chunk per repeat, rotating
        k = index % len(preds)
        if argmax and preds[k] is not None:
            chunk = self.eval_images[k * config.CHUNK:(k + 1) * config.CHUNK]
            expected = np.argmax(model.logits(chunk).data, axis=1)
            ledger.check("predict_is_argmax",
                         bool(np.array_equal(preds[k], expected)), chunk_ops[k])
        return {"losses": losses, "step_s": step_s, "step_ops": step_ops,
                "train_wall": train_wall,
                "preds": preds, "chunk_s": chunk_s, "chunk_ops": chunk_ops,
                "eval_wall": eval_wall}

    def check_replay(self, ledger: Ledger, ref: dict, rep: dict, name: str):
        """Losses bit-identical and predictions equal to the first repeat."""
        for a, b, op in zip(ref["losses"], rep["losses"], rep["step_ops"]):
            ok = a is not None and b is not None and bits(a) == bits(b)
            ledger.check(name + "_losses", ok, op, f"{a} vs {b}")
        for a, b, op in zip(ref["preds"], rep["preds"], rep["chunk_ops"]):
            ok = a is not None and b is not None and self.np.array_equal(a, b)
            ledger.check(name + "_preds", ok, op)

    def micro_f1(self, preds) -> float:
        np = self.np
        if any(p is None for p in preds):
            return 0.0
        pred = np.concatenate(preds)
        # single-label micro precision = recall = F1 = trace / total
        return float((pred == self.eval_labels).sum()) / len(pred)


def run_steps(cfg: dict, args, result: dict, ledger: Ledger, ready):
    work = StepWorkload(cfg, args.seed)
    deadline = ready() + args.seconds
    reps = []
    while len(reps) < config.MIN_REPEATS or time.monotonic() < deadline:
        reps.append(work.repeat(ledger, len(reps)))
        if len(reps) > 1:
            work.check_replay(ledger, reps[0], reps[-1], "replay")
    step_s = [s for r in reps for s in r["step_s"]]
    chunk_s = [s for r in reps for s in r["chunk_s"]]
    batch = config.BATCH
    result["e2e"] = {
        "train_img_s": (batch / statistics.median(step_s), "img/s"),
        # chunk times are bimodal (page faults of the ~0.5 GiB chunk graph
        # come and go), so a median would flip between modes: use the mean
        "predict_img_s": (len(work.eval_images) * len(reps) / sum(chunk_s), "img/s"),
        "cv_wall_s": (statistics.median(r["train_wall"] for r in reps), "s"),
        "eval_wall_s": (statistics.median(r["eval_wall"] for r in reps), "s"),
        "cv_micro_f1": (work.micro_f1(reps[0]["preds"]), "frac"),
    }
    result["repeats"] = len(reps)
    result["samples"] = {"train_step": len(step_s), "predict_chunk": len(chunk_s)}
    result["raw_s"] = {"train_step": step_s, "predict_chunk": chunk_s}
    if not args.trace:
        return
    tracer = tracing.Tracer()
    ops = tracing.install(tracer)
    try:
        traced = work.repeat(ledger, len(reps), argmax=False)
    finally:
        tracer.uninstall()
    work.check_replay(ledger, reps[0], traced, "traced_replay")
    layers, repeats = tracing.layer_metrics([tracer.spans], ops,
                                            step_samples=step_s)
    traced_img_s = batch / statistics.median(traced["step_s"])
    layers["trace.overhead_frac"] = (
        1.0 - traced_img_s / result["e2e"]["train_img_s"][0], "frac")
    layers["trace.spans"] = (len(tracer.spans), "count")
    finish_trace(result, ledger, traced["step_ops"][0], layers, repeats,
                 [tracer.spans], args)


def finish_trace(result, ledger, op, layers, repeats, processes, args):
    """Store the per-layer metrics and spans; a count that did not repeat
    exactly fails ``op``, the traced run's first operation."""
    broken = repeats.broken()
    for name in sorted(repeats.values):
        ledger.check("exact_counts", name not in broken, op, name)
    result["layers"] = layers
    result["exact_counts"] = {k: v[:3] + (["..."] if len(v) > 3 else [])
                              for k, v in repeats.values.items()}
    spans_path = Path(args.result).with_suffix(".spans.json")
    spans_path.write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "extra"],
         "processes": processes}))
    result["spans_file"] = str(spans_path)


# ----------------------------------------------------------------------
# cv_e2e: gen-data, then cv + eval, each a CLI subprocess


class Cli:
    """Runs ``gbmpatch`` subcommands as subprocesses, traced on request."""

    def __init__(self, work: Path):
        self.work = work
        self.span_files: list = []

    def call(self, argv: list, traced: bool = False):
        cmd = [sys.executable, "-m", "gbmpatch.cli"]
        if traced:
            spans = self.work / f"spans-{len(self.span_files)}.json"
            self.span_files.append(spans)
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), "--"]
        t0 = clock()
        proc = subprocess.run(cmd + [str(a) for a in argv], capture_output=True,
                              text=True, cwd=self.work, timeout=900)
        return proc, clock() - t0


def trace_total(grid) -> tuple:
    return sum(grid[i][i] for i in range(len(grid))), sum(map(sum, grid))


def confusion_from_text(text: str):
    """The first count grid ``gbmpatch eval --confusion`` printed."""
    rows = []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 10 and all(p.isdigit() for p in parts[1:]):
            rows.append([int(p) for p in parts[1:]])
        elif rows:
            break
    return rows


def sync_tree(root: Path):
    """fsync every file under ``root``."""
    for path in sorted(root.rglob("*")):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def run_cli(cfg: dict, args, result: dict, ledger: Ledger, ready):
    work = Path(args.work)
    cli = Cli(work)
    data = work / "data"
    gen = ["gen-data", "--out", data, "--seed", args.seed,
           "--size", cfg["data_size"]]
    if cfg["counts"]:
        gen += ["--counts", ",".join(str(c) for c in cfg["counts"])]
    op = ledger.op("cli_call")
    proc, _ = cli.call(gen, traced=bool(args.trace))
    if not ledger.check("exit_zero", proc.returncode == 0, op, proc.stderr[-300:]):
        ready()
        return
    # the ~270 MiB just written would otherwise be written back by the
    # kernel some 30 s later, in the middle of the timed calls
    sync_tree(data)
    n_images = len(json.loads((data / "manifest.json").read_text())["entries"])
    deadline = ready() + args.seconds

    cv_args = ["--data", data, "--image-size", cfg["image_size"],
               "--tile-size", config.MODEL["tile_size"],
               "--dim", config.MODEL["dim"], "--depth", config.MODEL["depth"],
               "--heads", config.MODEL["heads"],
               "--registers", config.MODEL["registers"],
               "--mlp-ratio", config.MODEL["mlp_ratio"],
               "--folds", cfg["folds"], "--epochs", cfg["epochs"],
               "--warmup-epochs", 0, "--batch-size", config.BATCH,
               "--lr-max", cfg["lr_max"], "--lr-min", cfg["lr_min"],
               "--seed", cfg["cv_seed"]]
    reps = []

    def repeat(traced: bool) -> dict:
        r = len(reps)
        op = ledger.op("cli_call")
        rep = {"cv_wall": None, "eval_wall": None, "eval_walls": [], "f1": None,
               "cv_op": op}
        proc, rep["cv_wall"] = cli.call(
            ["cv", "--out", work / f"runs{r}"] + cv_args, traced)
        if not ledger.check("exit_zero", proc.returncode == 0, op,
                            proc.stderr[-300:]):
            return rep
        run_dirs = sorted((work / f"runs{r}").glob("run-*"))
        manifest = run_dirs[0] / "run.json" if run_dirs else None
        if not ledger.check("run_json_exists", bool(manifest and manifest.is_file()), op):
            return rep
        run = json.loads(manifest.read_text())
        trace, total = trace_total(run["confusion"])
        ledger.check("cv_total", total == n_images, op, f"{total} != {n_images}")
        for key in ("precision", "recall", "f1"):
            ledger.check("cv_micro_identity",
                         run["micro"][key] == trace / max(total, 1),
                         op, f"{key} {run['micro'][key]} != {trace}/{total}")
        ledger.check("cv_epochs_run", all(f["epochs_run"] == cfg["epochs"]
                                          for f in run["folds"]), op)
        rep["f1"] = run["micro"]["f1"]
        rep["metrics_csv"] = (run_dirs[0] / "metrics.csv").read_bytes()
        if reps and reps[0].get("metrics_csv") is not None:
            ledger.check("cv_metrics_csv_identical",
                         rep["metrics_csv"] == reps[0]["metrics_csv"], op)

        for k in range(cfg["evals"]):
            op = ledger.op("cli_call")
            csv = work / f"eval{r}-{k}.csv"
            proc, seconds = cli.call(
                ["eval", "--checkpoint", run_dirs[0] / "model.ckpt", "--data",
                 data, "--csv", csv, "--confusion"], traced)
            if not ledger.check("exit_zero", proc.returncode == 0, op,
                                proc.stderr[-300:]):
                return rep
            trace, total = trace_total(confusion_from_text(proc.stdout))
            ledger.check("eval_total", total == n_images, op,
                         f"{total} != {n_images}")
            if not ledger.check("eval_csv_exists", csv.is_file(), op):
                return rep
            lines = csv.read_text().splitlines()
            header, micro = lines[0].split(","), lines[-1].split(",")
            expect = f"{trace / max(total, 1):.6f}"
            for key in ("precision", "recall", "f1"):
                got = micro[header.index(key)]
                ledger.check("eval_micro_identity", got == expect, op,
                             f"{key} {got} != {expect}")
            text = csv.read_bytes()
            first = (reps[0] if reps else rep).get("eval_csv")
            if first is not None:
                ledger.check("eval_csv_identical", text == first, op)
            rep.setdefault("eval_csv", text)
            rep["eval_walls"].append(seconds)
        rep["eval_wall"] = statistics.median(rep["eval_walls"])
        return rep

    while len(reps) < cfg["min_repeats"] or time.monotonic() < deadline:
        reps.append(repeat(False))
    done = [r for r in reps if r["eval_wall"] is not None and r["f1"] is not None]
    if not done:
        return
    from gbmpatch.data import DEFAULT_PROFILE
    expected = sum(cfg["counts"] or DEFAULT_PROFILE)
    ledger.check("dataset_size", n_images == expected, ("cli_call", 0),
                 f"{n_images} != {expected}")
    cv_wall = statistics.median(r["cv_wall"] for r in done)
    eval_walls = [w for r in done for w in r["eval_walls"]]
    eval_wall = statistics.median(eval_walls)
    image_steps = (cfg["folds"] - 1) * n_images * cfg["epochs"]
    result["e2e"] = {
        "train_img_s": (image_steps / cv_wall, "img/s"),
        "predict_img_s": (n_images / eval_wall, "img/s"),
        "cv_wall_s": (cv_wall, "s"),
        "eval_wall_s": (eval_wall, "s"),
        "cv_micro_f1": (done[0]["f1"], "frac"),
    }
    result["repeats"] = len(reps)
    result["samples"] = {"cv": len(done), "eval": len(eval_walls),
                         "images": n_images}
    result["raw_s"] = {"cv": [r["cv_wall"] for r in done], "eval": eval_walls}
    if not args.trace:
        return
    traced = repeat(True)
    reps.append(traced)
    if traced["cv_wall"] is None:
        return
    processes, import_s, ops = [], [], set()
    for path in cli.span_files:
        if path.is_file():
            payload = json.loads(path.read_text())
            processes.append(payload["spans"])
            import_s.append(payload["import_s"])
            ops.update(payload["ops"])
    ops = sorted(ops)
    layers, repeats = tracing.layer_metrics(processes, ops, import_s=import_s)
    layers["trace.overhead_frac"] = (1.0 - cv_wall / traced["cv_wall"], "frac")
    layers["trace.spans"] = (sum(len(p) for p in processes), "count")
    finish_trace(result, ledger, traced["cv_op"], layers, repeats, processes,
                 args)


# ----------------------------------------------------------------------


class SetupDone(Exception):
    """Raised at the end of set-up in a ``--setup-only`` worker."""


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(config.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    # measure this checkout's sources, never an installed copy
    src = HERE.parent / "src"
    spec = importlib.util.find_spec("gbmpatch")
    if spec is None or src.resolve() not in Path(spec.origin).resolve().parents:
        print(f"worker: gbmpatch is not importable from {src}", file=sys.stderr)
        return 1

    cfg = config.workload_config(args.workload, args.smoke)
    ledger = Ledger()
    result = {"workload": args.workload, "smoke": args.smoke}

    def ready() -> float:
        result["ready_at"] = time.monotonic()
        if args.setup_only:
            raise SetupDone
        return result["ready_at"]

    runner = run_steps if cfg["kind"] == "steps" else run_cli
    try:
        runner(cfg, args, result, ledger, ready)
    except SetupDone:
        Path(args.result).write_text(json.dumps(result))
        return 0
    result["peak_rss_mb"] = peak_rss_mb()
    result["attempted"] = ledger.attempted
    result["failed"] = len(ledger.failed)
    result["checks"] = ledger.checks
    result["errors"] = ledger.errors
    result["provenance"] = provenance(args.seed, cfg)
    Path(args.result).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
