"""Command-line front end: gen-data, cv, eval, report.

Exit codes: 0 success, 2 usage problems (bad flags and flag values),
3 data problems (bad manifests, classes too small, and paths that cannot
be read or written), 4 numeric failures (non-finite loss). ``cv`` drops
its artifacts into a timestamped run directory and refreshes a ``latest``
symlink; the run manifest (run.json) is written last, atomically, so an
interrupted run never looks complete.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import sys
from dataclasses import fields
from pathlib import Path

from .checkpoint import load_model, save_model
from .cv import TrainConfig, run_folds, summarize
from .data import (CLASS_CODES, DEFAULT_PROFILE, N_CLASSES, DatasetManifest,
                   generate_synthetic, load_preprocessed, parse_json_object,
                   write_atomic)
from .encoder import EncoderConfig
from .errors import (ContractError, DataError, DimensionError, NumericError,
                     ParameterError)
from .head import HeadConfig
from .metrics import (METRIC_NAMES, accumulate, confusion_text, metrics_csv,
                      score)

RUN_MANIFEST = "run.json"

# the cv settings are the fields of these configs, in this order
CV_CONFIGS = (TrainConfig, EncoderConfig, HeadConfig)


def _say(msg: str):
    print(msg, flush=True)


def _fail(msg: str):
    print(f"error: {msg}", file=sys.stderr, flush=True)


def format_report(per_class: list, micro: dict) -> str:
    """Fixed-width table: metric rows, one column per class plus Average.

    Per-class MCC cells render as -- (the summary column carries the
    multi-class coefficient).
    """
    width = 9
    header = "metric".ljust(12) + "".join(f"{n:>{width}}" for n in CLASS_CODES)
    header += f"{'Average':>{width + 2}}"
    lines = [header, "-" * len(header)]
    for name in METRIC_NAMES:
        cells = []
        for bundle in per_class:
            cells.append("--" if name == "mcc" else f"{bundle[name]:.4f}")
        row = name.ljust(12) + "".join(f"{c:>{width}}" for c in cells)
        row += f"{micro[name]:>{width + 2}.4f}"
        lines.append(row)
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# gen-data


def cmd_gen_data(args) -> int:
    out = Path(args.out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise ParameterError(
            f"{out} already has contents; pass --force to write anyway")
    counts = DEFAULT_PROFILE
    if args.counts:
        try:
            counts = [int(c) for c in args.counts.split(",")]
        except ValueError:
            raise ParameterError(f"--counts must be integers, got {args.counts!r}")
    manifest = generate_synthetic(out, counts, seed=args.seed, size=args.size)
    _say(f"wrote {len(manifest.entries)} patches under {out} "
         f"(seed {args.seed}, size {args.size})")
    for code, n in zip(CLASS_CODES, manifest.class_counts()):
        _say(f"  {code}: {n}")
    return 0


# ----------------------------------------------------------------------
# cv


def _settings(args) -> dict:
    """The cv settings from the parsed flags, in CV_CONFIGS field order."""
    return {f.name: getattr(args, f.name) for config in CV_CONFIGS
            for f in fields(config)}


def _build_configs(settings: dict) -> tuple:
    """One config per entry of CV_CONFIGS, from the flat settings."""
    return tuple(config(**{f.name: settings[f.name]
                           for f in fields(config)})
                 for config in CV_CONFIGS)


def _make_run_dir(base: Path) -> Path:
    base.mkdir(parents=True, exist_ok=True)
    stamp = _dt.datetime.now().strftime("run-%Y%m%d-%H%M%S")
    run = base / stamp
    bump = 0
    while run.exists():
        bump += 1
        run = base / f"{stamp}-{bump}"
    run.mkdir()
    return run


def _point_latest(base: Path, run: Path):
    link = base / "latest"
    try:
        if link.is_symlink() or link.exists():
            link.unlink()
        link.symlink_to(run.name)
    except OSError as exc:
        _say(f"note: could not refresh {link}: {exc}")


def cmd_cv(args) -> int:
    settings = _settings(args)
    train_cfg, enc_cfg, head_cfg = _build_configs(settings)

    manifest = DatasetManifest.load(args.data)
    _say(f"loaded {len(manifest.entries)} patches from {args.data}")
    images, labels = load_preprocessed(manifest, size=enc_cfg.image_size)

    run_dir = _make_run_dir(Path(args.out))
    _say(f"run directory: {run_dir}")

    fold_results, best, best_model = [], None, None
    for r, model in run_folds(images, labels, enc_cfg, head_cfg, train_cfg):
        if args.verbose:
            for epoch, loss in enumerate(r.epoch_losses):
                _say(f"  fold {r.fold} epoch {epoch}: loss {loss:.4f}")
        _say(f"fold {r.fold}: micro f1 {r.micro.f1:.4f} "
             f"after {len(r.epoch_losses)} epochs "
             f"(loss {r.epoch_losses[-1]:.4f})")
        fold_results.append(r)
        # the first fold with the best f1 keeps the checkpoint
        if best is None or r.micro.f1 > best.micro.f1:
            best, best_model = r, model
    result = summarize(fold_results)

    artifacts = ["metrics.csv", "confusion.txt", "report.txt", "model.ckpt"]
    write_atomic(run_dir / "metrics.csv",
                 metrics_csv(result.per_class, result.micro, CLASS_CODES))
    write_atomic(run_dir / "confusion.txt",
                 confusion_text(result.confusion, CLASS_CODES) + "\n"
                 + confusion_text(result.confusion, CLASS_CODES, normalized=True))
    report = format_report([b.as_dict() for b in result.per_class],
                           result.micro.as_dict())
    write_atomic(run_dir / "report.txt", report)
    save_model(run_dir / "model.ckpt", best_model,
               {"fold": best.fold, "micro_f1": float(best.micro.f1),
                "data": str(args.data)})

    payload = {
        "created": _dt.datetime.now().isoformat(timespec="seconds"),
        "data": str(args.data),
        "settings": settings,
        "per_class": [b.as_dict() for b in result.per_class],
        "micro": result.micro.as_dict(),
        "fold_average": result.fold_average,
        "confusion": result.confusion.counts.tolist(),
        "folds": [{"fold": r.fold, "epochs_run": len(r.epoch_losses),
                   "final_loss": r.epoch_losses[-1],
                   "micro": r.micro.as_dict()}
                  for r in result.fold_results],
        "best_fold": best.fold,
        "artifacts": artifacts,
    }
    # run.json lands last: its presence marks the run as complete
    write_atomic(run_dir / RUN_MANIFEST, json.dumps(payload, indent=1) + "\n")
    _point_latest(Path(args.out), run_dir)

    _say("")
    _say(report.rstrip("\n"))
    _say(f"\nsummed-matrix micro f1 {result.micro.f1:.4f}, "
         f"mcc {result.micro.mcc:.4f}; artifacts in {run_dir}")
    return 0


# ----------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    model, meta = load_model(args.checkpoint)
    manifest = DatasetManifest.load(args.data)
    images, labels = load_preprocessed(manifest,
                                       size=model.enc_cfg.image_size)
    cm = accumulate(model.predict(images), labels, N_CLASSES)
    per_class, micro = score(cm)
    report = format_report([b.as_dict() for b in per_class], micro.as_dict())
    _say(f"checkpoint {args.checkpoint} "
         f"(trained fold {meta.get('fold', '?')}) on {args.data}:")
    _say("")
    _say(report.rstrip("\n"))
    if args.csv:
        write_atomic(args.csv, metrics_csv(per_class, micro, CLASS_CODES))
        _say(f"\nwrote {args.csv}")
    if args.confusion:
        _say("")
        _say(confusion_text(cm, CLASS_CODES).rstrip("\n"))
    return 0


# ----------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    run_dir = Path(args.run)
    path = run_dir / RUN_MANIFEST
    if not path.is_file():
        raise DataError(f"{run_dir} has no {RUN_MANIFEST}; not a finished run")
    payload = parse_json_object(path.read_bytes(), str(path))
    # the whole text is built before any of it prints, so a malformed
    # field fails the command without a partial table on stdout
    try:
        lines = [f"run {run_dir} over {payload.get('data', '?')} "
                 f"({payload.get('created', '?')})", "",
                 format_report(payload["per_class"],
                               payload["micro"]).rstrip("\n"), ""]
        for f in payload["folds"]:
            lines.append(
                f"fold {f['fold']}: micro f1 {f['micro']['f1']:.4f} "
                f"({f['epochs_run']} epochs, final loss "
                f"{f['final_loss']:.4f})")
        avg = ", ".join(f"{k} {v:.4f}"
                        for k, v in payload["fold_average"].items())
    except (KeyError, TypeError, ValueError, AttributeError,
            OverflowError) as exc:
        raise DataError(f"{path} has malformed fields: {exc!r}")
    lines.append(f"fold-average micro metrics: {avg}")
    _say("\n".join(lines))
    return 0


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbmpatch",
        description="desk-scale 9-class tissue-patch classification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write a synthetic labeled dataset")
    g.add_argument("--out", required=True, help="dataset directory")
    g.add_argument("--counts",
                   help="9 comma-separated per-class counts "
                        "(default long-tailed profile)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--size", type=int, default=224, help="patch side length")
    g.add_argument("--force", action="store_true",
                   help="write into a non-empty directory")
    g.set_defaults(func=cmd_gen_data)

    c = sub.add_parser("cv", help="stratified k-fold cross-validation")
    c.add_argument("--data", required=True, help="dataset directory")
    c.add_argument("--out", default="runs", help="where run directories go")
    c.add_argument("--verbose", action="store_true",
                   help="print every epoch")
    for config in CV_CONFIGS:
        for f in fields(config):
            c.add_argument("--" + f.name.replace("_", "-"),
                           type=type(f.default), default=f.default,
                           help=f"default {f.default}")
    c.set_defaults(func=cmd_cv)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--csv", help="also write the per-class metrics CSV here")
    e.add_argument("--confusion", action="store_true",
                   help="also print the confusion matrix")
    e.set_defaults(func=cmd_eval)

    r = sub.add_parser("report", help="re-render the table for a finished run")
    r.add_argument("--run", required=True, help="run directory (or latest)")
    r.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, DimensionError, ContractError) as exc:
        _fail(str(exc))
        return 2
    except (DataError, OSError) as exc:
        _fail(str(exc))
        return 3
    except NumericError as exc:
        _fail(str(exc))
        return 4


if __name__ == "__main__":
    sys.exit(main())
