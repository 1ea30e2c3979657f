"""Stratified k-fold cross-validation with warmup+cosine AdamW training.

Every source of randomness (fold deal, fresh weights per fold, batch
order, dropout masks) derives from one integer seed, so a run is exactly
reproducible. Folds are dealt round-robin per class, which keeps the
per-class spread across folds within one sample even on long-tailed data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .data import CLASS_CODES, N_CLASSES
from .encoder import EncoderConfig
from .errors import (NumericError, ParameterError, StratificationError,
                     as_int, settle)
from .head import HeadConfig
from .metrics import (METRIC_NAMES, ConfusionMatrix, MetricBundle,
                      accumulate, micro_average, score)
from .model import PatchClassifier

# Adam moment decay rates and denominator floor (Kingma & Ba defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    folds: int = 5
    epochs: int = 20
    warmup_epochs: int = 1
    batch_size: int = 32
    lr_max: float = 1e-5
    lr_min: float = 1e-6
    weight_decay: float = 0.01
    seed: int = 0

    def __post_init__(self):
        settle(self, {"folds": 2, "epochs": 1, "warmup_epochs": 0,
                      "batch_size": 1, "seed": 0},
               ("lr_max", "lr_min", "weight_decay"))
        if self.warmup_epochs >= self.epochs:
            raise ParameterError(
                f"warmup_epochs {self.warmup_epochs} must lie in "
                f"[0, epochs={self.epochs})")
        if not 0 < self.lr_min <= self.lr_max < math.inf:
            raise ParameterError(
                f"need 0 < lr_min <= lr_max < inf, got {self.lr_min}, {self.lr_max}")
        if not 0 <= self.weight_decay < math.inf:
            raise ParameterError(
                f"weight_decay must be finite and nonnegative, got {self.weight_decay}")


@dataclass
class FoldResult:
    fold: int
    confusion: ConfusionMatrix          # held-out predictions vs labels
    epoch_losses: List[float]           # one mean training loss per epoch

    @property
    def micro(self) -> MetricBundle:
        return micro_average(self.confusion)


@dataclass
class CVResult:
    fold_results: List[FoldResult]
    confusion: ConfusionMatrix          # summed over folds
    micro: MetricBundle                 # from the summed matrix
    per_class: List[MetricBundle]       # from the summed matrix
    fold_average: Dict[str, float] = field(default_factory=dict)


# ----------------------------------------------------------------------
# fold assembly


def stratified_kfold(labels: Sequence[int], folds: int,
                     seed: int = 0) -> np.ndarray:
    """Per-class shuffle, then deal one fold id per image round-robin.

    Returns the int64 fold id of every image. Fold f holds out the images
    whose id is f, in ascending order, and trains on the rest, so the
    folds partition the index range by construction. Within every class
    the fold sizes differ by at most one. A class with fewer samples than
    folds cannot be spread over every fold and is rejected by name.
    """
    labels = np.asarray(labels, dtype=np.int64)
    folds, seed = as_int(folds, "folds", 2), as_int(seed, "seed", 0)
    fold_of = np.empty(len(labels), dtype=np.int64)
    rng = np.random.default_rng(seed)
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        if len(members) < folds:
            name = CLASS_CODES[cls] if cls < len(CLASS_CODES) else str(cls)
            raise StratificationError(
                f"class {name} has {len(members)} samples, fewer than "
                f"{folds} folds")
        fold_of[members[rng.permutation(len(members))]] = (
            np.arange(len(members)) % folds)
    return fold_of


# ----------------------------------------------------------------------
# schedule and optimizer


def lr_at(step: int, total_steps: int, warmup_steps: int,
          lr_max: float, lr_min: float) -> float:
    """Linear warmup from 0 to lr_max, then cosine decay to lr_min.

    lr(0) = 0 when warmup is on, lr(warmup_steps) = lr_max up to one
    rounding, and lr(total_steps - 1) = lr_min exactly. Where those two
    steps coincide, warmup decides: with it the step ends the schedule at
    lr_min (lr_at(1, 2, 1, ...)); without it, a one-step schedule runs at
    lr_max (lr_at(0, 1, 0, ...)).
    """
    # the warmup range is empty unless total_steps >= 1
    if not 0 <= warmup_steps < total_steps:
        raise ParameterError(
            f"warmup_steps {warmup_steps} outside [0, {total_steps})")
    if not 0 <= step < total_steps:
        raise ParameterError(f"step {step} outside [0, {total_steps})")
    if step < warmup_steps:
        return lr_max * step / warmup_steps
    span = total_steps - 1 - warmup_steps
    if span <= 0:
        return lr_min if step == total_steps - 1 and warmup_steps else lr_max
    progress = (step - warmup_steps) / span
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * progress))


class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self, params: Dict[str, "object"]):
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0


def adam_step(params: Dict[str, "object"], state: AdamState, lr: float,
              cfg: TrainConfig):
    """Decoupled weight decay, then a bias-corrected Adam update.

    Decay multiplies each weight by (1 - lr * wd) before the moment
    update, so it never leaks into the running moments.
    """
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        p.data *= 1.0 - lr * cfg.weight_decay
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p.data -= lr * update


# ----------------------------------------------------------------------
# training


def train_fold(images: np.ndarray, labels: np.ndarray, fold_of: np.ndarray,
               fold: int, enc_cfg: EncoderConfig, head_cfg: HeadConfig,
               cfg: TrainConfig):
    """Train a fresh model on the images whose ``fold_of`` id is not
    ``fold`` for cfg.epochs epochs, then score the held-out rows, whose id
    is ``fold``; returns (FoldResult, model)."""
    labels = np.asarray(labels, dtype=np.int64)
    model = PatchClassifier(enc_cfg, head_cfg, seed=cfg.seed * 1000 + fold)
    params = model.parameters()
    state = AdamState(params)

    tr = np.flatnonzero(fold_of != fold)
    steps_per_epoch = math.ceil(len(tr) / cfg.batch_size)
    total_steps = steps_per_epoch * cfg.epochs
    warmup_steps = steps_per_epoch * cfg.warmup_epochs

    epoch_losses: List[float] = []
    step = 0
    # an overflow shows as a non-finite loss or parameter, which the checks
    # below report in one error; numpy's warnings would only repeat it
    with np.errstate(all="ignore"):
        for epoch in range(cfg.epochs):
            order = np.random.default_rng(
                [cfg.seed, fold, epoch]).permutation(len(tr))
            running = 0.0
            for b in range(steps_per_epoch):
                batch = tr[order[b * cfg.batch_size:(b + 1) * cfg.batch_size]]
                model.zero_grad()
                loss = model.loss(images[batch], labels[batch], train=True,
                                  dropout_seed=cfg.seed * 1_000_003
                                  + fold * 10_007 + step)
                value = loss.item()
                if not math.isfinite(value):
                    raise NumericError(
                        f"non-finite loss {value} at fold {fold} "
                        f"epoch {epoch} step {step}")
                loss.backward()
                adam_step(params, state,
                          lr_at(step, total_steps, warmup_steps,
                                cfg.lr_max, cfg.lr_min), cfg)
                running += value * len(batch)
                step += 1
            epoch_losses.append(running / len(tr))
    # each loss was checked before its update; this covers the last one
    for name, p in params.items():
        if not np.isfinite(p.data).all():
            raise NumericError(
                f"non-finite parameter {name} after training fold {fold}")

    val = np.flatnonzero(fold_of == fold)
    cm = accumulate(model.predict(images, rows=val), labels[val], N_CLASSES)
    return FoldResult(fold, cm, epoch_losses), model


def run_folds(images: np.ndarray, labels: np.ndarray,
              enc_cfg: EncoderConfig, head_cfg: HeadConfig, cfg: TrainConfig
              ) -> Iterator[Tuple[FoldResult, PatchClassifier]]:
    """Yield (FoldResult, model) for each stratified fold as it finishes.

    Lazy: a fold trains only when the caller asks for it, so the caller
    can report, checkpoint or stop between folds.
    """
    fold_of = stratified_kfold(labels, cfg.folds, cfg.seed)
    for fold in range(cfg.folds):
        yield train_fold(images, labels, fold_of, fold, enc_cfg, head_cfg, cfg)


def summarize(fold_results: Iterable[FoldResult]) -> CVResult:
    """Aggregate folds: summed confusion matrix, metrics of that matrix,
    and the plain mean of per-fold micro metrics."""
    results = list(fold_results)
    total = ConfusionMatrix(N_CLASSES, sum(r.confusion.counts for r in results))
    per_class, micro = score(total)
    fold_average = {
        name: float(np.mean([getattr(r.micro, name) for r in results]))
        for name in METRIC_NAMES
    }
    return CVResult(fold_results=results, confusion=total, micro=micro,
                    per_class=per_class, fold_average=fold_average)
