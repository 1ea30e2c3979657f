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
from .errors import NumericError, ParameterError, StratificationError
from .head import HeadConfig
from .metrics import (METRIC_NAMES, ConfusionMatrix, MetricBundle, accumulate,
                      micro_average, score)
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
    freeze_encoder: bool = False

    def __post_init__(self):
        if self.folds < 2:
            raise ParameterError(f"need at least 2 folds, got {self.folds}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ParameterError("epochs and batch_size must be positive")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ParameterError(
                f"warmup_epochs {self.warmup_epochs} must lie in "
                f"[0, epochs={self.epochs})")
        if not 0 < self.lr_min <= self.lr_max < math.inf:
            raise ParameterError(
                f"need 0 < lr_min <= lr_max < inf, got {self.lr_min}, {self.lr_max}")
        if not 0 <= self.weight_decay < math.inf:
            raise ParameterError(
                f"weight_decay must be finite and nonnegative, got {self.weight_decay}")
        if self.seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class FoldAssignment:
    fold: int
    train_idx: np.ndarray
    val_idx: np.ndarray


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
                     seed: int = 0) -> List[FoldAssignment]:
    """Per-class shuffle, then deal indices round-robin across folds.

    Guarantees: folds partition the index range, and within every class
    the fold sizes differ by at most one. A class with fewer samples than
    folds cannot be spread over every fold and is rejected by name.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if folds < 2:
        raise ParameterError(f"need at least 2 folds, got {folds}")
    buckets: List[List[int]] = [[] for _ in range(folds)]
    rng = np.random.default_rng(seed)
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        if len(members) < folds:
            name = CLASS_CODES[cls] if cls < len(CLASS_CODES) else str(cls)
            raise StratificationError(
                f"class {name} has {len(members)} samples, fewer than "
                f"{folds} folds")
        members = members[rng.permutation(len(members))]
        for f in range(folds):
            buckets[f].extend(members[f::folds])
    assignments = []
    everything = np.arange(len(labels))
    for f in range(folds):
        val = np.sort(np.asarray(buckets[f], dtype=np.int64))
        train = np.setdiff1d(everything, val, assume_unique=False)
        assignments.append(FoldAssignment(fold=f, train_idx=train, val_idx=val))
    return assignments


# ----------------------------------------------------------------------
# schedule and optimizer


def lr_at(step: int, total_steps: int, warmup_steps: int,
          lr_max: float, lr_min: float) -> float:
    """Linear warmup from 0 to lr_max, then cosine decay to lr_min.

    lr(0) = 0 when warmup is on, lr(warmup_steps) = lr_max exactly, and
    lr(total_steps - 1) = lr_min exactly.
    """
    if total_steps < 1:
        raise ParameterError(f"total_steps must be >= 1, got {total_steps}")
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
        if cfg.weight_decay:
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


def train_fold(images: np.ndarray, labels: np.ndarray,
               assignment: FoldAssignment, enc_cfg: EncoderConfig,
               head_cfg: HeadConfig, cfg: TrainConfig):
    """Train a fresh model on one fold for cfg.epochs epochs; returns
    (FoldResult, model)."""
    labels = np.asarray(labels, dtype=np.int64)
    model = PatchClassifier(enc_cfg, head_cfg,
                            seed=cfg.seed * 1000 + assignment.fold)
    if cfg.freeze_encoder:
        # untracked weights: the encoder forward records no graph
        for p in model.encoder.values():
            p.requires_grad = False
    params = {k: p for k, p in model.parameters().items() if p.requires_grad}
    state = AdamState(params)

    tr = assignment.train_idx
    steps_per_epoch = math.ceil(len(tr) / cfg.batch_size)
    total_steps = steps_per_epoch * cfg.epochs
    warmup_steps = steps_per_epoch * cfg.warmup_epochs

    epoch_losses: List[float] = []
    step = 0
    for epoch in range(cfg.epochs):
        order = np.random.default_rng(
            [cfg.seed, assignment.fold, epoch]).permutation(len(tr))
        running = 0.0
        for b in range(steps_per_epoch):
            batch = tr[order[b * cfg.batch_size:(b + 1) * cfg.batch_size]]
            model.zero_grad()
            loss = model.loss(images[batch], labels[batch], train=True,
                              dropout_seed=cfg.seed * 1_000_003
                              + assignment.fold * 10_007 + step)
            value = loss.item()
            if not math.isfinite(value):
                raise NumericError(
                    f"non-finite loss {value} at fold {assignment.fold} "
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
                f"non-finite parameter {name} after training fold {assignment.fold}")

    val = assignment.val_idx
    cm = accumulate(model.predict(images[val]), labels[val], N_CLASSES)
    return FoldResult(assignment.fold, cm, epoch_losses), model


def run_folds(images: np.ndarray, labels: np.ndarray,
              enc_cfg: EncoderConfig, head_cfg: HeadConfig, cfg: TrainConfig
              ) -> Iterator[Tuple[FoldResult, PatchClassifier]]:
    """Yield (FoldResult, model) for each stratified fold as it finishes.

    Lazy: a fold trains only when the caller asks for it, so the caller
    can report, checkpoint or stop between folds.
    """
    labels = np.asarray(labels, dtype=np.int64)
    for assignment in stratified_kfold(labels, cfg.folds, cfg.seed):
        yield train_fold(images, labels, assignment, enc_cfg, head_cfg, cfg)


def summarize(fold_results: Iterable[FoldResult]) -> CVResult:
    """Aggregate folds: summed confusion matrix, metrics of that matrix,
    and the plain mean of per-fold micro metrics."""
    results = list(fold_results)
    total = ConfusionMatrix(N_CLASSES)
    for result in results:
        total = total.merge(result.confusion)
    per_class, micro = score(total)
    fold_average = {
        name: float(np.mean([getattr(r.micro, name) for r in results]))
        for name in METRIC_NAMES
    }
    return CVResult(fold_results=results, confusion=total, micro=micro,
                    per_class=per_class, fold_average=fold_average)


def cross_validate(images: np.ndarray, labels: np.ndarray,
                   enc_cfg: EncoderConfig, head_cfg: HeadConfig,
                   cfg: TrainConfig) -> CVResult:
    """Run every fold and aggregate them; the models are discarded (use
    run_folds to keep them)."""
    return summarize(result for result, _ in
                     run_folds(images, labels, enc_cfg, head_cfg, cfg))
