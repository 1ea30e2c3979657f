"""Multiclass evaluation metrics built on a K x K confusion matrix.

Per-class scores reduce the matrix one-vs-rest to TP/TN/FP/FN and apply
the standard definitions (accuracy, precision, recall, F1, specificity,
binary MCC). Micro averaging pools the one-vs-rest counts over classes;
for single-label problems this forces precision = recall = F1 = trace/total.
The multiclass MCC is the K-category correlation statistic.

Any metric whose denominator is zero is reported as 0.0 and its name is
recorded in the bundle's ``undefined`` set, so minority classes that never
get predicted cannot crash a report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .errors import ContractError, DataError

METRIC_NAMES = ("accuracy", "precision", "recall", "specificity", "f1", "mcc")


@dataclass(frozen=True)
class BinaryCounts:
    """One-vs-rest reduction of a confusion matrix for a single class."""

    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricBundle:
    """One row of scores; ``undefined`` lists zero-denominator metrics."""

    accuracy: float
    precision: float
    recall: float
    specificity: float
    f1: float
    mcc: float
    undefined: frozenset = field(default_factory=frozenset)

    def as_dict(self) -> dict:
        """The six scores as floats plus the sorted ``undefined`` names."""
        out = {name: float(getattr(self, name)) for name in METRIC_NAMES}
        out["undefined"] = sorted(self.undefined)
        return out


class ConfusionMatrix:
    """K x K non-negative integer counts; counts[i, j] = true class i
    predicted as j. Float, bool, string and object counts (ints wider
    than int64) are refused, not coerced."""

    def __init__(self, n_classes: int, counts=None):
        if n_classes < 1:
            raise ContractError(f"need at least one class, got {n_classes}")
        if counts is None:
            counts = np.zeros((n_classes, n_classes), dtype=np.int64)
        else:
            try:
                cells = np.asarray(counts)
            except ValueError as exc:   # rows of unequal lengths
                raise ContractError(f"confusion counts are not a matrix: {exc}")
            if cells.dtype.kind not in "iu":
                raise ContractError(
                    f"confusion counts must be integers, got {cells.dtype}")
            # numpy reads [[1, 0], [0, True]] as int64, so each cell is checked
            if any(isinstance(v, (bool, np.bool_))
                   for v in np.asarray(counts, dtype=object).flat):
                raise ContractError("confusion counts must be integers, got a bool")
            # a uint64 count past int64 wraps negative; the sign check refuses it
            counts = cells.astype(np.int64, copy=False)
            if counts.shape != (n_classes, n_classes):
                raise ContractError(
                    f"counts shape {counts.shape} does not match K={n_classes}")
            if (counts < 0).any():
                raise ContractError("confusion counts must be nonnegative")
        self.n_classes = n_classes
        self.counts = counts

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def trace(self) -> int:
        return int(np.trace(self.counts))

    def add(self, preds: Sequence[int], labels: Sequence[int]):
        preds = np.asarray(preds, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        if preds.shape != labels.shape:
            raise DataError(
                f"preds length {preds.shape} != labels length {labels.shape}")
        for name, arr in (("preds", preds), ("labels", labels)):
            if arr.size and (arr.min() < 0 or arr.max() >= self.n_classes):
                raise DataError(
                    f"{name} contain indices outside [0, {self.n_classes})")
        np.add.at(self.counts, (labels, preds), 1)

    def __eq__(self, other):
        return (isinstance(other, ConfusionMatrix)
                and np.array_equal(self.counts, other.counts))

    def __repr__(self):
        return f"ConfusionMatrix(K={self.n_classes}, total={self.total})"


def accumulate(preds: Sequence[int], labels: Sequence[int], n_classes: int) -> ConfusionMatrix:
    """Tally (label, pred) pairs into a fresh confusion matrix."""
    cm = ConfusionMatrix(n_classes)
    cm.add(preds, labels)
    return cm


def one_vs_rest(cm: ConfusionMatrix, class_index: int) -> BinaryCounts:
    """Reduce the matrix to TP/TN/FP/FN for one class against the rest."""
    if not 0 <= class_index < cm.n_classes:
        raise DataError(
            f"class index {class_index} outside [0, {cm.n_classes})")
    tp = int(cm.counts[class_index, class_index])
    fn = int(cm.counts[class_index].sum()) - tp
    fp = int(cm.counts[:, class_index].sum()) - tp
    tn = cm.total - tp - fn - fp
    return BinaryCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def _ratio(num: float, den: float, name: str, undefined: set) -> float:
    if den == 0:
        undefined.add(name)
        return 0.0
    return num / den


def basic_metrics(b: BinaryCounts) -> MetricBundle:
    """Accuracy, precision, recall, F1, specificity, and binary MCC.

    MCC = (TP*TN - FP*FN) / sqrt((TP+FP)(TP+FN)(TN+FP)(TN+FN)).
    """
    if b.total == 0:
        raise ContractError("metrics need at least one scored sample")
    undefined: set = set()
    accuracy = (b.tp + b.tn) / b.total
    precision = _ratio(b.tp, b.tp + b.fp, "precision", undefined)
    recall = _ratio(b.tp, b.tp + b.fn, "recall", undefined)
    specificity = _ratio(b.tn, b.tn + b.fp, "specificity", undefined)
    # counts form of 2PR/(P+R): one rounding, so pooled F1 lands bit-exact
    # on trace/total, and 0/0 only when tp=fp=fn=0
    f1 = _ratio(2.0 * b.tp, 2.0 * b.tp + b.fp + b.fn, "f1", undefined)
    mcc_den = math.sqrt(float(b.tp + b.fp) * float(b.tp + b.fn)
                        * float(b.tn + b.fp) * float(b.tn + b.fn))
    mcc = _ratio(float(b.tp) * b.tn - float(b.fp) * b.fn, mcc_den, "mcc", undefined)
    return MetricBundle(accuracy=accuracy, precision=precision, recall=recall,
                        specificity=specificity, f1=f1, mcc=mcc,
                        undefined=frozenset(undefined))


def mcc_multiclass(cm: ConfusionMatrix, undefined: Optional[set] = None) -> float:
    """K-category correlation coefficient in [-1, 1].

    (c*s - sum_k p_k*t_k) / sqrt((s^2 - sum p_k^2)(s^2 - sum t_k^2)) with
    c = trace, s = total, t_k/p_k = true/predicted counts per class.
    Degenerate denominators (single-class truth or predictions, a single
    sample) yield 0 and add "mcc" to ``undefined``.
    """
    if cm.total == 0:
        raise ContractError("multiclass MCC needs at least one sample")
    c = float(cm.trace)
    s = float(cm.total)
    t = cm.counts.sum(axis=1).astype(np.float64)   # per-class true counts
    p = cm.counts.sum(axis=0).astype(np.float64)   # per-class predicted counts
    num = c * s - float(p @ t)
    den = math.sqrt((s * s - float(p @ p)) * (s * s - float(t @ t)))
    return _ratio(num, den, "mcc", set() if undefined is None else undefined)


def pooled_counts(cm: ConfusionMatrix) -> BinaryCounts:
    """The one-vs-rest counts of every class, summed, in closed form.

    Each off-diagonal sample is one class's false negative and another's
    false positive, and a true negative for the other K-2 classes; each
    diagonal sample is one true positive and K-1 true negatives.
    """
    trace, total = cm.trace, cm.total
    return BinaryCounts(tp=trace, tn=(cm.n_classes - 2) * total + trace,
                        fp=total - trace, fn=total - trace)


def micro_average(cm: ConfusionMatrix) -> MetricBundle:
    """Score the pooled one-vs-rest counts of all classes.

    Precision, recall, F1, and specificity come from the pooled counts.
    Accuracy is overall correctness (trace/total), which is the value the
    pooled precision/recall/F1 collapse to for single-label data. The mcc
    field carries the multiclass correlation statistic.
    """
    if cm.total == 0:
        raise ContractError("micro average needs a non-empty matrix")
    bundle = basic_metrics(pooled_counts(cm))
    undefined = set(bundle.undefined) - {"mcc"}
    mcc = mcc_multiclass(cm, undefined)
    return replace(bundle, accuracy=cm.trace / cm.total, mcc=mcc,
                   undefined=frozenset(undefined))


def score(cm: ConfusionMatrix) -> tuple[list, MetricBundle]:
    """(per-class one-vs-rest bundles, micro bundle) of one matrix."""
    per_class = [basic_metrics(one_vs_rest(cm, k)) for k in range(cm.n_classes)]
    return per_class, micro_average(cm)


def normalize_rows(cm: ConfusionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per-true-class proportions.

    Returns (proportions, zero_row_mask); rows with no samples stay zero
    and are flagged in the mask.
    """
    sums = cm.counts.sum(axis=1, keepdims=True).astype(np.float64)
    zero_rows = sums[:, 0] == 0
    safe = np.where(sums == 0, 1.0, sums)
    props = cm.counts.astype(np.float64) / safe
    return props, zero_rows


# ----------------------------------------------------------------------
# report rendering


def metrics_csv(per_class: Sequence[MetricBundle], micro: MetricBundle,
                class_names: Sequence[str]) -> str:
    """CSV report: one row per class plus a micro row, fixed column order."""
    if len(per_class) != len(class_names):
        raise ContractError(
            f"{len(per_class)} bundles for {len(class_names)} class names")
    lines = ["class," + ",".join(METRIC_NAMES)]
    for name, bundle in list(zip(class_names, per_class)) + [("micro", micro)]:
        values = ",".join(f"{getattr(bundle, m):.6f}" for m in METRIC_NAMES)
        lines.append(f"{name},{values}")
    return "\n".join(lines) + "\n"


def confusion_text(cm: ConfusionMatrix, class_names: Sequence[str],
                   normalized: bool = False) -> str:
    """Plain-text grid; true classes as rows, predictions as columns.

    With ``normalized`` the cells are row percentages and rows without
    samples render as n/a.
    """
    width = max(7, max(len(n) for n in class_names) + 1)
    header = " " * width + "".join(f"{n:>{width}}" for n in class_names)
    lines = [header]
    props, zero_rows = normalize_rows(cm)
    for i, name in enumerate(class_names):
        if normalized:
            if zero_rows[i]:
                cells = "".join(f"{'n/a':>{width}}" for _ in class_names)
            else:
                cells = "".join(f"{100.0 * v:>{width}.1f}" for v in props[i])
        else:
            cells = "".join(f"{int(v):>{width}d}" for v in cm.counts[i])
        lines.append(f"{name:<{width}}{cells}")
    return "\n".join(lines) + "\n"
