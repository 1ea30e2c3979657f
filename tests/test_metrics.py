"""Tests for the confusion-matrix metric suite.

Oracles: per-sample tally loops, direct formula evaluation on
TP/TN/FP/FN, and the brute-force K-category correlation formula.
"""

import math

import numpy as np
import pytest

from gbmpatch import metrics as M
from gbmpatch.errors import ContractError, DataError
from gbmpatch.metrics import BinaryCounts, ConfusionMatrix


def tally_oracle(preds, labels, k):
    """Independent accumulate oracle: one dict update per sample."""
    counts = np.zeros((k, k), dtype=np.int64)
    for p, t in zip(preds, labels):
        counts[t][p] += 1
    return counts


def rk_oracle(counts):
    """Direct evaluation of the K-category correlation formula."""
    counts = np.asarray(counts, dtype=np.float64)
    c = np.trace(counts)
    s = counts.sum()
    t = counts.sum(axis=1)
    p = counts.sum(axis=0)
    num = c * s - (p * t).sum()
    den = math.sqrt((s * s - (p * p).sum()) * (s * s - (t * t).sum()))
    return 0.0 if den == 0 else num / den


def binary_mcc_oracle(b):
    den = math.sqrt((b.tp + b.fp) * (b.tp + b.fn) * (b.tn + b.fp) * (b.tn + b.fn))
    return 0.0 if den == 0 else (b.tp * b.tn - b.fp * b.fn) / den


def random_cm(rng, k=9, high=30):
    counts = rng.integers(0, high, size=(k, k))
    if counts.sum() < 2:
        counts[0, 0] += 2
    return ConfusionMatrix(k, counts)


class TestAccumulate:
    def test_perfect_predictions_are_diagonal(self):
        labels = [0, 1, 1, 2, 2, 2]
        cm = M.accumulate(labels, labels, 3)
        np.testing.assert_array_equal(cm.counts, np.diag([1, 2, 3]))

    def test_single_misclassification(self):
        cm = M.accumulate([1], [0], 3)
        expected = np.zeros((3, 3), dtype=np.int64)
        expected[0, 1] = 1
        np.testing.assert_array_equal(cm.counts, expected)

    def test_random_1000_samples_match_tally_oracle(self):
        rng = np.random.default_rng(42)
        labels = rng.integers(0, 9, size=1000)
        preds = rng.integers(0, 9, size=1000)
        cm = M.accumulate(preds, labels, 9)
        np.testing.assert_array_equal(cm.counts, tally_oracle(preds, labels, 9))
        assert cm.total == 1000

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            M.accumulate([0, 9], [0, 1], 9)
        with pytest.raises(DataError):
            M.accumulate([0, 1], [-1, 1], 9)

    def test_order_independent(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 5, size=200)
        preds = rng.integers(0, 5, size=200)
        perm = rng.permutation(200)
        assert M.accumulate(preds, labels, 5) == M.accumulate(preds[perm], labels[perm], 5)


class TestOneVsRest:
    def test_diagonal_has_no_errors(self):
        cm = ConfusionMatrix(3, np.diag([4, 5, 6]))
        for i in range(3):
            b = M.one_vs_rest(cm, i)
            assert b.fp == 0 and b.fn == 0

    def test_two_by_two_direct_count(self):
        cm = ConfusionMatrix(2, [[3, 1], [2, 4]])
        b = M.one_vs_rest(cm, 0)
        assert (b.tp, b.fn, b.fp, b.tn) == (3, 1, 2, 4)

    def test_absent_class(self):
        cm = ConfusionMatrix(3, [[5, 0, 0], [0, 7, 0], [0, 0, 0]])
        b = M.one_vs_rest(cm, 2)
        assert (b.tp, b.fp, b.fn) == (0, 0, 0)
        assert b.tn == cm.total


class TestBasicMetrics:
    def test_perfect_classifier(self):
        bundle = M.basic_metrics(BinaryCounts(tp=1, tn=1, fp=0, fn=0))
        for name in M.METRIC_NAMES:
            assert getattr(bundle, name) == 1.0
        assert not bundle.undefined

    def test_precision_arithmetic(self):
        bundle = M.basic_metrics(BinaryCounts(tp=9, tn=0, fp=3, fn=0))
        assert bundle.precision == 0.75

    def test_mcc_direct_evaluation(self):
        bundle = M.basic_metrics(BinaryCounts(tp=50, tn=40, fp=10, fn=5))
        assert abs(bundle.mcc - 0.7156264473321343) < 1e-12

    def test_zero_denominators_flagged_not_crashed(self):
        bundle = M.basic_metrics(BinaryCounts(tp=0, tn=10, fp=0, fn=0))
        assert bundle.precision == 0.0
        assert bundle.recall == 0.0
        assert {"precision", "recall", "f1", "mcc"} <= set(bundle.undefined)

    def test_all_zero_counts_rejected(self):
        with pytest.raises(ContractError):
            M.basic_metrics(BinaryCounts(tp=0, tn=0, fp=0, fn=0))

    def test_ranges_on_200_random_counts(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 50, size=4))
            if tp + tn + fp + fn == 0:
                tp = 1
            b = BinaryCounts(tp=tp, tn=tn, fp=fp, fn=fn)
            bundle = M.basic_metrics(b)
            for name in ("accuracy", "precision", "recall", "specificity", "f1"):
                assert 0.0 <= getattr(bundle, name) <= 1.0
            assert -1.0 <= bundle.mcc <= 1.0
            assert abs(bundle.mcc - binary_mcc_oracle(b)) < 1e-12


class TestMicroAverage:
    def test_diagonal_is_perfect(self):
        cm = ConfusionMatrix(4, np.diag([3, 1, 2, 5]))
        bundle = M.micro_average(cm)
        for name in M.METRIC_NAMES:
            assert getattr(bundle, name) == 1.0

    def test_micro_identity_on_random_matrices(self):
        # micro precision = micro recall = micro F1 = trace/total, exactly
        rng = np.random.default_rng(8)
        for _ in range(100):
            cm = random_cm(rng)
            bundle = M.micro_average(cm)
            expected = cm.trace / cm.total
            assert bundle.precision == expected
            assert bundle.recall == expected
            assert bundle.f1 == expected
            assert bundle.accuracy == expected

    def test_pooled_counts_match_summing_one_vs_rest(self):
        rng = np.random.default_rng(13)
        for k in range(2, 10):
            for _ in range(10):
                cm = random_cm(rng, k=k)
                per_class = [M.one_vs_rest(cm, i) for i in range(k)]
                tp, tn, fp, fn = (sum(getattr(b, c) for b in per_class)
                                  for c in ("tp", "tn", "fp", "fn"))
                assert M.pooled_counts(cm) == BinaryCounts(tp=tp, tn=tn,
                                                           fp=fp, fn=fn)
                bundle = M.micro_average(cm)
                assert bundle.precision == tp / (tp + fp)
                assert bundle.recall == tp / (tp + fn)
                assert bundle.specificity == tn / (tn + fp)


class TestMccMulticlass:
    def test_equals_binary_on_random_2x2(self):
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 100:
            counts = rng.integers(0, 20, size=(2, 2))
            if counts.sum() < 2:
                continue
            cm = ConfusionMatrix(2, counts)
            binary = binary_mcc_oracle(M.one_vs_rest(cm, 1))
            assert abs(M.mcc_multiclass(cm) - binary) < 1e-12
            checked += 1

    def test_perfect_diagonal_is_one(self):
        assert M.mcc_multiclass(ConfusionMatrix(3, np.diag([2, 3, 4]))) == 1.0

    def test_three_class_against_formula_oracle(self):
        counts = [[2, 1, 0], [0, 2, 1], [1, 0, 2]]
        cm = ConfusionMatrix(3, counts)
        value = M.mcc_multiclass(cm)
        assert abs(value - rk_oracle(counts)) < 1e-15
        assert abs(value - 0.5) < 1e-15

    def test_one_iff_diagonal(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            cm = random_cm(rng, k=4, high=10)
            is_diag = np.array_equal(cm.counts, np.diag(np.diag(cm.counts)))
            if is_diag and cm.trace > 0:
                assert M.mcc_multiclass(cm) == 1.0
            elif not is_diag:
                assert M.mcc_multiclass(cm) < 1.0

    def test_invariant_under_class_permutation(self):
        rng = np.random.default_rng(6)
        cm = random_cm(rng, k=5)
        perm = rng.permutation(5)
        permuted = ConfusionMatrix(5, cm.counts[np.ix_(perm, perm)])
        assert abs(M.mcc_multiclass(cm) - M.mcc_multiclass(permuted)) < 1e-15

    def test_range_on_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            value = M.mcc_multiclass(random_cm(rng, k=6))
            assert -1.0 <= value <= 1.0

    def test_degenerate_denominator_is_zero(self):
        # every prediction lands in class 0: prediction marginal is single-class
        cm = ConfusionMatrix(3, [[4, 0, 0], [2, 0, 0], [1, 0, 0]])
        assert M.mcc_multiclass(cm) == 0.0
        assert "mcc" in M.micro_average(cm).undefined

    def test_undefined_set_is_filled(self):
        undefined = set()
        M.mcc_multiclass(ConfusionMatrix(3, [[4, 0, 0], [2, 0, 0], [1, 0, 0]]),
                         undefined)
        assert undefined == {"mcc"}
        M.mcc_multiclass(ConfusionMatrix(2, [[1, 1], [0, 2]]), undefined)
        assert undefined == {"mcc"}

    def test_single_sample_is_undefined_zero(self):
        cm = ConfusionMatrix(3, [[0, 0, 0], [0, 1, 0], [0, 0, 0]])
        undefined = set()
        assert M.mcc_multiclass(cm, undefined) == 0.0
        assert undefined == {"mcc"}
        micro = M.micro_average(cm)
        assert micro.mcc == 0.0 and "mcc" in micro.undefined

    def test_empty_matrix_rejected(self):
        with pytest.raises(ContractError):
            M.mcc_multiclass(ConfusionMatrix(3))

    def test_micro_mcc_is_mcc_multiclass(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            cm = random_cm(rng, k=5)
            assert M.micro_average(cm).mcc == M.mcc_multiclass(cm)


class TestNormalizeRows:
    def test_half_half_row(self):
        cm = ConfusionMatrix(3, [[2, 2, 0], [0, 1, 0], [0, 0, 1]])
        props, zero = M.normalize_rows(cm)
        np.testing.assert_allclose(props[0], [0.5, 0.5, 0.0])
        assert not zero.any()

    def test_diagonal_gives_identity_pattern(self):
        cm = ConfusionMatrix(3, np.diag([4, 2, 9]))
        props, _ = M.normalize_rows(cm)
        np.testing.assert_allclose(props, np.eye(3))

    def test_rows_sum_to_one_or_zero(self):
        rng = np.random.default_rng(17)
        counts = rng.integers(0, 5, size=(6, 6))
        counts[2] = 0
        props, zero = M.normalize_rows(ConfusionMatrix(6, counts))
        sums = props.sum(axis=1)
        assert zero[2]
        for i, s in enumerate(sums):
            assert s == pytest.approx(0.0 if zero[i] else 1.0, abs=1e-12)


class TestMergeAndRendering:
    def test_merge_is_elementwise_add(self):
        rng = np.random.default_rng(19)
        a = random_cm(rng, k=4)
        b = random_cm(rng, k=4)
        np.testing.assert_array_equal(a.merge(b).counts, a.counts + b.counts)

    def test_csv_layout(self):
        cm = ConfusionMatrix(2, [[3, 1], [0, 4]])
        per_class = [M.basic_metrics(M.one_vs_rest(cm, i)) for i in range(2)]
        text = M.metrics_csv(per_class, M.micro_average(cm), ["A", "B"])
        lines = text.strip().split("\n")
        assert lines[0] == "class,accuracy,precision,recall,specificity,f1,mcc"
        assert len(lines) == 4
        assert lines[1].startswith("A,") and lines[3].startswith("micro,")

    def test_confusion_text_normalized_flags_empty_rows(self):
        cm = ConfusionMatrix(2, [[0, 0], [1, 3]])
        text = M.confusion_text(cm, ["A", "B"], normalized=True)
        assert "n/a" in text
        assert "75.0" in text

    def test_confusion_text_counts(self):
        cm = ConfusionMatrix(2, [[3, 1], [0, 4]])
        text = M.confusion_text(cm, ["A", "B"])
        rows = text.strip().split("\n")
        assert rows[1].split() == ["A", "3", "1"]
        assert rows[2].split() == ["B", "0", "4"]
