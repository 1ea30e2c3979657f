import math
from dataclasses import fields

import numpy as np
import pytest

import gbmpatch.cv as cv
from gbmpatch.cv import (ADAM_EPS, AdamState, CVResult, FoldAssignment,
                         FoldResult, TrainConfig, adam_step, cross_validate,
                         lr_at, run_folds, stratified_kfold, train_fold)
from gbmpatch.data import DEFAULT_PROFILE
from gbmpatch.encoder import EncoderConfig
from gbmpatch.errors import (NumericError, ParameterError,
                             StratificationError)
from gbmpatch.head import HeadConfig
from gbmpatch.metrics import micro_average
from gbmpatch.model import PatchClassifier
from gbmpatch.tensor import Tensor

TINY = EncoderConfig(image_size=28, tile_size=14, dim=8, depth=1, heads=2,
                     registers=2, mlp_ratio=2)


def labels_from_counts(counts):
    return np.repeat(np.arange(len(counts)), counts)


def separable_dataset(rng, per_class=5, n_classes=9):
    """Class identity carried by a strong per-class mean image."""
    base = rng.normal(0, 1, size=(n_classes, 3, 28, 28)).astype(np.float32)
    labels = labels_from_counts([per_class] * n_classes)
    images = base[labels] + rng.normal(0, 0.05, size=(len(labels), 3, 28, 28)
                                       ).astype(np.float32)
    return images, labels


class TestStratifiedKfold:
    def test_val_folds_partition_everything(self):
        labels = labels_from_counts([17, 11, 8, 23, 9, 7, 6, 5, 5])
        folds = stratified_kfold(labels, 5, seed=0)
        stacked = np.concatenate([f.val_idx for f in folds])
        assert len(stacked) == len(labels)
        assert len(np.unique(stacked)) == len(labels)

    def test_train_is_complement_of_val(self):
        labels = labels_from_counts([10, 10, 10])
        for f in stratified_kfold(labels, 5, seed=1):
            assert len(np.intersect1d(f.train_idx, f.val_idx)) == 0
            assert len(f.train_idx) + len(f.val_idx) == len(labels)

    def test_per_class_balance_within_one(self):
        labels = labels_from_counts(DEFAULT_PROFILE)
        folds = stratified_kfold(labels, 5, seed=2)
        for cls, count in enumerate(DEFAULT_PROFILE):
            sizes = [(labels[f.val_idx] == cls).sum() for f in folds]
            assert max(sizes) - min(sizes) <= 1
            assert sum(sizes) == count

    def test_small_class_named_in_error(self):
        labels = labels_from_counts([10, 10, 10, 10, 10, 10, 10, 10, 3])
        with pytest.raises(StratificationError, match="PL"):
            stratified_kfold(labels, 5, seed=0)

    def test_seed_controls_the_deal(self):
        labels = labels_from_counts([20, 20, 20])
        a = stratified_kfold(labels, 4, seed=7)
        b = stratified_kfold(labels, 4, seed=7)
        c = stratified_kfold(labels, 4, seed=8)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.val_idx, fb.val_idx)
        assert any(not np.array_equal(fa.val_idx, fc.val_idx)
                   for fa, fc in zip(a, c))

    def test_too_few_folds_rejected(self):
        with pytest.raises(ParameterError):
            stratified_kfold(labels_from_counts([5, 5]), 1)


class TestSchedule:
    # the worked example: 5 steps/epoch, 4 epochs, 1 warmup epoch
    TOTAL, WARM = 20, 5
    LR_MAX, LR_MIN = 1e-5, 1e-6

    def lr(self, step):
        return lr_at(step, self.TOTAL, self.WARM, self.LR_MAX, self.LR_MIN)

    def test_boundary_values(self):
        assert self.lr(0) == 0.0
        assert self.lr(self.WARM) == pytest.approx(self.LR_MAX, abs=1e-12)
        assert self.lr(self.TOTAL - 1) == pytest.approx(self.LR_MIN, abs=1e-12)

    def test_cosine_midpoint(self):
        # halfway through the decay span the lr is the arithmetic mean
        assert self.lr(12) == pytest.approx((self.LR_MAX + self.LR_MIN) / 2,
                                            abs=1e-12)

    def test_warmup_is_linear(self):
        for s in range(self.WARM):
            assert self.lr(s) == pytest.approx(self.LR_MAX * s / self.WARM,
                                               abs=1e-18)

    def test_monotone_up_then_down(self):
        values = [self.lr(s) for s in range(self.TOTAL)]
        assert all(b >= a for a, b in zip(values[:self.WARM + 1],
                                          values[1:self.WARM + 1]))
        assert all(b <= a for a, b in zip(values[self.WARM:],
                                          values[self.WARM + 1:]))

    def test_no_jump_bigger_than_warmup_increment(self):
        values = [self.lr(s) for s in range(self.TOTAL)]
        deltas = [abs(b - a) for a, b in zip(values, values[1:])]
        assert max(deltas) <= self.LR_MAX / self.WARM + 1e-15

    def test_zero_warmup_starts_at_peak(self):
        assert lr_at(0, 10, 0, 1e-5, 1e-6) == 1e-5

    def test_out_of_range_step_rejected(self):
        with pytest.raises(ParameterError):
            lr_at(20, self.TOTAL, self.WARM, self.LR_MAX, self.LR_MIN)
        with pytest.raises(ParameterError):
            lr_at(0, 10, 10, 1e-5, 1e-6)


class TestAdam:
    def make_param(self, value, grad):
        p = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
        p.grad = np.asarray(grad, dtype=np.float64)
        return p

    def test_first_step_is_signed_unit_step(self):
        cfg = TrainConfig(weight_decay=0.0)
        g = np.array([0.5, -2.0, 1e-12])
        p = self.make_param(np.zeros(3), g)
        state = AdamState({"p": p})
        adam_step({"p": p}, state, lr=0.01, cfg=cfg)
        want = -0.01 * g / (np.abs(g) + ADAM_EPS)
        assert np.allclose(p.data, want, atol=1e-15)

    def test_decay_is_decoupled_from_moments(self):
        cfg = TrainConfig(weight_decay=0.1)
        p = self.make_param([2.0, -4.0], [0.0, 0.0])
        state = AdamState({"p": p})
        adam_step({"p": p}, state, lr=0.5, cfg=cfg)
        # zero grad: moments stay zero, only the multiplicative decay acts
        assert np.allclose(p.data, [2.0 * 0.95, -4.0 * 0.95], atol=1e-15)
        assert np.all(state.m["p"] == 0) and np.all(state.v["p"] == 0)

    def test_zero_lr_freezes_weights(self):
        cfg = TrainConfig(weight_decay=0.1)
        p = self.make_param([1.0, 2.0], [3.0, -1.0])
        adam_step({"p": p}, AdamState({"p": p}), lr=0.0, cfg=cfg)
        assert np.array_equal(p.data, [1.0, 2.0])

    def test_none_grad_is_skipped(self):
        cfg = TrainConfig()
        p = Tensor(np.ones(2), requires_grad=True)
        adam_step({"p": p}, AdamState({"p": p}), lr=0.1, cfg=cfg)
        assert np.array_equal(p.data, [1.0, 1.0])

    def test_repeat_runs_identical(self):
        cfg = TrainConfig(weight_decay=0.01)
        rng = np.random.default_rng(0)
        grads = [rng.normal(size=4) for _ in range(5)]

        def run():
            p = self.make_param(np.ones(4), grads[0])
            state = AdamState({"p": p})
            for g in grads:
                p.grad = g.copy()
                adam_step({"p": p}, state, lr=0.01, cfg=cfg)
            return p.data.copy()

        assert np.array_equal(run(), run())


class TestTrainFold:
    HEAD = HeadConfig(bottleneck=8, dropout=0.0)

    def quick_cfg(self, **kw):
        base = dict(folds=3, epochs=60, warmup_epochs=1, batch_size=16,
                    lr_max=1e-2, lr_min=1e-3, weight_decay=0.0, seed=1)
        base.update(kw)
        return TrainConfig(**base)

    def test_memorizes_separable_data(self):
        rng = np.random.default_rng(0)
        images, labels = separable_dataset(rng)
        cfg = self.quick_cfg()
        assignment = stratified_kfold(labels, cfg.folds, cfg.seed)[0]
        result, model = train_fold(images, labels, assignment, TINY,
                                   self.HEAD, cfg)
        train_acc = (model.predict(images[assignment.train_idx])
                     == labels[assignment.train_idx]).mean()
        assert train_acc >= 0.99
        assert len(result.epoch_losses) == cfg.epochs
        assert result.epoch_losses[0] > result.epoch_losses[-1]
        val_acc = result.micro.accuracy
        assert val_acc > 0.5  # far above the 1/9 chance level

    def test_nan_input_raises_numeric_error(self):
        rng = np.random.default_rng(1)
        images, labels = separable_dataset(rng, per_class=3)
        images[0] = np.nan
        cfg = self.quick_cfg(epochs=2)
        assignment = FoldAssignment(fold=0,
                                    train_idx=np.arange(len(labels)),
                                    val_idx=np.arange(len(labels)))
        with pytest.raises(NumericError, match="non-finite"):
            train_fold(images, labels, assignment, TINY, self.HEAD, cfg)

    def test_one_loss_per_epoch(self):
        rng = np.random.default_rng(2)
        images, labels = separable_dataset(rng, per_class=3)
        cfg = self.quick_cfg(epochs=3)
        assignment = stratified_kfold(labels, cfg.folds, cfg.seed)[1]
        result, _ = train_fold(images, labels, assignment, TINY, self.HEAD,
                               cfg)
        assert result.fold == 1
        assert len(result.epoch_losses) == 3
        assert all(math.isfinite(l) for l in result.epoch_losses)

    def test_frozen_encoder_trains_head_only(self):
        rng = np.random.default_rng(3)
        images, labels = separable_dataset(rng, per_class=3)
        cfg = self.quick_cfg(epochs=2, freeze_encoder=True)
        assignment = stratified_kfold(labels, cfg.folds, cfg.seed)[2]
        _, model = train_fold(images, labels, assignment, TINY, self.HEAD, cfg)
        fresh = PatchClassifier(TINY, self.HEAD,
                                seed=cfg.seed * 1000 + assignment.fold)
        for name, p in model.encoder.items():
            assert p.data.tobytes() == fresh.encoder[name].data.tobytes(), name
            assert p.grad is None, f"{name} took part in backward"
        for name, p in model.head.items():
            assert not np.array_equal(p.data, fresh.head[name].data), name


class TestCrossValidate:
    HEAD = HeadConfig(bottleneck=8, dropout=0.5)

    def small_cfg(self, seed=3):
        return TrainConfig(folds=3, epochs=2, warmup_epochs=1, batch_size=16,
                           lr_max=1e-3, lr_min=1e-4, weight_decay=0.01,
                           seed=seed)

    def test_summed_confusion_covers_every_sample(self):
        rng = np.random.default_rng(3)
        images, labels = separable_dataset(rng, per_class=4)
        result = cross_validate(images, labels, TINY, self.HEAD,
                                self.small_cfg())
        assert isinstance(result, CVResult)
        assert len(result.fold_results) == 3
        assert result.confusion.total == len(labels)
        merged = sum((r.confusion.counts for r in result.fold_results),
                     np.zeros_like(result.confusion.counts))
        assert np.array_equal(result.confusion.counts, merged)

    def test_same_seed_reproduces_everything(self):
        rng = np.random.default_rng(4)
        images, labels = separable_dataset(rng, per_class=4)
        a = cross_validate(images, labels, TINY, self.HEAD, self.small_cfg())
        b = cross_validate(images, labels, TINY, self.HEAD, self.small_cfg())
        assert np.array_equal(a.confusion.counts, b.confusion.counts)
        for fa, fb in zip(a.fold_results, b.fold_results):
            assert fa.epoch_losses == fb.epoch_losses
        assert a.fold_average == b.fold_average

    def test_run_folds_trains_one_fold_per_request(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[2].fold)
            return train_fold(*args)

        monkeypatch.setattr(cv, "train_fold", counting)
        rng = np.random.default_rng(6)
        images, labels = separable_dataset(rng, per_class=4)
        folds = run_folds(images, labels, TINY, self.HEAD, self.small_cfg())
        assert calls == []
        result, model = next(folds)
        assert calls == [0]
        assert result.fold == 0 and isinstance(model, PatchClassifier)
        assert [r.fold for r, _ in folds] == [1, 2]
        assert calls == [0, 1, 2]

    def test_fold_result_is_its_counts(self):
        assert [f.name for f in fields(FoldResult)] == [
            "fold", "confusion", "epoch_losses"]
        rng = np.random.default_rng(7)
        images, labels = separable_dataset(rng, per_class=4)
        for r, _ in run_folds(images, labels, TINY, self.HEAD,
                              self.small_cfg()):
            assert r.micro == micro_average(r.confusion)

    def test_fold_average_tracks_micro_means(self):
        rng = np.random.default_rng(5)
        images, labels = separable_dataset(rng, per_class=4)
        result = cross_validate(images, labels, TINY, self.HEAD,
                                self.small_cfg(seed=6))
        for name in ("accuracy", "f1", "mcc"):
            want = np.mean([getattr(r.micro, name)
                            for r in result.fold_results])
            assert result.fold_average[name] == pytest.approx(want, abs=1e-12)


class TestTrainConfigValidation:
    def test_warmup_must_fit(self):
        with pytest.raises(ParameterError):
            TrainConfig(epochs=5, warmup_epochs=5)

    def test_lr_order(self):
        with pytest.raises(ParameterError):
            TrainConfig(lr_max=1e-6, lr_min=1e-5)

    def test_folds_minimum(self):
        with pytest.raises(ParameterError):
            TrainConfig(folds=1)

    def test_negative_seed(self):
        with pytest.raises(ParameterError, match="seed"):
            TrainConfig(seed=-1)
