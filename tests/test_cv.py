import math
from dataclasses import fields

import numpy as np
import pytest

import gbmpatch.cv as cv
from gbmpatch.cv import (ADAM_EPS, AdamState, CVResult, FoldResult,
                         TrainConfig, adam_step, lr_at, run_folds,
                         stratified_kfold, summarize, train_fold)
from gbmpatch.data import DEFAULT_PROFILE, N_CLASSES
from gbmpatch.encoder import EncoderConfig
from gbmpatch.errors import (NumericError, ParameterError,
                             StratificationError)
from gbmpatch.head import HeadConfig
from gbmpatch.metrics import accumulate, micro_average
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
        fold_of = stratified_kfold(labels, 5, seed=0)
        assert fold_of.dtype == np.int64 and fold_of.shape == labels.shape
        assert set(fold_of.tolist()) == set(range(5))

    def test_train_is_complement_of_val(self, monkeypatch):
        # train_fold trains on exactly the rows outside its fold and
        # scores exactly the rows inside it, in ascending order
        rng = np.random.default_rng(8)
        images, labels = separable_dataset(rng, per_class=3)
        row_of = {image.tobytes(): i for i, image in enumerate(images)}
        fold_of = stratified_kfold(labels, 3, seed=1)
        seen = {True: [], False: []}
        logits = PatchClassifier.logits

        def recording(self, batch, train=False, *args, **kwargs):
            seen[train] += [row_of[image.tobytes()] for image in batch]
            return logits(self, batch, train, *args, **kwargs)

        monkeypatch.setattr(PatchClassifier, "logits", recording)
        cfg = TrainConfig(folds=3, epochs=1, warmup_epochs=0, batch_size=4)
        train_fold(images, labels, fold_of, 2, TINY, HeadConfig(bottleneck=8),
                   cfg)
        assert sorted(seen[True]) == np.flatnonzero(fold_of != 2).tolist()
        assert seen[False] == np.flatnonzero(fold_of == 2).tolist()

    def test_per_class_balance_within_one(self):
        labels = labels_from_counts(DEFAULT_PROFILE)
        fold_of = stratified_kfold(labels, 5, seed=2)
        for cls, count in enumerate(DEFAULT_PROFILE):
            sizes = [(labels[fold_of == f] == cls).sum() for f in range(5)]
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
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_too_few_folds_rejected(self):
        with pytest.raises(ParameterError):
            stratified_kfold(labels_from_counts([5, 5]), 1)

    @pytest.mark.parametrize("folds", [2.0, True, "2", None],
                             ids=["float", "bool", "str", "none"])
    def test_non_integer_folds_rejected(self, folds):
        with pytest.raises(ParameterError, match="folds must be an integer"):
            stratified_kfold(labels_from_counts([5, 5]), folds)

    @pytest.mark.parametrize("seed, match", [
        (1.5, "seed must be an integer"), (True, "seed must be an integer"),
        (-1, "seed must be >= 0")], ids=["float", "bool", "negative"])
    def test_bad_seed_rejected(self, seed, match):
        # a float seed once died in numpy with a bare TypeError, a bool
        # was taken as 1, and a negative one raised a bare ValueError
        with pytest.raises(ParameterError, match=match):
            stratified_kfold(labels_from_counts([5, 5]), 2, seed=seed)

    def test_numpy_integer_folds_and_seed(self):
        labels = labels_from_counts([5, 5])
        got = stratified_kfold(labels, np.int64(2), seed=np.int32(4))
        want = stratified_kfold(labels, 2, seed=4)
        assert np.array_equal(got, want)

    @staticmethod
    def bucket_dealer(labels, folds, seed):
        """The earlier dealer: per-class members into per-fold lists, then
        a sort and a set difference per fold."""
        labels = np.asarray(labels, dtype=np.int64)
        buckets = [[] for _ in range(folds)]
        rng = np.random.default_rng(seed)
        for cls in np.unique(labels):
            members = np.flatnonzero(labels == cls)
            members = members[rng.permutation(len(members))]
            for f in range(folds):
                buckets[f].extend(members[f::folds])
        everything = np.arange(len(labels))
        out = []
        for f in range(folds):
            val = np.sort(np.asarray(buckets[f], dtype=np.int64))
            out.append((np.setdiff1d(everything, val), val))
        return out

    @pytest.mark.parametrize("folds", range(2, 8))
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_deal_equals_the_bucket_dealer(self, folds, seed):
        rng = np.random.default_rng([folds, seed])
        for _ in range(4):
            # some classes absent, the rest at least `folds` strong, shuffled
            counts = rng.integers(folds, 3 * folds + 5, size=N_CLASSES)
            counts[rng.random(N_CLASSES) < 0.3] = 0
            counts[rng.integers(N_CLASSES)] = folds
            labels = rng.permutation(labels_from_counts(counts))
            fold_of = stratified_kfold(labels, folds, seed)
            for f, (train, val) in enumerate(self.bucket_dealer(
                    labels, folds, seed)):
                for mine, ref in ((np.flatnonzero(fold_of != f), train),
                                  (np.flatnonzero(fold_of == f), val)):
                    assert mine.dtype == ref.dtype
                    assert np.array_equal(mine, ref)


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

    @pytest.mark.parametrize("step, total, warm, want", [
        (0, 1, 0, 1e-3), (1, 2, 1, 1e-5)], ids=["no_warmup", "warmup"])
    def test_warmup_decides_when_peak_and_last_step_coincide(
            self, step, total, warm, want):
        assert lr_at(step, total, warm, 1e-3, 1e-5) == want

    def test_out_of_range_step_rejected(self):
        with pytest.raises(ParameterError):
            lr_at(20, self.TOTAL, self.WARM, self.LR_MAX, self.LR_MIN)
        with pytest.raises(ParameterError):
            lr_at(0, 10, 10, 1e-5, 1e-6)
        with pytest.raises(ParameterError):
            lr_at(0, 0, 0, 1e-5, 1e-6)


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
        fold_of = stratified_kfold(labels, cfg.folds, cfg.seed)
        result, model = train_fold(images, labels, fold_of, 0, TINY,
                                   self.HEAD, cfg)
        train_acc = (model.predict(images[fold_of != 0])
                     == labels[fold_of != 0]).mean()
        assert train_acc >= 0.99
        assert len(result.epoch_losses) == cfg.epochs
        assert result.epoch_losses[0] > result.epoch_losses[-1]
        val_acc = result.micro.accuracy
        assert val_acc > 0.5  # far above the 1/9 chance level

    def test_nan_input_raises_numeric_error(self):
        rng = np.random.default_rng(1)
        images, labels = separable_dataset(rng, per_class=3)
        cfg = self.quick_cfg(epochs=2)
        fold_of = stratified_kfold(labels, cfg.folds, cfg.seed)
        # the NaN image is one of fold 0's training rows
        images[np.flatnonzero(fold_of != 0)[0]] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            train_fold(images, labels, fold_of, 0, TINY, self.HEAD, cfg)

    def test_held_out_rows_are_scored_in_predict_chunks(self, monkeypatch):
        # 15 images per class over 2 folds: fold 0 holds 8 of each, 72 rows
        rng = np.random.default_rng(3)
        images, labels = separable_dataset(rng, per_class=15)
        cfg = self.quick_cfg(folds=2, epochs=1, warmup_epochs=0, batch_size=64)
        fold_of = stratified_kfold(labels, cfg.folds, cfg.seed)
        val = np.flatnonzero(fold_of == 0)
        assert len(val) > 64
        chunks = []
        logits = PatchClassifier.logits

        def recording(self, batch, train=False, *args, **kwargs):
            if not train:   # the eval forwards, not the training steps'
                chunks.append(batch.copy())
            return logits(self, batch, train, *args, **kwargs)

        monkeypatch.setattr(PatchClassifier, "logits", recording)
        result, model = train_fold(images, labels, fold_of, 0, TINY,
                                   self.HEAD, cfg)
        monkeypatch.undo()
        # no forward exceeds a chunk, and the forwards cover the held-out
        # rows once each, in order
        assert [len(c) for c in chunks] == [64, len(val) - 64]
        assert np.concatenate(chunks).tobytes() == images[val].tobytes()
        want = accumulate(model.predict(images[val]), labels[val], N_CLASSES)
        assert np.array_equal(result.confusion.counts, want.counts)

    def test_one_loss_per_epoch(self):
        rng = np.random.default_rng(2)
        images, labels = separable_dataset(rng, per_class=3)
        cfg = self.quick_cfg(epochs=3)
        fold_of = stratified_kfold(labels, cfg.folds, cfg.seed)
        result, _ = train_fold(images, labels, fold_of, 1, TINY, self.HEAD,
                               cfg)
        assert result.fold == 1
        assert len(result.epoch_losses) == 3
        assert all(math.isfinite(l) for l in result.epoch_losses)


class TestCrossValidate:
    HEAD = HeadConfig(bottleneck=8, dropout=0.5)

    def small_cfg(self, seed=3):
        return TrainConfig(folds=3, epochs=2, warmup_epochs=1, batch_size=16,
                           lr_max=1e-3, lr_min=1e-4, weight_decay=0.01,
                           seed=seed)

    def run_all(self, images, labels, seed=3):
        folds = run_folds(images, labels, TINY, self.HEAD, self.small_cfg(seed))
        return summarize(result for result, _ in folds)

    def test_summed_confusion_covers_every_sample(self):
        rng = np.random.default_rng(3)
        images, labels = separable_dataset(rng, per_class=4)
        result = self.run_all(images, labels)
        assert isinstance(result, CVResult)
        assert len(result.fold_results) == 3
        assert result.confusion.total == len(labels)
        merged = sum((r.confusion.counts for r in result.fold_results),
                     np.zeros_like(result.confusion.counts))
        assert np.array_equal(result.confusion.counts, merged)

    def test_same_seed_reproduces_everything(self):
        rng = np.random.default_rng(4)
        images, labels = separable_dataset(rng, per_class=4)
        a = self.run_all(images, labels)
        b = self.run_all(images, labels)
        assert np.array_equal(a.confusion.counts, b.confusion.counts)
        for fa, fb in zip(a.fold_results, b.fold_results):
            assert fa.epoch_losses == fb.epoch_losses
        assert a.fold_average == b.fold_average

    def test_run_folds_trains_one_fold_per_request(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[3])
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
        result = self.run_all(images, labels, seed=6)
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

    @pytest.mark.parametrize("name", ["folds", "epochs", "warmup_epochs",
                                      "batch_size", "seed"])
    @pytest.mark.parametrize("bad", [1.0, True, np.float64(1), "1"],
                             ids=["float", "bool", "numpy", "str"])
    def test_every_int_field_must_be_an_int(self, name, bad):
        # a float count once reached numpy and died there
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            TrainConfig(**{name: bad})

    @pytest.mark.parametrize("name", ["folds", "epochs", "warmup_epochs",
                                      "batch_size", "seed"])
    def test_numpy_integer_is_stored_as_an_int(self, name):
        value = 2 if name == "folds" else 0 if name == "warmup_epochs" else 3
        cfg = TrainConfig(**{name: np.int64(value)})
        assert getattr(cfg, name) == value and type(getattr(cfg, name)) is int

    @pytest.mark.parametrize("name", ["lr_max", "lr_min", "weight_decay"])
    @pytest.mark.parametrize("bad", ["1", None, True, 1j],
                             ids=["str", "none", "bool", "complex"])
    def test_every_real_field_must_be_a_real_number(self, name, bad):
        # a string or None once died in a comparison with a bare TypeError,
        # and a bool rate (lr_max=True, say) built a config
        with pytest.raises(ParameterError, match=f"{name} must be a real number"):
            TrainConfig(**{name: bad})

    @pytest.mark.parametrize("name", ["lr_max", "lr_min", "weight_decay"])
    @pytest.mark.parametrize("value", [np.float32(1e-5), np.int64(1), 1],
                             ids=["numpy-float", "numpy-int", "int"])
    def test_real_field_is_stored_as_a_float(self, name, value):
        other = {"lr_max": 1.0} if name == "lr_min" else {"lr_min": 1e-6}
        cfg = TrainConfig(**{**other, name: value})
        assert getattr(cfg, name) == float(value)
        assert type(getattr(cfg, name)) is float
