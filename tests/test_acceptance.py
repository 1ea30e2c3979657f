"""Acceptance gate: one test per stated acceptance criterion.

Run with ``pytest -v`` to get a visible PASS/FAIL line per criterion.
Each test prints a ``[PASS]``-style summary line as well (shown whenever
pytest reports output, and always on failure with the measured numbers).
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from gbmpatch.cli import main
from gbmpatch.cv import TrainConfig, lr_at, stratified_kfold, train_fold
from gbmpatch.data import (CLASS_CODES, DEFAULT_PROFILE, generate_synthetic,
                           load_ppm, load_preprocessed, save_ppm)
from gbmpatch.encoder import (EncoderConfig, encode_batch, init_encoder,
                              readout)
from gbmpatch.head import (HeadConfig, aggregate_features, head_forward,
                           init_head)
from gbmpatch.checkpoint import load_model, save_model
from gbmpatch.metrics import (BinaryCounts, ConfusionMatrix, basic_metrics,
                              mcc_multiclass, micro_average, one_vs_rest)
from gbmpatch.model import PatchClassifier
from gbmpatch.tensor import (Tensor, attention, concat, cross_entropy,
                             dropout, finite_diff_check, layer_norm, linear,
                             narrow, softmax, silu, transpose)


def _line(name: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}", flush=True)
    assert passed, f"{name}: {detail}"


# ----------------------------------------------------------------------
# 1. gradient suite: every op + the encoder/head composite, 10 seeds, <60 s


def _op_cases(rng, att_rng):
    """name -> (probe, f), f mapping a tensor shaped like the probe to a
    scalar. attention's and linear's operands and probes come from
    ``att_rng``, so their cases leave the draws from ``rng`` that every
    other case and the composite check see where they were."""
    c34 = Tensor(rng.normal(size=(3, 4)))
    c4 = Tensor(rng.normal(size=(4,)))
    c45 = Tensor(rng.normal(size=(4, 5)))
    c35 = Tensor(rng.normal(size=(3, 5)))
    c234 = Tensor(rng.normal(size=(2, 3, 4)))
    g5 = Tensor(rng.normal(size=(5,)))
    b5 = Tensor(rng.normal(size=(5,)))
    labels = np.array([0, 3, 5, 2])
    cases = {
        "add_broadcast": ((3, 4), lambda t: ((t + c4) * c34).sum()),
        "mul": ((3, 4), lambda t: (t * c34).sum()),
        "neg": ((3, 4), lambda t: ((-t) * c34).sum()),
        "matmul": ((3, 4), lambda t: ((t @ c45) * c35).sum()),
        "matmul_stacked": ((2, 3, 4), lambda t: ((t @ c45) * 1.0).sum()),
        "reshape": ((3, 4), lambda t: (t.reshape((2, 6)) * 1.0).sum()),
        "transpose": ((3, 4), lambda t: (transpose(t, (1, 0)) @ c34).sum()),
        "concat": ((3, 4), lambda t: (concat([t, c34], axis=0) * 1.0).sum()),
        "narrow": ((3, 4), lambda t: (narrow(t, 1, 1, 2) * 2.0).sum()),
        "sum_axis": ((2, 3, 4), lambda t: (t.sum(axis=1) * 1.0).sum()),
        "mean_axis": ((2, 3, 4), lambda t: (t.mean(axis=2) * 1.0).sum()),
        "mean_all": ((3, 4), lambda t: t.mean()),
        "silu": ((3, 4), lambda t: (silu(t) * c34).sum()),
        "softmax": ((3, 4), lambda t: (softmax(t, axis=-1) * c34).sum()),
        "layer_norm_x": ((3, 5), lambda t: ((layer_norm(t) * g5 + b5) * c35).sum()),
        # the affine a linear map absorbs after the norm, as (5,) probes
        "layer_norm_gain": ((5,), lambda t: ((layer_norm(c35) * t + b5) * c35).sum()),
        "layer_norm_bias": ((5,), lambda t: ((layer_norm(c35) * g5 + t) * c35).sum()),
        "dropout": ((3, 4), lambda t: (dropout(t, 0.4, seed=7) * c34).sum()),
        "cross_entropy": ((4, 6), lambda t: cross_entropy(t, labels)),
        "div_scalar": ((3, 4), lambda t: ((t / 3.0) * c34).sum()),
        "sub": ((3, 4), lambda t: ((t - c34) * c234.mean(axis=0)).sum()),
    }
    cases = {name: (rng.normal(size=shape), f)
             for name, (shape, f) in cases.items()}

    # (batch, rows, heads·width) q, k, v and output weights, two heads
    att = [Tensor(att_rng.normal(size=(2, 3, 8))) for _ in range(4)]

    def attention_case(slot):
        def f(t):
            qkv = att[:3]
            qkv[slot] = t
            return (attention(*qkv, 2, 0.5) * att[3]).sum()
        return att_rng.normal(size=(2, 3, 8)), f

    for slot, name in enumerate("qkv"):
        cases[f"attention_{name}"] = attention_case(slot)
    # linear on a 3-D x, its weight, and position rows as embed adds them
    lin_x, lin_w = att[0], Tensor(att_rng.normal(size=(8, 2)))
    cases["linear_x"] = (att_rng.normal(size=(2, 3, 8)),
                         lambda t: (silu(linear(t, lin_w)) * 1.0).sum())
    cases["linear_w"] = (att_rng.normal(size=(8, 2)),
                         lambda t: (silu(linear(lin_x, t)) * 1.0).sum())
    cases["linear_b"] = (att_rng.normal(size=(3, 2)),
                         lambda t: (silu(linear(lin_x, lin_w, t)) * 1.0).sum())
    return cases


GRAD_CFG = EncoderConfig(image_size=8, tile_size=4, dim=8, depth=1, heads=2,
                         registers=2, mlp_ratio=2)
GRAD_HEAD = HeadConfig(bottleneck=4, dropout=0.5)


def _composite_loss(images, labels, enc_w, head_w):
    seq = encode_batch(images, enc_w, GRAD_CFG)
    feats = aggregate_features(seq, GRAD_CFG)
    logits = head_forward(feats, head_w, GRAD_HEAD, train=True,
                          dropout_seed=123)
    return cross_entropy(logits, labels)


def test_gradient_suite():
    start = time.monotonic()
    worst = 0.0
    worst_site = ""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        att_rng = np.random.default_rng([seed, 1])
        for name, (probe, f) in _op_cases(rng, att_rng).items():
            err = finite_diff_check(f, Tensor(probe))
            if err > worst:
                worst, worst_site = err, f"op {name} seed {seed}"

        enc_w = init_encoder(GRAD_CFG, seed=seed, dtype=np.float64)
        head_w = init_head(GRAD_HEAD, GRAD_CFG.dim, seed=seed + 1,
                           dtype=np.float64)
        images = rng.normal(size=(2, 3, 8, 8))
        labels = rng.integers(0, 9, size=2)
        for name, param in {**{f"enc.{k}": v for k, v in enc_w.items()},
                            **{f"head.{k}": v for k, v in head_w.items()}
                            }.items():
            if param.data.size == 0:
                continue

            def f(t, _name=name):
                if _name.startswith("enc."):
                    probe_enc = dict(enc_w)
                    probe_enc[_name[4:]] = t
                    return _composite_loss(images, labels, probe_enc, head_w)
                probe_head = dict(head_w)
                probe_head[_name[5:]] = t
                return _composite_loss(images, labels, enc_w, probe_head)

            # default step is too coarse against layer_norm curvature at
            # init scale; 1e-4 balances truncation vs float64 roundoff
            err = finite_diff_check(f, param, step=1e-4)
            if err > worst:
                worst, worst_site = err, f"composite {name} seed {seed}"
    elapsed = time.monotonic() - start
    _line("gradient suite",
          worst < 1e-3 and elapsed < 60.0,
          f"max rel error {worst:.2e} at {worst_site or 'n/a'}, "
          f"{elapsed:.1f}s (limits 1e-3, 60s)")


# ----------------------------------------------------------------------
# 2. metric oracle suite


def test_metric_oracles():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(200):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 60, size=4))
        if tp + tn + fp + fn == 0:
            tp = 1
        b = BinaryCounts(tp=tp, tn=tn, fp=fp, fn=fn)
        got = basic_metrics(b)

        total = tp + tn + fp + fn
        acc = (tp + tn) / total
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        spec = tn / (tn + fp) if tn + fp else 0.0
        f1 = (2.0 * tp) / (2.0 * tp + fp + fn) if tp + fp + fn else 0.0
        f1_pr = (2.0 * prec * rec) / (prec + rec) if prec + rec else 0.0
        mcc_den = math.sqrt(float(tp + fp) * float(tp + fn)
                            * float(tn + fp) * float(tn + fn))
        mcc = (float(tp) * tn - float(fp) * fn) / mcc_den if mcc_den else 0.0

        assert got.accuracy == acc
        assert got.precision == prec
        assert got.recall == rec
        assert got.specificity == spec
        assert got.f1 == f1
        assert abs(got.f1 - f1_pr) <= 1e-12  # harmonic-mean form, one ulp apart
        assert got.mcc == mcc
        checked += 1

    worst = 0.0
    for _ in range(100):
        counts = rng.integers(0, 40, size=(2, 2))
        counts[0, 0] += 1
        counts[1, 1] += 1
        cm = ConfusionMatrix(2, counts)
        binary = basic_metrics(one_vs_rest(cm, 1)).mcc
        worst = max(worst, abs(mcc_multiclass(cm) - binary))
    _line("metric oracle suite", worst <= 1e-12,
          f"{checked} binary count sets exact; multiclass-vs-binary MCC "
          f"max diff {worst:.2e} (limit 1e-12)")


# ----------------------------------------------------------------------
# 3. micro-average identity


def test_micro_average_identity():
    rng = np.random.default_rng(7)
    worst_ok = True
    for _ in range(100):
        k = int(rng.integers(2, 10))
        counts = rng.integers(0, 25, size=(k, k))
        counts[0, 0] += 1  # non-empty
        cm = ConfusionMatrix(k, counts)
        micro = micro_average(cm)
        want = cm.trace / cm.total
        same = (micro.precision == want and micro.recall == want
                and micro.f1 == want and micro.accuracy == want)
        worst_ok = worst_ok and same
        assert same, (micro, want)
    _line("micro-average identity", worst_ok,
          "precision = recall = F1 = accuracy = trace/total on 100 "
          "random matrices, exact equality")


# ----------------------------------------------------------------------
# 4. shape contract


def test_shape_contract():
    rng = np.random.default_rng(3)
    details = []
    for dim, heads, depth in ((8, 2, 2), (32, 4, 2)):
        cfg = EncoderConfig(dim=dim, heads=heads, depth=depth)
        w = init_encoder(cfg, seed=dim)
        img = rng.normal(size=(1, 3, 224, 224)).astype(np.float32)
        seq = encode_batch(img, w, cfg)
        assert seq.shape == (1, 261, dim)
        assert readout(cfg).shape == (2, 261)
        feats = aggregate_features(seq, cfg)
        assert feats.shape == (1, 2 * dim)
        details.append(f"D={dim} ok")

    # full-scale width, shape only: embedding+norm forward, no blocks
    cfg = EncoderConfig(dim=1280, heads=16, depth=0)
    w = init_encoder(cfg, seed=0)
    seq = encode_batch(rng.normal(size=(1, 3, 224, 224)).astype(np.float32),
                       w, cfg)
    assert seq.shape == (1, 261, 1280)
    feats = aggregate_features(seq, cfg)
    assert feats.shape == (1, 2560)
    # block weight shapes at full width, no forward pass
    deep = EncoderConfig(dim=1280, heads=16, depth=2)
    dw = init_encoder(deep, seed=0)
    assert dw["blk1.attn.wq"].shape == (1280, 1280)
    assert dw["blk1.mlp.w1"].shape == (1280, 5120)
    assert dw["pos"].shape == (256, 1280)
    details.append("D=1280 shape-only ok (feature vector 2560)")
    _line("shape contract", True,
          "256 patch + 4 register + 1 class tokens; " + "; ".join(details))


# ----------------------------------------------------------------------
# 5. scheduler values


def test_scheduler_values():
    total, warm = 20, 5
    lr_max, lr_min = 1e-5, 1e-6
    lr = lambda s: lr_at(s, total, warm, lr_max, lr_min)

    peak_err = abs(lr(warm) - lr_max)
    floor_err = abs(lr(total - 1) - lr_min)
    mid_err = abs(lr(12) - 5.5e-6)
    start_ok = lr(0) == 0.0
    values = [lr(s) for s in range(total)]
    max_jump = max(abs(b - a) for a, b in zip(values, values[1:]))
    smooth = max_jump <= lr_max / warm + 1e-15

    ok = (peak_err <= 1e-12 and floor_err <= 1e-12 and mid_err <= 1e-12
          and start_ok and smooth)
    _line("scheduler", ok,
          f"peak err {peak_err:.1e}, floor err {floor_err:.1e}, midpoint "
          f"err {mid_err:.1e} (limits 1e-12); warmup starts at 0; max "
          f"step-to-step jump {max_jump:.2e} <= warmup increment")


# ----------------------------------------------------------------------
# 6. stratification on the default long-tailed profile


def test_stratification_balance():
    labels = np.repeat(np.arange(9), DEFAULT_PROFILE)
    folds = 5
    worst_dev = 0.0
    for seed in range(10):
        fold_of = stratified_kfold(labels, folds, seed=seed)
        assert fold_of.shape == labels.shape
        assert set(fold_of.tolist()) == set(range(folds))
        for cls, count in enumerate(DEFAULT_PROFILE):
            for f in range(folds):
                size = int((labels[fold_of == f] == cls).sum())
                worst_dev = max(worst_dev, abs(size - count / folds))
    _line("stratification", worst_dev <= 1.0,
          f"10 seeds on profile {list(DEFAULT_PROFILE)}: folds partition the "
          f"dataset, worst per-class deviation from count/5 is "
          f"{worst_dev:.2f} (limit 1)")


# ----------------------------------------------------------------------
# 7. learning smoke test

SMOKE_COUNTS = (50, 30, 25, 20, 15, 15, 10, 10, 5)


def test_learning_smoke(tmp_path):
    start = time.monotonic()
    manifest = generate_synthetic(tmp_path / "smoke", SMOKE_COUNTS, seed=7,
                                  size=56)
    images, labels = load_preprocessed(manifest, size=56)
    assert images.shape == (180, 3, 56, 56)

    enc = EncoderConfig(image_size=56, tile_size=14, dim=32, depth=2,
                        heads=4, registers=4, mlp_ratio=4)
    head = HeadConfig(bottleneck=16, dropout=0.5)
    cfg = TrainConfig(folds=5, epochs=30, warmup_epochs=2, batch_size=32,
                      lr_max=1e-2, lr_min=1e-3, weight_decay=0.01, seed=11)
    fold_of = stratified_kfold(labels, cfg.folds, cfg.seed)

    def run():
        return train_fold(images, labels, fold_of, 0, enc, head, cfg)

    result, model = run()
    train_acc = float((model.predict(images[fold_of != 0])
                       == labels[fold_of != 0]).mean())

    val_labels = labels[fold_of == 0]
    majority = max(np.bincount(val_labels, minlength=9)) / len(val_labels)

    result2, _ = run()
    identical = (np.array_equal(result.confusion.counts,
                                result2.confusion.counts)
                 and result.micro == result2.micro
                 and result.epoch_losses == result2.epoch_losses)

    elapsed = time.monotonic() - start
    ok = (train_acc >= 0.99 and len(result.epoch_losses) == cfg.epochs
          and result.micro.f1 > majority and elapsed < 300.0 and identical)
    _line("learning smoke test", ok,
          f"train acc {train_acc:.3f} after {len(result.epoch_losses)} "
          f"epochs; held-out micro F1 {result.micro.f1:.3f} vs majority "
          f"baseline {majority:.3f}; two same-seed runs identical: "
          f"{identical}; {elapsed:.0f}s (limit 300)")


# ----------------------------------------------------------------------
# 8. end-to-end CV through the CLI


def test_end_to_end_cv(tmp_path):
    data = tmp_path / "data"
    generate_synthetic(data, [10] * 9, seed=5, size=28)
    out = tmp_path / "runs"
    code = main(["cv", "--data", str(data), "--out", str(out),
                 "--image-size", "28", "--tile-size", "14", "--dim", "8",
                 "--depth", "1", "--heads", "2", "--registers", "2",
                 "--mlp-ratio", "2", "--bottleneck", "4",
                 "--folds", "5", "--epochs", "2", "--warmup-epochs", "1",
                 "--batch-size", "16", "--lr-max", "1e-3",
                 "--lr-min", "1e-4", "--seed", "2"])
    assert code == 0

    run_dir = (out / "latest").resolve()
    payload = json.loads((run_dir / "run.json").read_text())
    n_folds = len(payload["folds"])
    confusion_total = int(np.asarray(payload["confusion"]).sum())

    report = (run_dir / "report.txt").read_text()
    header = report.splitlines()[0].split()
    table_ok = (header == ["metric"] + list(CLASS_CODES) + ["Average"]
                and any(l.startswith("mcc") and l.count("--") == 9
                        for l in report.splitlines()))

    ok = n_folds == 5 and confusion_total == 90 and table_ok
    _line("end-to-end CV", ok,
          f"cmd_cv exit 0; {n_folds} fold results; aggregated confusion "
          f"total {confusion_total} == dataset size 90 (each sample held "
          f"out once); report table has 9 class columns + Average: "
          f"{table_ok}")


# ----------------------------------------------------------------------
# 9. round trips


def test_round_trips(tmp_path):
    rng = np.random.default_rng(9)
    img = rng.integers(0, 256, size=(17, 31, 3), dtype=np.uint8)
    p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    save_ppm(img, p1)
    back = load_ppm(p1)
    save_ppm(back, p2)
    ppm_ok = (np.array_equal(back, img)
              and p1.read_bytes() == p2.read_bytes())

    model = PatchClassifier(
        EncoderConfig(image_size=28, tile_size=14, dim=8, depth=1, heads=2,
                      registers=2, mlp_ratio=2),
        HeadConfig(bottleneck=4), seed=13)
    batch = rng.normal(size=(3, 3, 28, 28)).astype(np.float32)
    before = model.logits(batch).data
    save_model(tmp_path / "m.ckpt", model)
    restored, _ = load_model(tmp_path / "m.ckpt")
    after = restored.logits(batch).data
    ckpt_ok = before.tobytes() == after.tobytes()

    _line("round trips", ppm_ok and ckpt_ok,
          f"PPM save/load bitwise identical: {ppm_ok}; checkpoint reload "
          f"gives bit-identical eval logits: {ckpt_ok}")
