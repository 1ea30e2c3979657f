"""PatchClassifier.predict: argmax labels from a forward that records no
graph and leaves every parameter's ``requires_grad`` as it found it. And
the model's function: a forward with layer-norm affines, a tile bias and
value biases computes nothing the model's own weights cannot."""

import math

import numpy as np
import pytest

from gbmpatch.encoder import EncoderConfig, readout, tile_image
from gbmpatch.errors import DimensionError
from gbmpatch.head import HeadConfig
from gbmpatch.model import PatchClassifier
from gbmpatch.tensor import (ComputationRecord, Tensor, attention,
                             broadcast_to, concat, layer_norm, linear, matmul,
                             reshape, silu)

TINY = EncoderConfig(image_size=28, tile_size=14, dim=8, depth=1, heads=2,
                     registers=2, mlp_ratio=2)


@pytest.fixture
def model():
    return PatchClassifier(TINY, HeadConfig(bottleneck=4), seed=3)


@pytest.fixture
def images():
    return np.random.default_rng(4).normal(
        size=(7, 3, 28, 28)).astype(np.float32)


def flags(model):
    return {name: p.requires_grad for name, p in model.parameters().items()}


def test_predictions_are_argmax_of_logits(model, images):
    preds = model.predict(images, batch_size=3)
    np.testing.assert_array_equal(
        preds, np.argmax(model.logits(images).data, axis=1))


def test_flags_restored_including_frozen_encoder(model, images):
    for p in model.encoder.values():
        p.requires_grad = False
    before = flags(model)
    model.predict(images, batch_size=3)
    assert flags(model) == before
    assert set(before.values()) == {True, False}


def test_flags_restored_when_forward_raises(model):
    before = flags(model)
    with pytest.raises(DimensionError):
        model.predict(np.zeros((2, 3, 27, 27), dtype=np.float32))
    assert flags(model) == before


def test_predict_never_touches_a_flag(model, images, monkeypatch):
    # the flags seen during the forward are the ones set before it
    for p in model.head.values():
        p.requires_grad = False
    before = flags(model)
    during = []
    logits = PatchClassifier.logits

    def snapshot(self, *args, **kwargs):
        during.append(flags(model))
        return logits(self, *args, **kwargs)

    monkeypatch.setattr(PatchClassifier, "logits", snapshot)
    model.predict(images, batch_size=3)
    assert len(during) == 3 and all(seen == before for seen in during)
    assert set(before.values()) == {True, False}


def test_builds_no_graph(model, images, monkeypatch):
    built = []
    logits = PatchClassifier.logits

    def recording(self, *args, **kwargs):
        out = logits(self, *args, **kwargs)
        built.append(out)
        return out

    monkeypatch.setattr(PatchClassifier, "logits", recording)
    model.predict(images, batch_size=3)
    assert len(built) == 3
    assert all(out._parents == () and not out.requires_grad for out in built)
    assert all(p.grad is None for p in model.parameters().values())


def test_desk_loss_graph_is_small():
    """A 56/14 train loss records one node per op the model states: each
    block is two norms, six ``linear``s, ``attention``, ``silu`` and two
    residual adds, with no head split or merge of its own, and the head
    reads its features with one ``matmul`` and one ``reshape``."""
    cfg = EncoderConfig(image_size=56)
    model = PatchClassifier(cfg, HeadConfig(), seed=0)
    images = np.random.default_rng(0).normal(size=(2, 3, 56, 56))
    loss = model.loss(images.astype(np.float32), [0, 1], dropout_seed=1)
    ops = [n._op for n in ComputationRecord.trace(loss).nodes if n._parents]
    assert len(ops) == 36
    per_block = {"layer_norm": 2, "linear": 6, "attention": 1, "silu": 1,
                 "add": 2}
    outside = {"linear": 3, "broadcast": 2, "concat": 1, "layer_norm": 1,
               "matmul": 1, "reshape": 1, "silu": 1, "dropout": 1,
               "cross_entropy": 1}
    want = {op: cfg.depth * per_block.get(op, 0) + outside.get(op, 0)
            for op in {*per_block, *outside}}
    assert {op: ops.count(op) for op in set(ops)} == want
    assert not {"transpose", "narrow", "mean"} & set(ops)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_no_parameter_is_inert(images, seed):
    # a weight the math cancels (a key bias under softmax) gets a gradient
    # of rounding noise only, some 1e-13 of the largest
    model = PatchClassifier(TINY, HeadConfig(bottleneck=4), seed=seed)
    model.loss(images, [0, 1, 2, 3, 4, 5, 6], train=True,
               dropout_seed=seed).backward()
    peaks = {name: float(np.abs(p.grad).max())
             for name, p in model.parameters().items() if p.data.size}
    top = max(peaks.values())
    inert = {name: peak / top for name, peak in peaks.items()
             if peak < 1e-9 * top}
    assert not inert, inert


# ----------------------------------------------------------------------
# the weights the model does not have: each one folds into one it has


def affine_reference(images, w, enc_cfg):
    """Eval logits of the encoder and head with the weights they fold
    away stated: a gain and bias on every layer norm, a tile-projection
    bias ``patch.b`` and a value bias ``bv`` per block. Built from public
    ops in the forward's own order, so unit gains and zero biases give
    the model's bits."""
    b, d = images.shape[0], enc_cfg.dim

    def norm(x, p):
        return layer_norm(x) * w[f"{p}.g"] + w[f"{p}.b"]

    tiles = Tensor(tile_image(images, enc_cfg.tile_size))
    tokens = linear(tiles, w["enc.patch.w"], w["enc.pos"]) + w["enc.patch.b"]
    cls = broadcast_to(w["enc.cls"], (b, 1, d))
    reg = broadcast_to(w["enc.reg"], (b, enc_cfg.registers, d))
    x = concat([cls, reg, tokens], axis=1)
    for i in range(enc_cfg.depth):
        p = f"enc.blk{i}"
        y = norm(x, f"{p}.ln1")
        q = linear(y, w[f"{p}.attn.wq"], w[f"{p}.attn.bq"])
        k = linear(y, w[f"{p}.attn.wk"])
        v = linear(y, w[f"{p}.attn.wv"], w[f"{p}.attn.bv"])
        ctx = attention(q, k, v, enc_cfg.heads, 1.0 / math.sqrt(enc_cfg.head_dim))
        x = x + linear(ctx, w[f"{p}.attn.wo"], w[f"{p}.attn.bo"])
        y = norm(x, f"{p}.ln2")
        x = x + linear(silu(linear(y, w[f"{p}.mlp.w1"], w[f"{p}.mlp.b1"])),
                       w[f"{p}.mlp.w2"], w[f"{p}.mlp.b2"])
    seq = norm(x, "enc.final")
    feats = reshape(matmul(Tensor(readout(enc_cfg, seq.dtype)), seq),
                    (b, 2 * d))
    hidden = silu(linear(feats, w["head.w1"], w["head.b1"]))
    return linear(hidden, w["head.w2"], w["head.b2"])


def affine_names(enc_cfg):
    """The names of the folded-away weights, each of shape (dim,)."""
    block = ("ln1.g", "ln1.b", "attn.bv", "ln2.g", "ln2.b")
    return (["enc.patch.b", "enc.final.g", "enc.final.b"]
            + [f"enc.blk{i}.{n}" for i in range(enc_cfg.depth) for n in block])


def fold(ref, enc_cfg):
    """The model's weights that compute what ``ref``'s affine weights do:
    a norm's gain scales the rows of the weight after it and its bias
    passes through that weight into the next bias; ``bv`` reaches ``bo``
    through ``wo``; ``patch.b`` joins every row of ``pos``. The ln1 bias's
    key term adds one constant per score row, which softmax cancels."""
    w = {n: a.copy() for n, a in ref.items() if n not in affine_names(enc_cfg)}
    w["enc.pos"] += ref["enc.patch.b"]
    for i in range(enc_cfg.depth):
        p = f"enc.blk{i}"
        g, bias = ref[f"{p}.ln1.g"], ref[f"{p}.ln1.b"]
        for m in ("wq", "wk", "wv"):
            w[f"{p}.attn.{m}"] = g[:, None] * ref[f"{p}.attn.{m}"]
        w[f"{p}.attn.bq"] += bias @ ref[f"{p}.attn.wq"]
        w[f"{p}.attn.bo"] += ((bias @ ref[f"{p}.attn.wv"] + ref[f"{p}.attn.bv"])
                              @ ref[f"{p}.attn.wo"])
        g, bias = ref[f"{p}.ln2.g"], ref[f"{p}.ln2.b"]
        w[f"{p}.mlp.w1"] = g[:, None] * ref[f"{p}.mlp.w1"]
        w[f"{p}.mlp.b1"] += bias @ ref[f"{p}.mlp.w1"]
    # both halves of the head's feature, patch mean and class token, get
    # the final norm's affine
    g = np.concatenate([ref["enc.final.g"]] * 2)
    bias = np.concatenate([ref["enc.final.b"]] * 2)
    w["head.w1"] = g[:, None] * ref["head.w1"]
    w["head.b1"] += bias @ ref["head.w1"]
    return w


def test_unit_affine_reference_is_the_model_bit_for_bit(images):
    model = PatchClassifier(TINY, HeadConfig(bottleneck=4), seed=5)
    ref = {n: p.data for n, p in model.parameters().items()}
    for name in affine_names(TINY):
        fill = np.ones if name.endswith(".g") else np.zeros
        ref[name] = fill(TINY.dim, np.float32)
    want = affine_reference(images, {n: Tensor(a) for n, a in ref.items()},
                            TINY)
    assert np.array_equal(model.logits(images).data, want.data)


@pytest.mark.parametrize("seed", [0, 1])
def test_random_affine_folds_into_the_model(seed):
    rng = np.random.default_rng(seed)
    images = rng.normal(size=(5, 3, 28, 28))
    model = PatchClassifier(TINY, HeadConfig(bottleneck=4), seed=seed)
    ref = {n: rng.normal(0, 0.5, p.shape) for n, p in model.parameters().items()}
    for name in affine_names(TINY):
        centre = 1.0 if name.endswith(".g") else 0.0
        ref[name] = rng.normal(centre, 0.5, TINY.dim)
    want = affine_reference(images, {n: Tensor(a) for n, a in ref.items()},
                            TINY).data
    folded = PatchClassifier.from_arrays(TINY, model.head_cfg, fold(ref, TINY))
    got = folded.logits(images).data
    assert got.dtype == np.float64
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    assert np.abs(want).max() > 1e-2
