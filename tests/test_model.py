"""PatchClassifier.predict: argmax labels from a forward that records no
graph and leaves every parameter's ``requires_grad`` as it found it. And
the model's function: a forward with layer-norm affines, a tile bias and
value biases computes nothing the model's own weights cannot."""

import itertools
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from gbmpatch import tensor
from gbmpatch.encoder import EncoderConfig, init_encoder, readout, tile_image
from gbmpatch.errors import DimensionError, ParameterError
from gbmpatch.head import HeadConfig, init_head
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


@pytest.mark.parametrize("idx", [[6, 0, 3, 3, 5], [2], []],
                         ids=["shuffled-repeats", "one", "none"])
def test_predict_rows_equals_predict_of_the_gathered_images(model, images, idx):
    idx = np.asarray(idx, dtype=np.int64)
    got = model.predict(images, batch_size=2, rows=idx)
    assert got.dtype == np.int64
    assert got.tobytes() == model.predict(images[idx], batch_size=2).tobytes()


@pytest.mark.parametrize("seed,match", [
    (1.5, "seed must be an integer"), (True, "seed must be an integer"),
    ("1", "seed must be an integer"), (-1, "seed must be >= 0")])
@pytest.mark.parametrize("build", [
    lambda seed: PatchClassifier(TINY, HeadConfig(bottleneck=4), seed=seed),
    lambda seed: init_encoder(TINY, seed=seed),
    lambda seed: init_head(HeadConfig(bottleneck=4), 8, seed=seed)],
    ids=["model", "init_encoder", "init_head"])
def test_seed_is_a_nonnegative_integer(build, seed, match):
    # 1.5 and -1 once died in default_rng with a bare TypeError and
    # ValueError, and True built the weights of seed 1
    with pytest.raises(ParameterError, match=match):
        build(seed)


def test_numpy_seed_builds_the_same_model(model):
    twin = PatchClassifier(TINY, HeadConfig(bottleneck=4), seed=np.int64(3))
    for name, p in model.parameters().items():
        assert twin.parameters()[name].data.tobytes() == p.data.tobytes()


@pytest.mark.parametrize("bad", [0, 2.0, True])
def test_predict_batch_size_is_a_positive_integer(model, images, bad):
    # 0 once died in range() with a bare ValueError
    with pytest.raises(ParameterError, match="batch_size must be"):
        model.predict(images, batch_size=bad)


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


def test_predict_leaves_the_class_as_it_found_it():
    # in a fresh process: copy.copy once cached __slotnames__ on the class
    # at the first predict, which an earlier test in this one may have run
    script = textwrap.dedent("""
        import numpy as np
        from gbmpatch.encoder import EncoderConfig
        from gbmpatch.head import HeadConfig
        from gbmpatch.model import PatchClassifier
        cfg = EncoderConfig(image_size=28, tile_size=14, dim=8, depth=1,
                            heads=2, registers=2, mlp_ratio=2)
        model = PatchClassifier(cfg, HeadConfig(bottleneck=4), seed=3)
        before = set(vars(PatchClassifier))
        model.predict(np.zeros((2, 3, 28, 28), np.float32))
        print(sorted(set(vars(PatchClassifier)) ^ before))
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_desk_loss_graph_is_small():
    """A 56/14 train loss records one node per op the model states: each
    block is two norms, five ``linear``s, one ``linear_silu``,
    ``attention`` and two residual adds, with no head split or merge of
    its own; embed is one ``tile_linear``, and the head reads its
    features with one ``matmul`` and one ``reshape`` and computes its
    bottleneck with one ``linear_silu``."""
    cfg = EncoderConfig(image_size=56)
    model = PatchClassifier(cfg, HeadConfig(), seed=0)
    images = np.random.default_rng(0).normal(size=(2, 3, 56, 56))
    loss = model.loss(images.astype(np.float32), [0, 1], dropout_seed=1)
    ops = [n._op for n in ComputationRecord.trace(loss).nodes if n._parents]
    assert len(ops) == 33
    per_block = {"layer_norm": 2, "linear": 5, "linear_silu": 1,
                 "attention": 1, "add": 2}
    outside = {"tile_linear": 1, "linear": 1, "linear_silu": 1,
               "broadcast": 2, "concat": 1, "layer_norm": 1, "matmul": 1,
               "reshape": 1, "dropout": 1, "cross_entropy": 1}
    want = {op: cfg.depth * per_block.get(op, 0) + outside.get(op, 0)
            for op in {*per_block, *outside}}
    assert {op: ops.count(op) for op in set(ops)} == want
    assert not {"transpose", "narrow", "mean", "silu"} & set(ops)


def held_arrays(root):
    """{id: (holder, array)} for every ndarray the graph behind ``root``
    holds: each node's ``.data``, and each array or tensor a backward
    closure keeps."""
    held = {}
    for node in ComputationRecord.trace(root).nodes:
        fn = node._backward_fn
        cells = zip(fn.__code__.co_freevars, fn.__closure__ or ()) if fn else ()
        for name, value in [("data", node.data),
                            *((name, cell.cell_contents) for name, cell in cells)]:
            if isinstance(value, Tensor):
                value = value.data
            if isinstance(value, np.ndarray):
                held.setdefault(id(value), (f"{node._op}.{name}", value))
    return held


def test_loss_graph_holds_each_activation_once(images):
    """A train loss's graph holds the caller's images and no copy of
    them, shares no memory between two holders but a ``reshape`` and its
    input, and holds exactly the arrays listed below."""
    model = PatchClassifier(TINY, HeadConfig(bottleneck=4), seed=3)
    labels = np.arange(7)
    loss = model.loss(images, labels, dropout_seed=5)
    held = held_arrays(loss)

    b, p = images.shape[0], TINY.n_patches
    tiles = b * p * TINY.patch_dim
    assert [name for name, a in held.values()
            if a.size == tiles and a is not images] == []
    assert id(images) in held

    pairs = {(x, y) for (x, a), (y, c) in itertools.combinations(held.values(), 2)
             if np.shares_memory(a, c)}
    assert pairs == {("matmul.data", "reshape.data")}

    f, i8 = 4, 8   # float32 and int64 bytes
    s, d, hidden, heads = TINY.seq_len, TINY.dim, TINY.mlp_ratio * TINY.dim, TINY.heads
    k, classes = model.head_cfg.bottleneck, 9
    rows = b * s * d * f   # one (B, seq_len, dim) activation
    block = {
        "two norms and their inverse stds": 2 * (rows + b * s * f),
        "q, k, v and the output projection": 4 * rows,
        "attention's output and −lse column": rows + b * heads * s * f,
        "linear_silu's output and pre-activation": 2 * b * s * hidden * f,
        "the MLP's second linear": rows,
        "two residual adds": 2 * rows,
    }
    want = {
        "parameters": sum(t.data.nbytes for t in model.parameters().values()),
        "the images, kept by tile_linear": images.nbytes,
        "tile_linear's tokens": b * p * d * f,
        "class and register broadcasts": b * (1 + TINY.registers) * d * f,
        "concat and its cuts (a view of a 3-entry cumsum)": rows + 3 * i8,
        "blocks": TINY.depth * sum(block.values()),
        "final norm and its inverse std": rows + b * s * f,
        "readout constant and its matmul (reshape is a view)":
            2 * s * f + b * 2 * d * f,
        "head linear_silu's output and pre-activation": 2 * b * k * f,
        "dropout and its mask": 2 * b * k * f,
        "logits": b * classes * f,
        "loss, labels, row index and log-probabilities":
            f + 2 * b * i8 + b * classes * f,
    }
    # a view keeps its whole base alive, so count each base buffer once
    bases = {}
    for _, a in held.values():
        while isinstance(a.base, np.ndarray):
            a = a.base
        bases[id(a)] = a.nbytes
    assert sum(bases.values()) == sum(want.values())


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


@pytest.mark.parametrize("image_size", [56, 224])
def test_float32_stays_near_its_float64_twin(image_size):
    """The float64 twin, built by ``from_arrays`` from the same weights,
    gauges float32's accuracy: one training loss, its gradients and the
    eval logits of a batch of 16. The weights are scaled x10 so that the
    logits are not ~0. Measured at seed 0 on one OpenBLAS thread, 56/14
    then 224/14: loss 9.1e-8 and 7.2e-8, gradients 2.0e-6 and 2.5e-6,
    logits 8.3e-7 and 1.6e-6. Each bound is about ten times those."""
    enc = EncoderConfig(image_size=image_size, tile_size=14)
    head = HeadConfig()
    fresh = PatchClassifier(enc, head, seed=0).parameters()
    rng = np.random.default_rng(0)
    images = rng.normal(size=(16, 3, image_size, image_size)).astype(np.float32)
    labels = np.arange(16) % 9
    runs = []
    for dtype in (np.float32, np.float64):
        model = PatchClassifier.from_arrays(
            enc, head, {n: (p.data * 10).astype(dtype) for n, p in fresh.items()})
        loss = model.loss(images.astype(dtype), labels, dropout_seed=3)
        loss.backward()
        assert loss.dtype == dtype
        runs.append((loss.item(),
                     {n: p.grad for n, p in model.parameters().items()},
                     model.logits(images.astype(dtype)).data))
    (loss32, grads32, logits32), (loss64, grads64, logits64) = runs
    loss_err = abs(loss32 - loss64) / abs(loss64)
    grad_err = max(np.abs(grads32[n] - g).max() / np.abs(g).max()
                   for n, g in grads64.items())
    logit_err = np.abs(logits32 - logits64).max() / np.abs(logits64).max()
    assert loss_err < 1e-6
    assert grad_err < 3e-5
    assert logit_err < 1.5e-5


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("image_size", [56, 224])
def test_an_image_scores_the_same_in_any_chunk(image_size, dtype):
    """Every image's logits are the same bits whatever chunk it is scored
    in: alone, beside one to six others, in a chunk of 64, or in the
    whole batch of 67."""
    enc = EncoderConfig(image_size=image_size, tile_size=14)
    fresh = PatchClassifier(enc, HeadConfig(), seed=7).parameters()
    model = PatchClassifier.from_arrays(
        enc, HeadConfig(), {n: p.data.astype(dtype) for n, p in fresh.items()})
    images = np.random.default_rng(7).normal(
        size=(67, 3, image_size, image_size)).astype(dtype)
    whole = model.logits(images).data
    for chunk in (1, 2, 3, 7, 64):
        got = np.concatenate([model.logits(images[start:start + chunk]).data
                              for start in range(0, len(images), chunk)])
        np.testing.assert_array_equal(got, whole, err_msg=f"chunk {chunk}")


def test_a_run_replays_under_any_openblas_thread_count():
    """Importing gbmpatch runs OpenBLAS on one thread, so three training
    steps and the eval logits at 224/14 hash the same under every
    OPENBLAS_NUM_THREADS, set or not."""
    if not tensor._BLAS_ONE_THREAD:
        pytest.skip("the loaded BLAS exports no OpenBLAS thread setter")
    script = textwrap.dedent("""
        import hashlib
        import numpy as np
        from gbmpatch.cv import AdamState, TrainConfig, adam_step
        from gbmpatch.encoder import EncoderConfig
        from gbmpatch.head import HeadConfig
        from gbmpatch.model import PatchClassifier
        model = PatchClassifier(EncoderConfig(image_size=224, tile_size=14),
                                HeadConfig(), seed=7)
        images = np.random.default_rng(7).normal(
            size=(8, 3, 224, 224)).astype(np.float32)
        labels = np.arange(8) % 9
        params = model.parameters()
        state, digest = AdamState(params), hashlib.sha256()
        for step in range(3):
            model.zero_grad()
            loss = model.loss(images, labels, dropout_seed=step)
            loss.backward()
            digest.update(loss.data.tobytes())
            adam_step(params, state, 1e-3, TrainConfig())
        digest.update(model.logits(images).data.tobytes())
        print(digest.hexdigest())
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    hashes = {}
    for threads in ("1", "2", "3", None):
        env = dict(os.environ, PYTHONPATH=str(src))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        hashes[threads] = proc.stdout
    assert len(set(hashes.values())) == 1, hashes
