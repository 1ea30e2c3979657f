"""Tests for the autodiff tensor engine.

Derived expectations were computed with independent oracles (triple-loop
matmul, direct exp/sum evaluation, hand arithmetic) and frozen here.
"""

import ctypes
import inspect
import os
import select
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from gbmpatch import tensor as T
from gbmpatch.encoder import EncoderConfig
from gbmpatch.errors import ContractError, DataError, DimensionError, ParameterError
from gbmpatch.head import HeadConfig
from gbmpatch.model import PatchClassifier
from gbmpatch.tensor import Tensor


def triple_loop_matmul(a, b):
    """Independent matmul oracle: naive triple loop."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal((a @ b).data, [[1.0, 2.0], [3.0, 4.0]])

    def test_projector_row_selection(self):
        p = Tensor([[1.0, 0.0], [0.0, 0.0]])
        m = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal((p @ m).data, [[5.0, 6.0], [0.0, 0.0]])

    def test_random_against_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        got = (Tensor(a) @ Tensor(b)).data
        np.testing.assert_allclose(got, triple_loop_matmul(a, b), rtol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_stacked_matmul_matches_per_slice(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 3, 4))
        w = rng.normal(size=(4, 2))
        got = (Tensor(a) @ Tensor(w)).data
        for i in range(5):
            np.testing.assert_allclose(got[i], triple_loop_matmul(a[i], w), rtol=1e-12)


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-7)

    def test_large_logits_do_not_overflow(self):
        out = T.softmax(Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-30)

    def test_direct_evaluation(self):
        out = T.softmax(Tensor([1.0, 2.0, 3.0], dtype=np.float64))
        np.testing.assert_allclose(
            out.data, [0.09003057, 0.24472847, 0.66524096], atol=1e-7)

    def test_rows_sum_to_one_nonnegative(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x = rng.normal(scale=50.0, size=(6, 9))
            out = T.softmax(Tensor(x), axis=-1).data
            assert np.all(out >= 0.0)
            np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)


def heads_last(a):
    """(batch, heads, rows, width) -> the (batch, rows, heads·width) layout
    ``attention`` takes."""
    b, h, n, w = a.shape
    return np.ascontiguousarray(a.transpose(0, 2, 1, 3)).reshape(b, n, h * w)


def composite_attention(q, k, v, heads, scale):
    """``softmax(q @ kᵀ * scale) @ v`` per head from separate ops: the
    reference ``attention`` must match."""
    b, n, d = q.shape

    def split(t):
        return T.transpose(T.reshape(t, (b, -1, heads, t.shape[-1] // heads)),
                           (0, 2, 1, 3))

    scores = (split(q) @ T.transpose(split(k), (0, 1, 3, 2))) * scale
    ctx = T.softmax(scores, axis=-1) @ split(v)
    return T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, n, -1))


class TestAttention:
    @staticmethod
    def operands(spread, shape=(2, 4, 7, 8)):
        """float32 (batch, rows, heads·width) q, k, v and output weights
        from (batch, heads, rows, width) draws, with a scale that puts the
        largest score at +-``spread``."""
        rng = np.random.default_rng(3)
        q, k, v, w = (rng.normal(size=shape).astype(np.float32)
                      for _ in range(4))
        scale = spread / float(np.abs(q @ np.swapaxes(k, -1, -2)).max())
        return (*(heads_last(a) for a in (q, k, v, w)), scale)

    @staticmethod
    def recentred(monkeypatch):
        """The slices attention recomputes from their exact row max, in
        call order."""
        seen, real = [], T._recentre

        def spy(i, qa, *arrays):
            # a part counts i from its own first slice; the slice's place in
            # the op's whole qa array is its index among all of them
            whole = qa if qa.base is None else qa.base
            seen.append((qa[i].ctypes.data - whole.ctypes.data) // qa.strides[0])
            real(i, qa, *arrays)

        monkeypatch.setattr(T, "_recentre", spy)
        return seen

    @staticmethod
    def under_floor(q, k, heads, scale):
        """The slices with a row sum under the floor when row i is shifted
        by ‖q_i·scale‖ · max_j ‖k_j‖, in float64."""
        def split(a):
            b, n, d = a.shape
            return (a.astype(np.float64).reshape(b, n, heads, d // heads)
                    .transpose(0, 2, 1, 3).reshape(b * heads, n, d // heads))

        qs, ks = split(q) * scale, split(k)
        bound = (np.linalg.norm(qs, axis=-1)
                 * np.linalg.norm(ks, axis=-1).max(axis=-1, keepdims=True))
        sums = np.exp(qs @ np.swapaxes(ks, -1, -2) - bound[..., None]).sum(-1)
        return list(np.flatnonzero((sums < T._SUM_FLOOR).any(axis=-1)))

    @pytest.mark.parametrize("spread", [1.0, 1000.0])
    def test_forward_matches_composite(self, spread):
        q, k, v, _, scale = self.operands(spread)
        fused = T.attention(Tensor(q), Tensor(k), Tensor(v), 4, scale).data
        unfused = composite_attention(Tensor(q), Tensor(k), Tensor(v), 4, scale).data
        assert fused.dtype == np.float32 and np.all(np.isfinite(fused))
        np.testing.assert_allclose(fused, unfused, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("spread", [1.0, 1000.0])
    def test_gradients_match_composite(self, spread):
        q, k, v, w, scale = self.operands(spread)
        grads = []
        for op in (T.attention, composite_attention):
            leaves = [Tensor(a, requires_grad=True) for a in (q, k, v)]
            (op(*leaves, 4, scale) * Tensor(w)).sum().backward()
            grads.append([t.grad for t in leaves])
        # on saturated rows D = rowsum(dO * O) cancels two near-equal terms,
        # so an entry is good to float32 rounding of the largest gradient
        for fused, unfused in zip(*grads):
            assert np.all(np.isfinite(fused))
            np.testing.assert_allclose(fused, unfused, rtol=1e-4,
                                       atol=1e-4 * np.abs(unfused).max())

    @pytest.mark.parametrize("spread", [1.0, 1000.0])
    def test_gradients_equal_a_backward_that_keeps_the_splits(
            self, monkeypatch, spread):
        # the op keeps only the −lse column and rebuilds [q·scale | −lse]
        # and [k | 1]ᵀ in backward; a backward that reads the slices its
        # forward built gets the same bits. At 1000 every slice took the
        # exact-max path, which rewrites the −lse column
        q, k, v, g, scale = self.operands(spread)
        built, real = [], T._split_heads

        def keep(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(T, "_split_heads", keep)
        out = T.attention(*(Tensor(a, requires_grad=True) for a in (q, k, v)),
                          4, scale)
        qa, kt = built[:2]   # as the forward left them: [q·s | −lse], [k | 1]ᵀ
        got = out._backward_fn(g)

        (b, n, width), heads = q.shape, 4
        w = width // heads
        d = (g * out.data).reshape(b, n, heads, w).sum(axis=-1)
        ga = real(g, heads, np.float32, -d.transpose(0, 2, 1))
        vt = real(v, heads, np.float32, 1.0, transpose=True)
        ks = real(k, heads, np.float32)
        p = np.exp(np.matmul(qa, kt))
        dv = np.matmul(np.swapaxes(p, -1, -2), ga[:, :, :w])
        dp = np.matmul(ga, vt) * p
        dq = np.matmul(dp, ks) * np.float32(scale)
        dk = np.matmul(np.swapaxes(dp, -1, -2), qa[:, :, :w])
        for fused, want in zip(got, (dq, dk, dv)):
            np.testing.assert_array_equal(fused, T._merge_heads(want, np.empty_like(fused)))

    def test_recentres_the_slices_under_the_floor(self, monkeypatch):
        # at +-1000 every slice has a row whose scores all sit hundreds
        # below its bound
        q, k, v, _, scale = self.operands(1000.0)
        seen = self.recentred(monkeypatch)
        out = T.attention(Tensor(q), Tensor(k), Tensor(v), 4, scale).data
        assert seen == self.under_floor(q, k, 4, scale) == list(range(8))
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("exact", [False, True])
    def test_each_path_matches_float64(self, monkeypatch, exact):
        # a floor of inf recomputes every slice from its exact row max
        if exact:
            monkeypatch.setattr(T, "_SUM_FLOOR", np.inf)
        seen = self.recentred(monkeypatch)
        q, k, v, w, scale = self.operands(1.0)
        runs = []
        for dtype in (np.float32, np.float64):
            leaves = [Tensor(a.astype(dtype), requires_grad=True) for a in (q, k, v)]
            op = T.attention if dtype == np.float32 else composite_attention
            out = op(*leaves, 4, scale)
            (out * Tensor(w.astype(dtype))).sum().backward()
            runs.append([out.data] + [t.grad for t in leaves])
        assert seen == (list(range(8)) if exact else [])
        (out, *grads), (want, *wants) = runs
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, want, rtol=1e-5, atol=1e-6)
        for got, want in zip(grads, wants):
            np.testing.assert_allclose(got, want, rtol=1e-4,
                                       atol=1e-4 * np.abs(want).max())

    def test_nan_inputs_give_nan_outputs(self):
        # a NaN query row spoils its own row; a NaN key spoils its slice
        q, k, v, w, scale = self.operands(1.0)
        q[0, 3, 0] = np.nan   # batch 0, head 0
        k[1, 2, 8] = np.nan   # batch 1, head 1
        leaves = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        out = T.attention(*leaves, 4, scale)
        (out * Tensor(w)).sum().backward()   # a RuntimeWarning fails the test
        want = composite_attention(Tensor(q), Tensor(k), Tensor(v), 4, scale).data
        nan = np.isnan(want)
        assert nan[0, 3, :8].all() and nan[1, :, 8:16].all()
        np.testing.assert_array_equal(np.isnan(out.data), nan)
        np.testing.assert_allclose(out.data[~nan], want[~nan], rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chunk_size_moves_no_bits(self, monkeypatch, dtype):
        # 3 batches of 5 heads, 15 slices: chunks of 1, of 4 (which leave
        # a remainder of 3) and one chunk over all of them. Heads 0, 2 and
        # 4 of batch 1 (slices 5, 7 and 9) get queries 30x as long, whose
        # row sums fall under the floor: they take the exact path, and
        # share chunks of 4 with slices that do not
        rng = np.random.default_rng(5)
        q, k, v, w = (rng.normal(size=(3, 5, 37, 8)).astype(dtype)
                      for _ in range(4))
        q[1, ::2] *= 30
        q, k, v, w = (heads_last(a) for a in (q, k, v, w))
        assert self.under_floor(q, k, 5, 0.3) == [5, 7, 9]
        seen = self.recentred(monkeypatch)
        block = 37 * 37 * np.dtype(dtype).itemsize
        runs = []
        for score_bytes in (1, 4 * block, 1 << 40):
            monkeypatch.setattr(T, "_SCORE_BYTES", score_bytes)
            leaves = [Tensor(a, requires_grad=True) for a in (q, k, v)]
            out = T.attention(*leaves, 5, 0.3)
            (out * Tensor(w)).sum().backward()
            runs.append([out.data] + [t.grad for t in leaves])
            assert seen == [5, 7, 9]
            seen.clear()
        for run in runs[1:]:
            for got, want in zip(run, runs[0]):
                assert got.dtype == dtype
                np.testing.assert_array_equal(got, want)

    def test_second_backward_repeats_the_first_bit_for_bit(self, monkeypatch):
        # chunks of 4 slices over 15 reuse one score and one ds block
        # within a call; a second call must not read the first one's. A
        # backward frees the closure, so the op's own backward runs twice
        # first, and then the engine's must give the same bits
        monkeypatch.setattr(T, "_SCORE_BYTES", 4 * 37 * 37 * 4)
        rng = np.random.default_rng(6)
        q, k, v, w = (heads_last(rng.normal(size=(3, 5, 37, 8)).astype(np.float32))
                      for _ in range(4))
        leaves = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        out = T.attention(*leaves, 5, 0.3)
        grads = [out._backward_fn(w.copy()) for _ in range(2)]
        (out * Tensor(w)).sum().backward()
        grads.append([t.grad for t in leaves])
        for first, *later in zip(*grads):
            for again in later:
                np.testing.assert_array_equal(first, again)

    def test_heads_split_the_columns(self):
        # with one head per column block, attention is per-block attention
        rng = np.random.default_rng(7)
        q, k, v = (rng.normal(size=(2, 5, 6)) for _ in range(3))
        whole = T.attention(Tensor(q), Tensor(k), Tensor(v), 3, 0.4).data
        for h in range(3):
            cols = slice(2 * h, 2 * h + 2)
            one = T.attention(*(Tensor(a[..., cols]) for a in (q, k, v)), 1, 0.4)
            np.testing.assert_array_equal(one.data, whole[..., cols])

    @pytest.mark.parametrize("k_shape,v_shape", [
        ((5, 12), (5, 12)),          # k lacks the batch axis
        ((2, 5, 9), (2, 5, 12)),     # key width differs from query width
        ((2, 5, 12), (2, 6, 12)),    # fewer keys than values
        ((2, 5, 12), (2, 5, 10)),    # 3 heads do not divide 10 value columns
    ])
    def test_shape_mismatch_rejected(self, k_shape, v_shape):
        q = Tensor(np.zeros((2, 7, 12)))
        with pytest.raises(DimensionError):
            T.attention(q, Tensor(np.zeros(k_shape)), Tensor(np.zeros(v_shape)),
                        3, 1.0)

    def test_heads_must_divide_the_query_width(self):
        t = Tensor(np.zeros((2, 7, 12)))
        with pytest.raises(DimensionError, match="5 heads"):
            T.attention(t, t, t, 5, 1.0)

    def test_nonpositive_heads_rejected(self):
        t = Tensor(np.zeros((2, 7, 12)))
        with pytest.raises(ParameterError):
            T.attention(t, t, t, 0, 1.0)

    @pytest.mark.parametrize("heads", [2.0, True, "2"])
    def test_heads_must_be_an_integer(self, heads):
        # 2.0 once died in the head split with a bare TypeError
        t = Tensor(np.zeros((2, 7, 12)))
        with pytest.raises(ParameterError, match="attention heads must be an integer"):
            T.attention(t, t, t, heads, 1.0)


class TestLinear:
    @pytest.mark.parametrize("x_shape", [(5, 4), (2, 5, 4)])
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_equals_matmul_plus_bias(self, x_shape, with_bias):
        rng = np.random.default_rng(8)
        x, w, b = (rng.normal(size=s).astype(np.float32)
                   for s in (x_shape, (4, 3), (3,)))
        got = T.linear(Tensor(x), Tensor(w), Tensor(b) if with_bias else None).data
        want = x @ w + b if with_bias else x @ w
        assert got.shape == x_shape[:-1] + (3,) and got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)

    def test_position_rows_broadcast_over_the_batch(self):
        rng = np.random.default_rng(9)
        x, w, pos = (rng.normal(size=s) for s in ((2, 5, 4), (4, 3), (5, 3)))
        got = T.linear(Tensor(x), Tensor(w), Tensor(pos)).data
        np.testing.assert_allclose(got, x @ w + pos, rtol=1e-12, atol=1e-12)

    def test_constant_input_gets_no_gradient(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(2, 5, 4)))
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        node = T.linear(x, w)
        dx, dw, _ = node._backward_fn(np.ones(node.shape))
        assert dx is None and dw.shape == (4, 3)
        T.silu(node).sum().backward()
        assert x.grad is None and w.grad is not None

    @pytest.mark.parametrize("w_shape,b_shape", [
        ((3, 2), None),      # rows of w do not match x's last axis
        ((4,), None),        # w is not a matrix
        ((4, 2), (3,)),      # bias width differs from the output's
        ((4, 2), (6, 2)),    # more position rows than tokens
    ])
    def test_shape_mismatch_rejected(self, w_shape, b_shape):
        x = Tensor(np.zeros((2, 5, 4)))
        b = None if b_shape is None else Tensor(np.zeros(b_shape))
        with pytest.raises(DimensionError):
            T.linear(x, Tensor(np.zeros(w_shape)), b)


class TestTileLinear:
    @staticmethod
    def operands(batch, size, dtype=np.float32):
        tiles = (size // 14) ** 2
        rng = np.random.default_rng(11)
        return (rng.normal(size=s).astype(t) for s, t in (
            ((batch, 3, size, size), dtype), ((588, 8), np.float32),
            ((tiles, 8), np.float32), ((batch, tiles, 8), np.float32)))

    def check(self, batch, size, dtype, step, blocks, monkeypatch):
        """tile_linear's output and gradients are linear's on tile_image's
        cut, bit for bit, and its forward cut the images in ``blocks``, in
        any order, as parts of the block loop may run at once."""
        images, w, pos, g = self.operands(batch, size, dtype)
        images, g = images[::step], g[::step]   # step 2: a strided view
        cut, cuts = T._cut, []

        def counted(images, tile, out):
            cuts.append(len(images))
            return cut(images, tile, out)

        runs = []
        for fused in (True, False):
            wt, bt = Tensor(w, requires_grad=True), Tensor(pos, requires_grad=True)
            if fused:
                with monkeypatch.context() as m:
                    m.setattr(T, "_cut", counted)
                    out = T.tile_linear(images, 14, wt, bt)
            else:
                out = T.linear(Tensor(T.tile_image(images, 14)), wt, bt)
            T.mul(out, Tensor(g)).sum().backward()
            runs.append((out.data, wt.grad, bt.grad))
        (out, dw, dpos), (want, want_dw, want_dpos) = runs
        assert sorted(cuts) == sorted(blocks)
        assert out.dtype == dtype and out.shape == g.shape
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(dw, want_dw)
        np.testing.assert_array_equal(dpos, want_dpos)

    def test_equals_linear_on_the_tiles_bit_for_bit(self, monkeypatch):
        # the paper's geometry: 256 tiles of 588, the embed product whose
        # reduction axis is longest, cut one image per block
        self.check(3, 224, np.float32, 1, [1, 1, 1], monkeypatch)

    # 56/14 cuts 27 images per block, then the remainder
    @pytest.mark.parametrize("batch, size, dtype, step, blocks", [
        (29, 56, np.float32, 1, [27, 2]),
        (64, 56, np.float32, 1, [27, 27, 10]),
        (3, 224, np.float64, 1, [1, 1, 1]),
        (6, 224, np.float32, 2, [1, 1, 1]),
        (58, 56, np.float32, 2, [27, 2]),
    ], ids=["56_remainder", "56_predict_chunk", "224_float64", "224_view",
            "56_view"])
    def test_blocks_equal_linear_on_the_tiles_bit_for_bit(
            self, batch, size, dtype, step, blocks, monkeypatch):
        self.check(batch, size, dtype, step, blocks, monkeypatch)

    def test_forward_holds_no_full_cut(self):
        # eight 224/14 images' tiles are (8, 256, 588) float32, 4.8 MB
        images, w, pos, _ = self.operands(8, 224)
        w, pos = Tensor(w), Tensor(pos)
        tracemalloc.start()
        try:
            T.tile_linear(images, 14, w, pos)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 256 * 588 * 4

    def test_logits_of_a_batch_join_those_of_its_halves(self):
        # each image's logits are the same bits in any batch
        cfg = EncoderConfig(image_size=224, tile_size=14, dim=8, depth=1,
                            heads=2, registers=1, mlp_ratio=2)
        model = PatchClassifier(cfg, HeadConfig(bottleneck=4), seed=2)
        images = next(self.operands(6, 224))
        whole = model.logits(images).data
        halves = [model.logits(images[:3]).data, model.logits(images[3:]).data]
        np.testing.assert_array_equal(whole, np.concatenate(halves))


class TestParts:
    """The engine's block and row loops in parts on the pool's threads, one
    per CPU, when the BLAS runs one thread per call."""

    @staticmethod
    def use(monkeypatch, cpus, blas=1):
        """The loops see CPUs 0..cpus−1 (a pin to one that is not there is
        skipped) and a BLAS of ``blas`` threads per call."""
        monkeypatch.setattr(T, "_blas_threads", lambda: blas)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))

    @staticmethod
    def threads(monkeypatch, name):
        """The names of the threads that call ``T.<name>``."""
        seen, real = set(), getattr(T, name)

        def spy(*args, **kwargs):
            seen.add(threading.current_thread().name)
            return real(*args, **kwargs)

        monkeypatch.setattr(T, name, spy)
        return seen

    @staticmethod
    def loops(monkeypatch):
        """One set per ``_in_parts`` call: the names of the threads that ran
        its parts."""
        seen, real = [], T._in_parts

        def spy(units, blocks, run):
            names = set()
            seen.append(names)

            def part(start, stop):
                names.add(threading.current_thread().name)
                run(start, stop)

            real(units, blocks, part)

        monkeypatch.setattr(T, "_in_parts", spy)
        return seen

    @staticmethod
    def finish(*threads):
        """Join each thread, which must end within a minute."""
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()

    @pytest.mark.parametrize("blas, cpus, blocks, want", [
        (1, 4, 8, [(0, 2), (2, 4), (4, 6), (6, 8)]),
        (1, 4, 5, [(0, 4), (4, 8)]),   # two blocks a thread at least
        (1, 4, 3, [(0, 8)]),
        (1, 1, 8, [(0, 8)]),
        (2, 4, 8, [(0, 8)]),           # a BLAS that threads each call
    ], ids=["all_cpus", "two_of_four", "too_few_blocks", "one_cpu", "blas_2"])
    def test_parts_follow_cpus_blocks_and_blas(self, monkeypatch, blas, cpus,
                                               blocks, want):
        self.use(monkeypatch, cpus, blas)
        ran = []
        T._in_parts(8, blocks, lambda start, stop: ran.append(
            (start, stop, threading.current_thread().name)))
        assert sorted(r[:2] for r in ran) == want
        names = {r[2] for r in ran}
        assert names == ({"MainThread"} if len(want) == 1 else
                         {f"gbmpatch-cpu{p}" for p in range(len(want))})

    def test_a_loop_under_four_blocks_asks_for_no_cpus(self, monkeypatch):
        # no machine spreads it, so it reads neither the CPUs nor the BLAS
        def refuse(*args):
            raise AssertionError("asked")

        monkeypatch.setattr(os, "sched_getaffinity", refuse)
        monkeypatch.setattr(T, "_blas_threads", refuse)
        ran = []
        T._in_parts(8, 3, lambda start, stop: ran.append(
            (start, stop, threading.current_thread().name)))
        assert ran == [(0, 8, "MainThread")]

    def test_the_same_threads_serve_every_call(self, monkeypatch):
        self.use(monkeypatch, 4)
        runs = []
        for _ in range(3):
            idents = set()
            T._in_parts(8, 8, lambda start, stop: idents.add(threading.get_ident()))
            runs.append(idents)
        assert len(runs[0]) == 4 and runs[0] == runs[1] == runs[2]
        assert threading.get_ident() not in runs[0]

    def test_a_nested_call_runs_on_its_part_thread(self, monkeypatch):
        self.use(monkeypatch, 4)
        inner = []

        def outer(start, stop):
            T._in_parts(8, 8, lambda first, last: inner.append(
                (first, last, threading.current_thread().name)))

        caller = threading.Thread(target=T._in_parts, args=(8, 8, outer), daemon=True)
        caller.start()
        self.finish(caller)
        assert sorted(inner) == [(0, 8, f"gbmpatch-cpu{p}") for p in range(4)]

    def test_a_second_python_thread_runs_inline_while_the_pool_works(
            self, monkeypatch):
        self.use(monkeypatch, 4)
        busy, free, ran = threading.Event(), threading.Event(), []

        def hold(start, stop):
            busy.set()
            free.wait(60)

        def second():
            busy.wait(60)
            T._in_parts(8, 8, lambda start, stop: ran.append(
                (start, stop, threading.current_thread().name)))
            free.set()

        threads = [threading.Thread(target=second, name="second", daemon=True),
                   threading.Thread(target=T._in_parts, args=(8, 8, hold),
                                    daemon=True)]
        for thread in threads:
            thread.start()
        self.finish(*threads)
        assert ran == [(0, 8, "second")]

    def test_a_changed_cpu_set_joins_the_old_pool(self, monkeypatch):
        def pool():
            return [t for t in threading.enumerate() if t.name.startswith("gbmpatch-")]

        self.use(monkeypatch, 4)
        T._in_parts(8, 8, lambda start, stop: None)
        old = pool()
        assert sorted(t.name for t in old) == [f"gbmpatch-cpu{p}" for p in range(4)]
        self.use(monkeypatch, 2)
        names = set()
        T._in_parts(8, 8, lambda start, stop: names.add(threading.current_thread().name))
        assert not any(t.is_alive() for t in old)
        assert names == {t.name for t in pool()} == {"gbmpatch-cpu0", "gbmpatch-cpu1"}

    def test_a_child_forked_after_a_spread_spreads_again(self, monkeypatch):
        self.use(monkeypatch, 2)
        x = np.random.default_rng(5).normal(size=(9, 261, 256)).astype(np.float32)
        loops = self.loops(monkeypatch)
        want = T.layer_norm(Tensor(x)).data
        assert loops == [{"gbmpatch-cpu0", "gbmpatch-cpu1"}]
        loops.clear()
        read, write = os.pipe()
        with warnings.catch_warnings():   # Python 3.12 warns of a fork with threads
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:   # the child: report, then leave without pytest's teardown
            try:
                fresh = T._pool is None
                same = np.array_equal(T.layer_norm(Tensor(x)).data, want)
                spread = loops == [{"gbmpatch-cpu0", "gbmpatch-cpu1"}]
                os.write(write, bytes([fresh, same, spread]))
            finally:
                os._exit(0)
        os.close(write)
        try:
            ready, _, _ = select.select([read], [], [], 60)
            got = os.read(read, 3) if ready else b""
        finally:
            if not got:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)
        assert got == bytes([True, True, True])

    @staticmethod
    def fork(report=lambda: b""):
        """Fork; the child writes ``report()`` to a pipe and leaves. Returns
        what the child wrote, read within a minute, and the names of the
        engine threads alive in the parent once the fork returned."""
        read, write = os.pipe()
        with warnings.catch_warnings():   # Python 3.12 warns of a fork with threads
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:   # the child: report, then leave without pytest's teardown
            try:
                os.write(write, report() + b".")
            finally:
                os._exit(0)
        alive = [t.name for t in threading.enumerate() if t.name.startswith("gbmpatch-")]
        os.close(write)
        got = b""
        try:
            ready, _, _ = select.select([read], [], [], 60)
            got = os.read(read, 64) if ready else b""
        finally:
            if not got:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)
        return got, alive

    def test_no_engine_thread_is_alive_at_a_bare_fork(self, monkeypatch):
        self.use(monkeypatch, 2)
        T._in_parts(8, 8, lambda start, stop: None)
        assert {t.name for t in threading.enumerate()} >= {"gbmpatch-cpu0",
                                                           "gbmpatch-cpu1"}
        assert self.fork() == (b".", [])

    def test_a_forked_child_has_no_pool_and_a_free_lock(self, monkeypatch):
        self.use(monkeypatch, 2)
        T._in_parts(8, 8, lambda start, stop: None)
        got, _ = self.fork(lambda: bytes(
            [T._pool is None, T._pool_lock.acquire(blocking=False)]))
        assert got == bytes([True, True]) + b"."

    def test_a_fork_waits_for_a_spread_in_progress(self, monkeypatch):
        # the fork starts while four parts wait; it returns only once all
        # of them have finished, and then no engine thread is alive
        self.use(monkeypatch, 4)
        busy, free, finished = threading.Event(), threading.Event(), []

        def hold(start, stop):
            busy.set()
            free.wait(60)
            finished.append(start)

        caller = threading.Thread(target=T._in_parts, args=(8, 8, hold), daemon=True)
        caller.start()
        assert busy.wait(60)
        release = threading.Timer(0.2, free.set)
        release.start()
        try:
            got, alive = self.fork()
            done = sorted(finished)
        finally:
            free.set()
            self.finish(caller, release)
        assert (got, alive, done) == (b".", [], [0, 2, 4, 6])

    def test_blas_threads_reads_the_loaded_blas(self):
        if T._blas_query() is None:
            pytest.skip("the loaded BLAS exports no OpenBLAS thread query")
        src = str(Path(T.__file__).resolve().parents[1])
        code = "from gbmpatch import tensor; print(tensor._blas_threads())"
        got = [subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=60, env=dict(os.environ, PYTHONPATH=src,
                                              OPENBLAS_NUM_THREADS=str(n))).stdout
               for n in (1, 2)]
        assert got == ["1\n", "2\n"]

    @pytest.mark.parametrize("spread", [1.0, 1000.0])
    def test_attention_parts_move_no_bits(self, monkeypatch, spread):
        # 4 images of 4 heads over 261 tokens, the paper's 224/14 sequence:
        # 16 slices in chunks of 3, so 3 parts of 4 CPUs. At 1000 the
        # recentred slices go through the parts too
        q, k, v, w, scale = TestAttention.operands(spread, (4, 4, 261, 8))
        seen = TestAttention.recentred(monkeypatch)
        threads = self.threads(monkeypatch, "_split_heads")
        runs, used = [], []
        for cpus in (1, 4):
            self.use(monkeypatch, cpus)
            leaves = [Tensor(a, requires_grad=True) for a in (q, k, v)]
            out = T.attention(*leaves, 4, scale)
            (out * Tensor(w)).sum().backward()
            runs.append([out.data] + [t.grad for t in leaves])
            used.append(set(threads))
            threads.clear()
        assert used == [{"MainThread"}, {f"gbmpatch-cpu{p}" for p in range(3)}]
        # one part recentres in slice order, the parts in any order
        assert seen[:len(seen) // 2] == sorted(seen[len(seen) // 2:])
        assert bool(seen) == (spread == 1000.0)
        for got, want in zip(*runs):
            np.testing.assert_array_equal(got, want)

    def test_tile_linear_parts_move_no_bits(self, monkeypatch):
        # eight 224/14 images are eight one-image blocks: 4 parts of 4 CPUs,
        # forward and backward's full cut; dW stays one GEMM
        images, w, pos, g = TestTileLinear.operands(8, 224)
        threads = self.threads(monkeypatch, "_cut")
        runs, used = [], []
        for cpus in (1, 4):
            self.use(monkeypatch, cpus)
            wt, bt = Tensor(w, requires_grad=True), Tensor(pos, requires_grad=True)
            out = T.tile_linear(images, 14, wt, bt)
            T.mul(out, Tensor(g)).sum().backward()
            runs.append((out.data, wt.grad, bt.grad))
            used.append(set(threads))
            threads.clear()
        assert used == [{"MainThread"}, {f"gbmpatch-cpu{p}" for p in range(4)}]
        for got, want in zip(*runs):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("op", ["tile_linear", "attention"])
    def test_a_failed_part_raises_once_every_part_joined(self, monkeypatch, op):
        # one-slice chunks and one-image blocks: 4 parts of 8 images. Part
        # 0 fails at once, and the op raises only after the others finish
        monkeypatch.setattr(T, "_SCORE_BYTES", 1)
        self.use(monkeypatch, 4)
        name = {"tile_linear": "_cut", "attention": "_split_heads"}[op]
        real, finished = getattr(T, name), set()

        def block(*args, **kwargs):
            me = threading.current_thread().name
            if me == "gbmpatch-cpu0":
                raise MemoryError("part 0")
            time.sleep(0.05)
            out = real(*args, **kwargs)
            finished.add(me)
            return out

        images, w, pos, _ = TestTileLinear.operands(8, 56)
        q = Tensor(np.random.default_rng(4).normal(size=(8, 21, 32)).astype(np.float32))

        def call():
            if op == "tile_linear":
                T.tile_linear(images, 14, Tensor(w), Tensor(pos))
            else:
                T.attention(q, q, q, 4, 0.3)

        call()   # the pool is running before the failing call
        before = threading.active_count()
        monkeypatch.setattr(T, name, block)
        with pytest.raises(MemoryError, match="part 0"):
            call()
        assert threading.active_count() == before
        assert finished == {"gbmpatch-cpu1", "gbmpatch-cpu2", "gbmpatch-cpu3"}
        monkeypatch.setattr(T, name, real)
        call()   # the pool serves the next call
        assert threading.active_count() == before

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op, loops", [
        ("layer_norm", 2), ("linear", 2), ("linear_silu", 3)])
    def test_row_loop_parts_move_no_bits(self, monkeypatch, op, loops, dtype):
        # 9 images of 261 tokens, 256 wide: 2.4 MB in float32, 9 row blocks,
        # so 4 parts of 4 CPUs (2, 2, 2 and 3 images). The loops: forward
        # and dX, and linear_silu's gradient; dW is one GEMM
        rng = np.random.default_rng(13)
        x, g = (rng.normal(size=(9, 261, 256)).astype(dtype) for _ in range(2))
        w, b = rng.normal(size=(256, 256)).astype(dtype) / 16, rng.normal(size=256)
        seen = self.loops(monkeypatch)
        runs, used = [], []
        for cpus in (1, 4):
            self.use(monkeypatch, cpus)
            leaves = [Tensor(a, requires_grad=True)
                      for a in ([x] if op == "layer_norm" else [x, w, b.astype(dtype)])]
            out = getattr(T, op)(*leaves)
            T.mul(out, Tensor(g)).sum().backward()
            runs.append([out.data] + [t.grad for t in leaves])
            used.append(list(seen))
            seen.clear()
        assert used == [[{"MainThread"}] * loops,
                        [{f"gbmpatch-cpu{p}" for p in range(4)}] * loops]
        for got, want in zip(*runs):
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("op", ["linear", "linear_silu"])
    def test_a_bias_with_an_images_axis_is_rejected(self, op):
        # a bias is a (k,) row or one row per token, never one per image
        rng = np.random.default_rng(17)
        x = rng.normal(size=(9, 261, 256)).astype(np.float32)
        w = rng.normal(size=(256, 256)).astype(np.float32) / 16
        b = rng.normal(size=(9, 261, 256)).astype(np.float32)
        with pytest.raises(DimensionError, match="linear shapes incompatible"):
            getattr(T, op)(Tensor(x), Tensor(w), Tensor(b))

    def test_a_wider_bias_widens_the_product_bit_for_bit(self, monkeypatch):
        # a float64 (256,) bias over float32 x and w: numpy writes the
        # float32 product into the float64 output, then adds the bias
        rng = np.random.default_rng(17)
        x = rng.normal(size=(9, 261, 256)).astype(np.float32)
        w = rng.normal(size=(256, 256)).astype(np.float32) / 16
        b = rng.normal(size=256)
        seen = self.loops(monkeypatch)
        for cpus in (1, 4):
            self.use(monkeypatch, cpus)
            out = T.linear(Tensor(x), Tensor(w), Tensor(b)).data
            assert out.dtype == np.float64
            np.testing.assert_array_equal(out, x @ w + b)
        assert seen == [{"MainThread"}, {f"gbmpatch-cpu{p}" for p in range(4)}]

    def test_a_pool_that_cannot_start_runs_the_loop_on_the_caller(
            self, monkeypatch):
        # 8 images at 224/14 spread embed and attention; with no thread to
        # start, every loop runs on the calling thread, with the same bits,
        # and the next call, with threads to start, spreads them
        def refuse(thread):
            raise RuntimeError("can't start new thread")

        self.use(monkeypatch, 2)
        with T._pool_lock:   # no pool: the next spread starts one
            T._stop_pool()
        cfg = EncoderConfig(image_size=224, tile_size=14, dim=8, depth=1,
                            heads=2, registers=1, mlp_ratio=2)
        model = PatchClassifier(cfg, HeadConfig(bottleneck=4), seed=0)
        x = np.random.default_rng(19).normal(size=(8, 3, 224, 224)).astype(np.float32)
        seen, runs, used = self.loops(monkeypatch), [], []
        for start in (refuse, threading.Thread.start):
            monkeypatch.setattr(threading.Thread, "start", start)
            runs.append(model.logits(x).data)
            used.append(set().union(*seen))
            seen.clear()
            if start is refuse:   # nor is an engine thread left behind
                assert not [t for t in threading.enumerate()
                            if t.name.startswith("gbmpatch-")]
        assert used[0] == {"MainThread"}
        assert used[1] >= {"gbmpatch-cpu0", "gbmpatch-cpu1"}
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_a_56_predict_chunk_runs_every_loop_on_the_caller(self, monkeypatch):
        # its largest array is (64, 21, 128) float32, 688 KB: two row blocks
        self.use(monkeypatch, 4)
        seen = self.loops(monkeypatch)
        cfg = EncoderConfig(image_size=56, tile_size=14, dim=32, depth=2, heads=4,
                            registers=4, mlp_ratio=4)
        model = PatchClassifier(cfg, HeadConfig(bottleneck=4), seed=0)
        model.predict(np.ones((64, 3, 56, 56), np.float32))
        # per block 2 norms, 5 linears and linear_silu, and the final norm
        assert len(seen) >= 2 * 8 + 1
        assert all(names == {"MainThread"} for names in seen)


class TestLinearSilu:
    @staticmethod
    def operands(dtype):
        rng = np.random.default_rng(12)
        return (rng.normal(size=s).astype(dtype) * 3
                for s in ((4, 7, 5), (5, 6), (6,), (4, 7, 6)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("x_grad", [True, False])
    def test_equals_silu_of_linear_bit_for_bit(self, dtype, x_grad):
        x, w, b, g = self.operands(dtype)
        runs = []
        for op in (T.linear_silu, lambda *a: T.silu(T.linear(*a))):
            leaves = [Tensor(x, requires_grad=x_grad),
                      *(Tensor(a, requires_grad=True) for a in (w, b))]
            out = op(*leaves)
            T.mul(out, Tensor(g)).sum().backward()
            runs.append([out.data] + [t.grad for t in leaves])
        for got, want in zip(*runs):
            if want is None:
                assert got is None
            else:
                assert got.dtype == dtype
                np.testing.assert_array_equal(got, want)

    def test_keeps_its_output_and_pre_activation_only(self):
        x, w, b, g = self.operands(np.float32)
        out = T.linear_silu(Tensor(x, requires_grad=True), Tensor(w), Tensor(b))
        held = [c.cell_contents for c in out._backward_fn.__closure__
                if isinstance(c.cell_contents, np.ndarray)]
        (z,) = held   # the output is the node's own data
        np.testing.assert_array_equal(z, x @ w + b)
        upstream = g.copy()
        first = out._backward_fn(upstream)
        np.testing.assert_array_equal(upstream, g)   # no backward writes into g
        for once, again in zip(first, out._backward_fn(g)):
            np.testing.assert_array_equal(once, again)


class TestSilu:
    def test_zero(self):
        assert T.silu(Tensor(np.array(0.0))).item() == 0.0

    def test_saturation(self):
        out = T.silu(Tensor(np.array(20.0), dtype=np.float64)).item()
        assert abs(out - 20.0) < 1e-7

    def test_at_one(self):
        out = T.silu(Tensor(np.array(1.0), dtype=np.float64)).item()
        assert abs(out - 0.7310585786300049) < 1e-12


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_extremes(self, dtype):
        x = np.array([-1e4, -100, -88.8, 0, 88.8, 100, 1e4], dtype=dtype)
        leaf = Tensor(x, requires_grad=True)
        out = T.silu(leaf)
        out.sum().backward()  # a RuntimeWarning fails the test
        assert out.dtype == dtype and leaf.grad.dtype == dtype
        assert np.all(np.isfinite(out.data)) and np.all(np.isfinite(leaf.grad))
        np.testing.assert_array_equal(out.data[x > 50], x[x > 50])
        assert np.all(np.abs(out.data[x < -50]) < 1e-30)


class TestLayerNorm:
    def test_constant_row_collapses_to_bias(self):
        # a constant row normalizes to zeros, so the linear map after the
        # norm (the one that absorbs a gain and bias) yields its bias
        out = T.layer_norm(Tensor([[5.0, 5.0, 5.0]], dtype=np.float64))
        np.testing.assert_array_equal(out.data, [[0.0, 0.0, 0.0]])
        w = Tensor(np.random.default_rng(3).normal(size=(3, 2)))
        b = Tensor(np.array([2.5, -1.0]))
        np.testing.assert_array_equal((out @ w + b).data, [b.data])

    def test_hand_computed_row(self):
        # variance 2/3, floored by the 1e-5 eps
        out = T.layer_norm(Tensor([1.0, 2.0, 3.0], dtype=np.float64))
        np.testing.assert_allclose(
            out.data, np.array([-1.0, 0.0, 1.0]) / np.sqrt(2 / 3 + 1e-5),
            rtol=1e-14)


def silu_composite(x, g):
    """silu's output and input gradient, as plain expressions."""
    sig = 0.5 * (1 + np.tanh(x * 0.5))
    return x * sig, g * sig * (1.0 + x * (1.0 - sig))


def layer_norm_composite(x, g, eps=1e-5):
    """layer_norm's output and input gradient, as plain expressions."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    normed = centered * inv
    m1 = g.mean(axis=-1, keepdims=True)
    m2 = (g * normed).mean(axis=-1, keepdims=True)
    return normed, inv * (g - m1 - normed * m2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op,composite", [(T.silu, silu_composite),
                                          (T.layer_norm, layer_norm_composite)],
                         ids=["silu", "layer_norm"])
def test_in_place_op_equals_its_composite(op, composite, dtype):
    # the ops evaluate in place, in the composite's order: same bits
    rng = np.random.default_rng(21)
    x = (rng.normal(size=(4, 7, 33)) * 3).astype(dtype)
    g = rng.normal(size=x.shape).astype(dtype)
    want_out, want_grad = composite(x, g)

    leaf = Tensor(x.copy(), requires_grad=True)
    out = op(leaf)
    upstream = g.copy()   # before backward, which frees the closure
    (grad,) = out._backward_fn(upstream)
    np.testing.assert_array_equal(grad, want_grad)
    np.testing.assert_array_equal(upstream, g)   # no backward writes into g

    T.mul(out, Tensor(g)).sum().backward()
    np.testing.assert_array_equal(out.data, want_out)
    np.testing.assert_array_equal(leaf.grad, want_grad)
    np.testing.assert_array_equal(leaf.data, x)


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert T.dropout(x, 0.0, seed=1) is x

    def test_binomial_expectation(self):
        # E[mean] = 1.0, sd of the mean = 1/sqrt(n) at rate 0.5; 0.02 is ~4 sigma
        x = Tensor(np.ones(100_000))
        out = T.dropout(x, 0.5, seed=7)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_mask_is_pure_function_of_seed(self):
        x = Tensor(np.ones(64))
        a = T.dropout(x, 0.5, seed=11).data
        b = T.dropout(x, 0.5, seed=11).data
        c = T.dropout(x, 0.5, seed=12).data
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rate_one_rejected(self):
        with pytest.raises(ParameterError):
            T.dropout(Tensor([1.0]), 1.0)

    @pytest.mark.parametrize("rate,seed", [("0.5", 0), (None, 0), (True, 0),
                                           (0.5, -1), (0.5, 1.5), (0.5, "1")])
    def test_rate_and_seed_follow_the_settings_rules(self, rate, seed):
        with pytest.raises(ParameterError, match="dropout (rate|seed) must"):
            T.dropout(Tensor([1.0]), rate, seed=seed)

    def test_numpy_rate_and_seed_give_the_same_mask(self):
        x = Tensor(np.ones(64))
        np.testing.assert_array_equal(
            T.dropout(x, np.float32(0.5), seed=np.int64(11)).data,
            T.dropout(x, 0.5, seed=11).data)


class TestCrossEntropy:
    def test_uniform_logits_nine_classes(self):
        logits = Tensor(np.zeros((1, 9), dtype=np.float64))
        assert abs(T.cross_entropy(logits, [0]).item() - 2.1972245773362196) < 1e-12

    def test_saturated_true_class(self):
        logits = Tensor(np.array([[1000.0, 0.0, 0.0]]))
        assert T.cross_entropy(logits, [0]).item() < 1e-6

    def test_hand_computed(self):
        logits = Tensor(np.array([[1.0, 2.0, 3.0]]), dtype=np.float64)
        assert abs(T.cross_entropy(logits, [2]).item() - 0.40760596444438034) < 1e-7

    def test_out_of_range_label(self):
        logits = Tensor(np.zeros((2, 3)))
        with pytest.raises(DataError):
            T.cross_entropy(logits, [0, 3])

    @pytest.mark.parametrize("logits_shape, labels, error, says", [
        ((3,), [0], DimensionError, "batch x classes"),
        ((2, 3, 1), [0, 1], DimensionError, "batch x classes"),
        ((2, 3), [0, 1, 2], DataError, "does not match batch size 2"),
        ((2, 3), [[0], [1]], DataError, "does not match batch size 2"),
    ], ids=["rank1_logits", "rank3_logits", "long_labels", "column_labels"])
    def test_shape_mismatch_rejected(self, logits_shape, labels, error, says):
        with pytest.raises(error, match=says):
            T.cross_entropy(Tensor(np.zeros(logits_shape)), labels)

    def test_gradient_is_softmax_minus_onehot_over_batch(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(4, 9))
        logits = Tensor(raw, requires_grad=True, dtype=np.float64)
        labels = np.array([1, 0, 8, 4])
        T.cross_entropy(logits, labels).backward()
        probs = np.exp(raw) / np.exp(raw).sum(axis=1, keepdims=True)
        probs[np.arange(4), labels] -= 1.0
        np.testing.assert_allclose(logits.grad, probs / 4.0, atol=1e-12)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic_form(self):
        data = np.arange(5.0)
        x = Tensor(data, requires_grad=True)
        (T.mul(x, x).sum() * 0.5).backward()
        np.testing.assert_allclose(x.grad, data, atol=1e-6)

    def test_leaf_gradient_is_an_array_of_its_own(self):
        # the sum's gradient is a read-only broadcast view; non-leaves may
        # adopt it, but a leaf accumulates into a writable copy
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        x.sum().backward()
        assert x.grad.flags.writeable and x.grad.flags.owndata
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_accumulation_without_reset(self):
        x = Tensor(np.ones(3), requires_grad=True)
        x.sum().backward()
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, 2.0 * np.ones(3))
        x.zero_grad()
        assert x.grad is None

    def test_linearity_of_gradients(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(3, 4))

        def loss_a(t):
            return T.silu(t).sum()

        def loss_b(t):
            return T.mul(t, t).sum()

        x = Tensor(data.copy(), requires_grad=True, dtype=np.float64)
        (loss_a(x) + loss_b(x)).backward()
        combined = x.grad.copy()

        y = Tensor(data.copy(), requires_grad=True, dtype=np.float64)
        loss_a(y).backward()
        loss_b(y).backward()
        np.testing.assert_allclose(combined, y.grad, atol=1e-12)

    def test_non_scalar_rejected(self):
        with pytest.raises(ContractError):
            Tensor(np.ones(3), requires_grad=True).backward()

    # op(constant, tracked), the constant's shape, the tracked one's shape
    ROUTING_CASES = {
        "matmul_left": (lambda c, t: c @ t, (3, 3), (3, 4)),
        "matmul_right": (lambda c, t: t @ c, (4, 2), (3, 4)),
        "add": (lambda c, t: T.add(t, c), (4,), (3, 4)),
        "mul": (lambda c, t: T.mul(c, t), (3, 4), (3, 4)),
        "concat": (lambda c, t: T.concat([c, t], axis=0), (2, 4), (3, 4)),
        "layer_norm_x": (lambda c, t: T.mul(T.layer_norm(c), t), (3, 4), (3, 4)),
    }

    @pytest.mark.parametrize("name", sorted(ROUTING_CASES))
    def test_constant_operand_gets_no_grad(self, name):
        """A constant operand gets no ``.grad``, and its tracked partner
        gets the gradient it would get if the constant were tracked."""
        f, c_shape, t_shape = self.ROUTING_CASES[name]
        rng = np.random.default_rng(4)
        c_data, t_data = rng.normal(size=c_shape), rng.normal(size=t_shape)
        const, tracked = Tensor(c_data), Tensor(t_data, requires_grad=True)
        T.silu(f(const, tracked)).sum().backward()
        assert const.grad is None
        both = Tensor(c_data, requires_grad=True), Tensor(t_data, requires_grad=True)
        T.silu(f(*both)).sum().backward()
        assert both[0].grad is not None
        np.testing.assert_array_equal(tracked.grad, both[1].grad)

    def test_record_visits_each_op_once_in_reverse_topo_order(self):
        x = Tensor(np.ones(3), requires_grad=True)
        a = T.silu(x)
        b = T.mul(a, a)   # diamond: a feeds b twice
        loss = b.sum()
        record = T.ComputationRecord.trace(loss)
        ids = [id(n) for n in record.nodes]
        assert len(ids) == len(set(ids))
        pos = {id(n): i for i, n in enumerate(record.nodes)}
        for node in record.nodes:
            for parent in node._parents:
                assert pos[id(parent)] < pos[id(node)]
        assert record.nodes[-1] is loss


def replay_keeping_the_graph(root):
    """The engine's backward without freeing: every node keeps its
    parents, its closure and its gradient."""
    nodes = T.ComputationRecord.trace(root).nodes
    root.grad = np.ones_like(root.data)
    for node in reversed(nodes):
        if node._backward_fn is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._backward_fn(node.grad)):
            if g is None or not parent.requires_grad:
                continue
            g = T._unbroadcast(g, parent.shape).astype(parent.data.dtype)
            parent.grad = g if parent.grad is None else parent.grad + g
    return nodes


class TestFreedGraph:
    """Backward frees the graph it runs, and moves no bit doing so."""

    @staticmethod
    def train_loss():
        cfg = EncoderConfig(image_size=28, tile_size=14, dim=8, depth=2,
                            heads=2, registers=2, mlp_ratio=2)
        model = PatchClassifier(cfg, HeadConfig(bottleneck=4), seed=3)
        images = np.random.default_rng(4).normal(
            size=(6, 3, 28, 28)).astype(np.float32)
        return model, model.loss(images, np.arange(6) % 9, dropout_seed=5)

    def test_leaf_gradients_match_a_backward_that_frees_nothing(self):
        ref_model, ref_loss = self.train_loss()
        kept = [n for n in replay_keeping_the_graph(ref_loss) if n._parents]
        assert kept and all(n.grad is not None for n in kept)

        model, loss = self.train_loss()
        nodes = [n for n in T.ComputationRecord.trace(loss).nodes if n._parents]
        assert len(nodes) == len(kept)
        loss.backward()
        for node in nodes:
            assert node.grad is None and node._backward_fn is None
            assert node._parents == ()
        want = ref_model.parameters()
        for name, p in model.parameters().items():
            assert p.grad.dtype == want[name].grad.dtype
            np.testing.assert_array_equal(p.grad, want[name].grad, err_msg=name)
        assert loss.item() == ref_loss.item()

    def test_second_backward_of_one_root_raises(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        loss = T.silu(x).sum()
        loss.backward()
        first = x.grad.copy()
        with pytest.raises(ContractError, match="sum node"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, first)   # nothing accumulated

    def test_new_graph_on_a_freed_intermediate_raises(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        hidden = T.silu(x)
        hidden.sum().backward()
        first = x.grad.copy()
        y = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractError, match="silu node"):
            T.mul(hidden, y).sum().backward()
        np.testing.assert_array_equal(x.grad, first)
        assert y.grad is None

    def test_intermediates_die_with_backward(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        hidden = T.layer_norm(T.silu(x))
        probe = weakref.ref(hidden)
        loss = T.mul(hidden, hidden).sum()
        del hidden
        assert probe() is not None   # the graph holds it until backward
        loss.backward()
        assert probe() is None
        assert loss._parents == () and loss.grad is None

    def test_freed_pages_stay_in_the_process(self):
        # a silent no-op would bring back the page faults of freeing
        try:
            glibc = hasattr(ctypes.CDLL(None), "gnu_get_libc_version")
        except (OSError, TypeError):
            glibc = False
        if not glibc:
            pytest.skip("mallopt is a glibc call")
        assert T._MALLOPT == (1, 1)


class TestFiniteDiffCheck:
    def test_identity_sum_is_exact(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        assert T.finite_diff_check(lambda t: t.sum(), x) < 1e-9

    def test_silu_sum(self):
        x = Tensor(np.random.default_rng(1).normal(size=(5, 4)))
        assert T.finite_diff_check(lambda t: T.silu(t).sum(), x) < 1e-4

    def test_layer_norm_matmul_chain(self):
        rng = np.random.default_rng(2)
        w = Tensor(rng.normal(size=(4, 3)))

        def f(t):
            return T.silu(T.layer_norm(t @ w)).sum()

        x = Tensor(rng.normal(size=(5, 4)))
        assert T.finite_diff_check(f, x) < 1e-3


# fixed (batch, rows, heads·width) operands for the attention cases, two
# heads of width 2; the probe replaces one of q, k, v
_ATT = [Tensor(heads_last(a))
        for a in np.random.default_rng(5).normal(size=(4, 1, 2, 3, 2))]


def _attention_case(slot):
    def f(t):
        qkv = _ATT[:3]
        qkv[slot] = t.reshape(_ATT[slot].shape)
        return T.mul(T.attention(*qkv, 2, 0.7), _ATT[3]).sum()
    return f


# fixed operands for the linear cases, whose (3, 4) probe is a 3-D x,
# the weight (with a bias), or position rows added to each batch entry
_LIN = {name: Tensor(a) for name, a in {
    "w_for_x": np.linspace(-1, 1, 8).reshape(4, 2),
    "x_for_w": np.random.default_rng(6).normal(size=(2, 5, 3)),
    "b_for_w": np.linspace(-0.5, 0.5, 4),
    "x_for_b": np.random.default_rng(7).normal(size=(2, 3, 5)),
    "w_for_b": np.linspace(-1, 1, 20).reshape(5, 4),
    "b_for_x": np.array([0.25, -0.5])}.items()}

# fixed images for the tile_linear cases: two 3-channel images whose two
# 2x2 tiles make 12-wide rows for the (12, 1) probe weight and its (2, 1)
# position rows, or whose three 1x1 tiles take the (3, 4) probe as theirs
_TILE = {"w": np.random.default_rng(8).normal(size=(2, 3, 4, 2)),
         "b_for_w": Tensor(np.array([[0.3], [-0.2]])),
         "b": np.random.default_rng(9).normal(size=(2, 3, 1, 3)),
         "w_for_b": Tensor(np.linspace(-1, 1, 12).reshape(3, 4))}


GRAD_CASES = {
    "add_broadcast": lambda t: (t + Tensor(np.arange(float(t.shape[-1])))).sum(),
    # the probe's size-1 axis is broadcast, and its gradient summed back
    "add_size_one_axis": lambda t: T.silu(
        t.reshape((3, 1, 4)) + Tensor(np.linspace(-1, 1, 8).reshape(2, 4))).sum(),
    "add_reflected": lambda t: T.silu(0.5 + t).sum(),
    "add_reflected_sub": lambda t: T.silu(0.5 - t).sum(),
    "mul_reflected": lambda t: T.silu(-1.5 * t).sum(),
    "mul": lambda t: T.mul(t, t).sum(),
    "neg": lambda t: (-t).sum(),
    "matmul": lambda t: (t @ Tensor(np.linspace(-1, 1, t.shape[-1] * 2).reshape(t.shape[-1], 2))).sum(),
    "reshape": lambda t: t.reshape((t.data.size,)).sum(),
    "transpose": lambda t: T.silu(t.transpose()).sum(),
    "broadcast_to": lambda t: T.broadcast_to(t, (5,) + t.shape).sum(),
    "concat": lambda t: T.concat([t, T.mul(t, t)], axis=0).sum(),
    "narrow": lambda t: T.mul(T.narrow(t, 1, 1, 2), Tensor(np.ones((t.shape[0], 2)) * 3.0)).sum(),
    "mean_axis": lambda t: T.silu(t.mean(axis=0)).sum(),
    "softmax": lambda t: T.mul(T.softmax(t, axis=-1), Tensor(np.arange(float(t.data.size)).reshape(t.shape))).sum(),
    "silu": lambda t: T.silu(t).sum(),
    "dropout": lambda t: T.dropout(t, 0.4, seed=13).sum(),
    "cross_entropy": lambda t: T.cross_entropy(t, np.arange(t.shape[0]) % t.shape[1]),
    "tensor_sum": lambda t: T.silu(T.tensor_sum(t, axis=1)).sum(),
    "tensor_mean": lambda t: T.silu(T.tensor_mean(t)).sum(),
    "layer_norm": lambda t: T.mul(T.layer_norm(t), Tensor(np.arange(float(t.data.size)).reshape(t.shape))).sum(),
    "attention_q": _attention_case(0),
    "attention_k": _attention_case(1),
    "attention_v": _attention_case(2),
    "linear_x": lambda t: T.silu(
        T.linear(t.reshape((3, 1, 4)), _LIN["w_for_x"])).sum(),
    "linear_w": lambda t: T.silu(
        T.linear(_LIN["x_for_w"], t, _LIN["b_for_w"])).sum(),
    "linear_b": lambda t: T.silu(
        T.linear(_LIN["x_for_b"], _LIN["w_for_b"], t)).sum(),
    # a float32 product plus a float64 bias promotes to float64
    "linear_b_promoted": lambda t: T.silu(T.linear(
        Tensor(_LIN["x_for_b"].data.astype(np.float32)),
        Tensor(_LIN["w_for_b"].data.astype(np.float32)), t)).sum(),
    "linear_silu_x": lambda t: T.linear_silu(
        t.reshape((3, 1, 4)), _LIN["w_for_x"], _LIN["b_for_x"]).sum(),
    "linear_silu_w": lambda t: T.linear_silu(
        _LIN["x_for_w"], t, _LIN["b_for_w"]).sum(),
    "linear_silu_b": lambda t: T.linear_silu(
        _LIN["x_for_b"], _LIN["w_for_b"], t).sum(),
    "tile_linear_w": lambda t: T.silu(
        T.tile_linear(_TILE["w"], 2, t.reshape((12, 1)), _TILE["b_for_w"])).sum(),
    "tile_linear_b": lambda t: T.silu(
        T.tile_linear(_TILE["b"], 1, _TILE["w_for_b"], t)).sum(),
}


@pytest.mark.parametrize("expr, want", [
    (lambda t: 0.5 + t, [0.5, 1.5, 2.5]),
    (lambda t: 0.5 - t, [0.5, -0.5, -1.5]),
    (lambda t: -1.5 * t, [-0.0, -1.5, -3.0]),
], ids=["radd", "rsub", "rmul"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_reflected_operators_keep_the_scalar_on_the_left(expr, want, dtype):
    out = expr(Tensor(np.arange(3, dtype=dtype)))
    assert isinstance(out, Tensor) and out.dtype == dtype
    assert out.data.tolist() == want


def test_every_op_has_a_gradient_case():
    """Every public op returning a Tensor (the set the benchmark's op
    discovery finds) has a GRAD_CASES entry named ``<op>`` or
    ``<op>_<variant>``, so a new op cannot skip the finite-difference
    suite."""
    ops = sorted(
        name for name, fn in vars(T).items()
        if inspect.isfunction(fn) and not name.startswith("_")
        and fn.__module__ == T.__name__
        and fn.__annotations__.get("return") in ("Tensor", T.Tensor))
    uncovered = [op for op in ops
                 if not any(case == op or case.startswith(op + "_")
                            for case in GRAD_CASES)]
    assert "attention" in ops and "softmax" in ops
    assert not uncovered, f"ops without a GRAD_CASES entry: {uncovered}"


@pytest.mark.parametrize("name", sorted(GRAD_CASES))
def test_gradient_soundness_per_op(name):
    """Every differentiable op passes finite-difference checks on 10 seeds."""
    f = GRAD_CASES[name]
    for seed in range(10):
        x = Tensor(np.random.default_rng(seed).normal(size=(3, 4)))
        assert T.finite_diff_check(f, x) < 1e-3, f"{name} failed at seed {seed}"


def test_forward_ops_stay_finite():
    """Forward ops on finite inputs never emit NaN/Inf."""
    rng = np.random.default_rng(17)
    x = Tensor(rng.normal(scale=100.0, size=(4, 6)).astype(np.float32))
    outputs = [
        T.softmax(x).data,
        T.silu(x).data,
        T.layer_norm(x).data,
        T.cross_entropy(x, np.zeros(4, dtype=int)).data,
    ]
    for out in outputs:
        assert np.all(np.isfinite(out))
