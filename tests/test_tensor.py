"""Tests for the autodiff tensor engine.

Derived expectations were computed with independent oracles (triple-loop
matmul, direct exp/sum evaluation, hand arithmetic) and frozen here.
"""

import inspect

import numpy as np
import pytest

from gbmpatch import tensor as T
from gbmpatch.errors import ContractError, DataError, DimensionError, ParameterError
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


def composite_attention(q, k, v, scale):
    """``softmax(q @ kᵀ * scale) @ v`` from separate ops: the reference
    ``attention`` must match."""
    return T.softmax((q @ T.transpose(k, (0, 1, 3, 2))) * scale, axis=-1) @ v


class TestAttention:
    @staticmethod
    def operands(spread):
        """float32 (batch, heads, rows, width) q, k, v and output weights,
        with a scale that puts the largest score at +-``spread``."""
        rng = np.random.default_rng(3)
        q, k, v, w = (rng.normal(size=(2, 4, 7, 8)).astype(np.float32)
                      for _ in range(4))
        scale = spread / float(np.abs(q @ np.swapaxes(k, -1, -2)).max())
        return q, k, v, w, scale

    @pytest.mark.parametrize("spread", [1.0, 1000.0])
    def test_forward_matches_composite(self, spread):
        q, k, v, _, scale = self.operands(spread)
        fused = T.attention(Tensor(q), Tensor(k), Tensor(v), scale).data
        unfused = composite_attention(Tensor(q), Tensor(k), Tensor(v), scale).data
        assert fused.dtype == np.float32 and np.all(np.isfinite(fused))
        np.testing.assert_allclose(fused, unfused, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("spread", [1.0, 1000.0])
    def test_gradients_match_composite(self, spread):
        q, k, v, w, scale = self.operands(spread)
        grads = []
        for op in (T.attention, composite_attention):
            leaves = [Tensor(a, requires_grad=True) for a in (q, k, v)]
            (op(*leaves, scale) * Tensor(w)).sum().backward()
            grads.append([t.grad for t in leaves])
        # on saturated rows D = rowsum(dO * O) cancels two near-equal terms,
        # so an entry is good to float32 rounding of the largest gradient
        for fused, unfused in zip(*grads):
            assert np.all(np.isfinite(fused))
            np.testing.assert_allclose(fused, unfused, rtol=1e-4,
                                       atol=1e-4 * np.abs(unfused).max())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chunk_size_moves_no_bits(self, monkeypatch, dtype):
        # 15 (batch, head) slices: chunks of 1, of 4 (which leave a
        # remainder of 3) and one chunk over all of them
        rng = np.random.default_rng(5)
        q, k, v, w = (rng.normal(size=(3, 5, 37, 8)).astype(dtype)
                      for _ in range(4))
        block = 37 * 37 * np.dtype(dtype).itemsize
        runs = []
        for score_bytes in (1, 4 * block, 1 << 40):
            monkeypatch.setattr(T, "_SCORE_BYTES", score_bytes)
            leaves = [Tensor(a, requires_grad=True) for a in (q, k, v)]
            out = T.attention(*leaves, 0.3)
            (out * Tensor(w)).sum().backward()
            runs.append([out.data] + [t.grad for t in leaves])
        for run in runs[1:]:
            for got, want in zip(run, runs[0]):
                assert got.dtype == dtype
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("k_shape,v_shape", [
        ((2, 5, 4), (2, 5, 3)),      # k lacks the head axis
        ((2, 3, 5, 6), (2, 3, 5, 3)),  # key width differs from query width
        ((2, 3, 5, 4), (2, 3, 6, 3)),  # fewer keys than values
    ])
    def test_shape_mismatch_rejected(self, k_shape, v_shape):
        q = Tensor(np.zeros((2, 3, 7, 4)))
        with pytest.raises(DimensionError):
            T.attention(q, Tensor(np.zeros(k_shape)), Tensor(np.zeros(v_shape)), 1.0)


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
    def gain_bias(self, n, gain=1.0, bias=0.0, dtype=np.float64):
        return (Tensor(np.full(n, gain, dtype=dtype)),
                Tensor(np.full(n, bias, dtype=dtype)))

    def test_constant_row_collapses_to_bias(self):
        g, b = self.gain_bias(3)
        out = T.layer_norm(Tensor([5.0, 5.0, 5.0], dtype=np.float64), g, b)
        np.testing.assert_allclose(out.data, [0.0, 0.0, 0.0], atol=1e-3)

    def test_hand_computed_row(self):
        g, b = self.gain_bias(3)
        out = T.layer_norm(Tensor([1.0, 2.0, 3.0], dtype=np.float64), g, b, eps=1e-12)
        np.testing.assert_allclose(
            out.data, [-1.22474487, 0.0, 1.22474487], atol=1e-5)

    def test_zero_gain_yields_bias(self):
        g, b = self.gain_bias(4, gain=0.0, bias=2.5)
        x = Tensor(np.random.default_rng(3).normal(size=(2, 4)))
        np.testing.assert_allclose(T.layer_norm(x, g, b).data, 2.5, atol=1e-6)

    def test_eps_must_be_positive(self):
        g, b = self.gain_bias(2)
        with pytest.raises(ParameterError):
            T.layer_norm(Tensor([1.0, 2.0]), g, b, eps=0.0)


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert T.dropout(x, 0.0, seed=1, training=True) is x

    def test_eval_mode_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert T.dropout(x, 0.9, seed=1, training=False) is x

    def test_binomial_expectation(self):
        # E[mean] = 1.0, sd of the mean = 1/sqrt(n) at rate 0.5; 0.02 is ~4 sigma
        x = Tensor(np.ones(100_000))
        out = T.dropout(x, 0.5, seed=7, training=True)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_mask_is_pure_function_of_seed(self):
        x = Tensor(np.ones(64))
        a = T.dropout(x, 0.5, seed=11, training=True).data
        b = T.dropout(x, 0.5, seed=11, training=True).data
        c = T.dropout(x, 0.5, seed=12, training=True).data
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rate_one_rejected(self):
        with pytest.raises(ParameterError):
            T.dropout(Tensor([1.0]), 1.0)


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
        "layer_norm_x": (lambda c, t: T.layer_norm(c, t, t), (3, 4), (4,)),
        "layer_norm_affine": (lambda c, t: T.layer_norm(t, c, c), (4,), (3, 4)),
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
        g = Tensor(np.ones(3))
        b = Tensor(np.zeros(3))

        def f(t):
            return T.silu(T.layer_norm(t @ w, g, b)).sum()

        x = Tensor(rng.normal(size=(5, 4)))
        assert T.finite_diff_check(f, x) < 1e-3


# fixed (batch, heads, rows, width) operands for the attention cases; the
# probe replaces one of q, k, v
_ATT = [Tensor(a) for a in np.random.default_rng(5).normal(size=(4, 1, 2, 3, 2))]


def _attention_case(slot):
    def f(t):
        qkv = _ATT[:3]
        qkv[slot] = t.reshape(_ATT[slot].shape)
        return T.mul(T.attention(*qkv, 0.7), _ATT[3]).sum()
    return f


GRAD_CASES = {
    "add_broadcast": lambda t: (t + Tensor(np.arange(float(t.shape[-1])))).sum(),
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
    "dropout": lambda t: T.dropout(t, 0.4, seed=13, training=True).sum(),
    "cross_entropy": lambda t: T.cross_entropy(t, np.arange(t.shape[0]) % t.shape[1]),
    "tensor_sum": lambda t: T.silu(T.tensor_sum(t, axis=1)).sum(),
    "tensor_mean": lambda t: T.silu(T.tensor_mean(t)).sum(),
    "layer_norm": lambda t: T.mul(T.layer_norm(t, Tensor(np.linspace(0.5, 1.5, t.shape[-1])), Tensor(np.zeros(t.shape[-1]))), Tensor(np.arange(float(t.data.size)).reshape(t.shape))).sum(),
    "attention_q": _attention_case(0),
    "attention_k": _attention_case(1),
    "attention_v": _attention_case(2),
}


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


def test_layer_norm_parameter_gradients():
    rng = np.random.default_rng(21)
    x_data = rng.normal(size=(3, 4))

    def check_param(param_builder):
        def f(p):
            gain, bias = param_builder(p)
            return T.layer_norm(Tensor(x_data), gain, bias).sum()
        p0 = Tensor(rng.normal(size=4))
        return T.finite_diff_check(f, p0)

    assert check_param(lambda p: (p, Tensor(np.zeros(4)))) < 1e-3
    assert check_param(lambda p: (Tensor(np.ones(4)), p)) < 1e-3


def test_forward_ops_stay_finite():
    """Forward ops on finite inputs never emit NaN/Inf."""
    rng = np.random.default_rng(17)
    x = Tensor(rng.normal(scale=100.0, size=(4, 6)).astype(np.float32))
    outputs = [
        T.softmax(x).data,
        T.silu(x).data,
        T.layer_norm(x, Tensor(np.ones(6, np.float32)), Tensor(np.zeros(6, np.float32))).data,
        T.cross_entropy(x, np.zeros(4, dtype=int)).data,
    ]
    for out in outputs:
        assert np.all(np.isfinite(out))
