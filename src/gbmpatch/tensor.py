"""Minimal dense-tensor engine with reverse-mode gradients.

Tensors wrap row-major numpy arrays (float32 by default, float64 when the
caller supplies it, e.g. for gradient checking). Every forward op records
its operands and a backward closure that returns one gradient per operand;
``Tensor.backward`` replays the chain rule over the recorded graph in
reverse topological order and routes each gradient to its operand.

Only the operations the patch-classification architecture needs are
implemented. Broadcasting is supported where those ops need it (bias rows,
stacked matmul) and nowhere else.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, DataError, DimensionError, ParameterError

DEFAULT_DTYPE = np.float32

# bytes of one attention chunk's score block: about half of a 2 MiB L2 cache
_SCORE_BYTES = 1 << 20


def _as_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if arr.dtype in (np.float32, np.float64):
        return arr
    return arr.astype(DEFAULT_DTYPE)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A dense n-dimensional array with an optional gradient slot.

    The value is immutable once created; only ``grad`` mutates. Gradients
    accumulate across backward calls until ``zero_grad`` resets them.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=None,
                 parents: tuple = (), backward_fn: Optional[Callable] = None,
                 op: str = "leaf"):
        self.data = _as_array(data, dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents
        self._backward_fn = backward_fn
        self._op = op

    # ------------------------------------------------------------------
    # introspection

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(op={self._op}, shape={self.shape}, grad={'set' if self.grad is not None else 'none'})"

    # ------------------------------------------------------------------
    # graph plumbing

    def backward(self):
        """Populate ``grad`` on every reachable tensor that requires it.

        Repeated calls accumulate into leaf gradients; intermediate node
        gradients are reset on each call.
        """
        if self.shape != ():
            raise ContractError(
                f"backward requires a scalar tensor, got shape {self.shape}")
        record = ComputationRecord.trace(self)
        record.replay_backward()

    # ------------------------------------------------------------------
    # operators (scalar operands are wrapped as constants)

    def __add__(self, other):
        return add(self, _wrap(other, self.dtype))

    def __radd__(self, other):
        return add(_wrap(other, self.dtype), self)

    def __sub__(self, other):
        return add(self, neg(_wrap(other, self.dtype)))

    def __rsub__(self, other):
        return add(_wrap(other, self.dtype), neg(self))

    def __mul__(self, other):
        return mul(self, _wrap(other, self.dtype))

    def __rmul__(self, other):
        return mul(_wrap(other, self.dtype), self)

    def __neg__(self):
        return neg(self)

    def __truediv__(self, scalar):
        return mul(self, _wrap(1.0 / float(scalar), self.dtype))

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes=None):
        return transpose(self, axes)

    def sum(self, axis=None):
        return tensor_sum(self, axis)

    def mean(self, axis=None):
        return tensor_mean(self, axis)


def _wrap(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


class ComputationRecord:
    """Topologically ordered trace of the ops behind one output tensor.

    ``replay_backward`` visits each recorded op exactly once, in reverse
    topological order. It is the one place gradients reach operands: each
    op's backward returns one gradient per parent (``None`` for one it
    skipped), and only parents that require grad receive it, summed back
    over broadcast axes and accumulated.
    """

    def __init__(self, nodes: list):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "ComputationRecord":
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return cls(order)

    def replay_backward(self):
        root = self.nodes[-1]
        # non-leaf grads are per-call scratch; leaves accumulate across calls
        for node in self.nodes:
            if node._parents:
                node.grad = None
        root.grad = np.ones_like(root.data)
        for node in reversed(self.nodes):
            if node._backward_fn is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._backward_fn(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                g = _unbroadcast(g, parent.shape)
                if parent.grad is None:
                    parent.grad = g.astype(parent.data.dtype, copy=True)
                else:
                    parent.grad = parent.grad + g


def _make(data: np.ndarray, operands: Sequence[Tensor], backward_fn, op: str) -> Tensor:
    """A node over every operand when any requires grad, else a constant.

    ``backward_fn(g)`` returns one gradient per operand, in operand order;
    a node with parents always requires grad, so this one flag decides.
    """
    if any(t.requires_grad for t in operands):
        return Tensor(data, requires_grad=True, parents=tuple(operands),
                      backward_fn=backward_fn, op=op)
    return Tensor(data, op=op)


# ----------------------------------------------------------------------
# arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data + b.data, (a, b), lambda g: (g, g), "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data * b.data, (a, b),
                 lambda g: (g * b.data, g * a.data), "mul")


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,), "neg")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy stacking semantics on leading axes.

    Gradients: dA = dC @ B^T, dB = A^T @ dC (transposes on the last two
    axes). The one op that skips an operand without ``requires_grad``:
    embed's input tiles and a frozen encoder's features are large.
    """
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul shapes incompatible: {a.shape} x {b.shape}")

    def backward(g):
        return (g @ np.swapaxes(b.data, -1, -2) if a.requires_grad else None,
                np.swapaxes(a.data, -1, -2) @ g if b.requires_grad else None)

    return _make(a.data @ b.data, (a, b), backward, "matmul")


# ----------------------------------------------------------------------
# shape movement


def reshape(x: Tensor, shape) -> Tensor:
    return _make(x.data.reshape(tuple(shape)), (x,),
                 lambda g: (g.reshape(x.shape),), "reshape")


def transpose(x: Tensor, axes=None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _make(x.data.transpose(axes), (x,),
                 lambda g: (g.transpose(inverse),), "transpose")


def broadcast_to(x: Tensor, shape) -> Tensor:
    # the engine sums the gradient back down to x's shape
    return _make(np.broadcast_to(x.data, tuple(shape)).copy(), (x,),
                 lambda g: (g,), "broadcast")


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    cuts = np.cumsum([t.shape[axis] for t in tensors])[:-1]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    return _make(out_data, tensors, lambda g: np.split(g, cuts, axis), "concat")


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Slice ``length`` entries along ``axis`` starting at ``start``."""
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def backward(g):
        full = np.zeros_like(x.data)
        full[index] = g
        return (full,)

    return _make(x.data[index].copy(), (x,), backward, "narrow")


# ----------------------------------------------------------------------
# reductions


def _spread(g: np.ndarray, axis, shape: tuple) -> np.ndarray:
    """A reduction's gradient, repeated over the axis it reduced."""
    return np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape)


def tensor_sum(x: Tensor, axis=None) -> Tensor:
    return _make(x.data.sum(axis=axis), (x,),
                 lambda g: (_spread(g, axis, x.shape),), "sum")


def tensor_mean(x: Tensor, axis=None) -> Tensor:
    count = x.data.size if axis is None else x.shape[axis]
    return _make(x.data.mean(axis=axis), (x,),
                 lambda g: (_spread(g / count, axis, x.shape),), "mean")


# ----------------------------------------------------------------------
# nonlinearities and normalization


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1 + np.tanh(x * 0.5))


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x), with gradient sigmoid(x) * (1 + x * (1 - sigmoid(x)))."""
    sig = _sigmoid(x.data)

    return _make(x.data * sig, (x,),
                 lambda g: (g * sig * (1.0 + x.data * (1.0 - sig)),), "silu")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along ``axis``; rows sum to 1, never overflows."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    return _make(out_data, (x,), lambda g: (
        out_data * (g - (g * out_data).sum(axis=axis, keepdims=True)),), "softmax")


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float) -> Tensor:
    """softmax(q @ k^T * scale) @ v over the last two axes.

    The graph keeps q, k, v, the output and each query row's log-sum-exp;
    the probability block lives only while each pass runs. Backward
    recomputes it as exp(q @ k^T * scale - lse) and takes the softmax
    row term rowsum(dP * P) as rowsum(dO * O), which is equal. Both passes
    walk the leading axes in chunks whose score block fits in _SCORE_BYTES,
    with the scale on q and the row-sum division after ``@ v`` (Rabe &
    Staats, arXiv 2112.05682; FlashAttention, arXiv 2205.14135).
    """
    if (q.ndim < 2 or k.ndim != q.ndim or k.shape[:-2] != q.shape[:-2]
            or k.shape[-1] != q.shape[-1] or v.shape[:-1] != k.shape[:-1]):
        raise DimensionError(
            f"attention shapes incompatible: q {q.shape}, k {k.shape}, v {v.shape}")
    slices = int(np.prod(q.shape[:-2]))

    def flat():
        return (t.data.reshape((slices,) + t.shape[-2:]) for t in (q, k, v))

    def scores(q3, k3, c):
        qs = q3[c] * scale
        return qs, qs @ np.swapaxes(k3[c], -1, -2)

    q3, k3, v3 = flat()
    out = np.empty(q3.shape[:-1] + v3.shape[-1:], np.result_type(q3, k3, v3))
    lse = np.empty(q3.shape[:-1] + (1,), out.dtype)
    step = max(1, _SCORE_BYTES // max(1, q3.shape[1] * k3.shape[1] * out.itemsize))
    chunks = [slice(i, i + step) for i in range(0, slices, step)]
    for c in chunks:
        _, p = scores(q3, k3, c)
        row_max = p.max(axis=-1, keepdims=True)
        p -= row_max
        np.exp(p, out=p)
        total = p.sum(axis=-1, keepdims=True)
        out[c] = p @ v3[c] / total
        lse[c] = row_max + np.log(total)

    def backward(g):
        q3, k3, v3 = flat()
        g = g.reshape(out.shape)
        dq, dk, dv = (np.empty(t.shape, out.dtype) for t in (q3, k3, v3))
        for c in chunks:
            qs, p = scores(q3, k3, c)
            p -= lse[c]
            np.exp(p, out=p)
            dv[c] = np.swapaxes(p, -1, -2) @ g[c]
            ds = g[c] @ np.swapaxes(v3[c], -1, -2)
            ds -= (g[c] * out[c]).sum(axis=-1, keepdims=True)
            ds *= p
            dq[c] = ds @ k3[c]
            dk[c] = np.swapaxes(ds, -1, -2) @ qs
        dq *= scale
        return dq.reshape(q.shape), dk.reshape(k.shape), dv.reshape(v.shape)

    return _make(out.reshape(q.shape[:-1] + v.shape[-1:]), (q, k, v), backward,
                 "attention")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then apply affine."""
    if eps <= 0:
        raise ParameterError(f"layer_norm eps must be positive, got {eps}")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    normed = centered * inv
    out_data = gain.data * normed + bias.data

    def backward(g):
        gy = g * gain.data
        m1 = gy.mean(axis=-1, keepdims=True)
        m2 = (gy * normed).mean(axis=-1, keepdims=True)
        return inv * (gy - m1 - normed * m2), g * normed, g

    return _make(out_data, (x, gain, bias), backward, "layer_norm")


def dropout(x: Tensor, rate: float, seed: int = 0, training: bool = True) -> Tensor:
    """Zero elements with probability ``rate`` and rescale survivors.

    The mask is a pure function of ``seed``, so a fixed seed makes the op
    deterministic and differentiable. Eval mode is the identity.
    """
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    rng = np.random.default_rng(seed)
    keep = (rng.random(x.shape) >= rate)
    scale = np.asarray(1.0 / (1.0 - rate), dtype=x.dtype)
    mask = keep.astype(x.dtype) * scale

    return _make(x.data * mask, (x,), lambda g: (g * mask,), "dropout")


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log softmax probability of the true class.

    ``logits`` is [batch x classes]; ``labels`` holds integer class
    indices. Gradient is (softmax - one_hot) / batch.
    """
    if logits.ndim != 2:
        raise DimensionError(
            f"cross_entropy expects [batch x classes] logits, got {logits.shape}")
    labels = np.asarray(labels)
    batch, n_classes = logits.shape
    if labels.shape != (batch,):
        raise DataError(
            f"labels shape {labels.shape} does not match batch size {batch}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise DataError(
            f"labels must lie in [0, {n_classes}), got range "
            f"[{labels.min()}, {labels.max()}]")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    rows = np.arange(batch)
    loss = -log_probs[rows, labels].mean()

    def backward(g):
        grad = np.exp(log_probs)
        grad[rows, labels] -= 1.0
        return (grad * (g / batch),)

    return _make(np.asarray(loss, dtype=logits.dtype), (logits,), backward,
                 "cross_entropy")


# ----------------------------------------------------------------------
# gradient checking


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor,
                      step: float = 1e-3) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be deterministic (fix dropout seeds) and map a tensor to a
    scalar tensor. The check runs in float64 regardless of ``x``'s dtype;
    the relative error denominator is max(|analytic|, |numeric|, 1e-8).
    """
    base = x.data.astype(np.float64)
    leaf = Tensor(base.copy(), requires_grad=True)
    out = f(leaf)
    if out.shape != ():
        raise ContractError(
            f"finite_diff_check requires a scalar-valued f, got shape {out.shape}")
    out.backward()
    analytic = leaf.grad.copy()

    numeric = np.zeros_like(base)
    flat_base = base.reshape(-1)
    flat_num = numeric.reshape(-1)
    for i in range(flat_base.size):
        for sign in (+1.0, -1.0):
            probe = flat_base.copy()
            probe[i] += sign * step
            value = f(Tensor(probe.reshape(base.shape))).item()
            flat_num[i] += sign * value
        flat_num[i] /= 2.0 * step

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())
