#!/usr/bin/env python3
# Walk through the reverse-mode tensor core: build a few graphs, call
# backward, and confirm the hand-derived gradients against central
# differences. Everything here runs in well under a second.

import numpy as np

from gbmpatch.tensor import (Tensor, attention, cross_entropy,
                             finite_diff_check, layer_norm, silu, softmax)

rng = np.random.default_rng(0)

# a Tensor wraps a float32 ndarray plus a grad slot
x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

y = (x @ w).sum()          # scalar loss
y.backward()
print("dy/dw == x^T @ ones, check:",
      np.allclose(w.grad, x.data.T @ np.ones((3, 2))))

# grads accumulate until zeroed, same contract as the usual step loop
y2 = (x @ w).sum()
y2.backward()
print("second backward doubled w.grad:",
      np.allclose(w.grad, 2 * (x.data.T @ np.ones((3, 2)))))
w.grad = None
x.grad = None

# quadratic form: d/dx sum(x*x)/2 = x
q = (x * x).sum() / 2.0
q.backward()
print("quadratic grad equals x:", np.allclose(x.grad, x.data))

# the checker perturbs every element with float64 central differences and
# reports the worst elementwise relative error
err = finite_diff_check(lambda t: (silu(t) * 1.0).sum(),
                        Tensor(rng.normal(size=(5, 5))))
print(f"silu finite-diff error: {err:.2e}")

probe = Tensor(rng.normal(size=(4, 6)))  # fixed, so f stays deterministic
err = finite_diff_check(
    lambda t: (softmax(t, axis=-1) * probe).sum(),
    Tensor(rng.normal(size=(4, 6))))
print(f"softmax finite-diff error: {err:.2e}")

g = Tensor(np.ones(8))
b = Tensor(np.zeros(8))
mix = Tensor(rng.normal(size=(8, 3)))
err = finite_diff_check(lambda t: (layer_norm(t, g, b) @ mix).sum(),
                        Tensor(rng.normal(size=(6, 8))))
print(f"layer_norm chain error:   {err:.2e}")

# attention is softmax(q @ k^T * scale) @ v as one op: its graph keeps a
# row log-sum-exp instead of the probabilities, and backward recomputes them
k = Tensor(rng.normal(size=(2, 5, 4)))   # (heads, keys, width)
v = Tensor(rng.normal(size=(2, 5, 3)))
probe = Tensor(rng.normal(size=(2, 6, 3)))
err = finite_diff_check(lambda t: (attention(t, k, v, 0.5) * probe).sum(),
                        Tensor(rng.normal(size=(2, 6, 4))))
print(f"attention (wrt q) error:  {err:.2e}")

# cross entropy folds log-softmax and NLL into one op; its backward is the
# classic (softmax - onehot) / batch
logits = Tensor(rng.normal(size=(4, 9)), requires_grad=True)
labels = np.array([0, 3, 3, 7])
loss = cross_entropy(logits, labels)
loss.backward()
p = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
p /= p.sum(axis=1, keepdims=True)
onehot = np.eye(9)[labels]
print("cross_entropy grad matches (p - y)/B:",
      np.allclose(logits.grad, (p - onehot) / 4, atol=1e-6))

# each op's backward returns one gradient per operand and the engine routes
# them: only operands that require grad receive one, so a constant has none
const = Tensor(np.ones((2, 4)))
(const @ w).sum().backward()
print("constant operand left without a grad:", const.grad is None)
