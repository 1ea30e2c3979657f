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

import contextlib
import ctypes
import functools
import os
import queue
import threading
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (ContractError, DataError, DimensionError, ParameterError,
                     as_int, as_real)

DEFAULT_DTYPE = np.float32

_NORM_EPS = 1e-5   # layer_norm's variance floor

# bytes of one attention chunk's score block, and of one block of tile_linear's
# tiles: about half of a 2 MiB L2 cache
_SCORE_BYTES = 1 << 20

# an attention slice with a row sum below this is recomputed from its exact
# row max; at or above it, the error from subnormal entries is far below eps
_SUM_FLOOR = 2.0 ** -100

# glibc keeps 256 MiB of freed heap (M_TRIM_THRESHOLD, -1) and serves arrays
# under 32 MiB, its 64-bit maximum, from the heap (M_MMAP_THRESHOLD, -3), so
# the pages backward frees are reused, not faulted in; 1 where glibc applied it
try:
    _MALLOPT = tuple(ctypes.CDLL(None).mallopt(param, value)
                     for param, value in ((-1, 256 << 20), (-3, 32 << 20)))
except (AttributeError, OSError, TypeError):
    _MALLOPT = ()


@functools.cache
def _blas_query():
    """The thread-count query of the OpenBLAS this process has mapped, or
    None when no mapped library exports one."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(None, 5)[-1].strip() for line in maps
                            if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            query = getattr(lib, name, None)
            if query is not None:
                query.argtypes, query.restype = [], ctypes.c_int
                return query
    return None


def _blas_threads() -> int:
    """Threads the loaded BLAS runs one call on; 2 when it cannot be asked."""
    query = _blas_query()
    return 2 if query is None else query()


class _Pool:
    """One daemon thread per CPU of ``cpus``, named ``gbmpatch-cpu<N>`` and
    pinned to CPU N, that runs the parts handed to it in turn."""

    def __init__(self, cpus: tuple):
        self.cpus, self.tasks, self.threads = cpus, [], []
        try:
            for cpu in cpus:
                self.tasks.append(queue.SimpleQueue())
                self.threads.append(threading.Thread(
                    target=self._serve, args=(cpu, self.tasks[-1]),
                    name=f"gbmpatch-cpu{cpu}", daemon=True))
                self.threads[-1].start()
        except BaseException:
            self.stop()
            raise

    @staticmethod
    def _serve(cpu: int, tasks: queue.SimpleQueue):
        with contextlib.suppress(OSError):   # the pin is for speed only
            os.sched_setaffinity(0, {cpu})
        for task in iter(tasks.get, None):
            task()

    def run(self, units: int, parts: int, run: Callable[[int, int], None]):
        """``run`` over ``parts`` contiguous parts of range(units), part p on
        thread p; the first part that raised raises once every part is done."""
        cuts = [units * p // parts for p in range(parts + 1)]
        errors, done = [None] * parts, queue.SimpleQueue()

        def part(p):
            try:
                run(cuts[p], cuts[p + 1])
            except BaseException as exc:   # raised on the calling thread below
                errors[p] = exc
            done.put(p)

        for p in range(parts):
            self.tasks[p].put(functools.partial(part, p))
        for _ in range(parts):
            done.get()
        for exc in errors:
            if exc is not None:
                raise exc

    def stop(self):
        """End and join every thread, once it has run what it was handed."""
        for tasks, thread in zip(self.tasks, self.threads):
            if thread.ident is not None:
                tasks.put(None)
                thread.join()


_pool: Optional[_Pool] = None   # started by the first spread, for the process
_pool_lock = threading.Lock()   # held by the one call that uses or stops _pool


def _in_parts(units: int, blocks: int, run: Callable[[int, int], None]):
    """``run(start, stop)`` over contiguous parts of range(units), a loop of
    ``blocks`` cache-sized blocks, on the pool's pinned threads.

    It spreads only when every thread gets at least two blocks, over at
    most one thread per CPU the process may run on, when the loaded BLAS
    runs one thread per call, when no other call is using the pool (a
    part that spreads again, or a second Python thread) and when the
    pool's threads can start; else the calling thread runs range(units)
    as one part. Each part writes only its own rows, through the same
    numpy calls as one part would, so no bit depends on the parts. A
    changed set of CPUs replaces the pool.
    """
    global _pool
    if blocks >= 4 and hasattr(os, "sched_getaffinity"):
        cpus = tuple(sorted(os.sched_getaffinity(0)))
        parts = min(len(cpus), blocks // 2, units)
        if parts > 1 and _blas_threads() == 1 and _pool_lock.acquire(blocking=False):
            try:
                if _pool is None or _pool.cpus != cpus:
                    _stop_pool()
                    # a host at its thread limit runs the loop on the caller
                    with contextlib.suppress(RuntimeError):
                        _pool = _Pool(cpus)
                if _pool is not None:
                    _pool.run(units, parts, run)
                    return
            finally:
                _pool_lock.release()
    run(0, units)


def _stop_pool():
    """Join the pool's threads, under ``_pool_lock``; the next spread
    starts new ones."""
    global _pool
    old, _pool = _pool, None
    if old is not None:
        old.stop()


def _before_fork():
    """Wait for any spread to finish, then join the pool: no engine thread
    is alive at a fork, and the child starts with no pool. The lock is
    released on both sides of the fork."""
    _pool_lock.acquire()
    _stop_pool()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_before_fork, after_in_parent=_pool_lock.release,
                        after_in_child=_pool_lock.release)


# bytes of one block of a row loop over images; at 56/14 no array reaches
# four blocks, so those loops stay on the calling thread (see README)
_ROW_BYTES = _SCORE_BYTES // 4


def _rows(run: Callable, *arrays: np.ndarray, blocks: Optional[int] = None):
    """``run(*rows)`` over the images (first axis) of ``arrays``, each
    call given the same range of every array's rows, through _in_parts in
    ``blocks`` blocks, by default blocks of _ROW_BYTES of the largest
    array; a loop run as one part gets the arrays themselves. Arrays of
    fewer than three axes, as the head's (batch, features) rows, are one
    image: a one-row product would take numpy's matrix-vector path and
    other bits."""
    images = len(arrays[0]) if arrays[0].ndim > 2 else 1
    if blocks is None:
        blocks = max(a.nbytes for a in arrays) // _ROW_BYTES

    def part(first, stop):
        run(*(arrays if stop - first == images else
              [a[first:stop] for a in arrays]))

    _in_parts(images, blocks, part)


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

    The value is immutable once created; only ``grad`` mutates. Leaf
    gradients accumulate across backward calls until ``zero_grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_op",
                 "__weakref__")

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
        """Populate ``grad`` on every reachable leaf that requires it.

        Backward frees the graph it runs: afterwards every non-leaf's
        ``grad`` is None and the nodes keep only their values. Repeated
        calls accumulate into leaf gradients, one new graph per call; a
        second backward through a freed node raises ``ContractError``.
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
    over broadcast axes and accumulated. A node's gradient, parents and
    closure are dropped once its op has run, so a record replays once.
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
            elif node.requires_grad and node._op != "leaf":
                raise ContractError(f"backward reached a freed {node._op} node")
        root.grad = np.ones_like(root.data)
        for node in reversed(self.nodes):
            if node._backward_fn is None or node.grad is None:
                continue
            g, parents, backward_fn = node.grad, node._parents, node._backward_fn
            node.grad, node._parents, node._backward_fn = None, (), None
            for parent, g in zip(parents, backward_fn(g)):
                if g is None or not parent.requires_grad:
                    continue
                g = _unbroadcast(g, parent.shape)
                if parent.grad is None:
                    # a non-leaf adopts its first gradient, as no backward
                    # writes into its g; a leaf keeps a copy of its own
                    parent.grad = g.astype(parent.data.dtype,
                                           copy=not parent._parents)
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
    axes). Like ``linear``, it skips an operand without ``requires_grad``.
    """
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul shapes incompatible: {a.shape} x {b.shape}")

    def backward(g):
        return (g @ np.swapaxes(b.data, -1, -2) if a.requires_grad else None,
                np.swapaxes(a.data, -1, -2) @ g if b.requires_grad else None)

    return _make(a.data @ b.data, (a, b), backward, "matmul")


def _affine(x: np.ndarray, w: Tensor, b: Optional[Tensor],
            silu: Optional[np.ndarray] = None) -> np.ndarray:
    """x @ w + b over x's last axis, for ``linear`` and the ops built on it,
    in a row loop over x's images: numpy's product is one GEMM per image
    either way. ``silu``, an array of the output's shape and dtype, gets
    silu of it too. A wider bias widens the output, and numpy writes the
    product into it widened."""
    shape = x.shape[:-1] + w.shape[1:]
    if (x.ndim < 1 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b is not None
            and (b.ndim > 2 or shape[len(shape) - b.ndim:] != b.shape)):
        raise DimensionError(f"linear shapes incompatible: {x.shape} x {w.shape}"
                             + ("" if b is None else f" + {b.shape}"))
    out = np.empty(shape, np.result_type(x, w.data, *([] if b is None else [b.data])))

    def rows(x, out, *silu):
        np.matmul(x, w.data, out=out)
        if b is not None:
            out += b.data
        if silu:
            np.multiply(_sigmoid(out, silu[0]), out, out=silu[0])

    _rows(rows, x, out, *([] if silu is None else [silu]))
    return out


def _affine_grads(x: np.ndarray, w: Tensor, g: np.ndarray, with_dx: bool):
    """(dX, dW) of x @ w under G = g: dX = G @ Wᵀ in a row loop over x's
    images, and dW = Xᵀ @ G one 2-D GEMM over all of x's rows; an operand
    that needs no gradient gets None."""
    k, n = w.shape
    dx = np.empty(x.shape, np.result_type(g, w.data)) if with_dx else None
    if with_dx:
        _rows(lambda g, dx: np.matmul(g.reshape(-1, n), w.data.T,
                                      out=dx.reshape(-1, k)), g, dx)
    return dx, x.reshape(-1, k).T @ g.reshape(-1, n) if w.requires_grad else None


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """x @ w + b over the last axis of x, as one node. ``b`` broadcasts
    against the output: a (k,) bias or one row per token.

    Gradients: dX = G @ Wᵀ (skipped, as in ``matmul``, when x needs none)
    in a row loop over x's images, dW = Xᵀ @ G one 2-D GEMM over all of
    x's rows, and dB = G, which the engine sums down to b's shape.
    """
    out = _affine(x.data, w, b)

    def backward(g):
        return (*_affine_grads(x.data, w, g, x.requires_grad), g)

    return _make(out, (x, w) if b is None else (x, w, b), backward, "linear")


def tile_linear(images: np.ndarray, tile: int, w: Tensor, b: Tensor) -> Tensor:
    """``linear(Tensor(tile_image(images, tile)), w, b)`` as one node that
    keeps the images, not their tiles; the images are a constant with no
    gradient, and ``b`` is embed's (tiles, dim) position rows.

    Forward cuts a block of images at a time into a reused buffer of at
    most _SCORE_BYTES and multiplies it while it is in cache (Cho & Brand,
    arXiv 1706.06873), one buffer per part of the block loop; numpy's
    product is one GEMM per image, so no bit moves. Backward cuts every
    tile again for dW = tilesᵀ @ G, one GEMM, trading a cut for holding
    them (Chen et al., arXiv 1604.06174).
    """
    images = _as_array(images)
    n, c, ny, nx, tile = _tiling(images, tile)
    step, blocks = _image_blocks(images)
    out = np.empty((n, ny * nx) + w.shape[1:], np.result_type(images, w.data, b.data))

    def embed(images, out):   # one part's images
        cut = np.empty((min(step, len(images)), ny * nx, c * tile * tile), images.dtype)
        # an empty batch takes one pass too, through _affine's shape check
        for start in range(0, max(len(images), 1), step):
            block = np.asarray(images[start:start + step], order="C")
            _cut(block, tile, cut[:len(block)])
            out[start:start + step] = _affine(cut[:len(block)], w, b)

    _rows(embed, images, out, blocks=blocks)

    def backward(g):
        if not w.requires_grad:
            return None, g
        return _affine_grads(tile_image(images, tile), w, g, False)[1], g

    return _make(out, (w, b), backward, "tile_linear")


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


# The ops below evaluate their formulas in place, in the written order (a
# product may swap its operands): a fresh temporary the size of the input
# costs its page faults on every call.


def _sigmoid(x: np.ndarray, out=None) -> np.ndarray:
    """0.5 * (1 + tanh(x * 0.5)), in ``out`` when it is given."""
    out = np.empty_like(x) if out is None else out
    sig = np.multiply(x, 0.5, out=out)   # an array at 0-d too
    np.tanh(sig, out=sig)
    sig += 1
    sig *= 0.5
    return sig


def _silu_grad(g: np.ndarray, x: np.ndarray, sig: np.ndarray,
               out=None) -> np.ndarray:
    """g * sig * (1.0 + x * (1.0 - sig)): silu's input gradient, in ``out``
    when it is given."""
    grad = np.multiply(g, sig, out=out)
    inner = np.subtract(1.0, sig)
    inner *= x
    inner += 1.0
    grad *= inner
    return grad


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x), with gradient sigmoid(x) * (1 + x * (1 - sigmoid(x)))."""
    sig = _sigmoid(x.data)
    return _make(x.data * sig, (x,), lambda g: (_silu_grad(g, x.data, sig),), "silu")


def linear_silu(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``silu(linear(x, w, b))`` as one node, with the same bits forward
    and backward.

    The node keeps the pre-activation z beside its output, not z's
    sigmoid: forward turns the sigmoid into the output in place, and
    backward computes it again from z. So the graph holds two arrays of
    the hidden width where ``linear`` then ``silu`` hold three. The
    gradients of x, w and b are ``linear``'s under silu's gradient.
    """
    out = np.empty(x.shape[:-1] + w.shape[1:],
                   np.result_type(x.data, w.data, b.data))
    z = _affine(x.data, w, b, silu=out)

    def backward(g):
        gz = np.empty(z.shape, np.result_type(g, z))
        _rows(lambda g, z, gz: _silu_grad(g, z, _sigmoid(z), gz), g, z, gz)
        return (*_affine_grads(x.data, w, gz, x.requires_grad), gz)

    return _make(out, (x, w, b), backward, "linear_silu")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along ``axis``; rows sum to 1, never overflows."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    return _make(out_data, (x,), lambda g: (
        out_data * (g - (g * out_data).sum(axis=axis, keepdims=True)),), "softmax")


def _tiling(images: np.ndarray, tile) -> tuple:
    """(B, C, H / tile, W / tile, tile) of images that ``tile`` cuts evenly."""
    tile = as_int(tile, "tile size", 1)
    if images.ndim != 4:
        raise DimensionError(f"expected (B, C, H, W), got shape {images.shape}")
    b, c, h, wdt = images.shape
    if h % tile or wdt % tile:
        raise DimensionError(
            f"tile {tile} does not divide image {h}x{wdt}")
    return b, c, h // tile, wdt // tile, tile


def tile_image(images: np.ndarray, tile: int) -> np.ndarray:
    """Cut (B, C, H, W) images into (B, tiles, patch_dim) flat tile rows.

    Each row is one tile flattened channel-major: all of channel 0's
    tile pixels, then channel 1's, then channel 2's. Tiles are ordered
    left to right, top to bottom.
    """
    img = np.asarray(images, order="C")
    b, c, ny, nx, tile = _tiling(img, tile)
    out = np.empty((b, ny * nx, c * tile * tile), img.dtype)
    _rows(lambda img, out: _cut(img, tile, out), img, out,
          blocks=_image_blocks(img)[1])
    return out


def _image_blocks(images: np.ndarray) -> tuple:
    """(images per block, blocks) of a loop over images: a block's tiles
    fill at most _SCORE_BYTES or are one image's; no image is one block."""
    step = max(1, _SCORE_BYTES // max(1, images[:1].nbytes))
    return step, -(-max(len(images), 1) // step)


def _cut(img: np.ndarray, tile: int, out: np.ndarray) -> np.ndarray:
    """``tile_image``'s cut of C-contiguous images into ``out``, unchecked."""
    b, c, h, wdt = img.shape
    ny, nx = h // tile, wdt // tile
    run = np.dtype((np.void, tile * img.itemsize))   # one tile-width pixel run
    out.view(run).reshape(b, ny, nx, c, tile)[...] = (
        img.view(run).reshape(b, c, ny, tile, nx).transpose(0, 2, 4, 1, 3))
    return out


def _split_heads(x: np.ndarray, heads: int, dtype, last=None,
                 transpose: bool = False, out=None) -> np.ndarray:
    """(B, n, heads·w) -> (B·heads, n, w) slices, one per head, in ``out``
    (a C-contiguous array of that shape) when it is given. ``last`` adds
    column w, as in ``[k | 1]``; ``transpose`` stores each slice
    transposed, so that a matmul reads it as a contiguous right operand."""
    b, n, width = x.shape
    w = width // heads
    parts = x.reshape(b, n, heads, w).transpose(0, 2, 1, 3)
    cols = w if last is None else w + 1
    shape = (b, heads, cols, n) if transpose else (b, heads, n, cols)
    out = np.empty(shape, dtype) if out is None else out.reshape(shape)
    view = out.swapaxes(-1, -2) if transpose else out
    view[..., :w] = parts
    if last is not None:
        view[..., w] = last
    return out.reshape(b * heads, *shape[2:])


def _recentre(i, qa, kt, va, scores, summed):
    """Slice i's forward shifted by its exact row max: ``summed[i]`` gets
    ``exp(s − max) @ [v | 1]`` and ``qa[i]``'s spare column −max."""
    w = kt.shape[1] - 1
    p = np.matmul(qa[i, :, :w], kt[i, :w], out=scores)
    row_max = p.max(axis=-1, keepdims=True)
    p -= row_max
    np.exp(p, out=p)
    np.matmul(p, va[i], out=summed[i])
    qa[i, :, w:] = -row_max


def _merge_heads(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(B·heads, n, w) slices into ``out``, a C-contiguous (B, n, heads·w)
    array: the inverse of ``_split_heads``."""
    b, n, _ = out.shape
    s, _, w = x.shape
    out.reshape(b, n, s // b, w)[...] = x.reshape(b, s // b, n, w).transpose(0, 2, 1, 3)
    return out


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, scale: float) -> Tensor:
    """Multi-head softmax(q @ kᵀ * scale) @ v over (B, N, heads·w) tokens.

    Head h reads columns [h·w, (h+1)·w) of q, k and v and writes the same
    columns of the output. The op splits the heads into slices with an
    extra column that folds a pass over the score block into a matmul
    (Rabe & Staats, arXiv 2112.05682; FlashAttention-2, arXiv 2307.08691):

    - forward shifts row i of the scores by ``c_i = ‖q_i·scale‖ ·
      max_j ‖k_j‖``, which bounds every score in the row (Cauchy–Schwarz),
      through ``[q·scale | −c] @ [k | 1]ᵀ``: exp of a score at or below 0
      cannot overflow, and softmax ignores a per-row shift (Milakov &
      Gimelshein, arXiv 1805.02867);
    - forward reads each row's sum from ``P @ [v | 1]``, and a slice with
      a row sum under _SUM_FLOOR (or 0 or NaN, as from a non-finite bound)
      is recomputed from its exact row max;
    - the graph keeps the −lse column, not the (B, heads, N, N)
      probabilities; backward rebuilds ``[q·scale | −lse]`` and
      ``[k | 1]ᵀ`` from it and the q and k it already holds, and
      recomputes the probabilities as ``exp([q·scale | −lse] @ [k | 1]ᵀ)``;
    - the softmax row term D = rowsum(dP * P) equals rowsum(dO * O), and
      ``[dO | −D] @ [v | 1]ᵀ`` gives dP − D.

    Every right operand is stored contiguous, as BLAS reads a transposed
    one about 1.7x slower here. Both passes walk the slices in chunks
    whose score block fits in _SCORE_BYTES, reusing one block, and split
    the images into parts that each prepare, walk and write back their
    own slices (FlashAttention-2's batch·head parallelism). Each slice
    takes its path on its own row sums, so neither the chunks nor the
    parts move bits.
    """
    heads = as_int(heads, "attention heads", 1)
    if (q.ndim != 3 or k.ndim != 3 or v.ndim != 3 or k.shape[0] != q.shape[0]
            or k.shape[-1] != q.shape[-1] or v.shape[:-1] != k.shape[:-1]
            or q.shape[-1] % heads or v.shape[-1] % heads):
        raise DimensionError(
            f"attention shapes incompatible: q {q.shape}, k {k.shape}, "
            f"v {v.shape}, {heads} heads")
    b, n, m = q.shape[0], q.shape[1], k.shape[1]
    qw, vw = q.shape[-1] // heads, v.shape[-1] // heads
    dtype = np.result_type(q.data, k.data, v.data)
    step = max(1, _SCORE_BYTES // max(1, n * m * np.dtype(dtype).itemsize))
    chunks = -(-b * heads // step)
    qa = np.empty((b, heads, n, qw + 1), dtype)   # [q·s | −bound], then [q·s | −lse]
    kt = np.empty((b, heads, qw + 1, m), dtype)
    va = np.empty((b, heads, m, vw + 1), dtype)
    summed = np.empty((b, heads, n, vw + 1), dtype)   # [P @ v | rowsum(P)]
    nlse = np.empty((b, heads, n), dtype)
    out = np.empty((b, n, heads, vw), dtype)

    def forward(q, k, v, qa, kt, va, summed, nlse, out):   # one part's images
        qa = _split_heads(q * scale, heads, dtype, 0.0, out=qa)
        kt = _split_heads(k, heads, dtype, 1.0, transpose=True, out=kt)
        va = _split_heads(v, heads, dtype, 1.0, out=va)
        count = len(qa)
        summed = summed.reshape(count, n, vw + 1)
        qs, ks = qa[:, :, :qw], kt[:, :qw]
        with np.errstate(over="ignore", invalid="ignore"):   # a non-finite bound falls back
            qa[:, :, qw] = np.sqrt(np.einsum("snw,snw->sn", qs, qs))
            qa[:, :, qw] *= -np.sqrt(
                np.einsum("swm,swm->sm", ks, ks).max(-1, keepdims=True))
        scores = np.empty((min(step, count), n, m), dtype)
        for start in range(0, count, step):
            c = slice(start, min(start + step, count))
            p = np.matmul(qa[c], kt[c], out=scores[:c.stop - c.start])   # ≤ 0
            np.exp(p, out=p)
            np.matmul(p, va[c], out=summed[c])
        total = summed[:, :, vw:]
        for i in np.flatnonzero(~(total >= _SUM_FLOOR).all(axis=(1, 2))):
            _recentre(i, qa, kt, va, scores[0], summed)
        qa[:, :, qw:] -= np.log(total)   # [q·s | −lse], lse = shift + log(rowsum)
        nlse[...] = qa[:, :, qw].reshape(nlse.shape)
        np.divide(summed[:, :, :vw].reshape(len(out), heads, n, vw),
                  total.reshape(len(out), heads, n, 1), out=out.transpose(0, 2, 1, 3))

    _rows(forward, q.data, k.data, v.data, qa, kt, va, summed, nlse, out, blocks=chunks)
    out = out.reshape(b, n, heads * vw)

    def backward(g):
        gq, gk = np.empty((b, n, heads * qw), dtype), np.empty((b, m, heads * qw), dtype)
        gv = np.empty((b, m, heads * vw), dtype)

        def grads(q, k, v, out, g, nlse, gq, gk, gv):   # one part's images
            images, count = len(q), len(q) * heads
            qa = _split_heads(q * scale, heads, dtype, nlse)   # as forward left it
            kt = _split_heads(k, heads, dtype, 1.0, transpose=True)
            d = (g * out).reshape(images, n, heads, vw).sum(axis=-1)
            ga = _split_heads(g, heads, dtype, -d.transpose(0, 2, 1))   # [g | −D]
            vt = _split_heads(v, heads, dtype, 1.0, transpose=True)
            ks = _split_heads(k, heads, dtype)
            dq, dk = np.empty((count, n, qw), dtype), np.empty((count, m, qw), dtype)
            dv = np.empty((count, m, vw), dtype)
            block = (min(step, count), n, m)
            scores, ds = np.empty(block, dtype), np.empty(block, dtype)
            for start in range(0, count, step):
                c = slice(start, min(start + step, count))
                rows = c.stop - c.start
                p = np.matmul(qa[c], kt[c], out=scores[:rows])
                np.exp(p, out=p)
                np.matmul(np.swapaxes(p, -1, -2), ga[c, :, :vw], out=dv[c])
                dp = np.matmul(ga[c], vt[c], out=ds[:rows])   # dP − D
                dp *= p
                np.matmul(dp, ks[c], out=dq[c])
                np.matmul(np.swapaxes(dp, -1, -2), qa[c, :, :qw], out=dk[c])
            dq *= scale
            for part, whole in ((dq, gq), (dk, gk), (dv, gv)):
                _merge_heads(part, whole)

        _rows(grads, q.data, k.data, v.data, out, g, nlse, gq, gk, gv, blocks=chunks)
        return gq, gk, gv

    return _make(out, (q, k, v), backward, "attention")


def layer_norm(x: Tensor) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, with no gain
    or bias: the linear map after it absorbs them (arXiv 1911.07013). Both
    passes are row loops over x's images."""
    normed = np.empty(x.shape, x.dtype)
    inv = np.empty(x.shape[:-1] + (1,), x.dtype)

    def forward(x, normed, inv):
        # normed is centered, until it is scaled below
        np.subtract(x, x.mean(axis=-1, keepdims=True), out=normed)
        var = (normed * normed).mean(axis=-1, keepdims=True)
        np.divide(1.0, np.sqrt(var + _NORM_EPS), out=inv)
        normed *= inv

    _rows(forward, x.data, normed, inv)

    def backward(g):
        # inv * (g - mean(g) - normed * mean(g * normed))
        grad = np.empty(g.shape, g.dtype)

        def rows(g, normed, inv, grad):
            scratch = g * normed
            m2 = scratch.mean(axis=-1, keepdims=True)
            np.subtract(g, g.mean(axis=-1, keepdims=True), out=grad)
            grad -= np.multiply(normed, m2, out=scratch)
            grad *= inv

        _rows(rows, g, normed, inv, grad)
        return (grad,)

    return _make(normed, (x,), backward, "layer_norm")


def dropout(x: Tensor, rate: float, seed: int = 0) -> Tensor:
    """Zero elements with probability ``rate`` and rescale survivors.

    The mask is a pure function of ``seed``, so a fixed seed makes the op
    deterministic and differentiable. Rate 0, which eval passes, is the
    identity.
    """
    rate, seed = as_real(rate, "dropout rate"), as_int(seed, "dropout seed", 0)
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
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
