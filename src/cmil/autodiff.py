"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is a dynamic tape: every operation returns a new ``Tensor``
holding its value, its parent nodes, and a closure that scatters the
upstream gradient onto the parents. ``backward()`` visits the tape once
in reverse topological order. Broadcasting is deliberately narrow
(scalar-with-tensor and equal shapes, plus dedicated row helpers), so
shape bugs fail at op construction rather than producing silent garbage.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from .errors import ShapeError

Array = np.ndarray


class Tensor:
    """Float64 array plus tape bookkeeping.

    Ops never write into their inputs' ``data``, but ``data`` itself is
    mutable: ``AdamW`` rebinds each parameter's ``data`` to a view of its
    one flat vector and ``step`` updates that vector in place, and
    finite-difference gradient checks nudge one coordinate and restore it.
    Backward closures read ``data`` when they run, so a graph built before
    such a write must be rebuilt, not reused. ``grad`` is populated by
    ``backward`` and has the same shape as ``data``; a leaf built with
    ``constant`` is never differentiated and its ``grad`` stays None.
    """

    __slots__ = ("data", "grad", "_parents", "_backward", "_const")

    def __init__(self, data, _parents: tuple = (), _backward: Callable | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self._parents = _parents
        self._backward = _backward
        self._const = False

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        return self.data.item()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

    # -- elementwise dunders ------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    # -- backward pass ------------------------------------------------------

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable leaf."""
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar output, got shape {self.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _wrap(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def constant(data) -> Tensor:
    """A leaf input that no gradient is computed for (its ``grad`` stays None)."""
    t = Tensor(data)
    t._const = True
    return t


def _accumulate(t: Tensor, g: Array) -> None:
    if t._const:
        return
    if t.grad is None:
        # a copy, because g may be another node's grad; + 0.0 stores -0.0 as +0.0
        t.grad = g + 0.0
    else:
        t.grad += g


def _reduce_to(g: Array, shape: tuple) -> Array:
    # broadcasting is scalar-vs-tensor only, so the reduction is total or none
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape)


def _check_elementwise(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape == b.shape or a.data.ndim == 0 or b.data.ndim == 0:
        return
    raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are neither equal nor scalar")


# -- elementwise ops ----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a, b, "add")

    def bwd(g):
        _accumulate(a, _reduce_to(g, a.shape))
        _accumulate(b, _reduce_to(g, b.shape))

    return Tensor(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a, b, "sub")

    def bwd(g):
        _accumulate(a, _reduce_to(g, a.shape))
        _accumulate(b, _reduce_to(-g, b.shape))

    return Tensor(a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a, b, "mul")

    def bwd(g):
        _accumulate(a, _reduce_to(g * b.data, a.shape))
        _accumulate(b, _reduce_to(g * a.data, b.shape))

    return Tensor(a.data * b.data, (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a, b, "div")

    def bwd(g):
        _accumulate(a, _reduce_to(g / b.data, a.shape))
        _accumulate(b, _reduce_to(-g * a.data / (b.data * b.data), b.shape))

    return Tensor(a.data / b.data, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    def bwd(g):
        _accumulate(a, -g)

    return Tensor(-a.data, (a,), bwd)


def relu(a: Tensor) -> Tensor:
    # fmax maps NaN to 0 and may keep -0.0, which `+= 0.0` turns into +0.0
    y = np.fmax(a.data, 0.0)
    y += 0.0

    def bwd(g):
        _accumulate(a, g * (y > 0.0))  # subgradient at 0 is 0

    return Tensor(y, (a,), bwd)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def bwd(g):
        _accumulate(a, g * (1.0 - y * y))

    return Tensor(y, (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    y = sigmoid_value(a.data)

    def bwd(g):
        _accumulate(a, g * y * (1.0 - y))

    return Tensor(y, (a,), bwd)


def sigmoid_value(x: Array | float) -> Array:
    """Numerically stable logistic function on plain arrays."""
    x = np.asarray(x, dtype=np.float64)
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, so neither exp overflows
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def log(a: Tensor) -> Tensor:
    def bwd(g):
        _accumulate(a, g / a.data)

    return Tensor(np.log(a.data), (a,), bwd)


def sqrt(a: Tensor) -> Tensor:
    y = np.sqrt(a.data)

    def bwd(g):
        _accumulate(a, g / (2.0 * y))

    return Tensor(y, (a,), bwd)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    # gradient passes through wherever the value was not clipped
    inside = (a.data >= lo) & (a.data <= hi)

    def bwd(g):
        _accumulate(a, g * inside)

    return Tensor(np.clip(a.data, lo, hi), (a,), bwd)


# -- linear algebra -----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    an, bn = a.data.ndim, b.data.ndim
    if an == 0 or bn == 0 or an > 2 or bn > 2:
        raise ShapeError(f"matmul supports 1-D and 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    y = a.data @ b.data

    def bwd(g):
        # a constant operand gets no product; g is a scalar for a 1-D dot product
        if not a._const:
            if bn == 2:
                _accumulate(a, g @ b.data.T if an == 2 else b.data @ g)
            else:
                _accumulate(a, np.outer(g, b.data) if an == 2 else g * b.data)
        if not b._const:
            if an == 2:
                _accumulate(b, a.data.T @ g)
            else:
                _accumulate(b, np.outer(a.data, g) if bn == 2 else g * a.data)

    return Tensor(y, (a, b), bwd)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose requires a 2-D tensor, got shape {a.shape}")
    if a._const:
        return constant(a.data.T)  # so products with it skip its gradient too

    def bwd(g):
        _accumulate(a, g.T)

    return Tensor(a.data.T, (a,), bwd)


def add_rowvec(m: Tensor, v: Tensor) -> Tensor:
    """Add a length-c vector to every row of an r-by-c matrix."""
    if m.data.ndim != 2 or v.data.ndim != 1 or m.shape[1] != v.shape[0]:
        raise ShapeError(f"add_rowvec: incompatible shapes {m.shape} and {v.shape}")

    def bwd(g):
        _accumulate(m, g)
        _accumulate(v, g.sum(axis=0))

    return Tensor(m.data + v.data[None, :], (m, v), bwd)


def scale_rows(m: Tensor, v: Tensor) -> Tensor:
    """Scale row r of an r-by-c matrix by v[r]."""
    if m.data.ndim != 2 or v.data.ndim != 1 or m.shape[0] != v.shape[0]:
        raise ShapeError(f"scale_rows: incompatible shapes {m.shape} and {v.shape}")

    def bwd(g):
        if not m._const:
            _accumulate(m, g * v.data[:, None])
        if not v._const:
            _accumulate(v, (g * m.data).sum(axis=1))

    return Tensor(m.data * v.data[:, None], (m, v), bwd)


def gather(a: Tensor, indices) -> Tensor:
    """Select entries of a 1-D tensor at the given integer indices."""
    if a.data.ndim != 1:
        raise ShapeError(f"gather requires a 1-D tensor, got shape {a.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"gather index out of range for length {a.shape[0]}")

    def bwd(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        np.add.at(a.grad, idx, g)

    return Tensor(a.data[idx], (a,), bwd)


# -- softmax and reductions ---------------------------------------------------


def softmax(a: Tensor) -> Tensor:
    if a.data.ndim != 1 or a.data.size == 0:
        raise ShapeError(f"softmax requires a nonempty 1-D tensor, got shape {a.shape}")
    shifted = a.data - a.data.max()
    e = np.exp(shifted)
    y = e / e.sum()

    def bwd(g):
        _accumulate(a, y * (g - np.dot(g, y)))

    return Tensor(y, (a,), bwd)


def reduce_sum(a: Tensor) -> Tensor:
    if a.data.size == 0:
        raise ShapeError("sum of an empty tensor")

    def bwd(g):
        _accumulate(a, np.full_like(a.data, float(g)))

    return Tensor(a.data.sum(), (a,), bwd)


def reduce_mean(a: Tensor) -> Tensor:
    if a.data.size == 0:
        raise ShapeError("mean of an empty tensor")
    n = a.data.size

    def bwd(g):
        _accumulate(a, np.full_like(a.data, float(g) / n))

    return Tensor(a.data.mean(), (a,), bwd)


def sq_l2(a: Tensor) -> Tensor:
    """Sum of squared entries."""
    if a.data.size == 0:
        raise ShapeError("sq_l2 of an empty tensor")

    def bwd(g):
        _accumulate(a, 2.0 * float(g) * a.data)

    return Tensor(np.sum(a.data * a.data), (a,), bwd)


def percentile(a: Tensor, q: float) -> Tensor:
    """Linear-interpolation percentile of a 1-D tensor at level q in [0, 1].

    The value interpolates between the two order statistics around rank
    q*(n-1); the gradient scatters the interpolation weights back to the
    positions holding those statistics.
    """
    if a.data.ndim != 1 or a.data.size < 2:
        raise ShapeError(f"percentile requires a 1-D tensor with at least 2 entries, got {a.shape}")
    if not 0.0 <= q <= 1.0:
        raise ShapeError(f"percentile level must be in [0, 1], got {q}")
    order = np.argsort(a.data, kind="stable")
    n = a.data.size
    rank = q * (n - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    frac = rank - lo
    value = (1.0 - frac) * a.data[order[lo]] + frac * a.data[order[hi]]

    def bwd(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[order[lo]] += (1.0 - frac) * float(g)
        if hi != lo:
            a.grad[order[hi]] += frac * float(g)

    return Tensor(value, (a,), bwd)


# -- utilities ----------------------------------------------------------------


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None
