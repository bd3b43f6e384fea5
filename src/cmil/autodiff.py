"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is a dynamic tape: every operation returns its result through
``node``, which records the inputs and one vector-Jacobian product (vjp)
per input, mapping the upstream gradient to that input's gradient. A node
whose inputs are all constant is constant itself and records neither, so
a forward pass over constants builds no tape and its closures pin nothing.
A node holds its output and what its vjps read, so an op whose vjps need
only its output keeps no intermediate: ``affine_relu``, the projector,
builds relu(x @ w + b) in one buffer, and ``matmul_tanh`` and
``matmul_sigmoid``, gated attention's two branches, build tanh(x @ w) and
sigmoid(x @ w); each rebuilds its pre-activation gradient from that output.
Such a node also records that rebuild as its ``pre``, which ``backward``
applies to the node's gradient once, before all of the node's vjps read it.
``backward()`` visits the tape once in reverse topological order and is
the only code that computes gradients: it applies the vjp of every input
that is not constant and skips the rest, and it drops each interior
node's gradient as soon as that node's vjps have run, so only leaves keep
a ``grad``. ``AdamW`` binds each parameter's ``data`` and ``grad`` to
views of its two flat vectors, so ``backward`` accumulates straight into
the optimizer's gradient buffer. Broadcasting is deliberately narrow
(scalar-with-tensor and equal shapes, plus dedicated row helpers), so
shape bugs fail at op construction rather than producing silent garbage.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ShapeError

Array = np.ndarray


class Tensor:
    """Float64 array plus tape bookkeeping.

    Ops never write into their inputs' ``data``, but ``data`` itself is
    mutable: ``AdamW`` rebinds each parameter's ``data`` and ``grad`` to
    views of its flat parameter and gradient vectors, ``step`` updates the
    parameter vector in place, and finite-difference gradient checks nudge
    one coordinate and restore it. Vjps read ``data`` when they run, so a
    graph built before such a write must be rebuilt, not reused. ``grad``
    has the same shape as ``data``; ``backward`` creates it on a tensor whose
    ``grad`` is None and adds into it in place otherwise. A leaf (a tensor
    without parents) keeps its ``grad`` after ``backward``; a node with
    parents holds one only while ``backward`` runs and is left with None,
    so a graph walked twice adds into its leaves once per walk. A leaf
    built with ``constant``, and any node whose inputs are all constant, is
    never differentiated and its ``grad`` stays None.
    """

    __slots__ = ("data", "grad", "_parents", "_vjps", "_pre", "_const")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjps: tuple[Callable[[Array], Array], ...] = ()
        self._pre: Callable[[Array], Array] | None = None
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
        """Accumulate gradients of this scalar into every reachable leaf; nodes keep no grad."""
        if self.data.size != 1:
            raise ShapeError(f"backward requires a scalar output, got shape {self.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            t, expanded = stack.pop()
            if expanded:
                topo.append(t)
                continue
            if id(t) in visited:
                continue
            visited.add(id(t))
            stack.append((t, True))
            for parent in t._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for t in reversed(topo):
            if t.grad is not None and t._parents:
                g = t.grad if t._pre is None else t._pre(t.grad)
                for parent, vjp in zip(t._parents, t._vjps):
                    if not parent._const:
                        _accumulate(parent, vjp(g))
                t.grad = None


def _wrap(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return constant(x)


def constant(data) -> Tensor:
    """A leaf input that no gradient is computed for (its ``grad`` stays None)."""
    t = Tensor(data)
    t._const = True
    return t


def node(value, *inputs: tuple[Tensor, Callable[[Array], Array]],
         pre: Callable[[Array], Array] | None = None) -> Tensor:
    """An op's result: ``inputs`` pairs each input tensor with its vjp, in input order.

    ``pre``, when given, maps the node's gradient to the array every vjp reads,
    so ``backward`` builds that array once per node, not once per vjp. Of
    constant inputs it is a constant leaf that keeps none of these, so all
    can be freed.
    """
    t = Tensor(value)
    if all(parent._const for parent, _ in inputs):
        t._const = True
    else:
        t._parents, t._vjps = zip(*inputs)
        t._pre = pre
    return t


def _accumulate(t: Tensor, g: Array) -> None:
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
    return node(a.data + b.data,
                (a, lambda g: _reduce_to(g, a.shape)),
                (b, lambda g: _reduce_to(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a, b, "sub")
    return node(a.data - b.data,
                (a, lambda g: _reduce_to(g, a.shape)),
                (b, lambda g: _reduce_to(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a, b, "mul")
    return node(a.data * b.data,
                (a, lambda g: _reduce_to(g * b.data, a.shape)),
                (b, lambda g: _reduce_to(g * a.data, b.shape)))


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a, b, "div")
    return node(a.data / b.data,
                (a, lambda g: _reduce_to(g / b.data, a.shape)),
                (b, lambda g: _reduce_to(-g * a.data / (b.data * b.data), b.shape)))


def sigmoid(a: Tensor) -> Tensor:
    y = sigmoid_value(a.data)
    return node(y, (a, lambda g: g * y * (1.0 - y)))


def sigmoid_value(x: Array | float) -> Array:
    """Numerically stable logistic function on plain arrays."""
    x = np.asarray(x, dtype=np.float64)
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, so neither exp overflows;
    # built in place in two buffers, and a 0-d input gives a float64 scalar
    den = np.abs(x, out=np.empty_like(x))
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    num = np.minimum(x, 0.0, out=np.empty_like(x))
    np.exp(num, out=num)
    num /= den
    return num[()]


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^a), built as max(a, 0) + log1p(e^-|a|) so that no exp overflows;
    its gradient is sigmoid(a)."""
    return node(np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data))),
                (a, lambda g: g * sigmoid_value(a.data)))


def sqrt(a: Tensor) -> Tensor:
    y = np.sqrt(a.data)
    return node(y, (a, lambda g: g / (2.0 * y)))


# -- linear algebra -----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    an, bn = a.data.ndim, b.data.ndim
    if an == 0 or bn == 0 or an > 2 or bn > 2:
        raise ShapeError(f"matmul supports 1-D and 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")

    # g is a scalar for a 1-D dot product
    def vjp_a(g):
        if bn == 2:
            return g @ b.data.T if an == 2 else b.data @ g
        return np.outer(g, b.data) if an == 2 else g * b.data

    def vjp_b(g):
        if an == 2:
            return a.data.T @ g
        return np.outer(a.data, g) if bn == 2 else g * a.data

    return node(a.data @ b.data, (a, vjp_a), (b, vjp_b))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose requires a 2-D tensor, got shape {a.shape}")
    return node(a.data.T, (a, lambda g: g.T))


def _check_matmul_2d(x: Tensor, w: Tensor, op: str) -> None:
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"{op}: incompatible shapes {x.shape} @ {w.shape}")


def affine_relu(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """relu(x @ w + b) for an r-by-k x, a k-by-c w and a length-c b.

    Its output, built in one buffer, is the only array it adds to the tape:
    its ``pre`` rebuilds the pre-activation gradient from it.
    """
    if (x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1
            or x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]):
        raise ShapeError(f"affine_relu: incompatible shapes {x.shape} @ {w.shape} + {b.shape}")
    y = x.data @ w.data
    y += b.data[None, :]
    # fmax maps NaN to 0 and may keep -0.0, which `+= 0.0` turns into +0.0
    np.fmax(y, 0.0, out=y)
    y += 0.0
    # the subgradient at 0 is 0; a -0.0 kept from g needs no `+ 0.0` here,
    # since `_accumulate` stores the first gradient a tensor gets as g + 0.0
    return node(y,
                (x, lambda g: g @ w.data.T),
                (w, lambda g: x.data.T @ g),
                (b, lambda g: g.sum(axis=0)),
                pre=lambda g: g * (y > 0.0))


def matmul_tanh(x: Tensor, w: Tensor) -> Tensor:
    """tanh(x @ w) for an r-by-k x and a k-by-c w; like ``affine_relu``, it keeps
    only its output, from which its ``pre`` rebuilds the pre-activation gradient."""
    _check_matmul_2d(x, w, "matmul_tanh")
    y = x.data @ w.data
    np.tanh(y, out=y)
    return _matmul_then(x, w, y, lambda g: g * (1.0 - y * y))


def matmul_sigmoid(x: Tensor, w: Tensor) -> Tensor:
    """sigmoid(x @ w) for an r-by-k x and a k-by-c w, kept as ``matmul_tanh`` keeps tanh."""
    _check_matmul_2d(x, w, "matmul_sigmoid")
    y = sigmoid_value(x.data @ w.data)
    return _matmul_then(x, w, y, lambda g: g * y * (1.0 - y))


def _matmul_then(x: Tensor, w: Tensor, y: Array, pre: Callable[[Array], Array]) -> Tensor:
    """The node of f(x @ w) with output y, whose ``pre`` maps its gradient to x @ w's."""
    return node(y, (x, lambda g: g @ w.data.T), (w, lambda g: x.data.T @ g), pre=pre)


def scale_rows(m: Tensor, v: Tensor) -> Tensor:
    """Scale row r of an r-by-c matrix by v[r]."""
    if m.data.ndim != 2 or v.data.ndim != 1 or m.shape[0] != v.shape[0]:
        raise ShapeError(f"scale_rows: incompatible shapes {m.shape} and {v.shape}")
    return node(m.data * v.data[:, None],
                (m, lambda g: g * v.data[:, None]),
                (v, lambda g: (g * m.data).sum(axis=1)))


def gather(a: Tensor, indices) -> Tensor:
    """Select entries of a 1-D tensor at the given integer indices."""
    if a.data.ndim != 1:
        raise ShapeError(f"gather requires a 1-D tensor, got shape {a.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"gather index out of range for length {a.shape[0]}")

    def vjp(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return full

    return node(a.data[idx], (a, vjp))


# -- softmax and reductions ---------------------------------------------------


def softmax(a: Tensor) -> Tensor:
    if a.data.ndim != 1 or a.data.size == 0:
        raise ShapeError(f"softmax requires a nonempty 1-D tensor, got shape {a.shape}")
    shifted = a.data - a.data.max()
    e = np.exp(shifted)
    y = e / e.sum()
    return node(y, (a, lambda g: y * (g - np.dot(g, y))))


def reduce_sum(a: Tensor) -> Tensor:
    if a.data.size == 0:
        raise ShapeError("sum of an empty tensor")
    return node(a.data.sum(), (a, lambda g: np.full_like(a.data, float(g))))


def reduce_mean(a: Tensor) -> Tensor:
    if a.data.size == 0:
        raise ShapeError("mean of an empty tensor")
    n = a.data.size
    return node(a.data.mean(), (a, lambda g: np.full_like(a.data, float(g) / n)))


def sq_l2(a: Tensor) -> Tensor:
    """Sum of squared entries."""
    if a.data.size == 0:
        raise ShapeError("sq_l2 of an empty tensor")
    return node(np.sum(a.data * a.data), (a, lambda g: 2.0 * float(g) * a.data))


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

    def vjp(g):
        full = np.zeros_like(a.data)
        full[order[lo]] += (1.0 - frac) * float(g)
        if hi != lo:
            full[order[hi]] += frac * float(g)
        return full

    return node(value, (a, vjp))
