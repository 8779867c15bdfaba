"""Reverse-mode automatic differentiation over float64 numpy arrays.

The engine is deliberately small: a ``Var`` wraps an ndarray and remembers,
per parent, a vector-Jacobian callback.  Every backward rule is itself built
from traced primitives, so calling :func:`grad` on an expression that already
contains gradients (a gradient-matching loss, for example) yields exact
second-order derivatives instead of a dead end.

The reverse pass visits only the nodes that lead to a ``wrt`` node: a
vector-Jacobian product into a constant, a held-fixed parameter or any other
node with no path to ``wrt`` is never built.  The skipped products could not
have reached a requested adjoint, and the rest run in the same order, so
every adjoint is what the full reverse pass would give, bit for bit.

All arithmetic is 64-bit.  Operations never mutate their inputs; a ``Var``
and its payload may be shared freely across threads.

No node references itself, so a graph is freed as soon as its last outside
reference drops.  The VJPs of ``exp`` and ``sqrt`` reuse their own output and
hold it weakly; :func:`grad` keeps every node alive through the reverse pass.
"""

from __future__ import annotations

import weakref
from typing import Callable, Sequence

import numpy as np

from .errors import CapabilityError, DimensionError

Array = np.ndarray
VjpFn = Callable[["Var"], "Var"]

_CONVERSION_MSG = (
    "Var cannot be converted to a plain Python/numpy value inside a traced "
    "objective; compose objectives from hyperfl.autodiff primitives only"
)


class Var:
    """Node in the computation graph: an ndarray plus parent edges."""

    __slots__ = ("data", "parents", "__weakref__")

    def __init__(self, data: Array | float, parents: tuple[tuple["Var", VjpFn], ...] = ()):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.parents = parents

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    # -- escape hatches are capability errors ------------------------------

    def __float__(self):
        raise CapabilityError(_CONVERSION_MSG)

    def __int__(self):
        raise CapabilityError(_CONVERSION_MSG)

    def __bool__(self):
        raise CapabilityError(_CONVERSION_MSG)

    def __array__(self, dtype=None, copy=None):
        raise CapabilityError(_CONVERSION_MSG)

    def __repr__(self):
        return f"Var(shape={self.data.shape})"


def as_var(x) -> Var:
    """Wrap ``x`` as a leaf constant unless it already is a Var."""
    return x if isinstance(x, Var) else Var(x)


def constant(x) -> Var:
    return Var(x)


# -- broadcasting helper ----------------------------------------------------


def _unbroadcast(g: Var, shape: tuple[int, ...]) -> Var:
    """Reduce adjoint ``g`` back to ``shape`` after numpy broadcasting."""
    if g.data.shape == shape:
        return g
    extra = g.data.ndim - len(shape)
    if extra > 0:
        g = sum_(g, axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.data.shape[i] != 1)
    if axes:
        g = sum_(g, axis=axes, keepdims=True)
    if g.data.shape != shape:
        g = reshape(g, shape)
    return g


# -- primitives -------------------------------------------------------------


def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.data + b.data)
    out.parents = (
        (a, lambda g: _unbroadcast(g, a.data.shape)),
        (b, lambda g: _unbroadcast(g, b.data.shape)),
    )
    return out


def sub(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.data - b.data)
    out.parents = (
        (a, lambda g: _unbroadcast(g, a.data.shape)),
        (b, lambda g: _unbroadcast(neg(g), b.data.shape)),
    )
    return out


def neg(a) -> Var:
    a = as_var(a)
    out = Var(-a.data)
    out.parents = ((a, lambda g: neg(g)),)
    return out


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.data * b.data)
    out.parents = (
        (a, lambda g: _unbroadcast(mul(g, b), a.data.shape)),
        (b, lambda g: _unbroadcast(mul(g, a), b.data.shape)),
    )
    return out


def div(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.data / b.data)
    out.parents = (
        (a, lambda g: _unbroadcast(div(g, b), a.data.shape)),
        (b, lambda g: _unbroadcast(neg(div(mul(g, a), mul(b, b))), b.data.shape)),
    )
    return out


def matmul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul expects 2-d operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    out = Var(a.data @ b.data)
    out.parents = (
        (a, lambda g: matmul(g, transpose(b))),
        (b, lambda g: matmul(transpose(a), g)),
    )
    return out


def transpose(a) -> Var:
    a = as_var(a)
    if a.data.ndim != 2:
        raise DimensionError(f"transpose expects a 2-d operand, got shape {a.data.shape}")
    # the transpose of a transpose is its input's own (immutable) payload;
    # BLAS only ever sees C-contiguous buffers, as with the copy
    src = a.parents[0][0].data if a.parents and a.parents[0][1] is transpose else None
    out = Var(src if src is not None and src.flags.c_contiguous else a.data.T.copy())
    out.parents = ((a, transpose),)
    return out


def reshape(a, shape) -> Var:
    a = as_var(a)
    old = a.data.shape
    out = Var(a.data.reshape(shape).copy())
    out.parents = ((a, lambda g: reshape(g, old)),)
    return out


def broadcast_to(a, shape) -> Var:
    a = as_var(a)
    old = a.data.shape
    out = Var(np.broadcast_to(a.data, shape).copy())
    out.parents = ((a, lambda g: _unbroadcast(g, old)),)
    return out


def sum_(a, axis=None, keepdims: bool = False) -> Var:
    a = as_var(a)
    in_shape = a.data.shape
    out = Var(a.data.sum(axis=axis, keepdims=keepdims))

    if axis is None:
        axes = tuple(range(len(in_shape)))
    elif isinstance(axis, int):
        axes = (axis % len(in_shape),)
    else:
        axes = tuple(ax % len(in_shape) for ax in axis)
    kept = tuple(1 if i in axes else d for i, d in enumerate(in_shape))

    def vjp(g: Var) -> Var:
        if not keepdims:
            g = reshape(g, kept)
        return broadcast_to(g, in_shape)

    out.parents = ((a, vjp),)
    return out


def mean_(a, axis=None, keepdims: bool = False) -> Var:
    a = as_var(a)
    total = sum_(a, axis=axis, keepdims=keepdims)
    count = a.data.size // max(total.data.size, 1)
    return mul(total, constant(1.0 / count))


def exp(a) -> Var:
    a = as_var(a)
    out = Var(np.exp(a.data))
    ref = weakref.ref(out)
    out.parents = ((a, lambda g: mul(g, ref())),)
    return out


def log(a) -> Var:
    a = as_var(a)
    out = Var(np.log(a.data))
    out.parents = ((a, lambda g: div(g, a)),)
    return out


def sqrt(a) -> Var:
    a = as_var(a)
    out = Var(np.sqrt(a.data))
    ref = weakref.ref(out)
    out.parents = ((a, lambda g: div(mul(g, constant(0.5)), ref())),)
    return out


def square(a) -> Var:
    a = as_var(a)
    return mul(a, a)


def abs_(a) -> Var:
    a = as_var(a)
    sign = constant(np.sign(a.data))
    out = Var(np.abs(a.data))
    out.parents = ((a, lambda g: mul(g, sign)),)
    return out


def relu(a) -> Var:
    a = as_var(a)
    mask = constant((a.data > 0.0).astype(np.float64))
    return mul(a, mask)


def leaky_relu(a, slope: float = 0.01) -> Var:
    a = as_var(a)
    factor = constant(np.where(a.data > 0.0, 1.0, slope))
    return mul(a, factor)


def _check_basic_index(idx) -> None:
    parts = idx if isinstance(idx, tuple) else (idx,)
    for p in parts:
        if not isinstance(p, (int, np.integer, slice)) and p is not None and p is not Ellipsis:
            raise CapabilityError(
                "slice_ supports basic indexing only (ints, slices, ellipsis); "
                "fancy indexing has no exact scatter adjoint here"
            )


def slice_(a, idx) -> Var:
    """Basic slicing; the adjoint scatters back into a zero array."""
    _check_basic_index(idx)
    a = as_var(a)
    in_shape = a.data.shape
    out = Var(a.data[idx].copy())
    out.parents = ((a, lambda g: scatter(g, idx, in_shape)),)
    return out


def scatter(g, idx, shape) -> Var:
    g = as_var(g)
    buf = np.zeros(shape, dtype=np.float64)
    buf[idx] = g.data
    out = Var(buf)
    out.parents = ((g, lambda gg: slice_(gg, idx)),)
    return out


def logsumexp_rows(z: Var) -> Var:
    """Row-wise log(sum(exp)) for a 2-d array, max-stabilized.

    The shift is detached: the stabilized expression is identically equal to
    the unstabilized one for any fixed shift, so derivatives of every order
    are exact.
    """
    z = as_var(z)
    if z.data.ndim != 2:
        raise DimensionError(f"logsumexp_rows expects 2-d logits, got shape {z.data.shape}")
    m = constant(z.data.max(axis=1, keepdims=True))
    return add(log(sum_(exp(sub(z, m)), axis=1, keepdims=True)), m)


def dot(a, b) -> Var:
    """Inner product of two arrays of identical shape."""
    return sum_(mul(as_var(a), as_var(b)))


# -- reverse pass -------------------------------------------------------------


def _topo_order(root: Var) -> list[Var]:
    order: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def grad(output: Var, wrt: Sequence[Var]) -> list[Var]:
    """Adjoints of a scalar ``output`` with respect to each node in ``wrt``.

    The returned Vars are themselves graph nodes, so they can be fed back
    into further expressions and differentiated again.  Nodes that do not
    influence ``output`` get a zero adjoint of their own shape.

    Only nodes on a path from ``output`` down to a ``wrt`` node are visited:
    a parent that cannot reach ``wrt`` gets no vector-Jacobian product.
    """
    output = as_var(output)
    if output.data.size != 1:
        raise DimensionError(f"grad needs a scalar output, got shape {output.data.shape}")

    order = _topo_order(output)
    live = {id(w) for w in wrt}
    for node in order:  # parents come before their children
        if id(node) not in live:
            for parent, _ in node.parents:
                if id(parent) in live:
                    live.add(id(node))
                    break

    adjoints: dict[int, Var] = {id(output): constant(np.ones_like(output.data))}
    for node in reversed(order):
        g = adjoints.get(id(node))
        if g is None:
            continue
        for parent, vjp in node.parents:
            if id(parent) not in live:
                continue
            contrib = vjp(g)
            prev = adjoints.get(id(parent))
            adjoints[id(parent)] = contrib if prev is None else add(prev, contrib)

    out: list[Var] = []
    for w in wrt:
        a = adjoints.get(id(w))
        out.append(a if a is not None else constant(np.zeros_like(w.data)))
    return out
