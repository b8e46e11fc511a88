"""Minimal reverse-mode gradient engine over dense float64 arrays.

The value carrier is a C-contiguous float64 ndarray. Every operation builds a
fresh Node in a define-by-run graph: the graph is rebuilt on each forward pass
and parameters persist as leaf nodes between passes. Arrays held by nodes are
treated as immutable once created; optimizers replace a parameter's array
rather than mutating it in place, and backward closures capture the arrays
of their build, so an older graph keeps its values. Leaves coerce their
values; op outputs are not, as ops compute such arrays from such arrays
(numpy's scalar for a 0-d result only goes through np.asarray). Work only
the gradient needs waits for the backward closure.

Gradient semantics worth knowing before reading the ops:

* The backward walk stops at every node with ``requires_grad=False``, so a
  value that must not be trained enters the graph as a ``constant`` of its
  data: ancestors reachable only through it receive a bitwise-zero gradient
  because the traversal never visits them.
* ``relu`` uses the subgradient 0 at exactly 0 (the mask is ``x > 0``). Its
  forward is ``np.maximum(x, 0)``, so a NaN input stays NaN.
* ``unit_rows`` (every direction: ``l2_normalize_rows``' forward) raises
  DegenerateInputError on a row whose norm is zero or not finite (a NaN or
  infinite entry, or squares that overflow); ``cosine_alignment`` raises
  on a non-finite norm and gives a zero row cosine 0: it divides the row by
  1 in place of its zero norm. A zero operand row gets the gradient
  ``-t / count`` toward its unit target ``t``; a zero target row sends its
  operand none.
* ``linear``, ``softmax_cross_entropy_rows``, ``cosine_alignment``,
  ``gram_mse``, ``weighted_mean`` and ``mix`` (the losses' scalar glue) are
  fused ops: each is one node that reproduces the chain of simpler ops its
  docstring names to the last bit, forward and backward, on the gradient of
  every input that has no other consumer. An input that also feeds other
  nodes receives the same contributions, but ``backward`` may sum them in
  another order than it would for the chain. ``linear`` documents the batch
  shapes where BLAS rounds its backward differently.
* ``sub`` is bit for bit adding the negated operand. ``unit_rows`` computes
  its norms with the arithmetic of ``np.linalg.norm``. ``affine`` (every
  dense layer: ``linear``'s forward) multiplies by a contiguous copy of
  w.T. Sums and maxima call ``np.add.reduce`` and ``np.maximum.reduce``,
  which is ``ndarray.sum`` and ``max`` without their dispatch; a mean is
  such a sum divided by the count.
* ``backward`` walks the graph once in reverse topological order and
  accumulates into each node; the schedule is deterministic given the graph.

Broadcasting is deliberately restricted to the one pattern the networks here
need: adding or subtracting a length-d vector row-wise against an (N, d)
matrix. Everything else requires exact shape agreement; any other operand
shape raises ContractError, which the losses rely on. ``l2_normalize_rows``
and ``cosine_alignment`` work along the last axis, so one op serves a single
(d,) vector and each row of an (N, d) matrix.
"""

from __future__ import annotations

from math import isfinite, isnan
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DegenerateInputError, EvaluationError

Array = np.ndarray

# Gradient rule: maps the upstream gradient (same shape as the node's data)
# to this parent's contribution (same shape as the parent's data).
GradFn = Callable[[Array], Array]


def as_tensor(values) -> Array:
    """Coerce to a C-contiguous float64 array (scalars become 0-d arrays).

    np.ascontiguousarray promotes 0-d input to shape (1,), which would make
    every scalar node 1-d and break float(g) in the reduction backwards, so
    0-d results are returned as numpy builds them.
    """
    arr = np.asarray(values, dtype=np.float64)
    return arr if arr.ndim == 0 else np.ascontiguousarray(arr)


class Node:
    """One vertex of the computation graph.

    Fields:
        data:          C-contiguous float64 ndarray holding the forward value.
        parents:       input nodes, in op order.
        grad_fns:      one gradient rule per parent.
        requires_grad: True when some parameter is reachable upstream;
                       backward never descends through a node without it.

    The constructor, which coerces ``data`` with ``as_tensor``, builds the
    leaves; ops build their outputs with ``_op``, which skips it.
    """

    __slots__ = ("data", "parents", "grad_fns", "requires_grad")

    def __init__(
        self,
        data,
        parents: Sequence["Node"] = (),
        grad_fns: Sequence[GradFn] = (),
        requires_grad: bool = False,
    ):
        self.data = as_tensor(data)
        self.parents = tuple(parents)
        self.grad_fns = tuple(grad_fns)
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element node, got shape {self.shape}")
        return self.data.item()

    def __repr__(self) -> str:
        return f"Node(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(values) -> Node:
    """A graph leaf that never receives gradient."""
    return Node(values)


def param(values) -> Node:
    """A trainable graph leaf; backward() reports its gradient."""
    return Node(values, requires_grad=True)


def _op(data: Array, parents: tuple[Node, ...], grad_fns: tuple[GradFn, ...]) -> Node:
    """An op's output node, built without ``Node.__init__`` from the op's
    array, or from the numpy scalar of its 0-d result (see the module docstring)."""
    node = object.__new__(Node)
    node.data = data if data.__class__ is np.ndarray else np.asarray(data)
    node.parents = parents
    node.grad_fns = grad_fns
    for p in parents:
        if p.requires_grad:
            node.requires_grad = True
            return node
    node.requires_grad = False
    return node


# ---------------------------------------------------------------------------
# elementwise and affine ops


def _row_broadcast(a: Array, b: Array, op: str) -> bool:
    """Whether b broadcasts across a's rows; raises on any other mismatch."""
    if a.shape == b.shape:
        return False
    if a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]:
        return True
    raise ContractError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def add(a: Node, b: Node) -> Node:
    """a + b for equal shapes, or (N, d) + (d,) broadcast across rows."""
    if _row_broadcast(a.data, b.data, "add"):
        return _op(a.data + b.data, (a, b), (lambda g: g, lambda g: np.add.reduce(g, axis=0)))
    return _op(a.data + b.data, (a, b), (lambda g: g, lambda g: g))


def sub(a: Node, b: Node) -> Node:
    """a - b with the same shape rules as add; bit for bit a plus the negated b."""
    if _row_broadcast(a.data, b.data, "sub"):
        return _op(a.data - b.data, (a, b), (lambda g: g, lambda g: -np.add.reduce(g, axis=0)))
    return _op(a.data - b.data, (a, b), (lambda g: g, lambda g: -g))


def scale(x: Node, s: float) -> Node:
    """Multiply by a python float (a constant, not a node)."""
    s = float(s)
    return _op(x.data * s, (x,), (lambda g: g * s,))


def mul(a: Node, b: Node) -> Node:
    """Elementwise product; shapes must match exactly."""
    av, bv = a.data, b.data
    if av.shape != bv.shape:
        raise ContractError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    return _op(av * bv, (a, b), (lambda g: g * bv, lambda g: g * av))


def square(x: Node) -> Node:
    xd = x.data
    return _op(xd * xd, (x,), (lambda g: 2.0 * xd * g,))


def relu(x: Node) -> Node:
    # Strict inequality: the subgradient at exactly 0 is 0.
    xd = x.data
    return _op(np.maximum(xd, 0.0), (x,), (lambda g: g * (xd > 0.0),))


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Node, b: Node) -> Node:
    """2-d matrix product (m, k) @ (k, n)."""
    av, bv = a.data, b.data
    if av.ndim != 2 or bv.ndim != 2:
        raise ContractError(f"matmul: need 2-d operands, got {a.shape} and {b.shape}")
    if av.shape[1] != bv.shape[0]:
        raise ContractError(f"matmul: inner dims differ, {a.shape} vs {b.shape}")
    return _op(av @ bv, (a, b), (lambda g: g @ bv.T, lambda g: av.T @ g))


def affine(x: Array, w: Array, b: Array, out: Array | None = None) -> Array:
    """``linear``'s forward on arrays, which every dense layer computes: x times
    a contiguous copy of w.T, into ``out`` when it is given, then b in place."""
    wt = np.ascontiguousarray(w.T)
    y = x @ wt if out is None else np.matmul(x, wt, out=out)  # @ skips matmul's keyword parsing
    y += b
    return y


def linear(x: Node, w: Node, b: Node) -> Node:
    """Affine map x @ w.T + b of (N, in) rows by an (out, in) weight and an
    (out,) bias, as one node; the fused form of transpose, matmul and add.

    The forward is ``affine``, which multiplies by a contiguous copy of w.T,
    as that chain does: on the strided view numpy rounds some of the
    network's shapes differently. The backward multiplies g by w and g.T by
    x directly, in place of the chain's g @ (copy of w.T).T, which OpenBLAS
    multithreads on the 128-wide layer and which then stalls for
    milliseconds whenever another process holds a core. On every batch shape
    the shipped configs train, this matches the chain bit for bit; BLAS
    rounds g @ w differently for one-row batches and for batches of a few
    rows into a 64- or 128-wide layer.
    """
    xd, wd, bd = x.data, w.data, b.data
    if xd.ndim != 2 or wd.ndim != 2 or bd.ndim != 1:
        raise ContractError(f"linear: need 2-d x and w and 1-d b, got {x.shape}, {w.shape} and {b.shape}")
    if xd.shape[1] != wd.shape[1] or wd.shape[0] != bd.shape[0]:
        raise ContractError(f"linear: incompatible shapes {x.shape}, {w.shape} and {b.shape}")
    return _op(
        affine(xd, wd, bd),
        (x, w, b),
        (lambda g: g @ wd, lambda g: g.T @ xd, lambda g: np.add.reduce(g, axis=0)),
    )


def transpose(x: Node) -> Node:
    if x.data.ndim != 2:
        raise ContractError(f"transpose: need a 2-d operand, got {x.shape}")
    return _op(np.ascontiguousarray(x.data.T), (x,), (lambda g: np.ascontiguousarray(g.T),))


def gram_mse(v: Node, target: Array) -> Node:
    """mean((v @ v.T - target)**2) of a (K, d) node against a constant (K, K)
    array, as one scalar node.

    Bit for bit the chain of transpose, matmul, sub, square and mean_all,
    forward and backward: the Gram multiplies by a contiguous copy of v.T,
    and the backward keeps the chain's operand layout, g @ (copy of v.T).T
    plus the transpose of v.T @ g, in the order backward sums them.
    """
    vd = v.data
    if vd.ndim != 2 or target.shape != (vd.shape[0], vd.shape[0]):
        raise ContractError(f"gram_mse: need (K, d) rows and a (K, K) target, got {v.shape} and {target.shape}")
    vt = np.ascontiguousarray(vd.T)
    diff = vd @ vt - target
    count = diff.size

    def back(g: Array) -> Array:
        g_gram = 2.0 * diff * (float(g) / count)
        return g_gram @ vt.T + np.ascontiguousarray((vd.T @ g_gram).T)

    return _op(np.add.reduce(diff * diff, axis=None) / count, (v,), (back,))


# ---------------------------------------------------------------------------
# reductions


def sum_all(x: Node) -> Node:
    return _op(np.add.reduce(x.data, axis=None), (x,), (lambda g: np.full(x.data.shape, float(g)),))


def mean_all(x: Node) -> Node:
    n = x.data.size
    if n == 0:
        raise ContractError("mean_all: empty operand")
    return _op(np.add.reduce(x.data, axis=None) / n, (x,), (lambda g: np.full(x.data.shape, float(g) / n),))


def mean_rows(x: Node) -> Node:
    """Column means of an (N, d) matrix; returns a (d,) node."""
    if x.data.ndim != 2 or x.data.shape[0] == 0:
        raise ContractError(f"mean_rows: need a non-empty 2-d operand, got {x.shape}")
    n = x.data.shape[0]
    return _op(
        np.add.reduce(x.data, axis=0) / n,
        (x,),
        (lambda g: np.broadcast_to(g / n, x.data.shape).copy(),),
    )


def weighted_mean(x: Node, w: Array) -> Node:
    """sum_i w_i * x_i / N of an (N,) node and a constant (N,) array, as one
    scalar node; bit for bit the dot with a constant of w, scaled by 1/N."""
    if x.data.ndim != 1 or w.shape != x.data.shape or not w.size:
        raise ContractError(f"weighted_mean: need equal non-empty (N,) shapes, got {x.shape} and {w.shape}")
    s = 1.0 / w.shape[0]
    return _op((x.data @ w) * s, (x,), (lambda g: float(g * s) * w,))


def mix(s: float, a: Sequence[Node], t: float, b: Sequence[Node]) -> Node:
    """s * (a[0] + a[1] + ...) + t * (b[0] + ...) of 0-d nodes, a and b non-empty, as
    one node; bit for bit the chain of add and scale (each sum adds left to right,
    and s = 1.0 multiplies exactly): ``add(add(p, q), scale(add(u, v), t))`` is
    ``mix(1.0, (p, q), t, (u, v))``."""
    parents = (*a, *b)
    for n in parents:
        if n.data.ndim:
            raise ContractError(f"mix: need 0-d operands, got {n.shape}")
    sa, sb = a[0].data, b[0].data
    for n in a[1:]:
        sa = sa + n.data
    for n in b[1:]:
        sb = sb + n.data
    s, t = float(s), float(t)
    return _op(sa * s + sb * t, parents, (lambda g: g * s,) * len(a) + (lambda g: g * t,) * len(b))


# ---------------------------------------------------------------------------
# norms and normalization


def _row_norms(x: Array) -> Array:
    """Norms along the last axis, kept as an axis, with np.linalg.norm's own
    arithmetic, without its dispatch. Each row's norm is the same whatever
    the leading axes, so a stack of operands takes one call."""
    return np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))


def _check_rows(x: Array, op: str) -> None:
    if x.ndim not in (1, 2):
        raise ContractError(f"{op}: need a 1-d or 2-d operand, got {x.shape}")


def _unit_rows_back(y: Array, norms: Array, g: Array) -> Array:
    """Gradient of x / |x| given its output y: the radial part projected out."""
    radial = np.einsum("...i,...i->...", y, g)
    return (g - y * radial[..., None]) / norms


def unit_rows(x: Array, what: str) -> tuple[Array, Array]:
    """(x / norms, norms) along the last axis of a (d,) vector or of each row
    of an (N, d) matrix, the norms kept as an axis; a zero or non-finite norm
    raises DegenerateInputError naming ``what``, the row and its norm."""
    norms = _row_norms(x)
    if not (0.0 < norms.min(initial=np.inf) and norms.max(initial=0.0) < np.inf):  # a NaN norm fails both
        bad = int(np.flatnonzero(~((norms > 0.0) & (norms < np.inf)))[0])
        raise DegenerateInputError(f"{what}: row {bad} has norm {norms.flat[bad]}")
    return x / norms, norms


def l2_normalize_rows(x: Node) -> Node:
    """``unit_rows`` as a node; the gradient projects out the radial part."""
    _check_rows(x.data, "l2_normalize_rows")
    y, norms = unit_rows(x.data, "l2_normalize_rows")
    return _op(y, (x,), (lambda g: _unit_rows_back(y, norms, g),))


def cosine_alignment(a1: Node, b1: Node, t1: Array, a2: Node, b2: Node, t2: Array) -> Node:
    """-mean((cos(a1, t1) + cos(b1, t1)) + (cos(a2, t2) + cos(b2, t2))) as one
    node, the cosines taken along the last axis of equal (d,) or (N, d)
    operands; a scalar node.

    t1 and t2 are constant arrays, unit-normalized here in numpy. On inputs
    without a zero row, forward and backward are bit for bit the chain of
    l2_normalize_rows, row dots, add, mean_all and negation; a zero row, which
    the chain rejects, has cosine 0, and a row whose norm is not finite
    raises DegenerateInputError (see the module docstring).
    """
    for operand in (b1.data, a2.data, b2.data, t1, t2):
        if operand.shape != a1.data.shape:
            raise ContractError(f"cosine_alignment: shapes differ, {operand.shape} vs {a1.shape}")
    _check_rows(a1.data, "cosine_alignment")
    count = a1.data.shape[0] if a1.data.ndim == 2 else 1
    if count == 0:
        raise ContractError("cosine_alignment: empty operands")

    # The six operands are normalized as one stack, and the four cosines are
    # one einsum over it: row for row the same arithmetic as one at a time.
    rows = np.array([a1.data, b1.data, a2.data, b2.data, t1, t2])
    norms = _row_norms(rows)
    if not norms.max(initial=0.0) < np.inf:  # an infinite or NaN norm; a zero one is cosine 0
        k, row = divmod(int(np.flatnonzero(~(norms < np.inf))[0]), norms.size // 6)
        name = ("a1", "b1", "a2", "b2", "t1", "t2")[k]
        raise DegenerateInputError(f"cosine_alignment: {name} row {row} has norm {norms[k].flat[row]}")
    norms[norms == 0.0] = 1.0
    units = rows / norms
    cos = np.einsum("...i,...i->...", units[:4], units[[4, 4, 5, 5]])
    total = (cos[0] + cos[1]) + (cos[2] + cos[3])

    def back_fn(k: int) -> GradFn:
        # every cosine's upstream gradient is the constant -g / count
        return lambda g: _unit_rows_back(units[k], norms[k], units[4 + k // 2] * (float(-g) / count))

    return _op(-(np.add.reduce(total, axis=None) / count), (a1, b1, a2, b2), tuple(map(back_fn, range(4))))


# ---------------------------------------------------------------------------
# softmax


def softmax_cross_entropy_rows(x: Node, onehot: Array) -> Node:
    """Per-row cross-entropy -sum_j onehot_ij * log_softmax(x)_ij of (N, C)
    logits against a constant (N, C) one-hot matrix; returns an (N,) node.

    The log-softmax is stabilized by max subtraction. The dot with the
    one-hot rows is a full sum, not a gather, so a non-finite logit anywhere
    in a row makes that row's loss non-finite. The backward is softmax minus
    one-hot, scaled per row, with the rounding of the unfused chain.
    """
    if x.data.ndim != 2 or onehot.shape != x.data.shape:
        raise ContractError(f"softmax_cross_entropy_rows: need equal (N, C) shapes, got {x.shape}, {onehot.shape}")
    shifted = x.data - np.maximum.reduce(x.data, axis=1, keepdims=True)
    logp = shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))

    def back(g: Array) -> Array:
        g_logp = (-g)[:, None] * onehot
        return g_logp - np.exp(logp) * np.add.reduce(g_logp, axis=1, keepdims=True)

    return _op(-np.einsum("ij,ij->i", logp, onehot), (x,), (back,))


# ---------------------------------------------------------------------------
# backward pass


def _topo_order(root: Node) -> list[Node]:
    """Post-order over the requires-grad subgraph (parents before children).

    A node is marked discovered when it is expanded, not when it is first
    pushed. Marking on push appends a node reached along a short path before
    a consumer reached along a longer one (the diamond v -> gram and
    v -> transpose -> gram), and the reversed sweep in backward() would then
    read the node's gradient before that consumer deposits its share.
    """
    order: list[Node] = []
    discovered: set[Node] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in discovered:
            continue
        discovered.add(node)
        stack.append((node, True))
        for parent in node.parents:
            # Nodes with requires_grad=False end the walk.
            if parent.requires_grad and parent not in discovered:
                stack.append((parent, False))
    return order


def backward(root: Node) -> dict[Node, Array]:
    """Accumulate gradients of a scalar root; return {leaf parameter: grad}.

    Parameters that the loss cannot reach (for example, only through a
    constant of their data) are absent from the returned map; callers treat
    absence as an exact zero.
    """
    if root.data.size != 1:
        raise ContractError(f"backward: root must be scalar, got shape {root.shape}")
    order = _topo_order(root)
    pending: dict[Node, Array] = {root: np.ones_like(root.data)}
    leaves: dict[Node, Array] = {}
    for node in reversed(order):
        # every consumer of a node comes before it, so its gradient is complete
        g = pending.pop(node)
        if node.requires_grad and not node.parents:
            leaves[node] = g if g.__class__ is np.ndarray else np.asarray(g)  # a 0-d leaf's may be a scalar
        for parent, fn in zip(node.parents, node.grad_fns):
            if not parent.requires_grad:
                continue
            contrib = fn(g)
            held = pending.get(parent)
            pending[parent] = contrib if held is None else held + contrib
    return leaves


# ---------------------------------------------------------------------------
# finite-difference verification


_FD_STEP = 1e-5  # grad_check's central-difference step


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def grad_check(f: Callable[[], Node], params: Iterable[Node]) -> float:
    """Compare backward() against central finite differences.

    ``f`` rebuilds the scalar loss from the current parameter arrays, so each
    perturbed evaluation reruns the full forward pass. Each perturbation
    gives the parameter a fresh array, as the optimizer does, and the
    original array is put back afterwards even if ``f`` raises; arrays that
    ``f`` captured from the parameter are never written. Returns the max over
    all coordinates of |analytic - numeric| / max(1, |numeric|), for the
    caller to compare with its tolerance; NaN when an analytic gradient is
    NaN, so that no bound passes it. A non-finite evaluation raises
    EvaluationError, with numpy's warnings off.
    """
    params = list(params)
    loss = f()
    if loss.data.size != 1:
        raise ContractError(f"grad_check: f() must be scalar, got shape {loss.shape}")
    if not np.isfinite(loss.data):
        raise EvaluationError("grad_check: f() is not finite at the base point")
    grads = backward(loss)

    worst = 0.0
    for k, p in enumerate(params):
        analytic = grads.get(p)
        if analytic is None:
            analytic = np.zeros_like(p.data)
        base = p.data
        for idx in np.ndindex(base.shape):
            try:
                p.data = base.copy()
                p.data[idx] = base[idx] + _FD_STEP
                f_plus = f().item()
                p.data = base.copy()
                p.data[idx] = base[idx] - _FD_STEP
                f_minus = f().item()
            finally:
                p.data = base
            if not (isfinite(f_plus) and isfinite(f_minus)):
                raise EvaluationError(f"grad_check: non-finite value near param {k} index {idx}")
            numeric = (f_plus - f_minus) / (2.0 * _FD_STEP)
            err = abs(float(analytic[idx]) - numeric) / max(1.0, abs(numeric))
            if err > worst or isnan(err):  # a NaN gradient must not read as a pass
                worst = err
    return worst

