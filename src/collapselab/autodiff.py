"""Minimal reverse-mode gradient engine over dense float64 arrays.

The value carrier is a C-contiguous float64 ndarray. Every operation builds a
fresh Node in a define-by-run graph: the graph is rebuilt on each forward pass
and parameters persist as leaf nodes between passes. Arrays held by nodes are
treated as immutable once created; optimizers replace a parameter's array
rather than mutating it in place.

Gradient semantics worth knowing before reading the ops:

* The backward walk stops at every node with ``requires_grad=False``.
  ``stop_gradient`` is an identity in the forward direction whose node has
  ``requires_grad=False``, so ancestors reachable only through it receive a
  bitwise-zero gradient because the traversal never visits them.
* ``relu`` uses the subgradient 0 at exactly 0 (the mask is ``x > 0``).
* ``linear`` and ``softmax_cross_entropy_rows`` are fused ops: each is one
  node that reproduces a chain of simpler ops (transpose, matmul and add;
  log-softmax, dot with a one-hot row and negation) to the last bit, forward
  and backward; ``linear`` documents the batch shapes where BLAS rounds its
  backward differently. The cross-entropy subtracts the row maximum before
  exponentiating, so large logits cannot overflow.
* ``backward`` walks the graph once in reverse topological order and
  accumulates into each node; the schedule is deterministic given the graph.

Broadcasting is deliberately restricted to the one pattern the networks here
need: adding or subtracting a length-d vector row-wise against an (N, d)
matrix. Everything else requires exact shape agreement.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DegenerateInputError, EvaluationError, ShapeError

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
        data:          float64 ndarray holding the forward value.
        parents:       input nodes, in op order.
        grad_fns:      one gradient rule per parent.
        requires_grad: True when some parameter is reachable upstream;
                       backward never descends through a node without it.
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
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Node(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(values) -> Node:
    """A graph leaf that never receives gradient."""
    return Node(values)


def param(values) -> Node:
    """A trainable graph leaf; backward() reports its gradient."""
    return Node(values, requires_grad=True)


def _op(data: Array, parents: Sequence[Node], grad_fns: Sequence[GradFn]) -> Node:
    for p in parents:
        if p.requires_grad:
            return Node(data, parents, grad_fns, requires_grad=True)
    return Node(data, parents, grad_fns)


def stop_gradient(x: Node) -> Node:
    """Identity forward, hard zero backward: the node has requires_grad=False,
    where the backward walk stops.

    The result is constant to the optimizer: every ancestor whose only route
    to the loss runs through this node keeps a gradient of exactly 0.0.
    """
    return Node(x.data, parents=(x,))


# ---------------------------------------------------------------------------
# elementwise and affine ops


def add(a: Node, b: Node) -> Node:
    """a + b for equal shapes, or (N, d) + (d,) broadcast across rows."""
    if a.shape == b.shape:
        return _op(a.data + b.data, (a, b), (lambda g: g, lambda g: g))
    if a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        return _op(a.data + b.data, (a, b), (lambda g: g, lambda g: g.sum(axis=0)))
    raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")


def sub(a: Node, b: Node) -> Node:
    """a - b with the same shape rules as add."""
    return add(a, neg(b))


def neg(x: Node) -> Node:
    return _op(-x.data, (x,), (lambda g: -g,))


def scale(x: Node, s: float) -> Node:
    """Multiply by a python float (a constant, not a node)."""
    s = float(s)
    return _op(x.data * s, (x,), (lambda g: g * s,))


def mul(a: Node, b: Node) -> Node:
    """Elementwise product; shapes must match exactly."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    return _op(a.data * b.data, (a, b), (lambda g: g * b.data, lambda g: g * a.data))


def square(x: Node) -> Node:
    return _op(x.data * x.data, (x,), (lambda g: 2.0 * x.data * g,))


def relu(x: Node) -> Node:
    # Strict inequality: the subgradient at exactly 0 is 0.
    mask = x.data > 0.0
    return _op(np.where(mask, x.data, 0.0), (x,), (lambda g: g * mask,))


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Node, b: Node) -> Node:
    """2-d matrix product (m, k) @ (k, n)."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: need 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} vs {b.shape}")
    return _op(a.data @ b.data, (a, b), (lambda g: g @ b.data.T, lambda g: a.data.T @ g))


def linear(x: Node, w: Node, b: Node) -> Node:
    """Affine map x @ w.T + b of (N, in) rows by an (out, in) weight and an
    (out,) bias, as one node; the fused form of transpose, matmul and add.

    The forward multiplies by a contiguous copy of w.T, as that chain does:
    on the strided view numpy rounds some of the network's shapes
    differently. The backward multiplies g by w and g.T by x directly, in
    place of the chain's g @ (copy of w.T).T, which OpenBLAS multithreads on
    the 128-wide layer and which then stalls for milliseconds whenever
    another process holds a core. On every batch shape the shipped configs
    train, this matches the chain bit for bit; BLAS rounds g @ w differently
    for one-row batches and for batches of a few rows into a 64- or 128-wide
    layer.
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ShapeError(f"linear: need 2-d x and w and 1-d b, got {x.shape}, {w.shape} and {b.shape}")
    if x.shape[1] != w.shape[1] or w.shape[0] != b.shape[0]:
        raise ShapeError(f"linear: incompatible shapes {x.shape}, {w.shape} and {b.shape}")
    return _op(
        x.data @ np.ascontiguousarray(w.data.T) + b.data,
        (x, w, b),
        (lambda g: g @ w.data, lambda g: g.T @ x.data, lambda g: g.sum(axis=0)),
    )


def transpose(x: Node) -> Node:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose: need a 2-d operand, got {x.shape}")
    return _op(np.ascontiguousarray(x.data.T), (x,), (lambda g: np.ascontiguousarray(g.T),))


def dot(a: Node, b: Node) -> Node:
    """Inner product of two 1-d vectors; returns a scalar node."""
    if a.data.ndim != 1 or b.data.ndim != 1 or a.shape != b.shape:
        raise ShapeError(f"dot: need equal-length vectors, got {a.shape} and {b.shape}")
    return _op(
        np.asarray(a.data @ b.data),
        (a, b),
        (lambda g: float(g) * b.data, lambda g: float(g) * a.data),
    )


def rowwise_dot(a: Node, b: Node) -> Node:
    """Per-row inner products of two (N, d) matrices; returns an (N,) node."""
    if a.data.ndim != 2 or a.shape != b.shape:
        raise ShapeError(f"rowwise_dot: need matching 2-d shapes, got {a.shape} and {b.shape}")
    return _op(
        np.einsum("ij,ij->i", a.data, b.data),
        (a, b),
        (lambda g: g[:, None] * b.data, lambda g: g[:, None] * a.data),
    )


# ---------------------------------------------------------------------------
# reductions


def sum_all(x: Node) -> Node:
    return _op(np.asarray(x.data.sum()), (x,), (lambda g: np.full(x.shape, float(g)),))


def mean_all(x: Node) -> Node:
    n = x.data.size
    if n == 0:
        raise ContractError("mean_all: empty operand")
    return _op(np.asarray(x.data.mean()), (x,), (lambda g: np.full(x.shape, float(g) / n),))


def mean_rows(x: Node) -> Node:
    """Column means of an (N, d) matrix; returns a (d,) node."""
    if x.data.ndim != 2 or x.shape[0] == 0:
        raise ShapeError(f"mean_rows: need a non-empty 2-d operand, got {x.shape}")
    n = x.shape[0]
    return _op(
        x.data.mean(axis=0),
        (x,),
        (lambda g: np.broadcast_to(g / n, x.shape).copy(),),
    )


# ---------------------------------------------------------------------------
# norms and normalization


def l2_normalize(v: Node) -> Node:
    """v / ||v|| for a 1-d vector. Gradient projects out the radial part."""
    if v.data.ndim != 1:
        raise ShapeError(f"l2_normalize: need a 1-d operand, got {v.shape}")
    n = float(np.linalg.norm(v.data))
    if n == 0.0:
        raise DegenerateInputError("l2_normalize: zero vector")
    y = v.data / n

    def back(g: Array) -> Array:
        return (g - y * float(y @ g)) / n

    return _op(y, (v,), (back,))


def l2_normalize_rows(x: Node) -> Node:
    """Row-wise unit normalization of an (N, d) matrix."""
    if x.data.ndim != 2:
        raise ShapeError(f"l2_normalize_rows: need a 2-d operand, got {x.shape}")
    norms = np.linalg.norm(x.data, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateInputError(f"l2_normalize_rows: zero vector at row {int(zero[0])}")
    y = x.data / norms[:, None]

    def back(g: Array) -> Array:
        radial = np.einsum("ij,ij->i", y, g)
        return (g - y * radial[:, None]) / norms[:, None]

    return _op(y, (x,), (back,))


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
    if x.data.ndim != 2 or onehot.shape != x.shape:
        raise ShapeError(f"softmax_cross_entropy_rows: need equal (N, C) shapes, got {x.shape}, {onehot.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    soft = np.exp(logp)

    def back(g: Array) -> Array:
        g_logp = (-g)[:, None] * onehot
        return g_logp - soft * g_logp.sum(axis=1, keepdims=True)

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
            # Nodes with requires_grad=False (constants, stop_gradient) end the walk.
            if parent.requires_grad and parent not in discovered:
                stack.append((parent, False))
    return order


def backward(root: Node) -> dict[Node, Array]:
    """Accumulate gradients of a scalar root; return {leaf parameter: grad}.

    Parameters that the loss cannot reach (for example, only through
    stop_gradient) are absent from the returned map; callers treat absence as
    an exact zero.
    """
    if root.data.size != 1:
        raise ContractError(f"backward: root must be scalar, got shape {root.shape}")
    order = _topo_order(root)
    pending: dict[Node, Array] = {root: np.ones_like(root.data)}
    leaves: dict[Node, Array] = {}
    for node in reversed(order):
        g = pending.pop(node, None)
        if g is None:
            continue
        if node.requires_grad and not node.parents:
            leaves[node] = g
        for parent, fn in zip(node.parents, node.grad_fns):
            if not parent.requires_grad:
                continue
            contrib = fn(g)
            held = pending.get(parent)
            pending[parent] = contrib if held is None else held + contrib
    return leaves


# ---------------------------------------------------------------------------
# finite-difference verification


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def grad_check(
    f: Callable[[], Node],
    params: Iterable[Node],
    step: float = 1e-5,
    tol: float | None = None,
) -> float:
    """Compare backward() against central finite differences.

    ``f`` rebuilds the scalar loss from the current parameter arrays, so each
    perturbed evaluation reruns the full forward pass. Each perturbation
    gives the parameter a fresh array, as the optimizer does, and the
    original array is put back afterwards even if ``f`` raises; arrays that
    ``f`` captured from the parameter are never written. Returns the max over
    all coordinates of |analytic - numeric| / max(1, |numeric|); if ``tol``
    is given, exceeding it raises ContractError naming the worst coordinate.
    A non-finite evaluation raises EvaluationError, with numpy's warnings off.
    """
    params = list(params)
    loss = f()
    if loss.data.size != 1:
        raise ContractError(f"grad_check: f() must be scalar, got shape {loss.shape}")
    if not np.isfinite(loss.data):
        raise EvaluationError("grad_check: f() is not finite at the base point")
    grads = backward(loss)

    worst = 0.0
    worst_at = ""
    for k, p in enumerate(params):
        analytic = grads.get(p)
        if analytic is None:
            analytic = np.zeros_like(p.data)
        base = p.data
        for idx in np.ndindex(base.shape):
            try:
                p.data = base.copy()
                p.data[idx] = base[idx] + step
                f_plus = f().item()
                p.data = base.copy()
                p.data[idx] = base[idx] - step
                f_minus = f().item()
            finally:
                p.data = base
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise EvaluationError(f"grad_check: non-finite value near param {k} index {idx}")
            numeric = (f_plus - f_minus) / (2.0 * step)
            err = abs(float(analytic[idx]) - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
                worst_at = f"param {k} index {idx}"
    if tol is not None and worst > tol:
        raise ContractError(f"grad_check: max relative error {worst:.3e} at {worst_at} exceeds {tol:.1e}")
    return worst

