"""Training losses: cross-entropy, re-weighting, alignment, Gram matching.

Everything differentiable here is built from autodiff ops, so one backward
call through the total suffices. Batch losses are arithmetic means over
samples, which keeps the components comparable when they are added.

The pieces:

* ``mean_cross_entropy`` / ``mean_reweighted_ce``: standard CE and its
  inverse-frequency-weighted variant (weights normalized to mean 1, so
  balanced data reduces it to plain CE). A classification branch takes both
  means from one ``cross_entropy_rows`` node.
* ``_memo`` builds the label constants (one-hot rows, class selectors) once
  per label array, read-only, keyed by the labels' dtype, shape and bytes:
  both branches of a step and every evaluation of a gradient check share them.
  It owns the label contract, 1-d non-negative integers; a label count or
  operand shape that does not fit is rejected by the autodiff op that meets it.
* ``hycon``: the two-view alignment loss, defined once for one sample of
  (p,) vectors or the batch mean over (N, p) stacks. For each sample, the
  predictor output of one view and the in-batch class mean of the other
  view are both pulled toward that other view's projection; the projection
  enters only as a constant of its data, so it is a target, not a trainee.
  Each term is a negative cosine, giving the range [-4, 4] with -4 at
  perfect alignment. After the class means the loss is one
  ``autodiff.cosine_alignment`` node, bit for bit the unfused chain of
  normalizations, row dots, sum, mean and negation.
  ``hycon_batch`` builds the class means from the labels and calls it.
* ``p2p``: drives the Gram matrix of a vector set toward the simplex-ETF
  target. For class means the rows are first centered by their mean and
  unit-normalized; classifier rows enter raw, so the loss also pushes them
  to unit norm. Gram, target subtraction, square and mean are one
  ``autodiff.gram_mse`` node, bit for bit the unfused chain, against the
  cached read-only ``etf.rho_matrix``.
* ``branch_loss`` / ``total_loss``: the scheduled combination, one
  ``autodiff.mix`` node each. eta decays from 1 to 0 over training, handing
  each classification branch from plain CE to re-weighted CE plus Gram matching.
* ``allnc_loss``: the whole two-view objective of one training step, built
  from the pieces above, with every term a step logs returned by name.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .errors import ContractError
from .etf import rho_matrix
from .model import ForwardOut

# ---------------------------------------------------------------------------
# label constants

_MEMO: dict = {}
_MEMO_SIZE = 16  # an allnc step stores two entries, one-hot rows and selectors


def _memo(build, labels: np.ndarray, *extra):
    """``build(labels, *extra)`` of checked labels, kept until ``_MEMO_SIZE`` newer entries push it out."""
    y = np.asarray(labels)
    key = (build, extra, y.dtype.str, y.shape, y.tobytes())
    if key not in _MEMO:
        if y.ndim != 1 or y.dtype.kind not in "iu" or (y.size and np.minimum.reduce(y) < 0):
            raise ContractError(f"labels must be 1-d non-negative integers, got {y.dtype} of shape {y.shape}")
        if len(_MEMO) >= _MEMO_SIZE:
            del _MEMO[next(iter(_MEMO))]
        _MEMO[key] = build(y, *extra)
    return _MEMO[key]


def _onehot(y: np.ndarray, num_classes: int) -> np.ndarray:
    if y.size and np.maximum.reduce(y) >= num_classes:
        raise ContractError(f"labels outside [0, {num_classes})")
    hot = np.eye(num_classes)[y]
    hot.flags.writeable = False
    return hot


def _selectors(y: np.ndarray) -> tuple[np.ndarray, Node, Node]:
    """(present, pool, lookup) for batched class means: lookup is an (N, P)
    constant, each sample's row of the identity, picking its own class mean
    back out; pool is its transpose with row k divided by the k-th present
    class's count. One bincount gives what np.unique would, without its sort."""
    counts = np.bincount(y)
    present = counts.nonzero()[0]
    lookup = np.eye(present.shape[0])[present.searchsorted(y)]
    pool = np.ascontiguousarray(lookup.T) / counts[present][:, None]
    for arr in (present, pool, lookup):
        arr.flags.writeable = False
    return present, ad.constant(pool), ad.constant(lookup)


# ---------------------------------------------------------------------------
# cross-entropy family


def cross_entropy_rows(logits: Node, labels: np.ndarray) -> Node:
    """Per-sample cross-entropy of an (N, C) logits node; returns (N,)."""
    if logits.data.ndim != 2:
        raise ContractError(f"cross_entropy_rows: logits must be (N, C), got {logits.shape}")
    return ad.softmax_cross_entropy_rows(logits, _memo(_onehot, labels, logits.data.shape[1]))


def mean_cross_entropy(logits: Node, labels: np.ndarray) -> Node:
    """Batch-mean cross-entropy of (N, C) logits."""
    return ad.mean_all(cross_entropy_rows(logits, labels))


def mean_reweighted_ce(logits: Node, labels: np.ndarray, class_weights: np.ndarray) -> Node:
    """Batch mean of class_weights[y_i] * CE_i."""
    return _reweighted_mean(cross_entropy_rows(logits, labels), logits.data.shape[1], labels, class_weights)


def _reweighted_mean(rows: Node, num_classes: int, labels: np.ndarray, class_weights: np.ndarray) -> Node:
    """Batch mean of class_weights[y_i] * rows_i."""
    w = np.asarray(class_weights, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] != num_classes:
        raise ContractError(f"mean_reweighted_ce: weights shape {w.shape} vs {num_classes} classes")
    return ad.weighted_mean(rows, w[np.asarray(labels)])


def inverse_frequency_weights(counts: np.ndarray) -> np.ndarray:
    """Per-class weights proportional to 1/count, normalized to mean 1."""
    n = np.asarray(counts, dtype=np.float64)
    if n.ndim != 1 or n.shape[0] < 1:
        raise ContractError(f"inverse_frequency_weights: need a 1-d count vector, got {n.shape}")
    if np.any(n < 1):
        raise ContractError("inverse_frequency_weights: every class needs at least one sample")
    raw = 1.0 / n
    return raw / raw.mean()


# ---------------------------------------------------------------------------
# two-view alignment


def hycon(h1: Node, h2: Node, z1: Node, z2: Node, u1: Node, u2: Node) -> Node:
    """Two-view alignment loss of one sample of (p,) vectors, or the batch
    mean over N samples of (N, p) stacks.

    sim(h, u, sg(z)) = -cos(h, z) - cos(u, z) with z gradient-stopped; the
    loss is sim(h1, u2, sg(z2)) + sim(h2, u1, sg(z1)). h is the predictor
    output, u the in-batch class mean of the projections, z the projection
    serving as the frozen target. Range [-4, 4].
    """
    return ad.cosine_alignment(h1, u2, z2.data, h2, u1, z1.data)


def class_mean_matrix(x: Node, labels: np.ndarray) -> tuple[Node, np.ndarray]:
    """Rows of in-batch class means of an (N, d) node, for present classes.

    Returns the (P, d) mean node (gradient spreads 1/n_c to each member) and
    the sorted array of the P class indices present in ``labels``.
    """
    present, pool, _ = _memo(_selectors, labels)
    return ad.matmul(pool, x), present


def hycon_batch(
    h1: Node,
    h2: Node,
    z1: Node,
    z2: Node,
    labels: np.ndarray,
    target_z1: Node | None = None,
    target_z2: Node | None = None,
) -> Node:
    """``hycon`` over (N, p) stacks with u the in-batch class means.

    Class means are computed within the batch from each view's projections
    (the anchor included; a singleton class is its own mean) and they carry
    gradient. Targets default to the projections themselves; ``hycon`` reads
    a target only as a constant of its data, so no gradient reaches it.
    Passing explicit targets pins them, which is how the finite-difference
    checks keep the target still while they perturb z.
    """
    _, pool, lookup = _memo(_selectors, labels)
    u1 = ad.matmul(lookup, ad.matmul(pool, z1))
    u2 = ad.matmul(lookup, ad.matmul(pool, z2))
    if target_z1 is None:
        target_z1 = z1
    if target_z2 is None:
        target_z2 = z2
    return hycon(h1, h2, target_z1, target_z2, u1, u2)


# ---------------------------------------------------------------------------
# Gram matching


def p2p(
    vectors: Node,
    center_and_normalize: bool,
    num_classes: int | None = None,
    center: Node | None = None,
) -> Node:
    """Mean squared gap between a vector set's Gram matrix and the ETF target.

    ``vectors`` is (K, d), one vector per row. With ``center_and_normalize``
    the rows are first centered and unit-normalized (the tilde convention for
    class means); without it the raw rows are compared, which additionally
    pushes row norms to 1 (the convention for classifier rows). The center
    defaults to the mean of the rows; under imbalance the training loop
    passes the batch's global feature mean instead, because that is the
    center the collapse diagnostics subtract and an unweighted row mean
    drifts away from it when class sizes differ.

    ``num_classes`` sets the target off-diagonal -1/(C-1); it defaults to K
    and must be passed when the rows are a subset of the classes, so partial
    batches still aim at the full-frame geometry. The normalizer is 1/K^2
    over the present rows.
    """
    if vectors.data.ndim != 2:
        raise ContractError(f"p2p: need (K, d) input, got {vectors.shape}")
    k, d = vectors.data.shape
    c = k if num_classes is None else int(num_classes)
    if k < 2 or k > c:
        raise ContractError(f"p2p: got {k} rows for a {c}-class target")
    v = vectors
    if center_and_normalize:
        if center is None:
            center = ad.mean_rows(v)
        elif center.data.shape != (d,):
            raise ContractError(f"p2p: center shape {center.shape} vs row width {d}")
        v = ad.l2_normalize_rows(ad.sub(v, center))
    # With k < c the slice keeps ones on the diagonal and -1/(C-1) off it,
    # which is exactly the Gram a subset of the full frame should have.
    return ad.gram_mse(v, rho_matrix(c)[:k, :k])


# ---------------------------------------------------------------------------
# schedule and combination


def eta(t: int, t_max: int, gamma: float) -> float:
    """Curriculum weight 1 - (t/t_max)^gamma: 1 at t=0, 0 at t=t_max."""
    return 1.0 - (t / t_max) ** float(gamma)


def _branch(
    logits: Node, labels: np.ndarray, eta_value: float, class_weights: np.ndarray, p2p_w: Node
) -> tuple[Node, Node, Node]:
    """(CE, reweighted CE, eta*CE + (1-eta)*(reweighted CE + p2p_w)).

    Both means read one per-sample cross-entropy node, so the log-softmax is
    computed once and its backward runs once on the summed gradient.
    """
    rows = cross_entropy_rows(logits, labels)
    ce = ad.mean_all(rows)
    re = _reweighted_mean(rows, logits.data.shape[1], labels, class_weights)
    return ce, re, ad.mix(eta_value, (ce,), 1.0 - eta_value, (re, p2p_w))


def branch_loss(
    logits: Node,
    labels: np.ndarray,
    eta_value: float,
    class_weights: np.ndarray,
    classifier: Node,
    p2p_w: Node | None = None,
) -> Node:
    """One classification branch: eta*CE + (1-eta)*(reweighted CE + p2p(W)).

    All three parts are batch means. ``p2p_w`` may be passed in precomputed
    so two branches can share one node; by default it is built here from the
    raw classifier rows.
    """
    if p2p_w is None:
        p2p_w = p2p(classifier, center_and_normalize=False)
    return _branch(logits, labels, eta_value, class_weights, p2p_w)[2]


def total_loss(branch1: Node, branch2: Node, hycon_value: Node, p2p_mu: Node, alpha: float) -> Node:
    """branch1 + branch2 + alpha * (hycon + p2p over class means)."""
    return ad.mix(1.0, (branch1, branch2), alpha, (hycon_value, p2p_mu))


def allnc_loss(
    view1: ForwardOut,
    view2: ForwardOut,
    labels: np.ndarray,
    eta_value: float,
    class_weights: np.ndarray,
    classifier: Node,
    num_classes: int,
    alpha: float,
    disable_hycon: bool = False,
    disable_p2p_mu: bool = False,
    disable_p2p_w: bool = False,
) -> dict[str, Node]:
    """The two-view objective branch1 + branch2 + alpha * (hycon + p2p_mu).

    Each branch is ``branch_loss`` on its view's logits, and one p2p_w node
    over the raw classifier rows feeds both (gradient accumulation doubles
    it, matching two independent copies). p2p_mu averages ``p2p`` over the
    two views' ``class_mean_matrix``, centered by the batch's global feature
    mean: that is the center the diagnostics subtract, and an unweighted
    mean of class means drifts off it in imbalanced batches. hycon and both
    views' class means read the one memoized set of class selectors of
    ``labels``. Both views share ``labels``, so with fewer than two present
    classes neither has a Gram target and p2p_mu is zero. A disabled term is
    the constant zero.

    Returns the nodes of the terms a training step logs: ce and re, each the
    mean of the two views' batch means, then p2p_w, branch1, branch2, hycon,
    p2p_mu and total.
    """
    zero = ad.constant(0.0)
    p2p_w = zero if disable_p2p_w else p2p(classifier, center_and_normalize=False)
    ce1, re1, branch1 = _branch(view1.logits, labels, eta_value, class_weights, p2p_w)
    ce2, re2, branch2 = _branch(view2.logits, labels, eta_value, class_weights, p2p_w)
    hycon_term = zero if disable_hycon else hycon_batch(view1.h, view2.h, view1.z, view2.z, labels)
    p2p_mu = zero
    if not disable_p2p_mu:
        (mu1, present), (mu2, _) = (class_mean_matrix(v.features, labels) for v in (view1, view2))
        if present.shape[0] >= 2:
            p2p1 = p2p(mu1, True, num_classes=num_classes, center=ad.mean_rows(view1.features))
            p2p2 = p2p(mu2, True, num_classes=num_classes, center=ad.mean_rows(view2.features))
            p2p_mu = ad.scale(ad.add(p2p1, p2p2), 0.5)
    return {
        "ce": ad.scale(ad.add(ce1, ce2), 0.5),
        "re": ad.scale(ad.add(re1, re2), 0.5),
        "p2p_w": p2p_w,
        "branch1": branch1,
        "branch2": branch2,
        "hycon": hycon_term,
        "p2p_mu": p2p_mu,
        "total": total_loss(branch1, branch2, hycon_term, p2p_mu, alpha),
    }
