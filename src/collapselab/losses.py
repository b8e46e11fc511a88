"""Training losses: cross-entropy, re-weighting, alignment, Gram matching.

Everything differentiable here is built from autodiff ops, so one backward
call through the total suffices. Batch losses are arithmetic means over
samples, which keeps the components comparable when they are added.

The pieces:

* ``mean_cross_entropy`` / ``mean_reweighted_ce``: standard CE and its
  inverse-frequency-weighted variant (weights normalized to mean 1, so
  balanced data reduces it to plain CE). A classification branch takes both
  means from one ``cross_entropy_rows`` node.
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
* ``branch_loss`` / ``total_loss``: the scheduled combination. eta decays
  from 1 to 0 over training, handing each classification branch from plain
  CE to re-weighted CE plus classifier Gram matching.
* ``allnc_loss``: the whole two-view objective of one training step, built
  from the pieces above, with every term a step logs returned by name.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .errors import ContractError, ShapeError
from .etf import rho_matrix
from .model import ForwardOut

# ---------------------------------------------------------------------------
# cross-entropy family


def _onehot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    y = np.asarray(labels)
    if y.ndim != 1:
        raise ShapeError(f"labels must be 1-d, got shape {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= num_classes):
        raise ContractError(f"labels outside [0, {num_classes})")
    hot = np.zeros((y.shape[0], num_classes))
    hot[np.arange(y.shape[0]), y] = 1.0
    return hot


def cross_entropy_rows(logits: Node, labels: np.ndarray) -> Node:
    """Per-sample cross-entropy of an (N, C) logits node; returns (N,)."""
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy_rows: logits must be (N, C), got {logits.shape}")
    hot = _onehot(labels, logits.shape[1])
    if hot.shape[0] != logits.shape[0]:
        raise ShapeError("cross_entropy_rows: labels and logits disagree on N")
    return ad.softmax_cross_entropy_rows(logits, hot)


def mean_cross_entropy(logits: Node, labels: np.ndarray) -> Node:
    """Batch-mean cross-entropy of (N, C) logits."""
    return ad.mean_all(cross_entropy_rows(logits, labels))


def mean_reweighted_ce(logits: Node, labels: np.ndarray, class_weights: np.ndarray) -> Node:
    """Batch mean of class_weights[y_i] * CE_i."""
    return _reweighted_mean(cross_entropy_rows(logits, labels), logits.shape[1], labels, class_weights)


def _reweighted_mean(rows: Node, num_classes: int, labels: np.ndarray, class_weights: np.ndarray) -> Node:
    """Batch mean of class_weights[y_i] * rows_i."""
    w = np.asarray(class_weights, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] != num_classes:
        raise ShapeError(f"mean_reweighted_ce: weights shape {w.shape} vs {num_classes} classes")
    per_sample = ad.constant(w[np.asarray(labels)])
    return ad.scale(ad.dot(rows, per_sample), 1.0 / rows.shape[0])


def inverse_frequency_weights(counts: np.ndarray) -> np.ndarray:
    """Per-class weights proportional to 1/count, normalized to mean 1."""
    n = np.asarray(counts, dtype=np.float64)
    if n.ndim != 1 or n.shape[0] < 1:
        raise ShapeError(f"inverse_frequency_weights: need a 1-d count vector, got {n.shape}")
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


def _class_selectors(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constant matrices for batched class means.

    Returns (present, pool, lookup): pool is (P, N) with row k averaging the
    samples of the k-th present class, and lookup is (N, P) picking each
    sample's own class mean back out.
    """
    y = np.asarray(labels)
    present, inverse, counts = np.unique(y, return_inverse=True, return_counts=True)
    n = y.shape[0]
    p = present.shape[0]
    pool = np.zeros((p, n))
    pool[inverse, np.arange(n)] = 1.0 / counts[inverse]
    lookup = np.zeros((n, p))
    lookup[np.arange(n), inverse] = 1.0
    return present, pool, lookup


def class_mean_matrix(x: Node, labels: np.ndarray) -> tuple[Node, np.ndarray]:
    """Rows of in-batch class means of an (N, d) node, for present classes.

    Returns the (P, d) mean node (gradient spreads 1/n_c to each member) and
    the sorted array of the P class indices present in ``labels``.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"class_mean_matrix: need (N, d) input, got {x.shape}")
    y = np.asarray(labels)
    if y.shape != (x.shape[0],):
        raise ShapeError("class_mean_matrix: labels and rows disagree on N")
    present, pool, _ = _class_selectors(y)
    return ad.matmul(ad.constant(pool), x), present


def hycon_batch(
    h1: Node,
    h2: Node,
    z1: Node,
    z2: Node,
    labels: np.ndarray,
    target_z1: Node | None = None,
    target_z2: Node | None = None,
    selectors: tuple[Node, Node] | None = None,
) -> Node:
    """``hycon`` over (N, p) stacks with u the in-batch class means.

    Class means are computed within the batch from each view's projections
    (the anchor included; a singleton class is its own mean) and they carry
    gradient. Targets default to the projections themselves; ``hycon`` reads
    a target only as a constant of its data, so no gradient reaches it.
    Passing explicit targets pins them, which is how the finite-difference
    checks keep the target still while they perturb z. ``selectors`` may
    pass in the (pool, lookup) constants of ``_class_selectors(labels)``, so
    that a caller who also needs class means builds them once.
    """
    for name, node in (("h1", h1), ("h2", h2), ("z1", z1), ("z2", z2)):
        if node.data.ndim != 2:
            raise ShapeError(f"hycon_batch: {name} must be (N, p), got {node.shape}")
        if node.shape != h1.shape:
            raise ShapeError(f"hycon_batch: {name} shape {node.shape} differs from {h1.shape}")
    y = np.asarray(labels)
    if y.shape != (h1.shape[0],):
        raise ShapeError("hycon_batch: labels and rows disagree on N")

    if selectors is None:
        _, pool, lookup = _class_selectors(y)
        selectors = ad.constant(pool), ad.constant(lookup)
    pool_c, lookup_c = selectors
    u1 = ad.matmul(lookup_c, ad.matmul(pool_c, z1))
    u2 = ad.matmul(lookup_c, ad.matmul(pool_c, z2))
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
        raise ShapeError(f"p2p: need (K, d) input, got {vectors.shape}")
    k = vectors.shape[0]
    c = k if num_classes is None else int(num_classes)
    if c < 2:
        raise ContractError(f"p2p: target needs at least 2 classes, got {c}")
    if k < 2 or k > c:
        raise ContractError(f"p2p: got {k} rows for a {c}-class target")
    v = vectors
    if center_and_normalize:
        if center is None:
            center = ad.mean_rows(v)
        elif center.data.shape != (vectors.shape[1],):
            raise ShapeError(f"p2p: center shape {center.shape} vs row width {vectors.shape[1]}")
        v = ad.l2_normalize_rows(ad.sub(v, center))
    # With k < c the slice keeps ones on the diagonal and -1/(C-1) off it,
    # which is exactly the Gram a subset of the full frame should have.
    return ad.gram_mse(v, rho_matrix(c)[:k, :k])


# ---------------------------------------------------------------------------
# schedule and combination


def eta(t: int, t_max: int, gamma: float) -> float:
    """Curriculum weight 1 - (t/t_max)^gamma: 1 at t=0, 0 at t=t_max."""
    if t_max < 1:
        raise ContractError(f"eta: t_max must be >= 1, got {t_max}")
    if gamma <= 0:
        raise ContractError(f"eta: gamma must be > 0, got {gamma}")
    if not 0 <= t <= t_max:
        raise ContractError(f"eta: t={t} outside [0, {t_max}]")
    return 1.0 - (t / t_max) ** float(gamma)


def _branch(
    logits: Node, labels: np.ndarray, eta_value: float, class_weights: np.ndarray, p2p_w: Node
) -> tuple[Node, Node, Node]:
    """(CE, reweighted CE, eta*CE + (1-eta)*(reweighted CE + p2p_w)).

    Both means read one per-sample cross-entropy node, so the log-softmax is
    computed once and its backward runs once on the summed gradient.
    """
    if not 0.0 <= eta_value <= 1.0:
        raise ContractError(f"branch loss: eta {eta_value} outside [0, 1]")
    rows = cross_entropy_rows(logits, labels)
    ce = ad.mean_all(rows)
    re = _reweighted_mean(rows, logits.shape[1], labels, class_weights)
    return ce, re, ad.add(ad.scale(ce, eta_value), ad.scale(ad.add(re, p2p_w), 1.0 - eta_value))


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
    if alpha < 0:
        raise ContractError(f"total_loss: alpha must be >= 0, got {alpha}")
    return ad.add(ad.add(branch1, branch2), ad.scale(ad.add(hycon_value, p2p_mu), float(alpha)))


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
    two views' in-batch class means, centered by the batch's global feature
    mean: that is the center the diagnostics subtract, and an unweighted
    mean of class means drifts off it in imbalanced batches. The class
    selectors of ``labels`` are built once, for hycon and both views' class
    means. Both views share ``labels``, so with fewer than two present
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
    present, pool, lookup = _class_selectors(labels)
    pool_c = ad.constant(pool)
    hycon_term = zero
    if not disable_hycon:
        hycon_term = hycon_batch(
            view1.h, view2.h, view1.z, view2.z, labels, selectors=(pool_c, ad.constant(lookup))
        )
    p2p_mu = zero
    if not disable_p2p_mu and present.shape[0] >= 2:
        mu1, mu2 = ad.matmul(pool_c, view1.features), ad.matmul(pool_c, view2.features)
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
