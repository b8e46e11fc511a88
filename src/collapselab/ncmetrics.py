"""Neural-collapse diagnostics over plain float64 arrays.

These functions measure, never differentiate: they take feature matrices and
classifier weights as numpy arrays and report how far training has moved
toward the collapsed geometry. Four families:

* within-class variability: the trace of the pooled within-class covariance,
  which goes to 0 when every sample sits on its class mean;
* equiangularity: pairwise cosines between centered class means (and between
  centered classifier rows), whose spread shrinks to 0 as the directions
  approach a simplex ETF;
* self-duality: the Frobenius distance between the classifier stack and the
  centered-mean stack after each is Frobenius-normalized;
* decision-rule agreement: how often the linear classifier picks the same
  class as the nearest-class-mean rule.

Class means are centered by the global feature mean; classifier rows are
centered by the mean classifier row. Classes missing from the input are
flagged absent and excluded, and the report marks itself incomplete (the
metrics that need every class then hold NaN).

``nc_report`` gathers all four into an ``NCReport``, whose fields are the
keys of a run's ``report.json``, in file order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ContractError, DegenerateInputError, ShapeError


@dataclass
class ClassStats:
    """Per-class first moments of a feature batch.

    mu:     (C, d) class means; rows of absent classes are NaN.
    mu_g:   (d,) global mean over all samples.
    counts: (C,) samples per class.
    """

    mu: np.ndarray
    mu_g: np.ndarray
    counts: np.ndarray

    @property
    def present(self) -> np.ndarray:
        return self.counts > 0

    @property
    def complete(self) -> bool:
        return bool(np.all(self.counts > 0))

    @property
    def num_classes(self) -> int:
        return int(self.counts.shape[0])


def class_stats(features: np.ndarray, labels: np.ndarray, num_classes: int) -> ClassStats:
    """Class means, global mean, and counts for a labeled feature batch."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    c = int(num_classes)
    if x.ndim != 2:
        raise ShapeError(f"class_stats: features must be (N, d), got {x.shape}")
    if y.shape != (x.shape[0],):
        raise ShapeError(f"class_stats: labels shape {y.shape} does not match {x.shape[0]} samples")
    if x.shape[0] == 0:
        raise ContractError("class_stats: need at least one sample")
    if c < 1:
        raise ContractError(f"class_stats: need at least one class, got {c}")
    if y.min() < 0 or y.max() >= c:
        raise ContractError(f"class_stats: labels outside [0, {c})")
    counts = np.bincount(y, minlength=c).astype(np.int64)
    mu = np.full((c, x.shape[1]), np.nan)
    for k in np.flatnonzero(counts):
        mu[k] = x[y == k].mean(axis=0)
    return ClassStats(mu=mu, mu_g=x.mean(axis=0), counts=counts)


def nc1_within_class(features: np.ndarray, labels: np.ndarray, stats: ClassStats) -> float:
    """Trace of the pooled within-class covariance.

    Equals the mean squared distance of each sample to its class mean;
    invariant under orthogonal transforms of the feature space.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if x.shape[0] != y.shape[0]:
        raise ShapeError("nc1_within_class: features and labels disagree on N")
    deviations = x - stats.mu[y]
    return float(np.mean(np.sum(deviations * deviations, axis=1)))


def centered_pairwise_cosines(vectors: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Cosine matrix of the rows after subtracting ``center`` from each.

    Returns a symmetric (K, K) matrix with unit diagonal. A row that equals
    the center has no direction; that raises with the offending row index.
    """
    v = np.asarray(vectors, dtype=np.float64) - np.asarray(center, dtype=np.float64)
    if v.ndim != 2:
        raise ShapeError(f"centered_pairwise_cosines: need (K, d) rows, got {v.shape}")
    norms = np.linalg.norm(v, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateInputError(
            f"centered_pairwise_cosines: centered row {int(zero[0])} is zero"
        )
    unit = v / norms[:, None]
    cos = unit @ unit.T
    np.fill_diagonal(cos, 1.0)
    return cos


def std_of_pairwise_cosines(cos: np.ndarray) -> float:
    """Population standard deviation of the strictly-upper-triangle cosines.

    The collapse signature: 0 when all pairs share one cosine (fewer than two
    pairs count as perfectly equiangular).
    """
    m = np.asarray(cos, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"std_of_pairwise_cosines: need a square matrix, got {m.shape}")
    pairs = m[np.triu_indices(m.shape[0], k=1)]
    if pairs.size == 0:
        return 0.0
    return float(np.std(pairs))


def icpa_degrees(cos: np.ndarray) -> np.ndarray:
    """Angles (degrees) for a cosine matrix; exact zeros on the diagonal."""
    m = np.clip(np.asarray(cos, dtype=np.float64), -1.0, 1.0)
    angles = np.degrees(np.arccos(m))
    np.fill_diagonal(angles, 0.0)
    return angles


def self_duality_delta(weights: np.ndarray, stats: ClassStats) -> float:
    """Frobenius distance between normalized classifier and mean geometries.

    Stacks classifier rows into A and centered class means into B (one class
    per row, same order), then returns ||A/||A||_F - B/||B||_F||_F. Scale
    invariant in both arguments; 0 iff the two stacks are positively
    proportional. Requires every class present.
    """
    w = np.asarray(weights, dtype=np.float64)
    if not stats.complete:
        raise ContractError("self_duality_delta: every class must be present")
    if w.shape != stats.mu.shape:
        raise ShapeError(f"self_duality_delta: weights {w.shape} vs means {stats.mu.shape}")
    centered = stats.mu - stats.mu_g
    wn = np.linalg.norm(w)
    mn = np.linalg.norm(centered)
    if wn == 0.0:
        raise DegenerateInputError("self_duality_delta: zero classifier matrix")
    if mn == 0.0:
        raise DegenerateInputError("self_duality_delta: zero centered-mean matrix")
    return float(np.linalg.norm(w / wn - centered / mn))


def ncc_agreement(
    features: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None,
    stats: ClassStats,
) -> float:
    """Fraction of samples where argmax logits == nearest class mean.

    Ties on either side resolve to the lowest class index, matching argmax
    and argmin. Requires every class present in the stats.
    """
    x = np.asarray(features, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if not stats.complete:
        raise ContractError("ncc_agreement: every class must be present")
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"ncc_agreement: features {x.shape} vs weights {w.shape}")
    logits = x @ w.T
    if bias is not None:
        b = np.asarray(bias, dtype=np.float64)
        if b.shape != (w.shape[0],):
            raise ShapeError(f"ncc_agreement: bias shape {b.shape} vs {w.shape[0]} classes")
        logits = logits + b
    classifier_pick = np.argmax(logits, axis=1)
    d2 = (
        np.sum(x * x, axis=1)[:, None]
        - 2.0 * x @ stats.mu.T
        + np.sum(stats.mu * stats.mu, axis=1)[None, :]
    )
    center_pick = np.argmin(d2, axis=1)
    return float(np.mean(classifier_pick == center_pick))


@dataclass
class NCReport:
    """One full diagnostic snapshot; its fields are report.json's keys, in order.

    Scalars plus the two (C, C) angle matrices. When some class is absent the
    report is incomplete: angle rows/cols of absent classes are NaN, and the
    metrics needing every class (delta, ncc_agreement) are NaN.
    """

    nc1: float
    std_cos_mu: float
    std_cos_w: float
    delta: float
    ncc_agreement: float
    num_classes: int
    present: list[int]
    complete: bool
    icpa_mu: np.ndarray
    icpa_w: np.ndarray

    def to_dict(self) -> dict:
        """Every field by name, in declaration order, arrays as nested lists."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values}


def nc_report(
    features: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None,
    num_classes: int,
) -> NCReport:
    """Assemble the full diagnostic snapshot for one feature batch."""
    c = int(num_classes)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape[0] != c:
        raise ShapeError(f"nc_report: weights have {w.shape[0]} rows for {c} classes")
    stats = class_stats(features, labels, c)
    present = [int(k) for k in np.flatnonzero(stats.present)]

    cos_w = centered_pairwise_cosines(w, w.mean(axis=0))
    icpa_w = icpa_degrees(cos_w)
    std_w = std_of_pairwise_cosines(cos_w)

    cos_mu_present = centered_pairwise_cosines(stats.mu[stats.present], stats.mu_g)
    std_mu = std_of_pairwise_cosines(cos_mu_present)
    icpa_mu = np.full((c, c), np.nan)
    ix = np.ix_(present, present)
    icpa_mu[ix] = icpa_degrees(cos_mu_present)

    if stats.complete:
        delta = self_duality_delta(w, stats)
        agreement = ncc_agreement(features, w, bias, stats)
    else:
        delta = float("nan")
        agreement = float("nan")

    return NCReport(
        nc1=nc1_within_class(features, labels, stats),
        std_cos_mu=std_mu,
        std_cos_w=std_w,
        delta=delta,
        ncc_agreement=agreement,
        num_classes=c,
        present=present,
        complete=stats.complete,
        icpa_mu=icpa_mu,
        icpa_w=icpa_w,
    )
