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
centered by the mean classifier row. A batch must hold a sample of every
class, so a report always covers all C classes. ``class_stats`` checks the
samples and ``nc_report`` the classifier's shape, once; the diagnostics trust both.

``nc_report`` gathers all four into an ``NCReport``, whose fields are the
keys of a run's ``report.json``, in file order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .autodiff import affine, unit_rows
from .errors import ContractError, DegenerateInputError


@dataclass
class ClassStats:
    """Per-class first moments of a feature batch.

    mu:     (C, d) class means.
    mu_g:   (d,) global mean over all samples.
    counts: (C,) samples per class, each at least 1.
    """

    mu: np.ndarray
    mu_g: np.ndarray
    counts: np.ndarray


def class_stats(features: np.ndarray, labels: np.ndarray, num_classes: int) -> ClassStats:
    """Class means, global mean, and counts for a labeled feature batch.

    One stable sort by label gathers each class into a contiguous block that
    keeps its rows in their original order, so each block's mean is bit for
    bit the mean of that class's rows picked out by a mask. A class with no
    sample raises.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    c = int(num_classes)
    if x.ndim != 2:
        raise ContractError(f"class_stats: features must be (N, d), got {x.shape}")
    if y.shape != (x.shape[0],):
        raise ContractError(f"class_stats: labels shape {y.shape} does not match {x.shape[0]} samples")
    if x.shape[0] == 0:
        raise ContractError("class_stats: need at least one sample")
    if c < 1:
        raise ContractError(f"class_stats: need at least one class, got {c}")
    if y.min() < 0 or y.max() >= c:
        raise ContractError(f"class_stats: labels outside [0, {c})")
    counts = np.bincount(y, minlength=c).astype(np.int64)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise ContractError(f"class_stats: class {empty[0]} has no sample")
    grouped = x[np.argsort(y, kind="stable")]
    ends = np.cumsum(counts)
    mu = np.stack([grouped[end - n : end].mean(axis=0) for end, n in zip(ends, counts)])
    return ClassStats(mu=mu, mu_g=x.mean(axis=0), counts=counts)


def nc1_within_class(features: np.ndarray, labels: np.ndarray, stats: ClassStats) -> float:
    """Trace of the pooled within-class covariance.

    Equals the mean squared distance of each sample to its class mean;
    invariant under orthogonal transforms of the feature space.
    """
    deviations = features - stats.mu[labels]
    return float(np.mean(np.sum(deviations * deviations, axis=1)))


def centered_pairwise_cosines(vectors: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Cosine matrix of the rows after subtracting ``center`` from each.

    Returns a symmetric (K, K) matrix with unit diagonal. A row that equals
    the center has no direction, and a row whose norm is not finite (it
    overflowed, or holds inf or NaN) has none that can be computed; either
    raises with the offending row index, from ``unit_rows``.
    """
    unit = unit_rows(vectors - center, "centered_pairwise_cosines")[0]
    cos = unit @ unit.T
    np.fill_diagonal(cos, 1.0)
    return cos


def std_of_pairwise_cosines(cos: np.ndarray) -> float:
    """Population standard deviation of the strictly-upper-triangle cosines.

    The collapse signature: 0 when all pairs share one cosine (fewer than two
    pairs count as perfectly equiangular).
    """
    pairs = cos[np.triu_indices(cos.shape[0], k=1)]
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
    proportional. A zero or non-finite norm of either stack raises.
    """
    centered = stats.mu - stats.mu_g
    wn = np.linalg.norm(weights)
    mn = np.linalg.norm(centered)
    for name, norm in (("classifier", wn), ("centered-mean", mn)):
        if norm == 0.0 or not np.isfinite(norm):
            raise DegenerateInputError(f"self_duality_delta: {name} matrix has Frobenius norm {norm}")
    return float(np.linalg.norm(weights / wn - centered / mn))


def ncc_agreement(
    features: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None,
    stats: ClassStats,
) -> float:
    """Fraction of samples where argmax logits == nearest class mean.

    The logits are ``affine``'s (a missing bias adds zeros). Ties on either
    side resolve to the lowest class index, matching argmax and argmin.
    """
    b = np.zeros(weights.shape[0]) if bias is None else bias
    if b.shape != (weights.shape[0],):
        raise ContractError(f"ncc_agreement: bias shape {b.shape} vs {weights.shape[0]} classes")
    classifier_pick = np.argmax(affine(features, weights, b), axis=1)
    # d2 = |x|^2 - 2 x.mu + |mu|^2, in the same order of operations, in place
    d2 = 2.0 * features @ stats.mu.T
    np.subtract(np.sum(features * features, axis=1)[:, None], d2, out=d2)
    d2 += np.sum(stats.mu * stats.mu, axis=1)[None, :]
    center_pick = np.argmin(d2, axis=1)
    return float(np.mean(classifier_pick == center_pick))


@dataclass
class NCReport:
    """One full diagnostic snapshot; its fields are report.json's keys, in order.

    Five scalars, the class count, and the two (C, C) angle matrices, all
    over every class.
    """

    nc1: float
    std_cos_mu: float
    std_cos_w: float
    delta: float
    ncc_agreement: float
    num_classes: int
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
    """Assemble the full diagnostic snapshot for a batch holding every class."""
    stats = class_stats(features, labels, num_classes)
    if weights.shape != stats.mu.shape:
        raise ContractError(f"nc_report: weights {weights.shape} vs class means {stats.mu.shape}")
    cos_w = centered_pairwise_cosines(weights, weights.mean(axis=0))
    cos_mu = centered_pairwise_cosines(stats.mu, stats.mu_g)
    return NCReport(
        nc1=nc1_within_class(features, labels, stats),
        std_cos_mu=std_of_pairwise_cosines(cos_mu),
        std_cos_w=std_of_pairwise_cosines(cos_w),
        delta=self_duality_delta(weights, stats),
        ncc_agreement=ncc_agreement(features, weights, bias, stats),
        num_classes=num_classes,
        icpa_mu=icpa_degrees(cos_mu),
        icpa_w=icpa_degrees(cos_w),
    )
