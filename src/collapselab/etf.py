"""Simplex equiangular tight frames: targets, construction, verification.

A simplex ETF on C classes is a set of C unit vectors whose pairwise inner
products all equal -1/(C-1), the most mutually repelled arrangement C unit
vectors can reach. Collapsed classifiers and collapsed class means both
organize into this shape, so the frame doubles as the optimization target
for the Gram-matching losses and as the ground truth for the geometry
diagnostics. A frame is a (C, d) array with one vector per row, the layout
of every vector set in the package (class means, classifier rows).
"""

from __future__ import annotations

import functools

import numpy as np

from .autodiff import unit_rows
from .errors import ContractError


@functools.cache
def rho_matrix(num_classes: int) -> np.ndarray:
    """The full C x C target Gram matrix (ones diagonal, -1/(C-1) off).

    Built once per class count and shared, so the array is read-only.
    """
    c = int(num_classes)
    if c < 2:
        raise ContractError(f"rho_matrix: need at least 2 classes, got {c}")
    off = -1.0 / (c - 1.0)
    target = np.full((c, c), off)
    np.fill_diagonal(target, 1.0)
    target.flags.writeable = False
    return target


def make_etf(dim: int, num_classes: int, seed: int = 0) -> np.ndarray:
    """A simplex ETF of ``num_classes`` unit vectors in R^dim, as a
    C-contiguous (num_classes, dim) array with one frame vector per row.

    A seeded Gaussian (dim, C) matrix is orthonormalized by QR (signs fixed
    so the result is unique), then the centering projector I - (1/C) 11^T
    and the scale sqrt(C/(C-1)) turn the orthonormal columns into the
    simplex frame, which is transposed into rows. Its Gram matrix is
    ``F @ F.T``. Deterministic: the same seed yields bit-identical vectors;
    a negative seed is rejected.
    """
    q, c = int(dim), int(num_classes)
    if seed < 0:
        raise ContractError(f"make_etf: seed must be >= 0, got {seed}")
    if c < 2:
        raise ContractError(f"make_etf: need at least 2 classes, got {c}")
    if q < c:
        raise ContractError(f"make_etf: ambient dim {q} cannot hold {c} orthonormal columns")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    gauss = rng.standard_normal((q, c))
    basis, r = np.linalg.qr(gauss)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    basis = basis * signs
    projector = np.eye(c) - np.full((c, c), 1.0 / c)
    vectors = np.sqrt(c / (c - 1.0)) * basis @ projector
    return np.ascontiguousarray(vectors.T)


def etf_deviation(vectors: np.ndarray) -> float:
    """Max |Gram - target| after unit-normalizing the rows.

    Takes a (C, dim) matrix with one vector per row; 0 exactly on a perfect
    frame. A row whose norm is zero or not finite raises DegenerateInputError
    (see ``autodiff.unit_rows``).
    """
    v = np.asarray(vectors, dtype=np.float64)
    if v.ndim != 2:
        raise ContractError(f"etf_deviation: need a 2-d matrix, got shape {v.shape}")
    unit = unit_rows(v, "etf_deviation")[0]
    return float(np.max(np.abs(unit @ unit.T - rho_matrix(v.shape[0]))))
