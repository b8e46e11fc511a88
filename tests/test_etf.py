"""Simplex frame construction and the deviation/target helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from collapselab.errors import ContractError, DegenerateInputError
from collapselab.etf import etf_deviation, make_etf, rho_matrix


@pytest.mark.parametrize("c", [2, 4, 10, 16])
def test_make_etf_deviation_tiny(c):
    frame = make_etf(2 * c, c, seed=0)
    assert etf_deviation(frame) < 1e-9


def test_vertices_unit_norm_and_centered():
    frame = make_etf(20, 10, seed=3)
    norms = np.linalg.norm(frame, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    np.testing.assert_allclose(frame.sum(axis=0), 0.0, atol=1e-12)


def test_gram_matches_rho_matrix():
    frame = make_etf(12, 6, seed=1)
    np.testing.assert_allclose(frame @ frame.T, rho_matrix(6), atol=1e-12)


@pytest.mark.parametrize("c", [2, 3, 10])
def test_rho_matrix_is_cached_read_only(c):
    target = rho_matrix(c)
    assert not target.flags.writeable
    with pytest.raises(ValueError):
        target[0, 0] = 0.0
    again = rho_matrix(c)
    assert np.array_equal(again, target)
    np.testing.assert_array_equal(np.diag(again), 1.0)
    assert again[0, 1] == -1.0 / (c - 1.0)


def test_rho_matrix_needs_two_classes():
    # the cache keeps results, not exceptions: every call raises
    for _ in range(2):
        with pytest.raises(ContractError):
            rho_matrix(1)


def test_make_etf_needs_room():
    with pytest.raises(ContractError):
        make_etf(3, 4)


def test_minimum_embedding_dimension_works():
    # C-1 dimensions suffice for a C simplex after centering drops one rank
    frame = make_etf(4, 4, seed=0)
    assert etf_deviation(frame) < 1e-9


def test_deviation_of_orthonormal_columns():
    # orthonormal vectors have cosine 0; target off-diagonal is -1/3 for C=4
    v = np.eye(8)[:4]
    assert etf_deviation(v) == pytest.approx(1.0 / 3.0)


def test_deviation_of_identical_columns():
    v = np.tile(np.array([1.0, 2.0, 0.5]), (5, 1))
    # cosine 1 everywhere vs target -1/4: gap is C/(C-1)
    assert etf_deviation(v) == pytest.approx(5.0 / 4.0)


def test_deviation_scale_invariant():
    frame = make_etf(10, 5, seed=2)
    assert etf_deviation(frame * 7.3) < 1e-9


def test_deviation_zero_column_rejected():
    v = np.ones((3, 4))
    v[1] = 0.0
    with pytest.raises(DegenerateInputError):
        etf_deviation(v)


@pytest.mark.parametrize("bad, norm", [(1e200, "inf"), (np.inf, "inf"), (np.nan, "nan")])
def test_deviation_rejects_a_row_whose_norm_is_not_finite(bad, norm):
    v = make_etf(6, 4, seed=0)
    v[2] = bad
    # the squares of 1e200 overflow, which numpy warns about
    with np.errstate(over="ignore"), pytest.raises(DegenerateInputError, match=f"row 2 has norm {norm}"):
        etf_deviation(v)


def test_frame_fields_consistent():
    # one row per class, contiguous, as every vector set of the package
    frame = make_etf(8, 4, seed=5)
    assert isinstance(frame, np.ndarray) and frame.dtype == np.float64
    assert frame.shape == (4, 8)
    assert frame.flags.c_contiguous


def test_seeds_give_different_rotations_same_geometry():
    a = make_etf(10, 5, seed=0)
    b = make_etf(10, 5, seed=1)
    assert not np.allclose(a, b)
    np.testing.assert_allclose(a @ a.T, b @ b.T, atol=1e-10)


@given(st.integers(0, 2**31 - 1), st.integers(2, 8))
def test_deviation_rotation_invariant(seed, c):
    r = np.random.default_rng(seed)
    q, _ = np.linalg.qr(r.standard_normal((2 * c, 2 * c)))
    frame = make_etf(2 * c, c, seed=0)
    assert etf_deviation(frame @ q.T) < 1e-9
