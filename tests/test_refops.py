"""The test-side reference ops against central finite differences."""

import numpy as np
import pytest

import collapselab.autodiff as ad
from collapselab.errors import ContractError
from refops import dot, neg, rowwise_dot


def test_neg_matches_finite_differences(rng):
    x = ad.param(rng.standard_normal((3, 4)))
    assert ad.grad_check(lambda: ad.sum_all(ad.square(neg(x))), [x]) < 1e-6


@pytest.mark.parametrize("shape", [(4, 6), (6,)], ids=["rows", "one_sample"])
def test_rowwise_dot_matches_finite_differences(rng, shape):
    a = ad.param(rng.standard_normal(shape))
    b = ad.param(rng.standard_normal(shape))
    assert ad.grad_check(lambda: ad.sum_all(ad.square(rowwise_dot(a, b))), [a, b]) < 1e-6


def test_dot_matches_finite_differences(rng):
    v = ad.param(rng.standard_normal(5))
    w = ad.param(rng.standard_normal(5))
    assert ad.grad_check(lambda: dot(v, w), [v, w]) < 1e-6
    assert ad.grad_check(lambda: dot(v, v), [v]) < 1e-6
    with pytest.raises(ContractError):
        dot(v, ad.param(np.ones(4)))
