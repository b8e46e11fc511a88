"""Engine-level checks: every backward rule against central differences,
stop-gradient semantics, and graph bookkeeping corner cases."""

import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import collapselab.autodiff as ad
from collapselab.errors import ContractError, EvaluationError, ShapeError

# one label per row of the (4, 6) operands below
ONEHOT_4x6 = np.eye(6)[[0, 3, 5, 3]]


def test_constant_has_no_grad_path(rng):
    c = ad.constant(rng.standard_normal(4))
    assert not c.requires_grad
    p = ad.param(rng.standard_normal(4))
    loss = ad.sum_all(ad.add(p, c))
    grads = ad.backward(loss)
    assert c not in grads
    np.testing.assert_array_equal(grads[p], np.ones(4))


def test_param_data_is_float64_contiguous():
    p = ad.param([[1, 2], [3, 4]])
    assert p.data.dtype == np.float64
    assert p.data.flags["C_CONTIGUOUS"]


def test_quadratic_exact_gradient(rng):
    x = ad.param(rng.standard_normal(7))
    loss = ad.sum_all(ad.square(x))
    g = ad.backward(loss)[x]
    np.testing.assert_allclose(g, 2.0 * x.data, rtol=0, atol=1e-14)


def test_backward_rejects_vector_root(rng):
    x = ad.param(rng.standard_normal(3))
    with pytest.raises(ContractError):
        ad.backward(ad.square(x))


@pytest.mark.parametrize(
    "build",
    [
        lambda x: ad.sum_all(ad.relu(x)),
        lambda x: ad.mean_all(ad.square(x)),
        lambda x: ad.sum_all(ad.l2_normalize_rows(x)),
        lambda x: ad.sum_all(ad.square(ad.mean_rows(x))),
        lambda x: ad.sum_all(ad.square(ad.softmax_cross_entropy_rows(x, ONEHOT_4x6))),
        lambda x: ad.sum_all(ad.matmul(x, ad.transpose(x))),
        lambda x: ad.sum_all(ad.square(ad.matmul(x, ad.transpose(x)))),
    ],
    ids=["relu", "mean_sq", "l2rows", "meanrows", "softmax_xent", "gram", "gram_sq"],
)
def test_matrix_ops_match_finite_differences(build, rng):
    # offset away from relu kinks; the other ops are smooth everywhere
    x = ad.param(rng.standard_normal((4, 6)) + 0.3)
    assert ad.grad_check(lambda: build(x), [x]) < 1e-6


def test_two_arg_ops_match_finite_differences(rng):
    a = ad.param(rng.standard_normal((3, 5)))
    b = ad.param(rng.standard_normal((5, 4)))
    v = ad.param(rng.standard_normal(5))
    w = ad.param(rng.standard_normal(5))
    assert ad.grad_check(lambda: ad.sum_all(ad.matmul(a, b)), [a, b]) < 1e-6
    assert ad.grad_check(lambda: ad.dot(v, w), [v, w]) < 1e-6
    assert ad.grad_check(lambda: ad.sum_all(ad.mul(v, w)), [v, w]) < 1e-6


def test_shared_node_through_two_paths(rng):
    """A node feeding one op both directly and through an intermediate
    must collect both contributions (the gram diamond)."""
    v = ad.param(rng.standard_normal((3, 4)))
    loss = ad.sum_all(ad.matmul(v, ad.transpose(v)))
    g = ad.backward(loss)[v]
    ones = np.ones((3, 3))
    np.testing.assert_allclose(g, 2.0 * ones @ v.data, rtol=1e-12)


def test_same_node_twice_in_one_op(rng):
    x = ad.param(rng.standard_normal(5))
    g = ad.backward(ad.sum_all(ad.mul(x, x)))[x]
    np.testing.assert_allclose(g, 2.0 * x.data, rtol=1e-12)


def test_broadcast_row_bias(rng):
    m = ad.param(rng.standard_normal((4, 3)))
    b = ad.param(rng.standard_normal(3))
    assert ad.grad_check(lambda: ad.sum_all(ad.square(ad.add(m, b))), [m, b]) < 1e-6


def test_relu_subgradient_zero_at_kink():
    x = ad.param(np.array([0.0, -1.0, 2.0]))
    g = ad.backward(ad.sum_all(ad.relu(x)))[x]
    np.testing.assert_array_equal(g, [0.0, 0.0, 1.0])


def test_stop_gradient_prunes_leaf(rng):
    x = ad.param(rng.standard_normal(4))
    loss = ad.sum_all(ad.stop_gradient(x))
    assert x not in ad.backward(loss)


def test_stop_gradient_identity_forward(rng):
    x = ad.param(rng.standard_normal(4))
    s = ad.stop_gradient(x)
    assert np.array_equal(s.data, x.data)
    assert not s.requires_grad


def test_x_times_sg_x_gradient_is_x_bitwise():
    x = ad.param(np.array([1.7, -2.3, 0.4]))
    g = ad.backward(ad.sum_all(ad.mul(x, ad.stop_gradient(x))))[x]
    assert np.array_equal(g, x.data)


def test_softmax_cross_entropy_rows_values(rng):
    raw = rng.standard_normal((3, 5))
    y = np.array([4, 0, 2])
    hot = np.eye(5)[y]
    out = ad.softmax_cross_entropy_rows(ad.constant(raw), hot).data
    ref = np.log(np.exp(raw).sum(axis=1)) - raw[np.arange(3), y]
    np.testing.assert_allclose(out, ref, atol=1e-12)
    # stable under large offsets
    out2 = ad.softmax_cross_entropy_rows(ad.constant(raw + 500.0), hot).data
    np.testing.assert_allclose(out2, ref, atol=1e-9)


def test_softmax_cross_entropy_rows_nonfinite_logit_poisons_row():
    # the one-hot dot is a full sum, so -inf off the label still gives nan,
    # and the training loop sees a non-finite loss
    logits = np.array([[0.5, -np.inf, 1.0], [0.2, 0.1, 0.0]])
    hot = np.eye(3)[[0, 1]]
    with np.errstate(invalid="ignore"):
        out = ad.softmax_cross_entropy_rows(ad.constant(logits), hot).data
    assert np.isnan(out[0]) and np.isfinite(out[1])


def test_softmax_cross_entropy_rows_shape_checks():
    with pytest.raises(ShapeError):
        ad.softmax_cross_entropy_rows(ad.constant(np.zeros(3)), np.eye(3)[0])
    with pytest.raises(ShapeError):
        ad.softmax_cross_entropy_rows(ad.constant(np.zeros((2, 3))), np.eye(3))


def test_linear_shape_checks():
    x, w, b = ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((4, 3))), ad.constant(np.zeros(4))
    with pytest.raises(ShapeError):
        ad.linear(x, ad.constant(np.zeros((3, 4))), b)
    with pytest.raises(ShapeError):
        ad.linear(x, w, ad.constant(np.zeros(3)))
    with pytest.raises(ShapeError):
        ad.linear(ad.constant(np.zeros(3)), w, b)


@pytest.mark.parametrize("offset", [0.0, 500.0], ids=["plain", "shifted"])
def test_fused_ops_match_finite_differences(rng, offset):
    x = ad.param(rng.standard_normal((5, 4)) + 0.3)
    w = ad.param(rng.standard_normal((3, 4)))
    b = ad.param(rng.standard_normal(3) + offset)
    hot = np.eye(3)[[2, 0, 1, 1, 0]]
    # the bias broadcasts across rows; an offset of 500 lands every logit near
    # 500, where an unshifted softmax would overflow
    assert ad.grad_check(lambda: ad.sum_all(ad.square(ad.linear(x, w, b))), [x, w, b]) < 1e-6
    assert ad.grad_check(
        lambda: ad.sum_all(ad.square(ad.softmax_cross_entropy_rows(ad.linear(x, w, b), hot))), [x, w, b]
    ) < 1e-6


def _grads_under(out: ad.Node, upstream: np.ndarray, params) -> list:
    # sum(out * G) hands backward exactly G as out's gradient
    grads = ad.backward(ad.sum_all(ad.mul(out, ad.constant(upstream))))
    return [grads[p] for p in params]


# Every linear layer the shipped configs train, as (rows, in, out, whether x
# needs a gradient): configs/default.config at batch 64, its 26-row last
# batch and the whole-split diagnostics, configs/tiny.config at batch 16, its
# 9-row last batch and batch 3, and the small network of the gradient suite.
# A first layer's input is data, so its x-gradient is never formed; for some
# of those shapes (26 rows through the 32-to-128 layer) BLAS rounds g @ w
# differently from the chain.
_FULL = ((32, 128), (128, 64), (64, 16), (16, 16), (16, 10))
_TINY = ((8, 16), (16, 6), (6, 6), (6, 3))
_GRADIENT_SUITE = ((5, 6), (6, 4), (4, 4), (4, 3))
LINEAR_CASES = [
    (n, fi, fo, k > 0)
    for rows, layers in (((64, 26, 1242), _FULL), ((16, 9, 3), _TINY), ((4,), _GRADIENT_SUITE))
    for n in rows
    for k, (fi, fo) in enumerate(layers)
]


def test_linear_is_bitwise_transpose_matmul_add(rng):
    for n, fi, fo, x_grad in LINEAR_CASES:
        x = ad.param(rng.standard_normal((n, fi))) if x_grad else ad.constant(rng.standard_normal((n, fi)))
        w = ad.param(rng.standard_normal((fo, fi)))
        b = ad.param(rng.standard_normal(fo))
        g = rng.standard_normal((n, fo))
        fused = ad.linear(x, w, b)
        chain = ad.add(ad.matmul(x, ad.transpose(w)), b)
        assert np.array_equal(fused.data, chain.data), (n, fi, fo)
        wrt = (x, w, b) if x_grad else (w, b)
        for a, c in zip(_grads_under(fused, g, wrt), _grads_under(chain, g, wrt)):
            assert np.array_equal(a, c), (n, fi, fo)


@pytest.mark.parametrize("offset", [0.0, 500.0], ids=["plain", "shifted"])
def test_softmax_cross_entropy_rows_is_bitwise_log_softmax_arithmetic(rng, offset):
    for n, c in ((64, 10), (26, 10), (16, 3), (3, 3), (1, 4)):
        raw = rng.standard_normal((n, c)) * 3.0 + offset
        hot = np.eye(c)[rng.integers(0, c, size=n)]
        g = rng.standard_normal(n)
        x = ad.param(raw)
        rows = ad.softmax_cross_entropy_rows(x, hot)
        # the log_softmax -> dot with one-hot -> negate chain, written out
        shifted = raw - raw.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        g_logp = (-g)[:, None] * hot
        assert np.array_equal(rows.data, -np.einsum("ij,ij->i", logp, hot))
        assert np.array_equal(
            _grads_under(rows, g, (x,))[0], g_logp - np.exp(logp) * g_logp.sum(axis=1, keepdims=True)
        )


def test_l2_normalize_unit_output(rng):
    v = ad.param(rng.standard_normal(6))
    n = ad.l2_normalize(v)
    assert abs(np.linalg.norm(n.data) - 1.0) < 1e-12
    assert ad.grad_check(lambda: ad.sum_all(ad.square(ad.l2_normalize(v))), [v]) < 1e-6


def test_backward_deterministic(rng):
    x = ad.param(rng.standard_normal((4, 4)))

    def run():
        loss = ad.sum_all(ad.square(ad.matmul(x, ad.transpose(x))))
        return ad.backward(loss)[x]

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_grad_check_raises_on_nonfinite():
    x = ad.param(np.array([0.0]))

    def bad():
        # 1/x style blowup via normalize of a zero vector is guarded upstream,
        # so force a nan directly
        return ad.sum_all(ad.mul(x, ad.constant(np.array([np.inf]))))

    with pytest.raises(EvaluationError):
        ad.grad_check(bad, [x])


def test_grad_check_nonfinite_raises_no_numpy_warning():
    x = ad.param(np.array([0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(EvaluationError):
            ad.grad_check(lambda: ad.sum_all(ad.mul(x, ad.constant(np.array([np.inf])))), [x])


def test_grad_check_tol_enforcement(rng):
    x = ad.param(rng.standard_normal(3))
    err = ad.grad_check(lambda: ad.sum_all(ad.square(x)), [x], tol=1e-6)
    assert err < 1e-6


def test_grad_check_leaves_captured_arrays_alone(rng):
    # the constant shares p's array: perturbing that array in place would
    # move both factors and double the numeric slope
    p = ad.param(rng.standard_normal(4))
    c = ad.constant(p.data)
    assert ad.grad_check(lambda: ad.sum_all(ad.mul(p, c)), [p]) < 1e-9
    assert c.data is p.data


def test_grad_check_restores_param_when_f_raises(rng):
    p = ad.param(rng.standard_normal(3))
    before = p.data
    snapshot = before.copy()
    calls = []

    def f():
        calls.append(None)
        if len(calls) > 1:
            raise EvaluationError("boom")
        return ad.sum_all(ad.square(p))

    with pytest.raises(EvaluationError):
        ad.grad_check(f, [p])
    assert p.data is before
    np.testing.assert_array_equal(p.data, snapshot)


@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2**31 - 1))
def test_add_is_elementwise(rows, cols, seed):
    r = np.random.default_rng(seed)
    a, b = r.standard_normal((rows, cols)), r.standard_normal((rows, cols))
    out = ad.add(ad.constant(a), ad.constant(b)).data
    np.testing.assert_array_equal(out, a + b)


@given(st.integers(0, 2**31 - 1))
def test_sum_gradient_is_ones(seed):
    r = np.random.default_rng(seed)
    x = ad.param(r.standard_normal((3, 3)))
    g = ad.backward(ad.sum_all(x))[x]
    np.testing.assert_array_equal(g, np.ones((3, 3)))
