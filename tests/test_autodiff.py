"""Engine-level checks: every backward rule against central differences,
stop-gradient semantics, and graph bookkeeping corner cases."""

import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import collapselab.autodiff as ad
from collapselab.errors import ContractError, DegenerateInputError, EvaluationError
from refops import dot, neg, rowwise_dot

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


# The op-output contract: an op's node holds a C-contiguous float64 ndarray,
# never a numpy scalar, because ops pass each other's arrays on without
# coercing them again; so does every gradient backward returns. The cases
# use the default config's shapes: a 64-row batch, 16 features, 10 classes.
_N, _D, _C = 64, 16, 10


def _p(*shape):
    """A parameter of that shape, its values fixed by the shape."""
    return ad.param(np.random.default_rng(len(shape) * 100 + sum(shape)).standard_normal(shape) + 0.5)


def _scalar():
    """A 0-d node on the gradient path, as every loss term is."""
    return ad.mean_all(_p(3))


OP_CASES = {
    "constant": [lambda: ad.constant(np.arange(12).reshape(3, 4)[:, ::2]), lambda: ad.constant(2)],
    "param": [lambda: ad.param(np.ones((3, 4)).T), lambda: ad.param(1.5)],
    # equal shapes, the row-broadcast bias pattern, and two 0-d loss terms
    "add": [
        lambda: ad.add(_p(_N, _D), _p(_N, _D)),
        lambda: ad.add(_p(_N, _D), _p(_D)),
        lambda: ad.add(_scalar(), _scalar()),
    ],
    "sub": [
        lambda: ad.sub(_p(_N, _D), _p(_N, _D)),
        lambda: ad.sub(_p(_N, _D), _p(_D)),
        lambda: ad.sub(_scalar(), _scalar()),
    ],
    # the last case is a 0-d leaf, whose gradient numpy would hand back as a scalar
    "scale": [
        lambda: ad.scale(_p(_N, _D), 0.5),
        lambda: ad.scale(_scalar(), 0.5),
        lambda: ad.scale(ad.param(2.0), 3.0),
    ],
    "mul": [lambda: ad.mul(_p(_N, _D), _p(_N, _D)), lambda: ad.mul(_scalar(), _scalar())],
    "square": [lambda: ad.square(_p(_N, _D)), lambda: ad.square(_scalar())],
    "relu": [lambda: ad.relu(_p(_N, _D)), lambda: ad.relu(_scalar())],
    "matmul": [lambda: ad.matmul(_p(_C, _N), _p(_N, _D))],
    "linear": [lambda: ad.linear(_p(_N, _D), _p(_C, _D), _p(_C))],
    "transpose": [lambda: ad.transpose(_p(_N, _D))],
    "gram_mse": [lambda: ad.gram_mse(_p(_C, _D), np.eye(_C))],
    "sum_all": [lambda: ad.sum_all(_p(_N, _D)), lambda: ad.sum_all(_scalar())],
    "mean_all": [lambda: ad.mean_all(_p(_N, _D))],
    "mean_rows": [lambda: ad.mean_rows(_p(_N, _D))],
    "l2_normalize_rows": [lambda: ad.l2_normalize_rows(_p(_N, _D)), lambda: ad.l2_normalize_rows(_p(_D))],
    "cosine_alignment": [
        lambda: ad.cosine_alignment(_p(_N, _D), _p(_N, _D), _p(_N, _D).data, _p(_N, _D), _p(_N, _D), _p(_N, _D).data),
        lambda: ad.cosine_alignment(_p(_D), _p(_D), _p(_D).data, _p(_D), _p(_D), _p(_D).data),
    ],
    "softmax_cross_entropy_rows": [lambda: ad.softmax_cross_entropy_rows(_p(_N, _C), np.eye(_C)[np.arange(_N) % _C])],
    "weighted_mean": [lambda: ad.weighted_mean(_p(_N), np.linspace(0.5, 2.0, _N))],
    # 0-d operands: loss terms on the gradient path, a constant, and a 0-d
    # leaf, whose gradient numpy would hand back as a scalar
    "mix": [
        lambda: ad.mix(0.3, (_scalar(),), 0.7, (_scalar(), _scalar())),
        lambda: ad.mix(1.0, (_scalar(), ad.constant(2.0)), 2.0, (ad.param(1.5), _scalar())),
    ],
}


def _assert_carrier(arr, op):
    assert type(arr) is np.ndarray, (op, type(arr))
    assert arr.dtype == np.float64 and arr.flags["C_CONTIGUOUS"], op


@pytest.mark.parametrize("op", sorted(OP_CASES))
def test_op_outputs_and_gradients_are_contiguous_float64_arrays(op):
    for build in OP_CASES[op]:
        out = build()
        _assert_carrier(out.data, op)
        if out.requires_grad:
            upstream = np.random.default_rng(0).standard_normal(out.data.shape)
            root = out if out.data.ndim == 0 else ad.sum_all(ad.mul(out, ad.constant(upstream)))
            grads = ad.backward(root)
            assert grads
            for g in grads.values():
                _assert_carrier(g, op)


def test_op_cases_cover_every_public_op():
    public = {
        name
        for name, value in vars(ad).items()
        if callable(value) and not name.startswith("_") and getattr(value, "__module__", None) == ad.__name__
    }
    # affine and unit_rows are the array forwards of linear and l2_normalize_rows
    array_helpers = {"affine", "unit_rows"}
    assert public - {"Node", "as_tensor", "backward", "grad_check", *array_helpers} == set(OP_CASES)


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
        lambda x: ad.sum_all(ad.square(rowwise_dot(x, ad.square(x)))),
        lambda x: rowwise_dot(ad.mean_rows(x), ad.mean_rows(ad.square(x))),
        lambda x: ad.sum_all(ad.l2_normalize_rows(ad.mean_rows(ad.square(x)))),
    ],
    ids=[
        "relu", "mean_sq", "l2rows", "meanrows", "softmax_xent", "gram", "gram_sq",
        "rowdot_2d", "rowdot_1d", "l2rows_1d",
    ],
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
    assert ad.grad_check(lambda: ad.weighted_mean(v, w.data), [v]) < 1e-6
    assert ad.grad_check(lambda: ad.mix(0.3, (ad.mean_all(v),), 0.7, (ad.mean_all(w), dot(v, w))), [v, w]) < 1e-6
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


def test_relu_propagates_nan():
    x = ad.param(np.array([np.nan, -1.0, 2.0]))
    np.testing.assert_array_equal(ad.relu(x).data, [np.nan, 0.0, 2.0])


def test_constant_of_data_prunes_leaf(rng):
    x = ad.param(rng.standard_normal(4))
    loss = ad.sum_all(ad.constant(x.data))
    assert x not in ad.backward(loss)


def test_constant_of_data_identity_forward(rng):
    x = ad.param(rng.standard_normal(4))
    s = ad.constant(x.data)
    assert np.array_equal(s.data, x.data)
    assert not s.requires_grad


def test_x_times_constant_x_gradient_is_x_bitwise():
    x = ad.param(np.array([1.7, -2.3, 0.4]))
    g = ad.backward(ad.sum_all(ad.mul(x, ad.constant(x.data))))[x]
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
    with pytest.raises(ContractError):
        ad.softmax_cross_entropy_rows(ad.constant(np.zeros(3)), np.eye(3)[0])
    with pytest.raises(ContractError):
        ad.softmax_cross_entropy_rows(ad.constant(np.zeros((2, 3))), np.eye(3))


def test_linear_shape_checks():
    x, w, b = ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((4, 3))), ad.constant(np.zeros(4))
    with pytest.raises(ContractError):
        ad.linear(x, ad.constant(np.zeros((3, 4))), b)
    with pytest.raises(ContractError):
        ad.linear(x, w, ad.constant(np.zeros(3)))
    with pytest.raises(ContractError):
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


def test_unit_rows_is_bitwise_division_by_linalg_norm(rng):
    for shape in ((_N, _D), (_C, _D), (_D,)):
        x = rng.standard_normal(shape) * 3.0
        norms = np.linalg.norm(x, axis=-1, keepdims=True)
        units, got = ad.unit_rows(x, "rows")
        assert np.array_equal(got, norms) and np.array_equal(units, x / norms), shape


def test_affine_is_bitwise_linear_forward(rng):
    for n, fi, fo, _ in LINEAR_CASES:
        x, w, b = rng.standard_normal((n, fi)), rng.standard_normal((fo, fi)), rng.standard_normal(fo)
        want = ad.linear(ad.constant(x), ad.param(w), ad.param(b)).data
        assert np.array_equal(ad.affine(x, w, b), want), (n, fi, fo)
        out = np.full((n + 3, fo), np.nan)
        assert ad.affine(x, w, b, out=out[:n]).base is out
        assert np.array_equal(out[:n], want) and np.isnan(out[n:]).all(), (n, fi, fo)


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


# (rows, width) of the alignment loss's stacks in the shipped configs and the
# gradient suite: configs/default.config at batch 64 and its 26-row last
# batch, configs/tiny.config at batch 16, 9 and 3, the gradient suite's
# (3, 4) and (4, 4), and one (p,) sample.
ALIGNMENT_SHAPES = ((64, 16), (26, 16), (16, 6), (9, 6), (3, 6), (3, 4), (4, 4), (16,))
# (K, d) of the Gram matching's rows: the classifier and the class means of
# both configs, a partial batch's present classes, and the gradient suite's.
GRAM_SHAPES = ((10, 16), (7, 16), (3, 6), (2, 6), (3, 4), (4, 6))


def _alignment_chain(a1, b1, t1, a2, b2, t2):
    u1 = ad.l2_normalize_rows(ad.constant(t1))
    u2 = ad.l2_normalize_rows(ad.constant(t2))
    toward_1 = ad.add(rowwise_dot(ad.l2_normalize_rows(a1), u1), rowwise_dot(ad.l2_normalize_rows(b1), u1))
    toward_2 = ad.add(rowwise_dot(ad.l2_normalize_rows(a2), u2), rowwise_dot(ad.l2_normalize_rows(b2), u2))
    return neg(ad.mean_all(ad.add(toward_1, toward_2)))


def _gram_chain(v, target):
    gram = ad.matmul(v, ad.transpose(v))
    return ad.mean_all(ad.square(ad.add(gram, neg(ad.constant(target)))))


def test_cosine_alignment_is_bitwise_its_chain(rng):
    # Gaussian rows are never zero: on these inputs the fused node and the
    # chain must agree bit for bit; a zero row is the one input where they
    # part (the chain raises, the node gives cosine 0)
    for shape in ALIGNMENT_SHAPES:
        nodes = [ad.param(rng.standard_normal(shape)) for _ in range(4)]
        t1, t2 = rng.standard_normal(shape), rng.standard_normal(shape)
        g = np.asarray(rng.standard_normal())
        fused = ad.cosine_alignment(nodes[0], nodes[1], t1, nodes[2], nodes[3], t2)
        chain = _alignment_chain(nodes[0], nodes[1], t1, nodes[2], nodes[3], t2)
        assert fused.shape == () and np.array_equal(fused.data, chain.data), shape
        for a, c in zip(_grads_under(fused, g, nodes), _grads_under(chain, g, nodes)):
            assert np.array_equal(a, c), shape


def test_gram_mse_is_bitwise_its_chain(rng):
    for k, d in GRAM_SHAPES:
        v = ad.param(rng.standard_normal((k, d)))
        target = rng.standard_normal((k, k))
        g = np.asarray(rng.standard_normal())
        fused, chain = ad.gram_mse(v, target), _gram_chain(v, target)
        assert fused.shape == () and np.array_equal(fused.data, chain.data), (k, d)
        assert np.array_equal(_grads_under(fused, g, (v,))[0], _grads_under(chain, g, (v,))[0]), (k, d)


def test_weighted_mean_is_bitwise_its_chain(rng):
    # the batch sizes the shipped configs and the gradient suite train
    for n in (64, 26, 16, 9, 4, 3, 1):
        x = ad.param(rng.standard_normal(n))
        w = rng.standard_normal(n)
        g = np.asarray(rng.standard_normal())
        fused, chain = ad.weighted_mean(x, w), ad.scale(dot(x, ad.constant(w)), 1.0 / n)
        assert fused.shape == () and np.array_equal(fused.data, chain.data), n
        assert np.array_equal(_grads_under(fused, g, (x,))[0], _grads_under(chain, g, (x,))[0]), n


@pytest.mark.parametrize("s", [0.0, 0.37, 1.0])
def test_mix_is_bitwise_its_chain(rng, s):
    # both shapes the losses build: s*a + t*(b + c) and (a + b) + t*(c + d)
    p = [ad.param(rng.standard_normal(3)) for _ in range(4)]
    terms = [ad.mean_all(ad.square(x)) for x in p]
    g = np.asarray(rng.standard_normal())
    t = 1.0 - s
    cases = [
        (ad.mix(s, terms[:1], t, terms[1:3]), ad.add(ad.scale(terms[0], s), ad.scale(ad.add(terms[1], terms[2]), t))),
        (ad.mix(1.0, terms[:2], t, terms[2:]), ad.add(ad.add(terms[0], terms[1]), ad.scale(ad.add(terms[2], terms[3]), t))),
    ]
    for (fused, chain), wrt in zip(cases, (p[:3], p)):
        assert fused.shape == () and np.array_equal(fused.data, chain.data)
        for a, c in zip(_grads_under(fused, g, wrt), _grads_under(chain, g, wrt)):
            assert np.array_equal(a, c)


def test_fused_scalar_ops_shape_checks():
    one, row = ad.constant(1.0), ad.constant(np.ones(4))
    with pytest.raises(ContractError):
        ad.mix(0.5, (one,), 0.5, (one, row))
    with pytest.raises(ContractError):
        ad.mix(0.5, (row,), 0.5, (one,))
    with pytest.raises(ContractError):
        ad.weighted_mean(row, np.ones(3))
    with pytest.raises(ContractError):
        ad.weighted_mean(one, np.ones(()))
    with pytest.raises(ContractError):
        ad.weighted_mean(ad.constant(np.ones(0)), np.ones(0))


@pytest.mark.parametrize("b_shape", [(4, 6), (6,)], ids=["equal", "row_broadcast"])
def test_sub_is_bitwise_add_neg(rng, b_shape):
    a = ad.param(rng.standard_normal((4, 6)))
    b = ad.param(rng.standard_normal(b_shape))
    g = rng.standard_normal((4, 6))
    fused, chain = ad.sub(a, b), ad.add(a, neg(b))
    assert np.array_equal(fused.data, chain.data)
    for x, y in zip(_grads_under(fused, g, (a, b)), _grads_under(chain, g, (a, b))):
        assert np.array_equal(x, y)
    assert ad.grad_check(lambda: ad.sum_all(ad.square(ad.sub(a, b))), [a, b]) < 1e-6


def test_cosine_alignment_zero_row_has_cosine_zero():
    t1 = np.array([[3.0, 4.0], [0.0, 1.0]])  # unit rows (0.6, 0.8) and (0, 1)
    t2 = np.array([[0.0, 0.0], [1.0, 0.0]])  # a zero target row
    a1 = ad.param(np.array([[0.0, 0.0], [0.0, 5.0]]))  # a zero operand row
    b1 = ad.param(np.array([[2.0, 0.0], [0.0, 2.0]]))
    a2 = ad.param(np.array([[1.0, 0.0], [3.0, 0.0]]))
    b2 = ad.param(np.array([[0.0, 7.0], [0.0, 1.0]]))
    out = ad.cosine_alignment(a1, b1, t1, a2, b2, t2)
    # row cosines: a1 (0, 1), b1 (0.6, 1), a2 (0, 1), b2 (0, 0); rows sum to 0.6 and 3
    assert out.item() == -(0.6 + 3.0) / 2
    grads = ad.backward(out)
    # the zero operand row is pulled toward its unit target: -t / count
    assert np.array_equal(grads[a1][0], [-0.3, -0.4])
    # the zero target row sends its operands nothing
    assert np.array_equal(grads[a2][0], [0.0, 0.0]) and np.array_equal(grads[b2][0], [0.0, 0.0])
    with pytest.raises(DegenerateInputError, match="row 0"):
        ad.l2_normalize_rows(a1)


def test_cosine_alignment_rejects_a_row_whose_norm_is_not_finite():
    # the squares of 1e200 overflow: scoring that row's cosine as 0, as for a
    # zero row, would hide an overflow as a perfect-looking loss term
    rows = np.array([[1.0, 2.0], [1e200, 1e200]])
    ok = ad.param(np.array([[1.0, 0.0], [0.0, 1.0]]))
    with np.errstate(over="ignore"):
        with pytest.raises(DegenerateInputError, match="a2 row 1 has norm inf"):
            ad.cosine_alignment(ok, ok, ok.data, ad.param(rows), ok, ok.data)
        with pytest.raises(DegenerateInputError, match="t1 row 0 has norm nan"):
            ad.cosine_alignment(ok, ok, np.array([[np.nan, 0.0], [1.0, 1.0]]), ok, ok, ok.data)
        one = ad.param(np.array([1.0, 0.0]))  # one (d,) sample
        with pytest.raises(DegenerateInputError, match="b1 row 0 has norm inf"):
            ad.cosine_alignment(one, ad.param(np.array([np.inf, 0.0])), one.data, one, one, one.data)


@pytest.mark.parametrize("shape", [(3, 4), (5,)], ids=["rows", "one_sample"])
def test_cosine_alignment_matches_finite_differences(rng, shape):
    nodes = [ad.param(rng.standard_normal(shape) + 0.5) for _ in range(4)]
    t1, t2 = rng.standard_normal(shape) + 0.5, rng.standard_normal(shape) + 0.5
    assert ad.grad_check(lambda: ad.cosine_alignment(nodes[0], nodes[1], t1, nodes[2], nodes[3], t2), nodes) < 1e-6


def test_gram_mse_matches_finite_differences(rng):
    v = ad.param(rng.standard_normal((4, 6)))
    target = rng.standard_normal((4, 4))
    assert ad.grad_check(lambda: ad.gram_mse(v, target), [v]) < 1e-6


def test_fused_loss_ops_shape_checks():
    rows, target = ad.constant(np.ones((2, 3))), np.ones((2, 3))
    with pytest.raises(ContractError):
        ad.cosine_alignment(rows, rows, target, rows, ad.constant(np.ones((2, 4))), target)
    with pytest.raises(ContractError):
        ad.cosine_alignment(rows, rows, target, rows, rows, np.ones(3))
    with pytest.raises(ContractError):
        ad.gram_mse(rows, np.ones((3, 3)))
    with pytest.raises(ContractError):
        ad.gram_mse(ad.constant(np.ones(3)), np.ones((1, 1)))


def test_l2_normalize_rows_rejects_a_row_whose_norm_is_not_finite():
    # the squares of 1e200 overflow to an infinite norm, which used to divide
    # the row to zeros
    with np.errstate(over="ignore"):
        with pytest.raises(DegenerateInputError, match="row 0 has norm inf"):
            ad.l2_normalize_rows(ad.param([[1e200, 1e200], [1.0, 2.0]]))
        with pytest.raises(DegenerateInputError, match="row 1 has norm nan"):
            ad.l2_normalize_rows(ad.param([[1.0, 2.0], [np.nan, 1.0]]))
        with pytest.raises(DegenerateInputError, match="row 0 has norm inf"):
            ad.l2_normalize_rows(ad.param([np.inf, 1.0]))
    with pytest.raises(DegenerateInputError, match="row 2 has norm 0.0"):
        ad.l2_normalize_rows(ad.param([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]]))


def test_l2_normalize_rows_unit_vector_output(rng):
    v = ad.param(rng.standard_normal(6))
    n = ad.l2_normalize_rows(v)
    assert n.shape == (6,)
    assert abs(np.linalg.norm(n.data) - 1.0) < 1e-12
    assert ad.grad_check(lambda: ad.sum_all(ad.square(ad.l2_normalize_rows(v))), [v]) < 1e-6


def test_backward_deterministic(rng):
    x = ad.param(rng.standard_normal((4, 4)))

    def run():
        loss = ad.sum_all(ad.square(ad.matmul(x, ad.transpose(x))))
        return ad.backward(loss)[x]

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_backward_fails_loudly_on_a_broken_order(rng, monkeypatch):
    # the diamond x -> gram and x -> transpose -> gram: with the order
    # reversed, x is popped before either consumer has deposited its share
    x = ad.param(rng.standard_normal((3, 3)))
    loss = ad.sum_all(ad.matmul(x, ad.transpose(x)))
    topo = ad._topo_order
    monkeypatch.setattr(ad, "_topo_order", lambda root: topo(root)[::-1])
    with pytest.raises(KeyError):
        ad.backward(loss)


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


def test_grad_check_returns_the_error_for_the_caller_to_bound(rng):
    x = ad.param(rng.standard_normal(3))
    err = ad.grad_check(lambda: ad.sum_all(ad.square(x)), [x])
    assert err < 1e-6
    # a wrong gradient reads as a large error, not as an exception
    wrong = ad.grad_check(lambda: ad.Node(x.data.sum(), (x,), (lambda g: 2.0 * g * np.ones(3),), True), [x])
    assert wrong == pytest.approx(1.0)


def test_grad_check_nan_gradient_fails_every_bound():
    # the first coordinate's error is NaN; later finite ones must not hide it
    x = ad.param(np.array([1.0, 2.0, 3.0]))
    err = ad.grad_check(lambda: ad.Node(x.data.sum(), (x,), (lambda g: np.array([np.nan, 1.0, 1.0]) * g,), True), [x])
    assert np.isnan(err)


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
