"""Loss functions: CE variants, two-view alignment, Gram matching, schedule."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import collapselab.autodiff as ad
import collapselab.losses as L
from collapselab.errors import ContractError, DegenerateInputError
from collapselab.etf import make_etf
from collapselab.losses import (
    allnc_loss,
    branch_loss,
    class_mean_matrix,
    cross_entropy_rows,
    eta,
    hycon,
    hycon_batch,
    inverse_frequency_weights,
    mean_cross_entropy,
    mean_reweighted_ce,
    p2p,
    total_loss,
)
from collapselab.config import TrainConfig
from collapselab.model import ArchSpec, forward, init_params
from refops import dot


def _one_row(logits: np.ndarray) -> ad.Node:
    return ad.constant(np.asarray(logits)[None, :])


class TestCrossEntropy:
    def test_closed_form(self):
        logits = np.array([2.0, 0.0, -1.0])
        want = np.log(np.exp(logits).sum()) - logits[0]
        got = mean_cross_entropy(_one_row(logits), np.array([0])).item()
        assert abs(got - want) < 1e-8

    def test_uniform_logits_give_log_c(self):
        for c in (2, 5, 10):
            got = mean_cross_entropy(_one_row(np.zeros(c)), np.array([c - 1])).item()
            assert got == pytest.approx(np.log(c), abs=1e-12)

    def test_mean_matches_singles(self, rng):
        logits = rng.standard_normal((6, 4))
        y = rng.integers(0, 4, size=6)
        singles = [mean_cross_entropy(_one_row(row), np.array([k])).item() for row, k in zip(logits, y)]
        batch = mean_cross_entropy(ad.constant(logits), y).item()
        assert batch == pytest.approx(np.mean(singles), abs=1e-12)

    def test_reweighted_factor(self, rng):
        logits = rng.standard_normal(5)
        w = np.array([0.5, 2.0, 1.0, 3.0, 0.25])
        base = mean_cross_entropy(_one_row(logits), np.array([3])).item()
        got = mean_reweighted_ce(_one_row(logits), np.array([3]), w).item()
        assert got == pytest.approx(3.0 * base, rel=1e-12)

    def test_unit_weights_reduce_to_plain(self, rng):
        logits = rng.standard_normal((8, 3))
        y = rng.integers(0, 3, size=8)
        a = mean_cross_entropy(ad.constant(logits), y).item()
        b = mean_reweighted_ce(ad.constant(logits), y, np.ones(3)).item()
        assert a == pytest.approx(b, rel=1e-12)

    def test_label_validation(self):
        with pytest.raises(ContractError):
            mean_cross_entropy(ad.constant(np.zeros((2, 3))), np.array([0, 3]))
        with pytest.raises(ContractError):
            mean_cross_entropy(ad.constant(np.zeros(3)), np.array([0]))


class TestLabelConstants:
    """The memo that builds each label array's one-hot rows and class
    selectors once."""

    def test_built_once_and_read_only(self):
        y = np.array([2, 0, 2, 1])
        hot = L._memo(L._onehot, y, 3)
        assert L._memo(L._onehot, y.copy(), 3) is hot
        present, pool, lookup = L._memo(L._selectors, y)
        assert all(a is b for a, b in zip(L._memo(L._selectors, list(y)), (present, pool, lookup)))
        assert not pool.requires_grad and not lookup.requires_grad
        for arr in (hot, present, pool.data, lookup.data):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_class_count_is_part_of_the_key(self):
        y = np.array([0, 1])
        assert L._memo(L._onehot, y, 2).shape == (2, 2)
        assert L._memo(L._onehot, y, 3).shape == (2, 3)

    def test_equal_bytes_of_another_dtype_are_other_labels(self):
        a, b = np.array([1, 0], dtype=np.int32), np.array([1], dtype=np.int64)
        assert a.tobytes() == b.tobytes()
        assert np.array_equal(L._memo(L._onehot, a, 2), [[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(L._memo(L._onehot, b, 2), [[0.0, 1.0]])
        assert L._memo(L._selectors, a)[1].shape == (2, 2)
        assert L._memo(L._selectors, b)[1].shape == (1, 1)

    def test_bounded(self):
        first = np.array([0, 1, 2])
        hot = L._memo(L._onehot, first, 3)
        for k in range(2 * L._MEMO_SIZE):
            L._memo(L._onehot, np.array([k % 3, 0, 1, k]), 4 + k)
            assert len(L._MEMO) <= L._MEMO_SIZE
        again = L._memo(L._onehot, first, 3)
        assert again is not hot and np.array_equal(again, hot)

    def test_rejected_labels_are_not_kept(self):
        for _ in range(2):
            with pytest.raises(ContractError):
                mean_cross_entropy(ad.constant(np.zeros((2, 3))), np.array([0, 3]))


class TestInverseFrequencyWeights:
    def test_mean_one_and_proportionality(self):
        counts = np.array([500, 50, 5])
        w = inverse_frequency_weights(counts)
        assert w.mean() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(w * counts, w[0] * counts[0], rtol=1e-12)

    def test_balanced_counts_give_ones(self):
        np.testing.assert_allclose(inverse_frequency_weights(np.full(7, 13)), 1.0)

    def test_rarest_class_weighs_most(self):
        w = inverse_frequency_weights(np.array([100, 10, 1]))
        assert w[2] > w[1] > w[0]

    def test_empty_class_rejected(self):
        with pytest.raises(ContractError):
            inverse_frequency_weights(np.array([5, 0, 2]))


class TestHycon:
    def test_coincident_vectors_hit_floor(self):
        v = ad.constant(np.array([0.3, -1.2, 0.5]))
        loss = hycon(v, v, v, v, v, v)
        assert loss.item() == -4.0

    def test_orthogonal_vectors_give_zero(self):
        e = np.eye(4)
        loss = hycon(
            ad.constant(e[0]), ad.constant(e[1]),
            ad.constant(e[2]), ad.constant(e[3]),
            ad.constant(e[1]), ad.constant(e[0]),
        )
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_stacks_with_class_means_equal_hycon_batch(self, rng):
        # hycon_batch only builds u from the labels; handed the same class
        # means, hycon must give the same value and gradients to the bit
        y = np.array([2, 0, 2, 1, 0])
        h1, h2, z1, z2 = (ad.param(rng.standard_normal((5, 4))) for _ in range(4))
        means1, present = class_mean_matrix(z1, y)
        means2, _ = class_mean_matrix(z2, y)
        lookup = ad.constant(np.eye(present.shape[0])[np.searchsorted(present, y)])
        u1, u2 = ad.matmul(lookup, means1), ad.matmul(lookup, means2)
        direct = hycon(h1, h2, z1, z2, u1, u2)
        batch = hycon_batch(h1, h2, z1, z2, y)
        assert direct.item() == batch.item()
        g_direct, g_batch = ad.backward(direct), ad.backward(batch)
        for node in (h1, h2, z1, z2):
            assert np.array_equal(g_direct[node], g_batch[node])

    def test_one_sample_equals_one_row_stack(self, rng):
        vecs = rng.standard_normal((6, 4))
        single = hycon(*(ad.constant(v) for v in vecs)).item()
        stacked = hycon(*(ad.constant(v[None, :]) for v in vecs)).item()
        assert single == stacked

    def test_batch_coincident_views(self, rng):
        # the u-term compares against the class mean, so the floor needs every
        # sample of a class on one point, not just equal views
        per_class = rng.standard_normal((2, 4))
        y = np.array([0, 0, 1, 1, 1])
        z = per_class[y]
        n = ad.constant(z)
        assert hycon_batch(n, n, n, n, y).item() == pytest.approx(-4.0, abs=1e-9)

    def test_singleton_class_is_its_own_mean(self, rng):
        z = rng.standard_normal((1, 4))
        n = ad.constant(z)
        assert hycon_batch(n, n, n, n, np.array([2])).item() == pytest.approx(-4.0, abs=1e-12)

    def test_target_override_matches_default_forward(self, rng):
        h1, h2 = ad.constant(rng.standard_normal((4, 3))), ad.constant(rng.standard_normal((4, 3)))
        z1, z2 = ad.constant(rng.standard_normal((4, 3))), ad.constant(rng.standard_normal((4, 3)))
        y = np.array([0, 1, 0, 1])
        a = hycon_batch(h1, h2, z1, z2, y).item()
        b = hycon_batch(
            h1, h2, z1, z2, y,
            target_z1=ad.constant(z1.data.copy()),
            target_z2=ad.constant(z2.data.copy()),
        ).item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_targets_receive_no_gradient(self, rng):
        # the default stop-gradient targets must behave exactly like targets
        # pinned to constants: z gradient flows only through the u path
        h1 = ad.param(rng.standard_normal((3, 4)))
        h2 = ad.constant(rng.standard_normal((3, 4)))
        z1 = ad.param(rng.standard_normal((3, 4)))
        z2 = ad.constant(rng.standard_normal((3, 4)))
        y = np.array([0, 1, 1])
        live = ad.backward(hycon_batch(h1, h2, z1, z2, y))
        pinned = ad.backward(
            hycon_batch(
                h1, h2, z1, z2, y,
                target_z1=ad.constant(z1.data.copy()),
                target_z2=ad.constant(z2.data.copy()),
            )
        )
        np.testing.assert_allclose(live[h1], pinned[h1], atol=1e-15)
        np.testing.assert_allclose(live[z1], pinned[z1], atol=1e-15)

    def test_gradient_matches_finite_differences(self, rng):
        h1 = ad.param(rng.standard_normal((3, 4)) + 0.5)
        h2 = ad.param(rng.standard_normal((3, 4)) + 0.5)
        z1 = ad.param(rng.standard_normal((3, 4)) + 0.5)
        z2 = ad.param(rng.standard_normal((3, 4)) + 0.5)
        y = np.array([0, 1, 0])
        t1 = ad.constant(z1.data.copy())
        t2 = ad.constant(z2.data.copy())

        def build():
            return hycon_batch(h1, h2, z1, z2, y, target_z1=t1, target_z2=t2)

        assert ad.grad_check(build, [h1, h2, z1, z2]) < 1e-6

    def test_bounds(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            mk = lambda: ad.constant(rng.standard_normal((n, 3)))
            y = rng.integers(0, 3, size=n)
            val = hycon_batch(mk(), mk(), mk(), mk(), y).item()
            assert -4.0 - 1e-9 <= val <= 4.0 + 1e-9

    def test_zero_projection_has_cosine_zero(self):
        zero_row = np.ones((2, 3))
        zero_row[0] = 0.0
        good = ad.constant(np.ones((2, 3)))
        # sample 0's z1 (target of h2) and its class mean u1 are zero: two of
        # its four cosines are 0, every other cosine is 1
        value = hycon_batch(good, good, ad.constant(zero_row), good, np.array([0, 1])).item()
        assert value == pytest.approx(-(2.0 + 4.0) / 2, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        a = ad.constant(np.ones((2, 3)))
        b = ad.constant(np.ones((2, 4)))
        with pytest.raises(ContractError):
            hycon_batch(a, a, a, b, np.array([0, 1]))


class TestClassMeanMatrix:
    def test_means_and_present(self, rng):
        x = rng.standard_normal((5, 3))
        y = np.array([2, 0, 2, 0, 2])
        means, present = class_mean_matrix(ad.constant(x), y)
        np.testing.assert_array_equal(present, [0, 2])
        np.testing.assert_allclose(means.data[0], x[[1, 3]].mean(axis=0))
        np.testing.assert_allclose(means.data[1], x[[0, 2, 4]].mean(axis=0))

    def test_gradient_spreads_inverse_count(self, rng):
        x = ad.param(rng.standard_normal((4, 2)))
        y = np.array([0, 0, 0, 1])
        means, _ = class_mean_matrix(x, y)
        grads = ad.backward(ad.sum_all(means))
        np.testing.assert_allclose(grads[x][0], 1.0 / 3.0)
        np.testing.assert_allclose(grads[x][3], 1.0)

    @pytest.mark.parametrize(
        "build", [lambda x, y: class_mean_matrix(x, y), lambda x, y: hycon_batch(x, x, x, x, y)], ids=["means", "hycon"]
    )
    def test_bad_labels_rejected(self, build):
        x = ad.constant(np.ones((4, 3)))
        for labels in (np.zeros((4, 1), dtype=int), np.array([0, -1, 1, 0]), np.array([0.0, 1.0, 1.0, 0.0])):
            with pytest.raises(ContractError, match="labels must be 1-d"):
                build(x, labels)
        with pytest.raises(ContractError, match="matmul: inner dims differ"):
            build(x, np.array([0, 1, 0]))


class TestP2P:
    def test_exact_frame_raw_rows(self):
        frame = make_etf(8, 5, seed=0)
        assert p2p(ad.constant(frame), False).item() < 1e-18

    def test_exact_frame_centered_normalized(self):
        frame = make_etf(8, 5, seed=1)
        rows = 2.5 * frame + 0.7  # scale and shift; tilde mode undoes both
        assert p2p(ad.constant(rows), True).item() < 1e-18

    def test_orthonormal_two_rows_exact_half(self):
        v = ad.constant(np.eye(2))
        assert p2p(v, False).item() == pytest.approx(0.5, abs=1e-15)

    def test_subset_rows_full_frame_target(self):
        frame = make_etf(8, 4, seed=2)
        sub = ad.constant(frame[:2])
        # against the 4-class target the exact sub-frame scores zero
        assert p2p(sub, False, num_classes=4).item() < 1e-18
        # against a 2-class target (cosine -1) it does not
        assert p2p(sub, False).item() > 0.01

    def test_explicit_center_matches_default(self, rng):
        rows = rng.standard_normal((4, 6))
        node = ad.constant(rows)
        a = p2p(node, True).item()
        b = p2p(node, True, center=ad.constant(rows.mean(axis=0))).item()
        assert a == pytest.approx(b, abs=1e-15)

    def test_gradient_matches_finite_differences(self, rng):
        v = ad.param(rng.standard_normal((4, 6)))
        assert ad.grad_check(lambda: p2p(v, False), [v]) < 1e-6
        assert ad.grad_check(lambda: p2p(v, True), [v]) < 1e-6

    def test_row_count_validation(self):
        with pytest.raises(ContractError):
            p2p(ad.constant(np.ones((5, 3))), False, num_classes=4)
        with pytest.raises(ContractError):
            p2p(ad.constant(np.ones((1, 3))), False, num_classes=1)
        with pytest.raises(ContractError):
            p2p(ad.constant(np.ones(3)), False)

    def test_center_shape_validated(self):
        with pytest.raises(ContractError):
            p2p(ad.constant(np.ones((3, 4))), True, center=ad.constant(np.ones(3)))

    def test_row_at_the_center_rejected(self):
        # unlike the alignment loss, p2p has no cosine for a zero vector
        rows = ad.constant(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 3.0]]))
        with pytest.raises(DegenerateInputError, match="row 0"):
            p2p(rows, True, center=ad.constant(np.array([1.0, 0.0])))


class TestEta:
    def test_endpoints_exact(self):
        assert eta(0, 100, 2.0) == 1.0
        assert eta(100, 100, 2.0) == 0.0

    def test_midpoint_quadratic(self):
        assert eta(50, 100, 2.0) == pytest.approx(0.75, abs=1e-15)

    @given(st.integers(1, 1000), st.floats(0.1, 8.0))
    def test_monotone_nonincreasing(self, t_max, gamma):
        vals = [eta(t, t_max, gamma) for t in range(t_max + 1)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)


class TestBranchAndTotal:
    def _setup(self, rng, c=4):
        logits = ad.constant(rng.standard_normal((8, c)))
        y = rng.integers(0, c, size=8)
        w = inverse_frequency_weights(np.bincount(y, minlength=c) + 1)
        cls = ad.constant(rng.standard_normal((c, 6)))
        return logits, y, w, cls

    def test_eta_one_is_plain_ce(self, rng):
        logits, y, w, cls = self._setup(rng)
        got = branch_loss(logits, y, 1.0, w, cls).item()
        assert got == pytest.approx(mean_cross_entropy(logits, y).item(), abs=1e-12)

    def test_eta_zero_is_reweighted_plus_gram(self, rng):
        logits, y, w, cls = self._setup(rng)
        want = mean_reweighted_ce(logits, y, w).item() + p2p(cls, False).item()
        assert branch_loss(logits, y, 0.0, w, cls).item() == pytest.approx(want, abs=1e-12)

    def test_balanced_etf_classifier_reduces_to_ce(self, rng):
        # unit weights kill the reweighting and an exact frame kills p2p_w
        frame = make_etf(6, 4, seed=3)
        logits = ad.constant(rng.standard_normal((8, 4)))
        y = rng.integers(0, 4, size=8)
        got = branch_loss(logits, y, 0.5, np.ones(4), ad.constant(frame)).item()
        assert got == pytest.approx(mean_cross_entropy(logits, y).item(), abs=1e-12)

    def test_shared_p2p_node_used(self, rng):
        logits, y, w, cls = self._setup(rng)
        shared = p2p(cls, False)
        a = branch_loss(logits, y, 0.3, w, cls, p2p_w=shared).item()
        b = branch_loss(logits, y, 0.3, w, cls).item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_non_scalar_p2p_node_rejected(self, rng):
        # a branch loss is a scalar: a (K,) p2p_w must not broadcast into it
        logits, y, w, cls = self._setup(rng)
        with pytest.raises(ContractError):
            branch_loss(logits, y, 0.3, w, cls, p2p_w=ad.constant(np.ones(4)))

    def test_fused_branches_and_total_are_bitwise_their_chains(self, rng):
        # two branches share one p2p_w node, as in a training step
        arch = ArchSpec(input_dim=5, num_classes=3, hidden_dims=(6,), feature_dim=4, proj_dim=4, predictor_hidden=4)
        params = init_params(arch, seed=5)
        y = np.array([0, 1, 2, 0, 1])
        w = inverse_frequency_weights(np.bincount(y, minlength=3) + 1)
        v1, v2 = (forward(params, np.abs(rng.standard_normal((5, 5))) + 0.3) for _ in range(2))
        p2p_w = p2p(params.classifier_w, center_and_normalize=False)
        hy = hycon_batch(v1.h, v2.h, v1.z, v2.z, y)
        pm = p2p(class_mean_matrix(v1.features, y)[0], True, num_classes=3, center=ad.mean_rows(v1.features))

        def chain_branch(v):
            rows = cross_entropy_rows(v.logits, y)
            re = ad.scale(dot(rows, ad.constant(w[y])), 1.0 / 5)
            assert re.item() == mean_reweighted_ce(v.logits, y, w).item()
            return ad.add(ad.scale(ad.mean_all(rows), 0.6), ad.scale(ad.add(re, p2p_w), 1.0 - 0.6))

        b1, b2 = (branch_loss(v.logits, y, 0.6, w, params.classifier_w, p2p_w=p2p_w) for v in (v1, v2))
        c1, c2 = chain_branch(v1), chain_branch(v2)
        fused = total_loss(b1, b2, hy, pm, 0.7)
        chain = ad.add(ad.add(c1, c2), ad.scale(ad.add(hy, pm), 0.7))
        assert (b1.item(), b2.item(), fused.item()) == (c1.item(), c2.item(), chain.item())
        got, ref = ad.backward(fused), ad.backward(chain)
        for name, p in params.named_parameters():
            assert np.array_equal(got[p], ref[p]), name

    def test_total_additivity_and_alpha(self, rng):
        parts = [ad.constant(float(v)) for v in rng.standard_normal(4)]
        b1, b2, hy, pm = parts
        base = total_loss(b1, b2, hy, pm, 0.0).item()
        assert base == pytest.approx(b1.item() + b2.item(), abs=1e-12)
        for alpha in (0.5, 1.0, 2.0):
            got = total_loss(b1, b2, hy, pm, alpha).item()
            assert got == pytest.approx(base + alpha * (hy.item() + pm.item()), abs=1e-12)

    def test_alpha_zero_silences_alignment_gradients(self, rng):
        a = ad.param(rng.standard_normal(3))
        b = ad.param(rng.standard_normal(3))
        branch = ad.mean_all(ad.square(a))
        align = ad.mean_all(ad.square(b))
        grads = ad.backward(total_loss(branch, branch, align, align, 0.0))
        assert np.all(grads.get(b, np.zeros(3)) == 0.0)
        assert np.any(grads[a] != 0.0)


class TestAllncLoss:
    """The step objective against the same sum assembled from public pieces."""

    C = 3
    SWITCHES = ("disable_hycon", "disable_p2p_mu", "disable_p2p_w")

    def _setup(self, rng, y):
        arch = ArchSpec(
            input_dim=5, num_classes=self.C, hidden_dims=(16,), feature_dim=8, proj_dim=8, predictor_hidden=16
        )
        params = init_params(arch, seed=3)
        views = tuple(forward(params, np.abs(rng.standard_normal((y.shape[0], 5))) + 0.3) for _ in range(2))
        w = inverse_frequency_weights(np.bincount(y, minlength=self.C) + 1)
        return params, views, w

    def _terms(self, params, views, y, w, **switches):
        return allnc_loss(*views, y, 0.3, w, params.classifier_w, self.C, 0.7, **switches)

    def test_total_matches_public_pieces(self, rng):
        y = np.array([0, 1, 2, 0, 1, 0])
        params, (v1, v2), w = self._setup(rng, y)
        p2p_w = p2p(params.classifier_w, center_and_normalize=False)
        b1 = branch_loss(v1.logits, y, 0.3, w, params.classifier_w, p2p_w=p2p_w)
        b2 = branch_loss(v2.logits, y, 0.3, w, params.classifier_w, p2p_w=p2p_w)
        hy = hycon_batch(v1.h, v2.h, v1.z, v2.z, y)
        pm = [
            p2p(class_mean_matrix(v.features, y)[0], True, num_classes=self.C, center=ad.mean_rows(v.features))
            for v in (v1, v2)
        ]
        pm = ad.scale(ad.add(pm[0], pm[1]), 0.5)
        want = total_loss(b1, b2, hy, pm, 0.7).item()
        terms = self._terms(params, (v1, v2), y, w)
        # exactly the terms a training step logs
        assert list(terms) == ["ce", "re", "p2p_w", "branch1", "branch2", "hycon", "p2p_mu", "total"]
        ce = [mean_cross_entropy(v.logits, y).item() for v in (v1, v2)]
        re = [mean_reweighted_ce(v.logits, y, w).item() for v in (v1, v2)]
        assert terms["ce"].item() == 0.5 * (ce[0] + ce[1])
        assert terms["re"].item() == 0.5 * (re[0] + re[1])
        assert terms["total"].item() == want
        assert terms["branch1"].item() == b1.item()
        assert terms["hycon"].item() == hy.item()
        assert terms["p2p_mu"].item() == pm.item()
        # one set of class selectors feeds hycon and both class means; the
        # gradients are those of the separately built pieces, to the bit
        got, ref = ad.backward(terms["total"]), ad.backward(total_loss(b1, b2, hy, pm, 0.7))
        for name, p in params.named_parameters():
            assert np.array_equal(got[p], ref[p]), name

    @pytest.mark.parametrize("switch", SWITCHES)
    def test_each_switch_zeroes_only_its_term(self, rng, switch):
        y = np.array([0, 1, 2, 0, 1, 0])
        params, views, w = self._setup(rng, y)
        full = {k: v.item() for k, v in self._terms(params, views, y, w).items()}
        off = {k: v.item() for k, v in self._terms(params, views, y, w, **{switch: True}).items()}
        term = switch[len("disable_"):]
        assert full[term] != 0.0 and off[term] == 0.0
        # p2p_w enters both branches, and every term enters the total
        dependent = {term, "total"} | ({"branch1", "branch2"} if term == "p2p_w" else set())
        for k in full:
            if k not in dependent:
                assert off[k] == full[k], k

    def test_one_present_class_gives_zero_p2p_mu(self, rng):
        y = np.array([1, 1, 1, 1])
        params, views, w = self._setup(rng, y)
        terms = self._terms(params, views, y, w)
        assert terms["p2p_mu"].item() == 0.0
        assert np.isfinite(terms["total"].item())


def _reachable(root: ad.Node, grad_path: bool) -> int:
    """Nodes reachable from root through parents; with grad_path, only
    through requires-grad parents, as backward walks them."""
    seen, stack = {id(root)}, [root]
    while stack:
        for parent in stack.pop().parents:
            if (parent.requires_grad or not grad_path) and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class TestStepGraphSize:
    """Graph nodes of one training step on the default architecture at batch
    64: the count the fused loss ops exist to keep down. A change that moves
    these numbers changes the cost of every step; update them on purpose."""

    def _step_inputs(self, rng):
        cfg = TrainConfig()
        params = init_params(cfg.arch, seed=0)
        y = np.arange(64) % cfg.num_classes
        x1, x2 = rng.standard_normal((2, 64, cfg.input_dim))
        return cfg, params, x1, x2, y

    def test_allnc_step(self, rng):
        cfg, params, x1, x2, y = self._step_inputs(rng)
        w = inverse_frequency_weights(np.bincount(y, minlength=cfg.num_classes))
        terms = allnc_loss(
            forward(params, x1), forward(params, x2), y, 0.5, w, params.classifier_w, cfg.num_classes, cfg.alpha
        )
        assert (_reachable(terms["total"], False), _reachable(terms["total"], True)) == (67, 63)

    def test_ce_step(self, rng):
        _, params, x1, _, y = self._step_inputs(rng)
        ce = mean_cross_entropy(forward(params, x1).logits, y)
        assert (_reachable(ce, False), _reachable(ce, True)) == (18, 17)
