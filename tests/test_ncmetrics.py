"""Collapse diagnostics: class stats, variability, angles, duality, agreement."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from collapselab.errors import ContractError, DegenerateInputError
from collapselab.etf import make_etf
from collapselab.harness import write_report
from collapselab.ncmetrics import (
    centered_pairwise_cosines,
    class_stats,
    icpa_degrees,
    nc1_within_class,
    nc_report,
    ncc_agreement,
    self_duality_delta,
    std_of_pairwise_cosines,
)


def _cloud(rng, counts, d=5, spread=0.3):
    """Gaussian blobs with distinct centers, one blob per class."""
    c = len(counts)
    centers = rng.standard_normal((c, d)) * 3.0
    xs, ys = [], []
    for k, n in enumerate(counts):
        xs.append(centers[k] + spread * rng.standard_normal((n, d)))
        ys.append(np.full(n, k))
    return np.vstack(xs), np.concatenate(ys)


class TestClassStats:
    def test_hand_example(self):
        x = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 4.0]])
        y = np.array([0, 0, 1])
        s = class_stats(x, y, 2)
        np.testing.assert_allclose(s.mu[0], [1.0, 0.0])
        np.testing.assert_allclose(s.mu[1], [0.0, 4.0])
        np.testing.assert_array_equal(s.counts, [2, 1])

    def test_global_mean_is_count_weighted(self, rng):
        x, y = _cloud(rng, [50, 7, 3])
        s = class_stats(x, y, 3)
        weighted = (s.counts[:, None] * s.mu).sum(axis=0) / s.counts.sum()
        np.testing.assert_allclose(weighted, s.mu_g, atol=1e-12)

    def test_class_without_sample_rejected(self, rng):
        # shuffled labels, class 2 absent: the first empty class is named
        x, y = _cloud(rng, [40, 9, 3])
        y[y == 2] = 3
        order = rng.permutation(len(y))
        with pytest.raises(ContractError, match="class_stats: class 2 has no sample"):
            class_stats(x[order], y[order], 4)

    def test_means_are_masked_means(self, rng):
        # shuffled labels: each mean is bit for bit the mean of the rows a
        # mask picks out
        x, y = _cloud(rng, [40, 9, 3, 1])
        order = rng.permutation(len(y))
        x, y = x[order], y[order]
        s = class_stats(x, y, 4)
        for k in range(4):
            assert np.array_equal(s.mu[k], x[y == k].mean(axis=0)), k

    def test_rejects_bad_labels(self):
        x = np.ones((2, 2))
        with pytest.raises(ContractError):
            class_stats(x, np.array([0, 5]), 3)
        with pytest.raises(ContractError):
            class_stats(x, np.array([0]), 3)
        with pytest.raises(ContractError):
            class_stats(np.ones((0, 2)), np.array([], dtype=int), 3)


class TestNC1:
    def test_symmetric_pair_gives_offset_norm(self):
        # two samples at mu +/- d: every deviation has squared norm ||d||^2
        d = np.array([0.6, -0.8, 0.0])
        mu = np.array([2.0, 3.0, -1.0])
        x = np.vstack([mu + d, mu - d, -mu + d, -mu - d])
        y = np.array([0, 0, 1, 1])
        s = class_stats(x, y, 2)
        assert nc1_within_class(x, y, s) == pytest.approx(float(d @ d), abs=1e-12)

    def test_translation_invariant(self, rng):
        x, y = _cloud(rng, [20, 20, 20])
        shift = rng.standard_normal(x.shape[1]) * 10
        a = nc1_within_class(x, y, class_stats(x, y, 3))
        b = nc1_within_class(x + shift, y, class_stats(x + shift, y, 3))
        assert a == pytest.approx(b, rel=1e-9)

    def test_orthogonal_invariant(self, rng):
        x, y = _cloud(rng, [15, 9, 4])
        q, _ = np.linalg.qr(rng.standard_normal((x.shape[1], x.shape[1])))
        a = nc1_within_class(x, y, class_stats(x, y, 3))
        b = nc1_within_class(x @ q, y, class_stats(x @ q, y, 3))
        assert a == pytest.approx(b, rel=1e-9)

    def test_collapsed_features_give_zero(self):
        x = np.repeat(np.array([[1.0, 2.0], [-3.0, 0.5]]), 5, axis=0)
        y = np.repeat([0, 1], 5)
        assert nc1_within_class(x, y, class_stats(x, y, 2)) == 0.0


class TestCenteredCosines:
    def test_etf_rows_hit_target(self):
        frame = make_etf(16, 10, seed=0)
        cos = centered_pairwise_cosines(frame, np.zeros(16))
        off = cos[np.triu_indices(10, k=1)]
        np.testing.assert_allclose(off, -1.0 / 9.0, atol=1e-9)
        np.testing.assert_allclose(np.diag(cos), 1.0)

    def test_symmetry_and_centering(self, rng):
        rows = rng.standard_normal((6, 4))
        center = rows.mean(axis=0)
        cos = centered_pairwise_cosines(rows, center)
        np.testing.assert_allclose(cos, cos.T, atol=1e-12)
        # centering matters: opposite points around the center have cosine -1
        two = np.array([[1.0, 0.0], [3.0, 0.0]])
        cos2 = centered_pairwise_cosines(two, np.array([2.0, 0.0]))
        assert cos2[0, 1] == pytest.approx(-1.0)

    def test_row_equal_to_center_raises_with_index(self):
        rows = np.array([[1.0, 0.0], [0.5, 0.5], [2.0, 1.0]])
        with pytest.raises(DegenerateInputError, match="row 1"):
            centered_pairwise_cosines(rows, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("bad", [1e160, np.inf, np.nan])
    def test_row_without_finite_norm_raises_with_index(self, bad):
        rows = np.array([[1.0, 0.0], [bad, 0.5], [2.0, 1.0]])
        # 1e160 is finite, but its square overflows: the norm is inf, and
        # its unit vector would read 0, a perfect right angle to every row
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DegenerateInputError, match="row 1"):
            centered_pairwise_cosines(rows, np.zeros(2))


class TestStdCosines:
    def test_known_spread(self):
        # pairwise cosines {0, 0, 1}: population std is sqrt(2)/3
        cos = np.eye(3)
        cos[0, 1] = cos[1, 0] = 0.0
        cos[0, 2] = cos[2, 0] = 0.0
        cos[1, 2] = cos[2, 1] = 1.0
        assert std_of_pairwise_cosines(cos) == pytest.approx(np.sqrt(2.0) / 3.0)

    def test_two_classes_single_pair(self):
        cos = np.array([[1.0, -0.4], [-0.4, 1.0]])
        assert std_of_pairwise_cosines(cos) == 0.0

    def test_rotation_and_scale_invariance_through_cosines(self, rng):
        rows = rng.standard_normal((5, 7))
        q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        a = std_of_pairwise_cosines(centered_pairwise_cosines(rows, np.zeros(7)))
        b = std_of_pairwise_cosines(centered_pairwise_cosines(3.7 * rows @ q, np.zeros(7)))
        assert a == pytest.approx(b, abs=1e-10)

    def test_equiangular_input_gives_zero(self):
        frame = make_etf(8, 5, seed=2)
        cos = centered_pairwise_cosines(frame, np.zeros(8))
        assert std_of_pairwise_cosines(cos) < 1e-12


class TestIcpa:
    def test_etf_angle_for_ten_classes(self):
        frame = make_etf(16, 10, seed=1)
        cos = centered_pairwise_cosines(frame, np.zeros(16))
        angles = icpa_degrees(cos)
        off = angles[np.triu_indices(10, k=1)]
        assert np.max(np.abs(off - np.degrees(np.arccos(-1 / 9)))) < 1e-6
        np.testing.assert_array_equal(np.diag(angles), 0.0)

    def test_clips_out_of_range_cosines(self):
        cos = np.array([[1.0, 1.0 + 1e-12], [1.0 + 1e-12, 1.0]])
        angles = icpa_degrees(cos)
        assert np.all(np.isfinite(angles))
        assert angles[0, 1] == pytest.approx(0.0)


class TestDelta:
    def _stats(self, mu):
        # synthesize stats with mu_g = 0 by feeding one sample per class
        c, d = mu.shape
        return class_stats(mu - mu.mean(axis=0), np.arange(c), c)

    def test_equal_geometries_give_zero(self, rng):
        mu = rng.standard_normal((4, 6))
        s = self._stats(mu)
        centered = s.mu - s.mu_g
        assert self_duality_delta(centered, s) < 1e-12

    def test_opposite_geometries_give_two(self, rng):
        mu = rng.standard_normal((4, 6))
        s = self._stats(mu)
        centered = s.mu - s.mu_g
        assert self_duality_delta(-centered, s) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0])
    def test_scale_invariance(self, rng, scale):
        mu = rng.standard_normal((5, 3))
        w = rng.standard_normal((5, 3))
        s = self._stats(mu)
        base = self_duality_delta(w, s)
        assert self_duality_delta(scale * w, s) == pytest.approx(base, abs=1e-12)

    def test_zero_classifier_rejected(self, rng):
        s = self._stats(rng.standard_normal((3, 4)))
        with pytest.raises(DegenerateInputError):
            self_duality_delta(np.zeros((3, 4)), s)

    def test_overflowing_norms_rejected(self, rng):
        w = rng.standard_normal((3, 4))
        s = self._stats(w)
        with np.errstate(over="ignore"):
            with pytest.raises(DegenerateInputError, match="classifier"):
                self_duality_delta(1e160 * w, s)
            with pytest.raises(DegenerateInputError, match="centered-mean"):
                self_duality_delta(w, self._stats(1e160 * w))


class TestNccAgreement:
    def test_exact_means_agree_fully(self, rng):
        x, y = _cloud(rng, [30, 12, 6], spread=0.1)
        s = class_stats(x, y, 3)
        # rank by -||x - mu_k||^2 == linear in x with w = 2 mu, b = -||mu||^2
        w = 2.0 * s.mu
        b = -np.sum(s.mu * s.mu, axis=1)
        assert ncc_agreement(x, w, b, s) == 1.0

    def test_ties_break_to_lowest_index(self):
        # both classifier rows and both means are identical: everything ties
        x = np.array([[1.0, 1.0], [0.0, 2.0]])
        y = np.array([0, 1])
        s = class_stats(np.vstack([x, x]), np.array([0, 1, 1, 0]), 2)
        w = np.ones((2, 2))
        assert ncc_agreement(x, w, None, s) == 1.0

    def test_single_sample(self, rng):
        mu = rng.standard_normal((2, 3))
        s = class_stats(np.vstack([mu, mu]), np.array([0, 1, 0, 1]), 2)
        x = s.mu[1:2] + 0.01
        assert ncc_agreement(x, s.mu, None, s) in (0.0, 1.0)


class TestReport:
    def test_full_report_round_trip(self, rng, tmp_path):
        x, y = _cloud(rng, [25, 10, 5, 3])
        w = rng.standard_normal((4, x.shape[1]))
        rep = nc_report(x, y, w, None, 4)
        write_report(tmp_path, rep)
        np.testing.assert_equal(json.loads((tmp_path / "report.json").read_text()), rep.to_dict())

    def test_partial_coverage_rejected(self, rng):
        # samples of classes 0 and 1 only, four classifier rows
        x, y = _cloud(rng, [10, 10])
        w = rng.standard_normal((4, x.shape[1]))
        with pytest.raises(ContractError, match="class 2 has no sample"):
            nc_report(x, y, w, None, 4)

    def test_collapsed_input_reproduces_targets(self):
        # features sitting exactly on ETF vertices with the matching classifier
        frame = make_etf(16, 10, seed=4)
        x = np.repeat(frame, 3, axis=0)
        y = np.repeat(np.arange(10), 3)
        rep = nc_report(x, y, frame, None, 10)
        assert rep.nc1 < 1e-28
        assert rep.std_cos_mu < 1e-9 and rep.std_cos_w < 1e-9
        assert rep.delta < 1e-9
        assert rep.ncc_agreement == 1.0
        off = rep.icpa_mu[np.triu_indices(10, k=1)]
        assert np.max(np.abs(off - np.degrees(np.arccos(-1 / 9)))) < 1e-6

    def test_overflowing_features_raise_not_collapse(self, rng):
        x, y = _cloud(rng, [6, 5, 4])
        w = rng.standard_normal((3, 5))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DegenerateInputError):
            nc_report(1e160 * x, y, w, None, 3)

    def test_weights_row_count_checked(self, rng):
        x, y = _cloud(rng, [5, 5])
        for shape in ((3, x.shape[1]), (2, x.shape[1] + 1)):
            with pytest.raises(ContractError, match="nc_report: weights"):
                nc_report(x, y, np.ones(shape), None, 2)


@given(st.integers(0, 10_000))
def test_nc1_nonnegative(seed):
    r = np.random.default_rng(seed)
    n = int(r.integers(2, 30))
    x = r.standard_normal((n + 3, 4))
    # one sample of each class first: a batch must hold every class
    y = np.concatenate([np.arange(3), r.integers(0, 3, size=n)])
    s = class_stats(x, y, 3)
    assert nc1_within_class(x, y, s) >= 0.0
