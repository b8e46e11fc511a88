"""Long-tail profiles, mixture sampling, augmentation, batching, CSV IO."""

import numpy as np
import pytest

from collapselab.data import (
    Dataset,
    ViewAugmenter,
    batches,
    class_means,
    gen_gaussian_mixture,
    load_csv,
    long_tail_counts,
    read_numeric_csv,
    save_csv,
    write_csv,
)
from collapselab.errors import ConfigError, ContractError, ParseError, ShapeError


class TestLongTailCounts:
    def test_reference_profile(self):
        counts = long_tail_counts(10, 500, 100.0)
        np.testing.assert_array_equal(counts, [500, 300, 180, 108, 65, 39, 23, 14, 8, 5])

    def test_head_and_tail_anchors(self):
        for beta in (1.0, 10.0, 100.0):
            counts = long_tail_counts(6, 400, beta)
            assert counts[0] == 400
            assert abs(counts[-1] - 400 / beta) <= 0.5

    def test_monotone_nonincreasing(self):
        counts = long_tail_counts(12, 350, 50.0)
        assert np.all(np.diff(counts) <= 0)

    def test_rounds_half_up(self):
        # C=3, n_max=10, beta=4: raw tail of class 1 is 10/2 = 5, class 2 is 2.5
        counts = long_tail_counts(3, 10, 4.0)
        np.testing.assert_array_equal(counts, [10, 5, 3])

    def test_balanced_when_beta_one(self):
        counts = long_tail_counts(5, 77, 1.0)
        np.testing.assert_array_equal(counts, 77)

    def test_starved_tail_rejected(self):
        with pytest.raises(ConfigError, match="starves"):
            long_tail_counts(4, 10, 100.0)


class TestClassMeans:
    def test_etf_placement_geometry(self):
        mu = class_means(5, 8, "etf", 4.0, 7)
        np.testing.assert_allclose(np.linalg.norm(mu, axis=1), 4.0, atol=1e-9)
        unit = mu / 4.0
        cos = unit @ unit.T
        off = cos[np.triu_indices(5, k=1)]
        np.testing.assert_allclose(off, -0.25, atol=1e-9)

    def test_random_placement_radius_and_distinct(self):
        mu = class_means(6, 3, "random", 2.0, 7)
        np.testing.assert_allclose(np.linalg.norm(mu, axis=1), 2.0, atol=1e-12)
        d = np.linalg.norm(mu[:, None] - mu[None, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() > 1e-6

    def test_placement_seed_fixes_means(self):
        a = class_means(4, 6, "etf", 4.0, 3)
        b = class_means(4, 6, "etf", 4.0, 3)
        c = class_means(4, 6, "etf", 4.0, 4)
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(a, c)


class TestMixture:
    MEANS = class_means(3, 5, "etf", 4.0, 7)

    def test_counts_honored_and_grouped(self):
        counts = np.array([40, 20, 10])
        ds = gen_gaussian_mixture(self.MEANS, counts, 1.0, seed=0)
        np.testing.assert_array_equal(ds.counts(3), counts)
        np.testing.assert_array_equal(ds.y, np.repeat([0, 1, 2], counts))

    def test_sample_means_near_centers(self):
        counts = np.array([4000, 4000, 4000])
        ds = gen_gaussian_mixture(self.MEANS, counts, 1.0, seed=1)
        for c in range(3):
            got = ds.x[ds.y == c].mean(axis=0)
            # CLT: each coordinate off by ~ std/sqrt(n); allow 5 sigma
            assert np.max(np.abs(got - self.MEANS[c])) < 5.0 / np.sqrt(4000)

    def test_deterministic_per_seed(self):
        counts = np.array([5, 4, 3])
        a = gen_gaussian_mixture(self.MEANS, counts, 1.0, seed=9)
        b = gen_gaussian_mixture(self.MEANS, counts, 1.0, seed=9)
        c = gen_gaussian_mixture(self.MEANS, counts, 1.0, seed=10)
        np.testing.assert_array_equal(a.x, b.x)
        assert not np.allclose(a.x, c.x)

    def test_train_and_test_share_means(self):
        # different sampling seeds around the same means: per-class means agree
        counts = np.array([3000, 3000, 3000])
        tr = gen_gaussian_mixture(self.MEANS, counts, 1.0, seed=0)
        te = gen_gaussian_mixture(self.MEANS, counts, 1.0, seed=1)
        for c in range(3):
            gap = tr.x[tr.y == c].mean(axis=0) - te.x[te.y == c].mean(axis=0)
            assert np.linalg.norm(gap) < 0.2

    def test_zero_count_rejected(self):
        with pytest.raises(ContractError):
            gen_gaussian_mixture(self.MEANS, np.array([5, 0, 3]), 1.0, seed=0)
        with pytest.raises(ShapeError):
            gen_gaussian_mixture(self.MEANS, np.array([5, 3]), 1.0, seed=0)


class TestAugmenter:
    def test_noise_scale(self):
        aug = ViewAugmenter(noise_std=0.5, mask_prob=0.0, rng=np.random.default_rng(0))
        x = np.zeros((200, 100))
        out = aug.apply(x)
        assert out.std() == pytest.approx(0.5, rel=0.1)

    def test_mask_fraction(self):
        aug = ViewAugmenter(noise_std=0.0, mask_prob=0.3, rng=np.random.default_rng(1))
        x = np.ones((200, 100))
        out = aug.apply(x)
        assert np.mean(out == 0.0) == pytest.approx(0.3, abs=0.02)

    def test_identity_when_disabled(self):
        aug = ViewAugmenter(noise_std=0.0, mask_prob=0.0, rng=np.random.default_rng(2))
        x = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(aug.apply(x), x)

    def test_pair_views_differ(self):
        aug = ViewAugmenter(noise_std=0.5, mask_prob=0.1, rng=np.random.default_rng(3))
        v1, v2 = aug.pair(np.zeros((4, 6)))
        assert not np.array_equal(v1, v2)


class TestBatches:
    def _tiny(self):
        return Dataset(x=np.arange(22.0).reshape(11, 2), y=np.arange(11) % 3)

    def test_replay_identical(self):
        ds = self._tiny()
        a = list(batches(ds, 4, seed=5, epoch=2))
        b = list(batches(ds, 4, seed=5, epoch=2))
        for (xa, ya), (xb, yb) in zip(a, b):
            np.testing.assert_array_equal(xa, xb)
            np.testing.assert_array_equal(ya, yb)

    def test_epochs_reshuffle(self):
        ds = self._tiny()
        a = np.vstack([x for x, _ in batches(ds, 4, seed=5, epoch=0)])
        b = np.vstack([x for x, _ in batches(ds, 4, seed=5, epoch=1)])
        assert not np.array_equal(a, b)

    def test_covers_every_sample_once(self):
        ds = self._tiny()
        xs = np.vstack([x for x, _ in batches(ds, 4, seed=0, epoch=0)])
        assert xs.shape == ds.x.shape
        np.testing.assert_array_equal(np.sort(xs[:, 0]), ds.x[:, 0])

    def test_short_final_batch(self):
        ds = self._tiny()
        sizes = [x.shape[0] for x, _ in batches(ds, 4, seed=0, epoch=0)]
        assert sizes == [4, 4, 3]

    def test_oversized_batch_is_whole_set(self):
        ds = self._tiny()
        out = list(batches(ds, 100, seed=0, epoch=0))
        assert len(out) == 1 and out[0][0].shape[0] == 11

    def test_validation(self):
        with pytest.raises(ContractError):
            list(batches(self._tiny(), 0, seed=0, epoch=0))
        with pytest.raises(ContractError):
            list(batches(Dataset(x=np.zeros((0, 2)), y=np.zeros(0, dtype=int)), 2, seed=0, epoch=0))


class TestCsv:
    def test_round_trip_exact(self, tmp_path, rng):
        ds = Dataset(x=rng.standard_normal((7, 3)), y=rng.integers(0, 3, size=7))
        path = tmp_path / "d.csv"
        save_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.x, ds.x)
        np.testing.assert_array_equal(back.y, ds.y)

    def test_write_csv_formats_special_values(self, tmp_path):
        path = tmp_path / "m.csv"
        matrix = np.array([[np.nan, -0.0, 5e-324], [np.inf, -np.inf, 1.797e308]])
        write_csv(path, ["a", "b", "c"], matrix, "%.17g")
        assert path.read_text() == "a,b,c\nnan,-0,4.9406564584124654e-324\ninf,-inf,1.797e+308\n"

    def test_labels_kept_as_written(self, tmp_path):
        # no base is guessed and no class is required: the caller decides both
        path = tmp_path / "d.csv"
        for labels in ([1, 2, 3, 3], [2, 0, 2], [4]):
            path.write_text("".join(f"1.0,{label}\n" for label in labels))
            np.testing.assert_array_equal(load_csv(path).y, labels)

    def test_header_detected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n")
        header, mat = read_numeric_csv(path)
        assert header == ["f0", "f1", "label"]
        assert mat.shape == (1, 3)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0\n")
        with pytest.raises(ParseError, match="line 2"):
            read_numeric_csv(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,0\n3.0,oops,1\n")
        with pytest.raises(ParseError, match="line 2.*oops"):
            read_numeric_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="no data"):
            read_numeric_csv(path)

    def test_non_integer_label_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,0.5\n")
        with pytest.raises(ParseError, match="non-integer label"):
            load_csv(path)
        # beyond int64: rejected before the cast, which would warn and wrap
        for label in ("inf", "-inf", "1e30", "-1e30"):
            path.write_text(f"1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,{label}\n")
            with pytest.raises(ParseError, match="data row 3 is out of the int64 range"):
                load_csv(path)

    def test_negative_label_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,label\n1.0,0\n2.0,-1\n3.0,-2\n")
        with pytest.raises(ParseError, match="negative label -1 in data row 2"):
            load_csv(path)

    def test_needs_two_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0\n")
        with pytest.raises(ParseError, match="label column"):
            load_csv(path)
