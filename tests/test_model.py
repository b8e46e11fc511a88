"""Network init, forward stack, SGD, and parameter snapshots."""

import json
from pathlib import Path

import numpy as np
import pytest

import collapselab.autodiff as ad
from collapselab.config import parse_config_file, with_overrides
from collapselab.errors import ConfigError, ContractError, ShapeError, TrainingDivergedError
from collapselab.harness import build_datasets, run_train
from collapselab.losses import hycon_batch, mean_cross_entropy
from collapselab.model import (
    ArchSpec,
    NetworkParams,
    encode,
    forward,
    init_params,
    load_params,
    save_params,
    sgd_step,
)

ROOT = Path(__file__).resolve().parent.parent
SMALL = ArchSpec(input_dim=6, num_classes=3, hidden_dims=(8,), feature_dim=5, proj_dim=4, predictor_hidden=4)
# two hidden layers of one width: encode must not give them one scratch array
TWIN = ArchSpec(input_dim=6, num_classes=3, hidden_dims=(8, 8), feature_dim=5, proj_dim=4, predictor_hidden=4)


class TestInit:
    def test_he_scale_on_wide_layer(self):
        arch = ArchSpec(input_dim=100, num_classes=3, hidden_dims=(100,), feature_dim=5)
        params = init_params(arch, seed=0)
        w = params.encoder[0][0].data  # (100, 100), relu follows: std sqrt(2/100)
        assert w.std() == pytest.approx(np.sqrt(2.0 / 100.0), rel=0.1)
        assert abs(w.mean()) < 0.02

    def test_classifier_starts_near_zero(self):
        params = init_params(ArchSpec(input_dim=8, num_classes=50, hidden_dims=(8,), feature_dim=40), seed=1)
        assert params.classifier_w.data.std() == pytest.approx(1e-2, rel=0.1)
        np.testing.assert_array_equal(params.classifier_b.data, 0.0)

    def test_biases_zero(self):
        params = init_params(SMALL, seed=2)
        for name, node in params.named_parameters():
            if name.endswith(".b"):
                np.testing.assert_array_equal(node.data, 0.0)

    def test_deterministic_per_seed(self):
        a = init_params(SMALL, seed=7)
        b = init_params(SMALL, seed=7)
        c = init_params(SMALL, seed=8)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)
        assert any(
            not np.array_equal(pa.data, pc.data)
            for (_, pa), (_, pc) in zip(a.named_parameters(), c.named_parameters())
        )

    def test_arch_validation(self):
        with pytest.raises(ConfigError):
            ArchSpec(input_dim=0, num_classes=3)
        with pytest.raises(ConfigError):
            ArchSpec(input_dim=4, num_classes=3, proj1_hidden=-1)

    def test_optional_proj1_hidden_changes_depth(self):
        flat = init_params(SMALL, seed=0)
        deep_arch = ArchSpec(**{**SMALL.__dict__, "proj1_hidden": 6})
        deep = init_params(deep_arch, seed=0)
        assert len(flat.proj1) == 1 and len(deep.proj1) == 2


class TestForward:
    def test_identity_encoder_hand_check(self):
        arch = ArchSpec(input_dim=3, num_classes=2, hidden_dims=(3,), feature_dim=3, proj_dim=3, predictor_hidden=3)
        params = init_params(arch, seed=0)
        for w, b in params.encoder:
            w.data = np.eye(3)
            b.data = np.zeros(3)
        params.classifier_w.data = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        params.classifier_b.data = np.array([0.5, -0.5])
        x = np.array([[1.0, 2.0, 3.0]])  # positive so relu is transparent
        out = forward(params, x)
        np.testing.assert_allclose(out.features.data, x)
        np.testing.assert_allclose(out.logits.data, [[1.5, 3.5]])

    def test_shapes(self):
        params = init_params(SMALL, seed=3)
        out = forward(params, np.ones((7, 6)))
        assert out.features.shape == (7, 5)
        assert out.z.shape == (7, 4)
        assert out.h.shape == (7, 4)
        assert out.logits.shape == (7, 3)

    def test_input_validation(self):
        params = init_params(SMALL, seed=3)
        for run in (forward, encode):
            with pytest.raises(ShapeError, match="input shape"):
                run(params, np.ones((7, 5)))
            with pytest.raises(ShapeError, match="input shape"):
                run(params, np.ones(6))

    @pytest.mark.parametrize("config", ["default", "tiny"])
    def test_encode_is_bitwise_forward_features_on_config_splits(self, config):
        cfg = parse_config_file(ROOT / "configs" / f"{config}.config")
        train, test = build_datasets(cfg)
        params = init_params(cfg.arch, seed=1)
        # each result must survive the later calls, on either split
        splits = (train.x, test.x, train.x)
        encoded = [encode(params, x) for x in splits]
        for x, got in zip(splits, encoded):
            assert np.array_equal(got, forward(params, x).features.data), x.shape

    def test_encode_is_bitwise_forward_features_on_odd_inputs(self, rng):
        with_nan = rng.standard_normal((4, 6))
        with_nan[2, 3] = np.nan
        # row counts 1, 9, 4, 20: two of the splits are larger than any seen before
        inputs = (
            rng.standard_normal((1, 6)),
            np.asfortranarray(rng.standard_normal((9, 6))),
            with_nan,
            rng.standard_normal((20, 6)),
        )
        for arch in (SMALL, TWIN):
            params = init_params(arch, seed=6)
            for x in inputs:
                want = forward(params, x).features.data
                assert np.array_equal(encode(params, x), want, equal_nan=True), (arch.hidden_dims, x.shape)
            assert np.all(np.isnan(encode(params, with_nan)[2]))
            assert np.all(np.isfinite(np.delete(encode(params, with_nan), 2, axis=0)))

    def test_encode_writes_into_neither_input_nor_parameters(self, rng):
        params = init_params(SMALL, seed=6)
        x = rng.standard_normal((5, 6))
        before = [x.copy()] + [node.data.copy() for _, node in params.named_parameters()]
        encode(params, x)
        after = [x] + [node.data for _, node in params.named_parameters()]
        for a, b in zip(before, after):
            assert np.array_equal(a, b)

    def test_full_stack_gradient_matches_finite_differences(self, rng):
        params = init_params(SMALL, seed=4)
        x = np.abs(rng.standard_normal((5, 6))) + 0.3
        y = rng.integers(0, 3, size=5)
        nodes = [p for _, p in params.named_parameters()]

        def build():
            return mean_cross_entropy(forward(params, x).logits, y)

        assert ad.grad_check(build, nodes) < 1e-4

    def test_two_layer_projection_gradient_matches_finite_differences(self, rng):
        params = init_params(ArchSpec(**{**SMALL.__dict__, "proj1_hidden": 6}), seed=4)
        x1, x2 = (np.abs(rng.standard_normal((5, 6))) + 0.3 for _ in range(2))
        y = np.array([0, 1, 2, 0, 1])
        targets = [ad.constant(forward(params, x).z.data.copy()) for x in (x1, x2)]
        # the inner relu of the projection is live: some units pass, some do not
        (w0, b0), _ = params.proj1
        pre = encode(params, x1) @ w0.data.T + b0.data
        assert np.any(pre > 0) and np.any(pre < 0)
        assert np.abs(pre).min() > 1e-3

        def build():
            v1, v2 = forward(params, x1), forward(params, x2)
            return hycon_batch(v1.h, v2.h, v1.z, v2.z, y, target_z1=targets[0], target_z2=targets[1])

        nodes = [p for _, p in params.named_parameters()]
        grads = ad.backward(build())
        assert all(np.any(grads[p] != 0.0) for layer in params.proj1 for p in layer)
        assert ad.grad_check(build, nodes) < 1e-5

    def test_weight_sharing_accumulates_gradients(self, rng):
        params = init_params(SMALL, seed=5)
        x1 = np.abs(rng.standard_normal((4, 6))) + 0.3
        x2 = np.abs(rng.standard_normal((4, 6))) + 0.3
        y = rng.integers(0, 3, size=4)
        w0 = params.encoder[0][0]

        both = ad.backward(
            ad.add(
                mean_cross_entropy(forward(params, x1).logits, y),
                mean_cross_entropy(forward(params, x2).logits, y),
            )
        )
        one = ad.backward(mean_cross_entropy(forward(params, x1).logits, y))
        two = ad.backward(mean_cross_entropy(forward(params, x2).logits, y))
        np.testing.assert_allclose(both[w0], one[w0] + two[w0], atol=1e-12)


def _flat(params, value_of) -> np.ndarray:
    """One vector in theta's layout: ``value_of(k)`` fills the k-th parameter."""
    named = params.named_parameters()
    return np.concatenate([np.full(p.data.size, value_of(k)) for k, (_, p) in enumerate(named)])


def _assert_views_theta(params) -> None:
    """Every parameter array is the read-only view of its slice of theta, in order."""
    base = params.theta.__array_interface__["data"][0]
    start = 0
    for name, p in params.named_parameters():
        assert np.shares_memory(p.data, params.theta), name
        assert p.data.__array_interface__["data"][0] == base + 8 * start, name
        assert not p.data.flags.writeable, name
        start += p.data.size
    assert start == params.theta.size


class TestSgd:
    def test_hand_computed_two_steps(self):
        params = init_params(SMALL, seed=0)
        params.set_theta(np.ones(params.theta.size))
        # parameter k gets the gradient k, so the layout of every vector shows
        grads = {p: np.full(p.shape, float(k)) for k, (_, p) in enumerate(params.named_parameters())}
        v1 = sgd_step(params, grads, np.zeros(params.theta.size), lr=0.1, momentum=0.5, weight_decay=0.1)
        # v1 = 0.5*0 + k + 0.1*1 ; theta = 1 - 0.1*v1
        assert np.array_equal(v1, _flat(params, lambda k: 0.5 * 0.0 + k + 0.1 * 1.0))
        assert np.array_equal(params.theta, 1.0 - 0.1 * v1)
        theta1 = params.theta
        halved = {p: g / 2 for p, g in grads.items()}
        v2 = sgd_step(params, halved, v1, lr=0.1, momentum=0.5, weight_decay=0.1)
        # v2 = 0.5*v1 + k/2 + 0.1*theta1 ; theta = theta1 - 0.1*v2
        assert np.array_equal(v2, 0.5 * v1 + _flat(params, lambda k: k / 2) + 0.1 * theta1)
        assert np.array_equal(params.theta, theta1 - 0.1 * v2)
        # encoder.0.b is parameter 1: v1 = 1.1, theta = 0.89 ; v2 = 0.55 + 0.5 + 0.089 = 1.139
        np.testing.assert_allclose(params.encoder[0][1].data, 0.89 - 0.1139)

    def test_quadratic_bowl_converges(self, rng):
        params = init_params(SMALL, seed=1)
        before = params.theta.copy()
        target = rng.standard_normal(params.classifier_w.shape)
        velocity = np.zeros_like(params.theta)
        for _ in range(500):
            loss = ad.mean_all(ad.square(ad.sub(params.classifier_w, ad.constant(target))))
            velocity = sgd_step(params, ad.backward(loss), velocity, lr=0.5, momentum=0.9, weight_decay=0.0)
        assert float(np.mean((params.classifier_w.data - target) ** 2)) < 1e-8
        # every other parameter had no gradient and no decay: not one bit moved
        others = np.ones(params.theta.size, dtype=bool)
        others[-SMALL.num_classes * (SMALL.feature_dim + 1) : -SMALL.num_classes] = False
        assert np.array_equal(params.theta[others], before[others])

    def test_missing_grad_still_decays(self):
        params = init_params(SMALL, seed=2)
        theta0 = params.theta
        v = sgd_step(params, {}, np.zeros_like(theta0), lr=0.1, momentum=0.0, weight_decay=0.5)
        assert np.array_equal(v, 0.5 * theta0)
        assert np.array_equal(params.theta, theta0 - 0.1 * (0.5 * theta0))

    def test_nonfinite_gradient_aborts_before_mutation(self):
        params = init_params(SMALL, seed=3)
        theta0, copy0 = params.theta, params.theta.copy()
        velocity = np.full(theta0.size, 0.25)
        grads = {p: np.ones(p.shape) for _, p in params.named_parameters()}
        grads[params.proj2[1][1]] = np.array([1.0, np.nan, 1.0, 1.0])
        with pytest.raises(TrainingDivergedError, match=r"proj2\.1\.b"):
            sgd_step(params, grads, velocity, lr=0.01, momentum=0.9, weight_decay=5e-3)
        assert params.theta is theta0 and np.array_equal(theta0, copy0)
        assert np.array_equal(velocity, np.full(theta0.size, 0.25))
        _assert_views_theta(params)

    def test_step_leaves_old_graph_valid(self, rng):
        # theta is replaced, never written: a loss built pre-step keeps its value
        params = init_params(SMALL, seed=4)
        logits = forward(params, rng.standard_normal((5, 6))).logits
        loss = mean_cross_entropy(logits, np.array([0, 1, 2, 0, 1]))
        before, old = loss.item(), params.theta
        kept = old.copy()
        sgd_step(params, ad.backward(loss), np.zeros_like(old), lr=0.5, momentum=0.0, weight_decay=0.0)
        assert loss.item() == before
        assert params.theta is not old and np.array_equal(old, kept)
        assert not np.array_equal(params.theta, old)


class TestTheta:
    def test_theta_is_read_only(self):
        params = init_params(SMALL, seed=5)
        with pytest.raises(ValueError, match="read-only"):
            params.theta[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            params.classifier_w.data[0, 0] = 1.0

    def test_set_theta_keeps_the_vector_without_copying(self):
        params = init_params(SMALL, seed=5)
        theta = np.arange(params.theta.size, dtype=np.float64)
        params.set_theta(theta)
        assert params.theta is theta and not theta.flags.writeable
        assert np.array_equal(params.encoder[0][0].data, np.arange(48.0).reshape(8, 6))
        _assert_views_theta(params)

    @pytest.mark.parametrize(
        "make",
        [lambda n: np.zeros(n - 1), lambda n: np.zeros((1, n)), lambda n: np.zeros(n, dtype=np.int64)],
        ids=["short", "matrix", "int"],
    )
    def test_set_theta_rejects_another_layout(self, make):
        params = init_params(SMALL, seed=5)
        theta = params.theta
        with pytest.raises(ShapeError, match="set_theta"):
            params.set_theta(make(theta.size))
        assert params.theta is theta
        _assert_views_theta(params)

    def test_parameters_view_theta_after_init_step_load_and_restore(self, tmp_path):
        params = init_params(SMALL, seed=6)
        _assert_views_theta(params)
        grads = {p: np.ones(p.shape) for _, p in params.named_parameters()}
        sgd_step(params, grads, np.zeros_like(params.theta), lr=0.1, momentum=0.9, weight_decay=0.1)
        _assert_views_theta(params)
        save_params(params, tmp_path / "snap")
        loaded = load_params(tmp_path / "snap")
        _assert_views_theta(loaded)
        assert np.array_equal(loaded.theta, params.theta)
        # configs/tiny.config at lr=30 diverges in its second epoch: theta goes back to the first's
        cfg = with_overrides(parse_config_file(ROOT / "configs" / "tiny.config"), lr=30.0)
        result = run_train(cfg)
        assert result.diverged and len(result.logs) == 1
        _assert_views_theta(result.params)
        # the restored theta is the one the first epoch's features came from
        assert np.array_equal(encode(result.params, build_datasets(cfg)[0].x), result.features.x)


class TestSnapshots:
    def test_round_trip_bitwise(self, tmp_path):
        params = init_params(SMALL, seed=11)
        save_params(params, tmp_path / "snap")
        again = load_params(tmp_path / "snap")
        assert again.arch == params.arch
        for (na, pa), (nb, pb) in zip(params.named_parameters(), again.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_version_mismatch_rejected(self, tmp_path):
        save_params(init_params(SMALL, seed=0), tmp_path / "snap")
        manifest = tmp_path / "snap" / "manifest.json"
        raw = json.loads(manifest.read_text())
        raw["format_version"] = 999
        manifest.write_text(json.dumps(raw))
        with pytest.raises(ContractError, match="version"):
            load_params(tmp_path / "snap")

    def test_manifest_arch_block_follows_archspec(self, tmp_path):
        save_params(init_params(SMALL, seed=0), tmp_path / "snap")
        raw = json.loads((tmp_path / "snap" / "manifest.json").read_text())
        assert list(raw["arch"].items()) == [
            ("input_dim", 6),
            ("num_classes", 3),
            ("hidden_dims", [8]),
            ("feature_dim", 5),
            ("proj_dim", 4),
            ("proj1_hidden", 0),
            ("predictor_hidden", 4),
        ]

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ContractError, match="manifest"):
            load_params(tmp_path)

    def test_missing_array_file_rejected(self, tmp_path):
        save_params(init_params(SMALL, seed=0), tmp_path / "snap")
        (tmp_path / "snap" / "proj1_0_b.npy").unlink()
        with pytest.raises(ContractError, match="proj1_0_b.npy"):
            load_params(tmp_path / "snap")

    def test_loaded_params_train(self, tmp_path, rng):
        # a snapshot is a full restart point: forward and backward still work
        params = init_params(SMALL, seed=12)
        save_params(params, tmp_path / "s")
        again = load_params(tmp_path / "s")
        x = np.abs(rng.standard_normal((3, 6))) + 0.1
        y = np.array([0, 1, 2])
        loss = mean_cross_entropy(forward(again, x).logits, y)
        grads = ad.backward(loss)
        assert any(np.any(g != 0) for g in grads.values())
