"""Acceptance gate: each test pins one end-to-end capability of the
package, with explicit tolerances and a runtime budget asserted inside.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
capability. The comparative tests share one 12-run training matrix
(3 seeds x {ce at beta 1/10/100, allnc at beta 100}, full-size config)
built once per session; everything else is self-contained.

Budgets are asserted inside each test. The whole module takes about a
minute on a laptop-class core, dominated by the training matrix.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

import collapselab.autodiff as ad
import collapselab.losses as L
from collapselab.config import TrainConfig, with_overrides
from collapselab.etf import etf_deviation, make_etf, rho_matrix
from collapselab.harness import run_train
from collapselab.model import ArchSpec, forward, init_params
from collapselab.ncmetrics import class_stats, ncc_agreement

SEEDS = (0, 1, 2)
BETAS = (1.0, 10.0, 100.0)


# ---------------------------------------------------------------------------
# shared training matrix


@dataclass(frozen=True)
class RunRecord:
    std_mu: float
    std_w: float
    delta: float
    ncc: float
    few: float
    overall: float
    diverged: bool


@dataclass(frozen=True)
class Matrix:
    records: dict
    elapsed: float

    def get(self, mode: str, beta: float, seed: int) -> RunRecord:
        return self.records[(mode, beta, seed)]


@pytest.fixture(scope="session")
def matrix() -> Matrix:
    t0 = time.monotonic()
    records = {}
    for seed in SEEDS:
        for mode, beta in [("ce", b) for b in BETAS] + [("allnc", 100.0)]:
            cfg = with_overrides(TrainConfig(), mode=mode, beta=beta, seed=seed)
            result = run_train(cfg)
            assert not result.diverged, f"{mode} beta={beta} seed={seed} diverged"
            rep, acc = result.final_report, result.final_accuracy
            records[(mode, beta, seed)] = RunRecord(
                std_mu=rep.std_cos_mu,
                std_w=rep.std_cos_w,
                delta=rep.delta,
                ncc=rep.ncc_agreement,
                few=acc.few,
                overall=acc.overall,
                diverged=result.diverged,
            )
    return Matrix(records=records, elapsed=time.monotonic() - t0)


# ---------------------------------------------------------------------------
# 1. simplex frame geometry


def test_etf_geometry_and_icpa():
    t0 = time.monotonic()
    for c in (2, 4, 10, 16):
        frame = make_etf(2 * c, c, seed=0)
        assert etf_deviation(frame) < 1e-9, f"C={c} frame off target"
    frame = make_etf(20, 10, seed=0)
    gram = frame @ frame.T
    angles = np.degrees(np.arccos(np.clip(gram, -1.0, 1.0)))
    off = angles[~np.eye(10, dtype=bool)]
    assert np.max(np.abs(off - 96.379)) < 1e-3
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# 2. gradient suite, 100 instances per family


def _regular_point(params, xs, y) -> bool:
    """Finite differences need a differentiable point: reject any instance
    near a relu kink or a vector-normalization singularity."""
    for x in xs:
        a = x
        for w, b in params.encoder:
            pre = a @ w.data.T + b.data
            if np.abs(pre).min() < 1e-3:
                return False
            a = np.maximum(pre, 0.0)
        out = forward(params, x)
        (w0, b0), _ = params.proj2
        if np.abs(out.z.data @ w0.data.T + b0.data).min() < 1e-3:
            return False
        z, h = out.z.data, out.h.data
        if min(np.linalg.norm(z, axis=1).min(), np.linalg.norm(h, axis=1).min()) < 1e-2:
            return False
        feats = out.features.data
        center = feats.mean(axis=0)
        for c in np.unique(y):
            if np.linalg.norm(feats[y == c].mean(axis=0) - center) < 1e-2:
                return False
    return True


def _composite_error(seed: int) -> float | None:
    rng = np.random.default_rng(seed)
    arch = ArchSpec(input_dim=5, num_classes=3, hidden_dims=(6,), feature_dim=4, proj_dim=4, predictor_hidden=4)
    params = init_params(arch, seed=seed)
    x1 = np.abs(rng.standard_normal((4, 5))) + 0.3
    x2 = np.abs(rng.standard_normal((4, 5))) + 0.3
    y = rng.integers(0, 3, size=4)
    if len(np.unique(y)) < 2 or not _regular_point(params, (x1, x2), y):
        return None
    weights = L.inverse_frequency_weights(np.bincount(y, minlength=3) + 1)
    tz1 = ad.constant(forward(params, x1).z.data.copy())
    tz2 = ad.constant(forward(params, x2).z.data.copy())

    def build():
        v1, v2 = forward(params, x1), forward(params, x2)
        p2p_w = L.p2p(params.classifier_w, center_and_normalize=False)
        b1 = L.branch_loss(v1.logits, y, 0.6, weights, params.classifier_w, p2p_w=p2p_w)
        b2 = L.branch_loss(v2.logits, y, 0.6, weights, params.classifier_w, p2p_w=p2p_w)
        hy = L.hycon_batch(v1.h, v2.h, v1.z, v2.z, y, target_z1=tz1, target_z2=tz2)
        mu1, _ = L.class_mean_matrix(v1.features, y)
        pm = L.p2p(mu1, True, num_classes=3, center=ad.mean_rows(v1.features))
        return L.total_loss(b1, b2, hy, pm, 1.0)

    return ad.grad_check(build, [p for _, p in params.named_parameters()])


def test_gradient_suite():
    t0 = time.monotonic()
    worst = {}
    for family in ("ce", "reweighted", "hycon", "p2p_raw", "p2p_tilde"):
        errors = []
        for i in range(100):
            rng = np.random.default_rng(10_000 + i)
            if family in ("ce", "reweighted"):
                logits = ad.param(rng.standard_normal((4, 3)))
                y = rng.integers(0, 3, size=4)
                if family == "ce":
                    errors.append(ad.grad_check(lambda: L.mean_cross_entropy(logits, y), [logits]))
                else:
                    w = np.abs(rng.standard_normal(3)) + 0.2
                    w /= w.mean()
                    errors.append(
                        ad.grad_check(lambda: L.mean_reweighted_ce(logits, y, w), [logits])
                    )
            elif family == "hycon":
                parts = [ad.param(rng.standard_normal((3, 4)) + 0.5) for _ in range(4)]
                y = rng.integers(0, 2, size=3)
                t1 = ad.constant(parts[2].data.copy())
                t2 = ad.constant(parts[3].data.copy())
                errors.append(
                    ad.grad_check(
                        lambda: L.hycon_batch(*parts, y, target_z1=t1, target_z2=t2), parts
                    )
                )
            else:
                v = ad.param(rng.standard_normal((4, 6)))
                tilde = family == "p2p_tilde"
                errors.append(ad.grad_check(lambda: L.p2p(v, tilde), [v]))
        worst[family] = max(errors)
    assert max(worst.values()) < 1e-5, f"family gradient errors: {worst}"

    composite_errors = []
    seed = 0
    while len(composite_errors) < 100:
        err = _composite_error(seed)
        seed += 1
        if err is not None:
            composite_errors.append(err)
    assert max(composite_errors) < 1e-4, f"composite max {max(composite_errors):.2e}"
    assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# 3. direct descent finds the frame


def test_p2p_minimizer_oracle():
    t0 = time.monotonic()
    c, d = 4, 8
    target = ad.constant(rho_matrix(c))
    # sum over unordered pairs (upper triangle, diagonal once): same zero set
    # as the mean-over-ordered-pairs module loss, and at learning rate 0.1
    # its descent sits safely inside the stability window
    pair_mask = ad.constant(np.triu(np.ones((c, c))))
    hits = 0
    for s in range(32):
        rng = np.random.default_rng(1000 + s)
        v = ad.param(rng.standard_normal((c, d)) / np.sqrt(d))
        for _ in range(5000):
            gram = ad.matmul(v, ad.transpose(v))
            objective = ad.sum_all(ad.mul(ad.square(ad.sub(gram, target)), pair_mask))
            grads = ad.backward(objective)
            v = ad.param(v.data - 0.1 * grads[v])
        final = L.p2p(v, center_and_normalize=False).item()
        unit = v.data / np.linalg.norm(v.data, axis=1, keepdims=True)
        off = (unit @ unit.T)[~np.eye(c, dtype=bool)]
        if final < 1e-6 and np.max(np.abs(off + 1.0 / 3.0)) < 1e-3:
            hits += 1
    assert hits >= 30, f"only {hits}/32 starts reached the frame"
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 4. two-view alignment semantics


def test_hycon_semantics():
    t0 = time.monotonic()

    unit = np.array([0.6, 0.0, 0.8])
    v = ad.constant(unit)
    assert L.hycon(v, v, v, v, v, v).item() == -4.0

    rng = np.random.default_rng(0)
    live = [ad.param(rng.standard_normal(4)) for _ in range(4)]  # h1, h2, u1, u2
    z1 = ad.param(rng.standard_normal(4))
    z2 = ad.param(rng.standard_normal(4))
    for _ in range(400):
        h1, h2, u1, u2 = live
        grads = ad.backward(L.hycon(h1, h2, z1, z2, u1, u2))
        # targets enter only through stop_gradient: machine-zero gradient
        assert z1 not in grads and z2 not in grads
        live = [ad.param(p.data - 0.5 * grads[p]) for p in live]
    h1, h2, u1, u2 = live
    assert L.hycon(h1, h2, z1, z2, u1, u2).item() < -3.999
    hat = lambda n: n.data / np.linalg.norm(n.data)
    cosines = (
        float(hat(h1) @ hat(z2)),
        float(hat(u2) @ hat(z2)),
        float(hat(h2) @ hat(z1)),
        float(hat(u1) @ hat(z1)),
    )
    assert all(c > 0.999 for c in cosines), f"cosines at the minimum: {cosines}"
    assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# 5. minority collapse appears under plain cross-entropy


def test_minority_collapse_under_ce(matrix):
    votes = 0
    details = []
    for seed in SEEDS:
        by_beta = [matrix.get("ce", b, seed) for b in BETAS]
        mus = [r.std_mu for r in by_beta]
        ws = [r.std_w for r in by_beta]
        factor_ok = mus[-1] >= 2.0 * mus[0] and ws[-1] >= 2.0 * ws[0]
        monotone = all(a <= b for a, b in zip(mus, mus[1:])) and all(
            a <= b for a, b in zip(ws, ws[1:])
        )
        votes += factor_ok and monotone
        details.append(
            f"seed {seed}: std_mu {mus[0]:.4f}->{mus[-1]:.4f} (x{mus[-1]/mus[0]:.1f}), "
            f"std_w {ws[0]:.4f}->{ws[-1]:.4f} (x{ws[-1]/ws[0]:.1f})"
        )
    assert votes >= 2, "minority collapse not seen in a majority of seeds:\n" + "\n".join(details)
    assert matrix.elapsed < 300.0


# ---------------------------------------------------------------------------
# 6. the combined objective repairs the collapse


def test_allnc_recovery(matrix):
    ratios = []
    for seed in SEEDS:
        ce = matrix.get("ce", 100.0, seed)
        fix = matrix.get("allnc", 100.0, seed)
        assert fix.std_mu < ce.std_mu, f"seed {seed}: std_cos_mu not reduced"
        assert fix.std_w < ce.std_w, f"seed {seed}: std_cos_w not reduced"
        assert fix.delta < ce.delta, f"seed {seed}: delta not reduced"
        ratios.append(fix.delta / ce.delta)
    assert matrix.elapsed < 300.0
    if max(ratios) >= 0.5:
        pytest.fail(
            "delta is reduced on every seed but not halved: measured ratios "
            + ", ".join(f"{r:.3f}" for r in ratios)
            + ". The halving target is out of reach for this data profile: with "
            "count-weighted centering the smallest delta any exact unit frame can "
            "achieve against the [500..5] count profile is 0.2615, the target is "
            "about 0.27, and no term of the training objective rewards that "
            "specific configuration over the natural near-0.4 fixpoint, so trained "
            "runs settle at 0.38-0.43."
        )


# ---------------------------------------------------------------------------
# 7. the minority classes actually benefit


def test_minority_benefit(matrix):
    for seed in SEEDS:
        ce = matrix.get("ce", 100.0, seed)
        fix = matrix.get("allnc", 100.0, seed)
        assert fix.few > ce.few, f"seed {seed}: Few accuracy {fix.few:.3f} <= {ce.few:.3f}"
        assert fix.overall >= ce.overall, (
            f"seed {seed}: overall {fix.overall:.3f} < {ce.overall:.3f}"
        )
    assert matrix.elapsed < 300.0


# ---------------------------------------------------------------------------
# 8. the nearest-mean rule closes the loop


def test_nc4_closure(matrix):
    t0 = time.monotonic()
    frame = make_etf(16, 10, seed=0)
    features = np.repeat(frame, 5, axis=0)
    labels = np.repeat(np.arange(10), 5)
    stats = class_stats(features, labels, 10)
    exact = ncc_agreement(features, frame, None, stats)
    assert exact == 1.0

    for seed in SEEDS:
        ncc = matrix.get("allnc", 100.0, seed).ncc
        assert ncc >= 0.95, f"seed {seed}: agreement {ncc:.4f} below 0.95"
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 9. schedule and plumbing


def test_schedule_and_plumbing():
    t0 = time.monotonic()

    assert L.eta(0, 100, 2.0) == 1.0
    assert L.eta(100, 100, 2.0) == 0.0
    for gamma in (0.5, 1.0, 2.0, 4.0):
        values = [L.eta(t, 50, gamma) for t in range(51)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    cfg = with_overrides(
        TrainConfig(),
        num_classes=3,
        input_dim=8,
        n_max=30,
        beta=3.0,
        n_test_per_class=20,
        hidden_dims=(16,),
        feature_dim=6,
        proj_dim=6,
        predictor_hidden=6,
        batch_size=16,
        t_max=5,
        seed=0,
    )
    first = run_train(cfg)
    for log in first.logs:
        parts = log.loss_branch1 + log.loss_branch2 + cfg.alpha * (log.loss_hycon + log.loss_p2p_mu)
        assert abs(log.loss_total - parts) <= 1e-10

    second = run_train(cfg)
    assert [a.csv_row() for a in first.logs] == [b.csv_row() for b in second.logs]
    for (na, pa), (nb, pb) in zip(
        first.params.named_parameters(), second.params.named_parameters()
    ):
        assert na == nb
        np.testing.assert_array_equal(pa.data, pb.data)
    assert time.monotonic() - t0 < 60.0
