"""Training loop, evaluation, artifact emission, sweeps. Tiny configs only."""

import json
import warnings

import numpy as np
import pytest

import collapselab.harness as harness
import collapselab.losses as L
from collapselab.config import TrainConfig, parse_config_text, with_overrides
from collapselab.data import load_csv, save_csv
from collapselab.errors import (
    ConfigError,
    ContractError,
    DegenerateInputError,
    DomainError,
    EvaluationError,
    ShapeError,
    TrainingDivergedError,
)
from collapselab.harness import (
    EPOCH_CSV_HEADER,
    SWEEP_CSV_HEADER,
    build_datasets,
    class_groups,
    emit_outputs,
    evaluate,
    run_train,
    sweep,
    write_sweep_csv,
)
from collapselab.losses import eta
from collapselab.model import load_params

TINY = TrainConfig(
    num_classes=3,
    input_dim=8,
    n_max=30,
    beta=3.0,
    n_test_per_class=40,
    hidden_dims=(16,),
    feature_dim=6,
    proj_dim=6,
    predictor_hidden=6,
    batch_size=16,
    t_max=6,
    seed=0,
)


@pytest.fixture(scope="module")
def tiny_run():
    return run_train(TINY, emit=False)


class TestClassGroups:
    def test_reference_partition(self):
        counts = np.array([500, 300, 180, 108, 65, 39, 23, 14, 8, 5])
        np.testing.assert_array_equal(class_groups(counts), [0, 0, 0, 0, 1, 1, 1, 2, 2, 2])

    def test_boundaries_by_share_of_head(self):
        # thresholds sit at 0.2 and 0.04 of the head count, boundaries inclusive
        counts = np.array([100, 21, 20, 5, 4])
        np.testing.assert_array_equal(class_groups(counts), [0, 0, 1, 1, 2])

    def test_balanced_counts_are_all_many(self):
        np.testing.assert_array_equal(class_groups(np.full(4, 50)), 0)

    def test_validation(self):
        with pytest.raises(ContractError):
            class_groups(np.zeros((0,)))
        with pytest.raises(ContractError):
            class_groups(np.ones((2, 2)))


class TestBuildDatasets:
    def test_synthetic_shapes_and_counts(self):
        train, test, counts = build_datasets(TINY)
        np.testing.assert_array_equal(train.counts(3), counts)
        assert counts[0] == 30
        np.testing.assert_array_equal(test.counts(3), 40)
        assert train.dim == test.dim == 8

    def test_deterministic_and_seed_sensitive(self):
        a, _, _ = build_datasets(TINY)
        b, _, _ = build_datasets(TINY)
        c, _, _ = build_datasets(with_overrides(TINY, seed=1))
        np.testing.assert_array_equal(a.x, b.x)
        assert not np.allclose(a.x, c.x)

    def test_train_and_test_draw_different_noise(self):
        train, test, _ = build_datasets(with_overrides(TINY, n_test_per_class=30))
        assert not np.array_equal(train.x[:5], test.x[:5])

    def test_csv_route(self, tmp_path):
        train, test, _ = build_datasets(TINY)
        save_csv(train, tmp_path / "train.csv")
        save_csv(test, tmp_path / "test.csv")
        cfg = with_overrides(
            TINY, dataset="csv", train_csv=str(tmp_path / "train.csv"), test_csv=str(tmp_path / "test.csv")
        )
        tr, te, counts = build_datasets(cfg)
        np.testing.assert_array_equal(tr.x, train.x)
        np.testing.assert_array_equal(counts, train.counts(3))

    def test_csv_width_mismatch_rejected(self, tmp_path):
        train, test, _ = build_datasets(TINY)
        save_csv(train, tmp_path / "train.csv")
        save_csv(test, tmp_path / "test.csv")
        cfg = with_overrides(
            TINY,
            dataset="csv",
            train_csv=str(tmp_path / "train.csv"),
            test_csv=str(tmp_path / "test.csv"),
            input_dim=9,
        )
        with pytest.raises(ConfigError, match="input_dim"):
            build_datasets(cfg)

    def test_csv_missing_class_rejected(self, tmp_path):
        train, test, _ = build_datasets(TINY)
        keep = train.y != 2
        part = type(train)(x=train.x[keep], y=train.y[keep])
        save_csv(part, tmp_path / "train.csv")
        save_csv(test, tmp_path / "test.csv")
        cfg = with_overrides(
            TINY, dataset="csv", train_csv=str(tmp_path / "train.csv"), test_csv=str(tmp_path / "test.csv")
        )
        with pytest.raises(ConfigError, match="missing"):
            build_datasets(cfg)


class TestRunTrain:
    def test_one_log_per_epoch(self, tiny_run):
        assert len(tiny_run.logs) == TINY.t_max
        assert not tiny_run.diverged
        assert [log.epoch for log in tiny_run.logs] == list(range(1, TINY.t_max + 1))

    def test_eta_follows_schedule(self, tiny_run):
        for log in tiny_run.logs:
            assert log.eta == eta(log.epoch, TINY.t_max, TINY.gamma)

    def test_total_is_sum_of_parts(self, tiny_run):
        for log in tiny_run.logs:
            want = log.loss_branch1 + log.loss_branch2 + TINY.alpha * (log.loss_hycon + log.loss_p2p_mu)
            assert log.loss_total == pytest.approx(want, abs=1e-10)

    def test_learns_the_mixture(self, tiny_run):
        assert tiny_run.final_accuracy.overall > 0.9

    def test_byte_identical_rerun(self, tiny_run):
        again = run_train(TINY, emit=False)
        for a, b in zip(tiny_run.logs, again.logs):
            assert a.csv_row() == b.csv_row()
        np.testing.assert_array_equal(
            tiny_run.params.classifier_w.data, again.params.classifier_w.data
        )

    def test_ce_mode_logs_only_ce(self):
        result = run_train(with_overrides(TINY, mode="ce", t_max=2), emit=False)
        for log in result.logs:
            assert log.loss_re == log.loss_hycon == log.loss_p2p_mu == log.loss_p2p_w == 0.0
            assert log.loss_total == log.loss_ce == log.loss_branch1
            assert log.loss_branch2 == 0.0

    @pytest.mark.parametrize(
        "switch,column",
        [
            ("disable_hycon", "loss_hycon"),
            ("disable_p2p_mu", "loss_p2p_mu"),
            ("disable_p2p_w", "loss_p2p_w"),
        ],
    )
    def test_ablation_zeroes_column(self, switch, column):
        result = run_train(with_overrides(TINY, t_max=2, **{switch: True}), emit=False)
        assert all(getattr(log, column) == 0.0 for log in result.logs)

    def test_disable_gbbn_pins_eta(self):
        result = run_train(
            with_overrides(TINY, t_max=3, disable_gbbn=True, fixed_eta=0.25), emit=False
        )
        assert all(log.eta == 0.25 for log in result.logs)

    def test_divergence_flagged_not_raised(self):
        result = run_train(with_overrides(TINY, mode="ce", lr=1e6, t_max=4), emit=False)
        assert result.diverged
        assert len(result.logs) < 4

    def test_divergence_raises_no_numpy_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_train(with_overrides(TINY, mode="ce", lr=1e6, t_max=4), emit=False)
        assert result.diverged

    @pytest.mark.parametrize("mode,loss", [("allnc", "allnc_loss"), ("ce", "mean_cross_entropy")])
    @pytest.mark.parametrize("error", [TrainingDivergedError, DegenerateInputError])
    def test_divergence_errors_end_run_as_diverged(self, monkeypatch, tmp_path, mode, loss, error):
        def raise_error(*args, **kwargs):
            raise error("raised inside the step")

        monkeypatch.setattr(L, loss, raise_error)
        out = tmp_path / "run"
        result = run_train(with_overrides(TINY, mode=mode, t_max=2, out_dir=str(out)))
        assert result.diverged
        assert result.logs == []
        # no completed epoch: nothing to report, so nothing is written
        assert not out.exists()

    @pytest.mark.parametrize("mode,loss", [("allnc", "allnc_loss"), ("ce", "mean_cross_entropy")])
    @pytest.mark.parametrize("error", [ShapeError, ContractError, DomainError, EvaluationError])
    def test_other_package_errors_propagate(self, monkeypatch, mode, loss, error):
        def raise_error(*args, **kwargs):
            raise error("raised inside the step")

        monkeypatch.setattr(L, loss, raise_error)
        with pytest.raises(error, match="inside the step"):
            run_train(with_overrides(TINY, mode=mode, t_max=2), emit=False)

    def test_frozen_bias_stays_zero(self):
        result = run_train(with_overrides(TINY, t_max=2, freeze_classifier_bias=True), emit=False)
        np.testing.assert_array_equal(result.params.classifier_b.data, 0.0)


class TestEvaluate:
    def test_trained_params_score_by_group(self, tiny_run):
        acc = evaluate(tiny_run.params, tiny_run.test, tiny_run.train_counts)
        assert acc.overall > 0.9
        # counts [30, 17, 10] against a Many threshold of 0.2*30 = 6: all Many
        np.testing.assert_array_equal(class_groups(tiny_run.train_counts), 0)
        assert not np.isnan(acc.many)
        assert np.isnan(acc.medium) and np.isnan(acc.few)

    def test_imbalanced_counts_fill_every_group(self, tiny_run):
        # same predictions, steeper profile: every group gets classes
        acc = evaluate(tiny_run.params, tiny_run.test, np.array([100, 10, 4]))
        for v in (acc.many, acc.medium, acc.few):
            assert not np.isnan(v)

    def test_balanced_training_gives_nan_medium_and_few(self, tiny_run):
        acc = evaluate(tiny_run.params, tiny_run.test, np.full(3, 30))
        assert np.isnan(acc.medium) and np.isnan(acc.few)
        assert acc.overall == pytest.approx(acc.many)


@pytest.fixture(scope="module")
def emitted(tmp_path_factory, tiny_run):
    out = tmp_path_factory.mktemp("run")
    emit_outputs(tiny_run, out)
    return out


class TestEmission:
    def test_file_set(self, emitted):
        names = {p.name for p in emitted.iterdir()}
        assert names >= {
            "config.resolved",
            "epochs.csv",
            "report.json",
            "features.csv",
            "weights.csv",
            "icpa_mu.csv",
            "icpa_w.csv",
            "params",
        }

    def test_epochs_csv_header_layout(self):
        assert EPOCH_CSV_HEADER == (
            "epoch,eta,loss_ce,loss_re,loss_hycon,loss_p2p_mu,loss_p2p_w,"
            "loss_branch1,loss_branch2,loss_total,nc1,std_cos_mu,std_cos_w,delta,"
            "ncc_agreement,acc_overall,acc_many,acc_medium,acc_few"
        )

    def test_epochs_csv_shape(self, emitted):
        lines = (emitted / "epochs.csv").read_text().splitlines()
        assert lines[0] == EPOCH_CSV_HEADER
        assert len(lines) == 1 + TINY.t_max

    def test_config_reparses_equal(self, emitted):
        assert parse_config_text((emitted / "config.resolved").read_text()) == TINY

    def test_report_round_trip(self, emitted, tiny_run):
        raw = json.loads((emitted / "report.json").read_text())
        expected = {
            **tiny_run.final_report.to_dict(),
            "diverged": False,
            "epochs_completed": TINY.t_max,
            "final_accuracy": vars(tiny_run.final_accuracy),
        }
        # exact, with NaN equal to NaN (the empty Medium and Few groups)
        np.testing.assert_equal(raw, expected)

    def test_report_json_key_order(self, emitted):
        raw = json.loads((emitted / "report.json").read_text())
        assert list(raw) == [
            "nc1",
            "std_cos_mu",
            "std_cos_w",
            "delta",
            "ncc_agreement",
            "num_classes",
            "present",
            "complete",
            "icpa_mu",
            "icpa_w",
            "diverged",
            "epochs_completed",
            "final_accuracy",
        ]

    def test_features_csv_round_trips_exactly(self, emitted, tiny_run):
        from collapselab.model import forward

        back = load_csv(emitted / "features.csv")
        feats = forward(tiny_run.params, tiny_run.train.x).features.data
        np.testing.assert_array_equal(back.x, feats)
        np.testing.assert_array_equal(back.y, tiny_run.train.y)

    def test_weights_csv_round_trips_exactly(self, emitted, tiny_run):
        lines = (emitted / "weights.csv").read_text().splitlines()
        assert lines[0].endswith(",bias")
        mat = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        np.testing.assert_array_equal(mat[:, :-1], tiny_run.params.classifier_w.data)
        np.testing.assert_array_equal(mat[:, -1], tiny_run.params.classifier_b.data)

    def test_params_snapshot_loads(self, emitted, tiny_run):
        again = load_params(emitted / "params")
        np.testing.assert_array_equal(again.classifier_w.data, tiny_run.params.classifier_w.data)

    def test_emit_requires_out_dir(self):
        with pytest.raises(ConfigError, match="out_dir"):
            run_train(TINY, emit=True)


class TestSweep:
    def test_continues_past_failures(self):
        cfg = with_overrides(TINY, t_max=2)
        rows = sweep(cfg, "beta", [1.0, 1e9, 3.0])
        assert [r.status for r in rows] == ["ok", "failed", "ok"]
        assert rows[1].accuracy is None
        assert rows[0].accuracy.overall > 0.3

    @pytest.mark.parametrize("error", [ConfigError, DomainError, DegenerateInputError])
    def test_rejected_value_marks_row_failed(self, monkeypatch, error):
        def raise_error(*args, **kwargs):
            raise error("rejected inside the run")

        monkeypatch.setattr(harness, "run_train", raise_error)
        rows = sweep(TINY, "gamma", [2.0])
        assert [r.status for r in rows] == ["failed"]

    @pytest.mark.parametrize("error", [ContractError, ShapeError, EvaluationError])
    def test_other_package_errors_propagate(self, monkeypatch, error):
        def raise_error(*args, **kwargs):
            raise error("raised inside the run")

        monkeypatch.setattr(harness, "run_train", raise_error)
        with pytest.raises(error, match="inside the run"):
            sweep(TINY, "gamma", [2.0])

    def test_rejects_unknown_param_and_empty_values(self):
        with pytest.raises(ConfigError):
            sweep(TINY, "lr", [0.1])
        with pytest.raises(ConfigError):
            sweep(TINY, "gamma", [])

    def test_csv_output(self, tmp_path):
        rows = sweep(with_overrides(TINY, t_max=1), "gamma", [2.0])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert lines[1].startswith("gamma,2,ok,")
