"""Training loop, evaluation, artifact emission, sweeps. Tiny configs only."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import collapselab.harness as harness
import collapselab.losses as L
from collapselab.config import TrainConfig, parse_config_file, parse_config_text, with_overrides
from collapselab.data import Dataset, load_csv, long_tail_counts, save_csv
from collapselab.errors import (
    ConfigError,
    ContractError,
    DegenerateInputError,
    EvaluationError,
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
)
from collapselab.losses import eta
from collapselab.model import encode, load_params

ROOT = Path(__file__).resolve().parent.parent
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
    return run_train(TINY)


@pytest.fixture(scope="module")
def tiny_splits():
    return build_datasets(TINY)


def _csv_config(cfg, tmp_path, train, test, shift=0, **overrides):
    """``cfg`` reading its splits from CSVs that save_csv writes, every
    label raised by ``shift``."""
    paths = {"train_csv": str(tmp_path / "train.csv"), "test_csv": str(tmp_path / "test.csv")}
    for split, path in zip((train, test), paths.values()):
        save_csv(Dataset(x=split.x, y=split.y + shift), path)
    return with_overrides(cfg, dataset="csv", **paths, **overrides)


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


class TestBuildDatasets:
    def test_synthetic_shapes_and_counts(self):
        train, test = build_datasets(TINY)
        counts = train.counts(3)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, long_tail_counts(3, 30, 3.0))
        assert counts[0] == 30
        np.testing.assert_array_equal(test.counts(3), 40)
        assert train.dim == test.dim == 8

    def test_deterministic_and_seed_sensitive(self):
        a, _ = build_datasets(TINY)
        b, _ = build_datasets(TINY)
        c, _ = build_datasets(with_overrides(TINY, seed=1))
        np.testing.assert_array_equal(a.x, b.x)
        assert not np.allclose(a.x, c.x)

    def test_train_and_test_draw_different_noise(self):
        train, test = build_datasets(with_overrides(TINY, n_test_per_class=30))
        assert not np.array_equal(train.x[:5], test.x[:5])

    def test_csv_route(self, tmp_path, tiny_splits):
        train, test = tiny_splits
        tr, te = build_datasets(_csv_config(TINY, tmp_path, train, test))
        np.testing.assert_array_equal(tr.x, train.x)
        np.testing.assert_array_equal(tr.counts(3), train.counts(3))
        np.testing.assert_array_equal(te.y, test.y)

    def test_csv_one_based_training_split_shifts_both_splits(self, tmp_path, tiny_splits):
        train, test = tiny_splits
        tr, te = build_datasets(_csv_config(TINY, tmp_path, train, test, shift=1))
        np.testing.assert_array_equal(tr.y, train.y)
        np.testing.assert_array_equal(te.y, test.y)

    @pytest.mark.parametrize("absent", [0, 1])
    def test_csv_test_split_may_lack_a_class(self, tmp_path, tiny_splits, absent):
        # no base is guessed from the test split: its labels stay as written
        train, test = tiny_splits
        keep = test.y != absent
        cfg = _csv_config(TINY, tmp_path, train, Dataset(x=test.x[keep], y=test.y[keep]))
        np.testing.assert_array_equal(build_datasets(cfg)[1].y, test.y[keep])

    def test_csv_width_mismatch_rejected(self, tmp_path, tiny_splits):
        cfg = _csv_config(TINY, tmp_path, *tiny_splits, input_dim=9)
        with pytest.raises(ConfigError, match="input_dim"):
            build_datasets(cfg)

    def test_csv_missing_class_rejected(self, tmp_path, tiny_splits):
        train, test = tiny_splits
        keep = train.y != 2
        cfg = _csv_config(TINY, tmp_path, Dataset(x=train.x[keep], y=train.y[keep]), test)
        with pytest.raises(ConfigError, match="missing"):
            build_datasets(cfg)

    def test_csv_training_labels_starting_high_rejected(self, tmp_path, tiny_splits):
        cfg = _csv_config(TINY, tmp_path, *tiny_splits, shift=2)
        with pytest.raises(ConfigError, match="start at 0 or 1, got minimum 2"):
            build_datasets(cfg)

    def test_csv_zero_based_test_beside_one_based_training_rejected(self, tmp_path, tiny_splits):
        train, test = tiny_splits
        cfg = _csv_config(TINY, tmp_path, Dataset(x=train.x, y=train.y + 1), test)
        with pytest.raises(ConfigError, match="test.csv: label 0 is out of range .* starting at 1"):
            build_datasets(cfg)

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_csv_label_beyond_num_classes_rejected(self, tmp_path, split):
        splits = dict(zip(("train", "test"), build_datasets(TINY)))
        splits[split].y[-1] = TINY.num_classes
        cfg = _csv_config(TINY, tmp_path, splits["train"], splits["test"])
        with pytest.raises(ConfigError, match=f"{split}.csv: label 3 is out of range"):
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
        again = run_train(TINY)
        for a, b in zip(tiny_run.logs, again.logs):
            assert a.csv_row() == b.csv_row()
        np.testing.assert_array_equal(
            tiny_run.params.classifier_w.data, again.params.classifier_w.data
        )

    def test_ce_mode_logs_only_ce(self):
        result = run_train(with_overrides(TINY, mode="ce", t_max=2))
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
        result = run_train(with_overrides(TINY, t_max=2, **{switch: True}))
        assert all(getattr(log, column) == 0.0 for log in result.logs)

    def test_disable_gbbn_pins_eta(self):
        result = run_train(with_overrides(TINY, t_max=3, disable_gbbn=True, fixed_eta=0.25))
        assert all(log.eta == 0.25 for log in result.logs)

    def test_divergence_flagged_not_raised(self):
        # in allnc mode at this rate the first epoch's features overflow the
        # collapse report's norms: that epoch is not completed either
        for cfg in (with_overrides(TINY, mode="ce", lr=1e6, t_max=4), with_overrides(TINY, lr=1e6)):
            result = run_train(cfg)
            assert result.diverged
            assert len(result.logs) < cfg.t_max
            for log in result.logs:
                for column in ("nc1", "std_cos_mu", "std_cos_w", "delta"):
                    assert np.isfinite(getattr(log.report, column)), (cfg.mode, log.epoch, column)

    def test_degenerate_report_keeps_completed_epochs(self, tmp_path):
        # epoch 5 kills every relu, so its collapse report sees all-zero features
        out = tmp_path / "run"
        result = run_train(with_overrides(TINY, mode="ce", lr=0.3, out_dir=str(out)))
        assert result.diverged
        assert len(result.logs) == 4
        short = run_train(with_overrides(TINY, mode="ce", lr=0.3, t_max=4))
        for (_, kept), (_, want) in zip(result.params.named_parameters(), short.params.named_parameters()):
            np.testing.assert_array_equal(kept.data, want.data)
        np.testing.assert_array_equal(load_csv(out / "features.csv").x, short.features.x)
        # the checkpoint's features are its own array: no later encoder pass wrote into them
        train = build_datasets(TINY)[0]
        for run in (result, short):
            assert np.array_equal(run.features.x, encode(run.params, train.x))

    def test_divergence_raises_no_numpy_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run_train(with_overrides(TINY, mode="ce", lr=1e6, t_max=4))
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
        assert result.features is None
        # no completed epoch: nothing to report, so nothing is written
        assert not out.exists()

    @pytest.mark.parametrize("mode,loss", [("allnc", "allnc_loss"), ("ce", "mean_cross_entropy")])
    @pytest.mark.parametrize("error", [ConfigError, ContractError, EvaluationError])
    def test_other_package_errors_propagate(self, monkeypatch, mode, loss, error):
        def raise_error(*args, **kwargs):
            raise error("raised inside the step")

        monkeypatch.setattr(L, loss, raise_error)
        with pytest.raises(error, match="inside the step"):
            run_train(with_overrides(TINY, mode=mode, t_max=2))

    @pytest.mark.parametrize("mode", ["allnc", "ce"])
    def test_graph_forward_sees_only_training_batches(self, monkeypatch, mode):
        rows = []
        graph_forward = harness.forward

        def recording_forward(params, x):
            rows.append(len(x))
            return graph_forward(params, x)

        monkeypatch.setattr(harness, "forward", recording_forward)
        run_train(with_overrides(TINY, mode=mode, t_max=2))
        assert rows and max(rows) <= TINY.batch_size

    @pytest.mark.parametrize("overrides", [{"proj1_hidden": 4}, {"seed": 1}], ids=["proj1_hidden=4", "seed=1"])
    def test_tiny_config_trains_through_zero_head_rows(self, overrides):
        # at these settings a dead-relu head row is exactly zero at the first
        # step; the alignment loss gives it cosine 0 and training goes on
        cfg = with_overrides(parse_config_file(ROOT / "configs" / "tiny.config"), t_max=2, **overrides)
        result = run_train(cfg)
        assert not result.diverged and len(result.logs) == 2

    def test_csv_splits_reproduce_the_synthetic_run(self, tmp_path):
        # configs/tiny.config trained on its own splits, saved with labels
        # 0-based and 1-based, writes the synthetic run's artifacts byte for
        # byte; only config.resolved names the other dataset
        def artifacts(cfg, out):
            run_train(with_overrides(cfg, out_dir=str(out)))
            files = (p for p in out.rglob("*") if p.is_file() and p.name != "config.resolved")
            return {p.relative_to(out): p.read_bytes() for p in files}

        cfg = parse_config_file(ROOT / "configs" / "tiny.config")
        want = artifacts(cfg, tmp_path / "synthetic")
        assert Path("features.csv") in want and Path("params", "manifest.json") in want
        for shift in (0, 1):
            csv_cfg = _csv_config(cfg, tmp_path, *build_datasets(cfg), shift=shift)
            assert artifacts(csv_cfg, tmp_path / f"csv{shift}") == want, shift

    def test_csv_test_split_without_class_zero_is_scored_on_its_labels(self, tmp_path, tiny_run, tiny_splits):
        train, test = tiny_splits
        keep = test.y != 0
        kept = Dataset(x=test.x[keep], y=test.y[keep])
        result = run_train(_csv_config(TINY, tmp_path, train, kept))
        np.testing.assert_equal(vars(result.final_accuracy), vars(evaluate(tiny_run.params, kept, train.counts(3))))
        assert result.final_accuracy.overall > 0.9

    def test_frozen_bias_stays_zero(self):
        result = run_train(with_overrides(TINY, t_max=2, freeze_classifier_bias=True))
        np.testing.assert_array_equal(result.params.classifier_b.data, 0.0)


class TestEvaluate:
    def test_trained_params_score_by_group(self, tiny_run, tiny_splits):
        train, test = tiny_splits
        counts = train.counts(3)
        acc = evaluate(tiny_run.params, test, counts)
        assert acc.overall > 0.9
        # counts [30, 17, 10] against a Many threshold of 0.2*30 = 6: all Many
        np.testing.assert_array_equal(class_groups(counts), 0)
        assert not np.isnan(acc.many)
        assert np.isnan(acc.medium) and np.isnan(acc.few)

    def test_scores_the_argmax_of_the_graph_logits(self, tiny_run, tiny_splits):
        test = tiny_splits[1]
        predicted = np.argmax(harness.forward(tiny_run.params, test.x).logits.data, axis=1)
        # one class per group, so each group's accuracy is that class's
        acc = evaluate(tiny_run.params, test, np.array([100, 10, 4]))
        per_class = [np.mean(predicted[test.y == k] == k) for k in range(3)]
        assert acc.overall == np.mean(predicted == test.y)
        assert [acc.many, acc.medium, acc.few] == per_class

    def test_imbalanced_counts_fill_every_group(self, tiny_run, tiny_splits):
        # same predictions, steeper profile: every group gets classes
        acc = evaluate(tiny_run.params, tiny_splits[1], np.array([100, 10, 4]))
        for v in (acc.many, acc.medium, acc.few):
            assert not np.isnan(v)
        # group members picked by label lookup, as np.isin over each group's classes picks them
        test = tiny_splits[1]
        correct = np.argmax(harness.forward(tiny_run.params, test.x).logits.data, axis=1) == test.y
        for counts in ([100, 10, 4], [100, 30, 4], [4, 100, 30], [30, 30, 30]):
            groups = class_groups(np.array(counts))
            acc = evaluate(tiny_run.params, test, np.array(counts))
            for g, got in enumerate([acc.many, acc.medium, acc.few]):
                members = np.isin(test.y, np.flatnonzero(groups == g))
                want = np.mean(correct[members]) if members.any() else np.nan
                assert np.array_equal(got, want, equal_nan=True), (counts, g)

    def test_balanced_training_gives_nan_medium_and_few(self, tiny_run, tiny_splits):
        acc = evaluate(tiny_run.params, tiny_splits[1], np.full(3, 30))
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
            "icpa_mu",
            "icpa_w",
            "diverged",
            "epochs_completed",
            "final_accuracy",
        ]

    def test_features_csv_round_trips_exactly(self, emitted, tiny_run, tiny_splits):
        from collapselab.model import forward

        train = tiny_splits[0]
        back = load_csv(emitted / "features.csv")
        feats = forward(tiny_run.params, train.x).features.data
        np.testing.assert_array_equal(back.x, feats)
        np.testing.assert_array_equal(back.y, train.y)
        # the file is the final report's own input
        np.testing.assert_array_equal(back.x, tiny_run.features.x)
        np.testing.assert_array_equal(back.y, tiny_run.features.y)

    def test_weights_csv_round_trips_exactly(self, emitted, tiny_run):
        lines = (emitted / "weights.csv").read_text().splitlines()
        assert lines[0].endswith(",bias")
        mat = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        np.testing.assert_array_equal(mat[:, :-1], tiny_run.params.classifier_w.data)
        np.testing.assert_array_equal(mat[:, -1], tiny_run.params.classifier_b.data)

    def test_params_snapshot_loads(self, emitted, tiny_run):
        again = load_params(emitted / "params")
        np.testing.assert_array_equal(again.classifier_w.data, tiny_run.params.classifier_w.data)

    def test_out_dir_naming_a_file_rejected_before_training(self, monkeypatch, tmp_path):
        def no_training(cfg):
            raise AssertionError("run_train built its datasets before checking out_dir")

        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        monkeypatch.setattr(harness, "build_datasets", no_training)
        for out_dir in (taken, taken / "run" / "a"):
            with pytest.raises(ConfigError, match=f"{taken} exists and is not a directory"):
                run_train(with_overrides(TINY, out_dir=str(out_dir)))
        assert taken.read_text() == "kept\n"
        assert sorted(tmp_path.iterdir()) == [taken]

    def test_config_resolved_is_the_same_in_any_out_dir(self, tmp_path):
        cfg = parse_config_file(ROOT / "configs" / "tiny.config")
        texts = []
        for name in ("a", "b/c"):
            run_train(with_overrides(cfg, out_dir=str(tmp_path / name)))
            texts.append((tmp_path / name / "config.resolved").read_bytes())
        assert texts[0] == texts[1]
        assert parse_config_text(texts[0].decode()) == cfg

    def test_emit_reports_an_uncreatable_out_dir(self, tiny_run, tmp_path):
        (tmp_path / "taken").write_text("")
        with pytest.raises(ConfigError, match="taken"):
            emit_outputs(tiny_run, tmp_path / "taken" / "run")


def _sweep_cells(row: str) -> dict[str, str]:
    return dict(zip(SWEEP_CSV_HEADER.split(","), row.split(",")))


class TestSweep:
    def test_continues_past_failures(self, tmp_path):
        cfg = with_overrides(TINY, t_max=2)
        rows = [_sweep_cells(row) for row in sweep(cfg, "beta", ["1", "1e9", "3"], tmp_path / "t.csv")]
        assert [r["status"] for r in rows] == ["ok", "failed", "ok"]
        assert rows[1]["epoch"] == "nan"
        assert float(rows[0]["acc_overall"]) > 0.3

    @pytest.mark.parametrize("error", [ConfigError])
    def test_rejected_value_marks_row_failed(self, monkeypatch, tmp_path, error):
        def raise_error(*args, **kwargs):
            raise error("rejected inside the run")

        monkeypatch.setattr(harness, "run_train", raise_error)
        rows = sweep(TINY, "gamma", ["2"], tmp_path / "t.csv")
        assert [_sweep_cells(r)["status"] for r in rows] == ["failed"]

    @pytest.mark.parametrize("error", [ContractError, DegenerateInputError, TrainingDivergedError, EvaluationError])
    def test_other_package_errors_propagate(self, monkeypatch, tmp_path, error):
        def raise_error(*args, **kwargs):
            raise error("raised inside the run")

        monkeypatch.setattr(harness, "run_train", raise_error)
        with pytest.raises(error, match="inside the run"):
            sweep(TINY, "gamma", ["2"], tmp_path / "t.csv")

    def test_finished_rows_survive_a_later_error(self, monkeypatch, tmp_path):
        trained = []

        def second_run_breaks(cfg):
            if trained:
                raise ContractError("raised inside the second run")
            trained.append(cfg)
            return run_train(cfg)

        monkeypatch.setattr(harness, "run_train", second_run_breaks)
        path = tmp_path / "t.csv"
        with pytest.raises(ContractError):
            sweep(with_overrides(TINY, t_max=1), "gamma", ["2", "3"], path)
        lines = path.read_text().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert [_sweep_cells(line)["status"] for line in lines[1:]] == ["ok"]

    def test_rejects_unknown_param_and_empty_values(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key 'learning_rate'"):
            sweep(TINY, "learning_rate", ["0.1"], tmp_path / "t.csv")
        with pytest.raises(ConfigError):
            sweep(TINY, "gamma", [], tmp_path / "t.csv")
        assert not (tmp_path / "t.csv").exists()

    def test_rejects_a_bad_value_before_training(self, monkeypatch, tmp_path):
        def no_training(*args, **kwargs):
            raise AssertionError("sweep trained before checking every value")

        monkeypatch.setattr(harness, "run_train", no_training)
        with pytest.raises(ConfigError, match="'disable_gbbn=maybe': bad value for disable_gbbn"):
            sweep(TINY, "disable_gbbn", ["false", "maybe"], tmp_path / "t.csv")

    def test_unwritable_table_rejected_before_training(self, monkeypatch, tmp_path):
        def no_training(*args, **kwargs):
            raise AssertionError("sweep trained before opening its table")

        monkeypatch.setattr(harness, "run_train", no_training)
        with pytest.raises(IsADirectoryError):
            sweep(TINY, "gamma", ["2"], tmp_path)

    def test_rejects_out_dir_before_training(self, monkeypatch, tmp_path):
        def no_training(*args, **kwargs):
            raise AssertionError("sweep trained over out_dir")

        monkeypatch.setattr(harness, "run_train", no_training)
        with pytest.raises(ConfigError, match="sweep: out_dir cannot be swept"):
            sweep(TINY, "out_dir", [str(tmp_path / "a"), str(tmp_path / "b")], tmp_path / "t.csv")
        assert not (tmp_path / "t.csv").exists()

    def test_writes_no_artifacts(self, tmp_path):
        out = tmp_path / "run"
        rows = sweep(with_overrides(TINY, t_max=1, out_dir=str(out)), "gamma", ["2"], tmp_path / "t.csv")
        assert [_sweep_cells(r)["status"] for r in rows] == ["ok"]
        assert not out.exists()

    def test_sweeps_any_key(self, tmp_path):
        rows = sweep(with_overrides(TINY, t_max=1), "mode", ["ce", "allnc"], tmp_path / "t.csv")
        rows = [_sweep_cells(r) for r in rows]
        assert [(r["value"], r["status"]) for r in rows] == [("ce", "ok"), ("allnc", "ok")]
        assert float(rows[0]["loss_hycon"]) == 0.0 and float(rows[1]["loss_hycon"]) != 0.0

    def test_csv_output(self, tmp_path):
        cfg = with_overrides(TINY, t_max=1)
        path = tmp_path / "tables" / "sweep.csv"
        rows = sweep(cfg, "gamma", ["2", "0"], path)
        lines = path.read_text().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER == "param,value,status," + EPOCH_CSV_HEADER
        assert lines[1:] == rows
        assert lines[1] == "gamma,2.0,ok," + run_train(with_overrides(cfg, gamma=2.0)).logs[-1].csv_row()
        assert lines[2] == "gamma,0.0,failed," + ",".join(["nan"] * len(EPOCH_CSV_HEADER.split(",")))
