"""End-to-end command-line checks, run in-process through main()."""

import json
from pathlib import Path

import numpy as np
import pytest

from collapselab.cli import main

ROOT = Path(__file__).resolve().parent.parent

TINY_CONFIG = """
num_classes = 3
input_dim = 8
n_max = 30
beta = 3.0
n_test_per_class = 20
hidden_dims = 16
feature_dim = 6
proj_dim = 6
predictor_hidden = 6
batch_size = 16
t_max = 3
seed = 0
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TINY_CONFIG)
    return path


@pytest.fixture(scope="module")
def trained_artifacts(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_train")
    cfg = base / "run.cfg"
    cfg.write_text(TINY_CONFIG)
    out = base / "artifacts"
    code = main(["train", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    return out


class TestTrain:
    def test_artifacts_and_exit_code(self, trained_artifacts, capsys):
        names = {p.name for p in trained_artifacts.iterdir()}
        assert {"config.resolved", "epochs.csv", "report.json", "features.csv", "weights.csv"} <= names

    def test_summary_line(self, tiny_config, capsys):
        code = main(["train", "--config", str(tiny_config)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("ok: 3 epochs")
        assert "acc" in out and "delta" in out

    def test_mode_and_seed_overrides(self, tiny_config, tmp_path, capsys):
        out_dir = tmp_path / "ce_run"
        code = main(
            ["train", "--config", str(tiny_config), "--mode", "ce", "--seed", "5", "--out", str(out_dir)]
        )
        assert code == 0
        resolved = (out_dir / "config.resolved").read_text()
        assert "mode = ce" in resolved
        assert "seed = 5" in resolved

    def test_divergence_before_first_epoch_exits_two(self, tmp_path, capsys):
        path = tmp_path / "blowup.cfg"
        path.write_text(TINY_CONFIG + "lr = 1e12\n")
        out_dir = tmp_path / "blowup"
        code = main(["train", "--config", str(path), "--out", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert "diverged before completing the first epoch" in err
        assert "error:" not in err
        assert not out_dir.exists()

    def test_missing_config_exits_two(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("definitely_not_a_key = 1\n")
        code = main(["train", "--config", str(path)])
        assert code == 2
        assert "definitely_not_a_key" in capsys.readouterr().err


def _assert_metrics_reproduce_report(run_dir, out):
    """`metrics` on a run's features.csv and weights.csv writes exactly the
    run's report: every key it writes equal, both angle CSVs byte-equal."""
    code = main(
        [
            "metrics",
            "--features", str(run_dir / "features.csv"),
            "--weights", str(run_dir / "weights.csv"),
            "--out", str(out),
        ]
    )
    assert code == 0
    train_report = json.loads((run_dir / "report.json").read_text())
    redone = json.loads((out / "report.json").read_text())
    np.testing.assert_equal(redone, {key: train_report[key] for key in redone})
    for name in ("icpa_mu.csv", "icpa_w.csv"):
        assert (out / name).read_bytes() == (run_dir / name).read_bytes()


class TestMetrics:
    def test_round_trip_matches_training_report(self, trained_artifacts, tmp_path, capsys):
        _assert_metrics_reproduce_report(trained_artifacts, tmp_path / "metrics")

    @pytest.mark.parametrize("lr", ["30", "3"])
    def test_diverged_run_matches_its_report(self, tmp_path, capsys, lr):
        # at either rate configs/tiny.config diverges during its second epoch
        cfg = tmp_path / "diverging.cfg"
        cfg.write_text((ROOT / "configs" / "tiny.config").read_text() + f"lr = {lr}\n")
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(run_dir)]) == 2
        report = json.loads((run_dir / "report.json").read_text())
        assert report["diverged"] and report["epochs_completed"] == 1
        _assert_metrics_reproduce_report(run_dir, tmp_path / "metrics")

    def test_separate_bias_file(self, trained_artifacts, tmp_path):
        # split the combined weights.csv into weights-only plus a bias column
        lines = (trained_artifacts / "weights.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        wpath = tmp_path / "w.csv"
        bpath = tmp_path / "b.csv"
        wpath.write_text("\n".join(",".join(r[:-1]) for r in rows) + "\n")
        bpath.write_text("\n".join(r[-1] for r in rows) + "\n")
        out = tmp_path / "m"
        code = main(
            [
                "metrics",
                "--features", str(trained_artifacts / "features.csv"),
                "--weights", str(wpath),
                "--bias", str(bpath),
                "--out", str(out),
            ]
        )
        assert code == 0
        combined = json.loads((out / "report.json").read_text())
        direct = json.loads((trained_artifacts / "report.json").read_text())
        assert combined["ncc_agreement"] == pytest.approx(direct["ncc_agreement"], abs=1e-9)

    def test_prints_scalar_summary(self, trained_artifacts, tmp_path, capsys):
        code = main(
            [
                "metrics",
                "--features", str(trained_artifacts / "features.csv"),
                "--weights", str(trained_artifacts / "weights.csv"),
                "--out", str(tmp_path / "m"),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert '"nc1"' in printed and '"delta"' in printed

    def test_ragged_features_exit_two(self, trained_artifacts, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0,0\n3.0,4.0\n")
        code = main(
            [
                "metrics",
                "--features", str(bad),
                "--weights", str(trained_artifacts / "weights.csv"),
                "--out", str(tmp_path / "m"),
            ]
        )
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_non_integer_label_exit_two(self, trained_artifacts, tmp_path, capsys):
        lines = (trained_artifacts / "features.csv").read_text().splitlines()
        cells = lines[2].split(",")
        lines[2] = ",".join(cells[:-1] + ["2.5"])
        bad = tmp_path / "fractional.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = main(
            [
                "metrics",
                "--features", str(bad),
                "--weights", str(trained_artifacts / "weights.csv"),
                "--out", str(tmp_path / "m"),
            ]
        )
        assert code == 2
        assert "non-integer label in data row 2" in capsys.readouterr().err

    def test_width_mismatch_exit_two(self, trained_artifacts, tmp_path, capsys):
        bad = tmp_path / "w.csv"
        bad.write_text("1.0,2.0\n3.0,4.0\n")
        code = main(
            [
                "metrics",
                "--features", str(trained_artifacts / "features.csv"),
                "--weights", str(bad),
                "--out", str(tmp_path / "m"),
            ]
        )
        assert code == 2


class TestEtf:
    def test_prints_gram_and_deviation(self, capsys):
        code = main(["etf", "--dim", "8", "--classes", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "4 vectors in R^8" in out
        deviation = float(out.strip().rsplit(" ", 1)[-1])
        assert deviation < 1e-9

    def test_csv_export(self, tmp_path, capsys):
        path = tmp_path / "frame.csv"
        code = main(["etf", "--dim", "6", "--classes", "3", "--csv", str(path)])
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 4  # header + one row per vector
        first = np.array([float(v) for v in lines[1].split(",")])
        assert np.linalg.norm(first) == pytest.approx(1.0, abs=1e-9)

    def test_impossible_frame_exits_two(self, capsys):
        code = main(["etf", "--dim", "2", "--classes", "5"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestSweep:
    def test_runs_and_writes_table(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--config", str(tiny_config), "--param", "gamma", "--values", "1.0,2.0", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("param,value,status")
        assert len(lines) == 3
        assert all(",ok," in line for line in lines[1:])

    def test_bad_values_exit_two(self, tiny_config, tmp_path, capsys):
        code = main(["sweep", "--config", str(tiny_config), "--param", "gamma", "--values", "2.0,oops"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
