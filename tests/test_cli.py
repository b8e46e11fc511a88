"""End-to-end command-line checks, run in-process through main()."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import collapselab.harness as harness
from collapselab.cli import _build_parser, main
from collapselab.config import parse_overrides
from collapselab.data import load_csv, read_numeric_csv
from collapselab.harness import EPOCH_CSV_HEADER
from collapselab.ncmetrics import nc_report

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
    code = main(["train", "--config", str(cfg), f"out_dir={out}"])
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
        code = main(["train", "--config", str(tiny_config), "mode=ce", "seed=5", f"out_dir={out_dir}"])
        assert code == 0
        resolved = (out_dir / "config.resolved").read_text()
        assert "mode = ce" in resolved
        assert "seed = 5" in resolved

    @pytest.mark.parametrize(
        "pairs,message",
        [
            (["seed5"], "'seed5': expected 'key = value'"),
            (["seed=1", "seed=2"], "'seed=2': duplicate key 'seed'"),
            (["lr=0"], "lr must be > 0"),
            # '#' starts a comment, so config.resolved would reparse this as '{tmp}/a'
            (["out_dir={tmp}/a#1"], "out_dir must not hold '#'"),
            (["seed=-1"], "seed must be >= 0, got -1"),
            (["placement_seed=-1", "mean_placement=random"], "placement_seed must be >= 0, got -1"),
        ],
    )
    def test_rejected_override_exits_two(self, tiny_config, tmp_path, pairs, message, capsys):
        code = main(["train", "--config", str(tiny_config), *(p.format(tmp=tmp_path) for p in pairs)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_divergence_before_first_epoch_exits_two(self, tmp_path, capsys):
        path = tmp_path / "blowup.cfg"
        path.write_text(TINY_CONFIG + "lr = 1e12\n")
        out_dir = tmp_path / "blowup"
        code = main(["train", "--config", str(path), f"out_dir={out_dir}"])
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

    def test_rejected_value_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "fd0.cfg"
        path.write_text("feature_dim = 0\n")
        code = main(["train", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {path}: line 1: bad value for feature_dim: ")

    def test_missing_train_csv_exits_two(self, tmp_path, capsys):
        path = tmp_path / "csv.cfg"
        missing = tmp_path / "missing.csv"
        path.write_text(f"dataset = csv\ntrain_csv = {missing}\ntest_csv = {missing}\n")
        code = main(["train", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "missing.csv" in err


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

    @pytest.mark.parametrize(
        "base,extra",
        [
            # at either rate configs/tiny.config diverges during its second epoch
            ((ROOT / "configs" / "tiny.config").read_text(), "lr = 30\n"),
            ((ROOT / "configs" / "tiny.config").read_text(), "lr = 3\n"),
            # epoch 2 kills every relu: its collapse report sees all-zero features
            (TINY_CONFIG, "mode = ce\nlr = 1.5\n"),
        ],
        ids=["30", "3", "degenerate-report"],
    )
    def test_diverged_run_matches_its_report(self, tmp_path, capsys, base, extra):
        cfg = tmp_path / "diverging.cfg"
        cfg.write_text(base + extra)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), f"out_dir={run_dir}"]) == 2
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

    def test_missing_features_exit_two(self, trained_artifacts, tmp_path, capsys):
        code = main(
            [
                "metrics",
                "--features", str(tmp_path / "missing.csv"),
                "--weights", str(trained_artifacts / "weights.csv"),
                "--out", str(tmp_path / "m"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "missing.csv" in err

    def test_binary_input_exit_two(self, tmp_path, capsys):
        # 300 random bytes are not UTF-8 text; the reader names the file
        # instead of letting the decode error escape as a traceback
        bad = tmp_path / "bin.csv"
        bad.write_bytes(np.random.default_rng(0).bytes(300))
        code = main(["metrics", "--features", str(bad), "--weights", str(bad), "--out", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "bin.csv" in err and "UTF-8" in err

    def test_non_integer_label_exit_two(self, trained_artifacts, tmp_path, capsys):
        for label, message in [
            ("2.5", "non-integer label in data row 2"),
            ("inf", "label inf in data row 2 is out of the int64 range"),
            ("1e30", "label 1e+30 in data row 2 is out of the int64 range"),
        ]:
            lines = (trained_artifacts / "features.csv").read_text().splitlines()
            cells = lines[2].split(",")
            lines[2] = ",".join(cells[:-1] + [label])
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
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "label,message",
        [("-1", "negative label -1 in data row 2"), ("3", "label 3 out of range for 3 classifier rows")],
    )
    def test_label_outside_the_classifier_rows_exit_two(self, trained_artifacts, tmp_path, capsys, label, message):
        lines = (trained_artifacts / "features.csv").read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + label
        bad = tmp_path / "labels.csv"
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
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    def test_weights_without_bias_column(self, trained_artifacts, tmp_path):
        # exactly d columns: the classifier rows alone, scored without a bias
        lines = (trained_artifacts / "weights.csv").read_text().splitlines()
        wpath = tmp_path / "w.csv"
        wpath.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n")
        out = tmp_path / "m"
        code = main(
            [
                "metrics",
                "--features", str(trained_artifacts / "features.csv"),
                "--weights", str(wpath),
                "--out", str(out),
            ]
        )
        assert code == 0
        features = load_csv(trained_artifacts / "features.csv")
        _, w = read_numeric_csv(wpath)
        want = nc_report(features.x, features.y, w, None, w.shape[0])
        got = json.loads((out / "report.json").read_text())
        assert got == json.loads(json.dumps(want.to_dict()))
        # the angles of the rows do not involve the bias
        assert (out / "icpa_w.csv").read_bytes() == (trained_artifacts / "icpa_w.csv").read_bytes()

    def test_bias_beside_wrong_width_weights_exit_two(self, trained_artifacts, tmp_path, capsys):
        # weights.csv keeps its bias column, so beside --bias it is d+1 wide
        lines = (trained_artifacts / "weights.csv").read_text().splitlines()
        bpath = tmp_path / "b.csv"
        bpath.write_text("\n".join(line.rsplit(",", 1)[1] for line in lines[1:]) + "\n")
        code = main(
            [
                "metrics",
                "--features", str(trained_artifacts / "features.csv"),
                "--weights", str(trained_artifacts / "weights.csv"),
                "--bias", str(bpath),
                "--out", str(tmp_path / "m"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "7 columns do not match feature dim 6" in err

    @pytest.mark.parametrize("drop_class", [None, 2], ids=["all-classes", "class-2-absent"])
    def test_bias_row_count_mismatch_exit_two(self, trained_artifacts, tmp_path, capsys, drop_class):
        # three classifier rows beside a seven-row bias column
        lines = (trained_artifacts / "weights.csv").read_text().splitlines()
        wpath, bpath, fpath = tmp_path / "w.csv", tmp_path / "b.csv", tmp_path / "f.csv"
        wpath.write_text("\n".join(line.rsplit(",", 1)[0] for line in lines[1:]) + "\n")
        bpath.write_text("0.5\n" * 7)
        features = (trained_artifacts / "features.csv").read_text().splitlines()
        keep = [row for row in features[1:] if float(row.rsplit(",", 1)[1]) != drop_class]
        fpath.write_text("\n".join([features[0], *keep]) + "\n")
        out = tmp_path / "m"
        code = main(
            ["metrics", "--features", str(fpath), "--weights", str(wpath), "--bias", str(bpath), "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {bpath}: 7 rows do not match 3 classifier rows")
        assert not out.exists()

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
        for args, message in [
            (["--dim", "2", "--classes", "5"], "cannot hold"),
            (["--dim", "3", "--classes", "3", "--seed", "-1"], "seed must be >= 0"),
        ]:
            code = main(["etf", *args])
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("error:") and message in err
            assert "Traceback" not in err


class TestSweep:
    def test_runs_and_writes_table(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--config", str(tiny_config), "--param", "gamma", "--values", "1.0,2.0", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "param,value,status," + EPOCH_CSV_HEADER
        assert [line.split(",")[:4] for line in lines[1:]] == [["gamma", "1.0", "ok", "3"], ["gamma", "2.0", "ok", "3"]]

    def test_negative_seed_writes_a_failed_row(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--config", str(tiny_config), "--param", "seed", "--values", "0,-1", "--out", str(out), "t_max=1"]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert [line.split(",")[:4] for line in lines[1:]] == [["seed", "0", "ok", "1"], ["seed", "-1", "failed", "nan"]]

    def test_bad_values_exit_two(self, tiny_config, tmp_path, capsys):
        code = main(["sweep", "--config", str(tiny_config), "--param", "gamma", "--values", "2.0,oops"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_param_exits_two_before_training(self, tiny_config, monkeypatch, capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("sweep trained before checking its key")

        monkeypatch.setattr(harness, "run_train", no_training)
        code = main(["sweep", "--config", str(tiny_config), "--param", "learning_rate", "--values", "0.1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: 'learning_rate=0.1': unknown key 'learning_rate'")

    @pytest.mark.parametrize(
        "args,values",
        [
            (["--param", "disable_p2p_mu", "--values", "false,true"], ["false", "true"]),
            (["--param", "mode", "--values", "ce,allnc", "beta=1"], ["ce", "allnc"]),
        ],
        ids=["ablation", "balanced"],
    )
    def test_paper_tables_are_one_command(self, tiny_config, tmp_path, capsys, args, values):
        out = tmp_path / "table.csv"
        assert main(["sweep", "--config", str(tiny_config), *args, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "param,value,status," + EPOCH_CSV_HEADER
        assert [line.split(",")[1:3] for line in lines[1:]] == [[v, "ok"] for v in values]


def _readme_commands() -> list[str]:
    """The ``collapselab ...`` lines of the README's quick-start block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Quick start", 1)[1].split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("collapselab ")]


@pytest.mark.parametrize(
    "command",
    [
        "metrics --features {run}/features.csv --weights {run}/weights.csv --out {file}",
        "sweep --config {config} --param gamma --values 2 --out {dir} t_max=1",
        "etf --dim 3 --classes 3 --csv {file}/frame.csv",
    ],
    ids=["metrics-out-is-a-file", "sweep-out-is-a-directory", "etf-csv-under-a-file"],
)
def test_unwritable_output_exits_two(trained_artifacts, tiny_config, tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    argv = command.format(run=trained_artifacts, config=tiny_config, file=taken, dir=tmp_path).split()
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and str(taken.parent) in err
    assert taken.read_text() == "kept\n"


def test_readme_quick_start_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 6
    for command in commands:
        args = _build_parser().parse_args(shlex.split(command)[1:])
        parse_overrides(getattr(args, "overrides", []))


def test_module_runs_as_a_process(tmp_path):
    # the installed entry point aside, `python -m collapselab.cli` is the CLI
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "collapselab.cli", *args], capture_output=True, text=True, env=env, cwd=tmp_path
        )

    done = run("etf", "--dim", "4", "--classes", "3")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("simplex frame: 3 vectors in R^4, seed 0\n")
    bad = tmp_path / "bad.cfg"
    bad.write_text("seed = -1\n")
    done = run("train", "--config", str(bad))
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error:") and "seed" in done.stderr
    assert "Traceback" not in done.stderr
