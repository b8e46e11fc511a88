"""End-to-end command-line checks, run in-process through main()."""

import importlib.util
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import collapselab.harness as harness
from collapselab.cli import _build_parser, main
from collapselab.config import parse_config_file, parse_overrides, resolved_text, with_overrides
from collapselab.data import Dataset, save_csv
from collapselab.harness import EPOCH_CSV_HEADER, build_datasets
from test_model import SNAPSHOT_DAMAGE

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("artifact_digest", ROOT / "scripts" / "artifact_digest.py")
artifact_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_digest)

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
            # '#' starts a comment, so a config file would read this as '{tmp}/a'
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

    @pytest.mark.parametrize("command", [["train"], ["sweep", "--param", "seed", "--values", "0"]], ids=lambda c: c[0])
    def test_non_utf8_config_exits_two(self, tmp_path, capsys, command):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"mode = allnc\n\x8c\n")
        code = main([command[0], "--config", str(path), *command[1:]])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text")

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
    """`metrics --run` on a run directory writes exactly the run's report:
    every key it writes equal, both angle CSVs byte-equal."""
    assert main(["metrics", "--run", str(run_dir), "--out", str(out)]) == 0
    train_report = json.loads((run_dir / "report.json").read_text())
    redone = json.loads((out / "report.json").read_text())
    np.testing.assert_equal(redone, {key: train_report[key] for key in redone})
    for name in ("icpa_mu.csv", "icpa_w.csv"):
        assert (out / name).read_bytes() == (run_dir / name).read_bytes()


@pytest.fixture()
def run_copy(trained_artifacts, tmp_path):
    """A copy of the trained run directory, free to damage."""
    return Path(shutil.copytree(trained_artifacts, tmp_path / "run"))


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

    @pytest.mark.parametrize("variant", artifact_digest.VARIANTS, ids=lambda v: "-".join((Path(v[0]).stem, *v[1])))
    def test_golden_variant_matches_its_report(self, tmp_path, capsys, variant):
        config, overrides = variant
        run_dir = tmp_path / "run"
        code = main(["train", "--config", str(ROOT / config), *overrides, f"out_dir={run_dir}"])
        assert code in (0, 2) and (run_dir / "report.json").is_file()
        _assert_metrics_reproduce_report(run_dir, tmp_path / "metrics")

    def test_csv_dataset_run_matches_its_report(self, tiny_config, tmp_path, capsys):
        # 1-based tables: the rebuilt split must take the base the run took
        for name, split in zip(("train", "test"), build_datasets(parse_config_file(tiny_config))):
            save_csv(Dataset(split.x, split.y + 1), tmp_path / f"{name}.csv")
        run_dir = tmp_path / "run"
        csv_keys = [f"train_csv={tmp_path / 'train.csv'}", f"test_csv={tmp_path / 'test.csv'}"]
        assert main(["train", "--config", str(tiny_config), "dataset=csv", *csv_keys, f"out_dir={run_dir}"]) == 0
        _assert_metrics_reproduce_report(run_dir, tmp_path / "metrics")

    def test_prints_scalar_summary(self, trained_artifacts, tmp_path, capsys):
        code = main(["metrics", "--run", str(trained_artifacts), "--out", str(tmp_path / "m")])
        assert code == 0
        printed = capsys.readouterr().out
        assert '"nc1"' in printed and '"delta"' in printed

    def test_takes_only_run_and_out(self, capsys):
        with pytest.raises(SystemExit):
            main(["metrics", "--help"])
        assert set(re.findall(r"--\w+", capsys.readouterr().out)) == {"--help", "--run", "--out"}

    def test_arch_mismatch_names_both_widths(self, run_copy, tmp_path, capsys):
        resolved = run_copy / "config.resolved"
        resolved.write_text(resolved.read_text().replace("feature_dim = 6\n", "feature_dim = 7\n"))
        out = tmp_path / "m"
        assert main(["metrics", "--run", str(run_copy), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "feature_dim=6" in err and "feature_dim=7" in err
        assert not out.exists()

    def test_missing_run_exits_two(self, tmp_path, capsys):
        assert main(["metrics", "--run", str(tmp_path / "nope"), "--out", str(tmp_path / "m")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "config.resolved" in err

    def test_non_utf8_config_resolved_exits_two(self, run_copy, tmp_path, capsys):
        (run_copy / "config.resolved").write_bytes(b"mode = allnc\n\x8c\n")
        assert main(["metrics", "--run", str(run_copy), "--out", str(tmp_path / "m")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "config.resolved" in err and "UTF-8" in err

    @pytest.mark.parametrize("damage,named", SNAPSHOT_DAMAGE, ids=[d.__name__ for d, _ in SNAPSHOT_DAMAGE])
    def test_damaged_snapshot_exits_two(self, run_copy, tmp_path, capsys, damage, named):
        damage(run_copy / "params")
        assert main(["metrics", "--run", str(run_copy), "--out", str(tmp_path / "m")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: load_params: ") and named in err
        assert "Traceback" not in err


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

    def test_every_rejected_table_writes_a_failed_row(self, tmp_path, monkeypatch, capsys):
        # whichever check rejects a table (label range, a ragged row, a missing file), its row fails
        monkeypatch.chdir(tmp_path)
        cfg = with_overrides(parse_config_file(ROOT / "configs" / "tiny.config"), t_max=1)
        train, test = build_datasets(cfg)
        save_csv(train, "train.csv")
        save_csv(test, "test.csv")
        save_csv(Dataset(x=train.x, y=np.where(train.y == 2, 7, train.y)), "badlabel.csv")
        lines = Path("train.csv").read_text().splitlines(keepends=True)
        lines[2] = lines[2].split(",", 1)[1]  # the second data row loses a cell
        Path("ragged.csv").write_text("".join(lines))
        csv_cfg = with_overrides(cfg, dataset="csv", train_csv="train.csv", test_csv="test.csv")
        Path("c.cfg").write_text(resolved_text(csv_cfg))
        values = "train.csv,badlabel.csv,ragged.csv,missing.csv,train.csv"
        code = main(["sweep", "--config", "c.cfg", "--param", "train_csv", "--values", values, "--out", "t.csv"])
        assert code == 0 and capsys.readouterr().err == ""
        rows = Path("t.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1:3] for row in rows] == [
            ["train.csv", "ok"],
            ["badlabel.csv", "failed"],
            ["ragged.csv", "failed"],
            ["missing.csv", "failed"],
            ["train.csv", "ok"],
        ]
        assert rows[0] == rows[4]

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
        "metrics --run {run} --out {file}",
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


def test_module_runs_as_a_process(trained_artifacts, tmp_path):
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
    done = run("metrics", "--run", str(trained_artifacts), "--out", "m")
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    redone = json.loads((tmp_path / "m" / "report.json").read_text())
    assert redone == {k: v for k, v in json.loads((trained_artifacts / "report.json").read_text()).items() if k in redone}
