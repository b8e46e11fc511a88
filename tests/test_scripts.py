"""The repository's helper scripts, run as a user runs them."""

import hashlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from collapselab.cli import main

ROOT = Path(__file__).resolve().parent.parent
TINY = str(ROOT / "configs" / "tiny.config")
BOUNDS = {"run_s": 0.25, "setup_s": 0.25}


def _artifact_digest(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "artifact_digest.py"), *args], capture_output=True, text=True
    )


def test_artifact_digest_lists_every_file_and_repeats():
    done = _artifact_digest(str(ROOT / "configs" / "tiny.config"), "t_max=1")
    assert done.returncode == 0, done.stderr
    first = done.stdout
    lines = first.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    paths = [line.split("  ", 1)[1] for line in lines]
    assert paths == sorted(paths)
    top = {p for p in paths if "/" not in p}
    assert top == {
        "config.resolved",
        "epochs.csv",
        "features.csv",
        "icpa_mu.csv",
        "icpa_w.csv",
        "report.json",
        "weights.csv",
    }
    assert "params/manifest.json" in paths
    assert _artifact_digest(str(ROOT / "configs" / "tiny.config"), "t_max=1").stdout == first


def test_artifact_digest_reports_a_rejected_config_like_the_cli(tmp_path):
    not_utf8 = tmp_path / "bad.cfg"
    not_utf8.write_bytes(b"mode = allnc\n\x8c\n")
    for args, named in [
        ((TINY, "mean_radius=0"), "mean_radius"),
        ((TINY, "seed5"), "'seed5'"),
        ((str(not_utf8),), "not UTF-8 text"),
        ((str(tmp_path),), "cannot open"),
    ]:
        done = _artifact_digest(*args)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error:") and named in done.stderr
        assert "Traceback" not in done.stderr


def test_train_overrides_write_the_bytes_artifact_digest_prints(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", TINY, "mode=ce", "batch_size=3", f"out_dir={out}"]) == 0
    lines = []
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out).as_posix()}\n")
    assert "".join(lines) == _artifact_digest(TINY, "mode=ce", "batch_size=3").stdout
    assert "out_dir" not in (out / "config.resolved").read_text()


def _bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "scripts" / "bench_pair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pair_summary_pairs_each_metric_by_pair_index():
    runs = [
        {"side": "parent", "pair": 0, "metrics": {"run_s": 10.0, "setup_s": 0.2}},
        {"side": "change", "pair": 0, "metrics": {"run_s": 8.0, "setup_s": 0.2}},
        # pair 1 ran the change first; pairing follows the index, not the order
        {"side": "change", "pair": 1, "metrics": {"run_s": 11.0}},
        {"side": "parent", "pair": 1, "metrics": {"run_s": 10.0, "setup_s": 0.1}},
        {"side": "parent", "pair": 2, "metrics": {"run_s": 20.0, "setup_s": 0.4}},
        {"side": "change", "pair": 2, "metrics": {"run_s": 15.0, "setup_s": 0.1}},
    ]
    summary = _bench_pair().summarize(runs, BOUNDS)
    run_s = summary["run_s"]
    assert run_s["parent"] == [10.0, 10.0, 20.0] and run_s["change"] == [8.0, 11.0, 15.0]
    assert run_s["ratios"] == [0.8, 1.1, 0.75]
    assert run_s["median_ratio"] == 0.8 and run_s["change_wins"] == 2 and run_s["pairs"] == 3
    assert run_s["parent_median"] == 10.0 and run_s["change_median"] == 11.0
    assert run_s["parent_quartile_distance"] == 5.0  # inclusive quartiles of 10, 10, 20
    # setup_s is missing on the change side of pair 1, so only pairs 0 and 2 count
    assert summary["setup_s"]["pairs"] == 2 and summary["setup_s"]["ratios"] == [1.0, 0.25]
    assert summary["setup_s"]["change_wins"] == 1  # a tie is not a win


def test_bench_pair_summary_of_one_pair_has_no_spread():
    runs = [
        {"side": "parent", "pair": 0, "metrics": {"run_s": 4.0}},
        {"side": "change", "pair": 0, "metrics": {"run_s": 2.0}},
        {"side": "parent", "pair": 1, "metrics": {"run_s": 4.0}},  # its change run is missing
    ]
    summary = _bench_pair().summarize(runs, BOUNDS)
    assert summary["run_s"]["pairs"] == 1 and summary["run_s"]["median_ratio"] == 0.5
    assert summary["run_s"]["parent_quartile_distance"] == 0.0


def test_bench_pair_summary_says_whether_each_metric_kept_its_bound():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {metric["name"]: metric["bound"] for metric in bench["end_to_end"]}
    runs = []
    for pair in range(3):
        runs.append({"side": "parent", "pair": pair, "metrics": {"setup_s": 0.04, "run_s": 10.0}})
        # setup_s 30 % slower, beyond its 25 % bound; run_s 20 % slower, within it
        runs.append({"side": "change", "pair": pair, "metrics": {"setup_s": 0.052, "run_s": 12.0}})
    summary = _bench_pair().summarize(runs, bounds)
    assert summary["setup_s"]["bound"] == 0.25 and summary["setup_s"]["within_bound"] is False
    assert summary["run_s"]["bound"] == 0.25 and summary["run_s"]["within_bound"] is True


def _ten_pairs(parent: list[float], change: list[float]) -> list[dict]:
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        runs.append({"side": "parent", "pair": pair, "passes": 5 + pair % 2, "metrics": {"run_s": p}})
        runs.append({"side": "change", "pair": pair, "passes": 7, "metrics": {"run_s": c}})
    return runs


def test_bench_pair_summary_says_whether_a_gain_is_shown():
    parent = [10.0, 10.2, 9.8, 10.4, 9.6, 10.0, 10.1, 9.9, 10.3, 9.7]  # quartile distance 0.35
    summarize = _bench_pair().summarize
    shown = summarize(_ten_pairs(parent, [p - 1.0 for p in parent]), BOUNDS)["run_s"]
    assert shown["change_wins"] == 10 and shown["parent_quartile_distance"] == pytest.approx(0.35)
    assert shown["gain_shown"] is True
    # nine wins in ten still show it; a tie wins for neither side
    nine = [p - 1.0 for p in parent[:9]] + [parent[9]]
    assert summarize(_ten_pairs(parent, nine), BOUNDS)["run_s"]["gain_shown"] is True
    eight = nine[:8] + [parent[8] + 0.5, parent[9]]
    assert summarize(_ten_pairs(parent, eight), BOUNDS)["run_s"]["gain_shown"] is False
    # ten wins, but the medians lie closer than the parent's own spread
    close = summarize(_ten_pairs(parent, [p - 0.3 for p in parent]), BOUNDS)["run_s"]
    assert close["change_wins"] == 10 and close["gain_shown"] is False
    # fewer than ten pairs never show a gain
    assert summarize(_ten_pairs(parent[:5], [p - 5.0 for p in parent[:5]]), BOUNDS)["run_s"]["gain_shown"] is False


def test_bench_pair_median_passes_per_side():
    runs = _ten_pairs([10.0] * 10, [8.0] * 10)
    assert _bench_pair().median_passes(runs) == {"parent": 5.5, "change": 7}


def _git(repo: Path, *args: str) -> None:
    identity = ["-c", "user.name=bench", "-c", "user.email=bench@example.com", "-c", "commit.gpgsign=false"]
    subprocess.run(["git", *identity, *args], cwd=repo, check=True, capture_output=True)


def test_bench_pair_runs_each_side_from_one_fresh_sibling_tree(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    (repo / ".gitignore").write_text("scratch/\n")
    (repo / "gone.py").write_text("")
    (repo / "side.py").write_text("parent\n")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    (repo / "side.py").write_text("change\n")
    _git(repo, "commit", "-q", "-a", "-m", "change")
    # the working tree deletes a tracked file, adds a module, and holds an ignored file
    (repo / "gone.py").unlink()
    (repo / "new.py").write_text("")
    (repo / "scratch").mkdir()
    (repo / "scratch" / "out.txt").write_text("")

    bench_pair = _bench_pair()
    monkeypatch.setattr(bench_pair, "ROOT", repo)
    trees: dict[str, set] = {"parent\n": set(), "change\n": set()}
    files: dict[str, set] = {"parent\n": set(), "change\n": set()}

    def run_once(tree, workload, seed, seconds):
        side = (tree / "side.py").read_text()
        trees[side].add(tree)
        files[side].add(tuple(sorted(p.relative_to(tree).as_posix() for p in tree.rglob("*") if p.is_file())))
        return {"metrics": {"run_s": 1.0}, "passes": 1, "machine": {}}

    monkeypatch.setattr(bench_pair, "run_once", run_once)
    assert bench_pair.main(["--parent", "HEAD~1", "--out", str(tmp_path / "pair.json")]) == 0
    (parent,), (change,) = trees["parent\n"], trees["change\n"]
    assert parent != change and parent.parent == change.parent
    assert repo not in (parent, change) and ROOT not in (parent, change)
    assert files["parent\n"] == {(".gitignore", "BENCHMARK.json", "gone.py", "side.py")}
    assert files["change\n"] == {(".gitignore", "BENCHMARK.json", "new.py", "side.py")}
    assert not parent.exists() and not change.exists()
    assert not (repo / ".git" / "worktrees").exists()
    record = json.loads((tmp_path / "pair.json").read_text())
    assert [len(w["runs"]) for w in record["workloads"].values()] == [20, 20]
