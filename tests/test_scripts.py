"""The repository's helper scripts, run as a user runs them."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TINY = str(ROOT / "configs" / "tiny.config")


def _demo(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run one demo script with the package importable from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args], capture_output=True, text=True, env=env
    )


def _artifact_digest(*args: str) -> str:
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "artifact_digest.py"), *args],
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


def test_artifact_digest_lists_every_file_and_repeats():
    first = _artifact_digest(str(ROOT / "configs" / "tiny.config"), "t_max=1")
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
    assert _artifact_digest(str(ROOT / "configs" / "tiny.config"), "t_max=1") == first


def test_artifact_digest_reports_a_rejected_config_like_the_cli():
    done = _demo("artifact_digest.py", TINY, "mean_radius=0")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error:") and "mean_radius" in done.stderr
    assert "Traceback" not in done.stderr


def test_compare_modes_takes_beta_and_seed_from_the_config():
    done = _demo("compare_modes.py", "--config", TINY)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:2] == ["training mode=ce beta=3 seed=0 ...", "training mode=allnc beta=3 seed=0 ..."]
    assert lines[3].split() == ["metric", "ce", "allnc"]


def test_collapse_sweep_reports_errors_like_the_cli():
    # the default betas end at 100, which starves the tiny config's tail
    done = _demo("collapse_sweep.py", "--config", TINY)
    assert done.returncode == 2
    assert [line.split()[0] for line in done.stdout.splitlines()] == ["beta", "1", "10"]
    assert done.stderr.startswith("error: long_tail_counts: beta 100")
    assert "Traceback" not in done.stderr
