"""The repository's helper scripts, run as a user runs them."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
