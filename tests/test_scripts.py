"""The repository's helper scripts, run as a user runs them."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

from collapselab.cli import main

ROOT = Path(__file__).resolve().parent.parent
TINY = str(ROOT / "configs" / "tiny.config")


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


def test_artifact_digest_reports_a_rejected_config_like_the_cli():
    for pair, named in [("mean_radius=0", "mean_radius"), ("seed5", "'seed5'")]:
        done = _artifact_digest(TINY, pair)
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
