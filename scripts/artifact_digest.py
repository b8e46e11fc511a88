#!/usr/bin/env python3
"""Train one config into a temporary directory and print a sha256 for every
artifact the run writes, so two checkouts can be compared byte for byte.

    python3 scripts/artifact_digest.py configs/tiny.config disable_hycon=true batch_size=3

Each ``key=value`` argument overrides one config key, with the config file's
own value syntax. The package is imported from this checkout's ``src/``.
Output is one ``<sha256>  <path>`` line per file, sorted by path; diff it
against the same command run in another checkout. A run that writes no
artifacts prints nothing. A rejected config prints ``error: ...`` and exits
2, as the CLI does.

    python3 scripts/artifact_digest.py --golden tests/golden/digests.json

rewrites the golden file that ``tests/test_golden.py`` checks: for each of
``VARIANTS``, the digests above plus the values of ``epochs.csv`` and
``report.json``, and the machine that made them. Regenerate it only in a
change that means to move the bits.
"""

import argparse
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from collapselab.config import parse_config_file, parse_overrides, with_overrides  # noqa: E402
from collapselab.errors import CollapseLabError  # noqa: E402
from collapselab.harness import run_train  # noqa: E402

TINY = "configs/tiny.config"
VARIANTS = [
    (TINY, ()),
    (TINY, ("mode=ce",)),
    (TINY, ("batch_size=3",)),
    (TINY, ("disable_hycon=true",)),
    (TINY, ("disable_p2p_mu=true",)),
    (TINY, ("disable_p2p_w=true",)),
    (TINY, ("disable_gbbn=true",)),
    (TINY, ("lr=30",)),
    ("configs/default.config", ("t_max=3",)),
    ("configs/default.config", ("t_max=3", "mode=ce")),
    (TINY, ("freeze_classifier_bias=true",)),
]


def digests(out_dir: Path) -> list[tuple[str, str]]:
    """(sha256, relative path) of every file under ``out_dir``, by path."""
    return [
        (hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(out_dir).as_posix())
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file())
    ]


def train_and_digest(config: str, overrides) -> dict:
    """Train ``config`` with ``overrides`` into a temporary directory. Returns
    the sha256 of each artifact by path, the rows of ``epochs.csv`` (header
    first, then one list of floats per epoch) and the parsed ``report.json``;
    the last two are None when the run wrote nothing."""
    cfg = with_overrides(parse_config_file(config), **parse_overrides(list(overrides)))
    entry = {"digests": {}, "epochs.csv": None, "report.json": None}
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "run"
        run_train(with_overrides(cfg, out_dir=str(out_dir)))
        if out_dir.is_dir():
            entry["digests"] = {rel: digest for digest, rel in digests(out_dir)}
            header, *rows = (out_dir / "epochs.csv").read_text(encoding="utf-8").splitlines()
            entry["epochs.csv"] = [header.split(","), *([float(c) for c in row.split(",")] for row in rows)]
            entry["report.json"] = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    return entry


def machine() -> dict:
    """What the bits of a run depend on beyond the source: numpy, its BLAS, the CPU."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25, or a build that does not say
        blas = {}
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "arch": platform.machine(),
    }


def write_golden(path: Path) -> None:
    variants = [
        {"config": config, "overrides": list(overrides), **train_and_digest(str(ROOT / config), overrides)}
        for config, overrides in VARIANTS
    ]
    payload = {"machine": machine(), "variants": variants}
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config", nargs="?", help="flat key=value config file")
    ap.add_argument("overrides", nargs="*", help="key=value config overrides")
    ap.add_argument("--golden", type=Path, help="rewrite this golden file from VARIANTS instead")
    args = ap.parse_args(argv)
    if (args.config is None) == (args.golden is None):
        ap.error("give either a config or --golden")

    try:
        if args.golden is not None:
            write_golden(args.golden)
            return 0
        for rel, digest in train_and_digest(args.config, args.overrides)["digests"].items():
            print(f"{digest}  {rel}")
    except CollapseLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
