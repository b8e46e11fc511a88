#!/usr/bin/env python3
"""Train one config into a temporary directory and print a sha256 for every
artifact the run writes, so two checkouts can be compared byte for byte.

    python3 scripts/artifact_digest.py configs/tiny.config disable_hycon=true batch_size=3

Each ``key=value`` argument overrides one config key, with the config file's
own value syntax. The package is imported from this checkout's ``src/``. The
``out_dir`` line of ``config.resolved`` names the temporary directory, so it
is left out of that file's digest. Output is one ``<sha256>  <path>`` line per
file, sorted by path; diff it against the same command run in another
checkout. A run that writes no artifacts prints nothing. A rejected config
prints ``error: ...`` and exits 2, as the CLI does.
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from collapselab.config import parse_config_file, parse_overrides, with_overrides  # noqa: E402
from collapselab.errors import CollapseLabError  # noqa: E402
from collapselab.harness import run_train  # noqa: E402


def digests(out_dir: Path) -> list[tuple[str, str]]:
    """(sha256, relative path) of every file under ``out_dir``, by path."""
    rows = []
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(out_dir).as_posix()
        data = path.read_bytes()
        if rel == "config.resolved":
            data = b"".join(
                line for line in data.splitlines(keepends=True) if not line.startswith(b"out_dir =")
            )
        rows.append((hashlib.sha256(data).hexdigest(), rel))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config", help="flat key=value config file")
    ap.add_argument("overrides", nargs="*", help="key=value config overrides")
    args = ap.parse_args(argv)

    try:
        cfg = with_overrides(parse_config_file(args.config), **parse_overrides(args.overrides))
        with tempfile.TemporaryDirectory() as tmp:
            out_dir = Path(tmp) / "run"
            run_train(with_overrides(cfg, out_dir=str(out_dir)))
            if out_dir.is_dir():
                for digest, rel in digests(out_dir):
                    print(f"{digest}  {rel}")
    except CollapseLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
