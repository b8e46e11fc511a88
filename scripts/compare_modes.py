#!/usr/bin/env python3
"""Train the same imbalanced problem twice, once with plain cross-entropy
and once with the full combined objective, and print the final diagnostics
side by side.

    python scripts/compare_modes.py --config configs/default.config --seed 0

With --out, each run also writes its full artifact set (epochs.csv,
report.json, features/weights snapshots) under <out>/<mode>/.
"""

import argparse
import sys

from collapselab.config import TrainConfig, parse_config_file, with_overrides
from collapselab.errors import CollapseLabError
from collapselab.harness import run_train

ROWS = [
    ("std_cos_mu", lambda rep, acc: rep.std_cos_mu),
    ("std_cos_w", lambda rep, acc: rep.std_cos_w),
    ("delta", lambda rep, acc: rep.delta),
    ("ncc_agreement", lambda rep, acc: rep.ncc_agreement),
    ("acc_overall", lambda rep, acc: acc.overall),
    ("acc_many", lambda rep, acc: acc.many),
    ("acc_few", lambda rep, acc: acc.few),
]


def compare(args: argparse.Namespace) -> int:
    base = parse_config_file(args.config) if args.config else TrainConfig()
    overrides = {k: v for k, v in (("beta", args.beta), ("seed", args.seed)) if v is not None}
    results = {}
    for mode in ("ce", "allnc"):
        out_dir = f"{args.out}/{mode}" if args.out else ""
        cfg = with_overrides(base, mode=mode, out_dir=out_dir, **overrides)
        print(f"training mode={mode} beta={cfg.beta:g} seed={cfg.seed} ...", flush=True)
        result = run_train(cfg)
        if result.diverged:
            print(f"{mode} run diverged after {len(result.logs)} epochs", file=sys.stderr)
            return 2
        results[mode] = (result.final_report, result.final_accuracy)

    print()
    print(f"{'metric':<16}{'ce':>12}{'allnc':>12}")
    for name, pick in ROWS:
        ce_v = pick(*results["ce"])
        fix_v = pick(*results["allnc"])
        print(f"{name:<16}{ce_v:>12.4f}{fix_v:>12.4f}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", help="base config file (defaults apply if omitted)")
    ap.add_argument("--beta", type=float, help="imbalance ratio (default: the config's)")
    ap.add_argument("--seed", type=int, help="master seed (default: the config's)")
    ap.add_argument("--out", default="", help="artifact directory (optional)")
    args = ap.parse_args(argv)
    try:
        return compare(args)
    except CollapseLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
