#!/usr/bin/env python3
"""Sweep the imbalance ratio and watch minority collapse develop.

Trains one run per beta (default: plain cross-entropy at 1, 10, 100) and
prints the geometry diagnostics per step. Rising std_cos_mu and std_cos_w
mean the class means and classifier rows are drifting away from the
equal-angle configuration as the tail gets thinner.

    python scripts/collapse_sweep.py
    python scripts/collapse_sweep.py --mode allnc --betas 1 10 100 --seed 1
"""

import argparse
import sys

from collapselab.config import TrainConfig, parse_config_file, with_overrides
from collapselab.errors import CollapseLabError
from collapselab.harness import run_train


def collapse_sweep(args: argparse.Namespace) -> int:
    base = parse_config_file(args.config) if args.config else TrainConfig()
    overrides = {} if args.seed is None else {"seed": args.seed}
    print(f"{'beta':>8}{'std_cos_mu':>12}{'std_cos_w':>12}{'delta':>10}{'acc_few':>10}{'acc_all':>10}")
    for beta in args.betas:
        cfg = with_overrides(base, mode=args.mode, beta=beta, out_dir="", **overrides)
        result = run_train(cfg)
        if result.diverged:
            print(f"beta={beta:g}: diverged", file=sys.stderr)
            return 2
        rep, acc = result.final_report, result.final_accuracy
        print(
            f"{beta:>8g}{rep.std_cos_mu:>12.4f}{rep.std_cos_w:>12.4f}"
            f"{rep.delta:>10.4f}{acc.few:>10.3f}{acc.overall:>10.3f}",
            flush=True,
        )
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", help="base config file (defaults apply if omitted)")
    ap.add_argument("--mode", default="ce", choices=["ce", "allnc"])
    ap.add_argument("--betas", type=float, nargs="+", default=[1.0, 10.0, 100.0])
    ap.add_argument("--seed", type=int, help="master seed (default: the config's)")
    args = ap.parse_args(argv)
    try:
        return collapse_sweep(args)
    except CollapseLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
