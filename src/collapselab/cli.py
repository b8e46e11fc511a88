"""Command-line front end.

Four subcommands:

  train    run one experiment from a config file
  metrics  recompute the collapse report from exported features/weights
  etf      print (and optionally export) a simplex frame and its deviation
  sweep    train once per value of any config key and tabulate

``train`` and ``sweep`` take trailing ``key=value`` arguments, each overriding
one key of the config file with the file's own value syntax.

Exit code 0 on success; a package error, or an OS error such as an output
path that cannot be written, prints one ``error:`` line and exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import parse_config_file, parse_overrides, with_overrides
from .data import load_csv, read_numeric_csv, write_csv
from .errors import CollapseLabError, ParseError
from .etf import etf_deviation, make_etf
from .harness import run_train, sweep, write_report, write_sweep_csv
from .ncmetrics import nc_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collapselab",
        description="Desk-scale experiments on neural collapse under class imbalance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one experiment from a config file")
    p_train.add_argument("--config", required=True, help="flat key=value config file")
    p_train.add_argument("overrides", nargs="*", metavar="key=value", help="config overrides")

    p_metrics = sub.add_parser("metrics", help="collapse report from exported arrays")
    p_metrics.add_argument("--features", required=True, help="CSV of feature rows + 0-based label column")
    p_metrics.add_argument("--weights", required=True, help="CSV of classifier rows (+ bias column)")
    p_metrics.add_argument("--bias", help="separate one-column bias CSV")
    p_metrics.add_argument("--out", required=True, help="directory for report.json and angle CSVs")

    p_etf = sub.add_parser("etf", help="construct a simplex frame and check it")
    p_etf.add_argument("--dim", type=int, required=True, help="ambient dimension")
    p_etf.add_argument("--classes", type=int, required=True, help="number of frame vectors")
    p_etf.add_argument("--seed", type=int, default=0, help="rotation seed")
    p_etf.add_argument("--csv", help="optional path for the frame, one vector per row")

    p_sweep = sub.add_parser("sweep", help="train once per parameter value")
    p_sweep.add_argument("--config", required=True, help="flat key=value config file")
    p_sweep.add_argument("--param", required=True, help="the config key to vary")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", help="output CSV path (default: sweep_<param>.csv)")
    p_sweep.add_argument("overrides", nargs="*", metavar="key=value", help="config overrides")

    return parser


def _load_config(args: argparse.Namespace):
    return with_overrides(parse_config_file(args.config), **parse_overrides(args.overrides))


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    result = run_train(cfg)
    if not result.logs:
        print("diverged before completing the first epoch", file=sys.stderr)
        return 2
    last = result.logs[-1]
    status = "diverged" if result.diverged else "ok"
    print(
        f"{status}: {len(result.logs)} epochs, "
        f"acc {last.accuracy.overall:.9g} "
        f"(many {last.accuracy.many:.9g}, medium {last.accuracy.medium:.9g}, "
        f"few {last.accuracy.few:.9g}), "
        f"std_cos_mu {last.report.std_cos_mu:.9g}, delta {last.report.delta:.9g}"
    )
    if cfg.out_dir:
        print(f"artifacts: {Path(cfg.out_dir).resolve()}")
    return 2 if result.diverged else 0


def _load_weights(weights_path: str, bias_path: str | None, feature_dim: int):
    _, w = read_numeric_csv(weights_path)
    bias = None
    if bias_path is not None:
        _, b = read_numeric_csv(bias_path)
        if b.ndim != 2 or b.shape[1] != 1:
            raise ParseError(f"{bias_path}: bias CSV must have exactly one column")
        bias = b[:, 0]
        if w.shape[1] != feature_dim:
            raise ParseError(
                f"{weights_path}: {w.shape[1]} columns do not match feature dim {feature_dim}"
            )
        if bias.shape[0] != w.shape[0]:
            raise ParseError(f"{bias_path}: {bias.shape[0]} rows do not match {w.shape[0]} classifier rows")
        return w, bias
    if w.shape[1] == feature_dim + 1:
        return w[:, :-1], w[:, -1]
    if w.shape[1] == feature_dim:
        return w, None
    raise ParseError(
        f"{weights_path}: {w.shape[1]} columns match neither d={feature_dim} nor d+1"
    )


def _cmd_metrics(args: argparse.Namespace) -> int:
    features = load_csv(args.features)
    weights, bias = _load_weights(args.weights, args.bias, features.dim)
    num_classes = weights.shape[0]
    if features.y.max() >= num_classes:
        raise ParseError(f"{args.features}: label {features.y.max()} out of range for {num_classes} classifier rows")
    report = nc_report(features.x, features.y, weights, bias, num_classes)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_report(out, report)
    print(json.dumps({k: v for k, v in report.to_dict().items() if not isinstance(v, list)}, indent=2))
    print(f"artifacts: {out.resolve()}")
    return 0


def _cmd_etf(args: argparse.Namespace) -> int:
    frame = make_etf(args.dim, args.classes, seed=args.seed)
    gram = frame @ frame.T
    print(f"simplex frame: {args.classes} vectors in R^{args.dim}, seed {args.seed}")
    print("gram matrix:")
    for row in gram:
        print("  " + " ".join(f"{v: .9g}" for v in row))
    print(f"deviation from target: {etf_deviation(frame):.3e}")
    if args.csv:
        path = Path(args.csv)
        write_csv(path, [f"dim{i}" for i in range(args.dim)], frame, "%.9g")
        print(f"frame written to {path.resolve()}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    rows = sweep(_load_config(args), args.param, [v for v in args.values.split(",") if v.strip()])
    out = args.out or f"sweep_{args.param}.csv"
    write_sweep_csv(rows, out)
    for row in rows:
        print(row.csv_row())
    print(f"table written to {Path(out).resolve()}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "train": _cmd_train,
        "metrics": _cmd_metrics,
        "etf": _cmd_etf,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except (CollapseLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
