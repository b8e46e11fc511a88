#!/usr/bin/env python3
"""Run the benchmark on a parent commit and on this working tree, in
alternating runs, and write both sides and their paired ratios as JSON.

    python3 scripts/bench_pair.py --parent HEAD~1 --out BENCH_<n>.json

Each side runs from a fresh tree of plain files, and the two trees are
siblings in one temporary directory, removed again at the end: the
parent's is its commit as ``git archive`` writes it; the change's is a copy
of the working tree's tracked files and its untracked files that git does
not ignore, without the tracked paths deleted from it, so a new module is
measured. Running one side from the repository itself and the other from
elsewhere skewed ``run_s`` by a tenth with no code changed. Each run is
one unmodified ``perfbench/run.py --trace 0`` of its side's tree, as a
child process, on a
workload and for the ``run_seconds`` of ``BENCHMARK.json``. Every workload
there gets ten pairs, the fewest that can back a claimed gain; pair i runs
the parent first when i is even and the working tree first when it is odd,
so that a drift of the host's speed falls on both sides alike.

The file records, per workload, each run's end-to-end metrics, its pass
count (the ``passes`` of ``run.py``'s context line), its wall time and the
CPU time of its process (the ``RUSAGE_CHILDREN`` delta, so a spinning BLAS
thread shows as CPU time above the wall time), and each side's median pass
count; then, per metric, the paired ratios change/parent, their median, the
pairs the change won, the quartile distance of the parent's runs, the
metric's ``bound`` from ``BENCHMARK.json``'s ``end_to_end`` list,
``within_bound``: whether the change's median is at most the parent's
median times (1 + bound), and ``gain_shown``: whether ten or more pairs
show a gain, the change winning at least nine in ten of them (a tie wins
for neither side) and its median lying below the parent's by more than the
parent's quartile distance. It also records the machine block of
``run.py``, both commit shas, and whether the working tree had changes.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export_parent(sha: str, tree: Path) -> None:
    """Write commit ``sha``'s files into the new directory ``tree``."""
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True).stdout
    tree.mkdir()
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)


def copy_working_tree(tree: Path) -> None:
    """Copy the working tree's tracked and untracked-but-not-ignored files,
    as they stand, into ``tree``; a tracked path deleted from the working
    tree is left out."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for rel in sorted(set(listed) - {""}):
        if (ROOT / rel).is_file():
            (tree / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / rel, tree / rel)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` in ``tree``: its result, context,
    wall time and child CPU time."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n{done.stderr}")
    context, result = json.loads(lines[-2])["context"], json.loads(lines[-1])
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "passes": context["passes"],
        "wall_s": wall,
        "cpu_s": cpu,
        "machine": context["machine"],
    }


def _quartile_distance(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(runs: list[dict], bounds: dict[str, float]) -> dict:
    """Per metric, the paired comparison of one workload's runs.

    ``runs`` holds dicts with ``side`` ("parent" or "change"), ``pair`` and
    ``metrics``; a metric counts in a pair only when both sides report it.
    ``bounds`` maps each metric to its relative bound. Every metric is
    lower-is-better, as in ``BENCHMARK.json``.
    """
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    names = sorted({name for run in runs for name in run["metrics"]})
    out = {}
    for name in names:
        pairs = [
            (sides["parent"][name], sides["change"][name])
            for _, sides in sorted(by_pair.items())
            if all(side in sides and name in sides[side] for side in SIDES)
        ]
        if not pairs:
            continue
        parent = [p for p, _ in pairs]
        change = [c for _, c in pairs]
        ratios = [c / p if p else float("nan") for p, c in pairs]
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        wins, spread = sum(c < p for p, c in pairs), _quartile_distance(parent)
        out[name] = {
            "parent": parent,
            "change": change,
            "ratios": ratios,
            "median_ratio": statistics.median(ratios),
            "change_wins": wins,
            "pairs": len(pairs),
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_quartile_distance": spread,
            "bound": bounds[name],
            "within_bound": change_median <= parent_median * (1 + bounds[name]),
            "gain_shown": len(pairs) >= PAIRS and 10 * wins >= 9 * len(pairs) and parent_median - change_median > spread,
        }
    return out


def median_passes(runs: list[dict]) -> dict[str, float]:
    """Each side's median pass count over one workload's runs."""
    return {side: statistics.median(run["passes"] for run in runs if run["side"] == side) for side in SIDES}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD", help="commit to compare against (default HEAD)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    seconds = bench["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in bench["end_to_end"]}

    parent_sha = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    change_sha = git("rev-parse", "HEAD")
    edited = bool(git("status", "--porcelain"))
    if parent_sha == change_sha and not edited:
        ap.error(f"the working tree is {args.parent} itself; pass the commit before it, such as HEAD~1")
    record = {
        "parent_sha": parent_sha,
        "change_sha": change_sha,
        "change_has_uncommitted_edits": edited,
        "seed": args.seed,
        "seconds": seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        export_parent(parent_sha, trees["parent"])
        copy_working_tree(trees["change"])
        for workload in (w["name"] for w in bench["workloads"]):
            runs = []
            for pair in range(PAIRS):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    run = run_once(trees[side], workload, args.seed, seconds)
                    record.setdefault("machine", run.pop("machine"))
                    runs.append({"side": side, "pair": pair, **run})
                    print(f"{workload} pair {pair} {side}: {json.dumps(run['metrics'])}", file=sys.stderr)
            record["workloads"][workload] = {
                "runs": runs,
                "median_passes": median_passes(runs),
                "summary": summarize(runs, bounds),
            }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
