"""The collapselab benchmark: three workloads, end-to-end times, and a
per-layer split timed from outside the package.

Run from the root of a checkout (the package is imported from ``src/``)::

    python3 perfbench/run.py --workload allnc_full --seed 0 --seconds 40 --trace 0

The load is a closed loop: one process, one client, one workload pass after
another, never two at once. BLAS keeps its default thread count, which is
recorded with the machine. ``--trace 0`` measures the end-to-end metrics,
``--trace 1`` the per-layer ones; README.md next to this file defines each.
The last line of standard output is the result as one JSON object; the
line before it records the machine, the seed and the workload.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np
from benchlib import Tracer, check_training, latency_summary, machine_info, patched, traced

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

clock = time.perf_counter

# Why each workload exists (the same text is in BENCHMARK.json). ce_emit is
# not listed there: the host's drift spread its run_s by 0.29 over ten runs,
# more than the largest bound a metric may have. It stays runnable by hand.
WORKLOADS = {
    # Graph building and backward dominate: this is where fused ops, a shared
    # CE node and a tape in autodiff should show.
    "allnc_full": "full-size allnc run: graph building and backward dominate; autodiff and loss-assembly changes show here",
    # No hycon, p2p, rho_matrix or augmentation and a 29-node step graph, so
    # the forward, sgd_step and per-epoch diagnostics take a far larger share;
    # a loss-layer change should show no change here.
    "ce_emit": "full-size ce run with every artifact written: skips the allnc losses, so diagnostics, optimizer and emission weigh most",
    # autodiff the other way round: ~52,400 forward evaluations of tiny graphs
    # and only 600 backward calls; moving cost from backward into node
    # creation helps allnc_full and hurts here.
    "gradcheck": "the 600 finite-difference checks of the acceptance gradient suite: many tiny forward graphs, few backward calls",
}

# configs/default.config, pinned here so that the workload does not move
# when the package's defaults do.
FULL_SIZE = dict(
    dataset="synthetic",
    num_classes=10,
    input_dim=32,
    n_max=500,
    beta=100.0,
    n_test_per_class=100,
    mean_placement="etf",
    mean_radius=4.0,
    noise_std=1.0,
    placement_seed=7,
    view_noise_std=0.5,
    view_mask_prob=0.1,
    hidden_dims=(128, 64),
    feature_dim=16,
    proj_dim=16,
    proj1_hidden=0,
    predictor_hidden=16,
    lr=0.01,
    momentum=0.9,
    weight_decay=0.005,
    batch_size=64,
    t_max=100,
    alpha=1.0,
    gamma=2.0,
)
EMIT_FILES = (
    "config.resolved",
    "epochs.csv",
    "report.json",
    "features.csv",
    "weights.csv",
    "icpa_mu.csv",
    "icpa_w.csv",
    "params/manifest.json",
)

SETUP_REPEATS = {"allnc_full": 21, "ce_emit": 21, "gradcheck": 7}
# A forward over more rows than a training batch is a whole-split
# diagnostic (1000 or 1242 rows); batches have at most FULL_SIZE batch_size.
STEP_ROWS = FULL_SIZE["batch_size"]
# Passes never start when they would end after this many seconds of the
# process, so that a run stays inside its 180 s limit.
HARD_LIMIT_S = 150.0
# operations a pass needs before its tail percentile is defined
MIN_OPS = 20


# ---------------------------------------------------------------------------
# set-up


def import_package() -> SimpleNamespace:
    """A fresh import of the package's modules from ``src/``."""
    for name in [m for m in sys.modules if m == "collapselab" or m.startswith("collapselab.")]:
        del sys.modules[name]
    mods = {
        name: importlib.import_module(f"collapselab.{name}")
        for name in ("autodiff", "losses", "model", "config", "harness")
    }
    return SimpleNamespace(**mods)


def training_setup(mode: str, seed: int):
    api = import_package()
    cfg = api.config.with_overrides(api.config.TrainConfig(), mode=mode, seed=seed, out_dir="", **FULL_SIZE)
    return api, cfg


@dataclass
class Check:
    family: str
    build: Callable  # rebuilds the scalar loss from the current parameter arrays
    params: list
    tol: float


FAMILY_TOL = 1e-5
COMPOSITE_TOL = 1e-4
FAMILIES = ("ce", "reweighted", "hycon", "p2p_raw", "p2p_tilde")
CHECKS_PER_FAMILY = 100
COMPOSITE_CHECKS = 100
COMPOSITE_SEARCH_LIMIT = 20_000


def _family_check(api, family: str, rng) -> Check:
    """One instance of a loss family, shaped as in the acceptance suite."""
    ad, L = api.autodiff, api.losses
    if family in ("ce", "reweighted"):
        logits = ad.param(rng.standard_normal((4, 3)))
        y = rng.integers(0, 3, size=4)
        if family == "ce":
            return Check(family, lambda: L.mean_cross_entropy(logits, y), [logits], FAMILY_TOL)
        w = np.abs(rng.standard_normal(3)) + 0.2
        w /= w.mean()
        return Check(family, lambda: L.mean_reweighted_ce(logits, y, w), [logits], FAMILY_TOL)
    if family == "hycon":
        parts = [ad.param(rng.standard_normal((3, 4)) + 0.5) for _ in range(4)]
        y = rng.integers(0, 2, size=3)
        t1 = ad.constant(parts[2].data.copy())
        t2 = ad.constant(parts[3].data.copy())
        return Check(
            family, lambda: L.hycon_batch(*parts, y, target_z1=t1, target_z2=t2), parts, FAMILY_TOL
        )
    v = ad.param(rng.standard_normal((4, 6)))
    tilde = family == "p2p_tilde"
    return Check(family, lambda: L.p2p(v, tilde), [v], FAMILY_TOL)


# Central differences with step 1e-5 err by about step**2 / |v|**3 around a
# normalized vector v: at |v| = 0.017 by 1.1e-4 on a correct gradient (one
# composite instance of seed 24, whose error shrinks as step**2). So the
# suite's floor of 1e-2 under normalized vectors is raised to NORM_FLOOR, and
# the in-batch class means of the projections, which hycon also normalizes,
# are held to it too.
NORM_FLOOR = 5e-2


def _regular_point(api, params, xs, y) -> bool:
    """The acceptance suite's rule: finite differences need a differentiable
    point, so reject instances near a relu kink or a normalization singularity."""
    for x in xs:
        a = x
        for w, b in params.encoder:
            pre = a @ w.data.T + b.data
            if np.abs(pre).min() < 1e-3:
                return False
            a = np.maximum(pre, 0.0)
        out = api.model.forward(params, x)
        (w0, b0), _ = params.proj2
        if np.abs(out.z.data @ w0.data.T + b0.data).min() < 1e-3:
            return False
        z, h = out.z.data, out.h.data
        if min(np.linalg.norm(z, axis=1).min(), np.linalg.norm(h, axis=1).min()) < NORM_FLOOR:
            return False
        feats = out.features.data
        center = feats.mean(axis=0)
        for c in np.unique(y):
            if np.linalg.norm(feats[y == c].mean(axis=0) - center) < NORM_FLOOR:
                return False
            if np.linalg.norm(z[y == c].mean(axis=0)) < NORM_FLOOR:
                return False
    return True


def _composite_check(api, seed: int, k: int) -> Check | None:
    """The whole allnc objective on a small network, or None off a regular point."""
    ad, L, M = api.autodiff, api.losses, api.model
    rng = np.random.default_rng([seed, len(FAMILIES), k])
    arch = M.ArchSpec(input_dim=5, num_classes=3, hidden_dims=(6,), feature_dim=4, proj_dim=4, predictor_hidden=4)
    params = M.init_params(arch, seed=int(np.random.SeedSequence([seed, k]).generate_state(1)[0]))
    x1 = np.abs(rng.standard_normal((4, 5))) + 0.3
    x2 = np.abs(rng.standard_normal((4, 5))) + 0.3
    y = rng.integers(0, 3, size=4)
    if len(np.unique(y)) < 2 or not _regular_point(api, params, (x1, x2), y):
        return None
    weights = L.inverse_frequency_weights(np.bincount(y, minlength=3) + 1)
    tz1 = ad.constant(M.forward(params, x1).z.data.copy())
    tz2 = ad.constant(M.forward(params, x2).z.data.copy())

    def build():
        v1, v2 = M.forward(params, x1), M.forward(params, x2)
        p2p_w = L.p2p(params.classifier_w, center_and_normalize=False)
        b1 = L.branch_loss(v1.logits, y, 0.6, weights, params.classifier_w, p2p_w=p2p_w)
        b2 = L.branch_loss(v2.logits, y, 0.6, weights, params.classifier_w, p2p_w=p2p_w)
        hy = L.hycon_batch(v1.h, v2.h, v1.z, v2.z, y, target_z1=tz1, target_z2=tz2)
        mu1, _ = L.class_mean_matrix(v1.features, y)
        pm = L.p2p(mu1, True, num_classes=3, center=ad.mean_rows(v1.features))
        return L.total_loss(b1, b2, hy, pm, 1.0)

    return Check("composite", build, [p for _, p in params.named_parameters()], COMPOSITE_TOL)


def gradcheck_setup(seed: int):
    api = import_package()
    checks = [
        _family_check(api, family, np.random.default_rng([seed, f, i]))
        for f, family in enumerate(FAMILIES)
        for i in range(CHECKS_PER_FAMILY)
    ]
    composites = 0
    for k in range(COMPOSITE_SEARCH_LIMIT):
        check = _composite_check(api, seed, k)
        if check is not None:
            checks.append(check)
            composites += 1
            if composites == COMPOSITE_CHECKS:
                return api, checks
    raise RuntimeError(f"gradcheck: only {composites} regular composite points in {COMPOSITE_SEARCH_LIMIT} draws")


def setup(workload: str, seed: int):
    """(package modules, config or check instances) of one workload."""
    if workload == "gradcheck":
        return gradcheck_setup(seed)
    return training_setup("allnc" if workload == "allnc_full" else "ce", seed)


def timed_setup(workload: str, seed: int):
    """Set up ``SETUP_REPEATS`` times; returns (median seconds, last set-up)."""
    times = []
    for _ in range(SETUP_REPEATS[workload]):
        t0 = clock()
        state = setup(workload, seed)
        times.append(clock() - t0)
    return statistics.median(times), state


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    wall_s: float
    op_s: list  # latency of each operation: one training step or one loss evaluation
    attempted: int
    failed: int
    fingerprint: str  # equal across repeats of one seed, traced or not
    problems: list
    evals: int = 0  # forward evaluations made by grad_check


@contextlib.contextmanager
def step_clock(api, ends: list):
    """The one hook of an untraced training pass: appends to ``ends`` the
    time at which each ``autodiff.backward`` call returns, one per step."""

    def wrap(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            ends.append(clock())
            return out

        return wrapper

    with patched([("autodiff.backward", api.autodiff, "backward", wrap)], []):
        yield


def _params_digest(params) -> str:
    h = hashlib.sha256()
    for name, node in params.named_parameters():
        h.update(name.encode())
        h.update(node.data.tobytes())
    return h.hexdigest()


def training_pass(api, cfg, reference: dict, trace: "LayerTrace | None" = None) -> Pass:
    """One ``run_train`` call, clocked per step, or traced when ``trace`` is given."""
    emit = cfg.mode == "ce"
    out_dir = None
    if emit:
        WORK.mkdir(exist_ok=True)
        out_dir = Path(tempfile.mkdtemp(dir=WORK))
        cfg = api.config.with_overrides(cfg, out_dir=str(out_dir))
    ends: list[float] = []
    t0 = clock()
    try:
        with trace or step_clock(api, ends):
            t0 = clock()
            result = api.harness.run_train(cfg)
            wall = clock() - t0
        problems, fingerprint = _judge_training(cfg, result, reference, out_dir)
    except Exception:  # a run that raised is a failed operation, not a crash
        wall = clock() - t0
        problems, fingerprint = [f"run_train raised:\n{traceback.format_exc()}"], ""
    finally:
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
    if trace is None and not ends and not problems:
        problems.append("no autodiff.backward call seen: steps cannot be timed")
    op_s = [b - a for a, b in zip([t0] + ends, ends)]
    return Pass(wall, op_s, 1, int(bool(problems)), fingerprint, problems)


def _judge_training(cfg, result, reference: dict, out_dir: Path | None) -> tuple[list, str]:
    """Correctness problems of one finished run, and its result fingerprint:
    the final report, accuracies and parameter bytes, plus the bytes of the
    emitted report.json when artifacts were written."""
    logs = result.logs
    final = result.final_report if logs else None
    accuracy = result.final_accuracy if logs else None
    summary = {
        "diverged": result.diverged,
        "epoch_losses": [log.loss_total for log in logs],
        "epochs_expected": cfg.t_max,
        "acc_few": accuracy.few if logs else math.nan,
        "delta": final.delta if logs else math.nan,
        "std_cos_mu": final.std_cos_mu if logs else math.nan,
    }
    problems = check_training(summary, reference[cfg.mode])
    payload = {
        "report": final.to_dict() if logs else None,
        "accuracy": vars(accuracy) if logs else None,
        "epochs": len(logs),
        "diverged": result.diverged,
        "params": _params_digest(result.params),
    }
    if out_dir is not None:
        missing = [name for name in EMIT_FILES if not (out_dir / name).is_file()]
        if missing:
            problems.append(f"artifacts missing: {missing}")
        else:
            payload["report.json"] = hashlib.sha256((out_dir / "report.json").read_bytes()).hexdigest()
    return problems, json.dumps(payload, sort_keys=True)


def gradcheck_pass(api, checks: list, trace: "LayerTrace | None" = None) -> Pass:
    """Every check once, in order. The operation timed is one evaluation of
    the loss by ``grad_check``: a check's own latency would put the median
    between two families (300 of the 600 checks are the cheap ce,
    reweighted and p2p_raw ones), where one slow check moves it."""
    op_s, errors, problems = [], [], []

    def timed(build):
        def f():
            start = clock()
            loss = build()
            op_s.append(clock() - start)
            return loss

        return f

    with trace or contextlib.nullcontext():
        t0 = clock()
        for i, check in enumerate(checks):
            try:
                err = api.autodiff.grad_check(timed(check.build), check.params)
            except Exception:  # one failed check must not end the pass
                err = math.nan
                problems.append(f"check {i} ({check.family}) raised:\n{traceback.format_exc()}")
            else:
                if not err < check.tol:
                    problems.append(f"check {i} ({check.family}): error {err:.3e} not below {check.tol:.0e}")
            errors.append(err)
        wall = clock() - t0
    failed = sum(not err < check.tol for err, check in zip(errors, checks))
    fingerprint = json.dumps([float(e).hex() for e in errors])
    return Pass(wall, op_s, len(checks), failed, fingerprint, problems, len(op_s))


def one_pass(workload: str, state, reference: dict, trace: "LayerTrace | None" = None) -> Pass:
    api, inputs = state
    if workload == "gradcheck":
        return gradcheck_pass(api, inputs, trace)
    return training_pass(api, inputs, reference, trace)


# ---------------------------------------------------------------------------
# the traced pass


def _count_nodes(root) -> tuple[int, int]:
    """Nodes reachable from ``root`` through ``parents``, and those of them on
    the gradient path: reached through requires-grad parents only, which
    stops at constants and stop_gradient markers as backward does."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    grad_seen = {id(root)} if root.requires_grad else set()
    stack = [root] if root.requires_grad else []
    while stack:
        for parent in stack.pop().parents:
            if parent.requires_grad and id(parent) not in grad_seen:
                grad_seen.add(id(parent))
                stack.append(parent)
    return len(seen), len(grad_seen)


# span name -> whether its call count is reported
LAYER_SPANS = {
    "autodiff.backward": True,
    "autodiff.grad_check": False,
    "model.forward_step": True,
    "model.forward_diag": True,
    "model.sgd_step": False,
    "model.init_params": False,
    "losses.ce": False,
    "losses.hycon": False,
    "losses.p2p": False,
    "losses.total": False,
    "etf.rho_matrix": True,
    "ncmetrics.nc_report": True,
    "data.augment": False,
    "data.build": False,
    "harness.evaluate": False,
    "harness.emit": False,
}
ROOT_SPAN = "harness.run"
WALK_SPAN = "trace.node_walk"


def trace_targets(api, tracer: Tracer, node_counts: list):
    """(span name, owner, attribute, make_wrapper) for every layer boundary.

    Each function is wrapped where its caller looks it up: the harness
    imported ``forward``, ``sgd_step``, ``init_params``, ``nc_report`` and
    ``build_datasets`` by name, and reaches autodiff and losses through their
    modules. Only public names are wrapped.
    """
    ad, L, M, H = api.autodiff, api.losses, api.model, api.harness

    def span(name):
        return lambda fn: traced(tracer, fn, name)

    def forward_span(fn):
        def name(params, x, *args, **kwargs):
            return "model.forward_diag" if x.shape[0] > STEP_ROWS else "model.forward_step"

        return traced(tracer, fn, name)

    def backward_span(fn):
        inner = traced(tracer, fn, "autodiff.backward")

        def wrapper(root, *args, **kwargs):
            with tracer.span(WALK_SPAN):
                node_counts.append(_count_nodes(root))
            return inner(root, *args, **kwargs)

        return wrapper

    return [
        ("autodiff.backward", ad, "backward", backward_span),
        ("autodiff.grad_check", ad, "grad_check", span("autodiff.grad_check")),
        ("model.forward_step", H, "forward", forward_span),
        ("model.forward_step", M, "forward", forward_span),
        ("model.sgd_step", H, "sgd_step", span("model.sgd_step")),
        ("model.init_params", H, "init_params", span("model.init_params")),
        ("losses.ce", L, "mean_cross_entropy", span("losses.ce")),
        ("losses.ce", L, "mean_reweighted_ce", span("losses.ce")),
        ("losses.hycon", L, "hycon_batch", span("losses.hycon")),
        ("losses.p2p", L, "p2p", span("losses.p2p")),
        ("losses.p2p", L, "class_mean_matrix", span("losses.p2p")),
        ("losses.total", L, "branch_loss", span("losses.total")),
        ("losses.total", L, "total_loss", span("losses.total")),
        ("etf.rho_matrix", L, "rho_matrix", span("etf.rho_matrix")),
        ("ncmetrics.nc_report", H, "nc_report", span("ncmetrics.nc_report")),
        ("data.augment", getattr(H, "ViewAugmenter", None), "pair", span("data.augment")),
        ("data.build", H, "build_datasets", span("data.build")),
        ("harness.evaluate", H, "evaluate", span("harness.evaluate")),
        ("harness.emit", H, "emit_outputs", span("harness.emit")),
    ]


class LayerTrace:
    """Every layer wrapped and one root span open, for the length of a pass."""

    def __init__(self, api):
        self.api = api
        self.tracer = Tracer()
        self.node_counts: list[tuple[int, int]] = []
        self.absent: list[str] = []
        self._stack = None

    def __enter__(self):
        self._stack = contextlib.ExitStack()
        self._stack.enter_context(patched(trace_targets(self.api, self.tracer, self.node_counts), self.absent))
        self._stack.enter_context(self.tracer.span(ROOT_SPAN))
        return self

    def __exit__(self, *exc):
        return self._stack.__exit__(*exc)

    def metrics(self, evals: int, traced_s: float, untraced_s: float) -> dict:
        self_s, calls = self.tracer.self_s, self.tracer.calls
        metrics = {}
        for name, with_calls in LAYER_SPANS.items():
            if name in self.absent:
                continue
            metrics[f"{name}_s"] = (self_s.get(name, 0.0), "s")
            if with_calls:
                metrics[f"{name}_calls"] = (calls.get(name, 0), "count")
        if "autodiff.backward" not in self.absent and self.node_counts:
            metrics["autodiff.nodes_per_step"] = (statistics.median(n for n, _ in self.node_counts), "count")
            metrics["autodiff.grad_nodes_per_step"] = (statistics.median(g for _, g in self.node_counts), "count")
        if "autodiff.grad_check" not in self.absent:
            metrics["autodiff.grad_check_evals"] = (evals, "count")
        metrics["harness.self_s"] = (self_s[ROOT_SPAN], "s")
        metrics["harness.trace_overhead_s"] = (traced_s - untraced_s, "s")
        metrics["trace.node_walk_s"] = (self_s.get(WALK_SPAN, 0.0), "s")
        metrics["trace.run_s"] = (traced_s, "s")
        return metrics


# ---------------------------------------------------------------------------
# command line


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """(metrics, attempted, failed, problems, notes) of one benchmark run."""
    process_start = clock()
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    problems: list[str] = []
    notes: dict = {}

    if trace:
        state = setup(workload, seed)
        plain = one_pass(workload, state, reference)
        layers = LayerTrace(state[0])
        traced_result = one_pass(workload, state, reference, layers)
        passes = [plain, traced_result]
        if traced_result.fingerprint != plain.fingerprint:
            problems.append("the traced pass did not reproduce the untraced pass bit for bit")
            traced_result.failed = traced_result.attempted
        metrics = layers.metrics(traced_result.evals, traced_result.wall_s, plain.wall_s)
        notes.update(absent=layers.absent, span_sum_s=sum(layers.tracer.self_s.values()))
    else:
        setup_s, state = timed_setup(workload, seed)
        min_passes = 1 if workload == "gradcheck" else 2
        passes = []
        start = clock()
        while True:
            passes.append(one_pass(workload, state, reference))
            typical = statistics.median(p.wall_s for p in passes)
            now = clock()
            if len(passes) >= min_passes and (
                now - start + typical > seconds or now - process_start + typical > HARD_LIMIT_S
            ):
                break
        for p in passes[1:]:
            if p.fingerprint != passes[0].fingerprint:
                problems.append("a repeat of one seed gave a different result")
                p.failed = p.attempted
        lat = [latency_summary(p.op_s) for p in passes if len(p.op_s) >= MIN_OPS]
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (statistics.median(p.wall_s for p in passes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        if lat:  # a pass that raised early may hold too few operations
            metrics["op_ms_tail"] = (statistics.median(tail for _, tail, _ in lat), "ms")
            # The median operation is reported but not bounded: the host's
            # speed alone spread it by up to 36 % over ten runs.
            notes.update(op_ms_p50=statistics.median(p50 for p50, _, _ in lat), tail_percentile=lat[0][2])
        notes["pass_s"] = [p.wall_s for p in passes]
    for p in passes:
        problems += p.problems
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    notes.update(passes=len(passes), fail_frac=failed / attempted)
    return metrics, attempted, failed, problems, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "collapselab" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'collapselab'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    try:
        metrics, attempted, failed, problems, notes = measure(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6f} {unit}", file=sys.stderr)
    print(f"{'fail_frac':32s} {notes['fail_frac']:>16.6f} ({failed}/{attempted})", file=sys.stderr)

    context = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        **notes,
    }
    print(json.dumps({"context": context}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
