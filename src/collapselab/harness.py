"""Experiment harness: the training loop, evaluation, sweeps, and run outputs.

``run_train`` executes one experiment from a TrainConfig. In allnc mode each
step takes two augmented views of a batch through the shared network and
minimizes ``losses.allnc_loss``, whose blend eta = 1 - (t/t_max)^gamma
decays over epochs (frozen to a constant when the schedule is disabled). In
ce mode a step is a plain cross-entropy update on the raw batch; the other
loss columns log zero.

After every epoch the full training set is pushed through ``model.encode``
(no augmentation, no graph) for a collapse report, and a balanced test
split is scored overall and per class-size group. Groups follow the head
count n_max: Many > 0.2*n_max, Few <= 0.04*n_max, Medium between.

A non-finite loss or gradient, or a degenerate input (a vector to normalize
whose norm is zero or overflows) in a step or in the epoch's collapse report,
ends the run as diverged. The run keeps one checkpoint, its last completed
epoch: ``params.theta``, which a step replaces and never writes into, and the
features its report was computed from, which the artifacts describe; a run
with no completed epoch writes none. Every other package error is a broken
contract and propagates. numpy's floating-point warnings are silenced in the
epoch loop: divergence is detected by the finiteness checks. A frozen
classifier bias has its gradient dropped: it starts at exact zeros, which
weight decay leaves at 0.0.
Sweeps set any config key to one value per row, parsed as the config file
parses it, and write the final epochs.csv row of each run; each run's
out_dir is cleared, so a sweep writes no run artifacts. They keep going
past a diverged run or a value that the config or its data rejects
(ConfigError, such as a beta that starves the tail), marking the row
failed; any other package error propagates as it does from ``run_train``.

Run artifacts, written when cfg.out_dir is set (fixed layout,
deterministic bytes for a fixed config):
    config.resolved   the full effective config, reparseable
    epochs.csv        one row per epoch: losses, diagnostics, accuracies
    report.json       final NCReport fields, then diverged, epochs_completed
                      and final_accuracy (written by ``write_report``)
    features.csv      the final report's training-set features + labels (full precision)
    weights.csv       classifier rows + bias column (full precision)
    icpa_mu.csv       final pairwise angles between centered class means
    icpa_w.csv        final pairwise angles between centered classifier rows
    params/           parameter snapshot (manifest.json + one .npy per array)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import autodiff as ad
from . import losses as L
from .config import TrainConfig, _format_value, parse_overrides, resolved_text, with_overrides
from .data import (
    Dataset,
    ViewAugmenter,
    batches,
    class_means,
    gen_gaussian_mixture,
    load_csv,
    long_tail_counts,
    save_csv,
    write_csv,
)
from .errors import ConfigError, ContractError, DegenerateInputError, TrainingDivergedError
from .model import (
    NetworkParams,
    encode,
    forward,
    init_params,
    save_params,
    sgd_step,
)
from .ncmetrics import NCReport, nc_report

MANY_FRACTION = 0.2
FEW_FRACTION = 0.04


@dataclass
class GroupAccuracy:
    """Balanced-test accuracy overall and by training-frequency group.

    A group with no classes (balanced training puts everything in Many)
    scores NaN.
    """

    overall: float
    many: float
    medium: float
    few: float


@dataclass
class EpochLog:
    """One row of epochs.csv: epoch means of the loss terms (the ``loss_*``
    fields, in column order), then the collapse report's REPORT_COLUMNS and
    the accuracies."""

    epoch: int
    eta: float
    loss_ce: float
    loss_re: float
    loss_hycon: float
    loss_p2p_mu: float
    loss_p2p_w: float
    loss_branch1: float
    loss_branch2: float
    loss_total: float
    report: NCReport
    accuracy: GroupAccuracy

    def csv_row(self) -> str:
        cells = [
            self.eta,
            *(getattr(self, c) for c in LOSS_COLUMNS),
            *(getattr(self.report, c) for c in REPORT_COLUMNS),
            *(getattr(self.accuracy, c) for c in ACCURACY_COLUMNS),
        ]
        return ",".join([str(self.epoch), *(f"{c:.9g}" for c in cells)])


LOSS_COLUMNS = tuple(f.name for f in fields(EpochLog) if f.name.startswith("loss_"))
REPORT_COLUMNS = tuple(name for name, kind in get_type_hints(NCReport).items() if kind is float)
ACCURACY_COLUMNS = tuple(f.name for f in fields(GroupAccuracy))
EPOCH_CSV_HEADER = ",".join(
    ["epoch", "eta", *LOSS_COLUMNS, *REPORT_COLUMNS, *(f"acc_{c}" for c in ACCURACY_COLUMNS)]
)


@dataclass
class RunResult:
    """One run as of its last completed epoch: its parameters, and in
    ``features`` the training-set features (with labels) that epoch's report
    was computed from; ``features`` is None when no epoch completed."""

    config: TrainConfig
    params: NetworkParams
    features: Dataset | None
    logs: list[EpochLog]
    diverged: bool

    @property
    def final_report(self) -> NCReport:
        if not self.logs:
            raise ContractError("RunResult: no completed epochs")
        return self.logs[-1].report

    @property
    def final_accuracy(self) -> GroupAccuracy:
        if not self.logs:
            raise ContractError("RunResult: no completed epochs")
        return self.logs[-1].accuracy


def class_groups(train_counts: np.ndarray) -> np.ndarray:
    """0 = Many, 1 = Medium, 2 = Few per class, by share of the head count."""
    counts = np.asarray(train_counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size == 0:
        raise ContractError("class_groups: need a non-empty 1-d count vector")
    n_max = counts.max()
    groups = np.full(counts.shape, 1, dtype=np.int64)
    groups[counts > MANY_FRACTION * n_max] = 0
    groups[counts <= FEW_FRACTION * n_max] = 2
    return groups


def _derive_seeds(seed: int) -> dict[str, int]:
    root = np.random.SeedSequence(int(seed))
    names = ("train_data", "test_data", "init", "augment")
    children = root.spawn(len(names))
    return {name: int(child.generate_state(1)[0]) for name, child in zip(names, children)}


def build_datasets(cfg: TrainConfig) -> tuple[Dataset, Dataset]:
    """Training split and test split, with 0-based labels.

    Synthetic data builds a balanced test split. CSV splits keep the rows
    and labels they hold; the training split alone sets the label base: it
    must hold every class, so its smallest label, 0 or 1, is subtracted from
    both splits. The test split may lack classes. A label outside
    [base, base + num_classes) raises ConfigError naming it as written.
    """
    if cfg.dataset == "csv":
        paths = (cfg.train_csv, cfg.test_csv)
        train, test = (load_csv(path) for path in paths)
        if train.dim != cfg.input_dim or test.dim != cfg.input_dim:
            raise ConfigError(f"csv feature width {train.dim}/{test.dim} does not match input_dim {cfg.input_dim}")
        base = int(train.y.min())
        if base not in (0, 1):
            raise ConfigError(f"{cfg.train_csv}: training labels must start at 0 or 1, got minimum {base}")
        for path, split in zip(paths, (train, test)):
            split.y -= base
            outside = split.y[(split.y < 0) | (split.y >= cfg.num_classes)]
            if outside.size:
                raise ConfigError(
                    f"{path}: label {outside[0] + base} is out of range for num_classes "
                    f"{cfg.num_classes} with training labels starting at {base}"
                )
        if np.any(train.counts(cfg.num_classes) < 1):
            raise ConfigError(f"{cfg.train_csv}: the training split is missing at least one class")
        return train, test
    seeds = _derive_seeds(cfg.seed)
    means = class_means(cfg.num_classes, cfg.input_dim, cfg.mean_placement, cfg.mean_radius, cfg.placement_seed)
    counts = long_tail_counts(cfg.num_classes, cfg.n_max, cfg.beta)
    train = gen_gaussian_mixture(means, counts, cfg.noise_std, seeds["train_data"])
    # Evaluation is always balanced, whatever beta shaped the training split.
    test_counts = np.full(cfg.num_classes, cfg.n_test_per_class, dtype=np.int64)
    test = gen_gaussian_mixture(means, test_counts, cfg.noise_std, seeds["test_data"])
    return train, test


def evaluate(params: NetworkParams, test: Dataset, train_counts: np.ndarray) -> GroupAccuracy:
    """Score a balanced split: overall and per-group accuracy.

    The logits are the classifier applied to ``encode``'s features, computed
    as ``ad.linear`` computes them, so the predictions are bit for bit those
    of ``forward``'s logits; no graph is built and no head runs.
    """
    logits = encode(params, test.x) @ np.ascontiguousarray(params.classifier_w.data.T)
    logits += params.classifier_b.data
    predicted = np.argmax(logits, axis=1)
    correct = predicted == test.y
    sample_groups = class_groups(train_counts)[test.y]
    per_group = []
    for g in (0, 1, 2):
        members = sample_groups == g
        per_group.append(float(np.mean(correct[members])) if members.any() else float("nan"))
    return GroupAccuracy(
        overall=float(np.mean(correct)), many=per_group[0], medium=per_group[1], few=per_group[2]
    )


def _allnc_step(
    cfg: TrainConfig,
    params: NetworkParams,
    x: np.ndarray,
    y: np.ndarray,
    eta_value: float,
    class_weights: np.ndarray,
    augmenter: ViewAugmenter,
) -> tuple[ad.Node, dict[str, float]]:
    x1, x2 = augmenter.pair(x)
    terms = L.allnc_loss(
        forward(params, x1),
        forward(params, x2),
        y,
        eta_value,
        class_weights,
        params.classifier_w,
        cfg.num_classes,
        cfg.alpha,
        disable_hycon=cfg.disable_hycon,
        disable_p2p_mu=cfg.disable_p2p_mu,
        disable_p2p_w=cfg.disable_p2p_w,
    )
    return terms["total"], {f"loss_{name}": node.item() for name, node in terms.items()}


def _ce_step(params: NetworkParams, x: np.ndarray, y: np.ndarray) -> tuple[ad.Node, dict[str, float]]:
    out = forward(params, x)
    ce = L.mean_cross_entropy(out.logits, y)
    value = ce.item()
    stats = dict.fromkeys(LOSS_COLUMNS, 0.0)
    stats.update(loss_ce=value, loss_branch1=value, loss_total=value)
    return ce, stats


def run_train(cfg: TrainConfig) -> RunResult:
    """Execute one experiment; emit its artifacts to cfg.out_dir if it is set.

    A run without a completed epoch has nothing to report and emits nothing.
    Returns the result with one EpochLog per completed epoch; a non-finite
    loss or gradient, or a degenerate input, stops training early and marks
    the result diverged instead of raising, with the parameters put back as
    they stood after the last completed epoch.
    """
    if cfg.out_dir and Path(cfg.out_dir).exists() and not Path(cfg.out_dir).is_dir():
        raise ConfigError(f"run_train: out_dir {cfg.out_dir} exists and is not a directory")
    train, test = build_datasets(cfg)
    counts = train.counts(cfg.num_classes)
    seeds = _derive_seeds(cfg.seed)
    params = init_params(cfg.arch, seeds["init"])
    completed = params.theta
    features = None
    velocity = np.zeros_like(params.theta)
    class_weights = L.inverse_frequency_weights(counts)
    augmenter = ViewAugmenter(
        noise_std=cfg.view_noise_std,
        mask_prob=cfg.view_mask_prob,
        rng=np.random.default_rng(np.random.SeedSequence([seeds["augment"]])),
    )

    logs: list[EpochLog] = []
    diverged = False
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(1, cfg.t_max + 1):
            if cfg.disable_gbbn:
                eta_value = cfg.fixed_eta
            else:
                eta_value = L.eta(epoch, cfg.t_max, cfg.gamma)
            sums = dict.fromkeys(LOSS_COLUMNS, 0.0)
            n_batches = 0
            try:
                for x, y in batches(train, cfg.batch_size, cfg.seed, epoch):
                    if cfg.mode == "ce":
                        total, stats = _ce_step(params, x, y)
                    else:
                        total, stats = _allnc_step(cfg, params, x, y, eta_value, class_weights, augmenter)
                    if not np.isfinite(stats["loss_total"]):
                        raise TrainingDivergedError(
                            f"run_train: non-finite loss at epoch {epoch}, batch {n_batches + 1}"
                        )
                    grads = ad.backward(total)
                    if cfg.freeze_classifier_bias:
                        grads.pop(params.classifier_b, None)
                    velocity = sgd_step(params, grads, velocity, cfg.lr, cfg.momentum, cfg.weight_decay)
                    for c in LOSS_COLUMNS:
                        sums[c] += stats[c]
                    n_batches += 1
                feats = encode(params, train.x)
                report = nc_report(
                    feats, train.y, params.classifier_w.data, params.classifier_b.data, cfg.num_classes
                )
            except (TrainingDivergedError, DegenerateInputError):
                params.set_theta(completed)
                diverged = True
                break
            accuracy = evaluate(params, test, counts)
            means = {c: sums[c] / n_batches for c in LOSS_COLUMNS}
            logs.append(EpochLog(epoch=epoch, eta=eta_value, **means, report=report, accuracy=accuracy))
            completed = params.theta
            features = Dataset(feats, train.y)

    result = RunResult(config=cfg, params=params, features=features, logs=logs, diverged=diverged)
    if cfg.out_dir and logs:
        emit_outputs(result, cfg.out_dir)
    return result


# ---------------------------------------------------------------------------
# output emission


def write_report(out: Path, report: NCReport, **extra) -> None:
    """Write report.json (the report's fields, then ``extra`` in call order)
    and its two angle matrices as icpa_mu.csv and icpa_w.csv."""
    payload = {**report.to_dict(), **extra}
    (out / "report.json").write_text(json.dumps(payload, indent=2, allow_nan=True) + "\n", encoding="utf-8")
    columns = [f"c{i}" for i in range(report.num_classes)]
    write_csv(out / "icpa_mu.csv", columns, report.icpa_mu, "%.9g")
    write_csv(out / "icpa_w.csv", columns, report.icpa_w, "%.9g")


def emit_outputs(result: RunResult, out_dir: str | Path) -> Path:
    """Write the full artifact set for one run; returns the directory."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"emit_outputs: cannot create out_dir {out}: {exc}") from exc

    (out / "config.resolved").write_text(resolved_text(result.config), encoding="utf-8")

    with open(out / "epochs.csv", "w", encoding="utf-8") as fh:
        fh.write(EPOCH_CSV_HEADER + "\n")
        for log in result.logs:
            fh.write(log.csv_row() + "\n")

    write_report(
        out,
        result.final_report,
        diverged=result.diverged,
        epochs_completed=len(result.logs),
        final_accuracy=vars(result.final_accuracy),
    )
    save_csv(result.features, out / "features.csv")
    w = result.params.classifier_w.data
    columns = [f"w{i}" for i in range(w.shape[1])] + ["bias"]
    write_csv(out / "weights.csv", columns, np.column_stack([w, result.params.classifier_b.data]), "%.17g")
    save_params(result.params, out / "params")
    return out


# ---------------------------------------------------------------------------
# sweeps

SWEEP_CSV_HEADER = "param,value,status," + EPOCH_CSV_HEADER


@dataclass
class SweepRow:
    """One swept value and the final epoch of its run; no epoch when the
    value was rejected or its run diverged."""

    param: str
    value: object
    log: EpochLog | None

    @property
    def status(self) -> str:
        return "failed" if self.log is None else "ok"

    def csv_row(self) -> str:
        cells = self.log.csv_row() if self.log is not None else ",".join("nan" for _ in EPOCH_CSV_HEADER.split(","))
        return ",".join([self.param, _format_value(self.value), self.status, cells])


def sweep(cfg: TrainConfig, param: str, values: list[str]) -> list[SweepRow]:
    """Run one training per value text of any config key; shared seeds.

    An unknown key or a value text the config parser rejects raises before
    any training. A diverged run, or a value that the config or its data
    rejects (ConfigError), produces a row marked failed and the sweep
    continues; every other package error propagates.
    """
    parsed = [parse_overrides([f"{param}={text}"])[param] for text in values]
    if not parsed:
        raise ConfigError("sweep: need at least one value")
    rows: list[SweepRow] = []
    for value in parsed:
        try:
            result = run_train(with_overrides(cfg, **{param: value, "out_dir": ""}))
            rows.append(SweepRow(param, value, None if result.diverged or not result.logs else result.logs[-1]))
        except ConfigError:
            rows.append(SweepRow(param, value, None))
    return rows


def write_sweep_csv(rows: list[SweepRow], path: str | Path) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", encoding="utf-8") as fh:
        fh.write(SWEEP_CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.csv_row() + "\n")
