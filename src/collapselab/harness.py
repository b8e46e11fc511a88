"""Experiment harness: the training loop, evaluation, sweeps, and run outputs.

``run_train`` executes one experiment from a TrainConfig. In allnc mode each
step takes two augmented views of a batch through the shared network and
minimizes ``losses.allnc_loss``, whose blend eta = 1 - (t/t_max)^gamma
decays over epochs (frozen to a constant when the schedule is disabled). In
ce mode a step is a plain cross-entropy update on the raw batch; the other
loss columns log zero.

After every epoch the full training set is pushed through the encoder in
evaluation form (no augmentation) for a collapse report, and a balanced test
split is scored overall and per class-size group. Groups follow the head
count n_max: Many > 0.2*n_max, Few <= 0.04*n_max, Medium between.

A non-finite loss or gradient ends the run early with the completed epochs
preserved and the result marked diverged. A diverged run's artifacts
describe its last completed epoch; a run with no completed epoch writes
none. A degenerate input inside a step (a zero vector to normalize)
also ends the run as diverged; every other package error raised by a step
is a broken contract and propagates. numpy's floating-point warnings are
silenced in the epoch loop: divergence is detected by the finiteness checks.
Sweeps run one value per row and keep going past a diverged run or a value
that validation or the data geometry rejects, marking the row failed; any
other package error propagates as it does from ``run_train``.

Run artifacts (fixed layout, deterministic bytes for a fixed config):
    config.resolved   the full effective config, reparseable
    epochs.csv        one row per epoch: losses, diagnostics, accuracies
    report.json       final NCReport fields, then diverged, epochs_completed
                      and final_accuracy (written by ``write_report``)
    features.csv      final training-set features + labels (full precision)
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
from .config import TrainConfig, resolved_text, with_overrides
from .data import (
    Dataset,
    LongTailSpec,
    SyntheticSpec,
    ViewAugmenter,
    balanced_counts,
    batches,
    gen_gaussian_mixture,
    load_csv,
    long_tail_counts,
    save_csv,
    write_csv,
)
from .errors import (
    ConfigError,
    ContractError,
    DegenerateInputError,
    DomainError,
    TrainingDivergedError,
)
from .model import (
    ArchSpec,
    NetworkParams,
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
    config: TrainConfig
    params: NetworkParams
    train: Dataset
    test: Dataset
    train_counts: np.ndarray
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


def build_datasets(cfg: TrainConfig) -> tuple[Dataset, Dataset, np.ndarray]:
    """Training split, balanced test split, and per-class training counts."""
    if cfg.dataset == "csv":
        train = load_csv(cfg.train_csv)
        test = load_csv(cfg.test_csv)
        if train.dim != cfg.input_dim or test.dim != cfg.input_dim:
            raise ConfigError(
                f"csv feature width {train.dim}/{test.dim} does not match input_dim {cfg.input_dim}"
            )
        counts = train.counts(cfg.num_classes)
        if np.any(counts < 1):
            raise ConfigError("csv training data is missing at least one class")
        return train, test, counts
    seeds = _derive_seeds(cfg.seed)
    spec = SyntheticSpec(
        num_classes=cfg.num_classes,
        input_dim=cfg.input_dim,
        mean_placement=cfg.mean_placement,
        mean_radius=cfg.mean_radius,
        noise_std=cfg.noise_std,
        placement_seed=cfg.placement_seed,
    )
    counts = long_tail_counts(LongTailSpec(cfg.num_classes, cfg.n_max, cfg.beta))
    train = gen_gaussian_mixture(spec, counts, seeds["train_data"])
    # Evaluation is always balanced, whatever beta shaped the training split.
    test = gen_gaussian_mixture(
        spec, balanced_counts(cfg.num_classes, cfg.n_test_per_class), seeds["test_data"]
    )
    return train, test, counts


def evaluate(params: NetworkParams, test: Dataset, train_counts: np.ndarray) -> GroupAccuracy:
    """Score a balanced split: overall and per-group accuracy."""
    predicted = np.argmax(forward(params, test.x).logits.data, axis=1)
    correct = predicted == test.y
    groups = class_groups(train_counts)
    per_group = []
    for g in (0, 1, 2):
        members = np.isin(test.y, np.flatnonzero(groups == g))
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
    stats = {f"loss_{name}": node.item() for name, node in terms.items()}
    stats["loss_ce"] = 0.5 * (stats.pop("loss_ce1") + stats.pop("loss_ce2"))
    stats["loss_re"] = 0.5 * (stats.pop("loss_re1") + stats.pop("loss_re2"))
    return terms["total"], stats


def _ce_step(params: NetworkParams, x: np.ndarray, y: np.ndarray) -> tuple[ad.Node, dict[str, float]]:
    out = forward(params, x)
    ce = L.mean_cross_entropy(out.logits, y)
    value = ce.item()
    stats = dict.fromkeys(LOSS_COLUMNS, 0.0)
    stats.update(loss_ce=value, loss_branch1=value, loss_total=value)
    return ce, stats


def run_train(cfg: TrainConfig, emit: bool | None = None) -> RunResult:
    """Execute one experiment; optionally emit artifacts to cfg.out_dir.

    ``emit`` defaults to whether cfg.out_dir is set; a run without a completed
    epoch has nothing to report and emits nothing. Returns the result with
    one EpochLog per completed epoch; a non-finite loss or gradient, or a
    degenerate input, stops training early and marks the result diverged
    instead of raising, with the parameters put back as they stood after the
    last completed epoch.
    """
    train, test, counts = build_datasets(cfg)
    seeds = _derive_seeds(cfg.seed)
    params = init_params(ArchSpec(**{f.name: getattr(cfg, f.name) for f in fields(ArchSpec)}), seeds["init"])
    nodes = [node for _, node in params.named_parameters()]
    # sgd_step replaces parameter arrays and never writes into them, so the
    # arrays themselves are the checkpoint of the last completed epoch.
    completed = [node.data for node in nodes]
    velocity: dict[ad.Node, np.ndarray] = {}
    trainable = params.trainable(cfg.freeze_classifier_bias)
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
            for x, y in batches(train, cfg.batch_size, cfg.seed, epoch):
                try:
                    if cfg.mode == "ce":
                        total, stats = _ce_step(params, x, y)
                    else:
                        total, stats = _allnc_step(cfg, params, x, y, eta_value, class_weights, augmenter)
                    if not np.isfinite(stats["loss_total"]):
                        diverged = True
                        break
                    grads = ad.backward(total)
                    sgd_step(trainable, grads, velocity, cfg.lr, cfg.momentum, cfg.weight_decay)
                except (TrainingDivergedError, DegenerateInputError):
                    diverged = True
                    break
                for c in LOSS_COLUMNS:
                    sums[c] += stats[c]
                n_batches += 1
            if diverged:
                for node, data in zip(nodes, completed):
                    node.data = data
                break

            feats = forward(params, train.x).features.data
            report = nc_report(
                feats, train.y, params.classifier_w.data, params.classifier_b.data, cfg.num_classes
            )
            accuracy = evaluate(params, test, counts)
            means = {c: sums[c] / n_batches for c in LOSS_COLUMNS}
            logs.append(EpochLog(epoch=epoch, eta=eta_value, **means, report=report, accuracy=accuracy))
            completed = [node.data for node in nodes]

    result = RunResult(
        config=cfg,
        params=params,
        train=train,
        test=test,
        train_counts=counts,
        logs=logs,
        diverged=diverged,
    )
    if emit is None:
        emit = bool(cfg.out_dir)
    if emit:
        if not cfg.out_dir:
            raise ConfigError("run_train: emission requested but out_dir is empty")
        if logs:
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
    out.mkdir(parents=True, exist_ok=True)

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
    feats = forward(result.params, result.train.x).features.data
    save_csv(Dataset(feats, result.train.y), out / "features.csv")
    w = result.params.classifier_w.data
    columns = [f"w{i}" for i in range(w.shape[1])] + ["bias"]
    write_csv(out / "weights.csv", columns, np.column_stack([w, result.params.classifier_b.data]), "%.17g")
    save_params(result.params, out / "params")
    return out


# ---------------------------------------------------------------------------
# sweeps

_SWEEP_ACCURACY = ("many", "medium", "few", "overall")
SWEEP_CSV_HEADER = ",".join(["param", "value", "status", *(f"acc_{c}" for c in _SWEEP_ACCURACY)])
_SWEEPABLE = ("gamma", "alpha", "beta")


@dataclass
class SweepRow:
    param: str
    value: float
    status: str  # "ok" or "failed"
    accuracy: GroupAccuracy | None

    def csv_row(self) -> str:
        if self.accuracy is None:
            accs = ["nan"] * len(_SWEEP_ACCURACY)
        else:
            accs = [f"{getattr(self.accuracy, c):.9g}" for c in _SWEEP_ACCURACY]
        return ",".join([self.param, f"{self.value:.9g}", self.status, *accs])


def sweep(cfg: TrainConfig, param: str, values: list[float]) -> list[SweepRow]:
    """Run one training per value of gamma, alpha, or beta; shared seeds.

    A diverged run, or a value rejected by validation (ConfigError,
    DomainError) or by degenerate geometry (DegenerateInputError), produces
    a row marked failed and the sweep continues; every other package error
    propagates.
    """
    if param not in _SWEEPABLE:
        raise ConfigError(f"sweep: param must be one of {_SWEEPABLE}, got {param!r}")
    if not values:
        raise ConfigError("sweep: need at least one value")
    rows: list[SweepRow] = []
    for value in values:
        try:
            one = with_overrides(cfg, **{param: float(value)}, out_dir="")
            result = run_train(one, emit=False)
            if result.diverged or not result.logs:
                rows.append(SweepRow(param, float(value), "failed", None))
            else:
                rows.append(SweepRow(param, float(value), "ok", result.final_accuracy))
        except (ConfigError, DomainError, DegenerateInputError):
            rows.append(SweepRow(param, float(value), "failed", None))
    return rows


def write_sweep_csv(rows: list[SweepRow], path: str | Path) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", encoding="utf-8") as fh:
        fh.write(SWEEP_CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.csv_row() + "\n")
