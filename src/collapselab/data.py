"""Synthetic long-tailed datasets, two-view augmentation, batching, CSV IO.

Class sizes follow an exponential profile: class c (0-based) gets
round(n_max * beta^(-c/(C-1))) samples, rounded half-up, so the head class
has n_max samples and the tail class n_max/beta. beta is the head-to-tail
imbalance ratio; beta = 1 is balanced, and evaluation sets are always built
balanced regardless of the training beta.

Inputs are a Gaussian mixture: class means sit either on a scaled simplex
ETF in input space or at seeded random directions, and samples add isotropic
noise. The means depend only on placement_seed; the harness computes them
once and samples both splits around them with different seeds. The two
training views of a sample are independent corruptions: additive Gaussian
noise followed by random coordinate masking.

The functions here take plain values. ``config.TrainConfig`` checks their
ranges once, when a config is parsed; what stays here are checks on values
these functions compute (a tail rounded to zero samples, two classes at one
center) or receive in arrays (counts that do not match the means).

Everything is seeded and deterministic; harness-level streams are kept apart
by namespacing the seed material, and the per-epoch batch shuffle depends
only on (seed, epoch).

``load_csv`` is the one reader of a labeled table: it keeps the labels as
written, non-negative integers; ``harness.build_datasets`` sets their base.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ConfigError, ContractError, ParseError, ShapeError
from .etf import make_etf

_BATCH_STREAM = 4  # namespace tag so shuffles never collide with other streams


def long_tail_counts(num_classes: int, n_max: int, beta: float) -> np.ndarray:
    """Per-class sample counts, head first. round-half-up; every count >= 1."""
    exponents = -np.arange(num_classes) / (num_classes - 1.0)
    raw = n_max * beta**exponents
    counts = np.floor(raw + 0.5).astype(np.int64)
    if np.any(counts < 1):
        raise ConfigError(
            f"long_tail_counts: beta {beta} starves the tail below one sample "
            f"(n_max={n_max}, C={num_classes})"
        )
    return counts


def class_means(
    num_classes: int, input_dim: int, placement: str, radius: float, placement_seed: int
) -> np.ndarray:
    """(C, input_dim) matrix of pairwise-distinct class centers at norm radius.

    placement "etf" puts them on a simplex ETF (input_dim >= num_classes);
    "random" uses seeded random unit directions.
    """
    if placement == "etf":
        means = make_etf(input_dim, num_classes, seed=placement_seed) * radius
    else:
        rng = np.random.default_rng(np.random.SeedSequence([placement_seed, 5]))
        raw = rng.standard_normal((num_classes, input_dim))
        means = raw / np.linalg.norm(raw, axis=1, keepdims=True) * radius
    diff = means[:, None, :] - means[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    np.fill_diagonal(dist, np.inf)
    if np.min(dist) <= 0:
        raise ContractError("class_means: two classes share a center")
    return means


@dataclass
class Dataset:
    """Samples plus non-negative integer labels."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.ascontiguousarray(self.x, dtype=np.float64)
        self.y = np.ascontiguousarray(self.y, dtype=np.int64)
        if self.x.ndim != 2 or self.y.ndim != 1 or self.x.shape[0] != self.y.shape[0]:
            raise ShapeError(f"Dataset: x {self.x.shape} and y {self.y.shape} do not align")

    @property
    def n(self) -> int:
        return int(self.x.shape[0])

    @property
    def dim(self) -> int:
        return int(self.x.shape[1])

    def counts(self, num_classes: int) -> np.ndarray:
        return np.bincount(self.y, minlength=num_classes).astype(np.int64)


def gen_gaussian_mixture(means: np.ndarray, counts: np.ndarray, noise_std: float, seed: int) -> Dataset:
    """Sample counts[c] points around means[c] with isotropic noise_std;
    deterministic per seed.

    Rows come out grouped by class (head first); the per-epoch shuffle is the
    batching layer's job.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (means.shape[0],):
        raise ShapeError(f"gen_gaussian_mixture: counts shape {counts.shape} vs {means.shape[0]} classes")
    if np.any(counts < 1):
        raise ContractError("gen_gaussian_mixture: every class needs at least one sample")
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    blocks = []
    labels = []
    for c, n_c in enumerate(counts):
        noise = rng.standard_normal((int(n_c), means.shape[1])) * noise_std
        blocks.append(means[c] + noise)
        labels.append(np.full(int(n_c), c, dtype=np.int64))
    return Dataset(x=np.concatenate(blocks, axis=0), y=np.concatenate(labels))


# ---------------------------------------------------------------------------
# two-view augmentation


@dataclass
class ViewAugmenter:
    """Additive Gaussian noise then coordinate masking, from one owned stream."""

    noise_std: float
    mask_prob: float
    rng: np.random.Generator = field(repr=False)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = x + self.rng.standard_normal(x.shape) * self.noise_std
        if self.mask_prob > 0.0:
            out = np.where(self.rng.random(x.shape) < self.mask_prob, 0.0, out)
        return out

    def pair(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Two independent corruptions of the same samples."""
        return self.apply(x), self.apply(x)


# ---------------------------------------------------------------------------
# batching


def batches(
    dataset: Dataset, batch_size: int, seed: int, epoch: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Shuffled minibatches; the last short batch is kept.

    The permutation is a pure function of (seed, epoch): the same pair
    replays the identical batch sequence, different epochs reshuffle.
    """
    if batch_size < 1:
        raise ContractError(f"batches: batch_size must be >= 1, got {batch_size}")
    if dataset.n == 0:
        raise ContractError("batches: empty dataset")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _BATCH_STREAM, int(epoch)]))
    order = rng.permutation(dataset.n)
    for start in range(0, dataset.n, batch_size):
        take = order[start : start + batch_size]
        yield dataset.x[take], dataset.y[take]


# ---------------------------------------------------------------------------
# CSV


def _split_line(line: str) -> list[str]:
    return [cell.strip() for cell in line.split(",")]


def read_numeric_csv(path: str | Path) -> tuple[list[str] | None, np.ndarray]:
    """Parse a rectangular numeric CSV, with an optional single header row.

    Returns (header or None, float64 matrix). Ragged rows, non-numeric cells,
    and empty files raise ParseError naming the 1-based line number; a file
    that cannot be opened or is not UTF-8 text raises ParseError naming the
    path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParseError(f"{path}: cannot open: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    rows: list[list[float]] = []
    header: list[str] | None = None
    width: int | None = None
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        cells = _split_line(line)
        if width is None:
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                header = cells
            width = len(cells)
            continue
        if len(cells) != width:
            raise ParseError(f"{path}: line {ln}: expected {width} columns, got {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            bad = next(c for c in cells if not _is_float(c))
            raise ParseError(f"{path}: line {ln}: non-numeric value {bad!r}") from exc
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return header, np.asarray(rows, dtype=np.float64)


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _integer_labels(path: str | Path, raw: np.ndarray) -> np.ndarray:
    """A parsed label column as int64; ParseError names the first row whose
    label is not an integer, is one that int64 cannot hold (inf, 1e30), or
    is negative."""
    fractional = np.flatnonzero(raw != np.round(raw))
    if fractional.size:
        raise ParseError(f"{path}: non-integer label in data row {int(fractional[0]) + 1}")
    huge = np.flatnonzero(~(np.abs(raw) < 2.0**63))
    if huge.size:
        k = int(huge[0])
        raise ParseError(f"{path}: label {raw[k]:g} in data row {k + 1} is out of the int64 range")
    negative = np.flatnonzero(raw < 0)
    if negative.size:
        k = int(negative[0])
        raise ParseError(f"{path}: negative label {raw[k]:g} in data row {k + 1}")
    return raw.astype(np.int64)


def load_csv(path: str | Path) -> Dataset:
    """Load a labeled table: d feature columns then one integer label column.

    The labels come back exactly as written, with no base guessed and no
    class required; ParseError names the first data row whose label is not
    a non-negative integer.
    """
    _, mat = read_numeric_csv(path)
    if mat.shape[1] < 2:
        raise ParseError(f"{path}: need at least one feature column and one label column")
    return Dataset(x=mat[:, :-1], y=_integer_labels(path, mat[:, -1]))


def write_csv(path: str | Path, columns: list[str], matrix: np.ndarray, fmt: str | list[str]) -> None:
    """Write a header row of ``columns`` then one line per matrix row, each
    cell formatted with ``fmt`` (one format, or one per column)."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(p, matrix, fmt=fmt, delimiter=",", header=",".join(columns), comments="")


def save_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset in the load_csv layout with full-precision floats."""
    d = dataset.dim
    columns = [f"f{i}" for i in range(d)] + ["label"]
    write_csv(path, columns, np.column_stack([dataset.x, dataset.y]), ["%.17g"] * d + ["%d"])
