"""Synthetic long-tailed datasets, two-view augmentation, batching, CSV IO.

Class sizes follow an exponential profile: class c (0-based) gets
round(n_max * beta^(-c/(C-1))) samples, rounded half-up, so the head class
has n_max samples and the tail class n_max/beta. beta is the head-to-tail
imbalance ratio; beta = 1 is balanced, and evaluation sets are always built
balanced regardless of the training beta.

Inputs are a Gaussian mixture: class means sit either on a scaled simplex
ETF in input space or at seeded random directions, and samples add isotropic
noise. The two training views of a sample are independent corruptions:
additive Gaussian noise followed by random coordinate masking.

Everything is seeded and deterministic; harness-level streams are kept apart
by namespacing the seed material, and the per-epoch batch shuffle depends
only on (seed, epoch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ConfigError, ContractError, ParseError, ShapeError
from .etf import make_etf

_BATCH_STREAM = 4  # namespace tag so shuffles never collide with other streams


@dataclass(frozen=True)
class LongTailSpec:
    """Exponential class-size profile from head class n_max down by beta."""

    num_classes: int
    n_max: int
    beta: float

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError(f"LongTailSpec: need at least 2 classes, got {self.num_classes}")
        if self.n_max < 1:
            raise ConfigError(f"LongTailSpec: n_max must be >= 1, got {self.n_max}")
        if self.beta < 1:
            raise ConfigError(f"LongTailSpec: beta must be >= 1, got {self.beta}")


def long_tail_counts(spec: LongTailSpec) -> np.ndarray:
    """Per-class sample counts, head first. round-half-up; every count >= 1."""
    c = spec.num_classes
    exponents = -np.arange(c) / (c - 1.0)
    raw = spec.n_max * spec.beta**exponents
    counts = np.floor(raw + 0.5).astype(np.int64)
    if np.any(counts < 1):
        raise ConfigError(
            f"long_tail_counts: beta {spec.beta} starves the tail below one sample "
            f"(n_max={spec.n_max}, C={c})"
        )
    return counts


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian-mixture geometry: where class means sit and how noisy samples are.

    mean_placement "etf" puts the means on a simplex ETF scaled to
    mean_radius (needs input_dim >= num_classes); "random" uses seeded random
    unit directions at the same radius. placement_seed fixes the means so
    train and test splits share them while sampling seeds differ.
    """

    num_classes: int
    input_dim: int
    mean_placement: str = "etf"
    mean_radius: float = 4.0
    noise_std: float = 1.0
    placement_seed: int = 7

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError(f"SyntheticSpec: need at least 2 classes, got {self.num_classes}")
        if self.input_dim < 1:
            raise ConfigError(f"SyntheticSpec: input_dim must be >= 1, got {self.input_dim}")
        if self.mean_placement not in ("etf", "random"):
            raise ConfigError(f"SyntheticSpec: unknown mean_placement {self.mean_placement!r}")
        if self.mean_placement == "etf" and self.input_dim < self.num_classes:
            raise ConfigError(
                f"SyntheticSpec: etf placement needs input_dim >= num_classes, "
                f"got {self.input_dim} < {self.num_classes}"
            )
        if self.mean_radius <= 0:
            raise ConfigError(f"SyntheticSpec: mean_radius must be > 0, got {self.mean_radius}")
        if self.noise_std < 0:
            raise ConfigError(f"SyntheticSpec: noise_std must be >= 0, got {self.noise_std}")


def class_means(spec: SyntheticSpec) -> np.ndarray:
    """(C, input_dim) matrix of pairwise-distinct class centers."""
    if spec.mean_placement == "etf":
        means = make_etf(spec.input_dim, spec.num_classes, seed=spec.placement_seed).vertices
        means = means * spec.mean_radius
    else:
        rng = np.random.default_rng(np.random.SeedSequence([spec.placement_seed, 5]))
        raw = rng.standard_normal((spec.num_classes, spec.input_dim))
        means = raw / np.linalg.norm(raw, axis=1, keepdims=True) * spec.mean_radius
    diff = means[:, None, :] - means[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    np.fill_diagonal(dist, np.inf)
    if np.min(dist) <= 0:
        raise ContractError("class_means: two classes share a center")
    return means


@dataclass
class Dataset:
    """Samples plus 0-based contiguous labels.

    label_mapping records original -> internal labels when the data came from
    a file whose labels started at 1.
    """

    x: np.ndarray
    y: np.ndarray
    label_mapping: dict[int, int] | None = None

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

    @property
    def num_classes(self) -> int:
        return int(self.y.max()) + 1 if self.n else 0

    def counts(self, num_classes: int | None = None) -> np.ndarray:
        c = self.num_classes if num_classes is None else int(num_classes)
        return np.bincount(self.y, minlength=c).astype(np.int64)


def gen_gaussian_mixture(spec: SyntheticSpec, counts: np.ndarray, seed: int) -> Dataset:
    """Sample counts[c] points around each class mean; deterministic per seed.

    Rows come out grouped by class (head first); the per-epoch shuffle is the
    batching layer's job.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape != (spec.num_classes,):
        raise ShapeError(f"gen_gaussian_mixture: counts shape {counts.shape} vs {spec.num_classes} classes")
    if np.any(counts < 1):
        raise ContractError("gen_gaussian_mixture: every class needs at least one sample")
    means = class_means(spec)
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    blocks = []
    labels = []
    for c, n_c in enumerate(counts):
        noise = rng.standard_normal((int(n_c), spec.input_dim)) * spec.noise_std
        blocks.append(means[c] + noise)
        labels.append(np.full(int(n_c), c, dtype=np.int64))
    return Dataset(x=np.concatenate(blocks, axis=0), y=np.concatenate(labels))


def balanced_counts(num_classes: int, per_class: int) -> np.ndarray:
    """The beta = 1 profile used for every evaluation split."""
    if per_class < 1:
        raise ConfigError(f"balanced_counts: per_class must be >= 1, got {per_class}")
    return np.full(num_classes, per_class, dtype=np.int64)


# ---------------------------------------------------------------------------
# two-view augmentation


@dataclass
class ViewAugmenter:
    """Additive Gaussian noise then coordinate masking, from one owned stream."""

    noise_std: float
    mask_prob: float
    rng: np.random.Generator = field(repr=False)

    def __post_init__(self):
        if self.noise_std < 0:
            raise ConfigError(f"ViewAugmenter: noise_std must be >= 0, got {self.noise_std}")
        if not 0.0 <= self.mask_prob < 1.0:
            raise ConfigError(f"ViewAugmenter: mask_prob must be in [0, 1), got {self.mask_prob}")

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
    and empty files raise ParseError naming the 1-based line number.
    """
    rows: list[list[float]] = []
    header: list[str] | None = None
    width: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
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


def integer_labels(path: str | Path, raw: np.ndarray) -> np.ndarray:
    """A parsed label column as int64; ParseError names the first non-integer row."""
    fractional = np.flatnonzero(raw != np.round(raw))
    if fractional.size:
        raise ParseError(f"{path}: non-integer label in data row {int(fractional[0]) + 1}")
    return raw.astype(np.int64)


def load_csv(path: str | Path) -> Dataset:
    """Load a dataset CSV: d feature columns then one integer label column.

    Labels must be contiguous starting at 0 or 1; 1-based labels are shifted
    down and the mapping recorded on the returned dataset.
    """
    _, mat = read_numeric_csv(path)
    if mat.shape[1] < 2:
        raise ParseError(f"{path}: need at least one feature column and one label column")
    x = mat[:, :-1]
    y = integer_labels(path, mat[:, -1])
    uniq = np.unique(y)
    lo = int(uniq[0])
    if lo not in (0, 1):
        raise ParseError(f"{path}: labels must start at 0 or 1, got minimum {lo}")
    expected = np.arange(lo, lo + uniq.shape[0])
    if not np.array_equal(uniq, expected):
        raise ParseError(f"{path}: labels are not contiguous ({uniq.tolist()})")
    mapping = {int(v): int(v - lo) for v in uniq} if lo == 1 else None
    return Dataset(x=x, y=y - lo, label_mapping=mapping)


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
