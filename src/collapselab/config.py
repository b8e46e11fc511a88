"""Experiment configuration: one flat dataclass, one flat key=value file format.

A config file holds ``key = value`` lines; blank lines and ``#`` comments are
ignored. Keys must belong to the schema below (unknown keys are rejected so a
typo cannot silently fall back to a default), values are coerced to the field
type, and every field has a default, so an empty file is a valid experiment.
``resolved_text`` serializes a config back into the same format with fields
in schema order, all but ``out_dir``, so a run writes the same bytes wherever
it writes them; parsing that text reproduces the config with ``out_dir``
empty, which is why a text value may not hold ``#``, a line break or
surrounding spaces.
``parse_overrides`` reads ``key=value`` command-line pairs with the same
per-key rules; ``with_overrides`` applies them.

TrainConfig is the one range check of the data and training values: the
data generators, the optimizer, the schedule (``losses.eta``), the loss mixing
(``losses.branch_loss``, ``total_loss``) and the batcher (``data.batches``)
take them as plain values and do not check them again, so a bad value fails
at parse time, not partway into a run. The error names the file, and also
the line of the one key whose default would make the config valid, when
there is exactly one such key. The synthetic
mixture's limits (mean_radius > 0, and etf placement needing
input_dim >= num_classes) apply only when dataset = synthetic. Checks on what
the code computes from these values stay where it is computed (a beta that
rounds the tail to zero samples fails in ``data.long_tail_counts``). The
architecture's widths are checked at parse time too, by building the config's
``arch``: ``model.ArchSpec`` holds the one copy of the width rules, which it
also applies to saved snapshots.

Schema (types and defaults live on TrainConfig):

  mode                  "allnc" or "ce" (plain cross-entropy baseline)
  dataset               "synthetic" or "csv"
  train_csv/test_csv    file paths when dataset = csv
  num_classes, input_dim, n_max, beta, n_test_per_class,
  mean_placement, mean_radius, noise_std, placement_seed
                        synthetic mixture shape (placement_seed >= 0)
  view_noise_std, view_mask_prob
                        two-view augmentation strength
  hidden_dims, feature_dim, proj_dim, proj1_hidden, predictor_hidden
                        architecture (hidden_dims is comma-separated)
  lr, momentum, weight_decay, batch_size, t_max
                        optimization
  alpha, gamma, fixed_eta
                        loss mixing; fixed_eta applies when disable_gbbn
  disable_hycon, disable_p2p_mu, disable_p2p_w, disable_gbbn
                        ablation switches (allnc mode only)
  freeze_classifier_bias
                        keep the classifier bias at its initial zeros
  seed                  master seed (>= 0); all streams derive from it
  out_dir               where run artifacts go (empty = no emission)
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import ConfigError
from .model import ArchSpec

_MODES = ("allnc", "ce")
_DATASETS = ("synthetic", "csv")
_PLACEMENTS = ("etf", "random")


@dataclass(frozen=True)
class TrainConfig:
    mode: str = "allnc"
    dataset: str = "synthetic"
    train_csv: str = ""
    test_csv: str = ""
    num_classes: int = 10
    input_dim: int = 32
    n_max: int = 500
    beta: float = 100.0
    n_test_per_class: int = 100
    mean_placement: str = "etf"
    mean_radius: float = 4.0
    noise_std: float = 1.0
    placement_seed: int = 7
    view_noise_std: float = 0.5
    view_mask_prob: float = 0.1
    hidden_dims: tuple[int, ...] = (128, 64)
    feature_dim: int = 16
    proj_dim: int = 16
    proj1_hidden: int = 0
    predictor_hidden: int = 16
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 5e-3
    batch_size: int = 64
    t_max: int = 100
    alpha: float = 1.0
    gamma: float = 2.0
    fixed_eta: float = 0.5
    disable_hycon: bool = False
    disable_p2p_mu: bool = False
    disable_p2p_w: bool = False
    disable_gbbn: bool = False
    freeze_classifier_bias: bool = False
    seed: int = 0
    out_dir: str = ""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, str) and ("#" in value or value.strip() != value or len(value.splitlines()) > 1):
                raise ConfigError(f"{f.name} must not hold '#', a line break or surrounding spaces, got {value!r}")
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.dataset not in _DATASETS:
            raise ConfigError(f"dataset must be one of {_DATASETS}, got {self.dataset!r}")
        if self.dataset == "csv" and (not self.train_csv or not self.test_csv):
            raise ConfigError("dataset = csv requires train_csv and test_csv")
        if self.mean_placement not in _PLACEMENTS:
            raise ConfigError(f"mean_placement must be one of {_PLACEMENTS}, got {self.mean_placement!r}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.beta < 1:
            raise ConfigError(f"beta must be >= 1, got {self.beta}")
        if min(self.n_max, self.n_test_per_class, self.batch_size, self.t_max) < 1:
            raise ConfigError("n_max, n_test_per_class, batch_size, t_max must be >= 1")
        for key in ("seed", "placement_seed"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0, got {getattr(self, key)}")
        self.arch  # ArchSpec checks the widths
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if self.gamma <= 0:
            raise ConfigError(f"gamma must be > 0, got {self.gamma}")
        if not 0.0 <= self.fixed_eta <= 1.0:
            raise ConfigError(f"fixed_eta must be in [0, 1], got {self.fixed_eta}")
        if not 0.0 <= self.view_mask_prob < 1.0:
            raise ConfigError(f"view_mask_prob must be in [0, 1), got {self.view_mask_prob}")
        if self.view_noise_std < 0 or self.noise_std < 0:
            raise ConfigError("noise_std and view_noise_std must be >= 0")
        if self.dataset == "synthetic":
            if self.mean_radius <= 0:
                raise ConfigError(f"mean_radius must be > 0, got {self.mean_radius}")
            if self.mean_placement == "etf" and self.input_dim < self.num_classes:
                raise ConfigError(
                    f"mean_placement = etf needs input_dim >= num_classes, "
                    f"got {self.input_dim} < {self.num_classes}"
                )

    @property
    def arch(self) -> ArchSpec:
        """The model architecture of this config's widths."""
        return ArchSpec(**{f.name: getattr(self, f.name) for f in fields(ArchSpec)})


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part.strip()) for part in text.split(","))


# Annotations are strings under `from __future__ import annotations`, so the
# parser table is keyed by the annotation text.
_PARSERS = {
    "str": lambda s: s,
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "tuple[int, ...]": _parse_int_tuple,
}


def _schema() -> dict[str, object]:
    return {f.name: _PARSERS[f.type] for f in fields(TrainConfig)}


def _parse_pairs(pairs: list[tuple[str, str]]) -> dict[str, object]:
    """Coerce ``key = value`` texts to field values by the schema. Each pair
    is (where, text), and an error starts with the where of the text it
    rejects."""
    values: dict[str, object] = {}
    schema = _schema()
    for where, text in pairs:
        key, sep, val = text.partition("=")
        key = key.strip()
        if not sep:
            raise ConfigError(f"{where}: expected 'key = value'")
        if key not in schema:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        try:
            values[key] = schema[key](val.strip())
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc
    return values


def parse_overrides(pairs: list[str]) -> dict[str, object]:
    """Field values of ``key=value`` texts, for ``with_overrides``."""
    return _parse_pairs([(repr(pair), pair) for pair in pairs])


def parse_config_text(text: str, source: str = "<config>") -> TrainConfig:
    """Parse flat key=value text into a validated TrainConfig."""
    lines = [(f"{source}: line {ln}", raw.split("#", 1)[0].strip()) for ln, raw in enumerate(text.splitlines(), 1)]
    pairs = [(where, line) for where, line in lines if line]
    values = _parse_pairs(pairs)
    try:
        return TrainConfig(**values)
    except ConfigError as exc:
        # A rejected value is named by its line when the config is valid
        # with that one key left at its default.
        origin = dict(zip(values, (where for where, _ in pairs)))
        culprits = [key for key in values if _valid({k: v for k, v in values.items() if k != key})]
        prefix = f"{origin[culprits[0]]}: bad value for {culprits[0]}: " if len(culprits) == 1 else f"{source}: "
        raise ConfigError(f"{prefix}{exc}") from exc


def _valid(values: dict[str, object]) -> bool:
    try:
        TrainConfig(**values)
    except ConfigError:
        return False
    return True


def parse_config_file(path: str | Path) -> TrainConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{p}: cannot open: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{p}: not UTF-8 text: {exc.reason}") from exc
    return parse_config_text(text, source=str(p))


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def resolved_text(cfg: TrainConfig) -> str:
    """Serialize every field but out_dir in schema order; parses back to the
    config with out_dir empty."""
    lines = [f"{f.name} = {_format_value(getattr(cfg, f.name))}" for f in fields(cfg) if f.name != "out_dir"]
    return "\n".join(lines) + "\n"


def with_overrides(cfg: TrainConfig, **overrides) -> TrainConfig:
    """A copy with the given fields replaced and validation re-run."""
    return replace(cfg, **overrides)
