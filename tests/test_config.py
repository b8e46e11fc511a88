"""Flat key=value config parsing, serialization, validation."""

import pytest

from collapselab.config import (
    TrainConfig,
    parse_config_file,
    parse_config_text,
    parse_overrides,
    resolved_text,
    with_overrides,
)
from collapselab.errors import ConfigError


def test_empty_text_is_all_defaults():
    cfg = parse_config_text("")
    assert cfg == TrainConfig()
    assert cfg.mode == "allnc" and cfg.num_classes == 10 and cfg.beta == 100.0
    assert cfg.hidden_dims == (128, 64) and cfg.t_max == 100


def test_declared_training_defaults():
    cfg = TrainConfig()
    assert (cfg.lr, cfg.momentum, cfg.weight_decay) == (0.01, 0.9, 5e-3)
    assert (cfg.batch_size, cfg.alpha, cfg.gamma) == (64, 1.0, 2.0)
    assert (cfg.input_dim, cfg.feature_dim, cfg.proj_dim) == (32, 16, 16)
    assert (cfg.n_max, cfg.mean_radius, cfg.noise_std) == (500, 4.0, 1.0)


def test_comments_blank_lines_and_spacing():
    cfg = parse_config_text(
        """
        # experiment knobs
        beta = 10.0   # tail ratio
        seed=3

        mode = ce
        """
    )
    assert cfg.beta == 10.0 and cfg.seed == 3 and cfg.mode == "ce"


def test_round_trip_through_resolved_text():
    cfg = parse_config_text("beta = 17.5\nhidden_dims = 32,16\ndisable_hycon = true\n")
    again = parse_config_text(resolved_text(cfg))
    assert again == cfg


def test_round_trip_preserves_float_precision():
    cfg = with_overrides(TrainConfig(), lr=0.1 + 1e-17, weight_decay=1.0 / 3.0)
    assert parse_config_text(resolved_text(cfg)) == cfg


@pytest.mark.parametrize(
    "field,value",
    [("out_dir", "runs/a#1"), ("train_csv", "a.csv\nseed = 5"), ("test_csv", "b.csv\r"), ("out_dir", " runs")],
)
def test_text_values_that_would_not_round_trip_are_rejected(field, value):
    # config.resolved would reparse '#' as a comment, split a line break
    # into another line, and strip surrounding spaces
    with pytest.raises(ConfigError, match=f"{field} must not hold"):
        with_overrides(TrainConfig(dataset="csv", train_csv="a.csv", test_csv="b.csv"), **{field: value})


def test_overrides_parse_like_config_lines():
    assert parse_overrides(["mode=ce", "hidden_dims=32,16", "disable_hycon=yes", " beta = 2 "]) == {
        "mode": "ce",
        "hidden_dims": (32, 16),
        "disable_hycon": True,
        "beta": 2.0,
    }
    assert parse_overrides(["out_dir=runs/a=b"]) == {"out_dir": "runs/a=b"}
    assert parse_overrides([]) == {}


@pytest.mark.parametrize(
    "pairs,message",
    [
        (["seed5"], "^'seed5': expected 'key = value'"),
        (["sead=5"], "^'sead=5': unknown key 'sead'"),
        (["seed=1", "seed=2"], "^'seed=2': duplicate key 'seed'"),
        (["seed=five"], "^'seed=five': bad value for seed"),
    ],
)
def test_overrides_reject_and_name_the_pair(pairs, message):
    with pytest.raises(ConfigError, match=message):
        parse_overrides(pairs)


def test_unknown_key_names_line():
    with pytest.raises(ConfigError, match="line 2.*learning_rate"):
        parse_config_text("seed = 1\nlearning_rate = 0.1\n")


def test_duplicate_key_names_line():
    with pytest.raises(ConfigError, match="line 3.*duplicate.*seed"):
        parse_config_text("seed = 1\nbeta = 2.0\nseed = 2\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just some words\n")


def test_bad_value_reports_key_and_line():
    with pytest.raises(ConfigError, match="line 1.*t_max"):
        parse_config_text("t_max = soon\n")


@pytest.mark.parametrize(
    "text,value",
    [("true", True), ("True", True), ("1", True), ("yes", True), ("false", False), ("0", False), ("no", False)],
)
def test_bool_spellings(text, value):
    assert parse_config_text(f"disable_gbbn = {text}\n").disable_gbbn is value


def test_bool_rejects_other_words():
    with pytest.raises(ConfigError, match="disable_gbbn"):
        parse_config_text("disable_gbbn = maybe\n")


def test_hidden_dims_parsing():
    assert parse_config_text("hidden_dims = 64\n").hidden_dims == (64,)
    assert parse_config_text("hidden_dims = 128, 64, 32\n").hidden_dims == (128, 64, 32)
    assert parse_config_text("hidden_dims =\n").hidden_dims == ()


@pytest.mark.parametrize(
    "line",
    [
        "mode = sgd",
        "dataset = images",
        "num_classes = 1",
        "beta = 0.5",
        "lr = 0",
        "momentum = 1.0",
        "weight_decay = -1",
        "alpha = -0.1",
        "gamma = 0",
        "fixed_eta = 1.5",
        "view_mask_prob = 1.0",
        "t_max = 0",
        "batch_size = 0",
        "n_max = 0",
        "n_test_per_class = 0",
        "mean_placement = grid",
        "noise_std = -1",
        "view_noise_std = -0.1",
        "mean_radius = 0",
        # the default etf placement of 10 classes needs input_dim >= 10
        "input_dim = 4",
        # architecture widths, checked by model.ArchSpec at parse time
        "feature_dim = 0",
        "hidden_dims = 0,64",
        "proj1_hidden = -1",
        "input_dim = 0",
    ],
)
def test_validation_rejects(line):
    with pytest.raises(ConfigError):
        parse_config_text(line + "\n")


def test_rejected_value_names_source_and_line():
    with pytest.raises(ConfigError, match=r"^run\.cfg: line 2: bad value for lr: lr must be > 0"):
        parse_config_text("seed = 3\nlr = 0\n", source="run.cfg")
    # the config stays invalid whichever key goes back to its default, so no
    # one line is to blame
    with pytest.raises(ConfigError, match=r"^run\.cfg: (?!line)"):
        parse_config_text("lr = 0\nfeature_dim = 0\n", source="run.cfg")


def test_csv_dataset_requires_paths():
    with pytest.raises(ConfigError, match="train_csv"):
        parse_config_text("dataset = csv\n")
    cfg = parse_config_text("dataset = csv\ntrain_csv = a.csv\ntest_csv = b.csv\n")
    assert cfg.train_csv == "a.csv"


def test_csv_dataset_skips_mixture_geometry():
    # the mixture's limits do not apply to data read from files
    cfg = parse_config_text(
        "dataset = csv\ntrain_csv = a.csv\ntest_csv = b.csv\nnum_classes = 10\ninput_dim = 4\nmean_radius = 0\n"
    )
    assert (cfg.num_classes, cfg.input_dim) == (10, 4)


def test_with_overrides_validates():
    cfg = TrainConfig()
    assert with_overrides(cfg, beta=10.0).beta == 10.0
    assert cfg.beta == 100.0  # original untouched
    with pytest.raises(ConfigError):
        with_overrides(cfg, lr=-1.0)


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 42\nmode = ce\n")
    cfg = parse_config_file(path)
    assert cfg.seed == 42 and cfg.mode == "ce"
    with pytest.raises(ConfigError, match="cannot open"):
        parse_config_file(tmp_path / "missing.cfg")


def test_file_errors_name_the_file(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("nope = 1\n")
    with pytest.raises(ConfigError, match="bad.cfg"):
        parse_config_file(path)
    path.write_bytes(b"mode = allnc\n\x8c\n")
    with pytest.raises(ConfigError, match="bad.cfg: not UTF-8 text"):
        parse_config_file(path)
    with pytest.raises(ConfigError, match=f"{tmp_path}: cannot open"):
        parse_config_file(tmp_path)
