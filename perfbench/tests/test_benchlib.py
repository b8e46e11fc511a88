"""Tests of the benchmark's own helpers. Run: python3 -m pytest perfbench/tests"""

import json
import math
import types
from pathlib import Path

import numpy as np
import pytest

import run
from benchlib import Tracer, check_training, latency_summary, patched, tail_percentile, traced


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children():
    # parent [0, 10] holds child [2, 5] (which holds grandchild [3, 4]) and child [6, 8]
    tracer = Tracer(clock=FakeClock([0, 2, 3, 4, 5, 6, 8, 10]))
    tracer.enter("parent")
    tracer.enter("child")
    tracer.enter("grandchild")
    tracer.exit()
    tracer.exit()
    tracer.enter("child")
    tracer.exit()
    tracer.exit()
    assert dict(tracer.self_s) == {"parent": 5.0, "child": 3.0 - 1.0 + 2.0, "grandchild": 1.0}
    assert dict(tracer.calls) == {"parent": 1, "child": 2, "grandchild": 1}
    assert sum(tracer.self_s.values()) == 10.0


def test_traced_names_span_from_arguments_and_closes_on_error():
    tracer = Tracer()

    def boom(rows):
        raise ValueError(rows)

    wrapped = traced(tracer, boom, lambda rows: "big" if rows > 64 else "small")
    with pytest.raises(ValueError):
        wrapped(1000)
    assert dict(tracer.calls) == {"big": 1}
    assert tracer._stack == []


def test_patched_restores_and_reports_missing_names():
    owner = types.SimpleNamespace(f=lambda: 1)
    original = owner.f
    absent = []
    targets = [
        ("layer.f", owner, "f", lambda fn: (lambda: fn() + 1)),
        ("layer.gone", owner, "gone", lambda fn: fn),
        ("layer.no_owner", None, "pair", lambda fn: fn),
    ]
    with patched(targets, absent):
        assert owner.f() == 2
    assert owner.f is original
    assert absent == ["layer.gone", "layer.no_owner"]


@pytest.mark.parametrize("n, expected", [(20, 50), (100, 90), (600, 98), (1000, 99), (2000, 99)])
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    p = tail_percentile(n)
    assert p == expected
    # the share beyond p covers ten samples; the share beyond p + 1 does not
    assert n * (100 - p) >= 1000 > n * (100 - p - 1)
    samples = [i / 1e3 for i in range(n)]
    _, tail_ms, tail_p = latency_summary(samples)
    assert tail_p == p
    assert sum(s * 1e3 > tail_ms for s in samples) >= 10


def test_tail_percentile_needs_enough_samples():
    with pytest.raises(ValueError):
        tail_percentile(19)


REFERENCE = json.loads((Path(run.__file__).parent / "reference.json").read_text())


def _summary(**changes):
    band = REFERENCE["allnc"]
    summary = {
        "diverged": False,
        "epoch_losses": [1.0] * 100,
        "epochs_expected": 100,
        **{key: value["ref"] for key, value in band.items()},
    }
    summary.update(changes)
    return summary


def test_check_training_accepts_the_reference():
    assert check_training(_summary(), REFERENCE["allnc"]) == []


def test_check_training_rejects_a_perturbed_report():
    band = REFERENCE["allnc"]["std_cos_mu"]
    problems = check_training(_summary(std_cos_mu=band["ref"] + 1.01 * band["tol"]), REFERENCE["allnc"])
    assert len(problems) == 1 and "std_cos_mu" in problems[0]
    assert check_training(_summary(delta=math.nan), REFERENCE["allnc"])


def test_check_training_rejects_non_finite_loss_and_divergence():
    losses = [1.0] * 100
    losses[41] = math.inf
    problems = check_training(_summary(epoch_losses=losses), REFERENCE["allnc"])
    assert problems == ["non-finite epoch loss at epoch 42"]
    assert check_training(_summary(diverged=True, epoch_losses=[1.0] * 7), REFERENCE["allnc"]) == [
        "run diverged",
        "7 epochs completed of 100",
    ]


def test_run_refuses_a_checkout_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "gradcheck", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
