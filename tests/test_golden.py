"""The golden-artifact gate: every variant in ``tests/golden/digests.json``
still writes what it wrote when the file was made.

The file is made by ``scripts/artifact_digest.py --golden``. On the machine
that made it (same numpy, BLAS name and version, CPU arch) every artifact
must match its sha256 exactly. On any machine the values of ``epochs.csv``
and ``report.json`` must match within ``RTOL`` relative (``ATOL`` absolute
near zero), NaN matching NaN, and everything else in them exactly. Another
BLAS may round a matmul differently in the last bits; the tolerance allows
that, not a change in what the code computes. The check never skips.
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden" / "digests.json").read_text(encoding="utf-8"))
RTOL = 1e-6
ATOL = 1e-9

_spec = importlib.util.spec_from_file_location("artifact_digest", ROOT / "scripts" / "artifact_digest.py")
artifact_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_digest)


def _close(got, want, where: str) -> None:
    """Numbers within the tolerance, all else equal, recursing into lists and dicts."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            _close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)), where
        assert (math.isnan(got) and math.isnan(want)) or np.isclose(got, want, rtol=RTOL, atol=ATOL), (
            f"{where}: {got!r} vs golden {want!r}"
        )
    else:
        assert got == want and type(got) is type(want), f"{where}: {got!r} vs golden {want!r}"


def test_golden_file_covers_every_variant():
    listed = [(v["config"], tuple(v["overrides"])) for v in GOLDEN["variants"]]
    assert listed == [(c, tuple(o)) for c, o in artifact_digest.VARIANTS]


@pytest.mark.parametrize(
    "variant", GOLDEN["variants"], ids=[" ".join([v["config"], *v["overrides"]]) for v in GOLDEN["variants"]]
)
def test_artifacts_match_golden(variant):
    got = artifact_digest.train_and_digest(str(ROOT / variant["config"]), variant["overrides"])
    assert list(got["digests"]) == list(variant["digests"])
    for name in ("epochs.csv", "report.json"):
        _close(got[name], variant[name], name)
    if artifact_digest.machine() == GOLDEN["machine"]:
        assert got["digests"] == variant["digests"]


def test_tolerance_catches_a_moved_value():
    variant = GOLDEN["variants"][0]
    moved = json.loads(json.dumps(variant["report.json"]))
    moved["delta"] *= 1.0 + 10 * RTOL
    with pytest.raises(AssertionError, match="delta"):
        _close(moved, variant["report.json"], "report.json")
    _close(variant["report.json"], variant["report.json"], "report.json")
