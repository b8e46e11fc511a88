"""Helpers of the collapselab benchmark that do not need the package itself.

* ``Tracer``: nested spans with self time (a span's duration minus the part
  its direct children cover) and call counts, aggregated per span name.
* ``patched``: wraps public functions where their callers look them up and
  restores them afterwards; a name that no longer exists is recorded as
  absent instead of raising.
* ``tail_percentile`` / ``latency_summary``: the percentile rule of the
  benchmark, the highest whole percentile with at least ten samples beyond it.
* ``check_training``: the correctness check of one training pass against the
  stored reference values.
* ``machine_info``: the machine a result was measured on.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import platform
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Iterator

import numpy as np

# ---------------------------------------------------------------------------
# spans and self time


class Tracer:
    """Open spans on a stack; self time and calls accumulate per name.

    Summed over every span below a root, self times add up to the root's
    duration exactly: each child's duration is subtracted from its parent
    once and counted once as its own.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        # one [name, start, time covered by direct children] per open span
        self._stack: list[list] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        self.self_s[name] += duration - covered
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.exit()


def traced(tracer: Tracer, fn: Callable, name: str | Callable[..., str]) -> Callable:
    """``fn`` inside a span; ``name`` may be a function of the call's arguments."""
    name_of = name if callable(name) else (lambda *a, **k: name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name_of(*args, **kwargs))
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return wrapper


@contextlib.contextmanager
def patched(targets, absent: list[str]) -> Iterator[None]:
    """Install wrappers for ``(label, owner, attribute, make_wrapper)`` targets.

    ``make_wrapper`` receives the original and returns its replacement.
    When the owner is None or lacks the attribute, the label is appended to
    ``absent`` and the target skipped. Every original is restored on exit.
    """
    originals = []
    try:
        for label, owner, attr, make_wrapper in targets:
            original = getattr(owner, attr, None)
            if original is None:
                absent.append(label)
                continue
            # read from __dict__ so a method is restored as the plain function
            originals.append((owner, attr, vars(owner).get(attr, original)))
            setattr(owner, attr, make_wrapper(original))
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# percentiles


def tail_percentile(n: int) -> int:
    """Highest whole percentile p with at least ten of n samples beyond it.

    n * (100 - p) / 100 >= 10, computed in integers: p = 100 - ceil(1000 / n).
    600 samples give p98 (12 beyond), 2000 give p99 (20 beyond).
    """
    if n < 20:
        raise ValueError(f"tail_percentile: need at least 20 samples, got {n}")
    return 100 - (-(-1000 // n))


def latency_summary(samples_s: list[float]) -> tuple[float, float, int]:
    """(median ms, tail ms, tail percentile) of one pass's latencies."""
    p = tail_percentile(len(samples_s))
    return 1e3 * statistics.median(samples_s), 1e3 * float(np.percentile(samples_s, p)), p


# ---------------------------------------------------------------------------
# correctness of a training pass


def check_training(summary: dict, reference: dict) -> list[str]:
    """Problems found in one training pass; an empty list means correct.

    ``summary`` holds ``diverged``, ``epoch_losses`` (one total loss per
    epoch), ``epochs_expected`` and the final ``acc_few``, ``delta`` and
    ``std_cos_mu``. ``reference`` maps each of those metric names to
    ``{"ref": value, "tol": allowed absolute distance}``.
    """
    problems = []
    if summary["diverged"]:
        problems.append("run diverged")
    losses = summary["epoch_losses"]
    if len(losses) != summary["epochs_expected"]:
        problems.append(f"{len(losses)} epochs completed of {summary['epochs_expected']}")
    bad = [i + 1 for i, v in enumerate(losses) if not math.isfinite(v)]
    if bad:
        problems.append(f"non-finite epoch loss at epoch {bad[0]}")
    for key, band in reference.items():
        value = summary[key]
        if not (math.isfinite(value) and abs(value - band["ref"]) <= band["tol"]):
            problems.append(f"{key} = {value!r} outside {band['ref']} +- {band['tol']}")
    return problems


# ---------------------------------------------------------------------------
# the machine

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy has loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    """nproc, CPU model, Python, numpy and its BLAS with the thread count."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }
