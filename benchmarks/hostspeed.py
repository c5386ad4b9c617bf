"""A fixed calibration kernel that rates the host's speed of the moment.

On a shared host, other tenants' work slows every sample of this
benchmark by up to half or more, for seconds to many minutes at a time,
so a slow spell can cover whole runs and whole sets of runs. No
statistic over one run's raw times removes that. So every timed stage
is bracketed by runs of ``kernel``, a fixed mix of the kinds of work the
pipeline does: numpy gathers, scatter-adds, sorts and matrix products
over large arrays; many small numpy calls, each on a freshly seeded
Generator; and Python string splitting and dict building. Contention
slows these by different factors, so the kernel holds each of them. It
runs BRACKET times just before the stage and BRACKET times just after,
and the stage's time is reported in seconds at the reference speed:

    scaled = measured * REFERENCE_S / median(kernel times around it)

Two back-to-back kernel runs differ by 12 to 15% (standard deviation of
their log ratio), so a single run on each side would add about that
much noise to every sample.

A faster or slower program moves the scaled time as it moves the raw
time; a busier host moves both the stage and the kernel, and mostly
cancels. ``REFERENCE_S`` is the kernel's time on the machine the
benchmark was written on when nothing else slowed it (see README).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.0050
BRACKET = 3

_rng = np.random.default_rng(0xCA1)
_TABLE = _rng.standard_normal((20000, 16))
_INDEX = _rng.integers(0, 20000, size=8000)
_MATRIX = _rng.standard_normal((64, 64))
_ITEMS = np.arange(500)
_LINES = [f"u{u}\ti{i}\tbooks\t{t}" for u, i, t in
          zip(_rng.integers(0, 500, 2400).tolist(), _rng.integers(0, 900, 2400).tolist(),
              _rng.integers(0, 9, 2400).tolist())]


def kernel() -> float:
    """Run the calibration kernel once; its wall time in seconds."""
    t0 = time.perf_counter()
    acc = np.zeros((2000, 16))
    np.add.at(acc, _INDEX % 2000, _TABLE[_INDEX])
    np.sort(_TABLE[_INDEX, 0])
    acc[:64, :16] @ _MATRIX[:16, :16]
    _MATRIX @ _MATRIX
    for u in range(10):
        rng = np.random.default_rng([0xCA1, u])
        pool = np.setdiff1d(_ITEMS, _INDEX[u * 8:u * 8 + 8] % 500)
        rng.choice(pool, size=20, replace=False)
    groups = {}
    for line in _LINES:
        user, item, _, stamp = line.split("\t")
        groups.setdefault(user, []).append((int(stamp), item))
    return time.perf_counter() - t0


def bracket() -> list:
    """Kernel times of BRACKET runs in a row."""
    return [kernel() for _ in range(BRACKET)]


def scale(seconds: float, kernel_times: list) -> float:
    """``seconds`` measured between the kernel runs, at the reference speed."""
    return seconds * REFERENCE_S / statistics.median(kernel_times)
