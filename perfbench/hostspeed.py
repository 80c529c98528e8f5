"""Host-speed calibration for the timed intervals.

The benchmark host is a shared 2-core VM whose speed drifts: the same
150-op list, repeated for four minutes in one process, took between 0.8x
and 1.2x of its median time (interquartile range 21%), and CPU time tracks
wall time, so `process_time` does not cancel the drift.  So every process of
a run keeps sampling a fixed calibration kernel that does not touch the
package under test (one sample per SPACING_S of work), and measured times
are rescaled to the reference host speed,

    t_reported = t_measured * NOMINAL_CHUNK_S / mean(samples of the run),

so a slow host phase stretches the samples as much as the ops and cancels
out, while a change to the package moves only the ops.  The mean over the
whole run, not a per-op or per-process figure: single samples flip between
a fast and a slow state within a second, and the kernel's speed also
differs from process to process by up to 30% where the ops' does not.  On
ten seeds of `thm51-zeros` this choice gave the smallest spread of the ones
tried: 7% on `samples_per_s`, against 10% unscaled, 10% with a 4 s window
around each op and 9% with a median per process.
"""

from __future__ import annotations

import cmath
import math
import statistics
import time

import numpy as np

# Mean wall time of one `chunk()` between ops on the reference host (2-core
# Xeon VM, Python 3.11.7, numpy 2.4.6, OpenBLAS pinned to one thread), over
# 7,518 samples.  Reported times are in seconds at that host speed.
NOMINAL_CHUNK_S = 0.0032
# How far beyond an interval the samples that rescale it on its own may lie.
MARGIN_S = 1.0
# Work between two samples, so calibration costs about 3% of a run.
SPACING_S = 0.1

# The calibration kernel is a frozen copy of the shape of the package's
# theta series evaluation (window from the imaginary parts, one exponential
# per term and point, column sums), on a 32-point batch and on a scalar, the
# two call shapes that dominate the ops.  It must never import the package:
# a change to the package would then move the yardstick with the interval.
_TAU = 1j
_BATCH = np.linspace(0.0, 1.0, 32) + 0.3j
_ITERS = 40


def _series(z) -> np.ndarray:
    zz = np.atleast_1d(np.asarray(z, dtype=np.complex128)).ravel()
    centre = -np.imag(zz) / _TAU.imag
    lo = math.floor(float(np.min(centre))) - 7
    hi = math.ceil(float(np.max(centre))) + 7
    ns = np.arange(lo, hi + 1, dtype=np.float64)
    expo = 0.5 * ns[:, None] * ns[:, None] * _TAU + ns[:, None] * zz[None, :]
    return np.exp(2j * math.pi * expo).sum(axis=0)


def now() -> float:
    """CLOCK_MONOTONIC: system-wide on Linux, so time stamps taken in the
    worker processes compare with the parent's."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def chunk() -> float:
    """Run the calibration kernel once and return its wall time."""
    t0 = time.perf_counter()
    acc = 0j
    for k in range(_ITERS):
        acc += _series(_BATCH + k * 1e-3)[k % 32]
        acc += _series(0.1 + 0.01 * k + 0.2j)[0]
    elapsed = time.perf_counter() - t0
    if not cmath.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite value")
    return elapsed


class Speedometer:
    """Calibration samples taken through a run, with their times."""

    def __init__(self):
        self.times: list[float] = []
        self.chunks: list[float] = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = now()
            dt = chunk()
            self.times.append(t0 + 0.5 * dt)
            self.chunks.append(dt)

    def keep_up(self) -> None:
        """Sample once per SPACING_S of work since the last sample."""
        self.sample(int((now() - self.times[-1]) / SPACING_S) if self.times else 1)

    def factor(self, start: float, end: float) -> float:
        """Factor from measured to reference-host seconds for [start, end],
        from the samples within MARGIN_S of it."""
        near = [c for t, c in zip(self.times, self.chunks) if start - MARGIN_S <= t <= end + MARGIN_S]
        return NOMINAL_CHUNK_S / statistics.fmean(near)

    def overall(self) -> float:
        """Factor from measured to reference-host seconds for the whole run."""
        return NOMINAL_CHUNK_S / statistics.fmean(self.chunks)

    def merge(self, times: list[float], chunks: list[float]) -> None:
        """Add samples taken by another process."""
        self.times += times
        self.chunks += chunks
