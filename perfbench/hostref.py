"""Host speed reference: a fixed piece of work timed between replay steps.

On a shared host the speed of a core changes by tens of percent within
seconds and drifts over minutes, and CPU time follows wall time, so
neither longer runs nor process time remove it from a replay's timings.
The replay therefore runs this kernel every ``INTERVAL_S`` seconds (and
after every update step) and scales each step's wall time by
``NOMINAL_MS`` over the kernel time measured on either side of it. The
scaled times read as milliseconds on a host where the kernel takes
``NOMINAL_MS``; the kernel's own time is never part of a measurement.

The kernel is owned by the benchmark and uses nothing from the program,
so a change to the program moves the scaled times exactly as it moves
the wall times at constant host speed. Its work is shaped like a replay
step at the two context lengths the workloads use: slice a context,
forecast it through real FFTs and a complex vector-matrix product at the
ridge's dimension, blend it with a seasonal-naive forecast, keep a small
record object, score it and look up a forecast-table-like dict. Kernels
of plain loops, big arrays or BLAS products tracked the replay's speed
less well. It keeps about 3 MiB resident, which ``peak_rss_mb`` includes
on every commit alike.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

# kernel time, in ms, about its median in trial replays on the 2-vCPU
# Xeon VM the benchmark was defined on; scaled times are at this speed
NOMINAL_MS = 1.7
# longest stretch of replay between two kernel runs
INTERVAL_S = 0.1

_STEPS, _CHANNELS, _ROWS = 4, 3, 600
# (context length, ridge dimension, output bins, horizon) of the two
# shapes the kernel steps through: shared-l128's and the paper's
_SHAPES = ((128, 117, 13, 24), (520, 469, 49, 96))
_TABLE = 2_000


@dataclass
class _Bundle:
    time_step: int
    channel: int
    base: np.ndarray
    combined: np.ndarray
    weight: float


class Reference:
    def __init__(self):
        # fixed inputs from a formula; numpy.random would add megabytes of
        # resident memory that the replay itself does not use
        self._series = np.sin(0.7 * np.arange(_ROWS * _CHANNELS)).reshape(_ROWS, _CHANNELS)
        self._weights = [np.exp(1j * np.arange(d * b).reshape(d, b)) / d
                         for _, d, b, _ in _SHAPES]
        # a dict keyed like the precomputed forecast table
        self._table = {(i, f"c{i % _CHANNELS}"): float(i) for i in range(_TABLE)}
        self.samples_ms = []
        self.busy_s = 0.0  # wall time spent in the kernel
        self.run()  # first call pays for FFT plans and caches; not kept
        self.samples_ms.clear()

    def _work(self):
        """Steps shaped like the replay's: slice a context, forecast it
        through FFTs and a complex vector-matrix product, combine it with
        a seasonal-naive forecast, keep a small record, score it."""
        acc, kept = 0.0, []
        for (length, dim, bins, horizon), weight in zip(_SHAPES, self._weights):
            for t in range(length, length + _STEPS):
                for ch in range(_CHANNELS):
                    ctx = np.asarray(self._series[t - length + 1: t + 1, ch],
                                     dtype=np.float64)
                    row = np.resize(np.fft.rfft(ctx), dim)
                    adaptive = np.fft.irfft(row @ weight, 2 * bins)[:horizon]
                    base = np.resize(ctx[-24:], horizon)
                    combined = 0.5 * adaptive + 0.5 * base
                    kept.append(_Bundle(t, ch, base, combined, 0.5))
                    acc += float(np.abs(combined - base).mean())
                    key = (t * 61 + ch * 7919) % _TABLE
                    acc += self._table[(key, f"c{key % _CHANNELS}")]
        return acc + len(kept)

    def run(self):
        """Time the kernel three times back to back and keep the median,
        so one interrupt or a cache left cold by the program does not
        count; returns the wall clock when it ended. The garbage collector
        is paused meanwhile: a collection would walk the program's heap."""
        times = []
        gc.disable()
        try:
            start = t1 = time.perf_counter()
            for _ in range(3):
                t0 = t1
                self._work()
                t1 = time.perf_counter()
                times.append(t1 - t0)
        finally:
            gc.enable()
        self.busy_s += t1 - start
        self.samples_ms.append(sorted(times)[1] * 1e3)
        return t1

    def factor(self, i):
        """Scale for the stretch between kernel runs ``i`` and ``i + 1``."""
        k = self.samples_ms
        return 2.0 * NOMINAL_MS / (k[i] + k[i + 1])

    def speed(self):
        """Host speed over the run, as the nominal over the median kernel time."""
        return NOMINAL_MS / float(np.median(self.samples_ms))
