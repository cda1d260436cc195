"""Runs repeat themselves, within a stated scope.

A run is a deterministic function of its inputs at a fixed numpy, BLAS
build and BLAS thread count: repeated, it gives the same adaptive
forecasts bit for bit. Across thread counts BLAS may sum in another
order, so the forecasts agree only to rounding: within 1e-9 of their
largest magnitude.

Each run is made in a fresh interpreter, because a BLAS library reads its
thread count once, when it is loaded. Two runs cover both refit paths: a
per-channel run whose blocks of 20 rows are Woodbury steps at d = 117,
and a shared run whose blocks of 300 rows refit from the slab's lagged
moments (at least L + H = 152 rows).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from adapts.forecaster import OnlineForecaster, moments_pay, woodbury_pays

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
L, H, C = 128, 24, 3
RUNS = {"woodbury": (False, 20), "moments": (True, 100)}  # shared_weights, update_period

SCRIPT = f"""
import sys

import numpy as np
from helpers import ar_seasonal_series

from adapts.config import RollingConfig
from adapts.harness import NaiveSeasonalBase, run

data = ar_seasonal_series(seed=11, steps=650, channels={C}, period=24)
adaptive = {{}}
for name, (shared, period) in {RUNS!r}.items():
    config = RollingConfig(context_length={L}, horizon={H}, update_period=period,
                           seasonality=24, shared_weights=shared)
    adaptive[name] = run(data, NaiveSeasonalBase(24, {H}), config,
                         keep_forecasts=True).forecasts[:, 1]
np.savez(sys.argv[1], **adaptive)
"""


def adaptive_forecasts(path, threads):
    python_path = os.pathsep.join(filter(None, [str(SRC), str(TESTS),
                                                os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": python_path,
           **{name: str(threads) for name in THREAD_VARIABLES}}
    result = subprocess.run([sys.executable, "-c", SCRIPT, str(path)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    with np.load(path) as saved:
        return {name: saved[name] for name in RUNS}


def test_runs_repeat_per_thread_count_and_agree_across_counts(tmp_path):
    d = OnlineForecaster(L, H, 24).design_dim
    assert woodbury_pays(RUNS["woodbury"][1], d)
    assert moments_pay(RUNS["moments"][1] * C, L + H)
    by_threads = {}
    for threads in (1, 2):
        first, again = (adaptive_forecasts(tmp_path / f"t{threads}_{k}.npz", threads)
                        for k in range(2))
        for name in RUNS:
            assert first[name].tobytes() == again[name].tobytes(), (threads, name)
        by_threads[threads] = first
    for name in RUNS:
        one, two = by_threads[1][name], by_threads[2][name]
        scale = np.abs(one).max()
        assert np.isfinite(scale) and scale > 0, name
        assert np.abs(two - one).max() <= 1e-9 * scale, name
