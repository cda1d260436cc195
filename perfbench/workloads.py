"""Workload definitions, seeded input generation and the base-stream oracle.

Each workload is one fixed series shape and run configuration. Inputs are
a pure function of the workload and the seed, and they are written to
files before any timing starts, so the program under test only ever sees
files. The generator is a copy of the AR-seasonal generator the test
suite uses, kept here so that editing the tests never shifts a workload.

Why these three:

* ``shared-l128`` is the acceptance-criterion-8 shape. Most of its time
  goes to window scoring and weighting; the ridge solve (d=117) is small.
* ``paper-default`` is the paper's configuration with a precomputed base
  read from a large forecast file. Its refits take the direct path
  (block 1400 >= d=469), and it holds the most memory.
* ``perchannel-woodbury`` fits one model per channel with small blocks
  (50 rows < d=469), so every refit is a Woodbury update. It uses the
  ridge layer in the opposite way to ``paper-default``.
"""

from __future__ import annotations

import numpy as np

# settings use the run-config file spelling accepted by
# adapts.io.build_rolling_config
WORKLOADS = {
    "shared-l128": {
        "steps": 10_000, "channels": 3, "period": 24,
        "settings": {"context_length": 128, "horizon": 24, "update_period": 100,
                     "seasonality": 24},
        "base": "naive_seasonal",
    },
    "paper-default": {
        "steps": 4_000, "channels": 7, "period": 24,
        "settings": {"context_length": 520, "horizon": 96, "update_period": 200,
                     "seasonality": 24},
        "base": "precomputed",
    },
    "perchannel-woodbury": {
        "steps": 4_000, "channels": 4, "period": 24,
        "settings": {"context_length": 520, "horizon": 96, "update_period": 50,
                     "seasonality": 24, "shared_weights": False},
        "base": "naive_seasonal",
    },
}

# standard deviation of the noise added to the seasonal-naive forecasts
# that make up the precomputed base
PRECOMPUTED_NOISE = 0.3

# same value as adapts.metrics.DENOMINATOR_FLOOR; repeated so the oracle
# shares no code with the program
DENOMINATOR_FLOOR = 1e-8


def ar_seasonal_series(seed, steps=10000, channels=3, period=24):
    """Seasonal signal plus a second, incommensurate harmonic plus AR noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(steps)
    data = np.empty((steps, channels))
    for ch in range(channels):
        phase1, phase2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        amp1 = rng.uniform(1.5, 2.5)
        amp2 = rng.uniform(0.35, 0.55)
        seasonal = amp1 * np.sin(2.0 * np.pi * t / period + phase1)
        drifting = amp2 * np.sin(2.0 * np.pi * t / (1.5 * period) + phase2)
        ar = np.zeros(steps)
        eps = rng.normal(0.0, 0.25, size=steps)
        for i in range(1, steps):
            ar[i] = 0.7 * ar[i - 1] + eps[i]
        data[:, ch] = seasonal + drifting + ar
    return data


def forecast_origins(spec):
    """Time steps at which the harness asks for a forecast."""
    first = spec["settings"]["context_length"] - 1
    return np.arange(first, spec["steps"] - 1)


def seasonal_naive(data, origins, seasonality, horizon):
    """(len(origins), horizon, C) tiles of the final season before each origin."""
    lag = origins[:, None] - seasonality + 1 + np.arange(horizon)[None, :] % seasonality
    return data[lag]


def base_forecasts(spec, data, seed):
    """The base forecasts the workload's base forecaster serves, as a
    (len(origins), horizon, C) array."""
    s = spec["settings"]
    naive = seasonal_naive(data, forecast_origins(spec), s["seasonality"], s["horizon"])
    if spec["base"] == "naive_seasonal":
        return naive
    rng = np.random.default_rng([seed, 1])
    return naive + rng.normal(0.0, PRECOMPUTED_NOISE, size=naive.shape)


def write_series(path, data, names):
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in data.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def write_forecasts(path, origins, forecasts, names):
    horizon = forecasts.shape[1]
    with open(path, "w") as fh:
        fh.write("t,channel," + ",".join(f"h{i + 1}" for i in range(horizon)) + "\n")
        for t, block in zip(origins.tolist(), forecasts):
            for ch, name in enumerate(names):
                fh.write(f"{t},{name}," + ",".join(map(repr, block[:, ch].tolist())) + "\n")


def make_inputs(name, seed, workdir):
    """Write the workload's files into ``workdir``.

    Returns the settings dict for the run (paths included) and the
    in-memory series and base forecasts the oracle checks against.
    """
    spec = WORKLOADS[name]
    data = ar_seasonal_series(seed, spec["steps"], spec["channels"], spec["period"])
    names = [f"ch{i}" for i in range(spec["channels"])]
    settings = dict(spec["settings"], base=spec["base"],
                    dataset=str(workdir / "series.csv"))
    write_series(settings["dataset"], data, names)
    forecasts = base_forecasts(spec, data, seed)
    if spec["base"] == "precomputed":
        settings["forecasts"] = str(workdir / "forecasts.csv")
        write_forecasts(settings["forecasts"], forecast_origins(spec), forecasts, names)
    return settings, data, forecasts


def expected_counts(spec):
    """Update steps that score windows, and scored windows, from the
    replay schedule alone."""
    s = spec["settings"]
    L, H, M = s["context_length"], s["horizon"], s["update_period"]
    t0 = L - 1
    updates = (spec["steps"] - 1 - t0) // M
    scoring = sum(1 for k in range(1, updates + 1) if k * M - 1 >= H)
    last_origin = t0 + updates * M - 1 - H
    windows = spec["channels"] * max(0, last_origin - t0 + 1)
    return scoring, windows


def base_stream_oracle(spec, data, forecasts):
    """Aggregate base-stream MASE and RMSSE computed directly with array
    operations, independently of the program's scoring path."""
    s = spec["settings"]
    L, H, period = s["context_length"], s["horizon"], s["seasonality"]
    _, windows = expected_counts(spec)
    n = windows // spec["channels"]
    origins = forecast_origins(spec)[:n]
    view = np.lib.stride_tricks.sliding_window_view
    mase_ch, rmsse_ch = [], []
    for ch in range(spec["channels"]):
        x = data[:, ch]
        ctx = view(x, L)[origins - L + 1]
        tgt = view(x, H)[origins + 1]
        diff = ctx[:, period:] - ctx[:, :-period]
        mae_den = np.maximum(np.mean(np.abs(diff), axis=1), DENOMINATOR_FLOOR)
        mse_den = np.maximum(np.mean(np.square(diff), axis=1), DENOMINATOR_FLOOR)
        err = forecasts[:n, :, ch] - tgt
        mase_ch.append(np.mean(np.mean(np.abs(err), axis=1) / mae_den))
        rmsse_ch.append(np.mean(np.sqrt(np.mean(np.square(err), axis=1) / mse_den)))
    return {"mase": float(np.mean(mase_ch)), "rmsse": float(np.mean(rmsse_ch))}
