"""Shared fixtures for the harness and acceptance tests."""

import numpy as np

from adapts.io import ForecastTable, load_forecasts, write_forecasts


class TraceArray:
    """Array wrapper recording the highest time index ever read.

    Supports exactly the access patterns the harness uses: ``a[t]``,
    ``a[lo:hi]`` and ``a[lo:hi, ch]``.
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.max_index = -1

    @property
    def shape(self):
        return self.values.shape

    def __len__(self):
        return self.values.shape[0]

    def _track(self, key):
        if isinstance(key, tuple):
            key = key[0]
        if isinstance(key, slice):
            assert key.step is None
            stop = self.values.shape[0] if key.stop is None else key.stop
            hi = stop - 1
        else:
            hi = int(key)
            assert hi >= 0
        if hi > self.max_index:
            self.max_index = hi

    def __getitem__(self, key):
        self._track(key)
        return self.values[key]


def ar_seasonal_series(seed, steps=10000, channels=3, period=24):
    """Seasonal signal plus a second, incommensurate harmonic plus AR noise.

    The naive seasonal forecaster at ``period`` nails the first component
    but systematically misses the second, which any full linear map can
    represent, so an online-fit linear model has a durable edge.
    """
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


def regime_switch_series(steps=6000, switch_at=3000, seasonality=8, seed=0):
    """Series whose generating process flips at ``switch_at``.

    Before the switch: a period-``seasonality`` wave plus an alternating
    (Nyquist-frequency) component, so a seasonal-naive forecaster tracks
    it exactly while a low-pass-filtered linear model cannot see the
    alternating part. After the switch: a pure longer-period wave the
    seasonal-naive forecaster mis-tiles but a linear map fits. Small noise
    keeps the scaled-error denominators healthy.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(steps)
    phase1 = np.sin(2.0 * np.pi * t / seasonality) + 0.3 * (-1.0) ** t
    phase2 = 1.2 * np.sin(2.0 * np.pi * t / 12.0)
    x = np.where(t < switch_at, phase1, phase2) + 0.01 * rng.normal(size=steps)
    return x[:, None]


def forecast_columns(rows, horizon):
    """The ``(t, channel, block)`` arrays of ``(t, name, vector)`` triples,
    as :func:`adapts.io.write_forecasts` takes them."""
    rows = list(rows)
    channel = np.empty(len(rows), object)
    channel[:] = [name for _, name, _ in rows]
    block = np.array([vec for _, _, vec in rows], dtype=np.float64).reshape(len(rows), horizon)
    return [t for t, _, _ in rows], channel, block


def table_dict(table):
    """The rows of a :class:`adapts.io.ForecastTable` as a ``{(t, name):
    row}`` dict in block order, read back through its index, which must
    name every block row once."""
    i, code = np.nonzero(table.index >= 0)
    rows = table.index[i, code]
    order = np.argsort(rows)
    assert rows[order].tolist() == list(range(len(table.block)))
    return {(int(table.times[i[k]]), table.names[code[k]]): table.block[rows[k]]
            for k in order.tolist()}


def forecast_table(rows, horizon, source, tmp_path):
    """A :class:`adapts.io.ForecastTable` of ``(t, name, vector)`` rows,
    built from arrays (``source="array"``) or written to and loaded from a
    ``.csv`` or ``.npz`` file in ``tmp_path``."""
    columns = forecast_columns(rows, horizon)
    if source == "array":
        return ForecastTable(*columns)
    path = tmp_path / f"f.{source}"
    write_forecasts(*columns, path)
    return load_forecasts(path)[0]
