"""Whole-run invariants that need no reference implementation.

Each check compares two runs of :func:`adapts.harness.run` whose inputs
are related by a transform with a known effect on the report:

- scaling the series by a power of two scales the forecasts and the
  landed rows exactly, and leaves the scores, applied weights and weight
  trajectories byte-identical, because with channel scaling on every
  quantity the ridge and the weighter see is scale-free, and MASE and
  RMSSE are scale-free by design;
- permuting the channels permutes every column: byte for byte with one
  model per channel, within the oracle's 1e-9 relative with one shared
  model, whose sums run over the channels in another order;
- a run over a prefix of the series equals the first steps of the full
  run byte for byte, the end-to-end form of the no-look-ahead guarantee.

With channel scaling off, λ does not scale with the series, so the
scaling invariant stops there; one check pins that it does.
"""

import functools

import numpy as np
import pytest
from helpers import ar_seasonal_series, forecast_columns

from adapts.config import RollingConfig
from adapts.harness import make_base_forecaster, run
from adapts.io import ForecastTable

L, H, M, S = 128, 24, 50, 24
STEPS, CHANNELS = 1500, 4
NAMES = [f"ch{i}" for i in range(CHANNELS)]
BASES = ("naive_seasonal", "historical_mean", "precomputed")
COLUMNS = ("forecasts", "landed", "weight_used", "scores", "floored")
# the channel axis of each column
CHANNEL_AXIS = {"forecasts": 2, "landed": 1, "weight_used": 0, "scores": 2, "floored": 0}
TOLERANCE = 1e-9


@functools.lru_cache(maxsize=None)
def series():
    # channel scales and offsets decades apart, so channel scaling matters
    data = ar_seasonal_series(3, steps=STEPS, channels=CHANNELS, period=S)
    data = data * [1.0, 8.0, 0.03, 250.0] + [5.0, -40.0, 0.2, 900.0]
    data.flags.writeable = False
    return data


@functools.lru_cache(maxsize=None)
def table_block():
    """Noisy seasonal-naive forecasts ``(steps, C, H)`` for every forecast
    origin of :func:`series`."""
    data = series()
    origins = np.arange(L - 1, STEPS - 1)
    lags = origins[:, None] - S + 1 + np.arange(H) % S
    noise = np.random.default_rng(11).normal(size=(len(origins), H, CHANNELS))
    block = (data[lags] + noise * data.std(axis=0)).transpose(0, 2, 1)
    block.flags.writeable = False
    return block


def precomputed_table(factor=1.0):
    block = table_block() * factor
    rows = [(L - 1 + k, name, block[k, ch]) for k in range(len(block))
            for ch, name in enumerate(NAMES)]
    return ForecastTable(*forecast_columns(rows, H))


def config(shared, **settings):
    return RollingConfig(context_length=L, horizon=H, update_period=M, seasonality=S,
                         shared_weights=shared, **settings)


def run_on(data, kind, shared, table=None, names=NAMES, **settings):
    base = make_base_forecaster(kind, horizon=H, seasonality=S, forecasts=table,
                                channel_names=names)
    return run(data, base, config(shared, **settings), channel_names=names, keep_forecasts=True)


@functools.lru_cache(maxsize=None)
def reference(kind, shared):
    """The run over the unchanged series, computed once per base and mode."""
    table = precomputed_table() if kind == "precomputed" else None
    return run_on(series(), kind, shared, table)


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", BASES)
@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("factor", [4.0, 0.125])
def test_scaling_the_series_scales_the_forecasts_only(factor, shared, kind):
    want = reference(kind, shared)
    table = precomputed_table(factor) if kind == "precomputed" else None
    got = run_on(series() * factor, kind, shared, table)
    assert same_bytes(got.forecasts, want.forecasts * factor)
    assert same_bytes(got.landed, want.landed * factor)
    for column in ("weight_used", "scores", "floored"):
        assert same_bytes(getattr(got, column), getattr(want, column)), column
    assert got.weights == want.weights
    assert got.per_channel == want.per_channel and got.aggregate == want.aggregate


@pytest.mark.parametrize("shared", [True, False])
def test_without_channel_scaling_scaling_moves_the_scores(shared):
    want = run_on(series(), "naive_seasonal", shared, channel_scaling=False)
    got = run_on(series() * 4.0, "naive_seasonal", shared, channel_scaling=False)
    # the base stream is scale-free whatever the flag; the adaptive one is not
    assert same_bytes(got.scores[:, 0], want.scores[:, 0])
    assert np.abs(got.scores[:, 1] - want.scores[:, 1]).max() > 1e-3


PERMUTATION = [2, 0, 3, 1]


@pytest.mark.parametrize("shared", [True, False])
def test_permuting_the_channels_permutes_every_column(shared):
    want = reference("precomputed", shared)
    names = [NAMES[ch] for ch in PERMUTATION]
    # the table is keyed by name, so it serves the permuted run unchanged
    got = run_on(series()[:, PERMUTATION], "precomputed", shared, precomputed_table(),
                 names=names)
    assert got.channel_names == names
    for column in COLUMNS:
        moved = np.take(getattr(want, column), PERMUTATION, axis=CHANNEL_AXIS[column])
        if shared and column not in ("landed", "floored"):
            gap = np.abs(getattr(got, column) - moved).max() / np.abs(moved).max()
            assert gap <= TOLERANCE, (column, gap)
        else:
            assert same_bytes(getattr(got, column), moved), column
    for name in names:
        got_entries, want_entries = got.weights[name], want.weights[name]
        assert [e.keys() for e in got_entries] == [e.keys() for e in want_entries]
        for g, w in zip(got_entries, want_entries):
            for key, value in w.items():
                if shared:
                    assert g[key] == pytest.approx(value, rel=TOLERANCE, abs=0), key
                else:
                    assert g[key] == value, key


# 900 and 1 234 rows end between updates; 928 rows give 800 steps, which
# end on the sixteenth update
@pytest.mark.parametrize("rows", [900, 928, 1234])
@pytest.mark.parametrize("shared", [True, False])
def test_a_prefix_run_is_the_full_runs_first_steps(rows, shared):
    want = reference("historical_mean", shared)
    got = run_on(series()[:rows], "historical_mean", shared)
    n_steps, n_scored = got.forecasts.shape[0], got.floored.shape[1]
    assert n_steps == rows - L and 0 < n_scored < want.floored.shape[1]
    assert same_bytes(got.forecasts, want.forecasts[:n_steps])
    assert same_bytes(got.weight_used, want.weight_used[:, :n_steps])
    assert same_bytes(got.landed, want.landed[:len(got.landed)])
    assert same_bytes(got.scores, want.scores[..., :n_scored])
    assert same_bytes(got.floored, want.floored[:, :n_scored])
    for name in NAMES:
        entries = got.weights[name]
        assert entries and entries == want.weights[name][:len(entries)]
