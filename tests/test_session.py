"""The session's forecast ring and its two ends.

By default a run holds a step's base and adaptive forecasts only until the
update that scores it, in a ring of ``update_period + horizon`` steps
rounded up to whole update periods, and its report carries no
``forecasts``. ``keep_forecasts=True`` sizes the same ring for every step.
The two modes share one code path, so their reports and columns must be
byte-identical, the kept forecasts must be exactly what the base and the
forecaster returned at each step, and a bounded run's memory must grow
only by its per-step and per-window columns. A session refuses a step past
the last origin and a report before it, before it touches anything.
"""

import json
import tracemalloc

import numpy as np
import pytest
from helpers import TraceArray, ar_seasonal_series, forecast_columns

from adapts.config import RollingConfig
from adapts.errors import UsageError
from adapts.forecaster import OnlineForecaster
from adapts.harness import (
    HistoricalMeanBase,
    NaiveSeasonalBase,
    Session,
    make_base_forecaster,
    run,
)
from adapts.io import ForecastTable

L, S = 24, 8
NAMES = ["a", "b", "c"]
# the report's columns besides the forecasts: one entry per step or scored
# window and channel
COLUMNS = ("landed", "weight_used", "scores", "floored")

# (H, M, rows): M < H with M + H a multiple of M and not, M = H, M > H with
# M + H not a multiple of M, a series whose 35 steps fit in the 40-step
# ring with one scoring update, and one whose 30 steps end before any update
SHAPES = [(8, 3, 300), (8, 4, 300), (8, 8, 300), (5, 13, 300), (8, 20, 300),
          (8, 20, L + 35), (6, 40, L + 30)]
KINDS = ["naive_seasonal", "historical_mean", "precomputed"]


def config(horizon, update_period, shared=True):
    return RollingConfig(context_length=L, horizon=horizon, update_period=update_period,
                         seasonality=S, warmup=1, fast_window=3, shared_weights=shared)


def make_base(kind, data, horizon):
    """A base of ``kind``; the precomputed one serves noisy persistence
    forecasts for every forecast step of ``data``."""
    table = None
    if kind == "precomputed":
        rng = np.random.default_rng(len(data))
        rows = [(t, name, data[t, ch] + rng.normal(size=horizon))
                for t in range(L - 1, len(data) - 1) for ch, name in enumerate(NAMES)]
        table = ForecastTable(*forecast_columns(rows, horizon))
    return make_base_forecaster(kind, horizon=horizon, seasonality=S, forecasts=table,
                                channel_names=NAMES)


def both_runs(shape, shared, kind):
    horizon, update_period, rows = shape
    data = ar_seasonal_series(seed=rows + update_period, steps=rows, channels=3, period=S)
    cfg = config(horizon, update_period, shared)
    return [run(data, make_base(kind, data, horizon), cfg, channel_names=NAMES,
                keep_forecasts=keep) for keep in (False, True)]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("shape", SHAPES)
def test_bounded_and_kept_runs_agree_byte_for_byte(shape, shared, kind):
    bounded, kept = both_runs(shape, shared, kind)
    assert json.dumps(bounded.to_dict()) == json.dumps(kept.to_dict())
    for column in COLUMNS:
        got, want = getattr(bounded, column), getattr(kept, column)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), column
        assert got.tobytes() == want.tobytes(), column
    n_steps = kept.weight_used.shape[1]
    assert kept.forecasts.shape == (n_steps, 2, 3, shape[0])
    assert bounded.forecasts is None
    assert bounded.bundles == [[]] * 3
    assert [len(b) for b in kept.bundles] == [n_steps] * 3


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("shape", SHAPES)
def test_kept_forecasts_are_what_each_step_returned(shape, shared, monkeypatch):
    # a kept run's forecasts are every step's forecast_all and predict
    # outputs, stacked; a bounded run's steps return the same ones
    horizon, update_period, rows = shape
    data = ar_seasonal_series(seed=rows, steps=rows, channels=3, period=S)
    cfg = config(horizon, update_period, shared)
    predicted = []
    predict = OnlineForecaster.predict

    def recording_predict(self, contexts, out=None):
        out = predict(self, contexts, out=out)
        predicted.append(np.array(out))
        return out

    monkeypatch.setattr(OnlineForecaster, "predict", recording_predict)
    columns = []
    for keep in (True, False):
        predicted.clear()
        base, served = NaiveSeasonalBase(S, horizon), []

        def recording_forecast_all(t, contexts, forecast_all=base.forecast_all):
            served.append(forecast_all(t, contexts))
            return served[-1]

        base.forecast_all = recording_forecast_all
        report = run(data, base, cfg, keep_forecasts=keep)
        columns.append(np.stack([np.stack(served), np.stack(predicted)], axis=1))
        if keep:
            kept = report.forecasts
    assert kept.tobytes() == columns[0].tobytes() == columns[1].tobytes()
    assert kept.shape == columns[0].shape


def traced_peak(rows, keep_forecasts):
    """The ``tracemalloc`` peak of one run over ``rows`` rows, and its report."""
    cfg = RollingConfig(context_length=64, horizon=48, update_period=50, seasonality=S)
    data = ar_seasonal_series(seed=1, steps=rows, channels=7, period=S)
    base = NaiveSeasonalBase(S, 48)
    tracemalloc.start()
    try:
        report = run(data, base, cfg, keep_forecasts=keep_forecasts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, report


@pytest.mark.parametrize("keep", [False, True])
def test_a_bounded_run_grows_only_by_its_columns(keep):
    # numpy reports its buffers to tracemalloc. Doubling the series from
    # 1 500 to 3 000 rows grows a bounded run's peak by the report's
    # columns (682 KB) and its weight trajectories (one dict per update and
    # channel, allowed 1 KiB each); a kept run also holds every step's
    # forecasts, 8.1 MB more here, so it must exceed that bound by at least
    # half of them
    (short_peak, short), (long_peak, long) = (traced_peak(rows, keep) for rows in (1500, 3000))
    columns = sum(getattr(long, c).nbytes - getattr(short, c).nbytes for c in COLUMNS)
    trajectories = (long.update_steps - short.update_steps) * 7
    bound = columns + trajectories * 1024
    grew = long_peak - short_peak
    if keep:
        assert grew > bound + (long.forecasts.nbytes - short.forecasts.nbytes) // 2
    else:
        assert grew <= bound, f"peak grew by {grew} bytes > {bound}"


class CountingArray(TraceArray):
    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def fresh_session(rows=120, keep_forecasts=False):
    data = CountingArray(ar_seasonal_series(seed=4, steps=rows, channels=3, period=S))
    return Session(data, HistoricalMeanBase(8), config(8, 5), keep_forecasts=keep_forecasts)


def state(session):
    """Everything a step or a report could read, observe or write."""
    arrays = (session.ring, session.landed, session.weight_used, session.scores,
              session.floored)
    return (session.steps, session.scored, session.base._count, session.dataset.reads,
            session.dataset.max_index, [a.tobytes() for a in arrays],
            json.dumps(session.trajectories))


@pytest.mark.parametrize("keep", [False, True])
def test_a_step_past_the_last_origin_raises_before_touching_anything(keep):
    session = fresh_session(keep_forecasts=keep)
    for _ in range(session.n_steps):
        session.step()
    before = state(session)
    assert session.base._count == len(session.dataset) - 1
    with pytest.raises(UsageError, match=f"taken all {session.n_steps} steps"):
        session.step()
    assert state(session) == before
    # the finished session still reports what a run reports
    want = run(fresh_session().dataset.values, HistoricalMeanBase(8), config(8, 5))
    assert session.report().to_dict() == want.to_dict()


@pytest.mark.parametrize("taken", [0, 1, 48, 95])
def test_a_report_before_the_last_step_raises_before_touching_anything(taken):
    session = fresh_session()
    assert session.n_steps == 96
    for _ in range(taken):
        session.step()
    before = state(session)
    with pytest.raises(UsageError, match=f"needs all 96 steps; the session has taken {taken}"):
        session.report()
    assert state(session) == before
    for _ in range(taken, session.n_steps):
        session.step()
    want = run(fresh_session().dataset.values, HistoricalMeanBase(8), config(8, 5))
    assert session.report().to_dict() == want.to_dict()
