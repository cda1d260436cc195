"""Every name the benchmark's tracer patches still exists.

``perfbench/spans.py`` wraps functions and methods of ``adapts`` by
name, so a rename breaks the traced benchmark runs. Its ``install`` runs
here with a tracer that only looks each name up and patches nothing, and
with its own wrappers on one small run, whose call counts must follow the
run's schedule. ``perfbench/replay.py`` reads two names of its own, a
base's ``forecast`` and a report's ``bundles``, which are pinned here too.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from helpers import forecast_columns

import adapts
from adapts.config import RollingConfig

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    spans = load_spans()

    class LookUp(spans.Tracer):
        def __init__(self):
            super().__init__()
            self.looked_up = []

        def patch(self, owners, attr, name, on_call=None):
            for owner in owners:
                assert callable(getattr(owner, attr)), f"{name}: {owner!r}.{attr}"
            self.looked_up.append(name)

    run_before = adapts.harness.run
    tracer = LookUp()
    spans.install(tracer, adapts)
    assert len(tracer.looked_up) == len(set(tracer.looked_up)) > 0
    assert {"harness.run", "io.load_forecasts", "forecaster.fit_block"} <= set(tracer.looked_up)
    assert adapts.harness.run is run_before and not tracer.stats


@pytest.mark.parametrize("shared", [True, False])
def test_traced_calls_follow_the_schedule(monkeypatch, shared):
    """The wrappers count the calls a run's schedule implies, so a
    refactor that calls around a patched name shows here and does not
    silently zero that name's per-layer metric. The wrappers are installed
    through ``monkeypatch`` and undone after the test."""
    spans = load_spans()

    class Undone(spans.Tracer):
        def patch(self, owners, attr, name, on_call=None):
            traced = self.wrap(name, getattr(owners[0], attr), on_call)
            for owner in owners:
                monkeypatch.setattr(owner, attr, traced)

    tracer = Undone()
    spans.install(tracer, adapts)
    # 64 steps in 13 periods; the first two of the 12 updates come before
    # any target has landed, so 10 of them score windows
    L, H, M, C, rows = 16, 12, 5, 3, 80
    config = RollingConfig(context_length=L, horizon=H, update_period=M, seasonality=4,
                           warmup=1, shared_weights=shared)
    data = np.random.default_rng(0).normal(size=(rows, C)).cumsum(axis=0)
    base = adapts.harness.make_base_forecaster("naive_seasonal", horizon=H, seasonality=4)
    report = adapts.harness.run(data, base, config, keep_forecasts=True)

    steps = rows - L
    updates, periods = steps // M, -(-steps // M)
    scoring = sum(k * M > H for k in range(1, updates + 1))
    assert (steps, updates, periods, scoring) == (64, 12, 13, 10)
    assert len(report.forecasts) == steps and report.update_steps == scoring
    assert tracer.calls("harness.run") == 1
    assert tracer.calls("forecaster.predict") == steps
    assert tracer.calls("forecaster.observe_values") == 1 + updates
    assert tracer.calls("weighter.update") == C * scoring
    assert tracer.calls("weighter.fast_weight") == 2 * C * scoring
    assert tracer.calls("weighter.current_weight") == C * periods + C * scoring
    assert tracer.calls("weighter.combine") == 3 * C * scoring


@pytest.mark.parametrize("kind", ["naive_seasonal", "historical_mean", "precomputed"])
def test_what_the_replay_reads_beyond_the_spans(kind):
    """The traced replay wraps each bundled base's ``forecast``, which no
    run calls, and reads ``bundles`` on the bounded report its run makes."""
    spans = load_spans()
    tracer = spans.Tracer()
    L, H, M, rows = 8, 3, 4, 40
    config = RollingConfig(context_length=L, horizon=H, update_period=M, seasonality=2)
    data = np.random.default_rng(1).normal(size=(rows, 2))
    table = adapts.io.ForecastTable(*forecast_columns(
        [(t, name, np.ones(H)) for t in range(L - 1, rows) for name in ("ch0", "ch1")], H))
    base = adapts.harness.make_base_forecaster(kind, horizon=H, seasonality=2, forecasts=table,
                                               channel_names=["ch0", "ch1"])
    # guards perfbench/replay.py:219, base.forecast = tracer.wrap("base.forecast", base.forecast)
    base.forecast = tracer.wrap("base.forecast", base.forecast)
    report = adapts.harness.run(data, base, config)
    assert tracer.calls("base.forecast") == 0
    # guards perfbench/replay.py:148, for per_channel in report.bundles
    assert report.bundles == [[], []]
