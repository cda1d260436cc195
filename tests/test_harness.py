"""Tests for the rolling-window simulator and the base forecasters."""

import gc
import types

import numpy as np
import pytest

from helpers import TraceArray, ar_seasonal_series, regime_switch_series

from adapts.config import RollingConfig
from adapts.errors import (
    CorruptSeries,
    InsufficientData,
    InvalidConfig,
    MissingForecast,
    ShapeMismatch,
)
from adapts.forecaster import OnlineForecaster
from adapts.harness import (
    BaseForecaster,
    HistoricalMeanBase,
    NaiveSeasonalBase,
    PrecomputedBase,
    collect_completed_pairs,
    make_base_forecaster,
    run,
)
from adapts.weighter import combine


def small_config(**overrides):
    base = dict(context_length=32, horizon=8, update_period=16, seasonality=8,
                lam=5.0, alpha=0.9, eta=0.5, fast_window=5, warmup=2)
    base.update(overrides)
    return RollingConfig(**base).validate()


def sine_dataset(steps=600, channels=2, period=8, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(steps)
    cols = [np.sin(2 * np.pi * t / period + ch) + noise * rng.normal(size=steps)
            for ch in range(channels)]
    return np.stack(cols, axis=1)


class TestCollectCompletedPairs:
    def test_steady_state_count_matches_update_period(self):
        L, H, M = 520, 96, 200
        last = L - 2  # nothing collected yet
        t = L - 1 + M
        first = collect_completed_pairs(t, last, L, H)
        t2 = t + M
        second = collect_completed_pairs(t2, first[-1], L, H)
        assert len(second) == M
        assert second[0] == first[-1] + 1

    def test_nothing_completed_before_horizon_elapses(self):
        assert collect_completed_pairs(40, 31, 32, 20) == []

    def test_origins_never_reference_the_future(self):
        for t_now in (40, 55, 200):
            for origin in collect_completed_pairs(t_now, 30, 32, 8):
                assert origin + 8 <= t_now


class TestBaseForecasters:
    def test_naive_seasonal_tiles(self):
        base = NaiveSeasonalBase(seasonality=3, horizon=7)
        ctx = np.array([9.0, 9.0, 9.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(base.forecast(0, 0, ctx),
                                      [1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0])

    def test_historical_mean_tracks_running_mean(self):
        base = HistoricalMeanBase(horizon=3)
        base.observe(0, np.array([1.0, 10.0]))
        base.observe(1, np.array([3.0, 20.0]))
        np.testing.assert_allclose(base.forecast(1, 0, np.zeros(4)), np.full(3, 2.0))
        np.testing.assert_allclose(base.forecast(1, 1, np.zeros(4)), np.full(3, 15.0))

    def test_precomputed_lookup_and_missing(self):
        table = {(5, "a"): np.array([1.0, 2.0])}
        base = PrecomputedBase(table, horizon=2, channel_names=["a", "b"])
        np.testing.assert_array_equal(base.forecast(5, 0, np.zeros(4)), [1.0, 2.0])
        with pytest.raises(MissingForecast, match="channel 'b'"):
            base.forecast(5, 1, np.zeros(4))
        with pytest.raises(MissingForecast, match="time step 6"):
            base.forecast(6, 0, np.zeros(4))

    def test_factory(self):
        assert isinstance(make_base_forecaster("naive_seasonal", horizon=4, seasonality=2),
                          NaiveSeasonalBase)
        assert isinstance(make_base_forecaster("historical_mean", horizon=4),
                          HistoricalMeanBase)
        with pytest.raises(InvalidConfig):
            make_base_forecaster("nope", horizon=4)
        with pytest.raises(InvalidConfig):
            make_base_forecaster("precomputed", horizon=4)


class TestRunBasics:
    def test_too_short_dataset_rejected(self):
        cfg = small_config()
        data = np.zeros((cfg.context_length + cfg.horizon, 1))
        with pytest.raises(InsufficientData):
            run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)

    def test_nan_rejected_with_location(self):
        cfg = small_config()
        data = sine_dataset(200, channels=2)
        data[57, 1] = np.nan
        with pytest.raises(CorruptSeries, match="time step 57, channel 1"):
            run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("cells", [
        [(57, 1)],            # a forecast step
        [(5, 0)],             # a row revealed before the first forecast (t < L - 1)
        [(90, 2)],            # only a later channel than the first
        [(90, 2), (90, 1)],   # two bad channels: the first is named
    ])
    def test_non_finite_rejected_with_first_location(self, value, cells):
        cfg = small_config()
        data = sine_dataset(200, channels=3)
        for t, ch in cells:
            data[t, ch] = value
        t, ch = min(cells)
        with pytest.raises(CorruptSeries, match=f"time step {t}, channel {ch}$"):
            run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)

    def test_duplicate_channel_names_rejected(self):
        cfg = small_config()
        data = sine_dataset(200, channels=2)
        with pytest.raises(InvalidConfig, match="unique"):
            run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg,
                channel_names=["a", "a"])

    def test_report_structure_and_bundle_invariant(self):
        cfg = small_config()
        data = sine_dataset(300, channels=2, noise=0.05)
        report = run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)
        assert set(report.per_channel) == {"ch0", "ch1"}
        assert report.windows_evaluated == report.floored.size == report.scores[0, 0].size
        assert report.skipped_initial_steps == cfg.context_length - 1
        for ch_bundles in report.bundles:
            for b in ch_bundles:
                expected = b.weight_used * b.base_forecast \
                    + (1 - b.weight_used) * b.adaptive_forecast
                np.testing.assert_allclose(b.combined_forecast, expected, atol=1e-12)

    def test_pure_seasonal_series_base_is_exact_and_flagged(self):
        cfg = small_config(warmup=1)
        data = sine_dataset(400, channels=1, noise=0.0)
        report = run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)
        # the seasonal base reproduces the series exactly, and every
        # window's scaled-error denominator hits the floor and is flagged
        assert report.aggregate["base"]["mase"] == pytest.approx(0.0, abs=1e-6)
        assert report.floored_windows == report.windows_evaluated
        # the adaptive stream's tiny ridge-shrinkage error explodes under
        # the floored denominator, so its losses drive the weight to the
        # base and the combined forecasts become exact in absolute terms
        traj = report.weights["ch0"]
        assert traj[-1]["w_combined"] > 0.999
        tail = report.bundles[0][-cfg.update_period:]
        for b in tail:
            np.testing.assert_allclose(b.combined_forecast, b.base_forecast, atol=1e-6)

    def test_aggregate_recomputes_from_scores(self):
        cfg = small_config()
        data = sine_dataset(500, channels=3, noise=0.1, seed=3)
        report = run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)
        for ch, name in enumerate(report.channel_names):
            assert report.per_channel[name]["base"]["mase"] == pytest.approx(
                np.mean(report.scores[0, 0, ch]), rel=1e-12)
            assert report.per_channel[name]["combined"]["rmsse"] == pytest.approx(
                np.mean(report.scores[1, 2, ch]), rel=1e-12)
        assert report.aggregate["adaptive"]["mase"] == pytest.approx(
            np.mean([report.per_channel[n]["adaptive"]["mase"]
                     for n in report.channel_names]), rel=1e-12)

    def test_channel_names_flow_from_series_object(self):
        from adapts.io import Series
        cfg = small_config()
        data = Series(values=sine_dataset(200, channels=2), channel_names=["x", "y"])
        report = run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)
        assert list(report.per_channel) == ["x", "y"]


class TestDeterminismAndCausality:
    def test_two_runs_are_bit_identical(self):
        cfg = small_config()
        data = sine_dataset(400, channels=2, noise=0.1, seed=5)
        r1 = run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)
        r2 = run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)
        assert r1.to_dict() == r2.to_dict()
        for c1, c2 in zip(r1.bundles, r2.bundles):
            for b1, b2 in zip(c1, c2):
                np.testing.assert_array_equal(b1.combined_forecast, b2.combined_forecast)

    def test_no_lookahead_instrumented(self):
        cfg = small_config()
        data = TraceArray(sine_dataset(400, channels=2, noise=0.1, seed=6))
        seen = []

        def check(t):
            seen.append((t, data.max_index))

        run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg,
            step_callback=check)
        assert seen, "callback never fired"
        for t, max_read in seen:
            assert max_read <= t

    @pytest.mark.parametrize("shared", [True, False])
    def test_each_completed_window_is_read_once(self, shared):
        # per-channel slices are only taken to score and fit completed
        # windows: one context and one target read per scored window
        class ChannelSliceCount(TraceArray):
            channel_reads = 0

            def __getitem__(self, key):
                self.channel_reads += isinstance(key, tuple)
                return super().__getitem__(key)

        cfg = small_config(shared_weights=shared)
        data = ChannelSliceCount(sine_dataset(400, channels=2, noise=0.1, seed=6))
        report = run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)
        assert report.floored.size
        assert data.channel_reads == 2 * report.floored.size

    def test_future_changes_do_not_affect_past_forecasts(self):
        cfg = small_config()
        data_a = sine_dataset(400, channels=1, noise=0.1, seed=7)
        data_b = data_a.copy()
        cut = 250
        data_b[cut:] += 5.0
        r_a = run(data_a, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)
        r_b = run(data_b, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)
        for b1, b2 in zip(r_a.bundles[0], r_b.bundles[0]):
            if b1.time_step >= cut - 1:
                break
            np.testing.assert_array_equal(b1.combined_forecast, b2.combined_forecast)


class TestWeighterModes:
    def _run_mode(self, mode, data, **overrides):
        cfg = small_config(weighter_mode=mode, **overrides)
        return run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg), cfg

    def test_unweighted_equals_manual_half_combine_of_full_run(self):
        data = sine_dataset(400, channels=2, noise=0.2, seed=8)
        full, _ = self._run_mode("full", data)
        unweighted, _ = self._run_mode("unweighted", data)
        for ch in range(2):
            for bf, bu in zip(full.bundles[ch], unweighted.bundles[ch]):
                # forecaster evolution is weight independent, so the raw
                # streams agree bit for bit
                np.testing.assert_array_equal(bf.base_forecast, bu.base_forecast)
                np.testing.assert_array_equal(bf.adaptive_forecast, bu.adaptive_forecast)
                if bu.weight_used == 1.0:  # warm-up
                    np.testing.assert_array_equal(bu.combined_forecast, bu.base_forecast)
                else:
                    assert bu.weight_used == 0.5
                    manual = 0.5 * bf.base_forecast + 0.5 * bf.adaptive_forecast
                    np.testing.assert_array_equal(bu.combined_forecast, manual)

    def test_slow_and_fast_modes_reproduce_full_mode_subweights(self):
        data = sine_dataset(450, channels=1, noise=0.2, seed=9)
        full, cfg = self._run_mode("full", data)
        slow, _ = self._run_mode("slow_only", data)
        fast, _ = self._run_mode("fast_only", data)
        name = full.channel_names[0]
        full_traj = full.weights[name]
        slow_traj = slow.weights[name]
        fast_traj = fast.weights[name]
        assert len(full_traj) == len(slow_traj) == len(fast_traj) > cfg.warmup
        compared = 0
        for f, s, g in zip(full_traj, slow_traj, fast_traj):
            if f["update_step"] < cfg.warmup:
                assert s["w_combined"] == g["w_combined"] == 1.0
                continue
            assert s["w_combined"] == f["w_slow"]
            assert g["w_combined"] == f["w_fast"]
            compared += 1
        assert compared > 0

    @pytest.mark.parametrize("mode", ["full", "slow_only", "fast_only", "unweighted"])
    def test_bundles_use_latest_update_weight(self, mode):
        # the applied weight is cached between updates; every bundle must
        # carry the w_combined of the newest update before its time step
        data = sine_dataset(600, channels=2, noise=0.2, seed=12)
        report, cfg = self._run_mode(mode, data)
        post_warmup = 0
        for ch, name in enumerate(report.channel_names):
            traj = report.weights[name]
            assert len(traj) > cfg.warmup + 3
            for b in report.bundles[ch]:
                past = [e for e in traj if e["time_step"] < b.time_step]
                want = past[-1]["w_combined"] if past else 1.0
                assert b.weight_used == want
                post_warmup += want != 1.0
        assert post_warmup > 0

    def test_mode_weights_used_in_bundles(self):
        data = sine_dataset(400, channels=1, noise=0.2, seed=10)
        slow, cfg = self._run_mode("slow_only", data)
        traj = slow.weights[slow.channel_names[0]]
        by_time = {e["time_step"]: e for e in traj}
        boundaries = sorted(by_time)
        for b in slow.bundles[0]:
            past = [bt for bt in boundaries if bt < b.time_step]
            if not past:
                assert b.weight_used == 1.0
                continue
            last = by_time[past[-1]]
            if last["update_step"] < cfg.warmup:
                assert b.weight_used == 1.0
            else:
                assert b.weight_used == last["w_slow"]


class TestAdaptation:
    def test_weight_crosses_after_regime_switch(self):
        data = regime_switch_series(steps=6000, switch_at=3000, seasonality=8, seed=0)
        cfg = RollingConfig(context_length=64, horizon=8, update_period=32,
                            seasonality=8, lam=5.0, alpha=0.9, eta=0.5,
                            fast_window=5, warmup=2).validate()
        report = run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)
        traj = report.weights[report.channel_names[0]]
        pre_switch = [e for e in traj if e["time_step"] < 3000]
        assert pre_switch[-1]["w_combined"] > 0.5

        post = [e for e in traj if e["time_step"] >= 3000]
        dominant_at = next(i for i, e in enumerate(post)
                           if e["loss_adaptive"] < e["loss_base"])
        window = post[dominant_at: dominant_at + cfg.fast_window + 3]
        assert any(e["w_combined"] < 0.5 for e in window), \
            "weight failed to cross 0.5 within fast_window + 3 update steps"

    def test_combined_beats_base_on_learnable_series(self):
        # short-run smoke check; the full-size margins are pinned in the
        # acceptance suite
        data = ar_seasonal_series(seed=1, steps=4000, channels=2, period=24)
        cfg = RollingConfig(context_length=128, horizon=24, update_period=100,
                            seasonality=24, lam=20.0, alpha=0.9).validate()
        report = run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)
        agg = report.aggregate
        assert agg["combined"]["mase"] <= agg["base"]["mase"] - 0.01


class TestPrecomputedRoundTrip:
    def test_precomputed_base_reproduces_combined_stream(self, tmp_path):
        from adapts.io import load_forecasts, write_forecasts
        cfg = small_config()
        data = sine_dataset(300, channels=2, noise=0.1, seed=11)
        first = run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)
        rows = [(b.time_step, first.channel_names[ch], b.base_forecast)
                for ch in range(2) for b in first.bundles[ch]]
        path = tmp_path / "forecasts.csv"
        write_forecasts(rows, cfg.horizon, path)
        table, horizon = load_forecasts(path)
        assert horizon == cfg.horizon
        base = PrecomputedBase(table, cfg.horizon, first.channel_names)
        second = run(data, base, cfg)
        for ch in range(2):
            for b1, b2 in zip(first.bundles[ch], second.bundles[ch]):
                np.testing.assert_array_equal(b1.combined_forecast, b2.combined_forecast)
        assert first.to_dict() == second.to_dict()


class TestSharedVersusPerChannel:
    def test_per_channel_mode_runs_and_differs(self):
        data = ar_seasonal_series(seed=2, steps=2500, channels=2, period=24)
        cfg_shared = RollingConfig(context_length=64, horizon=8, update_period=50,
                                   seasonality=24, shared_weights=True).validate()
        cfg_split = cfg_shared.with_overrides(shared_weights=False)
        r_shared = run(data, NaiveSeasonalBase(24, 8), cfg_shared)
        r_split = run(data, NaiveSeasonalBase(24, 8), cfg_split)
        assert r_shared.windows_evaluated == r_split.windows_evaluated
        # the pooled fit and the per-channel fits are different models
        assert r_shared.aggregate["adaptive"]["mase"] != pytest.approx(
            r_split.aggregate["adaptive"]["mase"], rel=1e-12)


class TestConfigValidation:
    @pytest.mark.parametrize("key", ["eta", "lam"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rate_and_ridge_rejected(self, key, value):
        with pytest.raises(InvalidConfig, match="finite"):
            small_config(**{key: value})


class TestBaseValidation:
    def test_wrong_base_forecast_length_rejected(self):
        class Broken(NaiveSeasonalBase):
            def forecast(self, t, channel, context):
                return np.zeros(3)

        cfg = small_config()
        data = sine_dataset(200, channels=1)
        with pytest.raises(ShapeMismatch):
            run(data, Broken(cfg.seasonality, cfg.horizon), cfg)


class TestOneForecasterForBothModes:
    def test_per_channel_run_equals_one_channel_runs(self):
        # per-channel mode is the one-channel run repeated per channel
        data = ar_seasonal_series(seed=4, steps=500, channels=3, period=8)
        cfg = small_config(shared_weights=False)
        joint = run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)
        for ch in range(3):
            alone = run(data[:, ch:ch + 1], NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)
            assert len(alone.bundles[0]) == len(joint.bundles[ch])
            for a, b in zip(alone.bundles[0], joint.bundles[ch]):
                for attr in ("base_forecast", "adaptive_forecast", "combined_forecast", "target"):
                    np.testing.assert_array_equal(getattr(a, attr), getattr(b, attr))
                assert a.weight_used == b.weight_used
            assert alone.per_channel["ch0"] == joint.per_channel[f"ch{ch}"]
            assert alone.weights["ch0"] == joint.weights[f"ch{ch}"]

    @pytest.mark.parametrize("shared", [True, False])
    def test_one_predict_per_step_and_one_observe_per_row(self, shared, monkeypatch):
        calls = {"predict": 0, "observe_values": 0}

        def counting(name):
            original = getattr(OnlineForecaster, name)

            def counted(self, *args, **kwargs):
                calls[name] += 1
                return original(self, *args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(OnlineForecaster, name, counting(name))
        cfg = small_config(shared_weights=shared)
        steps = []
        run(sine_dataset(300, channels=3, noise=0.1, seed=2),
            NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg, step_callback=steps.append)
        assert calls["predict"] == len(steps)
        # the last update absorbs every row up to its own step
        last_update = steps[(len(steps) // cfg.update_period) * cfg.update_period - 1]
        assert calls["observe_values"] == last_update + 1


def tracked_objects(root):
    """Garbage-collector-tracked objects reachable from ``root``, not
    counting classes, modules and functions (shared by every instance)."""
    skip = (type, types.ModuleType, types.FunctionType)
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        stack.extend(o for o in gc.get_referents(obj)
                     if gc.is_tracked(o) and not isinstance(o, skip))
    return len(seen)


class TestColumnarRunState:
    def test_report_holds_per_update_not_per_step_objects(self):
        # forecasts, weights and scores live in arrays; the only objects
        # that grow with the run are the per-update weight trajectory rows
        cfg = small_config(update_period=100)
        counts = {}
        for steps in (1000, 4000):
            report = run(sine_dataset(steps, channels=2, noise=0.1, seed=3),
                         NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)
            gc.collect()
            counts[steps] = tracked_objects(report)
            assert counts[steps] <= 2 * report.update_steps + 50
        assert counts[4000] - counts[1000] < 100

    def test_column_shapes(self):
        cfg = small_config()
        report = run(sine_dataset(300, channels=3, noise=0.1),
                     NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)
        n_steps = 300 - cfg.context_length
        n_scored = n_steps // cfg.update_period * cfg.update_period - cfg.horizon
        assert report.forecasts.shape == (n_steps, 3, 3, cfg.horizon)
        assert report.weight_used.shape == (3, n_steps)
        assert report.scores.shape == (2, 3, 3, n_scored)
        assert report.floored.shape == (3, n_scored)
        assert report.windows_evaluated == 3 * n_scored

    @pytest.mark.parametrize("shared", [True, False])
    def test_bundle_view_reads_columns_not_the_dataset(self, shared):
        class Sealed(TraceArray):
            sealed = False

            def __getitem__(self, key):
                assert not self.sealed, "bundle view read the dataset"
                return super().__getitem__(key)

        cfg = small_config(shared_weights=shared)
        values = sine_dataset(300, channels=2, noise=0.1, seed=4)
        data = Sealed(values)
        report = run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)
        data.sealed = True
        n_scored = report.floored.shape[1]
        for ch, bundles in enumerate(report.bundles):
            assert len(bundles) == report.forecasts.shape[0]
            for i, b in enumerate(bundles):
                t = cfg.context_length - 1 + i
                assert (b.time_step, b.channel) == (t, ch)
                assert b.weight_used == report.weight_used[ch, i]
                np.testing.assert_array_equal(b.base_forecast, report.forecasts[i, 0, ch])
                np.testing.assert_array_equal(b.adaptive_forecast, report.forecasts[i, 1, ch])
                want = combine(b.base_forecast, b.adaptive_forecast, b.weight_used)
                assert b.combined_forecast.tobytes() == want.tobytes()
                if i < n_scored:
                    np.testing.assert_array_equal(b.target, values[t + 1: t + 1 + cfg.horizon, ch])
                else:
                    assert b.target is None
        with pytest.raises(AttributeError):
            report.bundles = []


class ForecastOnly(BaseForecaster):
    """Serves a bundled base through ``forecast`` alone, so ``run`` takes
    the per-channel path: the oracle for the ``forecast_all`` overrides."""

    def __init__(self, inner):
        self.inner = inner

    def observe(self, t, values):
        self.inner.observe(t, values)

    def forecast(self, t, channel, context):
        return self.inner.forecast(t, channel, context)


def per_channel(base, t, contexts):
    return np.stack([np.asarray(base.forecast(t, ch, ctx), dtype=np.float64)
                     for ch, ctx in enumerate(contexts)])


class TestForecastAll:
    @pytest.mark.parametrize("seasonality, horizon", [
        (8, 16),    # divides the horizon
        (5, 16),    # does not
        (100, 8),   # longer than the context
        (12, 8),    # longer than the horizon
    ])
    def test_naive_seasonal_equals_per_channel(self, seasonality, horizon):
        base = NaiveSeasonalBase(seasonality, horizon)
        contexts = np.random.default_rng(0).normal(size=(3, 64))
        got = base.forecast_all(10, contexts)
        assert got.shape == (3, horizon)
        assert got.tobytes() == per_channel(base, 10, contexts).tobytes()

    def test_historical_mean_before_and_after_observe(self):
        rng = np.random.default_rng(1)
        base = HistoricalMeanBase(horizon=6)
        contexts = rng.normal(size=(3, 40))
        assert base.forecast_all(0, contexts).tobytes() == \
            per_channel(base, 0, contexts).tobytes()
        for t in range(7):
            base.observe(t, rng.normal(size=3))
        assert base.forecast_all(6, contexts).tobytes() == \
            per_channel(base, 6, contexts).tobytes()

    def test_precomputed_equals_per_channel(self):
        rng = np.random.default_rng(2)
        table = {(t, name): rng.normal(size=4) for t in range(3) for name in "abc"}
        base = PrecomputedBase(table, horizon=4, channel_names=["a", "b", "c"])
        contexts = np.zeros((3, 8))
        assert base.forecast_all(1, contexts).tobytes() == \
            per_channel(base, 1, contexts).tobytes()

    @pytest.mark.parametrize("error, broken", [
        (MissingForecast, {"b": None, "c": None}),
        (MissingForecast, {"c": None}),
        (ShapeMismatch, {"b": 3, "c": 5}),
        (ShapeMismatch, {"c": 3}),
        (ShapeMismatch, {"a": 3, "b": 3, "c": 3}),
    ])
    def test_precomputed_raises_like_per_channel(self, error, broken):
        table = {}
        for name in "abc":
            length = broken.get(name, 4)
            if length is not None:
                table[(7, name)] = np.ones(length)
        base = PrecomputedBase(table, horizon=4, channel_names=["a", "b", "c"])
        contexts = np.zeros((3, 8))
        first = min(broken)
        with pytest.raises(error) as per_ch:
            base.forecast(7, "abc".index(first), contexts[0])
        with pytest.raises(error) as batched:
            base.forecast_all(7, contexts)
        assert str(batched.value) == str(per_ch.value)
        assert repr(first) in str(batched.value)

    def test_forecast_only_subclass_is_what_run_calls(self):
        calls = []

        class Shifted(NaiveSeasonalBase):
            def forecast(self, t, channel, context):
                calls.append((t, channel))
                return super().forecast(t, channel, context) + 1.0

        assert Shifted.forecast_all is BaseForecaster.forecast_all
        cfg = small_config()
        data = sine_dataset(200, channels=2, noise=0.1)
        plain = run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)
        shifted = run(data, Shifted(cfg.seasonality, cfg.horizon), cfg)
        n_steps = plain.forecasts.shape[0]
        assert calls == [(t, ch) for t in range(cfg.context_length - 1,
                                                cfg.context_length - 1 + n_steps)
                         for ch in range(2)]
        np.testing.assert_array_equal(shifted.forecasts[:, 0], plain.forecasts[:, 0] + 1.0)

    def test_dispatch_rule_keeps_explicit_overrides(self):
        class Both(NaiveSeasonalBase):
            def forecast(self, t, channel, context):
                return np.zeros(self.horizon)

            def forecast_all(self, t, contexts):
                return np.ones((len(contexts), self.horizon))

        class Child(Both):
            pass

        class ObserveOnly(NaiveSeasonalBase):
            def observe(self, t, values):
                pass

        assert Child.forecast_all is Both.forecast_all
        assert ObserveOnly.forecast_all is NaiveSeasonalBase.forecast_all
        np.testing.assert_array_equal(Child(4, 3).forecast_all(0, np.zeros((2, 8))),
                                      np.ones((2, 3)))

    @pytest.mark.parametrize("shape", [(1, 3), (2, 8), (8,)])
    def test_wrong_forecast_all_shape_rejected(self, shape):
        class Broken(NaiveSeasonalBase):
            def forecast_all(self, t, contexts):
                return np.zeros(shape)

        cfg = small_config()
        with pytest.raises(ShapeMismatch, match="expected \\(1, 8\\)"):
            run(sine_dataset(200, channels=1), Broken(cfg.seasonality, cfg.horizon), cfg)

    def test_ragged_per_channel_forecasts_rejected(self):
        class Ragged(BaseForecaster):
            def forecast(self, t, channel, context):
                return np.zeros(8 + channel)

        cfg = small_config()
        with pytest.raises(ShapeMismatch, match="channel 1 has shape \\(9,\\)"):
            run(sine_dataset(200, channels=2), Ragged(), cfg)

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("kind", ["naive_seasonal", "long_season", "historical_mean",
                                      "precomputed"])
    def test_run_matches_forecast_only_oracle(self, kind, shared, tmp_path):
        cfg = small_config(shared_weights=shared)
        data = sine_dataset(300, channels=3, noise=0.1, seed=12)
        names = ["ch0", "ch1", "ch2"]

        def make():
            if kind == "naive_seasonal":
                return NaiveSeasonalBase(cfg.seasonality, cfg.horizon)
            if kind == "long_season":
                return NaiveSeasonalBase(100, cfg.horizon)
            if kind == "historical_mean":
                return HistoricalMeanBase(cfg.horizon)
            rng = np.random.default_rng(3)
            table = {(t, name): rng.normal(size=cfg.horizon)
                     for t in range(cfg.context_length - 1, 300) for name in names}
            return PrecomputedBase(table, cfg.horizon, names)

        fast = run(data, make(), cfg)
        oracle = run(data, ForecastOnly(make()), cfg)
        assert fast.forecasts[:, :2].tobytes() == oracle.forecasts[:, :2].tobytes()
        n_scored = fast.floored.shape[1]
        assert fast.forecasts[:n_scored, 2].tobytes() == oracle.forecasts[:n_scored, 2].tobytes()
        for attr in ("weight_used", "scores", "floored"):
            assert getattr(fast, attr).tobytes() == getattr(oracle, attr).tobytes()
        assert fast.to_dict() == oracle.to_dict()
