"""Tests for the rolling-window simulator and the base forecasters."""

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
from adapts.harness import (
    HistoricalMeanBase,
    NaiveSeasonalBase,
    PrecomputedBase,
    collect_completed_pairs,
    make_base_forecaster,
    run,
)


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

    def test_report_structure_and_bundle_invariant(self):
        cfg = small_config()
        data = sine_dataset(300, channels=2, noise=0.05)
        report = run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)
        assert set(report.per_channel) == {"ch0", "ch1"}
        assert report.windows_evaluated == len(report.records)
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

    def test_aggregate_recomputes_from_records(self):
        cfg = small_config()
        data = sine_dataset(500, channels=3, noise=0.1, seed=3)
        report = run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)
        for ch, name in enumerate(report.channel_names):
            recs = [r for r in report.records if r.channel == ch]
            assert report.per_channel[name]["base"]["mase"] == pytest.approx(
                np.mean([r.mase_base for r in recs]), rel=1e-12)
            assert report.per_channel[name]["combined"]["rmsse"] == pytest.approx(
                np.mean([r.rmsse_combined for r in recs]), rel=1e-12)
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
