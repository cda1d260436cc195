"""Tests for the rolling-window simulator and the base forecasters."""

import dataclasses
import gc
import json
import re
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from helpers import (
    TraceArray,
    ar_seasonal_series,
    forecast_columns,
    forecast_table,
    regime_switch_series,
)

from oracle import Lookup, NaiveSeasonal, RunningMean, scalar_base

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
    _check_rows,
    make_base_forecaster,
    run,
)
from adapts.io import ForecastTable, load_forecasts, write_forecasts
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


class TestBaseForecasters:
    def test_naive_seasonal_tiles(self):
        base = NaiveSeasonalBase(seasonality=3, horizon=7)
        ctx = np.array([9.0, 9.0, 9.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(base.forecast_all(0, ctx[None]),
                                      [[1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0]])

    def test_historical_mean_tracks_running_mean(self):
        base = HistoricalMeanBase(horizon=3)
        base.observe(0, np.array([1.0, 10.0]))
        base.observe(1, np.array([3.0, 20.0]))
        np.testing.assert_allclose(base.forecast_all(1, np.zeros((2, 4))),
                                   [np.full(3, 2.0), np.full(3, 15.0)])

    def test_precomputed_lookup_and_missing(self):
        table = ForecastTable(*forecast_columns([(5, "a", [1.0, 2.0]), (5, "c", [3.0, 4.0])], 2))
        base = PrecomputedBase(table, horizon=2, channel_names=["a", "c"])
        np.testing.assert_array_equal(base.forecast_all(5, np.zeros((2, 4))),
                                      [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(base.forecast_all(5, np.zeros((1, 4))), [[1.0, 2.0]])
        with pytest.raises(MissingForecast, match="time step 6"):
            base.forecast_all(6, np.zeros((2, 4)))
        with pytest.raises(MissingForecast, match="channel index 2: the base holds 2 "):
            base.forecast_all(5, np.zeros((3, 4)))
        # a name the table lacks, whose code -1 must not read the last column
        with pytest.raises(MissingForecast, match="channel 'b'"):
            PrecomputedBase(table, 2, ["a", "b", "c"]).forecast_all(5, np.zeros((3, 4)))

    def test_factory(self):
        assert isinstance(make_base_forecaster("naive_seasonal", horizon=4, seasonality=2),
                          NaiveSeasonalBase)
        assert isinstance(make_base_forecaster("historical_mean", horizon=4),
                          HistoricalMeanBase)
        with pytest.raises(InvalidConfig):
            make_base_forecaster("nope", horizon=4)
        with pytest.raises(InvalidConfig):
            make_base_forecaster("precomputed", horizon=4)
        with pytest.raises(InvalidConfig, match="needs a ForecastTable, got dict"):
            make_base_forecaster("precomputed", horizon=4, forecasts={}, channel_names=["a"])

    @pytest.mark.parametrize("make, message", [
        (lambda: NaiveSeasonalBase(4, horizon=0), "horizon must be >= 1, got 0"),
        (lambda: NaiveSeasonalBase(0, horizon=4), "seasonality must be >= 1, got 0"),
        (lambda: NaiveSeasonalBase(4, horizon=8.0), "horizon must be an integer, got 8.0"),
        (lambda: HistoricalMeanBase(-3), "horizon must be >= 1, got -3"),
        (lambda: HistoricalMeanBase(True), "horizon must be an integer, got True"),
        (lambda: make_base_forecaster("naive_seasonal", horizon=8, seasonality=2.5),
         "seasonality must be an integer, got 2.5"),
        (lambda: PrecomputedBase(ForecastTable(*forecast_columns([(0, "a", [1.0])], 1)),
                                 horizon=1.0, channel_names=["a"]),
         "horizon must be an integer, got 1.0"),
    ])
    def test_bad_arguments_rejected(self, make, message):
        with pytest.raises(InvalidConfig, match=re.escape(message)):
            make()

    def test_numpy_integer_arguments_accepted(self):
        base = NaiveSeasonalBase(np.int64(2), np.int32(3))
        np.testing.assert_array_equal(base.forecast_all(0, [[5.0, 1.0, 2.0]]), [[1.0, 2.0, 1.0]])
        assert HistoricalMeanBase(np.int64(3)).horizon == 3


class TestRunBasics:
    def test_too_short_dataset_rejected(self):
        cfg = small_config()
        data = np.zeros((cfg.context_length + cfg.horizon, 1))
        with pytest.raises(InsufficientData):
            run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)

    def test_series_without_channels_rejected(self):
        # it used to step through a whole update period and then fail in
        # the fit with a message about fit shapes
        cfg = small_config()
        with pytest.raises(ShapeMismatch, match="no channels"):
            run(np.zeros((200, 0)), NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg,
                step_callback=lambda t: pytest.fail(f"stepped to {t}"))

    def test_list_of_rows_rejected(self):
        # it used to raise AttributeError: a list has no shape
        cfg = small_config()
        with pytest.raises(ShapeMismatch, match="got a list"):
            run(sine_dataset(200).tolist(), NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)

    @pytest.mark.parametrize("shape", [(100,), (100, 2, 1)])
    def test_series_not_two_dimensional_rejected(self, shape):
        cfg = small_config()
        with pytest.raises(ShapeMismatch, match=re.escape(f"(T, C), got shape {shape}")):
            run(np.zeros(shape), NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg,
                step_callback=lambda t: pytest.fail(f"stepped to {t}"))

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
        [(7, 0), (5, 2)],     # two bad head rows: the earlier is named, not the lower channel
    ])
    def test_non_finite_rejected_with_first_location(self, value, cells):
        cfg = small_config()
        data = sine_dataset(200, channels=3)
        for t, ch in cells:
            data[t, ch] = value
        t, ch = min(cells)
        with pytest.raises(CorruptSeries, match=f"time step {t}, channel {ch}$"):
            run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)

    def test_non_finite_head_reaches_no_base(self):
        # the head is checked as one block before the base sees any row of it
        cfg = small_config()
        data = sine_dataset(200, channels=3)
        data[5, 1] = np.nan
        base = HistoricalMeanBase(cfg.horizon)
        with pytest.raises(CorruptSeries, match="time step 5, channel 1$"):
            run(data, base, cfg, step_callback=lambda t: pytest.fail(f"stepped to {t}"))
        assert base._count == 0

    def test_row_check_counts_without_summing(self):
        # a finite row whose sum overflows passes, and raises no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _check_rows(np.array([1.7e308, 1.7e308]), 3)
            _check_rows(np.full((2, 2), 1.7e308), 3)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape, cells, named", [
        ((4,), [(2,), (3,)], "time step 9, channel 2"),
        ((3, 4), [(1, 3), (2, 0)], "time step 10, channel 3"),
    ])
    def test_row_check_names_the_first_bad_value(self, value, shape, cells, named):
        values = np.ones(shape)
        for cell in cells:
            values[cell] = value
        with pytest.raises(CorruptSeries, match=f"{named}$"):
            _check_rows(values, 9)

    def test_duplicate_channel_names_rejected(self):
        cfg = small_config()
        data = sine_dataset(200, channels=2)
        with pytest.raises(InvalidConfig, match="unique"):
            run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg,
                channel_names=["a", "a"])

    @pytest.mark.parametrize("names", [["a"], ["a", "b", "c"]])
    def test_channel_name_count_must_match(self, names):
        cfg = small_config()
        data = sine_dataset(200, channels=2)
        with pytest.raises(InvalidConfig, match=f"{len(names)} channel names for 2 channels"):
            run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg,
                channel_names=names)

    def test_report_structure_and_bundle_invariant(self):
        cfg = small_config()
        data = sine_dataset(300, channels=2, noise=0.05)
        report = run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg,
                     keep_forecasts=True)
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
        report = run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg,
                     keep_forecasts=True)
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
        r1 = run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg, keep_forecasts=True)
        r2 = run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg, keep_forecasts=True)
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

    @pytest.mark.parametrize("shared, update_period", [
        pytest.param(shared, M, id=str(shared) if M == 16 else f"{shared}-M{M}")
        for M in (16, 4, 1) for shared in (True, False)])
    def test_each_completed_window_is_read_once(self, shared, update_period):
        # a step reads its (L, C) window; an update that follows it reads
        # one more slab, and the windows cut from that slab (origins lo +
        # L - 1 through hi - H) must tile the scored origins exactly once.
        # With M < H the first updates complete no window and read only the
        # M newest rows
        class SlabLog(TraceArray):
            def __init__(self, values):
                super().__init__(values)
                self.reads = []

            def __getitem__(self, key):
                self.reads.append(key)
                return super().__getitem__(key)

        cfg = small_config(shared_weights=shared, update_period=update_period)
        L, H = cfg.context_length, cfg.horizon
        data = SlabLog(sine_dataset(400, channels=2, noise=0.1, seed=6))
        cut = []

        def after_step(t):
            window = data.reads.index(slice(t - L + 1, t + 1))
            for slab in data.reads[window + 1:]:
                cut.extend(range(slab.start + L - 1, slab.stop - H))
            data.reads.clear()

        report = run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg,
                     step_callback=after_step)
        t0 = L - 1
        assert report.floored.size
        assert cut == list(range(t0, t0 + report.floored.shape[1]))

    @pytest.mark.parametrize("update_period", [16, 4, 1])
    @pytest.mark.parametrize("shared", [True, False])
    def test_one_read_before_the_loop_per_step_and_per_update(self, shared, update_period):
        # the rows before the first step, each step's (L, C) window and
        # each update's slab of rows are one read apiece; no read is
        # per channel
        class ReadCount(TraceArray):
            reads = channel_reads = 0

            def __getitem__(self, key):
                self.reads += 1
                self.channel_reads += isinstance(key, tuple)
                return super().__getitem__(key)

        cfg = small_config(shared_weights=shared, update_period=update_period)
        data = ReadCount(sine_dataset(400, channels=2, noise=0.1, seed=6))
        report = run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg,
                     keep_forecasts=True)
        n_steps = report.forecasts.shape[0]
        assert report.floored.size
        assert data.reads == 1 + n_steps + n_steps // update_period
        assert data.channel_reads == 0

    @pytest.mark.parametrize("update_period", [16, 100])
    def test_unscored_targets_are_nan_and_runs_repeat_byte_for_byte(self, update_period):
        cfg = small_config(update_period=update_period)
        data = sine_dataset(350, channels=2, noise=0.1, seed=5)
        r1, r2 = (run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg,
                      keep_forecasts=True)
                  for _ in range(2))
        assert r1.forecasts.tobytes() == r2.forecasts.tobytes()
        assert r1.landed.tobytes() == r2.landed.tobytes()
        n_scored = r1.floored.shape[1]
        # unscored steps have no target row at all, not a NaN one
        assert r1.targets.shape[0] == n_scored
        assert np.isfinite(r1.targets).all()
        assert np.isfinite(r1.forecasts).all()

    def test_future_changes_do_not_affect_past_forecasts(self):
        cfg = small_config()
        data_a = sine_dataset(400, channels=1, noise=0.1, seed=7)
        data_b = data_a.copy()
        cut = 250
        data_b[cut:] += 5.0
        r_a = run(data_a, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg, keep_forecasts=True)
        r_b = run(data_b, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg, keep_forecasts=True)
        for b1, b2 in zip(r_a.bundles[0], r_b.bundles[0]):
            if b1.time_step >= cut - 1:
                break
            np.testing.assert_array_equal(b1.combined_forecast, b2.combined_forecast)


class TestWeighterModes:
    def _run_mode(self, mode, data, **overrides):
        cfg = small_config(weighter_mode=mode, **overrides)
        return run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg,
                   keep_forecasts=True), cfg

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
        first = run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg, keep_forecasts=True)
        rows = [(b.time_step, first.channel_names[ch], b.base_forecast)
                for ch in range(2) for b in first.bundles[ch]]
        path = tmp_path / "forecasts.csv"
        write_forecasts(*forecast_columns(rows, cfg.horizon), path)
        table, horizon = load_forecasts(path)
        assert horizon == cfg.horizon
        base = PrecomputedBase(table, cfg.horizon, first.channel_names)
        second = run(data, base, cfg, keep_forecasts=True)
        for ch in range(2):
            for b1, b2 in zip(first.bundles[ch], second.bundles[ch]):
                np.testing.assert_array_equal(b1.combined_forecast, b2.combined_forecast)
        assert first.to_dict() == second.to_dict()


    def test_precomputed_base_reproduces_combined_stream_through_npz(self, tmp_path):
        cfg = small_config()
        data = sine_dataset(300, channels=2, noise=0.1, seed=11)
        first = run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg, keep_forecasts=True)
        base_stream = first.forecasts[:, 0]
        steps = first.skipped_initial_steps + np.arange(base_stream.shape[0])
        path = tmp_path / "forecasts.npz"
        write_forecasts(np.tile(steps, 2), np.repeat(first.channel_names, len(steps)),
                        base_stream.transpose(1, 0, 2).reshape(-1, cfg.horizon), path)
        table, horizon = load_forecasts(path)
        assert horizon == cfg.horizon
        second = run(data, PrecomputedBase(table, cfg.horizon, first.channel_names), cfg,
                     keep_forecasts=True)
        assert first.forecasts.tobytes() == second.forecasts.tobytes()
        assert first.to_dict() == second.to_dict()


class TestSharedVersusPerChannel:
    def test_per_channel_mode_runs_and_differs(self):
        data = ar_seasonal_series(seed=2, steps=2500, channels=2, period=24)
        cfg_shared = RollingConfig(context_length=64, horizon=8, update_period=50,
                                   seasonality=24, shared_weights=True).validate()
        cfg_split = dataclasses.replace(cfg_shared, shared_weights=False).validate()
        r_shared = run(data, NaiveSeasonalBase(24, 8), cfg_shared)
        r_split = run(data, NaiveSeasonalBase(24, 8), cfg_split)
        assert r_shared.windows_evaluated == r_split.windows_evaluated
        # the pooled fit and the per-channel fits are different models
        assert r_shared.aggregate["adaptive"]["mase"] != pytest.approx(
            r_split.aggregate["adaptive"]["mase"], rel=1e-12)


class TestHorizonOne:
    @pytest.mark.parametrize("shared, update_period, path", [
        (True, 5, "direct"),         # 15 pooled rows, d = 23
        (True, 40, "moments"),
        (False, 5, "woodbury"),      # 5 rows per channel
        (False, 40, "moments"),
    ])
    def test_run_completes_with_finite_scores(self, shared, update_period, path,
                                              monkeypatch):
        paths = set()
        fit_slab = OnlineForecaster.fit_slab

        def recording(f, series):
            fit_slab(f, series)
            paths.update(core.last_path for core in f.cores)

        monkeypatch.setattr(OnlineForecaster, "fit_slab", recording)
        cfg = small_config(context_length=24, horizon=1, update_period=update_period,
                           shared_weights=shared)
        report = run(ar_seasonal_series(seed=5, steps=400, channels=3, period=8),
                     NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg, keep_forecasts=True)
        assert paths == {path}
        n_scored = 376 // update_period * update_period - 1
        assert report.forecasts.shape == (376, 2, 3, 1)
        assert report.targets.shape == (n_scored, 3, 1)
        assert report.windows_evaluated == 3 * n_scored
        assert np.isfinite(report.scores).all() and np.isfinite(report.forecasts).all()
        for stream in report.aggregate.values():
            assert all(np.isfinite(v) for v in stream.values())
        # the adaptive stream learns the AR series that the seasonal naive
        # base only tiles
        assert report.aggregate["adaptive"]["mase"] < report.aggregate["base"]["mase"]


class TestConfigValidation:
    @pytest.mark.parametrize("key", ["eta", "lam"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rate_and_ridge_rejected(self, key, value):
        with pytest.raises(InvalidConfig, match="finite"):
            small_config(**{key: value})

    @pytest.mark.parametrize("key, value, message", [
        ("context_length", 1, "context_length must be >= 2"),
        ("horizon", 0, "horizon must be >= 1"),
        ("update_period", 0, "update_period must be >= 1"),
        ("alpha", 0.0, r"alpha must be in \(0, 1\]"),
        ("alpha", 1.5, r"alpha must be in \(0, 1\]"),
        ("fast_window", 0, "fast_window must be >= 1"),
        ("warmup", -1, "warmup must be >= 0"),
    ])
    def test_out_of_range_setting_rejected(self, key, value, message):
        with pytest.raises(InvalidConfig, match=message):
            small_config(**{key: value})

    @pytest.mark.parametrize("key, value", [
        ("update_period", 10.5), ("context_length", 32.0), ("fast_window", 2.5),
        ("warmup", 1.5), ("seasonality", 4.0), ("horizon", True), ("horizon", "8"),
    ])
    def test_count_that_is_not_an_integer_rejected(self, key, value):
        # a float count used to pass and fail later with a raw TypeError,
        # run silently (warmup) or fail only at the first update (seasonality)
        with pytest.raises(InvalidConfig, match=re.escape(f"{key} must be an integer, got {value!r}")):
            small_config(**{key: value})

    @pytest.mark.parametrize("key, value", [
        ("instance_norm", "no"), ("channel_scaling", 1), ("shared_weights", None),
    ])
    def test_flag_that_is_not_a_boolean_rejected(self, key, value):
        # instance_norm="no" used to run with instance normalisation on
        with pytest.raises(InvalidConfig, match=re.escape(f"{key} must be a boolean, got {value!r}")):
            small_config(**{key: value})

    def test_numpy_scalars_accepted(self):
        numpy_cfg = small_config(context_length=np.int64(32), horizon=np.int32(8),
                                 update_period=np.int64(16), seasonality=np.int64(8),
                                 fast_window=np.int64(5), warmup=np.int64(2),
                                 instance_norm=np.bool_(True), shared_weights=np.False_)
        cfg = small_config(shared_weights=False)
        assert numpy_cfg == cfg and type(numpy_cfg.horizon) is int
        data = sine_dataset(300, noise=0.1)
        got, want = (run(data, NaiveSeasonalBase(8, 8), c) for c in (numpy_cfg, cfg))
        assert got.scores.tobytes() == want.scores.tobytes()
        # a numpy count used to crash the weighter (fast_window) or the JSON report
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


class TestBaseValidation:
    def test_wrong_base_forecast_length_rejected(self):
        cfg = small_config()
        data = sine_dataset(200, channels=1)
        with pytest.raises(ShapeMismatch, match="shape \\(1, 3\\), expected \\(1, 8\\)"):
            run(data, NaiveSeasonalBase(cfg.seasonality, 3), cfg)


class TestOneForecasterForBothModes:
    def test_per_channel_run_equals_one_channel_runs(self):
        # per-channel mode is the one-channel run repeated per channel; at
        # M=16 each model refits from embedded windows, at M=48 (at least
        # L+H = 40 windows) from its own channel's lagged moments
        data = ar_seasonal_series(seed=4, steps=500, channels=3, period=8)
        for cfg in (small_config(shared_weights=False),
                    small_config(shared_weights=False, update_period=48)):
            joint = run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg,
                        keep_forecasts=True)
            for ch in range(3):
                alone = run(data[:, ch:ch + 1], NaiveSeasonalBase(cfg.seasonality, cfg.horizon),
                            cfg, keep_forecasts=True)
                assert len(alone.bundles[0]) == len(joint.bundles[ch])
                for a, b in zip(alone.bundles[0], joint.bundles[ch]):
                    for attr in ("base_forecast", "adaptive_forecast", "combined_forecast",
                                 "target"):
                        np.testing.assert_array_equal(getattr(a, attr), getattr(b, attr))
                    assert a.weight_used == b.weight_used
                assert alone.per_channel["ch0"] == joint.per_channel[f"ch{ch}"]
                assert alone.weights["ch0"] == joint.weights[f"ch{ch}"]

    @pytest.mark.parametrize("shared", [True, False])
    def test_one_predict_per_step_and_one_observe_per_read(self, shared, monkeypatch):
        predicts, observed = [], []
        predict, observe_values = OnlineForecaster.predict, OnlineForecaster.observe_values

        def counted_predict(self, contexts, out=None):
            predicts.append(None)
            return predict(self, contexts, out=out)

        def recorded_observe(self, values):
            observed.append(np.array(values))
            return observe_values(self, values)

        monkeypatch.setattr(OnlineForecaster, "predict", counted_predict)
        monkeypatch.setattr(OnlineForecaster, "observe_values", recorded_observe)
        cfg = small_config(shared_weights=shared)
        data = sine_dataset(300, channels=3, noise=0.1, seed=2)
        steps = []
        run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg, step_callback=steps.append)
        assert len(predicts) == len(steps)
        # every row up to the last update's own step is observed once, in
        # order: the head in one call before the loop, then one call per update
        last_update = steps[(len(steps) // cfg.update_period) * cfg.update_period - 1]
        np.testing.assert_array_equal(np.concatenate(observed), data[:last_update + 1])
        assert len(observed) == 1 + len(steps) // cfg.update_period


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
                     NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg, keep_forecasts=True)
        n_steps = 300 - cfg.context_length
        n_scored = n_steps // cfg.update_period * cfg.update_period - cfg.horizon
        assert report.forecasts.shape == (n_steps, 2, 3, cfg.horizon)
        assert report.landed.shape == (n_scored + cfg.horizon - 1, 3)
        assert report.targets.shape == (n_scored, 3, cfg.horizon)
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
        report = run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg,
                     keep_forecasts=True)
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

    @pytest.mark.parametrize("shared", [True, False])
    def test_targets_are_the_landed_rows_without_copies(self, shared):
        cfg = small_config(shared_weights=shared)
        values = sine_dataset(300, channels=3, noise=0.1, seed=9)
        report = run(values, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)
        t0, H, n_scored = report.skipped_initial_steps, cfg.horizon, report.floored.shape[1]
        assert n_scored and report.targets.shape == (n_scored, 3, H)
        for i in range(n_scored):
            for ch in range(3):
                want = values[t0 + 1 + i: t0 + 1 + i + H, ch]
                assert report.targets[i, ch].tobytes() == want.tobytes()
        assert np.shares_memory(report.targets, report.landed)
        assert not report.targets.flags.writeable

    def test_run_without_a_scored_window_has_no_targets(self):
        cfg = small_config(update_period=400)
        report = run(sine_dataset(300, channels=2, noise=0.1, seed=2),
                     NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg, keep_forecasts=True)
        assert report.forecasts.shape[0] < cfg.update_period
        assert report.landed.shape == (0, 2)
        assert report.targets.shape == (0, 2, cfg.horizon)
        assert all(b.target is None for bundles in report.bundles for b in bundles)

    def test_peak_memory_holds_two_forecast_slots(self):
        # numpy reports its buffers to tracemalloc, so the traced peak holds
        # the columns (two forecast slots, the landed rows, the weights and
        # scores) plus the working set: the update's slab copy, the
        # forecaster and the trajectories, under 2 MiB. Here the peak is
        # 17.1 MiB against a bound of 18.3; a third (n_steps, C, H) slot of
        # target copies, 7.5 MiB, peaked at 24.5
        cfg = small_config(context_length=64, horizon=48, update_period=50)
        data = sine_dataset(3000, channels=7, noise=0.3, seed=1)
        base = NaiveSeasonalBase(cfg.seasonality, cfg.horizon)
        tracemalloc.start()
        try:
            report = run(data, base, cfg, keep_forecasts=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (n_steps, _, C, H), n_scored = report.forecasts.shape, report.floored.shape[1]
        columns = 8 * (2 * n_steps * C * H + (n_scored + H - 1) * C)
        others = report.weight_used.nbytes + report.scores.nbytes + report.floored.nbytes
        bound = columns + others + 2 * 2**20
        assert peak < bound, f"traced peak {peak / 2**20:.1f} MiB > {bound / 2**20:.1f} MiB"


class TestForecastAll:
    """Each bundled base's ``forecast_all`` against its scalar twin in
    :mod:`oracle`, which serves one channel at a time."""

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
        assert got.tobytes() == NaiveSeasonal(seasonality, horizon).forecast_all(
            10, contexts).tobytes()

    def test_historical_mean_before_and_after_observe(self):
        rng = np.random.default_rng(1)
        base, scalar = HistoricalMeanBase(horizon=6), RunningMean(horizon=6)
        contexts = rng.normal(size=(3, 40))
        assert base.forecast_all(0, contexts).tobytes() == \
            scalar.forecast_all(0, contexts).tobytes()
        for t in range(7):
            values = rng.normal(size=3)
            base.observe(t, values)
            scalar.observe(t, values)
        assert base.forecast_all(6, contexts).tobytes() == \
            scalar.forecast_all(6, contexts).tobytes()

    def test_precomputed_equals_per_channel(self):
        rng = np.random.default_rng(2)
        rows = {(t, name): rng.normal(size=4) for t in range(3) for name in "abc"}
        table = ForecastTable(*forecast_columns([(*key, row) for key, row in rows.items()], 4))
        base = PrecomputedBase(table, horizon=4, channel_names=["a", "b", "c"])
        contexts = np.zeros((3, 8))
        assert base.forecast_all(1, contexts).tobytes() == \
            Lookup(rows, "abc").forecast_all(1, contexts).tobytes()

    @pytest.mark.parametrize("missing", ["b", "c"])
    def test_precomputed_names_the_first_channel_without_a_forecast(self, missing):
        rows = [(7, name, np.ones(4)) for name in "abc" if name < missing]
        table = ForecastTable(*forecast_columns(rows, 4))
        base = PrecomputedBase(table, horizon=4, channel_names=["a", "b", "c"])
        with pytest.raises(MissingForecast, match=f"time step 7, channel {missing!r}$"):
            base.forecast_all(7, np.zeros((3, 8)))

    @pytest.mark.parametrize("source", ["csv", "npz", "array"])
    def test_precomputed_rows_are_read_only(self, tmp_path, source):
        rows = [(t, name, np.arange(3.0) + t) for t in range(2) for name in "ab"]
        table = forecast_table(rows, 3, source, tmp_path)
        base = PrecomputedBase(table, horizon=3, channel_names=["a", "b"])
        with pytest.raises(ValueError, match="read-only"):
            base.table.block[0] = 7.0
        served = base.forecast_all(0, np.zeros((2, 8)))
        served[:] = 7.0  # forecast_all hands out a copy
        np.testing.assert_array_equal(base.forecast_all(0, np.zeros((2, 8))), [[0, 1, 2]] * 2)
        np.testing.assert_array_equal(rows[0][2], [0, 1, 2])

    @pytest.mark.parametrize("channel_major", [False, True])
    def test_precomputed_file_equals_per_channel(self, tmp_path, channel_major):
        # step-major as perfbench writes files, channel-major as --dump-forecasts does
        rng = np.random.default_rng(6)
        steps, names = range(10, 30), ["a", "b", "c", "d"]
        keys = ([(t, name) for name in names for t in steps] if channel_major
                else [(t, name) for t in steps for name in names])
        rows = {key: rng.normal(size=5) for key in keys}
        path = tmp_path / "f.csv"
        write_forecasts(*forecast_columns([(*key, row) for key, row in rows.items()], 5), path)
        table, _ = load_forecasts(path)
        contexts = np.zeros((3, 8))
        for order in (names, names[::-1]):  # the run's channels in another order too
            base, scalar = PrecomputedBase(table, horizon=5, channel_names=order), \
                Lookup(rows, order)
            for t in steps:
                got = base.forecast_all(t, contexts)
                assert got.shape == (3, 5) and got.dtype == np.float64
                assert got.tobytes() == scalar.forecast_all(t, contexts).tobytes()

    @pytest.mark.parametrize("source", ["csv", "npz", "array"])
    @pytest.mark.parametrize("names, t, match", [
        (["a", "x", "b"], 3, "channel 'x'"),   # a name the file lacks
        (["a", "b", "c"], 4, "channel 'c'"),   # a step that lacks one channel
        (["a", "b", "c"], 9, "time step 9"),   # a step the file lacks
    ])
    def test_precomputed_file_names_what_is_missing(self, tmp_path, names, t, match, source):
        rows = [(t, name, np.ones(2)) for t in (3, 4) for name in "abc"]
        table = forecast_table([row for row in rows if row[:2] != (4, "c")], 2, source, tmp_path)
        base = PrecomputedBase(table, horizon=2, channel_names=names)
        with pytest.raises(MissingForecast, match=match):
            base.forecast_all(t, np.zeros((3, 8)))

    def test_precomputed_file_of_another_horizon_raises_invalid_config(self, tmp_path):
        path = tmp_path / "f.csv"
        write_forecasts([0], ["a"], np.ones((1, 3)), path)
        with pytest.raises(InvalidConfig, match="horizon 3 differs from configured 2"):
            PrecomputedBase(load_forecasts(path)[0], horizon=2, channel_names=["a"])

    def test_precomputed_with_too_few_names_raises_missing_forecast(self):
        table = ForecastTable(*forecast_columns([(t, "a", np.ones(2)) for t in range(40)], 2))
        base = PrecomputedBase(table, horizon=2, channel_names=["a"])
        with pytest.raises(MissingForecast, match="channel index 1.*1 channel names"):
            base.forecast_all(7, np.zeros((2, 8)))
        cfg = small_config(context_length=8, horizon=2, seasonality=2, update_period=4)
        with pytest.raises(MissingForecast, match="channel index 1"):
            run(sine_dataset(40, channels=2), base, cfg)

    def test_forecast_only_base_fails_at_the_first_step(self):
        # forecast_all is the whole contract: a per-channel forecast alone
        # is never called
        class ForecastOnly(BaseForecaster):
            def forecast(self, t, channel, context):
                return np.zeros(8)

        cfg = small_config()
        message = "ForecastOnly must define forecast_all(t, contexts)"
        with pytest.raises(NotImplementedError, match=re.escape(message)):
            run(sine_dataset(200, channels=2), ForecastOnly(), cfg,
                step_callback=lambda t: pytest.fail(f"stepped to {t}"))

    @pytest.mark.parametrize("shape", [(1, 3), (2, 8), (8,)])
    def test_wrong_forecast_all_shape_rejected(self, shape):
        class Broken(NaiveSeasonalBase):
            def forecast_all(self, t, contexts):
                return np.zeros(shape)

        cfg = small_config()
        with pytest.raises(ShapeMismatch, match="expected \\(1, 8\\)"):
            run(sine_dataset(200, channels=1), Broken(cfg.seasonality, cfg.horizon), cfg)

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("kind, seasonality", [
        ("naive_seasonal", 8),
        ("naive_seasonal", 100),  # a season longer than the context
        ("historical_mean", None),
        ("precomputed", None),
    ])
    def test_run_matches_scalar_base(self, kind, seasonality, shared):
        cfg = small_config(shared_weights=shared)
        data = sine_dataset(300, channels=3, noise=0.1, seed=12)
        names = ["ch0", "ch1", "ch2"]
        rng = np.random.default_rng(3)
        rows = {(t, name): rng.normal(size=cfg.horizon)
                for t in range(cfg.context_length - 1, 300) for name in names}
        table = ForecastTable(*forecast_columns([(*key, row) for key, row in rows.items()],
                                                cfg.horizon))
        base = make_base_forecaster(kind, horizon=cfg.horizon, seasonality=seasonality,
                                    forecasts=table, channel_names=names)
        fast = run(data, base, cfg, keep_forecasts=True)
        oracle = run(data, scalar_base(kind, cfg.horizon, seasonality, rows, names), cfg,
                     keep_forecasts=True)
        assert fast.forecasts.tobytes() == oracle.forecasts.tobytes()
        assert fast.targets.tobytes() == oracle.targets.tobytes()
        for attr in ("weight_used", "scores", "floored"):
            assert getattr(fast, attr).tobytes() == getattr(oracle, attr).tobytes()
        assert fast.to_dict() == oracle.to_dict()
