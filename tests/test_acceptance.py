"""Acceptance suite.

Each test enforces one numbered criterion at its stated tolerance and
prints a single pass/fail line (visible with ``pytest -s``). Oracles are
independent of the code paths they check: batch inverses, scalar softmax
closed forms, time-domain ridge regression, hand arithmetic and
instrumented replay.
"""

import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from helpers import TraceArray, ar_seasonal_series, forecast_columns, regime_switch_series

from adapts.config import RollingConfig
from adapts.forecaster import OnlineForecaster, SamplePair, SpectralRidge
from adapts.harness import NaiveSeasonalBase, PrecomputedBase, run
from adapts.io import (
    Series,
    load_forecasts,
    load_series,
    read_report_json,
    write_forecasts,
    write_report,
    write_series,
)
from adapts.metrics import mase, rmsse
from adapts.weighter import ChannelWeighter, combine, exp_weight_step


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} ({title}): FAIL")
        raise
    print(f"criterion {number:02d} ({title}): PASS")


def _random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_criterion_01_woodbury_matches_batch_inverse():
    with criterion(1, "incremental inverse equals batch inverse"):
        rng = np.random.default_rng(101)
        schedules = [4] * 90 + [32] * 80 + [235] * 30
        assert len(schedules) == 200
        for dim in schedules:
            lam = float(rng.uniform(0.5, 40.0))
            n_updates = int(rng.integers(1, 101 if dim <= 32 else 13))
            model = SpectralRidge(dim, 2, lam)
            rows_seen = []
            for _ in range(n_updates):
                m = int(rng.integers(1, 51))
                rows = _random_complex(rng, (m, dim))
                outs = _random_complex(rng, (m, 2))
                model.absorb(rows, outs)
                rows_seen.append(rows)
            stacked = np.vstack(rows_seen)
            oracle = np.linalg.inv(stacked.conj().T @ stacked + lam * np.eye(dim))
            gap = np.linalg.norm(model.a_inv - oracle) / np.linalg.norm(oracle)
            assert gap < 1e-8, f"dim={dim} updates={n_updates} gap={gap:.2e}"


def test_criterion_02_ridge_optimality():
    with criterion(2, "cached weights minimize the ridge objective"):
        rng = np.random.default_rng(202)
        for _ in range(50):
            dim = int(rng.integers(3, 10))
            out = int(rng.integers(1, 5))
            lam = float(rng.uniform(0.5, 10.0))
            n = int(rng.integers(dim + 2, 60))
            x = _random_complex(rng, (n, dim))
            y = _random_complex(rng, (n, out))
            model = SpectralRidge(dim, out, lam)
            split = n // 2
            model.absorb(x[:split], y[:split])
            model.absorb(x[split:], y[split:])
            base_obj = (np.linalg.norm(x @ model.weight - y) ** 2
                        + lam * np.linalg.norm(model.weight) ** 2)
            for _ in range(100):
                delta = _random_complex(rng, (dim, out))
                delta *= 1e-3 / np.linalg.norm(delta)
                perturbed = (np.linalg.norm(x @ (model.weight + delta) - y) ** 2
                             + lam * np.linalg.norm(model.weight + delta) ** 2)
                assert perturbed > base_obj


def test_criterion_03_ols_equivalence():
    with criterion(3, "unfiltered fit equals time-domain ridge"):
        rng = np.random.default_rng(303)
        L, H = 32, 8
        for _ in range(20):
            n = int(rng.integers(80, 200))
            x = rng.normal(size=(n, L))
            y = rng.normal(size=(n, H)) + 0.4 * x[:, -H:]
            f = OnlineForecaster(L, H, 1, lam=1e-9, alpha=1.0,
                                 instance_norm=False, channel_scaling=False)
            f.fit_block([SamplePair(x[i], y[i], 0) for i in range(n)])
            w_time = np.linalg.solve(x.T @ x + 1e-9 * np.eye(L), x.T @ y)
            probes = rng.normal(size=(8, L))
            want = probes @ w_time
            got = np.stack([f.predict(p) for p in probes])
            gap = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert gap < 1e-6, f"relative gap {gap:.2e}"


def test_criterion_04_weighter_recursion_equals_closed_form():
    with criterion(4, "slow weight equals softmax of cumulative losses"):
        rng = np.random.default_rng(404)
        for _ in range(100):
            eta = float(rng.uniform(0.05, 1.5))
            w = ChannelWeighter(eta=eta, warmup_steps=0)
            losses = rng.uniform(0.0, 2.0, size=(500, 2))
            for l1, l2 in losses:
                w.update(l1, l2, 0.5, 0.5)
            s1 = math.fsum(losses[:, 0])
            s2 = math.fsum(losses[:, 1])
            shift = min(s1, s2)
            e1 = math.exp(-eta * (s1 - shift))
            e2 = math.exp(-eta * (s2 - shift))
            assert abs(w.w_slow - e1 / (e1 + e2)) < 1e-12


def test_criterion_05_regret_bound():
    with criterion(5, "exponential weighting satisfies the regret bound"):
        k = 2
        for horizon in (10, 100, 1000):
            rng = np.random.default_rng(500 + horizon)
            l_max = 2.0
            eta = (1.0 / l_max) * math.sqrt(8.0 * math.log(k) / horizon)
            bound = l_max * math.sqrt(horizon / 2.0 * math.log(k))
            for _ in range(100):
                losses = rng.uniform(0.0, l_max, size=(horizon, k))
                weights = np.full(k, 1.0 / k)
                incurred = 0.0
                for row in losses:
                    incurred += float(weights @ row)
                    weights = exp_weight_step(weights, row, eta)
                regret = incurred - losses.sum(axis=0).min()
                assert regret <= bound + 1e-9


def test_criterion_06_metric_hand_checks():
    with criterion(6, "MASE/RMSSE hand checks and invariances"):
        assert mase(np.array([1.0, 1.0]), np.array([0.0, 1.0]),
                    np.array([0.0, 1.0, 0.0, 1.0]), 1) == pytest.approx(0.5, abs=1e-12)
        assert rmsse(np.array([1.0]), np.array([0.0]),
                     np.array([0.0, 2.0, 0.0, 2.0]), 1) == pytest.approx(0.5, abs=1e-12)
        ctx2 = np.array([1.0, 4.0])
        f2, y2 = np.array([2.0]), np.array([3.5])
        assert rmsse(f2, y2, ctx2, 1) == pytest.approx(mase(f2, y2, ctx2, 1), abs=1e-12)
        rng = np.random.default_rng(606)
        for _ in range(50):
            ctx = rng.normal(size=24)
            target = rng.normal(size=6)
            forecast = rng.normal(size=6)
            s = int(rng.integers(1, 8))
            c = float(rng.uniform(0.1, 100.0))
            shift = float(rng.normal(scale=50.0))
            for metric in (mase, rmsse):
                base_val = metric(forecast, target, ctx, s)
                assert metric(c * forecast, c * target, c * ctx, s) == \
                    pytest.approx(base_val, rel=1e-12)
                assert metric(forecast + shift, target + shift, ctx + shift, s) == \
                    pytest.approx(base_val, rel=1e-12)
            assert mase(target, target, ctx, s) == 0.0
            assert rmsse(target, target, ctx, s) == 0.0


def test_criterion_07_shift_adaptivity():
    with criterion(7, "weight crosses 0.5 after a regime switch"):
        data = regime_switch_series(steps=6000, switch_at=3000, seasonality=8, seed=0)
        cfg = RollingConfig(context_length=64, horizon=8, update_period=32,
                            seasonality=8, lam=5.0, alpha=0.9, eta=0.5,
                            fast_window=5, warmup=2).validate()
        report = run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)
        traj = report.weights[report.channel_names[0]]
        pre = [e for e in traj if e["time_step"] < 3000]
        assert pre[-1]["w_combined"] > 0.5, "base should dominate before the switch"
        post = [e for e in traj if e["time_step"] >= 3000]
        dominant = next(i for i, e in enumerate(post)
                        if e["loss_adaptive"] < e["loss_base"])
        window = post[dominant: dominant + cfg.fast_window + 3]
        assert any(e["w_combined"] < 0.5 for e in window), \
            "weight did not cross 0.5 within fast_window + 3 update steps"


def test_criterion_08_improvement_on_learnable_series():
    with criterion(8, "combined beats the seasonal base on all seeds"):
        cfg = RollingConfig(context_length=128, horizon=24, update_period=100,
                            seasonality=24).validate()
        for seed in range(5):
            data = ar_seasonal_series(seed=seed, steps=10000, channels=3, period=24)
            report = run(data, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg)
            agg = report.aggregate
            assert agg["combined"]["mase"] <= agg["base"]["mase"] - 0.01, f"seed {seed}"
            assert agg["combined"]["mase"] <= agg["adaptive"]["mase"] + 0.05, f"seed {seed}"


def test_criterion_09_ablation_consistency():
    with criterion(9, "ablation modes are consistent with full mode"):
        data = ar_seasonal_series(seed=11, steps=900, channels=2, period=8)
        base_kwargs = dict(context_length=32, horizon=8, update_period=16,
                           seasonality=8, warmup=2)
        runs = {}
        for mode in ("full", "unweighted", "slow_only", "fast_only"):
            cfg = RollingConfig(weighter_mode=mode, **base_kwargs).validate()
            runs[mode] = run(data, NaiveSeasonalBase(8, 8), cfg, keep_forecasts=True)
        full, unweighted = runs["full"], runs["unweighted"]
        for ch in range(2):
            for bf, bu in zip(full.bundles[ch], unweighted.bundles[ch]):
                np.testing.assert_array_equal(bf.base_forecast, bu.base_forecast)
                np.testing.assert_array_equal(bf.adaptive_forecast, bu.adaptive_forecast)
                if bu.weight_used == 1.0:
                    np.testing.assert_array_equal(bu.combined_forecast, bu.base_forecast)
                else:
                    assert bu.weight_used == 0.5
                    manual = 0.5 * bf.base_forecast + 0.5 * bf.adaptive_forecast
                    np.testing.assert_array_equal(bu.combined_forecast, manual)
        warmup = base_kwargs["warmup"]
        for name in full.channel_names:
            checked = 0
            for f, s, g in zip(full.weights[name], runs["slow_only"].weights[name],
                               runs["fast_only"].weights[name]):
                if f["update_step"] < warmup:
                    continue
                assert s["w_combined"] == f["w_slow"]
                assert g["w_combined"] == f["w_fast"]
                checked += 1
            assert checked > 0


def test_criterion_10_no_lookahead():
    with criterion(10, "no operation reads past the current step"):
        datasets = [
            regime_switch_series(steps=2500, switch_at=1200, seasonality=8, seed=1),
            ar_seasonal_series(seed=12, steps=1200, channels=2, period=8),
        ]
        cfg = RollingConfig(context_length=64, horizon=8, update_period=32,
                            seasonality=8, warmup=2).validate()
        for data in datasets:
            traced = TraceArray(data)
            violations = []

            def audit(t, traced=traced, violations=violations):
                if traced.max_index > t:
                    violations.append((t, traced.max_index))

            run(traced, NaiveSeasonalBase(cfg.seasonality, cfg.horizon), cfg,
                step_callback=audit)
            assert traced.max_index >= 0, "instrumentation never engaged"
            assert violations == []


def test_criterion_11_determinism_and_round_trips(tmp_path):
    with criterion(11, "determinism and lossless round trips"):
        data = ar_seasonal_series(seed=13, steps=900, channels=2, period=8)
        cfg = RollingConfig(context_length=32, horizon=8, update_period=16,
                            seasonality=8, warmup=2).validate()
        r1 = run(data, NaiveSeasonalBase(8, 8), cfg, keep_forecasts=True)
        r2 = run(data, NaiveSeasonalBase(8, 8), cfg, keep_forecasts=True)
        assert r1.to_dict() == r2.to_dict()
        for c1, c2 in zip(r1.bundles, r2.bundles):
            for b1, b2 in zip(c1, c2):
                np.testing.assert_array_equal(b1.combined_forecast, b2.combined_forecast)

        series = Series(values=data, channel_names=["a", "b"])
        series_path = tmp_path / "series.csv"
        write_series(series, series_path)
        np.testing.assert_array_equal(load_series(series_path).values, data)

        report_path = tmp_path / "report.json"
        r1.dataset_name = "synthetic"
        write_report(r1, report_path, fmt="json")
        loaded = read_report_json(report_path)
        assert loaded["aggregate"] == r1.to_dict()["aggregate"]
        assert loaded["per_channel"] == r1.to_dict()["per_channel"]
        assert loaded["weights"] == r1.to_dict()["weights"]

        forecasts_path = tmp_path / "base.csv"
        rows = [(b.time_step, r1.channel_names[ch], b.base_forecast)
                for ch in range(2) for b in r1.bundles[ch]]
        write_forecasts(*forecast_columns(rows, cfg.horizon), forecasts_path)
        table, horizon = load_forecasts(forecasts_path)
        assert horizon == cfg.horizon
        base = PrecomputedBase(table, cfg.horizon, r1.channel_names)
        r3 = run(data, base, cfg, keep_forecasts=True)
        for c1, c3 in zip(r1.bundles, r3.bundles):
            for b1, b3 in zip(c1, c3):
                np.testing.assert_array_equal(b1.combined_forecast, b3.combined_forecast)


def _etth1_path():
    candidate = os.environ.get("ADAPTS_ETTH1")
    if candidate and Path(candidate).exists():
        return Path(candidate)
    local = Path(__file__).parent / "data" / "ETTh1.csv"
    return local if local.exists() else None


def test_criterion_12_real_data_smoke():
    path = _etth1_path()
    if path is None:
        pytest.skip("hourly benchmark CSV not present "
                    "(set ADAPTS_ETTH1 or drop it at tests/data/ETTh1.csv)")
    with criterion(12, "real-data smoke run improves on the base"):
        series = load_series(path)
        cfg = RollingConfig(context_length=520, horizon=96, update_period=200,
                            seasonality=24).validate()
        report = run(series, NaiveSeasonalBase(24, 96), cfg)
        agg = report.aggregate
        assert agg["combined"]["mase"] < agg["base"]["mase"]
