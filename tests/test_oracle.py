"""Whole runs against the scalar replay in :mod:`oracle`.

Every setting of the grid below replays a three-channel series through
:func:`adapts.harness.run` and through :func:`oracle.replay`, and compares
the forecasts, applied weights, per-window scores, aggregates and weight
trajectories at 1e-9 relative, the tolerance ``perfbench/reference.json``
pins aggregates to.
At L=32 the design dimension is 31, so per-channel runs with M of 1 and 4
and shared runs with M=1 take Woodbury steps. From L+H = 40 rows per model
(shared runs with M of 16 and 48, per-channel runs with M=48) the updates
refit from the slab's lagged moments, and the others mostly refit directly
from embedded windows. A second grid varies the weighter's settings at M=4.
A seeded draw then varies the shape itself: L, H, S, M, α, λ, the channel
count (one to four), both modes, both flags, the three bases and the
weighter's settings. Three fixed cases take λ below 1, where the Gram's
conditioning sets the gap, and still hold at the same 1e-9. A last grid
runs H=1, whose one-sample targets the oracle embeds itself.
The replay takes its base forecasts from the oracle's own scalar bases,
never from the bundled ones it checks.
"""

import numpy as np
import pytest
from helpers import ar_seasonal_series, forecast_columns
from oracle import gaps, replay, scalar_base

from adapts.config import RollingConfig
from adapts.harness import make_base_forecaster, run
from adapts.io import ForecastTable

L, H, S = 32, 8, 8
NAMES = ["a", "b", "c", "d"]
TOLERANCE = 1e-9


def series(seed, steps=160, channels=3):
    # channel scales nearly three decades apart, so channel scaling matters;
    # a series of fewer channels is the first ones of a wider one
    scale, offset = np.array([1.0, 6.0, 0.05, 20.0]), np.array([3.0, -20.0, 0.5, 50.0])
    return (ar_seasonal_series(seed, steps=steps, channels=channels, period=S)
            * scale[:channels] + offset[:channels])


def precomputed_rows(data, seed, context_length=L, horizon=H):
    """Noisy persistence forecasts ``{(t, name): vector}`` for every
    forecast step of every channel of ``data``, named as in ``NAMES``."""
    rng = np.random.default_rng(seed)
    names = NAMES[:data.shape[1]]
    return {(t, name): data[t, ch] + rng.normal(scale=data[:, ch].std(), size=horizon)
            for t in range(context_length - 1, len(data) - 1) for ch, name in enumerate(names)}


def assert_matches_replay(data, kind, rows, config):
    """``run`` with the bundled base ``kind`` (a precomputed one serving
    ``rows`` from a table) against the replay with its scalar twin."""
    names, H = NAMES[:data.shape[1]], config.horizon
    table = None if rows is None else ForecastTable(*forecast_columns(
        [(t, name, vector) for (t, name), vector in rows.items()], H))
    base = make_base_forecaster(kind, horizon=H, seasonality=config.seasonality,
                                forecasts=table, channel_names=names)
    report = run(data, base, config, channel_names=names, keep_forecasts=True)
    expected = replay(data, scalar_base(kind, H, config.seasonality, rows, names), config)
    assert report.floored.shape[1] > 5 * config.update_period  # several scored updates
    worst = {name: gap for name, gap in gaps(report, expected).items() if not gap <= TOLERANCE}
    assert not worst, worst


# (M, shared, base, instance_norm, channel_scaling): every value of each
# setting meets every value of every other setting in the first twelve
# cases; the last three reach the moments refit with and without instance
# normalization
CASES = [
    (1, True, "naive_seasonal", True, True),
    (1, False, "historical_mean", True, False),
    (1, True, "precomputed", False, False),
    (1, False, "naive_seasonal", False, True),
    (4, True, "historical_mean", False, True),
    (4, False, "precomputed", True, True),
    (4, True, "naive_seasonal", True, False),
    (4, False, "historical_mean", False, False),
    (16, True, "precomputed", True, False),
    (16, False, "naive_seasonal", False, False),
    (16, True, "historical_mean", True, True),
    (16, False, "precomputed", False, True),
    (48, True, "historical_mean", False, True),
    (48, False, "naive_seasonal", True, False),
    (48, False, "precomputed", False, True),
]


@pytest.mark.parametrize("update_period,shared,kind,instance_norm,channel_scaling", CASES)
def test_run_matches_scalar_replay(update_period, shared, kind, instance_norm, channel_scaling):
    seed = update_period + 2 * shared
    data = series(seed, steps=max(160, 7 * update_period + L + H))
    rows = precomputed_rows(data, seed)
    config = RollingConfig(context_length=L, horizon=H, update_period=update_period,
                           seasonality=S, warmup=2, fast_window=3, instance_norm=instance_norm,
                           channel_scaling=channel_scaling, shared_weights=shared)
    assert_matches_replay(data, kind, rows, config)


# (weighter_mode, eta, fast_window, warmup): every mode meets every eta,
# and every pair of values of any two settings meets in some case
WEIGHTER_CASES = [
    ("full", 0.0, 1, 0), ("full", 0.5, 1, 0), ("full", 5.0, 5, 2),
    ("slow_only", 0.0, 1, 0), ("slow_only", 0.5, 1, 0), ("slow_only", 5.0, 5, 2),
    ("fast_only", 0.0, 1, 0), ("fast_only", 0.5, 1, 2), ("fast_only", 5.0, 5, 0),
    ("unweighted", 0.0, 5, 2), ("unweighted", 0.5, 5, 0), ("unweighted", 5.0, 1, 0),
]


@pytest.mark.parametrize("case", range(len(WEIGHTER_CASES)))
def test_weighter_settings_match_scalar_replay(case):
    mode, eta, fast_window, warmup = WEIGHTER_CASES[case]
    shared, kind = case % 2 == 0, ("naive_seasonal", "historical_mean", "precomputed")[case % 3]
    data = series(100 + case)
    rows = precomputed_rows(data, case)
    config = RollingConfig(context_length=L, horizon=H, update_period=4, seasonality=S,
                           eta=eta, fast_window=fast_window, warmup=warmup,
                           weighter_mode=mode, shared_weights=shared)
    assert_matches_replay(data, kind, rows, config)


# the values each drawn setting takes besides the shape (L, H, S)
AXES = {
    "update_period": [1, 2, 3, 5, 8, 13, 30, 60], "alpha": [0.3, 0.6, 0.9, 1.0],
    "lam": [1.0, 5.0, 20.0], "shared_weights": [True, False], "instance_norm": [True, False],
    "channel_scaling": [True, False],
    "weighter_mode": ["full", "slow_only", "fast_only", "unweighted"],
    "eta": [0.0, 0.5, 5.0], "fast_window": [1, 3, 5], "warmup": [0, 2],
    "channels": [1, 2, 3, 4], "kind": ["naive_seasonal", "historical_mean", "precomputed"],
}


def draw_cases(seed, n):
    """``n`` seeded random settings: L from 6 to 47, H from 2 to 13, S < L
    and one value of every axis. H=1 has cases of its own below. λ < 1
    stays out: below λ=1 the gap from the oracle is set by the Gram's
    conditioning, not by the program."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n):
        context_length = int(rng.integers(6, 48))
        case = {key: values[rng.integers(len(values))] for key, values in AXES.items()}
        cases.append(dict(case, context_length=context_length,
                          horizon=int(rng.integers(2, 14)),
                          seasonality=int(rng.integers(1, context_length))))
    return cases


DRAWN = draw_cases(2024, 40)


def test_the_draw_takes_every_value_of_every_axis():
    for key, values in AXES.items():
        assert sorted({case[key] for case in DRAWN}) == sorted(values), key
    assert {c["context_length"] % 2 for c in DRAWN if c["alpha"] == 1.0} == {0, 1}


@pytest.mark.parametrize("case", range(len(DRAWN)))
def test_drawn_setting_matches_scalar_replay(case):
    settings = dict(DRAWN[case])
    channels, kind = settings.pop("channels"), settings.pop("kind")
    config = RollingConfig(**settings)
    steps = max(160, 7 * config.update_period + config.context_length + config.horizon)
    data = series(300 + case, steps=steps, channels=channels)
    rows = precomputed_rows(data, case, config.context_length, config.horizon)
    assert_matches_replay(data, kind, rows, config)


# (shared, λ): at L=33, H=23 and M=1 on seed 5, whose worst gaps measured
# 4.3e-11 and 4.1e-12 per channel at λ = 1e-3 and 1e-2, and 2.9e-12 shared
# at λ = 1e-2, so the conditioning of a small ridge penalty stays far
# inside the tolerance
SMALL_LAMBDA_CASES = [(False, 1e-3), (False, 1e-2), (True, 1e-2)]


@pytest.mark.parametrize("shared,lam", SMALL_LAMBDA_CASES)
def test_small_ridge_penalty_matches_scalar_replay(shared, lam):
    config = RollingConfig(context_length=33, horizon=23, update_period=1, seasonality=S,
                           lam=lam, shared_weights=shared)
    assert_matches_replay(series(5, steps=200), "naive_seasonal", None, config)


# (shared, M, instance_norm, L) at H=1, every combination: the oracle embeds
# the one-sample targets itself, and the three bases take turns
ONE_STEP_CASES = [(shared, update_period, instance_norm, context_length)
                  for shared in (True, False) for update_period in (1, 4, 16, 48)
                  for instance_norm in (True, False) for context_length in (8, 32)]


@pytest.mark.parametrize("case", range(len(ONE_STEP_CASES)))
def test_one_step_horizon_matches_scalar_replay(case):
    shared, update_period, instance_norm, context_length = ONE_STEP_CASES[case]
    kind = ("naive_seasonal", "historical_mean", "precomputed")[case % 3]
    config = RollingConfig(context_length=context_length, horizon=1, update_period=update_period,
                           seasonality=4, warmup=2, fast_window=3, instance_norm=instance_norm,
                           shared_weights=shared)
    data = series(400 + case, steps=max(160, 7 * update_period + context_length + 1))
    assert_matches_replay(data, kind, precomputed_rows(data, case, context_length, 1), config)
