"""Hand-checked values and invariance suites for the scaled error metrics."""

import numpy as np
import pytest

from adapts.errors import EmptyBlock, InvalidSeasonality, ShapeMismatch
from adapts.metrics import (
    DATASET_SEASONALITY,
    DENOMINATOR_FLOOR,
    block_average_mase,
    default_seasonality,
    mase,
    rmsse,
    score_windows,
    seasonal_naive_mae,
)


class TestMase:
    def test_perfect_forecast(self):
        ctx = np.array([0.0, 1.0, 0.0, 1.0, 0.5])
        y = np.array([1.0, 0.0])
        assert mase(y, y, ctx, 1) == 0.0

    def test_hand_computed_value(self):
        ctx = np.array([0.0, 1.0, 0.0, 1.0])
        target = np.array([0.0, 1.0])
        forecast = np.array([1.0, 1.0])
        # numerator (1 + 0)/2 = 0.5, denominator mean |seasonal diff| = 1
        assert mase(forecast, target, ctx, 1) == pytest.approx(0.5, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        ctx = rng.normal(size=20)
        target = rng.normal(size=5)
        forecast = rng.normal(size=5)
        base = mase(forecast, target, ctx, 3)
        for c in (0.5, 2.0, 1e4):
            scaled = mase(c * forecast, c * target, c * ctx, 3)
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        ctx = rng.normal(size=16)
        target = rng.normal(size=4)
        forecast = rng.normal(size=4)
        base = mase(forecast, target, ctx, 2)
        moved = mase(forecast + 13.5, target + 13.5, ctx + 13.5, 2)
        assert moved == pytest.approx(base, rel=1e-12)

    def test_constant_context_is_floored_not_infinite(self):
        out = mase(np.array([1.0]), np.array([0.0]), np.full(8, 3.0), 2)
        assert np.isfinite(out)
        assert out == pytest.approx(1.0 / 1e-8)

    def test_bad_seasonality_rejected(self):
        ctx = np.zeros(6)
        with pytest.raises(InvalidSeasonality):
            mase(np.zeros(2), np.zeros(2), ctx, 6)
        with pytest.raises(InvalidSeasonality):
            mase(np.zeros(2), np.zeros(2), ctx, 0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            mase(np.zeros(2), np.zeros(3), np.zeros(8), 2)


class TestRmsse:
    def test_perfect_forecast(self):
        ctx = np.array([0.0, 2.0, 0.0, 2.0])
        assert rmsse(np.array([1.0]), np.array([1.0]), ctx, 1) == 0.0

    def test_hand_computed_value(self):
        ctx = np.array([0.0, 2.0, 0.0, 2.0])
        # squared seasonal diffs are all 4; numerator (1-0)^2 = 1
        assert rmsse(np.array([1.0]), np.array([0.0]), ctx, 1) == pytest.approx(0.5, abs=1e-12)

    def test_single_term_rmsse_equals_mase(self):
        # H = 1 and L - s = 1: both metrics reduce to |e| / |d|
        ctx = np.array([1.0, 4.0])
        f, y = np.array([2.0]), np.array([3.5])
        assert rmsse(f, y, ctx, 1) == pytest.approx(mase(f, y, ctx, 1), rel=1e-12)

    def test_scale_and_translation_invariance(self):
        rng = np.random.default_rng(2)
        ctx = rng.normal(size=24)
        target = rng.normal(size=6)
        forecast = rng.normal(size=6)
        base = rmsse(forecast, target, ctx, 4)
        assert rmsse(3 * forecast, 3 * target, 3 * ctx, 4) == pytest.approx(base, rel=1e-12)
        assert rmsse(forecast - 7, target - 7, ctx - 7, 4) == pytest.approx(base, rel=1e-12)

    def test_zero_only_for_exact_match(self):
        rng = np.random.default_rng(3)
        ctx = rng.normal(size=12)
        target = rng.normal(size=3)
        assert rmsse(target, target, ctx, 2) == 0.0
        assert rmsse(target + 1e-9, target, ctx, 2) > 0.0

    def test_always_finite_and_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            ctx = rng.normal(size=10) * rng.choice([0.0, 1e-12, 1.0, 1e6])
            f = rng.normal(size=4)
            y = rng.normal(size=4)
            for s in (1, 3):
                for metric in (mase, rmsse):
                    v = metric(f, y, ctx, s)
                    assert np.isfinite(v) and v >= 0.0


class TestBlockAverage:
    def test_single_window_equals_its_mase(self):
        rng = np.random.default_rng(5)
        ctx = rng.normal(size=(1, 12))
        f = rng.normal(size=(1, 4))
        y = rng.normal(size=(1, 4))
        assert block_average_mase(f, y, ctx, 2) == pytest.approx(
            mase(f[0], y[0], ctx[0], 2), rel=1e-14)

    def test_identical_windows(self):
        ctx = np.tile(np.array([0.0, 1.0, 0.0, 1.0]), (3, 1))
        f = np.tile(np.array([1.0, 1.0]), (3, 1))
        y = np.tile(np.array([0.0, 1.0]), (3, 1))
        assert block_average_mase(f, y, ctx, 1) == pytest.approx(0.5, abs=1e-12)

    def test_mean_of_distinct_windows(self):
        # windows engineered to have MASE 0.2, 0.4 and 0.9
        ctx = np.tile(np.array([0.0, 1.0, 0.0, 1.0]), (3, 1))  # denominator 1
        y = np.zeros((3, 1))
        f = np.array([[0.2], [0.4], [0.9]])
        assert block_average_mase(f, y, ctx, 1) == pytest.approx(0.5, abs=1e-12)

    def test_empty_block_rejected(self):
        with pytest.raises(EmptyBlock):
            block_average_mase(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 8)), 2)


class TestScoreWindows:
    """The array scorer against the scalar functions, window by window."""

    def _check_against_scalars(self, forecasts, targets, contexts, s):
        scores = score_windows(forecasts, targets, contexts, s)
        k, m, _ = forecasts.shape
        assert scores.mase.shape == (k, m)
        assert scores.rmsse.shape == (k, m)
        assert scores.floored.shape == (m,)
        for i in range(m):
            floored = seasonal_naive_mae(contexts[i], s) < DENOMINATOR_FLOOR
            assert scores.floored[i] == floored
            for j in range(k):
                assert scores.mase[j, i] == mase(forecasts[j, i], targets[i], contexts[i], s)
                assert scores.rmsse[j, i] == rmsse(forecasts[j, i], targets[i], contexts[i], s)
        return scores

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_blocks(self, seed):
        rng = np.random.default_rng(seed)
        m, H, L, s = 37, 11, 48, 12
        contexts = rng.normal(size=(m, L)) * rng.uniform(0.1, 100.0, size=(m, 1))
        targets = rng.normal(size=(m, H))
        forecasts = targets + rng.normal(size=(5, m, H))
        self._check_against_scalars(forecasts, targets, contexts, s)

    def test_constant_context_is_floored(self):
        rng = np.random.default_rng(3)
        contexts = rng.normal(size=(4, 16))
        contexts[1] = 2.5
        contexts[3] = np.tile([1.0, -1.0], 8)  # perfectly periodic at s=2
        targets = rng.normal(size=(4, 5))
        forecasts = rng.normal(size=(2, 4, 5))
        scores = self._check_against_scalars(forecasts, targets, contexts, 2)
        assert scores.floored.tolist() == [False, True, False, True]

    @pytest.mark.parametrize("s", [1, 19])
    def test_extreme_seasonalities(self, s):
        rng = np.random.default_rng(4)
        contexts = rng.normal(size=(6, 20))
        targets = rng.normal(size=(6, 3))
        forecasts = rng.normal(size=(3, 6, 3))
        self._check_against_scalars(forecasts, targets, contexts, s)

    def test_one_window_block(self):
        rng = np.random.default_rng(5)
        contexts = rng.normal(size=(1, 12))
        targets = rng.normal(size=(1, 4))
        forecasts = rng.normal(size=(5, 1, 4))
        self._check_against_scalars(forecasts, targets, contexts, 3)

    def test_block_average_matches_mean_of_scalars(self):
        rng = np.random.default_rng(6)
        contexts = rng.normal(size=(9, 24))
        targets = rng.normal(size=(9, 6))
        forecasts = rng.normal(size=(9, 6))
        want = float(np.mean([mase(forecasts[i], targets[i], contexts[i], 4)
                              for i in range(9)]))
        assert block_average_mase(forecasts, targets, contexts, 4) == want

    def test_invalid_blocks_rejected(self):
        with pytest.raises(EmptyBlock):
            score_windows(np.zeros((3, 0, 2)), np.zeros((0, 2)), np.zeros((0, 8)), 2)
        with pytest.raises(ShapeMismatch):
            score_windows(np.zeros((3, 4, 2)), np.zeros((4, 3)), np.zeros((4, 8)), 2)
        with pytest.raises(ShapeMismatch):
            score_windows(np.zeros((3, 4, 2)), np.zeros((4, 2)), np.zeros((5, 8)), 2)
        with pytest.raises(InvalidSeasonality):
            score_windows(np.zeros((3, 4, 2)), np.zeros((4, 2)), np.zeros((4, 8)), 8)


class TestSeasonalityTable:
    def test_known_names(self):
        assert default_seasonality("ETTh1") == 24
        assert default_seasonality("ettm2") == 96
        assert default_seasonality("US Weather") == 24
        assert default_seasonality("weather") == 144

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidSeasonality):
            default_seasonality("nope")

    def test_table_is_positive(self):
        assert all(s >= 1 for s in DATASET_SEASONALITY.values())


class TestSeasonalNaive:
    def test_matches_manual_diff(self):
        ctx = np.array([1.0, 3.0, 2.0, 5.0, 4.0])
        assert seasonal_naive_mae(ctx, 2) == pytest.approx(np.mean([1.0, 2.0, 2.0]))
