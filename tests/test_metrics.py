"""Hand-checked values and invariance suites for the scaled error metrics."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from adapts.errors import EmptyBlock, InvalidSeasonality, ShapeMismatch
from adapts.metrics import (
    DENOMINATOR_FLOOR,
    block_average_mase,
    mase,
    rmsse,
    scaled_scores,
    seasonal_naive_denominators,
    seasonal_naive_mae,
    seasonal_naive_mse,
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


def score_block(forecasts, targets, contexts, s):
    """``scaled_scores`` of a block over its ``(m, L)`` context windows'
    own seasonal-naive denominators."""
    contexts = np.asarray(contexts, dtype=np.float64)
    naive_mae, naive_mse = seasonal_naive_denominators(contexts, s, contexts.shape[1])
    return scaled_scores(forecasts, targets, naive_mae[:, 0], naive_mse[:, 0])


class TestScaledScores:
    """The array scorer against the scalar functions, window by window."""

    def _check_against_scalars(self, forecasts, targets, contexts, s):
        scores = score_block(forecasts, targets, contexts, s)
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
            score_block(np.zeros((3, 0, 2)), np.zeros((0, 2)), np.zeros((0, 8)), 2)
        with pytest.raises(ShapeMismatch):
            score_block(np.zeros((3, 4, 2)), np.zeros((4, 3)), np.zeros((4, 8)), 2)
        with pytest.raises(ShapeMismatch):
            score_block(np.zeros((3, 4, 2)), np.zeros((4, 2)), np.zeros((5, 8)), 2)
        with pytest.raises(InvalidSeasonality):
            score_block(np.zeros((3, 4, 2)), np.zeros((4, 2)), np.zeros((4, 8)), 8)


def scaled_scores_by_mean(forecasts, targets, naive_mae, naive_mse):
    """``scaled_scores`` as it was written with ``np.mean``, the reference
    its sum-then-divide in place must match bit for bit."""
    errors = forecasts - targets
    return (np.mean(np.abs(errors), axis=-1) / np.maximum(naive_mae, DENOMINATOR_FLOOR),
            np.sqrt(np.mean(np.square(errors), axis=-1)
                    / np.maximum(naive_mse, DENOMINATOR_FLOOR)))


class TestScaledScoresInPlace:
    """The in-place means and squares give ``np.mean``'s bits and leave the
    caller's arrays as they were."""

    def _check(self, forecasts, targets, contexts, s):
        naive_mae, naive_mse = (d[:, 0] for d in seasonal_naive_denominators(
            contexts, s, contexts.shape[1]))
        before = forecasts.copy(), targets.copy()
        got = scaled_scores(forecasts, targets, naive_mae, naive_mse)
        want_mase, want_rmsse = scaled_scores_by_mean(forecasts, targets, naive_mae, naive_mse)
        assert got.mase.tobytes() == want_mase.tobytes()
        assert got.rmsse.tobytes() == want_rmsse.tobytes()
        assert forecasts.tobytes() == before[0].tobytes()
        assert targets.tobytes() == before[1].tobytes()
        return got

    @pytest.mark.parametrize("seed", range(4))
    def test_random_blocks(self, seed):
        rng = np.random.default_rng(40 + seed)
        m, H, L = rng.integers(2, 60), rng.integers(2, 100), 48
        contexts = rng.normal(size=(m, L)) * rng.uniform(0.01, 100.0, size=(m, 1))
        targets = rng.normal(size=(m, H)) * 10.0
        forecasts = targets + rng.normal(size=(5, m, H)) * rng.uniform(0.1, 10.0)
        self._check(forecasts, targets, contexts, 12)

    def test_floored_windows(self):
        rng = np.random.default_rng(44)
        contexts = rng.normal(size=(5, 16))
        contexts[[0, 3]] = 7.25
        targets = rng.normal(size=(5, 6))
        forecasts = rng.normal(size=(5, 5, 6))
        got = self._check(forecasts, targets, contexts, 4)
        assert got.floored.tolist() == [True, False, False, True, False]

    @pytest.mark.parametrize("m,H", [(1, 7), (9, 1), (1, 1)])
    def test_one_window_or_one_step(self, m, H):
        rng = np.random.default_rng(45)
        contexts = rng.normal(size=(m, 12))
        targets = rng.normal(size=(m, H))
        self._check(rng.normal(size=(5, m, H)), targets, contexts, 3)

    def test_strided_stack_of_a_larger_block(self):
        # the harness scores the first m rows of an (5, M, H) block
        rng = np.random.default_rng(46)
        block = rng.normal(size=(5, 30, 8))
        contexts = rng.normal(size=(17, 20))
        targets = sliding_window_view(rng.normal(size=17 + 7), 8)
        self._check(block[:, :17], targets, contexts, 5)


class TestSlabDenominators:
    """Denominators of every window of a slab against the scalar functions
    and ``score_block`` on copied windows, bit for bit."""

    @pytest.mark.parametrize("s", [1, 5, 19])  # 19 = L - 1
    def test_every_window_equals_its_scalars_and_copy(self, s):
        rng = np.random.default_rng(s)
        C, m, L, H = 3, 30, 20, 4
        slab = rng.normal(size=(C, m + L - 1)) * rng.uniform(0.1, 100.0, size=(C, 1))
        slab[1, 5:5 + L + 3] = 2.5  # channel 1's windows 5..8 are constant
        mae, mse = seasonal_naive_denominators(slab, s, L)
        assert mae.shape == mse.shape == (C, m)
        windows = sliding_window_view(slab, L, axis=1)
        for ch in range(C):
            contexts = np.ascontiguousarray(windows[ch])
            for j in range(m):
                assert mae[ch, j] == seasonal_naive_mae(contexts[j], s)
                assert mse[ch, j] == seasonal_naive_mse(contexts[j], s)
            targets = rng.normal(size=(m, H))
            forecasts = targets + rng.normal(size=(3, m, H))
            want = score_block(forecasts, targets, contexts, s)
            got = scaled_scores(forecasts, targets, mae[ch], mse[ch])
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
        assert np.flatnonzero(mae < DENOMINATOR_FLOOR).tolist() == [m + 5, m + 6, m + 7, m + 8]

    def test_invalid_arguments_rejected(self):
        for s, window in ((0, 8), (8, 8), (2.0, 8)):
            with pytest.raises(InvalidSeasonality):
                seasonal_naive_denominators(np.zeros((2, 10)), s, window)
        for series in (np.zeros((2, 7)), np.float64(1.0)):
            with pytest.raises(ShapeMismatch):
                seasonal_naive_denominators(series, 2, 8)


class TestSeasonalNaive:
    def test_matches_manual_diff(self):
        ctx = np.array([1.0, 3.0, 2.0, 5.0, 4.0])
        assert seasonal_naive_mae(ctx, 2) == pytest.approx(np.mean([1.0, 2.0, 2.0]))
