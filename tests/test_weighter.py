"""Tests for the exponential weighting machinery.

Closed-form softmax expressions computed with scalar arithmetic serve as
the oracle for the recursive updates.
"""

import math
import warnings

import numpy as np
import pytest

from adapts.errors import InvalidConfig, InvalidLoss, ShapeMismatch
from adapts.weighter import ChannelWeighter, combine, exp_weight_step


class TestExpWeightStep:
    def test_equal_losses_leave_weights(self):
        w = np.array([0.3, 0.2, 0.5])
        out = exp_weight_step(w, np.array([2.0, 2.0, 2.0]), 0.7)
        np.testing.assert_allclose(out, w, rtol=1e-14)

    def test_zero_learning_rate_leaves_weights(self):
        w = np.array([0.8, 0.2])
        out = exp_weight_step(w, np.array([1.0, 100.0]), 0.0)
        np.testing.assert_allclose(out, w, rtol=1e-14)

    def test_two_forecaster_scalar_oracle(self):
        out = exp_weight_step(np.array([0.5, 0.5]), np.array([1.0, 2.0]), 0.5)
        e1, e2 = math.exp(-0.5), math.exp(-1.0)
        np.testing.assert_allclose(out, [e1 / (e1 + e2), e2 / (e1 + e2)], rtol=1e-14)
        assert out[0] == pytest.approx(0.62245933, abs=1e-7)

    def test_huge_losses_stay_in_simplex(self):
        out = exp_weight_step(np.array([0.5, 0.5]), np.array([1e6, 0.0]), 0.5)
        assert np.all(out >= 0) and np.all(out <= 1)
        assert out.sum() == pytest.approx(1.0)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("prev, losses, want", [
        ([0.5, 0.5], [1e308, 1e308], [0.5, 0.5]),
        ([0.3, 0.7], [1e308, 1e308], [0.3, 0.7]),
        ([0.5, 0.5], [1e308, 1e307], [0.0, 1.0]),
        ([0.5, 0.5], [-1e308, 1e308], [1.0, 0.0]),
        ([0.5, 0.5], [-1e308, 0.0], [1.0, 0.0]),
        ([0.0, 1.0], [0.0, 1e308], [0.0, 1.0]),
        ([0.0, 1.0], [-1e308, 1e308], [0.0, 1.0]),
        ([0.2, 0.0, 0.8], [1e308, -1e308, 1e308], [0.2, 0.0, 0.8]),
    ])
    def test_overflowing_scaled_losses(self, prev, losses, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = exp_weight_step(np.array(prev), np.array(losses), 10.0)
        np.testing.assert_allclose(out, want, rtol=1e-15, atol=0)

    def test_zero_weight_stays_zero(self):
        out = exp_weight_step(np.array([1.0, 0.0]), np.array([5.0, 0.0]), 0.5)
        np.testing.assert_allclose(out, [1.0, 0.0])

    def test_validation(self):
        # a NaN compares false against every bound: [nan, 0.5] once passed
        # the simplex check and came back as [0, 1]
        for prev in ([0.7, 0.7], [np.nan, 0.5], [0.5, np.nan], [np.nan, np.nan]):
            with pytest.raises(InvalidLoss, match="simplex"):
                exp_weight_step(np.array(prev), np.array([1.0, 1.0]), 0.5)
        with pytest.raises(InvalidLoss):
            exp_weight_step(np.array([0.5, 0.5]), np.array([np.nan, 1.0]), 0.5)
        with pytest.raises(InvalidLoss):
            exp_weight_step(np.array([0.5, 0.5]), np.array([1.0, 1.0]), -0.1)
        with pytest.raises(ShapeMismatch):
            exp_weight_step(np.array([0.5, 0.5]), np.array([1.0, 1.0, 1.0]), 0.5)

    @pytest.mark.parametrize("eta", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_rejected(self, eta):
        with pytest.raises(InvalidLoss, match="finite"):
            exp_weight_step(np.array([0.5, 0.5]), np.array([1.0, 2.0]), eta)


class TestFastWeight:
    def test_empty_buffer_is_uniform(self):
        assert ChannelWeighter().fast_weight() == 0.5

    def test_smaller_losses_win(self):
        w = ChannelWeighter(warmup_steps=0)
        for _ in range(3):
            w.update(0.2, 0.9, 0.5, 0.5)
        assert w.fast_weight() > 0.5

    def test_windowed_scalar_oracle(self):
        w = ChannelWeighter(eta=0.5, warmup_steps=0)
        for _ in range(2):
            w.update(1.0, 2.0, 0.5, 0.5)
        e1, e2 = math.exp(-1.0), math.exp(-2.0)
        assert w.fast_weight() == pytest.approx(e1 / (e1 + e2), rel=1e-12)
        assert w.fast_weight() == pytest.approx(0.73105858, abs=1e-7)

    def test_buffer_evicts_oldest(self):
        w = ChannelWeighter(fast_window=2, warmup_steps=0)
        w.update(9.0, 0.0, 0.5, 0.5)
        w.update(1.0, 2.0, 0.5, 0.5)
        w.update(1.0, 2.0, 0.5, 0.5)
        assert list(w.fast_losses) == [(1.0, 2.0), (1.0, 2.0)]


class TestCurrentWeight:
    def test_warmup_forces_base(self):
        w = ChannelWeighter(warmup_steps=5)
        assert w.current_weight() == 1.0
        w.update(0.0, 5.0, 1.0, 1.0)
        assert w.update_count == 1
        assert w.current_weight() == 1.0

    def test_merge_weight_one_returns_fast(self):
        # eta * (merge-loss gap) = 750 > 745: the slow side's share underflows to 0
        w = ChannelWeighter(eta=0.5, warmup_steps=0)
        w.update(0.3, 0.6, 0.0, 1500.0)
        assert w.beta_merge == 1.0
        assert w.current_weight() == w.fast_weight()

    def test_blend_arithmetic(self):
        w = ChannelWeighter(eta=0.5, fast_window=1, warmup_steps=0)
        # the slow totals differ by 2*ln(1.5), which puts the slow weight at
        # 0.4; the buffered pair differs by -2*ln(4), which puts the fast
        # weight at 0.8; equal merge losses keep the merge weight at 0.5
        w.update(2 * math.log(6.0), 0.0, 1.0, 1.0)
        w.update(0.0, 2 * math.log(4.0), 1.0, 1.0)
        assert w.beta_merge == 0.5
        assert w.w_slow == pytest.approx(0.4, rel=1e-12)
        assert w.fast_weight() == pytest.approx(0.8, rel=1e-12)
        assert w.current_weight() == pytest.approx(0.5 * 0.8 + 0.5 * 0.4, rel=1e-12)

    def test_modes_select_their_weight(self):
        w = ChannelWeighter(eta=0.5, warmup_steps=0)
        w.update(0.3, 0.9, 0.5, 0.7)
        w.update(0.4, 0.2, 0.6, 0.3)
        fast = w.fast_weight()
        assert w.current_weight("slow_only") == w.w_slow
        assert w.current_weight("fast_only") == fast
        assert w.current_weight("unweighted") == 0.5
        beta = w.beta_merge
        assert w.current_weight("full") == beta * fast + (1.0 - beta) * w.w_slow
        for mode in ("slow-only", "fast", ""):
            with pytest.raises(InvalidConfig, match="weighter mode"):
                w.current_weight(mode)

    @pytest.mark.parametrize("mode", ["full", "slow_only", "fast_only", "unweighted"])
    def test_warmup_forces_base_in_every_mode(self, mode):
        w = ChannelWeighter(warmup_steps=1)
        assert w.current_weight(mode) == 1.0
        w.update(0.0, 5.0, 1.0, 1.0)
        assert w.current_weight(mode) != 1.0


class TestCombine:
    def test_endpoints_are_bit_exact(self):
        base = np.array([1.1, 2.2, 3.3])
        adaptive = np.array([9.0, 8.0, 7.0])
        np.testing.assert_array_equal(combine(base, adaptive, 1.0), base)
        np.testing.assert_array_equal(combine(base, adaptive, 0.0), adaptive)

    def test_midpoint_matches_plain_mean(self):
        rng = np.random.default_rng(0)
        base, adaptive = rng.normal(size=8), rng.normal(size=8)
        np.testing.assert_array_equal(combine(base, adaptive, 0.5),
                                      0.5 * base + 0.5 * adaptive)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            combine(np.zeros(3), np.zeros(4), 0.5)


class TestUpdate:
    def test_equal_losses_are_neutral(self):
        w = ChannelWeighter(warmup_steps=0)
        w.update(0.7, 0.7, 0.7, 0.7)
        assert w.w_slow == pytest.approx(0.5, abs=1e-15)
        assert w.beta_merge == pytest.approx(0.5, abs=1e-15)
        assert len(w.fast_losses) == 1
        assert w.update_count == 1

    def test_persistent_gap_drives_slow_weight_monotonically(self):
        w = ChannelWeighter(eta=0.5, fast_window=5, warmup_steps=0)
        prev = w.w_slow
        for _ in range(30):
            w.update(0.0, 1.0, 0.5, 0.5)
            assert w.w_slow > prev
            prev = w.w_slow
        assert w.w_slow > 0.99
        # the fast weight saturates at its windowed cap
        cap = 1.0 / (1.0 + math.exp(-0.5 * 5))
        assert w.fast_weight() == pytest.approx(cap, rel=1e-12)

    def test_recursion_equals_softmax_of_cumulative_losses(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            eta = float(rng.uniform(0.05, 1.5))
            w = ChannelWeighter(eta=eta, warmup_steps=0)
            losses = rng.uniform(0.0, 2.0, size=(60, 2))
            for l1, l2 in losses:
                w.update(l1, l2, 0.5, 0.5)
            s1, s2 = losses.sum(axis=0)
            shift = min(s1, s2)
            e1 = math.exp(-eta * (s1 - shift))
            e2 = math.exp(-eta * (s2 - shift))
            assert w.w_slow == pytest.approx(e1 / (e1 + e2), abs=1e-12)

    def test_warmup_skips_loss_absorption(self):
        w = ChannelWeighter(warmup_steps=3)
        for _ in range(3):
            w.update(0.0, 100.0, 0.0, 100.0)
        assert w.update_count == 3
        assert w.w_slow == 0.5
        assert w.beta_merge == 0.5
        assert len(w.fast_losses) == 0
        w.update(0.0, 1.0, 0.5, 0.5)
        assert w.w_slow > 0.5
        assert len(w.fast_losses) == 1

    @pytest.mark.parametrize("eta", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_rejected(self, eta):
        with pytest.raises(InvalidLoss, match="finite"):
            ChannelWeighter(eta=eta)

    def test_nan_loss_rejected(self):
        w = ChannelWeighter(warmup_steps=0)
        with pytest.raises(InvalidLoss):
            w.update(float("nan"), 1.0, 0.5, 0.5)
        with pytest.raises(InvalidLoss):
            w.update(0.5, 1.0, -0.5, 0.5)

    def test_weights_bounded_under_extreme_losses(self):
        w = ChannelWeighter(warmup_steps=0)
        rng = np.random.default_rng(4)
        for _ in range(200):
            l = rng.uniform(0.0, 1e6, size=4)
            w.update(*l)
            assert 0.0 <= w.w_slow <= 1.0
            assert 0.0 <= w.beta_merge <= 1.0
            assert 0.0 <= w.fast_weight() <= 1.0

    def test_overflowed_sums_saturate_at_inf(self):
        # the suite turns numpy's overflow warnings into errors
        w = ChannelWeighter(warmup_steps=0)
        for _ in range(2):
            w.update(1e308, 1.0, 1.0, 1.0)
        # inf against a finite sum weighs 0, in the fast window and the slow sums
        assert w.fast_weight() == 0.0 and w.w_slow == 0.0
        assert w.beta_merge == 0.5 and w.current_weight() == 0.0

        w = ChannelWeighter(fast_window=1, warmup_steps=0)
        for _ in range(3):
            w.update(1e308, 1.0, 1e308, 1.0)
        assert w.w_slow == 0.0 and w.beta_merge == 0.0
        assert w.fast_weight() == 0.0 and w.current_weight() == 0.0

        w = ChannelWeighter(warmup_steps=0)
        for _ in range(3):
            w.update(1e308, 1e308, 1e308, 1e308)
        # both sums infinite: the uniform weight
        assert w.fast_weight() == w.w_slow == w.beta_merge == w.current_weight() == 0.5

    def test_finite_sums_match_numpy_kahan_bit_for_bit(self):
        # reference: the same Kahan recursion on numpy pairs
        totals = {"slow": np.zeros(2), "merge": np.zeros(2)}
        comps = {"slow": np.zeros(2), "merge": np.zeros(2)}
        w = ChannelWeighter(eta=0.7, warmup_steps=0)
        rng = np.random.default_rng(12)
        for scale in rng.uniform(0.0, 1.0, size=300) * 10.0 ** rng.integers(-3, 6, size=300):
            losses = rng.uniform(0.0, 1.0, size=4) * scale
            w.update(*losses.tolist())
            for key, pair in (("slow", losses[:2]), ("merge", losses[2:])):
                y = pair - comps[key]
                t = totals[key] + y
                comps[key] = (t - totals[key]) - y
                totals[key] = t
            assert w._slow.totals == totals["slow"].tolist()
            assert w._merge.totals == totals["merge"].tolist()


class TestRoleFlip:
    def test_fast_crosses_within_window_but_slow_lags(self):
        eta, window = 0.5, 5
        w = ChannelWeighter(eta=eta, fast_window=window, warmup_steps=0)
        head = 20  # forecaster 1 loses for `head` steps, then roles flip
        for _ in range(head):
            w.update(1.0, 0.0, 0.5, 0.5)
        assert w.fast_weight() < 0.5
        assert w.w_slow < 0.5
        crossed_fast_at = None
        crossed_slow_at = None
        for step in range(1, 3 * head):
            w.update(0.0, 1.0, 0.5, 0.5)
            if crossed_fast_at is None and w.fast_weight() > 0.5:
                crossed_fast_at = step
            if crossed_slow_at is None and w.w_slow > 0.5:
                crossed_slow_at = step
        assert crossed_fast_at is not None and crossed_fast_at <= window
        # the slow weight cannot cross until the cumulative sums cross
        assert crossed_slow_at is not None and crossed_slow_at > head


class TestRegretBound:
    def _simulate(self, losses, eta):
        """Linear-loss regret of the exponentially weighted forecaster."""
        t_steps, k = losses.shape
        w = np.full(k, 1.0 / k)
        incurred = 0.0
        for row in losses:
            incurred += float(w @ row)  # predict with the prior weights
            w = exp_weight_step(w, row, eta)
        return incurred - losses.sum(axis=0).min()

    def test_weighter_follows_the_bounded_recursion(self):
        # the bound holds for exp_weight_step, which ChannelWeighter never
        # calls: its slow and merge weights are two-way softmaxes of loss
        # sums. After every update they must equal exp_weight_step from
        # [0.5, 0.5] over the loss pairs absorbed after warm-up
        rng = np.random.default_rng(1100)
        for _ in range(50):
            eta, warmup = float(rng.uniform(0.05, 3.0)), int(rng.integers(0, 4))
            w = ChannelWeighter(eta=eta, warmup_steps=warmup)
            slow = merge = np.array([0.5, 0.5])
            for step, losses in enumerate(rng.uniform(0.0, 3.0, size=(300, 4))):
                w.update(*losses)
                if step >= warmup:
                    slow = exp_weight_step(slow, losses[:2], eta)
                    merge = exp_weight_step(merge, losses[2:], eta)
                assert abs(w.w_slow - slow[0]) <= 1e-12, (eta, warmup, step)
                assert abs(w.beta_merge - merge[0]) <= 1e-12, (eta, warmup, step)

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("horizon", [10, 100, 1000])
    def test_bound_never_violated(self, k, horizon):
        rng = np.random.default_rng(1000 + horizon + k)
        l_max = 3.0
        eta = (1.0 / l_max) * math.sqrt(8.0 * math.log(k) / horizon)
        bound = l_max * math.sqrt(horizon / 2.0 * math.log(k))
        for _ in range(25):
            losses = rng.uniform(0.0, l_max, size=(horizon, k))
            assert self._simulate(losses, eta) <= bound + 1e-9
