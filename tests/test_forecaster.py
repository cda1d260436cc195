"""Tests for the online spectral ridge forecaster.

Independent oracles: batch inverses built from the accumulated design
matrix, the Sherman-Morrison rank-1 closed form, a two-pass variance
computation, plain time-domain ridge regression, a least-squares ridge on
the stacked design, a complex ridge over conjugate-augmented spectra, and
the eager-inverse ridge update (:class:`OracleRidge`).
"""

import json
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from oracle import paired_stop, spectral_chain_predict

from adapts.errors import CorruptSeries, IllConditionedUpdate, InvalidConfig, ShapeMismatch
from adapts.forecaster import (
    CONDITION_LIMIT,
    SIGMA_FLOOR,
    ChannelStats,
    OnlineForecaster,
    SamplePair,
    SpectralRidge,
    _accumulate_rows,
    _coefficient_bins,
    _real_coefficients,
    _strict_lower,
    environment_stamp,
    load_forecaster,
    moments_pay,
    save_forecaster,
    woodbury_pays,
)
from adapts.spectral import (
    Spectrum,
    forward_rft,
    inverse_rft,
    lowpass,
    pad_spectrum,
)


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def batch_inverse(all_rows, lam):
    """Direct inverse of (X*X + lam I) from the full accumulated design."""
    d = all_rows.shape[1]
    return np.linalg.inv(all_rows.conj().T @ all_rows + lam * np.eye(d))


def rel_frobenius(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def hermitize(m):
    return (m + m.conj().T) / 2.0


class OracleRidge:
    """The ridge update without block-RLS weights or the lazy inverse: it
    keeps ``a_inv`` after every block, tests the Woodbury inner matrix by
    its condition number and sets ``weight = a_inv @ cross``. ``method`` is
    the path to take, "woodbury" or "direct"."""

    def __init__(self, dim_in, dim_out, lam):
        self.dim_in, self.lam = dim_in, float(lam)
        self.a_inv = np.eye(dim_in) / lam
        self.gram = np.zeros((dim_in, dim_in))
        self.cross = np.zeros((dim_in, dim_out))
        self.weight = np.zeros((dim_in, dim_out))
        self.n_samples = 0

    def absorb(self, rows_in, rows_out, method):
        m = rows_in.shape[0]
        new_a_inv = None
        if method == "woodbury":
            t = self.a_inv @ rows_in.conj().T
            inner = np.eye(m) + rows_in @ t
            if np.linalg.cond(inner) > CONDITION_LIMIT:
                raise IllConditionedUpdate("inner solve condition exceeds the limit")
            new_a_inv = hermitize(self.a_inv - t @ np.linalg.solve(inner, t.conj().T))
        self.gram = self.gram + rows_in.conj().T @ rows_in
        self.cross = self.cross + rows_in.conj().T @ rows_out
        self.n_samples += m
        if new_a_inv is None:
            new_a_inv = hermitize(np.linalg.inv(self.gram + self.lam * np.eye(self.dim_in)))
        self.a_inv = new_a_inv
        self.weight = self.a_inv @ self.cross


def exact_weight(model):
    """The ridge weight solved directly from a model's Gram and cross sums."""
    return np.linalg.solve(model.gram + model.lam * np.eye(model.dim_in), model.cross)


def ridge_state(model):
    return {name: np.copy(getattr(model, name))
            for name in ("a_inv", "gram", "cross", "weight", "n_samples")}


def augment(row, n):
    """Complex oracle design row: the kept bins of a length-``n`` signal
    followed by the conjugates of those with a negative-frequency twin."""
    return np.concatenate([row, np.conj(row[1:paired_stop(n, len(row))])])


def real_rows(f, pairs):
    """Design and target rows of ``pairs`` through the scalar embedding."""
    emb = [f.embed_pair(p) for p in pairs]
    return (np.stack([_real_coefficients(c, f.context_length) for c, _ in emb]),
            np.stack([_real_coefficients(t, f.horizon) for _, t in emb]))


def configs(shapes):
    """``(L, H, alpha, instance_norm, channel_scaling)`` for each shape and
    both settings of each flag."""
    return [(L, H, alpha, instance_norm, channel_scaling)
            for L, H, alpha in shapes
            for instance_norm in (True, False)
            for channel_scaling in (True, False)]


# (context_length, horizon, alpha): even L keeping the Nyquist bin, odd L
# with a partial filter, and a filter keeping the DC bin alone
SHAPES = [(16, 4, 1.0), (17, 5, 0.8), (10, 4, 0.01)]
CONFIGS = configs(SHAPES)
# plus a horizon of one, for the tests whose reference embeds no pair:
# fit and fit_slab take H = 1, but forward_rft, and so embed_pair, needs
# two samples
CONFIGS_H1 = CONFIGS + configs([(12, 1, 1.0), (13, 1, 0.9)])


def fitted_pair_of_forecasters(config, seed):
    """Two identical forecasters with the same channel statistics over six
    observed channels of scales decades apart, plus a generator for random
    pair blocks cut from channels 0, 1, 2 and 5."""
    L, H, alpha, instance_norm, channel_scaling = config
    rng = np.random.default_rng(seed)
    twins = [OnlineForecaster(L, H, 2, lam=2.0, alpha=alpha, instance_norm=instance_norm,
                              channel_scaling=channel_scaling) for _ in range(2)]
    for v in rng.normal(size=(25, 6)) * [1.0, 6.0, 0.05, 1.0, 1.0, 40.0]:
        for f in twins:
            f.observe_values(v)

    def block(n):
        return [SamplePair(rng.normal(size=L) + 4.0, rng.normal(size=H) + 4.0,
                           int(rng.choice([0, 1, 2, 5]))) for _ in range(n)]

    return twins, block, rng


class TestConstruction:
    def test_default_filter_dimensions(self):
        f = OnlineForecaster(520, 96, 24, lam=20.0, alpha=0.9)
        assert f.filter.context_bins == 235
        assert f.filter.target_bins == 45
        # conjugate columns for the 234 non-DC retained bins
        assert f.design_dim == 469
        np.testing.assert_allclose(f.core.a_inv, np.eye(469) / 20.0)
        assert f.n_samples == 0

    def test_unfiltered_small_model(self):
        f = OnlineForecaster(4, 2, 1, lam=1.0, alpha=1.0)
        assert f.filter.context_bins == 3
        assert f.filter.target_bins == 2
        # bins 0 and 2 (Nyquist) are self-conjugate, bin 1 gets a twin
        assert f.design_dim == 4
        np.testing.assert_array_equal(f.core.a_inv, np.eye(4, dtype=complex))
        np.testing.assert_array_equal(f.core.cross, np.zeros((4, 2)))

    def test_real_layout_dimensions(self):
        # L=128 keeps 59 of 65 bins: DC plus 58 (Re, Im) pairs; H=24 keeps
        # 12 of 13: DC plus 11 pairs
        f = OnlineForecaster(128, 24, 24, lam=20.0, alpha=0.9)
        assert f.design_dim == 117
        assert f.core.dim_out == 23
        # L=520 and H=96 keep 235 and 45 bins, none of them Nyquist
        assert OnlineForecaster(520, 96, 24).core.dim_out == 89
        # H=4 with alpha=1 keeps Nyquist: DC, one pair, Nyquist
        assert OnlineForecaster(16, 4, 2, alpha=1.0).core.dim_out == 4
        assert f.core.a_inv.dtype == np.float64

    def test_tiny_alpha_keeps_dc_only(self):
        f = OnlineForecaster(10, 4, 2, lam=1.0, alpha=0.01)
        assert f.filter.context_bins == 1
        assert f.design_dim == 1

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(InvalidConfig):
            OnlineForecaster(10, 4, 12)  # seasonality > context
        with pytest.raises(InvalidConfig):
            OnlineForecaster(10, 0, 2)
        with pytest.raises(InvalidConfig):
            OnlineForecaster(10, 4, 2, lam=0.0)
        with pytest.raises(InvalidConfig):
            OnlineForecaster(10, 4, 2, alpha=1.5)

    @pytest.mark.parametrize("lam", [np.inf, np.nan, 0.0, -1.0])
    def test_ridge_coefficient_must_be_positive_and_finite(self, lam):
        # under lam = inf a refit and a Woodbury step each left a zero weight
        with pytest.raises(InvalidConfig, match="ridge coefficient must be positive and finite"):
            SpectralRidge(3, 2, lam)
        with pytest.raises(InvalidConfig, match="ridge coefficient must be positive and finite"):
            OnlineForecaster(10, 4, 2, lam=lam)


class TestChannelStats:
    def test_constant_channel_has_zero_variance_and_floored_std(self):
        st = ChannelStats()
        for _ in range(4):
            st.observe([2.0])
        assert st.variance()[0] == 0.0
        assert st.std()[0] == 1e-8

    def test_matches_two_pass_oracle(self):
        st = ChannelStats()
        vals = [1.0, 2.0, 3.0, 4.0, 5.0]
        for v in vals:
            st.observe([v])
        assert st.means[0] == pytest.approx(np.mean(vals))
        assert st.variance()[0] == pytest.approx(np.var(vals, ddof=1))
        # random streams against the textbook two-pass formula
        rng = np.random.default_rng(12)
        st2 = ChannelStats()
        xs = rng.normal(3.0, 2.5, size=200)
        for v in xs:
            st2.observe([v])
        assert st2.variance()[0] == pytest.approx(np.var(xs, ddof=1), rel=1e-12)

    def test_channels_do_not_mix(self):
        st = ChannelStats()
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 1.0, size=50)
        b = rng.normal(100.0, 9.0, size=50)
        for x, y in zip(a, b):
            st.observe([x, y])
        assert st.means[0] == pytest.approx(a.mean())
        assert st.means[1] == pytest.approx(b.mean())
        assert st.variance()[0] == pytest.approx(np.var(a, ddof=1))
        assert st.variance()[1] == pytest.approx(np.var(b, ddof=1))

    def test_fewer_than_two_observations_scale_one(self):
        st = ChannelStats()
        st.observe([7.0, -3.0])
        assert st.std().tolist() == [1.0, 1.0]
        assert st.variance().tolist() == [0.0, 0.0]

    def test_arrays_span_the_observed_channels(self):
        st = ChannelStats()
        assert st.variance().shape == st.std().shape == (0,)
        for v in ([1.0, 5.0], [2.0, 9.0], [4.0, 1.0]):
            st.observe(v)
        assert st.variance().shape == st.std().shape == (2,)

    def test_block_matches_row_by_row(self):
        rng = np.random.default_rng(5)
        rows = rng.normal([3.0, -40.0, 1e4], [2.5, 0.1, 300.0], size=(237, 3))
        by_row, by_block = ChannelStats(), ChannelStats()
        for row in rows:
            by_row.observe(row)
        for lo, hi in ((0, 1), (1, 2), (2, 101), (101, 237)):
            by_block.observe(rows[lo:hi])
        assert by_block.count == by_row.count == len(rows)
        np.testing.assert_allclose(by_block.means, by_row.means, rtol=1e-12)
        for ch in range(3):
            assert by_block.variance()[ch] == pytest.approx(by_row.variance()[ch], rel=1e-12)
            assert by_block.variance()[ch] == pytest.approx(np.var(rows[:, ch], ddof=1),
                                                            rel=1e-12)

    def test_channel_bits_do_not_depend_on_block_width(self):
        # the per-channel run's equality with one-channel runs rests on this
        rng = np.random.default_rng(6)
        rows = rng.normal(7.0, 3.0, size=(300, 4))
        for ch in range(4):
            wide, alone = ChannelStats(), ChannelStats()
            for lo, hi in ((0, 31), (31, 32), (32, 160), (160, 300)):
                wide.observe(rows[lo:hi])
                alone.observe(rows[lo:hi, ch:ch + 1])
            assert wide.means[ch] == alone.means[0]
            assert wide.m2s[ch] == alone.m2s[0]

    def test_large_offset_stream_keeps_its_variance(self):
        rng = np.random.default_rng(7)
        xs = 1e8 + rng.normal(0.0, 1.0, size=10_000)
        st = ChannelStats()
        for block in xs.reshape(100, 100, 1):
            st.observe(block)
        mean = math.fsum(xs) / len(xs)
        expected = math.fsum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
        assert st.variance()[0] == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("rows", [np.zeros((0, 2)), np.zeros((2, 0)), np.zeros(0),
                                      np.zeros((2, 3, 2)), 5.0])
    def test_empty_block_or_other_rank_rejected(self, rows):
        st = ChannelStats()
        with pytest.raises(ShapeMismatch, match="non-empty block"):
            st.observe(rows)
        assert st.count == 0 and st.means.size == 0

    @pytest.mark.parametrize("rows", [np.ones((2, 3)), np.ones(1)])
    def test_changed_channel_count_rejected(self, rows):
        st = ChannelStats()
        st.observe(np.arange(4.0).reshape(2, 2))
        before = (st.count, st.means.tobytes(), st.m2s.tobytes())
        with pytest.raises(ShapeMismatch, match="channel count changed from 2 to"):
            st.observe(rows)
        assert (st.count, st.means.tobytes(), st.m2s.tobytes()) == before


class TestEmbed:
    def test_constant_context_embeds_to_zero(self):
        f = OnlineForecaster(4, 2, 1, lam=1.0, alpha=1.0)
        ctx_row, _ = f.embed_pair(SamplePair(np.full(4, 5.0), np.array([1.0, 2.0]), 0))
        np.testing.assert_allclose(ctx_row, 0.0, atol=1e-12)

    def test_channel_std_scales_rows_linearly(self):
        pair = SamplePair(np.array([1.0, 4.0, 2.0, 3.0]), np.array([5.0, 6.0]), 0)
        f1 = OnlineForecaster(4, 2, 1, lam=1.0, alpha=1.0)
        f2 = OnlineForecaster(4, 2, 1, lam=1.0, alpha=1.0)
        # drive the running std of f2 to twice that of f1
        for v in (0.0, 2.0):
            f1.observe_values([v])
        for v in (0.0, 4.0):
            f2.observe_values([v])
        assert f2.stats.std()[0] == pytest.approx(2 * f1.stats.std()[0])
        c1, t1 = f1.embed_pair(pair)
        c2, t2 = f2.embed_pair(pair)
        np.testing.assert_allclose(c2, c1 / 2, rtol=1e-12)
        np.testing.assert_allclose(t2, t1 / 2, rtol=1e-12)

    def test_alternating_context_matches_dft(self):
        f = OnlineForecaster(4, 2, 1, lam=1.0, alpha=1.0)
        ctx_row, _ = f.embed_pair(SamplePair(np.array([0.0, 1.0, 0.0, 1.0]),
                                             np.array([0.0, 0.0]), 0))
        expected = lowpass(forward_rft(np.array([-0.5, 0.5, -0.5, 0.5])), 3).bins
        np.testing.assert_allclose(ctx_row, expected, atol=1e-12)

    def test_wrong_lengths_rejected(self):
        f = OnlineForecaster(4, 2, 1)
        with pytest.raises(ShapeMismatch):
            f.embed_pair(SamplePair(np.zeros(5), np.zeros(2), 0))
        with pytest.raises(ShapeMismatch):
            f.embed_pair(SamplePair(np.zeros(4), np.zeros(3), 0))

    @pytest.mark.parametrize("channel_scaling", [True, False])
    def test_negative_channel_rejected(self, channel_scaling):
        f = OnlineForecaster(4, 2, 1, channel_scaling=channel_scaling)
        for v in ([1.0, 5.0], [2.0, 9.0]):
            f.observe_values(v)
        with pytest.raises(ShapeMismatch, match="non-negative"):
            f.embed_pair(SamplePair(np.arange(4.0), np.zeros(2), -1))


class TestSpectralRidge:
    def test_woodbury_matches_batch_inverse_over_schedules(self):
        rng = np.random.default_rng(42)
        for d in (4, 12):
            for _ in range(10):
                lam = float(rng.uniform(0.5, 30.0))
                model = SpectralRidge(d, 3, lam)
                seen = []
                for _ in range(rng.integers(2, 12)):
                    m = int(rng.integers(1, d))
                    rows = random_complex(rng, (m, d))
                    outs = random_complex(rng, (m, 3))
                    model.absorb(rows, outs, method="woodbury")
                    seen.append(rows)
                oracle = batch_inverse(np.vstack(seen), lam)
                assert rel_frobenius(model.a_inv, oracle) < 1e-8

    def test_direct_and_mixed_paths_agree_with_batch(self):
        rng = np.random.default_rng(7)
        d = 6
        model = SpectralRidge(d, 2, 3.0)
        seen = []
        for m in (2, 9, 1, 6, 14, 3):  # alternates Woodbury and direct
            rows = random_complex(rng, (m, d))
            outs = random_complex(rng, (m, 2))
            model.absorb(rows, outs, method="woodbury" if m < d else "direct")
            seen.append(rows)
        oracle = batch_inverse(np.vstack(seen), 3.0)
        assert rel_frobenius(model.a_inv, oracle) < 1e-10

    def test_rank_one_update_matches_sherman_morrison(self):
        rng = np.random.default_rng(3)
        d = 5
        model = SpectralRidge(d, 2, 2.0)
        model.absorb(random_complex(rng, (8, d)), random_complex(rng, (8, 2)))
        a_prev = model.a_inv.copy()
        row = random_complex(rng, (1, d))
        model.absorb(row, random_complex(rng, (1, 2)), method="woodbury")
        u = row[0].conj()
        denom = 1.0 + (row[0] @ a_prev @ u)
        oracle = a_prev - np.outer(a_prev @ u, row[0] @ a_prev) / denom
        assert rel_frobenius(model.a_inv, oracle) < 1e-12

    def test_zero_rows_leave_inverse_and_cross_unchanged(self):
        rng = np.random.default_rng(5)
        d = 4
        model = SpectralRidge(d, 2, 1.0)
        model.absorb(random_complex(rng, (6, d)), random_complex(rng, (6, 2)))
        a_prev = model.a_inv.copy()
        cross_prev = model.cross.copy()
        n_prev = model.n_samples
        m = 3
        model.absorb(np.zeros((m, d), dtype=complex), random_complex(rng, (m, 2)),
                     method="woodbury")
        np.testing.assert_allclose(model.a_inv, a_prev, atol=1e-14)
        np.testing.assert_array_equal(model.cross, cross_prev)
        assert model.n_samples == n_prev + m

    def test_inverse_of_an_empty_gram_is_identity_over_lam(self):
        # bit for bit, so the first Woodbury step starts from I / lam;
        # complex zero rows make the Gram complex but leave it zero
        for lam, d in ((20.0, 1), (3.7, 6), (1e-13, 117), (20.0, 469)):
            fresh = SpectralRidge(d, 2, lam)
            assert fresh.a_inv.tobytes() == (np.eye(d) / lam).tobytes()
            fresh.absorb(np.zeros((d, d), dtype=complex), np.ones((d, 2), dtype=complex),
                         method="direct")
            assert fresh.a_inv.tobytes() == (np.eye(d, dtype=complex) / lam).tobytes()

    def test_weight_equals_closed_form_ridge_solution(self):
        rng = np.random.default_rng(9)
        d, k, lam = 6, 3, 4.0
        model = SpectralRidge(d, k, lam)
        seen_x, seen_y = [], []
        for m in (4, 2, 7, 1):
            x = random_complex(rng, (m, d))
            y = random_complex(rng, (m, k))
            model.absorb(x, y)
            seen_x.append(x)
            seen_y.append(y)
        x_all, y_all = np.vstack(seen_x), np.vstack(seen_y)
        oracle = np.linalg.solve(x_all.conj().T @ x_all + lam * np.eye(d),
                                 x_all.conj().T @ y_all)
        np.testing.assert_allclose(model.weight, oracle, rtol=1e-9, atol=1e-12)

    def test_cached_weight_minimizes_ridge_objective(self):
        rng = np.random.default_rng(21)
        d, k, lam = 5, 2, 2.5
        model = SpectralRidge(d, k, lam)
        x = random_complex(rng, (30, d))
        y = random_complex(rng, (30, k))
        model.absorb(x, y)

        def objective(w):
            return (np.linalg.norm(x @ w - y) ** 2 + lam * np.linalg.norm(w) ** 2)

        base = objective(model.weight)
        for _ in range(50):
            delta = random_complex(rng, (d, k))
            delta *= 1e-3 / np.linalg.norm(delta)
            assert objective(model.weight + delta) > base

    def test_hermitian_preserved_over_many_updates(self):
        rng = np.random.default_rng(13)
        d = 8
        model = SpectralRidge(d, 2, 1.0)
        for _ in range(1000):
            m = int(rng.integers(1, 4))
            model.absorb(random_complex(rng, (m, d)), random_complex(rng, (m, 2)),
                         method="woodbury")
        herm_gap = np.linalg.norm(model.a_inv - model.a_inv.conj().T)
        assert herm_gap / np.linalg.norm(model.a_inv) < 1e-8

    def test_forced_woodbury_raises_on_ill_conditioned_block(self):
        # near-zero ridge plus duplicated rows blows up the inner solve's
        # condition number while the regularized Gram stays invertible
        rows = np.zeros((2, 3), dtype=complex)
        rows[:, 0] = 1.0
        outs = np.ones((2, 1), dtype=complex)
        model = SpectralRidge(3, 1, 1e-13)
        with pytest.raises(IllConditionedUpdate):
            model.absorb(rows, outs, method="woodbury")
        # auto mode absorbs the same block through the direct fallback
        model2 = SpectralRidge(3, 1, 1e-13)
        model2.absorb(rows, outs, method="auto")
        assert model2.n_samples == 2

    def test_shape_validation(self):
        model = SpectralRidge(3, 2, 1.0)
        with pytest.raises(ShapeMismatch):
            model.absorb(np.zeros((0, 3), dtype=complex), np.zeros((0, 2), dtype=complex))
        with pytest.raises(ShapeMismatch):
            model.absorb(np.zeros((2, 4), dtype=complex), np.zeros((2, 2), dtype=complex))


class TestRealSpectralRidge:
    """The ridge on real rows, as the forecaster feeds it: the state stays
    float64 and every path agrees with the batch oracles."""

    def test_woodbury_matches_batch_inverse_over_schedules(self):
        rng = np.random.default_rng(44)
        for d in (4, 12):
            for _ in range(10):
                lam = float(rng.uniform(0.5, 30.0))
                model = SpectralRidge(d, 3, lam)
                seen = []
                for _ in range(rng.integers(2, 12)):
                    rows = rng.normal(size=(int(rng.integers(1, d)), d))
                    model.absorb(rows, rng.normal(size=(rows.shape[0], 3)), method="woodbury")
                    seen.append(rows)
                assert rel_frobenius(model.a_inv, batch_inverse(np.vstack(seen), lam)) < 1e-8
                assert model.a_inv.dtype == model.weight.dtype == np.float64

    def test_direct_and_mixed_paths_agree_with_batch(self):
        rng = np.random.default_rng(8)
        d, lam = 6, 3.0
        model = SpectralRidge(d, 2, lam)
        seen_x, seen_y = [], []
        for m in (2, 9, 1, 6, 14, 3):  # alternates Woodbury and direct
            seen_x.append(rng.normal(size=(m, d)))
            seen_y.append(rng.normal(size=(m, 2)))
            model.absorb(seen_x[-1], seen_y[-1], method="woodbury" if m < d else "direct")
        x, y = np.vstack(seen_x), np.vstack(seen_y)
        assert rel_frobenius(model.a_inv, batch_inverse(x, lam)) < 1e-10
        oracle = np.linalg.solve(x.T @ x + lam * np.eye(d), x.T @ y)
        np.testing.assert_allclose(model.weight, oracle, rtol=1e-9, atol=1e-12)
        for name in ("a_inv", "gram", "cross", "weight"):
            assert getattr(model, name).dtype == np.float64, name

    def test_symmetric_over_many_updates(self):
        rng = np.random.default_rng(14)
        d = 8
        model = SpectralRidge(d, 2, 1.0)
        for _ in range(1000):
            m = int(rng.integers(1, 4))
            model.absorb(rng.normal(size=(m, d)), rng.normal(size=(m, 2)), method="woodbury")
        gap = np.linalg.norm(model.a_inv - model.a_inv.T)
        assert gap / np.linalg.norm(model.a_inv) < 1e-8

    def test_forced_woodbury_raises_on_ill_conditioned_block(self):
        rows = np.zeros((2, 3))
        rows[:, 0] = 1.0
        outs = np.ones((2, 1))
        with pytest.raises(IllConditionedUpdate):
            SpectralRidge(3, 1, 1e-13).absorb(rows, outs, method="woodbury")
        model = SpectralRidge(3, 1, 1e-13)
        model.absorb(rows, outs, method="auto")
        assert model.n_samples == 2
        assert model.a_inv.dtype == np.float64


class TestAbsorbMoments:
    """The refit from block sums: its guards leave the model as it was, and
    the direct refit of :meth:`SpectralRidge.absorb` is exactly this refit
    from the rows' own sums."""

    @staticmethod
    def primed(seed=31, d=5, k=2, lam=2.0):
        # integer rows keep every Gram entry exact, so negating the Gram
        # cancels it to the last bit
        rng = np.random.default_rng(seed)
        model = SpectralRidge(d, k, lam)
        model.absorb(rng.integers(-3, 4, size=(7, d)).astype(float),
                     rng.integers(-3, 4, size=(7, k)).astype(float), method="direct")
        assert model.a_inv.shape == (d, d)  # computed now, so a raise must keep it
        return model

    @staticmethod
    def state(model):
        held = {name: getattr(model, name) for name in ("_a_inv", "gram", "cross", "weight")}
        return {**{name: value.tobytes() for name, value in held.items()},
                "n_samples": model.n_samples, "last_path": model.last_path}

    @pytest.mark.parametrize("xtx_shape, xty_shape, n_rows", [
        ((5, 4), (5, 2), 3), ((4, 5), (5, 2), 3), ((5, 5), (5, 3), 3), ((5, 5), (2,), 3),
        ((5, 5), (5, 2), 0), ((5, 5), (5, 2), -1),
    ])
    def test_bad_block_raises_shape_mismatch_and_leaves_model(self, xtx_shape, xty_shape, n_rows):
        model = self.primed()
        before = self.state(model)
        with pytest.raises(ShapeMismatch):
            model.absorb_moments(np.eye(*xtx_shape), np.ones(xty_shape), n_rows)
        assert self.state(model) == before

    def test_singular_regularized_gram_raises_and_leaves_model(self):
        model = self.primed()
        before = self.state(model)
        xtx = -model.gram - model.lam * np.eye(model.dim_in)
        with pytest.raises(IllConditionedUpdate, match="regularized Gram is singular"):
            model.absorb_moments(xtx, np.ones((model.dim_in, model.dim_out)), 4)
        assert self.state(model) == before

    def test_direct_absorb_is_the_refit_from_its_rows_sums(self):
        rng = np.random.default_rng(32)
        x, y = rng.normal(size=(9, 5)), rng.normal(size=(9, 2))
        rows, twin = self.primed(), self.primed()
        rows.absorb(x, y, method="direct")
        twin.absorb_moments(x.T @ x, x.T @ y, len(x))
        assert (rows.last_path, twin.last_path) == ("direct", "moments")
        for name, value in ridge_state(rows).items():
            assert value.tobytes() == ridge_state(twin)[name].tobytes(), name


class TestLeanRidge:
    """The ridge against :class:`OracleRidge`: same accumulators and inverse
    on the same path, a weight at least as close to the exact solve, the
    switch rule, the lazy inverse and the fallback tests."""

    D, K = 24, 5
    # below d/3 (the Woodbury step), in [d/3, d/2), [d/2, d) and >= d
    SIZES = (2, 5, 8, 11, 14, 20, 24, 37)

    @pytest.mark.parametrize("complex_rows", [False, True])
    def test_state_matches_oracle_over_mixed_schedules(self, complex_rows):
        rng = np.random.default_rng(31 + complex_rows)
        d, k = self.D, self.K

        def draw(shape):
            return random_complex(rng, shape) if complex_rows else rng.normal(size=shape)

        for _ in range(6):
            lam = float(rng.uniform(0.5, 30.0))
            lean, oracle = SpectralRidge(d, k, lam), OracleRidge(d, k, lam)
            for i, m in enumerate(rng.permutation(np.repeat(self.SIZES, 2))):
                x, y = draw((m, d)), draw((m, k))
                lean.absorb(x, y)
                assert lean.last_path == ("woodbury" if woodbury_pays(m, d) else "direct")
                assert lean.last_fallback is None
                oracle.absorb(x, y, lean.last_path)
                assert lean.n_samples == oracle.n_samples
                for name in ("gram", "cross"):
                    assert rel_frobenius(getattr(lean, name), getattr(oracle, name)) <= 1e-12
                # both weights sit at rounding level here; allow a few ulps
                exact = exact_weight(lean)
                assert (rel_frobenius(lean.weight, exact)
                        <= rel_frobenius(oracle.weight, exact) + 4 * np.finfo(float).eps)
                if i % 5 == 4:  # reading a_inv fills it; most direct steps leave it unread
                    assert rel_frobenius(lean.a_inv, oracle.a_inv) <= 1e-12
            assert rel_frobenius(lean.a_inv, oracle.a_inv) <= 1e-12
            assert lean.a_inv.dtype == lean.weight.dtype == (complex if complex_rows else float)

    def test_weight_beats_oracle_on_long_ill_conditioned_run(self):
        # column scales over 3.5 decades give a regularized Gram with
        # condition ~1e6; the oracle's a_inv @ cross then drifts
        # from the exact solve by ~1e-12, the block-RLS weight by ~1e-13
        rng = np.random.default_rng(37)
        d, scales = 60, np.logspace(0, -3.5, 60)
        truth = rng.normal(size=(d, 4))
        lean, oracle = SpectralRidge(d, 4, 1e-3), OracleRidge(d, 4, 1e-3)
        for _ in range(300):
            x = rng.normal(size=(5, d)) * scales
            y = x @ truth + 0.1 * rng.normal(size=(5, 4))
            lean.absorb(x, y)
            assert lean.last_path == "woodbury"
            oracle.absorb(x, y, "woodbury")
        assert rel_frobenius(lean.a_inv, oracle.a_inv) <= 1e-12
        exact = exact_weight(lean)
        assert rel_frobenius(lean.weight, exact) < rel_frobenius(oracle.weight, exact) / 5

    def test_factored_step_at_the_forecaster_shape(self):
        # 50-row Woodbury steps at the paper shape (d=469, k=89) on rows
        # like the forecaster's: coefficients of a unit-variance context of
        # length 520 (std sqrt(520)) with column scales over three decades,
        # so the regularized Gram's condition number grows to ~5e4. The
        # downdate V* V must reach numpy's syrk, which a copied or non-BLAS
        # view of V would lose, to keep a_inv exactly symmetric
        rng = np.random.default_rng(59)
        d, k, lam = 469, 89, 20.0
        scales = np.logspace(0, -3, d) * np.sqrt(520)
        truth = rng.normal(size=(d, k))
        lean, oracle = SpectralRidge(d, k, lam), OracleRidge(d, k, lam)
        for _ in range(40):
            x = rng.normal(size=(50, d)) * scales
            y = x @ truth + rng.normal(size=(50, k))
            lean.absorb(x, y)
            assert lean.last_path == "woodbury"
            assert np.array_equal(lean.a_inv, lean.a_inv.T)
            oracle.absorb(x, y, "woodbury")
        for name in ("a_inv", "gram", "cross"):
            assert rel_frobenius(getattr(lean, name), getattr(oracle, name)) <= 1e-12, name
        exact = exact_weight(lean)
        assert rel_frobenius(lean.weight, exact) <= rel_frobenius(oracle.weight, exact)

    def test_switch_rule(self):
        # the measured crossovers: 0.36-0.40·d at d=469, 0.30-0.39·d at d=117
        assert woodbury_pays(155, 469) and not woodbury_pays(156, 469)
        assert woodbury_pays(38, 117) and not woodbury_pays(39, 117)
        assert not woodbury_pays(1, 3)

    def test_first_woodbury_step_on_a_fresh_ridge_inverts_no_gram(self, monkeypatch):
        # a fresh ridge's inverse is I / lam, set without factorising lam·I
        shapes, inv = [], np.linalg.inv

        def recording_inv(a):
            shapes.append(np.shape(a))
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", recording_inv)
        rng = np.random.default_rng(43)
        model = SpectralRidge(self.D, self.K, 2.0)
        model.absorb(rng.normal(size=(3, self.D)), rng.normal(size=(3, self.K)))
        assert model.last_path == "woodbury"
        assert shapes == [(3, 3)]  # the whitening factor's inverse alone

    def test_direct_then_woodbury_fills_the_lazy_inverse(self):
        rng = np.random.default_rng(41)
        d, lam = self.D, 2.0
        lean, oracle = SpectralRidge(d, 3, lam), OracleRidge(d, 3, lam)
        seen = []
        for m, path in ((30, "direct"), (3, "woodbury"), (2, "woodbury"), (12, "direct"),
                        (40, "direct"), (1, "woodbury")):
            x, y = rng.normal(size=(m, d)), rng.normal(size=(m, 3))
            lean.absorb(x, y)
            oracle.absorb(x, y, path)
            seen.append(x)
            assert lean.last_path == path
        # the last Woodbury step followed two direct refits whose inverse
        # nobody read: it recomputed a_inv from the Gram
        assert rel_frobenius(lean.a_inv, oracle.a_inv) <= 1e-12
        assert rel_frobenius(lean.a_inv, batch_inverse(np.vstack(seen), lam)) <= 1e-10
        np.testing.assert_allclose(lean.weight, oracle.weight, rtol=1e-10, atol=1e-13)

    def test_block_over_the_condition_limit_trips_the_trace_test(self):
        rng = np.random.default_rng(43)
        d, lam = 16, 1e-6
        row = rng.normal(size=(1, d)) * 1e3
        rows = np.vstack([row, row * (1 + 1e-9), rng.normal(size=(1, d))])
        outs = rng.normal(size=(3, 2))
        fresh = SpectralRidge(d, 2, lam)
        inner = np.eye(3) + rows @ fresh.a_inv @ rows.T
        assert np.linalg.cond(inner) > CONDITION_LIMIT
        before = ridge_state(fresh)
        with pytest.raises(IllConditionedUpdate, match="trace"):
            fresh.absorb(rows, outs, method="woodbury")
        for name, value in before.items():
            np.testing.assert_array_equal(getattr(fresh, name), value, err_msg=name)
        fresh.absorb(rows, outs, method="auto")
        assert (fresh.last_path, fresh.last_fallback) == ("direct", "trace")
        np.testing.assert_allclose(fresh.weight, exact_weight(fresh), rtol=1e-12)

    def test_indefinite_inverse_trips_the_cholesky_test(self):
        # a_inv can only lose positive definiteness through rounding or a
        # bad snapshot; set one directly to reach the Cholesky branch
        rng = np.random.default_rng(47)
        d = 8
        model = SpectralRidge(d, 2, 1.0)
        model.absorb(rng.normal(size=(8, d)), rng.normal(size=(8, 2)))
        model._a_inv = -model.a_inv
        rows = rng.normal(size=(1, d)) * 10.0
        assert np.trace(np.eye(1) + rows @ model.a_inv @ rows.T) < CONDITION_LIMIT
        with pytest.raises(IllConditionedUpdate, match="cholesky"):
            model.absorb(rows, rng.normal(size=(1, 2)), method="woodbury")
        assert model.n_samples == 8
        model.absorb(rows, rng.normal(size=(1, 2)))
        assert (model.last_path, model.last_fallback) == ("direct", "cholesky")
        assert model.n_samples == 9
        # the direct refit recomputes a positive definite inverse on read
        np.linalg.cholesky(model.a_inv)

    def test_rejected_block_leaves_the_model_unchanged(self):
        rng = np.random.default_rng(59)
        model = SpectralRidge(8, 2, 1.0)
        model.absorb(rng.normal(size=(12, 8)), rng.normal(size=(12, 2)))
        before = ridge_state(model)
        for error, rows_in, rows_out, method in [
            (ShapeMismatch, rng.normal(size=(2, 7)), rng.normal(size=(2, 2)), "auto"),
            (ShapeMismatch, rng.normal(size=(2, 8)), rng.normal(size=(3, 2)), "woodbury"),
            (ShapeMismatch, np.zeros((0, 8)), np.zeros((0, 2)), "direct"),
            (InvalidConfig, rng.normal(size=(2, 8)), rng.normal(size=(2, 2)), "cholesky"),
        ]:
            with pytest.raises(error):
                model.absorb(rows_in, rows_out, method=method)
            for name, value in before.items():
                np.testing.assert_array_equal(getattr(model, name), value, err_msg=name)
        assert (model.last_path, model.last_fallback) == ("direct", None)

    def test_woodbury_step_leaves_inputs_untouched(self):
        rng = np.random.default_rng(53)
        model = SpectralRidge(8, 2, 1.0)
        x, y = rng.normal(size=(1, 8)), rng.normal(size=(1, 2))
        x0, y0 = x.copy(), y.copy()
        model.absorb(x, y)
        assert model.last_path == "woodbury"
        np.testing.assert_array_equal(x, x0)
        np.testing.assert_array_equal(y, y0)


class TestPendingSums:
    """A Woodbury step leaves its rows pending; they join ``gram`` and
    ``cross`` in one product per at most ``dim_in`` rows, and reading the
    sums folds nothing."""

    D, K = 12, 3

    @staticmethod
    def state_bytes(model):
        """Every byte of a model's state, arrays and counters alike."""
        return {name: value.tobytes() if isinstance(value, np.ndarray) else value
                for name, value in vars(model).items()}

    def test_read_sums_equal_the_direct_sums_after_several_folds(self):
        rng = np.random.default_rng(83)
        d, k = self.D, self.K
        model = SpectralRidge(d, k, 2.0)
        all_in, all_out, folds = [], [], 0
        # real steps of 3 rows (below d // 3), a forced Woodbury block of
        # more than d rows, then complex steps that convert the state
        schedule = [(3, "auto", False)] * 9 + [(d + 3, "woodbury", False)] + \
            [(2, "auto", False)] * 3 + [(3, "auto", True)] * 6
        for m, method, complex_rows in schedule:
            x = random_complex(rng, (m, d)) if complex_rows else rng.normal(size=(m, d))
            y = random_complex(rng, (m, k)) if complex_rows else rng.normal(size=(m, k))
            before = model.pending
            model.absorb(x, y, method=method)
            assert model.last_path == "woodbury"
            folds += model.pending < before + m and before > 0
            all_in.append(x)
            all_out.append(y)
            x_all, y_all = np.vstack(all_in), np.vstack(all_out)
            assert rel_frobenius(model.gram, x_all.conj().T @ x_all) <= 1e-12
            assert rel_frobenius(model.cross, x_all.conj().T @ y_all) <= 1e-12
        assert folds >= 3 and model.pending > 0
        assert model.gram.dtype == model.cross.dtype == complex
        assert rel_frobenius(model.weight, exact_weight(model)) <= 1e-12

    def test_reading_the_sums_changes_no_state_byte(self):
        rng = np.random.default_rng(89)
        model = SpectralRidge(self.D, self.K, 2.0)
        for _ in range(3):
            model.absorb(rng.normal(size=(2, self.D)), rng.normal(size=(2, self.K)))
        assert model.pending == 6
        before = self.state_bytes(model)
        first = model.gram.tobytes(), model.cross.tobytes()
        assert (model.gram.tobytes(), model.cross.tobytes()) == first
        assert self.state_bytes(model) == before

    def test_folded_sums_stay_fixed_until_the_block_fills(self):
        rng = np.random.default_rng(97)
        d = self.D
        model = SpectralRidge(d, self.K, 2.0)
        model.absorb(rng.normal(size=(2 * d, d)), rng.normal(size=(2 * d, self.K)))
        assert model.last_path == "direct"
        for step in range(3 * d):
            folded = model._gram.tobytes(), model._cross.tobytes()
            full = model.pending + 3 > d
            model.absorb(rng.normal(size=(3, d)), rng.normal(size=(3, self.K)))
            assert model.last_path == "woodbury"
            assert ((model._gram.tobytes(), model._cross.tobytes()) == folded) != full, step
            assert model.pending == (3 if full else 3 * (step % (d // 3) + 1))

    def test_a_refit_folds_the_pending_block(self):
        rng = np.random.default_rng(101)
        d = self.D
        model = SpectralRidge(d, self.K, 2.0)
        model.absorb(rng.normal(size=(2, d)), rng.normal(size=(2, self.K)))
        pending = model.gram, model.cross
        xtx, xty = np.eye(d), np.ones((d, self.K))
        model.absorb_moments(xtx, xty, 5)
        assert model.pending == 0 and model.n_samples == 7
        assert model.gram.tobytes() == (pending[0] + xtx).tobytes()
        assert model.cross.tobytes() == (pending[1] + xty).tobytes()

    def test_a_refit_only_model_allocates_no_pending_block(self):
        rng = np.random.default_rng(103)
        model = SpectralRidge(self.D, self.K, 2.0)
        for m in (20, 5, 30):
            model.absorb(rng.normal(size=(m, self.D)), rng.normal(size=(m, self.K)))
            assert model.last_path == "direct"
        assert model._rows_in is None and model._rows_out is None


class TestRealCoefficients:
    # (n, keep): Nyquist kept (even n, all bins), even n without Nyquist,
    # odd n with all bins, DC alone, and n=2 whose only other bin is Nyquist
    CASES = [(16, 9), (16, 7), (17, 9), (10, 1), (2, 2)]

    @pytest.mark.parametrize("n, keep", CASES)
    def test_unitary_transform_of_augmented_row(self, n, keep):
        rng = np.random.default_rng(n * 100 + keep)
        bins = np.fft.rfft(rng.normal(size=(5, n)), axis=1)[:, :keep]
        coefs = _real_coefficients(bins, n)
        augmented = np.stack([augment(row, n) for row in bins])
        d = augmented.shape[1]
        assert coefs.shape == (5, d)
        # augmented = coefs @ u, with u built from the layout's definition
        k = paired_stop(n, keep) - 1
        u = np.zeros((d, d), dtype=complex)
        u[0, 0] = 1.0
        for j in range(1, k + 1):
            u[j, j] = u[j, keep + j - 1] = 1 / np.sqrt(2.0)
            u[k + j, j], u[k + j, keep + j - 1] = 1j / np.sqrt(2.0), -1j / np.sqrt(2.0)
        if 2 * k + 1 < d:
            u[2 * k + 1, k + 1] = 1.0
        np.testing.assert_allclose(u @ u.conj().T, np.eye(d), atol=1e-15)
        assert np.linalg.norm(coefs @ u - augmented) <= 1e-14 * np.linalg.norm(augmented)

    # (L, alpha): alpha = 1 at an even L keeps the Nyquist column, odd L with
    # all bins and with a partial filter, the DC bin alone, and the paper's
    # and shared-l128's context shapes
    @pytest.mark.parametrize("L, alpha", [(16, 1.0), (17, 1.0), (17, 0.8), (10, 0.01),
                                          (2, 1.0), (128, 0.9), (520, 0.9)])
    def test_inverse_layout_equals_analysis(self, L, alpha):
        f = OnlineForecaster(L, 4, 1, alpha=alpha)
        keep, d = f.filter.context_bins, f.design_dim
        assert (d % 2 == 0) == (L % 2 == 0 and alpha == 1.0)   # a Nyquist column
        # column j of analysis is analysis @ e_j: L inverse real FFTs of e_j's bins
        lifted = L * np.fft.irfft(_coefficient_bins(np.eye(d), L, keep), n=L, axis=1).T
        scale = np.abs(f._analysis).max()
        assert np.abs(lifted - f._analysis).max() <= 1e-13 * scale
        coefs = np.random.default_rng(L).normal(size=(3, d))
        back = _real_coefficients(_coefficient_bins(coefs, L, keep), L)
        assert np.abs(back - coefs).max() <= 1e-15 * np.abs(coefs).max() * 4

    @pytest.mark.parametrize("config", CONFIGS_H1)
    def test_fitted_state_is_real(self, config):
        (f, _), block, _ = fitted_pair_of_forecasters(config, seed=47)
        for n in (1, 40):  # a Woodbury step where one pays, then a direct refit
            f.fit_block(block(n))
            assert f.core.last_path == ("woodbury" if woodbury_pays(n, f.design_dim) else "direct")
            for name in ("a_inv", "gram", "cross", "weight"):
                assert getattr(f.core, name).dtype == np.float64, name


class TestFitBlock:
    def _make_pairs(self, rng, f, n, channels=1):
        pairs = []
        for _ in range(n):
            ch = int(rng.integers(0, channels))
            pairs.append(SamplePair(rng.normal(size=f.context_length),
                                    rng.normal(size=f.horizon), ch))
        return pairs

    def test_fit_then_inverse_matches_embedded_design(self):
        rng = np.random.default_rng(17)
        f = OnlineForecaster(16, 4, 2, lam=5.0, alpha=0.8)
        all_rows = []
        for n in (3, 5, 2, 8):
            pairs = self._make_pairs(rng, f, n)
            all_rows.append(real_rows(f, pairs)[0])
            f.fit_block(pairs)
        oracle = batch_inverse(np.vstack(all_rows), 5.0)
        assert rel_frobenius(f.core.a_inv, oracle) < 1e-9

    def test_empty_block_rejected(self):
        f = OnlineForecaster(8, 2, 2)
        with pytest.raises(ShapeMismatch):
            f.fit_block([])

    def test_wrong_lengths_rejected(self):
        f = OnlineForecaster(8, 2, 2)
        with pytest.raises(ShapeMismatch):
            f.fit_block([SamplePair(np.zeros(8), np.zeros(2), 0),
                         SamplePair(np.zeros(7), np.zeros(2), 0)])
        with pytest.raises(ShapeMismatch):
            f.fit_block([SamplePair(np.zeros(8), np.zeros(3), 0)])
        assert f.n_samples == 0


class TestBatchedEmbedding:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_ridge_state_matches_scalar_embedding(self, config):
        (f, oracle), block, _ = fitted_pair_of_forecasters(config, seed=23)
        # block sizes below and above design_dim take both solve paths
        for n in (3, 40, 1, 12):
            pairs = block(n)
            f.fit_block(pairs)
            oracle.core.absorb(*real_rows(oracle, pairs))
            for name in ("a_inv", "gram", "cross", "weight"):
                got, want = getattr(f.core, name), getattr(oracle.core, name)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), name
        assert f.n_samples == oracle.n_samples == 56


class TestFoldedPredict:
    @pytest.mark.parametrize("config", CONFIGS_H1)
    def test_matches_spectral_chain(self, config):
        (f, _), block, rng = fitted_pair_of_forecasters(config, seed=29)
        L = config[0]
        for n in (30, 4):
            f.fit_block(block(n))
            probes = rng.normal(size=(6, L)) * 3.0 + 2.0
            want = np.stack([spectral_chain_predict(f, p) for p in probes])
            got = np.stack([f.predict(p) for p in probes])
            assert rel_frobenius(got, want) <= 1e-10
            assert rel_frobenius(f.predict(probes), want) <= 1e-10

    @pytest.mark.parametrize("config", [c for c in CONFIGS if c[3]])
    def test_matches_complex_augmented_ridge(self, config):
        # without instance norm the first 3-row fit leaves the Gram near
        # singular, where two float64 solvers legitimately differ by ~1e-9;
        # those configurations are checked against lstsq below instead
        (f, oracle), block, rng = fitted_pair_of_forecasters(config, seed=53)
        L, H = config[:2]
        complex_core = SpectralRidge(f.design_dim, f.filter.target_bins, f.lam)
        for n in (3, 40, 1, 12):
            pairs = block(n)
            f.fit_block(pairs)
            emb = [oracle.embed_pair(p) for p in pairs]
            complex_core.absorb(np.stack([augment(c, L) for c, _ in emb]),
                                np.stack([t for _, t in emb]))
            probes = rng.normal(size=(6, L)) * 3.0 + 2.0
            want = []
            for p in probes:
                mu = p.mean()
                row = lowpass(forward_rft(p - mu), f.filter.context_bins).bins
                out_bins = augment(row, L) @ complex_core.weight
                want.append(inverse_rft(pad_spectrum(Spectrum(out_bins, H))) + mu)
            assert rel_frobenius(f.predict(probes), np.stack(want)) <= 1e-10

    @pytest.mark.parametrize("config", CONFIGS)
    def test_matches_least_squares_ridge(self, config):
        (f, oracle), block, rng = fitted_pair_of_forecasters(config, seed=59)
        seen_x, seen_y = [], []
        for n in (3, 40, 1, 12):
            pairs = block(n)
            f.fit_block(pairs)
            x, y = real_rows(oracle, pairs)
            seen_x.append(x)
            seen_y.append(y)
            x, y = np.vstack(seen_x), np.vstack(seen_y)
            d = x.shape[1]
            weight = np.linalg.lstsq(np.vstack([x, np.sqrt(f.lam) * np.eye(d)]),
                                     np.vstack([y, np.zeros((d, y.shape[1]))]), rcond=None)[0]
            probes = rng.normal(size=(6, config[0])) * 3.0 + 2.0
            want = np.stack([spectral_chain_predict(f, p, weight) for p in probes])
            assert rel_frobenius(f.predict(probes), want) <= 1e-8

    def test_stack_equals_row_by_row(self):
        (f, _), block, rng = fitted_pair_of_forecasters((17, 5, 0.8, True, True), seed=31)
        f.fit_block(block(20))
        probes = rng.normal(size=(7, 17))
        stacked = f.predict(probes)
        assert stacked.shape == (7, 5)
        rows = np.stack([f.predict(p) for p in probes])
        np.testing.assert_allclose(stacked, rows, rtol=1e-12, atol=1e-12)

    def test_cold_start_tiles_each_row_of_a_stack(self):
        f = OnlineForecaster(6, 5, 2)
        ctxs = np.array([[1.0, 2.0, 3.0, 4.0, 7.0, 9.0],
                         [0.0, 0.0, 0.0, 0.0, -1.0, 5.0]])
        np.testing.assert_array_equal(f.predict(ctxs), [[7.0, 9.0, 7.0, 9.0, 7.0],
                                                        [-1.0, 5.0, -1.0, 5.0, -1.0]])
        g = OnlineForecaster(8, 2, 4)
        np.testing.assert_array_equal(g.predict(np.arange(16.0).reshape(2, 8)),
                                      [[4.0, 5.0], [12.0, 13.0]])

    def test_bad_shapes_rejected(self):
        (f, _), block, _ = fitted_pair_of_forecasters((16, 4, 1.0, True, True), seed=37)
        for fitted in (False, True):
            if fitted:
                f.fit_block(block(5))
            with pytest.raises(ShapeMismatch):
                f.predict(np.zeros((2, 3, 16)))
            with pytest.raises(ShapeMismatch):
                f.predict(np.zeros((3, 15)))
            with pytest.raises(ShapeMismatch):
                f.predict(np.zeros(17))

    def test_predict_leaves_state_untouched(self):
        (f, _), block, rng = fitted_pair_of_forecasters((16, 4, 1.0, True, True), seed=41)
        f.fit_block(block(10))
        folded = f.time_map.copy()
        weight = f.core.weight.copy()
        f.predict(rng.normal(size=(3, 16)))
        np.testing.assert_array_equal(f.time_map, folded)
        np.testing.assert_array_equal(f.core.weight, weight)


def full_refold(f, core):
    """The fold of ``core``'s weight computed in full, as a refit does."""
    return f._analysis @ (core.weight @ f._synthesis)


class TestIncrementalFold:
    """After a Woodbury step a model's fold moves by the step's rank-m
    increment; after a refit it is recomputed in full."""

    def test_stays_at_a_full_refold_over_a_chain_of_woodbury_steps(self):
        L, H, C = 128, 24, 2
        rng = np.random.default_rng(131)
        f = OnlineForecaster(L, H, 24, lam=2.0, models=C)
        f.observe_values(rng.normal(size=(30, C)) * [1.0, 5.0])
        worst = 0.0
        for step in range(300):
            m = 1 + step % 8
            f.fit_slab(rng.normal(size=(C, m + L + H - 1)) * [[1.0], [5.0]] + 2.0)
            assert [core.last_path for core in f.cores] == ["woodbury"] * C, step
            for core, fold in zip(f.cores, f.time_map):
                refold = full_refold(f, core)
                worst = max(worst, np.abs(fold - refold).max() / np.abs(refold).max())
        # a fold recomputed in full would match to the bit
        assert 0.0 < worst <= 1e-12

    def test_refit_refolds_in_full(self):
        L, H = 32, 8
        rng = np.random.default_rng(139)
        f = OnlineForecaster(L, H, 8, lam=2.0, alpha=0.8, models=2)
        f.observe_values(rng.normal(size=(30, 2)))
        for m in (3, 2, 20):   # two Woodbury steps, then a direct refit
            f.fit_slab(rng.normal(size=(2, m + L + H - 1)))
        assert [core.last_path for core in f.cores] == ["direct"] * 2
        for core, fold in zip(f.cores, f.time_map):
            assert fold.tobytes() == full_refold(f, core).tobytes()

    def test_models_absorbed_before_a_raise_are_folded(self, monkeypatch):
        # model 1's absorb raises after model 0 absorbed its 3 rows; model 0's
        # fold must already follow its weight, or it forecasts the context mean
        L, H = 16, 4
        rng = np.random.default_rng(137)
        f = OnlineForecaster(L, H, 2, lam=2.0, models=2)
        f.observe_values(rng.normal(size=(10, 2)))
        absorb = SpectralRidge.absorb

        def refuse_model_1(core, rows_in, rows_out, method="auto"):
            if core is f.cores[1]:
                raise IllConditionedUpdate("model 1 refused its block")
            return absorb(core, rows_in, rows_out, method)

        monkeypatch.setattr(SpectralRidge, "absorb", refuse_model_1)
        with pytest.raises(IllConditionedUpdate, match="model 1"):
            f.fit(rng.normal(size=(6, L)), rng.normal(size=(6, H)), np.repeat([0, 1], 3))
        assert (f.cores[0].n_samples, f.cores[1].n_samples) == (3, 0)
        refold = full_refold(f, f.cores[0])
        assert np.abs(refold).max() > 0.1
        assert np.abs(f.time_map[0] - refold).max() <= 1e-12 * np.abs(refold).max()
        assert not f.time_map[1].any()
        probes = rng.normal(size=(2, L)) * 3.0 + 1.0
        want = spectral_chain_predict(f, probes[0])
        assert rel_frobenius(f.predict(probes)[0], want) <= 1e-10


class TestPredict:
    def test_cold_start_tiles_last_season(self):
        f = OnlineForecaster(6, 5, 2)
        ctx = np.array([1.0, 2.0, 3.0, 4.0, 7.0, 9.0])
        np.testing.assert_array_equal(f.predict(ctx), [7.0, 9.0, 7.0, 9.0, 7.0])

    def test_cold_start_with_season_longer_than_horizon(self):
        f = OnlineForecaster(8, 2, 4)
        ctx = np.arange(8.0)
        np.testing.assert_array_equal(f.predict(ctx), [4.0, 5.0])

    def test_constant_context_predicts_constant_after_fit(self):
        rng = np.random.default_rng(2)
        f = OnlineForecaster(12, 3, 2, lam=1.0, alpha=0.9)
        f.observe_values([0.0])
        f.observe_values([1.0])
        f.fit_block([SamplePair(rng.normal(size=12), rng.normal(size=3), 0)
                     for _ in range(20)])
        out = f.predict(np.full(12, 6.25))
        np.testing.assert_allclose(out, np.full(3, 6.25), atol=1e-10)

    def test_scale_equivariance_on_zero_mean_contexts(self):
        rng = np.random.default_rng(8)
        f = OnlineForecaster(12, 3, 2, lam=2.0, alpha=1.0)
        f.fit_block([SamplePair(rng.normal(size=12), rng.normal(size=3), 0)
                     for _ in range(30)])
        x = rng.normal(size=12)
        x -= x.mean()
        gap = f.predict(2 * x) - 2 * f.predict(x)
        assert np.max(np.abs(gap)) < 1e-9

    def test_wrong_context_length_rejected(self):
        f = OnlineForecaster(8, 2, 2)
        with pytest.raises(ShapeMismatch):
            f.predict(np.zeros(7))


class TestPredictInto:
    """``predict(x, out=buf)`` writes into ``buf`` the bytes ``predict(x)``
    returns, and returns ``buf``."""

    @staticmethod
    def forecaster(models, instance_norm, fitted):
        rng = np.random.default_rng(131)
        f = OnlineForecaster(16, 4, 4, lam=2.0, instance_norm=instance_norm, models=models)
        series = rng.normal(size=(40, 2)).cumsum(axis=0)
        f.observe_values(series)
        if fitted:
            f.fit_slab(np.ascontiguousarray(series[:30].T))
        assert (f.core.n_samples > 0) == fitted
        return f, rng

    @pytest.mark.parametrize("fitted", [False, True], ids=["cold", "fitted"])
    @pytest.mark.parametrize("instance_norm", [True, False])
    @pytest.mark.parametrize("models", [1, 2])
    def test_out_holds_the_returned_bytes(self, models, instance_norm, fitted):
        f, rng = self.forecaster(models, instance_norm, fitted)
        shapes = [(16,), (3, 16)] if models == 1 else [(2, 16), (4, 16)]
        for shape in shapes:
            ctx = rng.normal(size=shape) * 3.0 + 2.0
            want = f.predict(ctx)
            # a contiguous buffer, as the harness's ring rows are, and a strided view
            out_shape = shape[:-1] + (4,)
            wide = np.full(shape[:-1] + (8,), np.nan)
            for out in (np.full(out_shape, np.nan), wide[..., ::2]):
                assert f.predict(ctx, out=out) is out
                assert out.tobytes() == want.tobytes()
            assert np.isnan(wide[..., 1::2]).all()

    @pytest.mark.parametrize("fitted", [False, True], ids=["cold", "fitted"])
    def test_out_of_another_shape_rejected(self, fitted):
        f, rng = self.forecaster(1, True, fitted)
        for ctx, want in ((rng.normal(size=(3, 16)), "(3, 4)"), (rng.normal(size=16), "(4,)")):
            for shape in ((3, 5), (2, 4), (12,), (1, 4), (1, 3, 4)):
                out = np.zeros(shape)
                with pytest.raises(ShapeMismatch, match=re.escape(f"out must have shape {want}")):
                    f.predict(ctx, out=out)
                assert not out.any()

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.complex128])
    @pytest.mark.parametrize("fitted", [False, True], ids=["cold", "fitted"])
    def test_out_of_another_dtype_rejected(self, fitted, dtype):
        # a float32 buffer would hold the forecast rounded, an int64 one
        # would raise numpy's own casting error
        f, rng = self.forecaster(1, True, fitted)
        for ctx, shape in ((rng.normal(size=(3, 16)), (3, 4)), (rng.normal(size=16), (4,))):
            out = np.zeros(shape, dtype=dtype)
            with pytest.raises(ShapeMismatch, match="dtype float64"):
                f.predict(ctx, out=out)
            assert not out.any()


class TestMomentHelpers:
    # both sides of _ROW_LOOP_WIDTH: cumsum itself, and the row-by-row loop
    @pytest.mark.parametrize("shape", [(1, 5), (2, 1), (37, 13), (300, 64),
                                       (1, 200), (2, 144), (40, 616)])
    def test_row_accumulation_is_cumsum(self, shape):
        rng = np.random.default_rng(shape[0])
        a = rng.normal(size=shape) * np.exp(rng.normal(size=shape) * 4.0)
        want = np.cumsum(a, axis=0)
        _accumulate_rows(a)
        assert a.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_strict_lower_mask_is_cached_read_only(self, n):
        mask = _strict_lower(n)
        assert mask is _strict_lower(n)
        assert not mask.flags.writeable
        np.testing.assert_array_equal(mask, np.tri(n, k=-1, dtype=bool))


class TestOlsEquivalence:
    def test_unfiltered_fit_matches_time_domain_ridge(self):
        rng = np.random.default_rng(31)
        L, H, n = 32, 8, 120
        for _ in range(5):
            f = OnlineForecaster(L, H, 1, lam=1e-9, alpha=1.0,
                                 instance_norm=False, channel_scaling=False)
            x = rng.normal(size=(n, L))
            y = rng.normal(size=(n, H)) + 0.3 * x[:, -H:]
            f.fit_block([SamplePair(x[i], y[i], 0) for i in range(n)])
            w_time = np.linalg.solve(x.T @ x + 1e-9 * np.eye(L), x.T @ y)
            probes = rng.normal(size=(6, L))
            want = probes @ w_time
            got = np.stack([f.predict(p) for p in probes])
            assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-6

    def test_sigma_rescaling_does_not_move_predictions(self):
        # with negligible regularization, scaling every channel std by a
        # common factor rescales the embedded pairs on both sides and the
        # refit model predicts identically
        rng = np.random.default_rng(14)
        L, H, n = 16, 4, 60
        x = rng.normal(size=(n, L))
        y = rng.normal(size=(n, H))
        obs = rng.normal(size=40)
        probe = rng.normal(size=L)
        preds = []
        for boost in (1.0, 7.0):
            f = OnlineForecaster(L, H, 2, lam=1e-9, alpha=0.9)
            for v in obs * boost:
                f.observe_values([v])
            f.fit_block([SamplePair(x[i], y[i], 0) for i in range(n)])
            preds.append(f.predict(probe.copy()))
        np.testing.assert_allclose(preds[0], preds[1], rtol=1e-8, atol=1e-10)


class TestSnapshot:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(19)
        f = OnlineForecaster(16, 4, 2, lam=3.0, alpha=0.8)
        for v in rng.normal(size=(30, 2)):
            f.observe_values(v)
        f.fit_block([SamplePair(rng.normal(size=16), rng.normal(size=4),
                                int(rng.integers(0, 2))) for _ in range(25)])
        path = tmp_path / "state.npz"
        save_forecaster(f, path)
        g = load_forecaster(path)
        assert g.core.n_samples == f.core.n_samples
        assert g.context_length == f.context_length
        np.testing.assert_array_equal(g.core.a_inv, f.core.a_inv)
        np.testing.assert_array_equal(g.core.weight, f.core.weight)
        np.testing.assert_array_equal(g.core.gram, f.core.gram)
        np.testing.assert_array_equal(g.core.cross, f.core.cross)
        assert g.stats.count == f.stats.count == 30
        np.testing.assert_array_equal(g.stats.means, f.stats.means)
        probe = rng.normal(size=16)
        np.testing.assert_array_equal(g.predict(probe), f.predict(probe))
        # the block above took a direct refit, so saving computed a_inv; a
        # Woodbury step from either copy then reads the same inverse
        assert f.core.last_path == "direct"
        pairs = [SamplePair(rng.normal(size=16), rng.normal(size=4), 0) for _ in range(2)]
        f.fit_block(pairs)
        g.fit_block(pairs)
        assert f.core.last_path == g.core.last_path == "woodbury"
        for name in ("a_inv", "gram", "cross", "weight"):
            np.testing.assert_array_equal(getattr(g.core, name), getattr(f.core, name))
        np.testing.assert_array_equal(g.predict(probe), f.predict(probe))

    def _saved_fields(self, tmp_path):
        rng = np.random.default_rng(61)
        f = OnlineForecaster(16, 4, 2, lam=3.0, alpha=0.8)
        for v in rng.normal(size=(10, 2)):
            f.observe_values(v)
        f.fit_block([SamplePair(rng.normal(size=16), rng.normal(size=4), 0)
                     for _ in range(5)])
        path = tmp_path / "state.npz"
        save_forecaster(f, path)
        with np.load(path) as data:
            return path, dict(data)

    def _pending_fields(self, tmp_path):
        """A snapshot of a model that took two Woodbury steps of 2 rows."""
        rng = np.random.default_rng(107)
        f = OnlineForecaster(16, 4, 2, lam=3.0, alpha=0.8)
        f.observe_values(rng.normal(size=(10, 2)))
        for _ in range(2):
            f.fit_block([SamplePair(rng.normal(size=16), rng.normal(size=4), 0)
                         for _ in range(2)])
        assert f.core.last_path == "woodbury" and f.core.pending == 4
        path = tmp_path / "state.npz"
        save_forecaster(f, path)
        with np.load(path) as data:
            return path, dict(data)

    def test_pending_rows_are_saved_beside_the_folded_sums(self, tmp_path):
        path, fields = self._pending_fields(tmp_path)
        assert fields["pending"].tolist() == [4]
        assert fields["pending_in"].shape == (1, 4, 15) and fields["pending_out"].shape == (1, 4, 4)
        # nothing folded yet: the saved sums are a fresh model's zeros
        assert not fields["gram"].any() and not fields["cross"].any()
        g = load_forecaster(path)
        assert g.core.pending == 4
        p, q = g.core.pending_rows()
        assert p.tobytes() == fields["pending_in"][0].tobytes()
        assert q.tobytes() == fields["pending_out"][0].tobytes()

    @pytest.mark.parametrize("field, bad", [
        ("pending_in", lambda a: a + 1e-3j),
        ("pending_out", lambda a: a + 1e-3j),
        ("pending_in", lambda a: a[:, :-1]),
        ("pending_out", lambda a: a[:, :, :-1]),
        ("pending_in", lambda a: np.where(np.arange(a.size).reshape(a.shape) == 7, np.nan, a)),
        ("pending_out", lambda a: np.where(np.arange(a.size).reshape(a.shape) == 2, np.inf, a)),
    ])
    def test_bad_pending_rows_rejected(self, tmp_path, field, bad):
        path, fields = self._pending_fields(tmp_path)
        fields[field] = bad(fields[field])
        np.savez(path, **fields)
        with pytest.raises(InvalidConfig, match=field):
            load_forecaster(path)

    @pytest.mark.parametrize("bad", [np.array([-1]), np.array([4.0]), np.array(4),
                                     np.array([4, 4]), np.array([16]), np.array([8])])
    def test_bad_pending_counts_rejected(self, tmp_path, bad):
        # a count must be an integer per model in [0, min(d, n_samples)]:
        # 16 is past d = 15, and 8 past the 4 absorbed rows
        path, fields = self._pending_fields(tmp_path)
        fields["pending"] = bad
        np.savez(path, **fields)
        with pytest.raises(InvalidConfig, match="snapshot pending"):
            load_forecaster(path)

    @pytest.mark.parametrize("field, change", [
        ("a_inv", lambda a: a * 50.0),
        ("gram", lambda a: a + 7.0 * np.eye(a.shape[-1])),
        ("cross", lambda a: a + 1e-300),
    ])
    def test_untrained_snapshot_must_hold_a_fresh_state(self, tmp_path, field, change):
        # with no sample absorbed, a model's inverse is I / lam and its sums
        # are zero; any other state would steer its first Woodbury step
        path = tmp_path / "state.npz"
        save_forecaster(OnlineForecaster(16, 4, 2, lam=3.0, models=2), path)
        with np.load(path) as data:
            fields = dict(data)
        fields[field] = change(fields[field])
        np.savez(path, **fields)
        with pytest.raises(InvalidConfig, match=f"n_samples is 0 but its {field}"):
            load_forecaster(path)

    def test_untrained_snapshot_with_pending_rows_rejected(self, tmp_path):
        path = tmp_path / "state.npz"
        save_forecaster(OnlineForecaster(16, 4, 2, lam=3.0, alpha=0.8), path)
        with np.load(path) as data:
            fields = dict(data)
        fields["pending"] = np.array([1])
        fields["pending_in"] = np.zeros((1, 1, 15))
        fields["pending_out"] = np.zeros((1, 1, 4))
        np.savez(path, **fields)
        with pytest.raises(InvalidConfig, match=r"snapshot pending .*n_samples 0"):
            load_forecaster(path)

    def test_mid_block_snapshot_then_a_refit_matches_uninterrupted(self, tmp_path):
        # Woodbury steps leave 3 models with rows pending; saved there and
        # reloaded, a direct refit then folds the same rows into the same sums
        L, H, C = 32, 8, 3
        rng = np.random.default_rng(109)
        f = OnlineForecaster(L, H, 4, lam=2.0, alpha=0.8, models=C)
        f.observe_values(rng.normal(size=(40, C)))
        for m in (4, 5, 3):
            f.fit_slab(rng.normal(size=(C, m + L + H - 1)))
        assert [core.last_path for core in f.cores] == ["woodbury"] * C
        assert [core.pending for core in f.cores] == [12] * C
        save_forecaster(f, tmp_path / "state.npz")
        g = load_forecaster(tmp_path / "state.npz")
        slab = rng.normal(size=(C, 20 + L + H - 1))
        f.fit_slab(slab)
        g.fit_slab(slab)
        for got, want in zip(g.cores, f.cores):
            assert got.last_path == want.last_path == "direct"
            assert got.pending == want.pending == 0
            for name in ("gram", "cross", "weight", "a_inv"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert g.time_map.tobytes() == f.time_map.tobytes()
        probe = rng.normal(size=(C, L))
        assert g.predict(probe).tobytes() == f.predict(probe).tobytes()

    def test_previous_format_rejected(self, tmp_path):
        path, fields = self._saved_fields(tmp_path)
        fields["format"] = np.array("adapts-forecaster/6")
        np.savez(path, **fields)
        with pytest.raises(InvalidConfig, match="adapts-forecaster/6.*adapts-forecaster/7"):
            load_forecaster(path)

    @pytest.mark.parametrize("field", ["a_inv", "gram", "cross", "weight", "time_map"])
    def test_complex_fields_rejected(self, tmp_path, field):
        path, fields = self._saved_fields(tmp_path)
        fields[field] = fields[field] + 1e-3j
        np.savez(path, **fields)
        with pytest.raises(InvalidConfig, match=field):
            load_forecaster(path)

    @pytest.mark.parametrize("field, bad", [
        ("a_inv", lambda a: np.zeros((3, 16), dtype=complex)),
        ("gram", lambda a: a[:-1]),
        ("cross", lambda a: a[:, :-1]),
        ("weight", lambda a: a[:, :2]),
        ("time_map", lambda a: a[:, :, :-1]),
        ("time_map", lambda a: a[0]),
        ("stats_means", lambda a: a[:1]),
        ("stats_m2s", lambda a: np.zeros(0)),
        ("stats_count", lambda a: np.array([a, a])),
    ])
    def test_mis_shaped_fields_rejected(self, tmp_path, field, bad):
        rng = np.random.default_rng(43)
        f = OnlineForecaster(16, 4, 2, lam=3.0, alpha=0.8)
        for v in rng.normal(size=(10, 2)):
            f.observe_values(v)
        f.fit_block([SamplePair(rng.normal(size=16), rng.normal(size=4), 0)
                     for _ in range(5)])
        assert f.core.weight.shape == (f.design_dim, f.core.dim_out)
        path = tmp_path / "state.npz"
        save_forecaster(f, path)
        with np.load(path) as data:
            fields = dict(data)
        fields[field] = bad(fields[field])
        np.savez(path, **fields)
        with pytest.raises(InvalidConfig, match=field):
            load_forecaster(path)

    def test_time_map_round_trips(self, tmp_path):
        # Woodbury increments leave the fold a few ulps from a full refold;
        # the snapshot keeps the fold itself, so the copies stay bit for bit
        L, H, C = 32, 8, 3
        rng = np.random.default_rng(149)
        f = OnlineForecaster(L, H, 8, lam=2.0, alpha=0.8, models=C)
        f.observe_values(rng.normal(size=(30, C)))
        for m in (2, 5, 1, 4, 3) * 3:
            f.fit_slab(rng.normal(size=(C, m + L + H - 1)))
        assert [core.last_path for core in f.cores] == ["woodbury"] * C
        assert any(fold.tobytes() != full_refold(f, core).tobytes()
                   for core, fold in zip(f.cores, f.time_map))
        save_forecaster(f, tmp_path / "state.npz")
        g = load_forecaster(tmp_path / "state.npz")
        assert g.time_map.tobytes() == f.time_map.tobytes()
        slab = rng.normal(size=(C, 2 + L + H - 1))
        f.fit_slab(slab)
        g.fit_slab(slab)
        assert g.time_map.tobytes() == f.time_map.tobytes()
        probe = rng.normal(size=(C, L))
        assert g.predict(probe).tobytes() == f.predict(probe).tobytes()

    @pytest.mark.parametrize("shift, loads", [(1e-12, True), (1e-8, False)])
    def test_fold_off_its_weight_rejected(self, tmp_path, shift, loads):
        # within 1e-9 of a full refold's largest entry a fold is rounding;
        # past it, the fold no longer forecasts what its weight does
        path, fields = self._saved_fields(tmp_path)
        scale = np.abs(fields["time_map"]).max()
        fields["time_map"][0, 3, 1] += shift * scale
        np.savez(path, **fields)
        if loads:
            assert load_forecaster(path).time_map[0, 3, 1] == fields["time_map"][0, 3, 1]
        else:
            with pytest.raises(InvalidConfig, match="time_map of model 0"):
                load_forecaster(path)

    def test_untrained_fold_must_be_zero(self, tmp_path):
        path = tmp_path / "state.npz"
        save_forecaster(OnlineForecaster(16, 4, 2, models=2), path)
        with np.load(path) as data:
            fields = dict(data)
        fields["time_map"][1, 0, 0] = 1e-300
        np.savez(path, **fields)
        with pytest.raises(InvalidConfig, match="time_map of model 1"):
            load_forecaster(path)

    def test_environment_is_stamped(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        path, _ = self._saved_fields(tmp_path)
        with np.load(path) as data:
            stamp = json.loads(str(data["environment"]))
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert stamp == environment_stamp() == {
            "numpy": np.__version__, "blas": blas["name"], "blas_version": blas["version"],
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None}

    def test_untrained_round_trip_loads(self, tmp_path):
        f = OnlineForecaster(16, 4, 2)
        path = tmp_path / "state.npz"
        save_forecaster(f, path)
        g = load_forecaster(path)
        assert g.n_samples == 0 and g.stats.count == 0 and g.stats.means.size == 0
        np.testing.assert_array_equal(g.predict(np.arange(16.0)), f.predict(np.arange(16.0)))

    @pytest.mark.parametrize("field, bad", [
        ("n_samples", np.array(-5)),
        ("n_samples", np.array(2.5)),
        ("stats_count", np.array(2.5)),
        ("stats_count", np.array(-1)),
    ])
    def test_bad_counters_rejected(self, tmp_path, field, bad):
        path, fields = self._saved_fields(tmp_path)
        fields[field] = bad
        np.savez(path, **fields)
        with pytest.raises(InvalidConfig, match=field):
            load_forecaster(path)

    def test_stats_count_disagreeing_with_vectors_rejected(self, tmp_path):
        # a count of 0 with channel vectors, or channel-less vectors with a count
        path, fields = self._saved_fields(tmp_path)
        empty = tmp_path / "empty.npz"
        save_forecaster(OnlineForecaster(16, 4, 2, lam=3.0, alpha=0.8), empty)
        with np.load(empty) as data:
            untrained = dict(data)
        for saved, target, count in ((fields, path, 0), (untrained, empty, 3)):
            np.savez(target, **{**saved, "stats_count": np.array(count)})
            with pytest.raises(InvalidConfig, match=f"stats_count {count}"):
                load_forecaster(target)

    def test_zero_samples_with_fitted_weight_rejected(self, tmp_path):
        path, fields = self._saved_fields(tmp_path)
        assert np.any(fields["weight"])
        fields["n_samples"] = np.array(0)
        np.savez(path, **fields)
        with pytest.raises(InvalidConfig, match="n_samples.*weight"):
            load_forecaster(path)

    def test_multi_model_round_trip_is_exact(self, tmp_path):
        # one model per channel; the direct refit drops every inverse and
        # the save computes it, so both copies then take the same Woodbury step
        rng = np.random.default_rng(67)
        L, H, C = 16, 4, 3
        f = OnlineForecaster(L, H, 2, lam=3.0, alpha=0.8, models=C)
        f.observe_values(rng.normal(size=(30, C)) * [1.0, 6.0, 0.05])
        f.fit_slab(rng.normal(size=(C, 8 + L + H - 1)))
        assert f.core.last_path == "direct"
        save_forecaster(f, tmp_path / "state.npz")
        g = load_forecaster(tmp_path / "state.npz")
        probe = rng.normal(size=(C, L))

        def assert_same():
            assert len(g.cores) == len(f.cores) == C
            for got, want in zip(g.cores, f.cores):
                assert got.n_samples == want.n_samples
                for name in ("a_inv", "gram", "cross", "weight"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert g.time_map.tobytes() == f.time_map.tobytes()
            assert g.stats.count == f.stats.count == 30
            assert g.stats.means.tobytes() == f.stats.means.tobytes()
            assert g.stats.m2s.tobytes() == f.stats.m2s.tobytes()
            assert g.predict(probe).tobytes() == f.predict(probe).tobytes()

        assert_same()
        slab = rng.normal(size=(C, 2 + L + H - 1))
        f.fit_slab(slab)
        g.fit_slab(slab)
        assert f.core.last_path == g.core.last_path == "woodbury"
        assert_same()

    @pytest.mark.parametrize("rows", [(0, 3), (2, 3)])
    def test_models_with_different_sample_counts_rejected(self, tmp_path, rows):
        # a snapshot keeps one n_samples for every model; a caller feeding
        # one model alone must not save the other's count as its own
        rng = np.random.default_rng(71)
        f = OnlineForecaster(16, 4, 2, models=2)
        for core, m in zip(f.cores, rows):
            if m:
                core.absorb(rng.normal(size=(m, f.design_dim)), rng.normal(size=(m, core.dim_out)))
        before = [ridge_state(core) for core in f.cores]
        path = tmp_path / "state.npz"
        with pytest.raises(InvalidConfig, match=rf"sample counts \[{rows[0]}, {rows[1]}\]"):
            save_forecaster(f, path)
        assert not path.exists() and not list(tmp_path.iterdir())
        for core, state in zip(f.cores, before):
            for name, value in state.items():
                np.testing.assert_array_equal(getattr(core, name), value, err_msg=name)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["stats_means", "stats_m2s", "a_inv", "gram", "cross",
                                       "weight", "time_map"])
    def test_non_finite_fields_rejected(self, tmp_path, field, value):
        path, fields = self._saved_fields(tmp_path)
        fields[field].flat[-1] = value
        np.savez(path, **fields)
        with pytest.raises(InvalidConfig, match=f"{field} holds non-finite"):
            load_forecaster(path)

    @pytest.mark.parametrize("lam", [np.inf, np.nan, 0.0])
    def test_bad_ridge_coefficient_rejected(self, tmp_path, lam):
        path, fields = self._saved_fields(tmp_path)
        fields["lam"] = np.array(lam)
        np.savez(path, **fields)
        with pytest.raises(InvalidConfig, match="ridge coefficient must be positive and finite"):
            load_forecaster(path)

    def test_negative_squared_deviations_rejected(self, tmp_path):
        # a negative variance would scale every fitted row of its channel by NaN
        path, fields = self._saved_fields(tmp_path)
        fields["stats_m2s"][0] = -1.0
        np.savez(path, **fields)
        with pytest.raises(InvalidConfig, match="stats_m2s holds negative"):
            load_forecaster(path)

    @pytest.mark.parametrize("field", ["stats_means", "stats_m2s"])
    def test_complex_statistics_rejected(self, tmp_path, field):
        path, fields = self._saved_fields(tmp_path)
        fields[field] = fields[field] + 1e-3j
        np.savez(path, **fields)
        with pytest.raises(InvalidConfig, match=f"{field} has dtype complex"):
            load_forecaster(path)

    @pytest.mark.parametrize("bad", [np.array(0), np.array(-2), np.array(2.0), np.array([1])])
    def test_bad_model_count_rejected(self, tmp_path, bad):
        path, fields = self._saved_fields(tmp_path)
        fields["models"] = bad
        np.savez(path, **fields)
        with pytest.raises(InvalidConfig, match="snapshot models"):
            load_forecaster(path)

    def test_channels_not_a_multiple_of_models_rejected(self, tmp_path):
        # two models over three channels: no fit could split the channels
        f = OnlineForecaster(16, 4, 2, models=2)
        f.observe_values(np.random.default_rng(5).normal(size=(10, 4)))
        path = tmp_path / "state.npz"
        save_forecaster(f, path)
        with np.load(path) as data:
            fields = dict(data)
        for name in ("stats_means", "stats_m2s"):
            fields[name] = fields[name][:3]
        np.savez(path, **fields)
        with pytest.raises(InvalidConfig, match="stats_means holds 3 channels.*2 models"):
            load_forecaster(path)


def harness_updates(series, L, H, M):
    """The schedule ``harness.run`` feeds a forecaster after observing the
    first ``L - 1`` rows of ``series`` ``(T, C)``: for each update, the
    ``M`` newest rows it observes and the channel-major slab it then fits,
    or None when no window has completed since the previous fit."""
    scored, updates = 0, []
    for i in range(M - 1, len(series) - L, M):   # step i forecasts from row t = L - 1 + i
        t, stop = L - 1 + i, max(scored, i + 1 - H)
        rows = series[scored if stop > scored else t - M + 1: t + 1]
        updates.append((rows[-M:], np.ascontiguousarray(rows.T) if stop > scored else None))
        scored = stop
    return updates


class TestResume:
    """A forecaster saved after any update, reloaded and driven on through
    the harness's schedule ends in the uninterrupted one's state, bit for
    bit."""

    @pytest.mark.parametrize("shared, M, instance_norm, paths", [
        # 8 windows, then 16, of 3 channels
        pytest.param(True, 16, True, {"direct", "moments"}, id="shared"),
        # per channel, 4 and then 6 windows a model: below d // 3
        pytest.param(False, 6, True, {"woodbury"}, id="per-channel-woodbury"),
        # 12, then 20: embedded, below L + H
        pytest.param(False, 20, False, {"direct"}, id="per-channel-direct"),
        # 40, then 48: from L + H on
        pytest.param(False, 48, False, {"moments"}, id="per-channel-moments"),
    ])
    def test_resumed_forecaster_matches_uninterrupted(self, tmp_path, shared, M, instance_norm,
                                                      paths):
        L, H, C = 32, 8, 3
        rng = np.random.default_rng(M)
        series = rng.normal(size=(L + 5 * M, C)) * [1.0, 6.0, 0.05] + [0.0, 3.0, -1.0]
        updates = harness_updates(series, L, H, M)
        probe = np.ascontiguousarray(series[-L:].T)

        def drive(f, todo):
            taken = set()
            for rows, slab in todo:
                f.observe_values(rows)
                if slab is not None:
                    f.fit_slab(slab)
                    taken.add(f.core.last_path)
            return taken

        def started():
            f = OnlineForecaster(L, H, 4, lam=2.0, alpha=0.8, instance_norm=instance_norm,
                                 models=1 if shared else C)
            f.observe_values(series[:L - 1])
            return f

        whole = started()
        assert drive(whole, updates) == paths
        assert whole.design_dim == 27 and len(updates) == 5
        for j in range(len(updates)):
            f = started()
            drive(f, updates[:j + 1])
            save_forecaster(f, tmp_path / "state.npz")
            resumed = load_forecaster(tmp_path / "state.npz")
            drive(resumed, updates[j + 1:])
            assert len(resumed.cores) == len(whole.cores)
            for got, want in zip(resumed.cores, whole.cores):
                assert got.n_samples == want.n_samples
                for name in ("gram", "cross", "weight", "a_inv"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (j, name)
            assert resumed.time_map.tobytes() == whole.time_map.tobytes(), j
            assert resumed.stats.count == whole.stats.count
            assert resumed.stats.means.tobytes() == whole.stats.means.tobytes(), j
            assert resumed.stats.m2s.tobytes() == whole.stats.m2s.tobytes(), j
            assert resumed.predict(probe).tobytes() == whole.predict(probe).tobytes(), j


def blocks_per_model(rng, models, m, L, H):
    """Channel-major rows: ``m`` (context, target) rows for each model."""
    return rng.normal(size=(models, m, L)) + 4.0, rng.normal(size=(models, m, H)) + 4.0


class TestModelAxis:
    """A G-model forecaster against its oracle, G one-model forecasters,
    each seeing one channel's statistics and rows."""

    STATE = ("a_inv", "gram", "cross", "weight")

    def _multi_and_singles(self, config, models, seed):
        L, H, alpha, instance_norm, channel_scaling = config
        kw = dict(lam=2.0, alpha=alpha, instance_norm=instance_norm,
                  channel_scaling=channel_scaling)
        multi = OnlineForecaster(L, H, 2, models=models, **kw)
        singles = [OnlineForecaster(L, H, 2, **kw) for _ in range(models)]
        rng = np.random.default_rng(seed)
        for v in rng.normal(size=(25, models)) * [1.0, 6.0, 0.05][:models]:
            multi.observe_values(v)
            for g, f in enumerate(singles):
                f.observe_values(v[g:g + 1])
        return multi, singles, rng

    @pytest.mark.parametrize("config", CONFIGS_H1)
    def test_matches_one_forecaster_per_model(self, config):
        L, H = config[:2]
        multi, singles, rng = self._multi_and_singles(config, 3, seed=71)
        probes = rng.normal(size=(3, 2, L)) * 3.0 + 2.0

        def check_predictions():
            # one window per model (1-D to each oracle) and a stack of two
            want = np.stack([f.predict(p[0]) for f, p in zip(singles, probes)])
            np.testing.assert_array_equal(multi.predict(probes[:, 0]), want)
            want = np.concatenate([f.predict(p) for f, p in zip(singles, probes)])
            np.testing.assert_array_equal(multi.predict(probes.reshape(-1, L)), want)

        check_predictions()  # cold start: the seasonal tile
        for m in (3, 40, 1, 12):  # block sizes below and above design_dim
            ctxs, tgts = blocks_per_model(rng, 3, m, L, H)
            multi.fit(ctxs.reshape(-1, L), tgts.reshape(-1, H), np.repeat(np.arange(3), m))
            for g, f in enumerate(singles):
                f.fit_block([SamplePair(c, t, 0) for c, t in zip(ctxs[g], tgts[g])])
                for name in self.STATE:
                    np.testing.assert_array_equal(getattr(multi.cores[g], name),
                                                  getattr(f.core, name), err_msg=name)
                np.testing.assert_array_equal(multi.time_map[g], f.time_map[0])
            check_predictions()
        assert multi.n_samples == 56 and len(multi.cores) == 3

    def test_fit_equals_fit_block(self):
        (f, g), block, _ = fitted_pair_of_forecasters((17, 5, 0.8, True, True), seed=73)
        for n in (3, 40):
            pairs = block(n)
            f.fit_block(pairs)
            g.fit(np.stack([p.context for p in pairs]), np.stack([p.target for p in pairs]),
                  np.array([p.channel for p in pairs]))
            for name in self.STATE:
                np.testing.assert_array_equal(getattr(g.core, name), getattr(f.core, name))
            np.testing.assert_array_equal(g.time_map, f.time_map)

    def test_failed_woodbury_check_falls_back_to_a_direct_refit(self):
        # model 0's rows pass the Woodbury test; model 1's, three copies of
        # one 1e8-scaled row, fail it, and model 1 alone refits directly
        rng = np.random.default_rng(89)
        f = OnlineForecaster(16, 4, 2, lam=1e-12, instance_norm=False, channel_scaling=False,
                           models=2)
        channels = [0, 0, 0, 1, 1, 1]
        f.fit(rng.normal(size=(6, 16)) * 1e-3, rng.normal(size=(6, 4)) * 1e-3, channels)
        assert [core.last_path for core in f.cores] == ["woodbury", "woodbury"]
        ctx = np.vstack([rng.normal(size=(3, 16)) * 1e-3, np.tile(rng.normal(size=16) * 1e8, (3, 1))])
        f.fit(ctx, rng.normal(size=(6, 4)), channels)
        assert [core.last_path for core in f.cores] == ["woodbury", "direct"]
        assert f.cores[1].last_fallback == "trace"
        assert [core.n_samples for core in f.cores] == [6, 6]

    @pytest.mark.parametrize("first", [(10, 3), (3,)])
    def test_first_block_not_splitting_across_models_rejected(self, tmp_path, first):
        # statistics of 3 channels cannot split across 2 models: no fit
        # could use them, and load_forecaster would refuse their snapshot
        rng = np.random.default_rng(73)
        f = OnlineForecaster(16, 4, 2, models=2)
        with pytest.raises(ShapeMismatch, match="3 channels do not split across 2 models"):
            f.observe_values(rng.normal(size=first))
        assert f.stats.count == 0 and f.stats.means.size == f.stats.m2s.size == 0
        f.observe_values(rng.normal(size=(10, 4)))
        assert f.stats.count == 10 and f.stats.means.shape == (4,)
        save_forecaster(f, tmp_path / "state.npz")
        assert load_forecaster(tmp_path / "state.npz").stats.means.tobytes() == \
            f.stats.means.tobytes()

    def test_model_count_below_one_rejected(self):
        with pytest.raises(InvalidConfig, match="model"):
            OnlineForecaster(8, 2, 2, models=0)

    def test_row_count_not_a_multiple_of_models_rejected(self):
        f = OnlineForecaster(8, 2, 2, models=3)
        rng = np.random.default_rng(5)
        for fitted in (False, True):
            with pytest.raises(ShapeMismatch, match="multiple of 3"):
                f.fit(rng.normal(size=(4, 8)), rng.normal(size=(4, 2)), [0, 0, 1, 2])
            for bad in (rng.normal(size=(4, 8)), rng.normal(size=8)):
                with pytest.raises(ShapeMismatch, match="multiple of 3"):
                    f.predict(bad)
            if not fitted:
                f.fit(rng.normal(size=(6, 8)), rng.normal(size=(6, 2)), [0, 0, 1, 1, 2, 2])
        assert f.n_samples == 2
        assert f.predict(rng.normal(size=(3, 8))).shape == (3, 2)


def extended_sums(f, slab, m, channels):
    """Gram and cross-moment of the design rows of the ``m`` windows of each
    row of ``slab``, row ``i`` cut from channel ``channels[i]``, computed in
    ``np.longdouble``: the windows are centred and scaled without rounding
    to doubles, then mapped by the layouts as explicit matrices."""
    L, H = f.context_length, f.horizon
    layout_out = _real_coefficients(np.fft.rfft(np.eye(H))[:, :f.filter.target_bins], H)
    rows_in, rows_out = [], []
    for x, ch in zip(np.asarray(slab, dtype=np.longdouble), channels):
        ctx, tgt = sliding_window_view(x, L)[:m], sliding_window_view(x[L:], H)[:m]
        mu = ctx.mean(axis=1, keepdims=True) if f.instance_norm else 0
        sigma = np.longdouble(f.stats.std()[ch] if f.channel_scaling else 1.0)
        rows_in.append((ctx - mu) / sigma @ f._analysis)
        rows_out.append((tgt - mu) / sigma @ layout_out)
    x, y = np.concatenate(rows_in), np.concatenate(rows_out)
    return x.T @ x, x.T @ y


def assert_within(got, want, rtol, scale, name):
    if want.size:
        gap = np.abs(np.asarray(got, dtype=np.longdouble) - want).max()
        assert gap <= rtol * scale, f"{name}: {float(gap):.2e} > {rtol:.0e} x {float(scale):.2e}"


def assert_moments_match(got, want, instance_norm, names=("gram", "cross", "weight")):
    """A ridge refitted from moments, ``got``, against a reference
    ``want``: the Gram and cross-moment at 1e-13, the weight at 1e-10. The
    entries off the DC row and column are held to their own max, the DC
    row and column to the whole matrix's max (without instance
    normalization an offset series makes them far larger than the rest).
    Under instance normalization the context DC coefficient of every
    design row is zero: an embedding leaves rounding in the DC row, and in
    the Gram's DC column, where the moments hold zeros, so those are not
    compared."""
    for name in names:
        rtol = 1e-10 if name == "weight" else 1e-13
        g, w = getattr(got, name), np.asarray(getattr(want, name))
        inner = w[1:, 1:]
        assert_within(g[1:, 1:], inner, rtol, np.abs(inner).max() if inner.size else 0, name)
        if not (instance_norm and name == "gram"):
            assert_within(g[1:, 0], w[1:, 0], rtol, np.abs(w).max(), name)
        if not instance_norm:
            assert_within(g[0], w[0], rtol, np.abs(w).max(), name)


def assert_time_maps_match(got, want, instance_norm):
    """``time_map`` at 1e-10 of the reference's max. Under instance
    normalization a forecast reads only its part that is centred over the
    context axis, since the context is centred: the rest is the DC row of
    the weight, zero from moments and rounding from an embedding."""
    scale = np.abs(want.time_map).max()
    got, want = got.time_map, want.time_map
    if instance_norm:
        got, want = (a - a.mean(axis=1, keepdims=True) for a in (got, want))
    assert_within(got, want, 1e-10, scale, "time_map")


class TestFitWindows:
    """``fit_slab`` on a random slab against ``fit`` on copies of its
    windows: bit for bit while every model embeds, at the moments
    tolerance (:func:`assert_moments_match`) once one has refitted from
    moments."""

    @staticmethod
    def _twins(config, C, shared, rng):
        L, H, alpha, instance_norm, channel_scaling = config
        twins = [OnlineForecaster(L, H, 2, lam=2.0, alpha=alpha, instance_norm=instance_norm,
                                channel_scaling=channel_scaling, models=1 if shared else C)
                 for _ in range(2)]
        for v in rng.normal(size=(25, C)) * [1.0, 6.0, 0.05]:
            for f in twins:
                f.observe_values(v)
        return twins

    @staticmethod
    def _fit_both(views, copies, slab, m):
        L, H = views.context_length, views.horizon
        C = slab.shape[0]
        views.fit_slab(slab)
        copies.fit(sliding_window_view(slab, L, axis=1)[:, :m].reshape(-1, L),
                   sliding_window_view(slab[:, L:], H, axis=1)[:, :m].reshape(-1, H),
                   np.repeat(np.arange(C), m))

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("config", CONFIGS_H1)
    def test_equals_fit_on_copied_windows(self, config, shared):
        L, H, alpha, instance_norm, channel_scaling = config
        C = 3
        rng = np.random.default_rng(97)
        views, copies = self._twins(config, C, shared, rng)
        moved = False
        per = C if shared else 1
        # one window, blocks below and above design_dim, and then one above
        # L + H: every case embeds a block for a Woodbury step or a direct
        # refit, bit for bit, before any model takes moments
        for m in (1, 3, 8, 40):
            slab = rng.normal(size=(C, m + L + H - 1)) * 3.0 + 4.0
            self._fit_both(views, copies, slab, m)
            moved = moved or views.core.last_path == "moments"
            assert (views.core.last_path == "moments") == (
                not woodbury_pays(per * m, views.design_dim) and moments_pay(per * m, L + H))
            for got, want in zip(views.cores, copies.cores):
                if moved:
                    assert_moments_match(got, want, instance_norm)
                    continue
                for name in ("weight", "gram", "cross", "a_inv"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            if moved:
                assert_time_maps_match(views, copies, instance_norm)
            else:
                assert views.time_map.tobytes() == copies.time_map.tobytes()
        assert moved  # 40 windows always reach L + H rows
        assert views.n_samples == copies.n_samples == (52 * C if shared else 52)

    @pytest.mark.parametrize("offset", [0.0, 1e4])
    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("config", [c for c in CONFIGS_H1 if c[2] > 0.5])
    def test_moments_equal_fit_on_copied_windows(self, config, shared, offset):
        # alpha = 1 keeping the Nyquist bin, odd L and H, both normalizations;
        # each model's windows are enough for moments, and the offset slab
        # checks that the block means leave S before the lag products
        L, H, alpha, instance_norm, channel_scaling = config
        if offset and np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
            pytest.skip("the oracle needs a long double wider than a double")
        C = 3
        rng = np.random.default_rng(103)
        views, copies = self._twins(config, C, shared, rng)
        m = 2 * (L + H) + 5
        slab = rng.normal(size=(C, m + L + H - 1)) * 3.0 + 4.0 + offset
        self._fit_both(views, copies, slab, m)
        per = C // len(views.cores)
        for g, core in enumerate(views.cores):
            assert core.last_path == "moments" and core.n_samples == per * m
            if instance_norm:  # every design row's DC coefficient is exactly zero
                assert not (core.gram[0].any() or core.gram[:, 0].any() or core.cross[0].any()
                            or core.weight[0].any())
            channels = range(g * per, (g + 1) * per)
            gram, cross = extended_sums(views, slab[g * per:(g + 1) * per], m, channels)
            assert_moments_match(core, SimpleNamespace(gram=gram, cross=cross), instance_norm,
                                 names=("gram", "cross"))
            if not offset:
                # offset by 1e4, the embedded sums themselves lie ~1e-12 off the
                # extended ones (centring rounds at 1e4 * eps); the moments do not
                assert_moments_match(core, copies.cores[g], instance_norm)
        assert_time_maps_match(views, copies, instance_norm)

    @pytest.mark.parametrize("ctx_shape, tgt_shape", [
        ((6, 8), (6, 2)), ((2, 0, 8), (2, 0, 2)), ((3, 1, 8), (3, 1, 2))])
    def test_bad_shapes_rejected(self, ctx_shape, tgt_shape):
        # the slab these windows would be cut from, for L = 8 and H = 2: the
        # first has no channel axis, the second no window, and the last 3
        # channels for 2 models
        f = OnlineForecaster(8, 2, 2, models=2)
        slab = np.ones(ctx_shape[:-2] + (ctx_shape[-2] + ctx_shape[-1] + tgt_shape[-1] - 1,))
        with pytest.raises(ShapeMismatch, match="fit_slab"):
            f.fit_slab(slab)
        assert f.n_samples == 0

    @pytest.mark.parametrize("models, C", [(1, 2), (1, 5), (3, 6)])
    def test_slab_of_another_channel_count_rejected(self, models, C):
        # channels 3 and 4 of a 5-channel slab have no statistics: they
        # would be fitted unscaled next to channel 1, scaled by its std of ~6
        L, H, m = 16, 4, 8
        rng = np.random.default_rng(79)
        f = OnlineForecaster(L, H, 2, lam=2.0, models=models)
        f.observe_values(rng.normal(size=(25, 3)) * [1.0, 6.0, 0.05])
        f.fit_slab(rng.normal(size=(3, m + L + H - 1)))
        before, fold = [ridge_state(core) for core in f.cores], f.time_map.copy()
        with pytest.raises(ShapeMismatch, match=f"fit_slab got {C} channels, 3 observed"):
            f.fit_slab(rng.normal(size=(C, m + L + H - 1)))
        for core, state in zip(f.cores, before):
            for name, value in state.items():
                np.testing.assert_array_equal(getattr(core, name), value, err_msg=name)
        assert f.time_map.tobytes() == fold.tobytes()

    @pytest.mark.parametrize("channel_scaling", [True, False])
    def test_rows_of_a_channel_past_the_observed_ones_rejected(self, channel_scaling):
        # channel 5 of 3 has no std: fit would scale row 0 by channel 0's
        # std and fit row 1 unscaled
        L, H = 16, 4
        rng = np.random.default_rng(83)
        ctx, tgt = rng.normal(size=(2, L)), rng.normal(size=(2, H))
        fresh = OnlineForecaster(L, H, 2, lam=2.0, channel_scaling=channel_scaling)
        fresh.fit(ctx, tgt, [0, 5])  # nothing observed yet: every factor is 1
        f = OnlineForecaster(L, H, 2, lam=2.0, channel_scaling=channel_scaling)
        f.observe_values(rng.normal(size=(25, 3)) * [1.0, 6.0, 0.05])
        f.fit(ctx, tgt, [0, 2])
        before, fold = ridge_state(f.core), f.time_map.copy()
        stats = (f.stats.count, f.stats.means.copy(), f.stats.m2s.copy())
        message = "channel 5 is past the 3 observed channels"
        with pytest.raises(ShapeMismatch, match=message):
            f.fit(ctx, tgt, [0, 5])
        with pytest.raises(ShapeMismatch, match=message):
            f.fit_block([SamplePair(ctx[0], tgt[0], 1), SamplePair(ctx[1], tgt[1], 5)])
        with pytest.raises(ShapeMismatch, match=message):
            f.embed_pair(SamplePair(ctx[1], tgt[1], 5))
        for name, value in before.items():
            np.testing.assert_array_equal(getattr(f.core, name), value, err_msg=name)
        assert f.time_map.tobytes() == fold.tobytes()
        assert f.stats.count == stats[0]
        assert f.stats.means.tobytes() == stats[1].tobytes()
        assert f.stats.m2s.tobytes() == stats[2].tobytes()

    def test_path_rule(self):
        # the paper shape (C = 7, m = 200, L = 520, H = 96, d = 469) and
        # shared-l128's (C = 3, m = 100, L = 128, H = 24) take moments; a
        # per-channel block of m = 200 at the paper shape, or of m = 100 at
        # shared-l128's, embeds; per-channel blocks of m = 50 take the
        # Woodbury step
        assert moments_pay(1400, 616) and not woodbury_pays(1400, 469)
        assert moments_pay(300, 152) and not woodbury_pays(300, 117)
        assert not moments_pay(200, 616) and not woodbury_pays(200, 469)
        assert not moments_pay(100, 152) and not woodbury_pays(100, 117)
        assert woodbury_pays(50, 469)
        assert moments_pay(616, 616) and not moments_pay(615, 616)
        rng = np.random.default_rng(107)
        L, H, m = 520, 96, 50
        f = OnlineForecaster(L, H, 24, models=2)
        for row in rng.normal(size=(30, 2)):
            f.observe_values(row)
        f.fit_slab(rng.normal(size=(2, m + L + H - 1)))
        assert [core.last_path for core in f.cores] == ["woodbury", "woodbury"]

    def test_fit_never_takes_moments(self):
        # fit() embeds every row, even for a block that fit_slab would take
        # from moments
        L, H, m = 16, 4, 60
        rng = np.random.default_rng(109)
        f, g = (OnlineForecaster(L, H, 2) for _ in range(2))
        slab = rng.normal(size=(2, m + L + H - 1))
        g.fit_slab(slab)
        f.fit(sliding_window_view(slab, L, axis=1)[:, :m].reshape(-1, L),
              sliding_window_view(slab[:, L:], H, axis=1)[:, :m].reshape(-1, H),
              np.repeat([0, 1], m))
        assert (f.core.last_path, g.core.last_path) == ("direct", "moments")


def per_channel_scale(f, ch):
    """The scaling factor of rows of channel ``ch``, one channel at a time:
    1 without channel scaling, below two observations or for a channel the
    statistics do not hold, else the channel's sample std floored at
    ``SIGMA_FLOOR``."""
    st = f.stats
    if not f.channel_scaling or st.count < 2 or ch >= len(st.means):
        return 1.0
    return max(float(np.sqrt(float(st.m2s[ch] / (st.count - 1)))), SIGMA_FLOOR)


class TestScales:
    """``_scales``, one gather from the std vector, against the rule
    applied one channel at a time, bit for bit."""

    @pytest.mark.parametrize("channel_scaling", [True, False])
    def test_equals_the_per_channel_rule(self, channel_scaling):
        rng = np.random.default_rng(113)
        f = OnlineForecaster(16, 4, 2, channel_scaling=channel_scaling)
        rows = rng.normal(size=(7, 4)) * [1.0, 40.0, 1e-12, 0.0] + [3.0, -2.0, 5.0, 7.0]
        floored = 0
        for lo, hi in ((0, 0), (0, 1), (1, 2), (2, 3), (3, 7)):  # counts 0, 1, 2, 3, 7
            if hi:
                f.observe_values(rows[lo:hi])
            assert f.stats.count == hi
            for channels in ([0], [3, 0, 1], [1, 1, 0, 2, 3, 2, 0], [2, 2]):
                want = np.array([per_channel_scale(f, ch) for ch in channels])
                for given in (channels, np.array(channels)):
                    got = f._scales(given)
                    assert got.dtype == np.float64 and got.shape == (len(channels),)
                    assert got.tobytes() == want.tobytes(), (hi, channels)
            floored += f.stats.std()[2:].tolist() == [SIGMA_FLOOR] * 2
        assert floored == 3  # channel 2's σ ~ 1e-12 and channel 3's 0, from two rows

    @pytest.mark.parametrize("channel_scaling", [True, False])
    def test_channel_past_the_observed_ones(self, channel_scaling):
        f = OnlineForecaster(16, 4, 2, channel_scaling=channel_scaling)
        assert f._scales([5, 0]).tolist() == [1.0, 1.0]  # nothing observed yet
        f.observe_values(np.arange(3.0))
        for channels in ([0, 3], [3], [7, 1, 0]):
            with pytest.raises(ShapeMismatch, match=f"channel {max(channels)} is past the 3"):
                f._scales(channels)


class TestFitChannels:
    def test_negative_channel_in_pairs_rejected(self):
        # a negative index would read another channel's statistics
        (f, _), block, _ = fitted_pair_of_forecasters((16, 4, 1.0, True, True), seed=79)
        pairs = block(4)
        pairs[2].channel = -1
        with pytest.raises(ShapeMismatch, match="non-negative"):
            f.fit_block(pairs)
        assert f.n_samples == 0

    @pytest.mark.parametrize("channels", [[0, -1, 2], [0, 1.5, 2], [0.0, 1.0, 2.0],
                                          [[0, 1, 2]], [0, 1], 0])
    def test_bad_channel_arrays_rejected(self, channels):
        f = OnlineForecaster(16, 4, 2)
        rng = np.random.default_rng(3)
        with pytest.raises(ShapeMismatch, match="channels"):
            f.fit(rng.normal(size=(3, 16)), rng.normal(size=(3, 4)), channels)
        assert f.n_samples == 0


def forecaster_bytes(f):
    """The bytes of every model's ridge state and pending rows, the fold
    and the channel statistics."""
    out = [f.time_map.tobytes(), f.stats.means.tobytes(), f.stats.m2s.tobytes(), f.stats.count]
    for core in f.cores:
        out += [np.asarray(value).tobytes() for value in ridge_state(core).values()]
        out += [rows.tobytes() for rows in core.pending_rows()]
    return out


class TestNonFiniteInput:
    """A non-finite value raises CorruptSeries naming its row and column
    before any model, the fold or the channel statistics change; before,
    one NaN in a context left every weight entry NaN."""

    @staticmethod
    def fitted(models):
        rng = np.random.default_rng(83)
        f = OnlineForecaster(16, 4, 4, models=models)
        series = rng.normal(size=(40, 2)).cumsum(axis=0)
        f.observe_values(series)
        f.fit_slab(np.ascontiguousarray(series[:30].T))
        f.fit_slab(np.ascontiguousarray(series[10:31].T))  # 2 windows a channel
        assert f.core.last_path == "woodbury" and f.core.pending == 4 // models
        return f, series

    @pytest.mark.parametrize("models", [1, 2])
    @pytest.mark.parametrize("side, row, column, value",
                             [("contexts", 7, 3, np.nan), ("targets", 20, 1, np.inf),
                              ("contexts", 29, 15, -np.inf)])
    def test_fit(self, models, side, row, column, value):
        f, series = self.fitted(models)
        windows = sliding_window_view(series, 20, axis=0)[:15]   # (15, 2, 20)
        ctx = np.concatenate([windows[:, 0, :16], windows[:, 1, :16]])
        tgt = np.concatenate([windows[:, 0, 16:], windows[:, 1, 16:]])
        (ctx if side == "contexts" else tgt)[row, column] = value
        before = forecaster_bytes(f)
        with pytest.raises(CorruptSeries, match=f"{side} at row {row}, column {column}$"):
            f.fit(ctx, tgt, np.repeat([0, 1], 15))
        assert forecaster_bytes(f) == before

    @pytest.mark.parametrize("models", [1, 2])
    @pytest.mark.parametrize("width", [22, 40])   # Woodbury steps, a moments refit
    def test_fit_slab(self, models, width):
        f, series = self.fitted(models)
        slab = np.ascontiguousarray(series[:width].T)
        slab[1, 12] = np.nan
        before = forecaster_bytes(f)
        with pytest.raises(CorruptSeries, match="slab at channel 1, column 12$"):
            f.fit_slab(slab)
        assert forecaster_bytes(f) == before

    @pytest.mark.parametrize("rows, row, column",
                             [([0.5, np.nan], 0, 1), ([[1.0, 2.0]] * 3 + [[-np.inf, 0.0]], 3, 0)])
    def test_observe_values(self, rows, row, column):
        f, _ = self.fitted(2)
        before = forecaster_bytes(f)
        with pytest.raises(CorruptSeries, match=f"observed rows at row {row}, column {column}$"):
            f.observe_values(rows)
        assert forecaster_bytes(f) == before


class TestMemoryLayout:
    @pytest.mark.parametrize("models", [1, 4])
    def test_time_map_starts_on_a_cache_line(self, models, tmp_path):
        # a matmul against a time_map off a 64-byte boundary is ~1.6x slower
        f = OnlineForecaster(520, 96, 24, models=models)
        assert f.time_map.ctypes.data % 64 == 0
        rng = np.random.default_rng(7)
        f.observe_values(rng.normal(size=models))
        f.observe_values(rng.normal(size=models))
        f.fit(rng.normal(size=(2 * models, 520)), rng.normal(size=(2 * models, 96)),
              np.repeat(np.arange(models), 2))
        assert f.time_map.ctypes.data % 64 == 0
        if models == 1:
            save_forecaster(f, tmp_path / "state.npz")
            g = load_forecaster(tmp_path / "state.npz")
            assert g.time_map.ctypes.data % 64 == 0
            np.testing.assert_array_equal(g.time_map, f.time_map)

    def test_fit_and_predict_ignore_memory_order(self):
        rng = np.random.default_rng(11)
        L, H = 32, 8
        ctx, tgt = rng.normal(size=(40, L)) * 3.0 + 1.0, rng.normal(size=(40, H))
        channels, observed = np.repeat([0, 1], 20), rng.normal(size=(5, 2))
        fitted = []
        for layout in (np.ascontiguousarray, np.asfortranarray):
            f = OnlineForecaster(L, H, 8, lam=2.0)
            for row in observed:
                f.observe_values(row)
            f.fit(layout(ctx), layout(tgt), channels)
            fitted.append(f)
        c, fo = fitted
        assert c.time_map.tobytes() == fo.time_map.tobytes()
        for name, value in ridge_state(c.core).items():
            np.testing.assert_array_equal(getattr(fo.core, name), value, err_msg=name)
        probes = rng.normal(size=(7, L)) * 5.0 + 2.0
        want = c.predict(probes)
        assert c.predict(np.asfortranarray(probes)).tobytes() == want.tobytes()

    def test_per_channel_fit_slab_holds_one_models_rows(self, monkeypatch):
        # a per-channel fit embeds model by model: when model 0 starts to
        # absorb, the traced heap holds its design rows and its windows'
        # copy, about two blocks of m·(d + d_t) doubles, not one per model
        G, L, H, m = 16, 64, 16, 20
        rng = np.random.default_rng(113)
        slab = rng.normal(size=(G, m + L + H - 1))
        f = OnlineForecaster(L, H, 8, models=G)
        for row in slab.T[:5]:
            f.observe_values(row)
        block = 8 * m * (f.design_dim + f.core.dim_out)
        held, absorb = [], SpectralRidge.absorb

        def spy(core, rows_in, rows_out, method="auto"):
            if not held:
                held.append(tracemalloc.get_traced_memory()[0])
            absorb(core, rows_in, rows_out, method)

        monkeypatch.setattr(SpectralRidge, "absorb", spy)
        tracemalloc.start()
        try:
            f.fit_slab(slab)
        finally:
            tracemalloc.stop()
        assert [core.last_path for core in f.cores] == ["direct"] * G
        assert held[0] <= 4 * block, f"{held[0]} bytes traced > 4 blocks of {block}"

    def test_update_fit_at_the_paper_shape_copies_no_block(self):
        # one update's fit at the paper shape (C=7, m=200, L=520, H=96) from
        # its slab. numpy reports its buffers to tracemalloc, so the traced
        # peak holds every array the fit allocates; it must fit in the
        # design rows, four d×d arrays and one channel's windows with their
        # spectrum, 14.4 MiB. Embedding views of the slab measured 10.0 MiB,
        # the refit from moments 7.7 MiB. Cutting the windows as a (C, m, L)
        # block copy and fitting that through fit() peaked at 28.8 MiB
        C, m, L, H = 7, 200, 520, 96
        rng = np.random.default_rng(101)
        slab = rng.normal(size=(m + L + H - 1, C))
        f = OnlineForecaster(L, H, 24)
        for row in slab:
            f.observe_values(row)
        d, d_t = f.design_dim, f.core.dim_out
        bound = 8 * (C * m * (d + d_t) + 4 * d * d + m * (L + H)) + 16 * m * (L // 2 + 1)
        tracemalloc.start()
        try:
            cols = np.ascontiguousarray(slab.T)
            f.fit_slab(cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.core.last_path == "moments" and f.n_samples == C * m
        assert peak <= bound, f"traced peak {peak / 2**20:.1f} MiB > {bound / 2**20:.1f} MiB"
