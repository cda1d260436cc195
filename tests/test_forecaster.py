"""Tests for the online spectral ridge forecaster.

Independent oracles: batch inverses built from the accumulated design
matrix, the Sherman-Morrison rank-1 closed form, a two-pass variance
computation, and plain time-domain ridge regression.
"""

import numpy as np
import pytest

from adapts.errors import IllConditionedUpdate, InvalidConfig, ShapeMismatch
from adapts.forecaster import (
    ChannelStats,
    OnlineForecaster,
    SamplePair,
    SpectralRidge,
    load_forecaster,
    new_forecaster,
    save_forecaster,
)
from adapts.spectral import Spectrum, forward_rft, inverse_rft, lowpass, pad_spectrum


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def batch_inverse(all_rows, lam):
    """Direct inverse of (X*X + lam I) from the full accumulated design."""
    d = all_rows.shape[1]
    return np.linalg.inv(all_rows.conj().T @ all_rows + lam * np.eye(d))


def rel_frobenius(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def spectral_chain_predict(f, context):
    """The unfolded inference chain for one context: forward transform,
    low-pass, conjugate augmentation, complex weight, zero padding and
    inverse transform, plus the context mean."""
    ctx = np.asarray(context, dtype=np.float64)
    mu = ctx.mean() if f.instance_norm else 0.0
    row = lowpass(forward_rft(ctx - mu), f.filter.context_bins).bins
    out_bins = f._augment(row) @ f.core.weight
    return inverse_rft(pad_spectrum(Spectrum(bins=out_bins, original_length=f.horizon))) + mu


# (context_length, horizon, alpha): even L keeping the Nyquist bin, odd L
# with a partial filter, and a filter keeping the DC bin alone
SHAPES = [(16, 4, 1.0), (17, 5, 0.8), (10, 4, 0.01)]
CONFIGS = [(L, H, alpha, instance_norm, channel_scaling)
           for L, H, alpha in SHAPES
           for instance_norm in (True, False)
           for channel_scaling in (True, False)]


def fitted_pair_of_forecasters(config, seed):
    """Two identical forecasters with the same channel statistics over
    three observed channels, plus a generator for random pair blocks that
    also use a channel never observed."""
    L, H, alpha, instance_norm, channel_scaling = config
    rng = np.random.default_rng(seed)
    twins = [new_forecaster(L, H, 2, lam=2.0, alpha=alpha, instance_norm=instance_norm,
                            channel_scaling=channel_scaling) for _ in range(2)]
    for v in rng.normal(size=(25, 3)) * [1.0, 6.0, 0.05]:
        for f in twins:
            f.observe_values(v)

    def block(n):
        return [SamplePair(rng.normal(size=L) + 4.0, rng.normal(size=H) + 4.0,
                           int(rng.choice([0, 1, 2, 5]))) for _ in range(n)]

    return twins, block, rng


class TestConstruction:
    def test_default_filter_dimensions(self):
        f = new_forecaster(520, 96, 24, lam=20.0, alpha=0.9)
        assert f.filter.context_bins == 235
        assert f.filter.target_bins == 45
        # conjugate columns for the 234 non-DC retained bins
        assert f.design_dim == 469
        np.testing.assert_allclose(f.core.a_inv, np.eye(469) / 20.0)
        assert f.n_samples == 0

    def test_unfiltered_small_model(self):
        f = new_forecaster(4, 2, 1, lam=1.0, alpha=1.0)
        assert f.filter.context_bins == 3
        assert f.filter.target_bins == 2
        # bins 0 and 2 (Nyquist) are self-conjugate, bin 1 gets a twin
        assert f.design_dim == 4
        np.testing.assert_array_equal(f.core.a_inv, np.eye(4, dtype=complex))
        np.testing.assert_array_equal(f.core.cross_norm, np.zeros((4, 2)))

    def test_tiny_alpha_keeps_dc_only(self):
        f = new_forecaster(10, 4, 2, lam=1.0, alpha=0.01)
        assert f.filter.context_bins == 1
        assert f.design_dim == 1

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(InvalidConfig):
            new_forecaster(10, 4, 12)  # seasonality > context
        with pytest.raises(InvalidConfig):
            new_forecaster(10, 0, 2)
        with pytest.raises(InvalidConfig):
            new_forecaster(10, 4, 2, lam=0.0)
        with pytest.raises(InvalidConfig):
            new_forecaster(10, 4, 2, alpha=1.5)


class TestChannelStats:
    def test_constant_channel_has_zero_variance_and_floored_std(self):
        st = ChannelStats()
        for _ in range(4):
            st.observe([2.0])
        assert st.variance(0) == 0.0
        assert st.std(0) == 1e-8

    def test_matches_two_pass_oracle(self):
        st = ChannelStats()
        vals = [1.0, 2.0, 3.0, 4.0, 5.0]
        for v in vals:
            st.observe([v])
        assert st.means[0] == pytest.approx(np.mean(vals))
        assert st.variance(0) == pytest.approx(np.var(vals, ddof=1))
        # random streams against the textbook two-pass formula
        rng = np.random.default_rng(12)
        st2 = ChannelStats()
        xs = rng.normal(3.0, 2.5, size=200)
        for v in xs:
            st2.observe([v])
        assert st2.variance(0) == pytest.approx(np.var(xs, ddof=1), rel=1e-12)

    def test_channels_do_not_mix(self):
        st = ChannelStats()
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 1.0, size=50)
        b = rng.normal(100.0, 9.0, size=50)
        for x, y in zip(a, b):
            st.observe([x, y])
        assert st.means[0] == pytest.approx(a.mean())
        assert st.means[1] == pytest.approx(b.mean())
        assert st.variance(0) == pytest.approx(np.var(a, ddof=1))
        assert st.variance(1) == pytest.approx(np.var(b, ddof=1))

    def test_fewer_than_two_observations_scale_one(self):
        st = ChannelStats()
        assert st.std(0) == 1.0
        st.observe([7.0])
        assert st.std(0) == 1.0


class TestEmbed:
    def test_constant_context_embeds_to_zero(self):
        f = new_forecaster(4, 2, 1, lam=1.0, alpha=1.0)
        ctx_row, _ = f.embed_pair(SamplePair(np.full(4, 5.0), np.array([1.0, 2.0]), 0))
        np.testing.assert_allclose(ctx_row, 0.0, atol=1e-12)

    def test_channel_std_scales_rows_linearly(self):
        pair = SamplePair(np.array([1.0, 4.0, 2.0, 3.0]), np.array([5.0, 6.0]), 0)
        f1 = new_forecaster(4, 2, 1, lam=1.0, alpha=1.0)
        f2 = new_forecaster(4, 2, 1, lam=1.0, alpha=1.0)
        # drive the running std of f2 to twice that of f1
        for v in (0.0, 2.0):
            f1.observe_values([v])
        for v in (0.0, 4.0):
            f2.observe_values([v])
        assert f2.stats.std(0) == pytest.approx(2 * f1.stats.std(0))
        c1, t1 = f1.embed_pair(pair)
        c2, t2 = f2.embed_pair(pair)
        np.testing.assert_allclose(c2, c1 / 2, rtol=1e-12)
        np.testing.assert_allclose(t2, t1 / 2, rtol=1e-12)

    def test_alternating_context_matches_dft(self):
        f = new_forecaster(4, 2, 1, lam=1.0, alpha=1.0)
        ctx_row, _ = f.embed_pair(SamplePair(np.array([0.0, 1.0, 0.0, 1.0]),
                                             np.array([0.0, 0.0]), 0))
        expected = lowpass(forward_rft(np.array([-0.5, 0.5, -0.5, 0.5])), 3).bins
        np.testing.assert_allclose(ctx_row, expected, atol=1e-12)

    def test_wrong_lengths_rejected(self):
        f = new_forecaster(4, 2, 1)
        with pytest.raises(ShapeMismatch):
            f.embed_pair(SamplePair(np.zeros(5), np.zeros(2), 0))
        with pytest.raises(ShapeMismatch):
            f.embed_pair(SamplePair(np.zeros(4), np.zeros(3), 0))


class TestSpectralRidge:
    def test_woodbury_matches_batch_inverse_over_schedules(self):
        rng = np.random.default_rng(42)
        for d in (4, 12):
            for _ in range(10):
                lam = float(rng.uniform(0.5, 30.0))
                model = SpectralRidge(d, 3, lam)
                seen = []
                for _ in range(rng.integers(2, 12)):
                    m = int(rng.integers(1, d))  # keep blocks on the Woodbury path
                    rows = random_complex(rng, (m, d))
                    outs = random_complex(rng, (m, 3))
                    model.absorb(rows, outs)
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
            model.absorb(rows, outs)
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
        model.absorb(row, random_complex(rng, (1, 2)))
        u = row[0].conj()
        denom = 1.0 + (row[0] @ a_prev @ u)
        oracle = a_prev - np.outer(a_prev @ u, row[0] @ a_prev) / denom
        assert rel_frobenius(model.a_inv, oracle) < 1e-12

    def test_zero_rows_leave_inverse_and_rescale_cross(self):
        rng = np.random.default_rng(5)
        d = 4
        model = SpectralRidge(d, 2, 1.0)
        model.absorb(random_complex(rng, (6, d)), random_complex(rng, (6, 2)))
        a_prev = model.a_inv.copy()
        cross_prev = model.cross_norm.copy()
        n_prev = model.n_samples
        m = 3
        model.absorb(np.zeros((m, d), dtype=complex), random_complex(rng, (m, 2)))
        np.testing.assert_allclose(model.a_inv, a_prev, atol=1e-14)
        np.testing.assert_allclose(model.cross_norm, cross_prev * n_prev / (n_prev + m),
                                   rtol=1e-12)
        assert model.n_samples == n_prev + m

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
            model.absorb(random_complex(rng, (m, d)), random_complex(rng, (m, 2)))
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
        f = new_forecaster(16, 4, 2, lam=5.0, alpha=0.8)
        all_rows = []
        for n in (3, 5, 2, 8):
            pairs = self._make_pairs(rng, f, n)
            emb = [f.embed_pair(p) for p in pairs]
            all_rows.extend(f._augment(c) for c, _ in emb)
            f.fit_block(pairs)
        oracle = batch_inverse(np.vstack(all_rows), 5.0)
        assert rel_frobenius(f.core.a_inv, oracle) < 1e-9

    def test_empty_block_rejected(self):
        f = new_forecaster(8, 2, 2)
        with pytest.raises(ShapeMismatch):
            f.fit_block([])

    def test_wrong_lengths_rejected(self):
        f = new_forecaster(8, 2, 2)
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
            emb = [oracle.embed_pair(p) for p in pairs]
            oracle.core.absorb(np.stack([oracle._augment(c) for c, _ in emb]),
                               np.stack([t for _, t in emb]))
            for name in ("a_inv", "gram_norm", "cross_norm", "weight"):
                got, want = getattr(f.core, name), getattr(oracle.core, name)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), name
        assert f.n_samples == oracle.n_samples == 56


class TestFoldedPredict:
    @pytest.mark.parametrize("config", CONFIGS)
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

    def test_stack_equals_row_by_row(self):
        (f, _), block, rng = fitted_pair_of_forecasters((17, 5, 0.8, True, True), seed=31)
        f.fit_block(block(20))
        probes = rng.normal(size=(7, 17))
        stacked = f.predict(probes)
        assert stacked.shape == (7, 5)
        rows = np.stack([f.predict(p) for p in probes])
        np.testing.assert_allclose(stacked, rows, rtol=1e-12, atol=1e-12)

    def test_cold_start_tiles_each_row_of_a_stack(self):
        f = new_forecaster(6, 5, 2)
        ctxs = np.array([[1.0, 2.0, 3.0, 4.0, 7.0, 9.0],
                         [0.0, 0.0, 0.0, 0.0, -1.0, 5.0]])
        np.testing.assert_array_equal(f.predict(ctxs), [[7.0, 9.0, 7.0, 9.0, 7.0],
                                                        [-1.0, 5.0, -1.0, 5.0, -1.0]])
        g = new_forecaster(8, 2, 4)
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


class TestPredict:
    def test_cold_start_tiles_last_season(self):
        f = new_forecaster(6, 5, 2)
        ctx = np.array([1.0, 2.0, 3.0, 4.0, 7.0, 9.0])
        np.testing.assert_array_equal(f.predict(ctx), [7.0, 9.0, 7.0, 9.0, 7.0])

    def test_cold_start_with_season_longer_than_horizon(self):
        f = new_forecaster(8, 2, 4)
        ctx = np.arange(8.0)
        np.testing.assert_array_equal(f.predict(ctx), [4.0, 5.0])

    def test_constant_context_predicts_constant_after_fit(self):
        rng = np.random.default_rng(2)
        f = new_forecaster(12, 3, 2, lam=1.0, alpha=0.9)
        f.observe_values([0.0])
        f.observe_values([1.0])
        f.fit_block([SamplePair(rng.normal(size=12), rng.normal(size=3), 0)
                     for _ in range(20)])
        out = f.predict(np.full(12, 6.25))
        np.testing.assert_allclose(out, np.full(3, 6.25), atol=1e-10)

    def test_scale_equivariance_on_zero_mean_contexts(self):
        rng = np.random.default_rng(8)
        f = new_forecaster(12, 3, 2, lam=2.0, alpha=1.0)
        f.fit_block([SamplePair(rng.normal(size=12), rng.normal(size=3), 0)
                     for _ in range(30)])
        x = rng.normal(size=12)
        x -= x.mean()
        gap = f.predict(2 * x) - 2 * f.predict(x)
        assert np.max(np.abs(gap)) < 1e-9

    def test_wrong_context_length_rejected(self):
        f = new_forecaster(8, 2, 2)
        with pytest.raises(ShapeMismatch):
            f.predict(np.zeros(7))


class TestOlsEquivalence:
    def test_unfiltered_fit_matches_time_domain_ridge(self):
        rng = np.random.default_rng(31)
        L, H, n = 32, 8, 120
        for _ in range(5):
            f = new_forecaster(L, H, 1, lam=1e-9, alpha=1.0,
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
            f = new_forecaster(L, H, 2, lam=1e-9, alpha=0.9)
            for v in obs * boost:
                f.observe_values([v])
            f.fit_block([SamplePair(x[i], y[i], 0) for i in range(n)])
            preds.append(f.predict(probe.copy()))
        np.testing.assert_allclose(preds[0], preds[1], rtol=1e-8, atol=1e-10)


class TestSnapshot:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(19)
        f = new_forecaster(16, 4, 2, lam=3.0, alpha=0.8)
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
        np.testing.assert_array_equal(g.core.gram_norm, f.core.gram_norm)
        np.testing.assert_array_equal(g.core.cross_norm, f.core.cross_norm)
        np.testing.assert_array_equal(g.stats.counts, f.stats.counts)
        np.testing.assert_array_equal(g.stats.means, f.stats.means)
        probe = rng.normal(size=16)
        np.testing.assert_array_equal(g.predict(probe, 1), f.predict(probe, 1))

    @pytest.mark.parametrize("field, bad", [
        ("a_inv", lambda a: np.zeros((3, 16), dtype=complex)),
        ("gram_norm", lambda a: a[:-1]),
        ("cross_norm", lambda a: a[:, :-1]),
        ("weight", lambda a: a[:, :2]),
        ("stats_means", lambda a: a[:1]),
        ("stats_m2s", lambda a: np.zeros(0)),
        ("stats_counts", lambda a: a[None, :]),
    ])
    def test_mis_shaped_fields_rejected(self, tmp_path, field, bad):
        rng = np.random.default_rng(43)
        f = new_forecaster(16, 4, 2, lam=3.0, alpha=0.8)
        for v in rng.normal(size=(10, 2)):
            f.observe_values(v)
        f.fit_block([SamplePair(rng.normal(size=16), rng.normal(size=4), 0)
                     for _ in range(5)])
        assert f.core.weight.shape == (f.design_dim, 3)
        path = tmp_path / "state.npz"
        save_forecaster(f, path)
        with np.load(path) as data:
            fields = dict(data)
        fields[field] = bad(fields[field])
        np.savez(path, **fields)
        with pytest.raises(InvalidConfig, match=field):
            load_forecaster(path)
