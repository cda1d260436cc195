"""Online spectral ridge forecaster.

A single complex weight matrix maps low-pass-filtered context spectra to
low-pass-filtered target spectra. The matrix is the ridge solution over
every (context, target) pair absorbed so far and is refreshed
incrementally: small blocks update the maintained inverse Gram matrix
through the Woodbury identity, large blocks trigger a direct recompute
from normalized accumulators.

Two details keep the numerics stable over long streams. First, the Gram
and cross-moment matrices are stored divided by the sample count, so their
entries stay bounded no matter how much history accumulates; the ridge
term is annealed by the same factor when recomputing directly. Second,
each context row is conjugate-augmented before entering the design matrix:
for real signals the one-sided spectrum drops the conjugate half of the
frequency axis, and restoring it as explicit columns gives the fit the
full linear function class (without it, a strictly complex-linear map can
only represent about half of the real linear maps from context to
target).

Fitting embeds a whole block of pairs at once: one batched transform per
side, the same arithmetic :meth:`OnlineForecaster.embed_pair` applies to
one pair, which stays as the scalar reference.

Inference is folded. The chain forward transform -> low-pass ->
conjugate augmentation -> complex weight -> zero padding -> inverse
transform is linear in the (centered) context, so after every fit the
forecaster collapses it into one real ``(L, H)`` matrix ``time_map`` and a
forecast is ``(ctx - mean) @ time_map + mean``, for one context or a stack
of them. The fold costs one ``(d, d_t) @ (d_t, H)`` product and a
length-``L`` FFT of each of the ``H`` output columns; no ``L``-by-``d``
basis is built.

Channel handling: one weight matrix is shared across channels. Per-channel
running standard deviations (Welford accumulators) scale pairs before
fitting so channels with wildly different magnitudes contribute
comparably. At inference no scaling is applied; because context and target
are divided by the same factor, the learned map is scale-consistent and
rescaling would be a no-op. Each context is centered by its own mean,
which is added back onto the forecast.

Concurrency contract: ``predict`` is read-only (the fold is computed
eagerly by the writers) and may run concurrently with other ``predict``
calls; ``fit_block``, which rewrites the fold in place, and
``observe_values`` are exclusive writers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedUpdate, InvalidConfig, ShapeMismatch
# pad_spectrum and inverse_rft are not called here; the whole spectral chain
# stays importable from this module because the benchmark's tracer
# (perfbench/spans.py) wraps it by these names
from .spectral import (  # noqa: F401
    FilterSpec,
    forward_rft,
    full_bin_count,
    inverse_rft,
    lowpass,
    pad_spectrum,
)

SIGMA_FLOOR = 1e-8
CONDITION_LIMIT = 1e12
SNAPSHOT_FORMAT = "adapts-forecaster/1"


@dataclass
class SamplePair:
    """One (context, target) training pair for a single channel."""

    context: np.ndarray
    target: np.ndarray
    channel: int


class ChannelStats:
    """Per-channel running mean and variance (Welford accumulators).

    The accumulator arrays are sized on the first call to
    :meth:`observe`; every later call must carry the same channel count.
    """

    def __init__(self):
        self.counts = None
        self.means = None
        self.m2s = None

    @property
    def n_channels(self):
        return 0 if self.counts is None else self.counts.shape[0]

    def observe(self, values) -> None:
        """Absorb one scalar per channel."""
        x = np.asarray(values, dtype=np.float64)
        if x.ndim != 1:
            raise ShapeMismatch(f"expected one scalar per channel, got shape {x.shape}")
        if self.counts is None:
            self.counts = np.zeros(x.shape[0], dtype=np.int64)
            self.means = np.zeros(x.shape[0])
            self.m2s = np.zeros(x.shape[0])
        elif x.shape[0] != self.counts.shape[0]:
            raise ShapeMismatch(
                f"channel count changed from {self.counts.shape[0]} to {x.shape[0]}"
            )
        self.counts += 1
        delta = x - self.means
        self.means += delta / self.counts
        self.m2s += delta * (x - self.means)

    def variance(self, channel: int) -> float:
        """Sample variance; zero until a channel has two observations."""
        if self.counts is None or self.counts[channel] < 2:
            return 0.0
        return float(self.m2s[channel] / (self.counts[channel] - 1))

    def std(self, channel: int) -> float:
        """Scaling factor for a channel: 1 until two observations exist,
        then the running standard deviation floored at ``SIGMA_FLOOR``."""
        if self.counts is None or channel >= self.counts.shape[0] or self.counts[channel] < 2:
            return 1.0
        return max(float(np.sqrt(self.variance(channel))), SIGMA_FLOOR)


class SpectralRidge:
    """Incremental complex ridge regression.

    Maintains ``a_inv = (X*X + lam*I)^-1`` over all absorbed design rows
    ``X`` together with normalized accumulators ``gram_norm = X*X / N``
    and ``cross_norm = X*Y / N``. The cached ``weight`` always equals the
    closed-form ridge solution ``a_inv @ X*Y``.
    """

    def __init__(self, dim_in: int, dim_out: int, lam: float):
        if dim_in < 1 or dim_out < 1:
            raise InvalidConfig(f"dimensions must be positive, got ({dim_in}, {dim_out})")
        if not lam > 0:
            raise InvalidConfig(f"ridge coefficient must be positive, got {lam}")
        self.dim_in = dim_in
        self.dim_out = dim_out
        self.lam = float(lam)
        self.a_inv = np.eye(dim_in, dtype=np.complex128) / lam
        self.gram_norm = np.zeros((dim_in, dim_in), dtype=np.complex128)
        self.cross_norm = np.zeros((dim_in, dim_out), dtype=np.complex128)
        self.weight = np.zeros((dim_in, dim_out), dtype=np.complex128)
        self.n_samples = 0

    def _hermitize(self, m: np.ndarray) -> np.ndarray:
        return (m + m.conj().T) / 2.0

    def _woodbury_step(self, rows: np.ndarray) -> np.ndarray:
        """Inverse after adding ``rows`` to the Gram, via the low-rank
        update; the inner solve is block-size by block-size."""
        m = rows.shape[0]
        t = self.a_inv @ rows.conj().T                      # (d, m)
        inner = np.eye(m, dtype=np.complex128) + rows @ t   # (m, m)
        if np.linalg.cond(inner) > CONDITION_LIMIT:
            raise IllConditionedUpdate(
                f"inner {m}x{m} solve condition exceeds {CONDITION_LIMIT:.0e}"
            )
        return self._hermitize(self.a_inv - t @ np.linalg.solve(inner, t.conj().T))

    def _direct_inverse(self, total: int) -> np.ndarray:
        """Inverse recomputed from the normalized Gram with the ridge term
        annealed by 1/N, avoiding the unbounded raw accumulation."""
        reg = self.gram_norm + (self.lam / total) * np.eye(self.dim_in)
        try:
            inv = np.linalg.inv(reg)
        except np.linalg.LinAlgError as exc:
            raise IllConditionedUpdate(f"regularized Gram is singular: {exc}") from exc
        return self._hermitize(inv / total)

    def absorb(self, rows_in: np.ndarray, rows_out: np.ndarray, method: str = "auto") -> None:
        """Fold a block of design rows into the model and refresh ``weight``.

        Parameters
        ----------
        rows_in : (m, dim_in) complex ndarray
        rows_out : (m, dim_out) complex ndarray
        method : {"auto", "woodbury", "direct"}
            "auto" uses the Woodbury path for blocks smaller than
            ``dim_in`` and falls back to a direct recompute when the inner
            solve is ill-conditioned; "woodbury" raises
            :class:`IllConditionedUpdate` instead of falling back.
        """
        rows_in = np.asarray(rows_in, dtype=np.complex128)
        rows_out = np.asarray(rows_out, dtype=np.complex128)
        if rows_in.ndim != 2 or rows_in.shape[1] != self.dim_in:
            raise ShapeMismatch(f"design rows must be (m, {self.dim_in}), got {rows_in.shape}")
        if rows_out.shape != (rows_in.shape[0], self.dim_out):
            raise ShapeMismatch(
                f"target rows must be ({rows_in.shape[0]}, {self.dim_out}), got {rows_out.shape}"
            )
        m = rows_in.shape[0]
        if m == 0:
            raise ShapeMismatch("cannot absorb an empty block")
        if method not in ("auto", "woodbury", "direct"):
            raise InvalidConfig(f"unknown fit method {method!r}")

        new_a_inv = None
        if method == "woodbury" or (method == "auto" and m < self.dim_in):
            try:
                new_a_inv = self._woodbury_step(rows_in)
            except IllConditionedUpdate:
                if method == "woodbury":
                    raise
                new_a_inv = None  # auto: fall back to the direct recompute

        total = self.n_samples + m
        keep = self.n_samples / total
        self.gram_norm = keep * self.gram_norm + (rows_in.conj().T @ rows_in) / total
        self.cross_norm = keep * self.cross_norm + (rows_in.conj().T @ rows_out) / total
        self.n_samples = total
        self.a_inv = new_a_inv if new_a_inv is not None else self._direct_inverse(total)
        self.weight = total * (self.a_inv @ self.cross_norm)


class OnlineForecaster:
    """Rolling forecaster built on :class:`SpectralRidge`.

    Until the first fit, forecasts fall back to tiling the final season of
    the context forward, which needs no training data.
    """

    def __init__(self, context_length: int, horizon: int, seasonality: int,
                 lam: float = 20.0, alpha: float = 0.9,
                 instance_norm: bool = True, channel_scaling: bool = True):
        if not (context_length >= seasonality >= 1):
            raise InvalidConfig(
                f"need context_length >= seasonality >= 1, got ({context_length}, {seasonality})"
            )
        if horizon < 1:
            raise InvalidConfig(f"horizon must be >= 1, got {horizon}")
        if not lam > 0:
            raise InvalidConfig(f"ridge coefficient must be positive, got {lam}")
        if not 0.0 < alpha <= 1.0:
            raise InvalidConfig(f"filter fraction must be in (0, 1], got {alpha}")
        self.context_length = context_length
        self.horizon = horizon
        self.seasonality = seasonality
        self.lam = float(lam)
        self.alpha = float(alpha)
        self.instance_norm = instance_norm
        self.channel_scaling = channel_scaling
        self.filter = FilterSpec.for_lengths(alpha, context_length, horizon)
        d_c = self.filter.context_bins
        # conjugate columns restore the negative-frequency half of the
        # axis; DC has none, nor does Nyquist when it is retained
        self._nyquist_kept = context_length % 2 == 0 and d_c == full_bin_count(context_length)
        self._conj_stop = d_c - 1 if self._nyquist_kept else d_c
        self.design_dim = d_c + max(0, self._conj_stop - 1)
        self.core = SpectralRidge(self.design_dim, self.filter.target_bins, lam)
        self.stats = ChannelStats()
        # synthesis rows: Re(bins @ synthesis) is the inverse transform of
        # the zero-padded target bins, DC and Nyquist conventions included
        unit = np.eye(self.filter.target_bins, full_bin_count(horizon))
        self._synthesis = (np.fft.irfft(unit, n=horizon)
                           - 1j * np.fft.irfft(1j * unit, n=horizon))
        # (L, H) real fold of core.weight, rewritten in place by _refold.
        # One block for the forecaster's lifetime, plus adding the mean in
        # place in predict, keeps peak RSS within ~1 % of the unfolded code
        # on a per-channel L=520 replay; fresh arrays in those two places
        # fragmented the heap around the ridge update's 3.5 MB temporaries
        # and cost +4 %
        self.time_map = np.zeros((context_length, horizon))

    @property
    def n_samples(self) -> int:
        return self.core.n_samples

    def observe_values(self, values) -> None:
        """Feed one newly observed scalar per channel into the running
        per-channel statistics."""
        self.stats.observe(values)

    def _augment(self, row: np.ndarray) -> np.ndarray:
        return np.concatenate([row, np.conj(row[1:self._conj_stop])])

    def embed_pair(self, pair: SamplePair):
        """Filtered spectra of one normalized pair.

        The context mean is subtracted from both sides (mirroring the
        inference path) and both sides are divided by the channel's
        running standard deviation.

        Returns
        -------
        (context_row, target_row) : complex ndarrays of the filtered bin
        counts.
        """
        ctx = np.asarray(pair.context, dtype=np.float64)
        tgt = np.asarray(pair.target, dtype=np.float64)
        if ctx.shape != (self.context_length,):
            raise ShapeMismatch(f"context must have length {self.context_length}, got {ctx.shape}")
        if tgt.shape != (self.horizon,):
            raise ShapeMismatch(f"target must have length {self.horizon}, got {tgt.shape}")
        mu = ctx.mean() if self.instance_norm else 0.0
        sigma = self.stats.std(pair.channel) if self.channel_scaling else 1.0
        ctx_row = lowpass(forward_rft((ctx - mu) / sigma), self.filter.context_bins).bins
        tgt_row = lowpass(forward_rft((tgt - mu) / sigma), self.filter.target_bins).bins
        return ctx_row, tgt_row

    def fit_block(self, pairs, method: str = "auto") -> None:
        """Embed a block of pairs and absorb it into the ridge state.

        The block is embedded in one batched pass whose rows equal
        :meth:`embed_pair` followed by :meth:`_augment` on each pair; the
        folded ``time_map`` is refreshed afterwards. Channel statistics
        must already reflect the observations the pairs were cut from
        (see :meth:`observe_values`).
        """
        if not pairs:
            raise ShapeMismatch("fit_block needs at least one pair")
        L, H = self.context_length, self.horizon
        d_c, d_t = self.filter.context_bins, self.filter.target_bins
        ctx = np.empty((len(pairs), L))
        tgt = np.empty((len(pairs), H))
        for i, p in enumerate(pairs):
            if np.shape(p.context) != (L,):
                raise ShapeMismatch(f"context must have length {L}, got {np.shape(p.context)}")
            if np.shape(p.target) != (H,):
                raise ShapeMismatch(f"target must have length {H}, got {np.shape(p.target)}")
            ctx[i] = p.context
            tgt[i] = p.target
        if self.instance_norm:
            mu = ctx.mean(axis=1, keepdims=True)
            ctx -= mu
            tgt -= mu
        if self.channel_scaling:
            channels = [p.channel for p in pairs]
            sigma_of = {ch: self.stats.std(ch) for ch in set(channels)}
            sigma = np.array([sigma_of[ch] for ch in channels])[:, None]
            ctx /= sigma
            tgt /= sigma
        ctx_bins = np.fft.rfft(ctx, axis=1)
        del ctx
        rows_in = np.empty((len(pairs), self.design_dim), dtype=np.complex128)
        rows_in[:, :d_c] = ctx_bins[:, :d_c]
        np.conjugate(ctx_bins[:, 1:self._conj_stop], out=rows_in[:, d_c:])
        del ctx_bins
        rows_out = np.ascontiguousarray(np.fft.rfft(tgt, axis=1)[:, :d_t])
        self.core.absorb(rows_in, rows_out, method=method)
        self._refold()

    def _refold(self) -> None:
        """Collapse the spectral chain around ``core.weight`` into the real
        ``(L, H)`` matrix ``time_map``, in place.

        ``weight @ synthesis`` maps augmented context bins to the forecast.
        A conjugate column acts on ``conj(bin k)``; its real-part
        contribution equals that of ``bin k`` against the conjugated row.
        Both halves therefore fold into one bin-by-output array, and the
        forward transform's sum over context bins is one FFT along it.
        """
        d_c = self.filter.context_bins
        m = self.core.weight @ self._synthesis                 # (d, H)
        per_bin = np.zeros((self.context_length, self.horizon), dtype=np.complex128)
        per_bin[:d_c] = m[:d_c]
        per_bin[1:self._conj_stop] += np.conj(m[d_c:])
        np.copyto(self.time_map, np.fft.fft(per_bin, axis=0).real)

    def _seasonal_tile(self, context: np.ndarray) -> np.ndarray:
        season = context[..., -self.seasonality:]
        reps = -(-self.horizon // self.seasonality)
        return np.tile(season, reps)[..., : self.horizon]

    def predict(self, context, channel: int = 0) -> np.ndarray:
        """Forecast the next ``horizon`` values.

        ``context`` is one window ``(L,)`` or a stack of windows ``(n, L)``;
        the result is ``(H,)`` or ``(n, H)``. ``channel`` is accepted for
        symmetry with fitting and ignored: inference applies no channel
        scaling.
        """
        ctx = np.asarray(context, dtype=np.float64)
        if ctx.ndim not in (1, 2) or ctx.shape[-1] != self.context_length:
            raise ShapeMismatch(
                f"context must be ({self.context_length},) or (n, {self.context_length}), "
                f"got {ctx.shape}"
            )
        if self.core.n_samples == 0:
            return self._seasonal_tile(ctx)
        mu = ctx.mean(axis=-1, keepdims=True) if self.instance_norm else 0.0
        out = (ctx - mu) @ self.time_map
        out += mu  # in place, see time_map in __init__
        return out


def new_forecaster(context_length, horizon, seasonality, lam=20.0, alpha=0.9,
                   instance_norm=True, channel_scaling=True) -> OnlineForecaster:
    """Construct an untrained forecaster (cold-start path active)."""
    return OnlineForecaster(context_length, horizon, seasonality, lam, alpha,
                            instance_norm, channel_scaling)


def save_forecaster(forecaster: OnlineForecaster, path) -> None:
    """Snapshot the full state to an ``.npz`` file (lossless round trip)."""
    st = forecaster.stats
    empty_i = np.zeros(0, dtype=np.int64)
    empty_f = np.zeros(0)
    np.savez(
        path,
        format=SNAPSHOT_FORMAT,
        context_length=forecaster.context_length,
        horizon=forecaster.horizon,
        seasonality=forecaster.seasonality,
        lam=forecaster.lam,
        alpha=forecaster.alpha,
        instance_norm=forecaster.instance_norm,
        channel_scaling=forecaster.channel_scaling,
        n_samples=forecaster.core.n_samples,
        a_inv=forecaster.core.a_inv,
        gram_norm=forecaster.core.gram_norm,
        cross_norm=forecaster.core.cross_norm,
        weight=forecaster.core.weight,
        stats_counts=st.counts if st.counts is not None else empty_i,
        stats_means=st.means if st.means is not None else empty_f,
        stats_m2s=st.m2s if st.m2s is not None else empty_f,
    )


def load_forecaster(path) -> OnlineForecaster:
    """Restore a forecaster saved by :func:`save_forecaster`."""
    with np.load(path) as data:
        if str(data["format"]) != SNAPSHOT_FORMAT:
            raise InvalidConfig(f"unsupported snapshot format {data['format']!r}")
        f = OnlineForecaster(
            int(data["context_length"]), int(data["horizon"]), int(data["seasonality"]),
            float(data["lam"]), float(data["alpha"]),
            bool(data["instance_norm"]), bool(data["channel_scaling"]),
        )
        d, d_t = f.design_dim, f.filter.target_bins
        for name, shape in (("a_inv", (d, d)), ("gram_norm", (d, d)),
                            ("cross_norm", (d, d_t)), ("weight", (d, d_t))):
            value = data[name]
            if value.shape != shape:
                raise InvalidConfig(f"snapshot {name} has shape {value.shape}, expected {shape}")
            setattr(f.core, name, value)
        stats = [data[name] for name in ("stats_counts", "stats_means", "stats_m2s")]
        if any(a.ndim != 1 or a.shape != stats[0].shape for a in stats):
            raise InvalidConfig(
                f"snapshot stats_counts, stats_means and stats_m2s have shapes "
                f"{[a.shape for a in stats]}, expected three equal-length vectors"
            )
        f.core.n_samples = int(data["n_samples"])
        if stats[0].shape[0]:
            f.stats.counts, f.stats.means, f.stats.m2s = stats
    f._refold()
    return f
