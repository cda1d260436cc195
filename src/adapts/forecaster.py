"""Online spectral ridge forecaster.

A real ridge regression maps the low-pass-filtered spectrum of a context
window to the low-pass-filtered spectrum of the target that follows it
(the frequency-domain linear map of FITS, Xu, Zeng and Xu, ICLR 2024).
Both sides enter as real coefficients of their kept one-sided bins, in
the order ``[DC, sqrt2*Re bins 1..k, sqrt2*Im bins 1..k, Nyquist if
kept]``; :func:`_real_coefficients` is the one place that layout is
decided. For a real signal of length ``n`` these coefficients are an
orthogonal transform of the signal scaled by ``sqrt(n)`` (Parseval), so
the ridge spans every real linear map between the kept bands. It gives the
same forecasts as a complex ridge over conjugate-augmented rows ``[z,
conj(z)]``: those are a unitary transform of ``sqrt2*[Re z, Im z]``, and
ridge regression is invariant under unitary transforms of its rows.

Under instance normalization the context is centered and its DC
coefficient is zero, up to rounding when embedded and exactly from
moments. The DC column stays anyway: one basis
then serves both settings, and a zero column costs one Gram row.

The weight matrix is the ridge solution over every (context, target) pair
absorbed so far and is refreshed incrementally (:class:`SpectralRidge`),
by one of three paths:

- small blocks (:func:`woodbury_pays`) take a block recursive least
  squares step through the Woodbury identity in square-root form: the
  Cholesky factor ``F`` of the small inner matrix whitens the block once,
  ``[V | Z] = F^-1 [T* | R]``, and the step adds ``V* Z`` to the weight
  and subtracts ``V* V`` from the inverse Gram matrix in place, which
  keeps that inverse symmetric without re-symmetrising it;
- larger blocks, and small ones whose inner matrix fails a trace or
  Cholesky test, trigger a direct refit that solves for the weight from
  the Gram and cross-moment sums and leaves the inverse to be computed
  when something reads it;
- a refit from moments is the same solve, given the block's Gram and
  cross-moment instead of its rows.

:meth:`OnlineForecaster.fit_slab` fits an update from the channel-major
slab its windows are cut from, and works out the window count from the
slab's width. It picks one path for every model, then fits the models
one at a time. Below :func:`moments_pay` each model's windows, sliding
views of the slab, are copied once, centred, scaled and transformed into
that model's design rows. From :func:`moments_pay` on, a size no block
small enough for a Woodbury step reaches, it builds the block's Gram and
cross-moment from the slab's ``(L+H)``-lag second moments (the
covariance method of linear prediction, Makhoul 1975) and embeds no
window: the rows are a fixed linear map of each window, so their sums
are that map applied to the windows' second-moment matrix.
:meth:`OnlineForecaster.fit` takes (context, target) rows of any channels
through the same embedding, model by model. The embedding does the
arithmetic of :meth:`OnlineForecaster.embed_pair` plus the layout on one
:class:`SamplePair`, which stay as the scalar reference.

Inference is folded. Forward transform -> low-pass -> layout -> weight ->
inverse layout -> zero padding -> inverse transform is linear in the
(centered) context, so after every fit the forecaster collapses it into
one real ``(L, H)`` matrix ``time_map[g] = analysis @ weight @ synthesis``
per model and a forecast is ``(ctx - mean) @ time_map[g] + mean``, for
every model's contexts in one batched matmul. ``analysis`` is the layout
of the unit impulses' spectra; ``synthesis`` is the target-side one
transposed and divided by ``H``, because the full target layout is
orthogonal up to ``sqrt(H)``.

Channel handling: a forecaster holds G independent models, and the rows
it fits or predicts split into G equal consecutive groups, group g going
to model g: G = 1 shares one map across channels, G = C fits one per
channel. Per-channel running standard deviations, merged a block of rows
at a time, scale rows before fitting so channels with wildly different
magnitudes contribute comparably. At inference no scaling is applied;
because context and target are divided by the same factor, the learned
map is scale-consistent and rescaling would be a no-op. Each context is
centered by its own mean, which is added back onto the forecast.

Concurrency contract: ``predict`` is read-only (the fold is computed
eagerly by the writers) and may run concurrently with other ``predict``
calls; ``fit`` and ``fit_slab``, which rewrite the fold in place, and
``observe_values`` are exclusive writers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

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
SNAPSHOT_FORMAT = "adapts-forecaster/5"
_RIDGE_FIELDS = ("a_inv", "gram", "cross", "weight")  # per model, stacked in a snapshot


def _real_coefficients(bins: np.ndarray, n: int, out: np.ndarray = None) -> np.ndarray:
    """Real coefficients ``(..., d)`` of the kept one-sided bins
    ``(..., keep)`` of real length-``n`` signals, ordered ``[DC,
    sqrt2*Re bins 1..k, sqrt2*Im bins 1..k, Nyquist if kept]``, written
    into ``out`` when given.

    DC and Nyquist are real for real signals and enter once; every other
    bin stands for itself and its conjugate twin, hence the sqrt2.
    """
    keep = bins.shape[-1]
    stop = keep - 1 if n % 2 == 0 and keep == full_bin_count(n) else keep
    paired = bins[..., 1:stop]
    k = stop - 1
    if out is None:
        out = np.empty(bins.shape[:-1] + (keep + k,))
    out[..., :1] = bins[..., :1].real
    np.multiply(paired.real, np.sqrt(2.0), out=out[..., 1:1 + k])
    np.multiply(paired.imag, np.sqrt(2.0), out=out[..., 1 + k:1 + 2 * k])
    out[..., 1 + 2 * k:] = bins[..., stop:].real
    return out


@dataclass
class SamplePair:
    """One (context, target) training pair for a single channel."""

    context: np.ndarray
    target: np.ndarray
    channel: int


class ChannelStats:
    """Running mean and variance of every channel, one ``count`` for all,
    merged a block of rows at a time (the pairwise update of Chan, Golub &
    LeVeque). ``means`` and ``m2s`` are empty until the first
    :meth:`observe` sizes them; every later call must keep their length."""

    def __init__(self):
        self.count = 0
        self.means = np.zeros(0)
        self.m2s = np.zeros(0)

    def observe(self, rows) -> None:
        """Merge one row ``(C,)`` or a block ``(k, C)``, oldest first, in one
        pass: the block's mean and squared deviations join the totals."""
        x = np.asarray(rows, dtype=np.float64)
        x = x[None] if x.ndim == 1 else x
        if x.ndim != 2 or not x.size:
            raise ShapeMismatch(f"expected a row (C,) or a non-empty block (k, C), got {x.shape}")
        if not self.count:
            self.means, self.m2s = np.zeros(x.shape[1]), np.zeros(x.shape[1])
        elif x.shape[1] != len(self.means):
            raise ShapeMismatch(f"channel count changed from {len(self.means)} to {x.shape[1]}")
        # reduce a channel-major copy along its rows, so each channel's sums
        # run in one order however many channels share the block
        cols = np.ascontiguousarray(x.T)
        block_mean = cols.mean(axis=1)
        block_m2 = np.square(cols - block_mean[:, None]).sum(axis=1)
        n, k = self.count, len(x)
        self.count = n + k
        delta = block_mean - self.means
        self.m2s += block_m2 + delta * delta * (n * k / self.count)
        self.means += delta * (k / self.count)

    def _count(self, channel: int) -> int:
        if channel < 0:
            raise ShapeMismatch(f"channel index must be non-negative, got {channel}")
        return self.count if channel < len(self.means) else 0

    def variance(self, channel: int) -> float:
        """Sample variance; zero until a channel has two observations,
        including a channel beyond the observed ones. A negative channel
        raises :class:`ShapeMismatch`, as it does in :meth:`std`."""
        if self._count(channel) < 2:
            return 0.0
        return float(self.m2s[channel] / (self.count - 1))

    def std(self, channel: int) -> float:
        """Scaling factor for a channel: 1 until two observations exist,
        then the running standard deviation floored at ``SIGMA_FLOOR``."""
        if self._count(channel) < 2:
            return 1.0
        return max(float(np.sqrt(self.variance(channel))), SIGMA_FLOOR)


@functools.lru_cache(maxsize=16)
def _season_index(context_length: int, seasonality: int, horizon: int) -> np.ndarray:
    """Context positions of a seasonal-naive forecast: the last ``s =
    min(seasonality, L)`` values, repeated across the horizon."""
    s = min(seasonality, context_length)
    index = context_length - s + np.arange(horizon) % s
    index.flags.writeable = False
    return index


def woodbury_pays(m: int, d: int) -> bool:
    """Whether ``absorb(method="auto")`` folds a block of ``m`` rows into a
    ridge of design dimension ``d`` by a Woodbury step rather than a direct
    refit.

    A Woodbury step grows with the block (three ``d×d×m`` products); a
    direct refit is dominated by its ``d×d`` solve. With one BLAS thread
    and real rows the two cross at 0.30-0.33·d at d=469 and at 0.38-0.44·d
    at d=117, so a third of ``d`` sits near the crossover at the one and on
    the Woodbury-paying side at the other.
    """
    return m < d // 3


def moments_pay(rows: int, width: int) -> bool:
    """Whether a refit of ``rows`` windows of width ``K = L + H`` builds
    its Gram and cross-moment from the slab's lagged moments rather than by
    embedding every window.

    Embedding grows with the rows (one FFT per window and a ``rows×d×d``
    Gram product); the moments cost a few ``K×K`` passes and about ``2L``
    FFTs of length ``L``, plus lag products that grow with the slab. With
    one BLAS thread and alpha = 0.9, whole fits crossed at about K rows for
    three or seven channels per model and at 1.25-1.5·K for one, at L =
    128, 336 and 520. From K on the moments pay for several channels and
    cost one channel at most a quarter more; well below K they cost
    1.2-1.5x, as in per-channel blocks of 100 windows at L = 128 or of 200
    at L = 520.
    """
    return rows >= width


def _inner_fault(inner: np.ndarray):
    """The test that rejects the Woodbury inner matrix ``I + X A X*``, and
    its factor: ``("trace", None)``, ``("cholesky", None)``, or ``(None,
    F)`` with ``F`` the lower Cholesky factor, ``inner = F F*``, when both
    tests pass.

    The matrix has eigenvalues >= 1, so its condition number is at most its
    largest eigenvalue, which is at most its trace: "trace" fires whenever
    ``cond(inner) > CONDITION_LIMIT`` would, and otherwise ``cond(F) =
    sqrt(cond(inner))`` stays below 1e6. "cholesky" fires when rounding
    has left it not positive definite, the one case in which it has no
    Cholesky factorisation.
    """
    if not np.trace(inner).real <= CONDITION_LIMIT:
        return "trace", None
    try:
        return None, np.linalg.cholesky(inner)
    except np.linalg.LinAlgError:
        return "cholesky", None


class SpectralRidge:
    """Incremental ridge regression.

    Keeps the sums ``gram = X*X`` and ``cross = X*Y`` over all absorbed
    design rows ``X`` (``*`` is the conjugate transpose) and the ridge
    solution ``weight = (gram + lam*I)^-1 cross``. A block is folded in
    one of three ways:

    - a direct refit (:meth:`absorb`) adds the block's ``X*X`` and ``X*Y``
      to the sums and solves ``(gram + lam*I) weight = cross``;
    - a refit from moments (:meth:`absorb_moments`) is the same solve,
      given those two block sums instead of the rows; the direct refit
      ends in it;
    - a Woodbury step (:meth:`absorb`) is block recursive least squares in
      square-root form: with ``A = a_inv``, ``T = A X*``, ``inner = I + X
      T = F F*`` (``F`` the lower Cholesky factor from
      :func:`_inner_fault`) and the residual ``R = Y - X weight``, it
      whitens the block once, ``[V | Z] = F^-1 [T* | R]``, then sets
      ``weight += V* Z`` and downdates ``A -= V* V`` in place. These are
      ``T inner^-1 R`` and ``T inner^-1 T*``, and for real rows ``V* V``
      is exactly symmetric, so ``A`` stays so. The step is refused when
      ``inner`` fails :func:`_inner_fault`.

    ``a_inv = (gram + lam*I)^-1`` is computed only when read: a direct
    refit drops it, and the next Woodbury step, snapshot or reader
    recomputes it. ``last_path`` (``"woodbury"``, ``"direct"`` or
    ``"moments"``) and ``last_fallback`` record how the latest block was
    absorbed and which test, if any, sent it from the Woodbury step to a
    direct refit. A block that raises leaves the model as it was.

    The state starts real and follows the rows' dtype: the forecaster feeds
    real rows, and complex rows turn the same code into a complex ridge.
    """

    def __init__(self, dim_in: int, dim_out: int, lam: float):
        if dim_in < 1 or dim_out < 1:
            raise InvalidConfig(f"dimensions must be positive, got ({dim_in}, {dim_out})")
        if not lam > 0:
            raise InvalidConfig(f"ridge coefficient must be positive, got {lam}")
        self.dim_in = dim_in
        self.dim_out = dim_out
        self.lam = float(lam)
        self._a_inv = None
        self.gram = np.zeros((dim_in, dim_in))
        self.cross = np.zeros((dim_in, dim_out))
        self.weight = np.zeros((dim_in, dim_out))
        self.n_samples = 0
        self.last_path = None
        self.last_fallback = None

    @property
    def a_inv(self) -> np.ndarray:
        """``(gram + lam*I)^-1``, set on the first read of a fresh ridge
        and recomputed on the first read after a direct refit."""
        if self._a_inv is None:
            if self.n_samples == 0:
                # the Gram is zero: no factorisation needed. Set here, not in
                # __init__, so an unread inverse costs no d×d array
                self._a_inv = np.eye(self.dim_in, dtype=self.gram.dtype) / self.lam
            else:
                # the direct refit already solved with this very matrix
                inv = np.linalg.inv(self._regularized(self.gram))
                self._a_inv = (inv + inv.conj().T) / 2.0
        return self._a_inv

    def _regularized(self, gram: np.ndarray) -> np.ndarray:
        reg = gram.copy()
        reg.flat[::self.dim_in + 1] += self.lam
        return reg

    def absorb(self, rows_in: np.ndarray, rows_out: np.ndarray, method: str = "auto") -> None:
        """Fold a block of design rows into the model and refresh ``weight``.

        Parameters
        ----------
        rows_in : (m, dim_in) real or complex ndarray
        rows_out : (m, dim_out) real or complex ndarray
        method : {"auto", "woodbury", "direct"}
            "auto" takes the Woodbury step when :func:`woodbury_pays` and
            falls back to a direct refit when the inner matrix fails its
            test; "woodbury" raises :class:`IllConditionedUpdate` instead
            of falling back.

        Everything that can raise (the shape checks, the Woodbury test and
        both solves) runs before the model changes, so a raise leaves it
        unchanged.
        """
        rows_in, rows_out = np.asarray(rows_in), np.asarray(rows_out)
        dtype = np.result_type(rows_in, rows_out, self.gram)
        rows_in, rows_out = rows_in.astype(dtype, copy=False), rows_out.astype(dtype, copy=False)
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

        fault = None
        if method == "woodbury" or (method == "auto" and woodbury_pays(m, self.dim_in)):
            t = self.a_inv @ rows_in.conj().T                  # (d, m)
            inner = rows_in @ t                                # (m, m)
            inner.flat[::m + 1] += 1.0
            fault, factor = _inner_fault(inner)
            if fault is None:
                # whiten once: with inner = F F*, [V | Z] = F^-1 [T* | Y - X weight]
                # gives the weight step V* Z and the downdate V* V
                whiten = np.linalg.inv(factor)
                v = whiten @ t.conj().T                        # (m, d)
                z = whiten @ (rows_out - rows_in @ self.weight)
                self._woodbury_step(rows_in, rows_out, v, z)
                return
            if method == "woodbury":
                raise IllConditionedUpdate(
                    f"inner {m}x{m} solve failed the {fault} test (limit {CONDITION_LIMIT:.0e})")

        self.absorb_moments(rows_in.conj().T @ rows_in, rows_in.conj().T @ rows_out, m)
        self.last_path, self.last_fallback = "direct", fault

    def absorb_moments(self, xtx: np.ndarray, xty: np.ndarray, n_rows: int) -> None:
        """Refit from a block given by its sums ``xtx = X*X`` ``(dim_in,
        dim_in)`` and ``xty = X*Y`` ``(dim_in, dim_out)`` over ``n_rows``
        rows: solve ``(gram + xtx + lam*I) weight = cross + xty``. The
        direct refit of :meth:`absorb` ends here too. A raise leaves the
        model unchanged.
        """
        if np.shape(xtx) != (self.dim_in, self.dim_in) or \
                np.shape(xty) != (self.dim_in, self.dim_out):
            raise ShapeMismatch(f"block sums must be ({self.dim_in}, {self.dim_in}) and "
                                f"({self.dim_in}, {self.dim_out}), got {np.shape(xtx)} "
                                f"and {np.shape(xty)}")
        if n_rows < 1:
            raise ShapeMismatch(f"a block needs at least one row, got {n_rows}")
        gram, cross = self.gram + xtx, self.cross + xty
        try:
            weight = np.linalg.solve(self._regularized(gram), cross)
        except np.linalg.LinAlgError as exc:
            raise IllConditionedUpdate(f"regularized Gram is singular: {exc}") from exc
        self.gram, self.cross, self.weight = gram, cross, weight
        self.n_samples += n_rows
        self._a_inv = None
        self.last_path, self.last_fallback = "moments", None

    def _woodbury_step(self, rows_in, rows_out, v, z) -> None:
        if self.gram.dtype != v.dtype:  # complex rows into a real state
            self.gram, self.cross, self.weight, self._a_inv = (
                a.astype(v.dtype) for a in (self.gram, self.cross, self.weight, self._a_inv))
        v_h, x_h = v.conj().T, rows_in.conj().T
        self.weight += v_h @ z
        # for real rows v_h is v's own transpose, so numpy takes syrk, which
        # fills one triangle from the other: a_inv stays exactly symmetric
        scratch = v_h @ v                                      # (d, d)
        self._a_inv -= scratch
        # the new Gram takes over the scratch array and the old one is freed;
        # keeping gram's array and adding into it measured the batched
        # embedding in fit ~1.6x slower on a per-channel L=520 replay
        np.matmul(x_h, rows_in, out=scratch)
        scratch += self.gram
        self.gram = scratch
        self.cross += x_h @ rows_out
        self.n_samples += rows_in.shape[0]
        self.last_path, self.last_fallback = "woodbury", None


class OnlineForecaster:
    """Rolling forecaster built on ``models`` :class:`SpectralRidge` models.

    Until the first fit, forecasts fall back to tiling the final season of
    the context forward, which needs no training data.
    """

    def __init__(self, context_length: int, horizon: int, seasonality: int,
                 lam: float = 20.0, alpha: float = 0.9,
                 instance_norm: bool = True, channel_scaling: bool = True, models: int = 1):
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
        if models < 1:
            raise InvalidConfig(f"need at least one model, got {models}")
        self.context_length = context_length
        self.horizon = horizon
        self.seasonality = seasonality
        self.lam = float(lam)
        self.alpha = float(alpha)
        self.instance_norm = instance_norm
        self.channel_scaling = channel_scaling
        self.filter = FilterSpec.for_lengths(alpha, context_length, horizon)
        # _analysis (L, d) maps a context to its real coefficients;
        # _synthesis maps real target coefficients to the inverse transform
        # of the zero-padded target bins
        self._analysis = _real_coefficients(
            np.fft.rfft(np.eye(context_length))[:, :self.filter.context_bins], context_length)
        self._synthesis = _real_coefficients(
            np.fft.rfft(np.eye(horizon))[:, :self.filter.target_bins], horizon).T / horizon
        self.design_dim = self._analysis.shape[1]
        self.cores = [SpectralRidge(self.design_dim, self._synthesis.shape[0], lam)
                      for _ in range(models)]
        self.stats = ChannelStats()
        # (G, L, H) real folds of the weights, rewritten in place by _refold.
        # One block for the forecaster's lifetime, plus adding the mean in
        # place in predict, keeps peak RSS within ~1 % of the unfolded code
        # on a per-channel L=520 replay; fresh arrays in those two places
        # fragmented the heap around the ridge update's 3.5 MB temporaries
        # and cost +4 %. It starts on a 64-byte cache line: wherever else the
        # heap put it, predict's matmul measured 1.6x slower
        n = models * context_length * horizon
        buf = np.zeros(n + 8)
        start = (-buf.ctypes.data % 64) // 8
        self.time_map = buf[start: start + n].reshape(models, context_length, horizon)

    @property
    def core(self) -> SpectralRidge:
        """Model 0's ridge, the only one when ``models == 1``."""
        return self.cores[0]

    @property
    def n_samples(self) -> int:
        return self.core.n_samples

    def observe_values(self, values) -> None:
        """Merge newly observed rows, one ``(C,)`` row or a ``(k, C)``
        block oldest first, into the running per-channel statistics."""
        values, G = np.asarray(values, dtype=np.float64), len(self.cores)
        if not self.stats.count and values.ndim in (1, 2) and values.shape[-1] % G:
            raise ShapeMismatch(f"{values.shape[-1]} channels do not split across {G} models")
        self.stats.observe(values)

    def _scales(self, channels) -> np.ndarray:
        """Scaling factors ``(n,)`` of rows cut from ``channels``: each
        channel's :meth:`ChannelStats.std`, or ones without channel scaling."""
        if not self.channel_scaling:
            return np.ones(len(channels))
        present, row_of = np.unique(channels, return_inverse=True)
        return np.array([self.stats.std(ch) for ch in present.tolist()])[row_of]

    def embed_pair(self, pair: SamplePair):
        """Filtered spectra of one normalized pair.

        The context mean is subtracted from both sides (mirroring the
        inference path) and both sides are divided by the channel's
        running standard deviation.

        Returns
        -------
        (context_row, target_row) : complex ndarrays of the kept bins;
        :meth:`fit` absorbs their :func:`_real_coefficients`.
        """
        ctx = np.asarray(pair.context, dtype=np.float64)
        tgt = np.asarray(pair.target, dtype=np.float64)
        if ctx.shape != (self.context_length,):
            raise ShapeMismatch(f"context must have length {self.context_length}, got {ctx.shape}")
        if tgt.shape != (self.horizon,):
            raise ShapeMismatch(f"target must have length {self.horizon}, got {tgt.shape}")
        if pair.channel < 0:
            raise ShapeMismatch(f"channel index must be non-negative, got {pair.channel}")
        mu = ctx.mean() if self.instance_norm else 0.0
        sigma = self._scales([pair.channel])[0]
        ctx_row = lowpass(forward_rft((ctx - mu) / sigma), self.filter.context_bins).bins
        tgt_row = lowpass(forward_rft((tgt - mu) / sigma), self.filter.target_bins).bins
        return ctx_row, tgt_row

    def fit(self, contexts, targets, channels) -> None:
        """Embed ``(n, L)`` contexts and ``(n, H)`` targets, row ``i`` cut
        from channel ``channels[i]`` and scaled by its running std, by the
        arithmetic of :meth:`embed_pair` plus the layout, absorb ``n / G``
        consecutive rows per model under the ``"auto"`` rule of
        :meth:`SpectralRidge.absorb` and refresh ``time_map``. Channel
        statistics must already reflect the observations the rows were cut
        from (see :meth:`observe_values`).

        Each model embeds its rows and absorbs them before the next model
        starts, so that one model's design rows and one new ``d×d`` Gram are
        alive at once, not one per model. A block that fails the Woodbury
        test takes a direct refit, so only a singular regularized Gram, a
        data error, can raise after earlier models have absorbed their rows.
        """
        L, H, G = self.context_length, self.horizon, len(self.cores)
        # C order whatever the input's, so the means and FFTs sum alike
        ctx = np.array(contexts, dtype=np.float64, order="C")
        tgt = np.array(targets, dtype=np.float64, order="C")
        channels = np.asarray(channels)
        n = len(ctx) if ctx.ndim else 0
        if ctx.shape != (n, L) or tgt.shape != (n, H) or n == 0 or n % G:
            raise ShapeMismatch(f"fit needs (n, {L}) contexts and (n, {H}) targets with n > 0 "
                                f"a multiple of {G} models, got {ctx.shape} and {tgt.shape}")
        if channels.shape != (n,) or channels.dtype.kind not in "iu" or channels.min() < 0:
            raise ShapeMismatch(f"channels must be {n} non-negative integers, got {channels!r}")
        sigma = self._scales(channels)[:, None]
        per = n // G
        for g, core in enumerate(self.cores):
            rows = slice(g * per, (g + 1) * per)
            core.absorb(*self._embed(ctx[rows], tgt[rows], sigma[rows]))
        self._refold()

    def fit_slab(self, series) -> None:
        """Fit on the ``m = width - L - H + 1`` windows of a channel-major
        slab ``series`` ``(C, width)``: window ``j`` of channel ``ch`` has
        its context at ``series[ch, j:j+L]`` and its target at ``series[ch,
        j+L:j+L+H]``, and is row ``ch·m + j`` of :meth:`fit`. Model ``g``
        takes the ``C / G`` channels from ``g·C/G`` on: all channels when G
        = 1, channel ``g`` alone when G = C.

        Every model gets ``C/G · m`` rows, so all take the same path; ``C``
        must be the observed channel count. Below :func:`moments_pay`, as
        every Woodbury block is (under ``d // 3 <= L/3`` rows), each model's
        windows, sliding views of the slab, are copied once, embedded and
        absorbed as in :meth:`fit`, bit for bit as :meth:`fit` on the same
        windows. Otherwise each model builds its block's Gram and
        cross-moment from its channels' lagged moments (:meth:`_moments`)
        and refits from them (:meth:`SpectralRidge.absorb_moments`).
        """
        L, H, G = self.context_length, self.horizon, len(self.cores)
        series = np.asarray(series, dtype=np.float64)
        C, width = series.shape if series.ndim == 2 else (0, 0)
        m = width - L - H + 1
        if m < 1 or C == 0 or C % G:
            raise ShapeMismatch(f"fit_slab needs a (C, width) slab with width >= {L + H} and "
                                f"C > 0 a multiple of {G} models, got {series.shape}")
        if self.stats.count and C != len(self.stats.means):
            raise ShapeMismatch(f"fit_slab got {C} channels, {len(self.stats.means)} observed")
        per = C // G
        sigma = self._scales(np.arange(C))
        moments = moments_pay(per * m, L + H)
        windows = sliding_window_view(series, L + H, axis=1)[:, :m]
        for g, core in enumerate(self.cores):
            chans = slice(g * per, (g + 1) * per)
            if moments:
                core.absorb_moments(*self._moments(series[chans], sigma[chans], m), per * m)
            else:
                # an embedded block stays under L+H rows (moments_pay), so
                # one model's copy is small
                core.absorb(*self._embed(
                    np.array(windows[chans, :, :L]).reshape(-1, L),
                    np.array(windows[chans, :, L:]).reshape(-1, H),
                    np.repeat(sigma[chans], m)[:, None]))
        self._refold()

    def _moments(self, block, scales, m):
        """Gram ``(d, d)`` and cross-moment ``(d, d_t)`` of the design rows
        of the ``m`` windows of each row of ``block`` ``(c, m+L+H-1)``, row
        ``i`` divided by ``scales[i]``, built from the block's lagged second
        moments instead of the rows.

        A window ``z`` of length ``K = L + H`` becomes the rows ``z[:L] @
        Ax`` and ``z[L:] @ Ay`` (``Ax`` the context layout ``_analysis``,
        ``Ay`` the target one), so the block's Gram is ``Axᵀ S_cc Ax`` and
        its cross-moment ``Axᵀ S_ct Ay``, where ``S = Σ z zᵀ`` over all
        windows is ``K×K``; only its ``L`` context rows are needed.

        - Each row is centred on its own mean and scaled, giving ``y``.
        - One batched matmul gives the lag products ``q[s, k] = Σ_i y[i, s]
          y[i, s+k]``, and their prefix sums over ``s`` every ``m``-window
          sum ``S[a, a+k] = prefix[a+m, k] - prefix[a, k]`` (the covariance
          method of linear prediction). One strided view writes those
          diagonals of the first ``L`` rows.
        - ``S_cc`` enters as its upper triangle ``U`` with the diagonal
          halved, so the Gram is ``T + Tᵀ`` with ``T = Axᵀ U Ax``, exactly
          symmetric. Batched rffts and :func:`_real_coefficients` apply the
          layouts, first along the rows of ``S``, then along the columns.

        Centring a window on its context mean changes only DC coefficients:
        the context DC becomes 0, and the target DC loses ``H/L`` times the
        context DC. Without instance normalization the row means are put
        back instead, through the windows' first moments, again in the DC
        row and column alone. Taking them out first keeps an offset series
        from cancelling in ``S``.
        """
        L, H = self.context_length, self.horizon
        K, c = L + H, block.shape[0]
        d, cb, tb = self.design_dim, self.filter.context_bins, self.filter.target_bins
        n = m + L - 1                  # the positions s that rows a < L sum over
        mean = block.mean(axis=1, keepdims=True)
        scale = scales[:, None]
        # padded with zeros so every position has K lags; padded lags only
        # reach entries past the last window, which are dropped
        y = np.zeros((c, n + K - 1))
        np.subtract(block, mean, out=y[:, :block.shape[1]])
        y /= scale
        prefix = np.empty((n + 1, K))
        prefix[0] = 0.0
        np.matmul(y[:, :n].T[:, None, :],
                  sliding_window_view(y, K, axis=1)[:, :n].transpose(1, 0, 2),
                  out=prefix[1:, None, :])
        np.cumsum(prefix, axis=0, out=prefix)
        # row a of the skewed view is S[a, a:a+K]: its tail past column K
        # wraps into the strict lower triangle of row a+1, zeroed next, and
        # the spare last row takes the wrap of row L-1
        s = np.empty((L + 1, K))
        np.subtract(prefix[m:m + L], prefix[:L],
                    out=as_strided(s, shape=(L, K), strides=((K + 1) * 8, 8)))
        del prefix  # free each buffer once read: the peak stays below the embedding's
        upper = s[:L, :L]
        np.copyto(upper, 0.0, where=np.tri(L, k=-1, dtype=bool))
        s.reshape(-1)[:L * (K + 1):K + 1] *= 0.5   # the diagonal
        half = np.empty((L, d + self._synthesis.shape[0]))   # [U Ax | S_ct Ay]
        _real_coefficients(np.fft.rfft(upper, axis=1)[:, :cb], L, out=half[:, :d])
        _real_coefficients(np.fft.rfft(s[:L, L:], axis=1)[:, :tb], H, out=half[:, d:])
        del s, upper
        sums = _real_coefficients(np.fft.rfft(half, axis=0)[:cb].T, L)   # [Tᵀ; crossᵀ]
        del half
        gram, cross = sums[:d] + sums[:d].T, sums[d:].T
        if self.instance_norm:
            cross[:, 0] -= H / L * gram[:, 0]
            gram[0] = 0.0
            gram[:, 0] = 0.0
            cross[0] = 0.0
        else:
            # y = (x - mean) / scale: add back w = mean / scale on each row,
            # (L, H)·w on the (context, target) DC of each of its windows
            w = (mean / scale)[:, 0]
            run = np.zeros((c, m + K))
            np.cumsum(y[:, :m + K - 1], axis=1, out=run[:, 1:])
            first = w @ (run[:, m:] - run[:, :K])     # Σ_i w_i Σ_j y[i, j:j+K]
            first_in = _real_coefficients(np.fft.rfft(first[:L])[:cb], L)
            first_out = _real_coefficients(np.fft.rfft(first[L:])[:tb], H)
            w2 = m * float(w @ w)
            gram[:, 0] += L * first_in
            gram[0] += L * first_in
            gram[0, 0] += L * L * w2
            cross[:, 0] += H * first_in
            cross[0] += L * first_out
            cross[0, 0] += L * H * w2
        return gram, cross

    def _embed(self, ctx, tgt, sigma):
        """Centre the C-ordered float64 rows ``ctx`` ``(k, L)`` and ``tgt``
        ``(k, H)`` in place on each context's mean (under instance
        normalization), divide them by the ``(k, 1)`` column ``sigma`` and
        return their real coefficients, the design rows ``(k, d)`` and
        target rows ``(k, d_t)``."""
        if self.instance_norm:
            mu = ctx.mean(axis=1, keepdims=True)
            ctx -= mu
            tgt -= mu
        ctx /= sigma
        tgt /= sigma
        return (_real_coefficients(np.fft.rfft(ctx, axis=1)[:, :self.filter.context_bins],
                                   self.context_length),
                _real_coefficients(np.fft.rfft(tgt, axis=1)[:, :self.filter.target_bins],
                                   self.horizon))

    def fit_block(self, pairs) -> None:
        """:meth:`fit` on a list of :class:`SamplePair`."""
        if len({(np.shape(p.context), np.shape(p.target)) for p in pairs}) > 1:
            raise ShapeMismatch("pairs in one block differ in context or target length")
        self.fit([p.context for p in pairs], [p.target for p in pairs],
                 [p.channel for p in pairs])

    def _refold(self) -> None:
        """Collapse the spectral chain around each model's weight into its
        real ``(L, H)`` slice of ``time_map``, in place."""
        for core, fold in zip(self.cores, self.time_map):
            np.matmul(self._analysis, core.weight @ self._synthesis, out=fold)

    def predict(self, context) -> np.ndarray:
        """Forecast the next ``horizon`` values.

        ``context`` is ``(n, L)``, ``n / G`` consecutive windows per model,
        or ``(L,)`` with one model; the result is ``(n, H)`` or ``(H,)``.
        Inference applies no channel scaling, so it takes no channel. The
        result does not depend on the input's memory order.
        """
        ctx = np.asarray(context, dtype=np.float64, order="C")
        L, G = self.context_length, len(self.cores)
        if ctx.ndim not in (1, 2) or ctx.shape[-1] != L or (ctx.size // L) % G:
            raise ShapeMismatch(f"context must be (n, {L}) with n a multiple of {G} models, "
                                f"or ({L},) for one model, got {ctx.shape}")
        if self.core.n_samples == 0:
            return ctx.take(_season_index(L, self.seasonality, self.horizon), axis=-1)
        # np.mean's own sum-then-divide, without its wrapper's per-call cost
        mu = ctx.sum(axis=-1, keepdims=True) / L if self.instance_norm else 0.0
        x = ctx - mu
        # one model: the 2-D product, measured ~2 us a call cheaper than batched
        out = x @ self.time_map[0] if G == 1 else (
            np.matmul(x.reshape(G, -1, L), self.time_map).reshape(x.shape[:-1] + (self.horizon,)))
        out += mu  # in place, see time_map in __init__
        return out


def new_forecaster(context_length, horizon, seasonality, lam=20.0, alpha=0.9,
                   instance_norm=True, channel_scaling=True, models=1) -> OnlineForecaster:
    """Construct an untrained forecaster (cold-start path active)."""
    return OnlineForecaster(context_length, horizon, seasonality, lam, alpha,
                            instance_norm, channel_scaling, models)


def save_forecaster(forecaster: OnlineForecaster, path) -> None:
    """Snapshot a forecaster to an ``.npz`` file (lossless round trip), its
    models' ridge arrays stacked along a leading model axis. A model whose
    refit dropped its inverse computes it here, so a reloaded model's next
    Woodbury step reads the same inverse as the original's."""
    f = forecaster
    counts = [core.n_samples for core in f.cores]
    if len(set(counts)) > 1:
        raise InvalidConfig(f"cannot save models with different sample counts {counts}")
    np.savez(path, format=SNAPSHOT_FORMAT, context_length=f.context_length, horizon=f.horizon,
             seasonality=f.seasonality, lam=f.lam, alpha=f.alpha, instance_norm=f.instance_norm,
             channel_scaling=f.channel_scaling, models=len(f.cores),
             n_samples=f.n_samples,  # the same for every model, checked above
             stats_count=f.stats.count, stats_means=f.stats.means, stats_m2s=f.stats.m2s,
             **{name: np.stack([getattr(core, name) for core in f.cores]) for name in _RIDGE_FIELDS})


def load_forecaster(path) -> OnlineForecaster:
    """Restore a forecaster saved by :func:`save_forecaster`. Each array
    field must hold finite real floats of its exact shape; an error names
    the field at fault."""
    with np.load(path) as data:
        fmt = str(data["format"])
        if fmt != SNAPSHOT_FORMAT:
            raise InvalidConfig(f"unsupported snapshot format {fmt!r}, expected {SNAPSHOT_FORMAT!r}")
        for name, least in (("models", 1), ("n_samples", 0), ("stats_count", 0)):
            value = data[name]
            if value.shape != () or value.dtype.kind not in "iu" or value < least:
                raise InvalidConfig(f"snapshot {name} must be an integer >= {least}, got {value}")
        f = OnlineForecaster(
            int(data["context_length"]), int(data["horizon"]), int(data["seasonality"]),
            float(data["lam"]), float(data["alpha"]),
            bool(data["instance_norm"]), bool(data["channel_scaling"]), int(data["models"]),
        )
        G, d, d_t = len(f.cores), f.design_dim, f.core.dim_out
        C = data["stats_means"].size   # stats_means is checked first, against its own size
        fields = {}
        for name, shape in zip(("stats_means", "stats_m2s", *_RIDGE_FIELDS),
                               ((C,), (C,), (G, d, d), (G, d, d), (G, d, d_t), (G, d, d_t))):
            value = data[name]
            if value.dtype.kind != "f":
                raise InvalidConfig(f"snapshot {name} has dtype {value.dtype}, expected real floats")
            if value.shape != shape:
                raise InvalidConfig(f"snapshot {name} has shape {value.shape}, expected {shape}"
                                    + (" like stats_means" if name == "stats_m2s" else ""))
            if not np.isfinite(value).all():
                raise InvalidConfig(f"snapshot {name} holds non-finite values")
            fields[name] = value
        count, n_samples = int(data["stats_count"]), int(data["n_samples"])
    if (fields["stats_m2s"] < 0).any():
        raise InvalidConfig("snapshot stats_m2s holds negative squared deviations")
    if (count == 0) != (C == 0):
        raise InvalidConfig(f"snapshot stats_means and stats_m2s hold {C} channels for "
                            f"stats_count {count}, expected none exactly when the count is 0")
    if C % G:
        raise InvalidConfig(f"snapshot stats_means holds {C} channels, not a multiple of {G} models")
    if n_samples == 0 and fields["weight"].any():
        raise InvalidConfig("snapshot n_samples is 0 but its weight is nonzero")
    f.stats.count, f.stats.means, f.stats.m2s = count, fields["stats_means"], fields["stats_m2s"]
    for g, core in enumerate(f.cores):
        core.n_samples = n_samples
        core._a_inv, core.gram, core.cross, core.weight = (fields[name][g] for name in _RIDGE_FIELDS)
    f._refold()
    return f
