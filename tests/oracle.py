"""A slow, obviously correct replay of :func:`adapts.harness.run`.

:func:`replay` rebuilds a run from the scalar pieces only:

- base forecasts from one of this module's scalar bases, which serve one
  channel and step at a time and share no code with ``adapts``'
  bundled bases: ``base.observe`` once per revealed row and
  ``base.forecast`` once per channel and step;
- adaptive forecasts through the unfolded spectral chain (forward
  transform, low-pass, real layout, weight, inverse layout, zero padding,
  inverse transform) with a weight from a fresh batch ridge solve over
  every row absorbed so far, each row embedded by ``embed_pair`` (or, for
  a one-sample target, which ``embed_pair`` cannot transform, by the same
  arithmetic spelled out here); no Woodbury step, no lazy inverse and no
  fold;
- the scalar :func:`~adapts.metrics.mase` and :func:`~adapts.metrics.rmsse`
  of one window at a time, each window cut from the series as it
  completes;
- one :class:`~adapts.weighter.ChannelWeighter` per channel, whose state
  after each update is recorded as one trajectory entry.

Its result holds the run's columns and weight trajectories in
:class:`~adapts.harness.RunReport` layout, and :func:`gaps` measures how
far a report lies from it.
"""

import numpy as np

from adapts.forecaster import OnlineForecaster, SamplePair, _real_coefficients
from adapts.harness import STREAMS
from adapts.metrics import DENOMINATOR_FLOOR, mase, rmsse, seasonal_naive_mae
from adapts.spectral import (
    Spectrum,
    forward_rft,
    full_bin_count,
    inverse_rft,
    lowpass,
    pad_spectrum,
)
from adapts.weighter import ChannelWeighter, combine


TRAJECTORY_KEYS = ("update_step", "time_step", "w_slow", "w_fast", "beta_merge", "w_combined",
                   "loss_base", "loss_adaptive")


# -- scalar bases ---------------------------------------------------------------

class ScalarBase:
    """A base served one channel at a time by ``forecast(t, channel,
    context)``. ``forecast_all`` stacks it over the channels, so a run can
    take the base too."""

    def observe(self, t, values):
        pass

    def forecast_all(self, t, contexts):
        return np.stack([self.forecast(t, ch, ctx) for ch, ctx in enumerate(contexts)])


class NaiveSeasonal(ScalarBase):
    """The context's final ``seasonality`` values, tiled across the horizon."""

    def __init__(self, seasonality, horizon):
        self.seasonality, self.horizon = seasonality, horizon

    def forecast(self, t, channel, context):
        season = np.asarray(context, dtype=np.float64)[-self.seasonality:]
        return np.tile(season, -(-self.horizon // len(season)))[:self.horizon]


class RunningMean(ScalarBase):
    """The mean of every value a channel has revealed, or of its context
    before any has been."""

    def __init__(self, horizon):
        self.horizon, self.sums, self.count = horizon, None, 0

    def observe(self, t, values):
        self.sums = (0.0 if self.sums is None else self.sums) + np.asarray(values, np.float64)
        self.count += 1

    def forecast(self, t, channel, context):
        mean = np.mean(context) if self.count == 0 else self.sums[channel] / self.count
        return np.full(self.horizon, float(mean))


class Lookup(ScalarBase):
    """Forecasts looked up by step and channel name in ``rows``, a
    ``{(t, name): vector}`` dict; channel ``ch`` is ``channel_names[ch]``."""

    def __init__(self, rows, channel_names):
        self.rows, self.channel_names = rows, list(channel_names)

    def forecast(self, t, channel, context):
        return np.asarray(self.rows[t, self.channel_names[channel]], dtype=np.float64)


def scalar_base(kind, horizon, seasonality=None, rows=None, channel_names=None):
    """The scalar twin of ``make_base_forecaster(kind, ...)``: ``rows`` and
    ``channel_names`` stand in for a precomputed base's table and names."""
    if kind == "naive_seasonal":
        return NaiveSeasonal(seasonality, horizon)
    if kind == "historical_mean":
        return RunningMean(horizon)
    assert kind == "precomputed", kind
    return Lookup(rows, channel_names)


# -- the replay -----------------------------------------------------------------


def paired_stop(n, keep):
    """End of the bins ``1..stop-1`` that have a conjugate twin: all kept
    bins but DC and a kept Nyquist bin."""
    return keep - 1 if n % 2 == 0 and keep == full_bin_count(n) else keep


def bins_from_coefficients(coefs, n, keep):
    """Inverse of the real layout: complex kept bins from real coefficients."""
    stop = paired_stop(n, keep)
    k = stop - 1
    bins = np.empty(keep, dtype=complex)
    bins[0] = coefs[0]
    bins[1:stop] = (coefs[1:1 + k] + 1j * coefs[1 + k:1 + 2 * k]) / np.sqrt(2.0)
    bins[stop:] = coefs[1 + 2 * k:]
    return bins


def spectral_chain_predict(f, context, weight=None):
    """The unfolded inference chain for one context: forward transform,
    low-pass, real layout, weight (``f.core.weight`` by default), inverse
    layout, zero padding and inverse transform, plus the context mean."""
    ctx = np.asarray(context, dtype=np.float64)
    mu = ctx.mean() if f.instance_norm else 0.0
    row = lowpass(forward_rft(ctx - mu), f.filter.context_bins).bins
    coefs = _real_coefficients(row, f.context_length) @ (f.core.weight if weight is None else weight)
    out_bins = bins_from_coefficients(coefs, f.horizon, f.filter.target_bins)
    return inverse_rft(pad_spectrum(Spectrum(bins=out_bins, original_length=f.horizon))) + mu


def embed(f, context, target, channel):
    """The real coefficients of one pair cut from ``channel``, embedded as
    ``f.embed_pair`` embeds it. ``embed_pair`` needs two target samples, so
    a one-sample target is centred and scaled here and keeps its one rfft
    bin."""
    if len(target) > 1:
        ctx_bins, tgt_bins = f.embed_pair(SamplePair(context, target, channel))
    else:
        mu = context.mean() if f.instance_norm else 0.0
        sigma = f._scales([channel])[0]
        ctx_bins = lowpass(forward_rft((context - mu) / sigma), f.filter.context_bins).bins
        tgt_bins = np.fft.rfft((target - mu) / sigma)
    return _real_coefficients(ctx_bins, f.context_length), _real_coefficients(tgt_bins, f.horizon)


def batch_ridge(rows_in, rows_out, lam):
    """``(X'X + lam I)^-1 X'Y`` over every row absorbed so far."""
    x, y = np.asarray(rows_in), np.asarray(rows_out)
    return np.linalg.solve(x.T @ x + lam * np.eye(x.shape[1]), x.T @ y)


def replay(series, base, config):
    """Replay ``series`` ``(T, C)`` with ``base``, one of this module's
    scalar bases (:func:`scalar_base`), under ``config``.

    Returns a dict with the report's ``forecasts``, ``weight_used``,
    ``scores`` and ``floored`` columns, its ``aggregate`` MASE/RMSSE per
    stream and its ``weights`` trajectories, one list per channel.
    """
    series = np.asarray(series, dtype=np.float64)
    L, H, M, s = config.context_length, config.horizon, config.update_period, config.seasonality
    total, n_channels = series.shape
    # used only for embedding pairs, its channel statistics and its settings
    embedder = OnlineForecaster(L, H, s, lam=config.lam, alpha=config.alpha,
                                instance_norm=config.instance_norm,
                                channel_scaling=config.channel_scaling)
    n_models = 1 if config.shared_weights else n_channels
    seen = [([], []) for _ in range(n_models)]   # absorbed (row_in, row_out) per model
    weights = [None] * n_models                  # None until a model has absorbed rows
    weighters = [ChannelWeighter(eta=config.eta, fast_window=config.fast_window,
                                 warmup_steps=config.warmup) for _ in range(n_channels)]

    t0 = L - 1
    forecasts, weight_used = [], []
    scores = [[] for _ in range(n_channels)]     # per channel: one (2, 3) array per window
    floored = [[] for _ in range(n_channels)]
    trajectories = [[] for _ in range(n_channels)]
    last_fit = t0 - 1
    for t in range(total - 1):
        base.observe(t, series[t])
        embedder.observe_values(series[t])
        if t < t0:
            continue
        step = np.full((3, n_channels, H), np.nan)
        for ch in range(n_channels):
            ctx = series[t - L + 1: t + 1, ch]
            step[0, ch] = base.forecast(t, ch, ctx)
            weight = weights[0 if config.shared_weights else ch]
            if weight is None:
                step[1, ch] = np.tile(ctx[-s:], -(-H // s))[:H]
            else:
                step[1, ch] = spectral_chain_predict(embedder, ctx, weight)
        forecasts.append(step)
        weight_used.append([w.current_weight(config.weighter_mode) for w in weighters])
        if (t - t0 + 1) % M:
            continue
        origins = list(range(last_fit + 1, t - H + 1))
        if not origins:
            continue
        frozen = [(w.fast_weight(), w.w_slow) for w in weighters]
        for ch, w in enumerate(weighters):
            losses = []
            for o in origins:
                ctx, tgt = series[o - L + 1: o + 1, ch], series[o + 1: o + H + 1, ch]
                past = forecasts[o - t0]
                past[2, ch] = tgt
                bf, af = past[0, ch], past[1, ch]
                streams = [bf, af, combine(bf, af, weight_used[o - t0][ch]),
                           combine(bf, af, frozen[ch][0]), combine(bf, af, frozen[ch][1])]
                losses.append([mase(f, tgt, ctx, s) for f in streams])
                scores[ch].append(np.array([losses[-1][:3],
                                            [rmsse(f, tgt, ctx, s) for f in streams[:3]]]))
                floored[ch].append(seasonal_naive_mae(ctx, s) < DENOMINATOR_FLOOR)
            loss_base, loss_adaptive, _, loss_fast, loss_slow = np.mean(losses, axis=0)
            w.update(loss_base, loss_adaptive, loss_fast, loss_slow)
            trajectories[ch].append({
                "update_step": w.update_count, "time_step": t,
                "w_slow": w.w_slow, "w_fast": w.fast_weight(), "beta_merge": w.beta_merge,
                "w_combined": w.current_weight(config.weighter_mode),
                "loss_base": loss_base, "loss_adaptive": loss_adaptive,
            })
        for ch in range(n_channels):
            rows_in, rows_out = seen[0 if config.shared_weights else ch]
            for o in origins:
                row_in, row_out = embed(embedder, series[o - L + 1: o + 1, ch],
                                        series[o + 1: o + H + 1, ch], ch)
                rows_in.append(row_in)
                rows_out.append(row_out)
        weights = [batch_ridge(x, y, config.lam) for x, y in seen]
        last_fit = origins[-1]

    scores = np.array(scores).transpose(2, 3, 0, 1)
    means = scores.mean(axis=-1).mean(axis=-1)
    return {
        "forecasts": np.array(forecasts),
        "weight_used": np.array(weight_used).T,
        "scores": scores,
        "floored": np.array(floored, dtype=bool),
        "aggregate": {stream: {"mase": means[0, k], "rmsse": means[1, k]}
                      for k, stream in enumerate(STREAMS)},
        "weights": trajectories,
    }


def _gap(a, b):
    """Largest absolute difference over the largest magnitude of ``b``;
    NaN entries must sit in the same places."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape, (a.shape, b.shape)
    assert np.array_equal(np.isnan(a), np.isnan(b))
    if not b.size or np.isnan(b).all():
        return 0.0
    return float(np.nanmax(np.abs(a - b)) / max(np.nanmax(np.abs(b)), np.finfo(float).tiny))


def gaps(report, oracle):
    """Relative gaps of a :class:`~adapts.harness.RunReport` from
    :func:`replay`'s result, each the largest over channels: forecasts per
    stream, applied weights, per-window scores per metric and stream,
    aggregates, and each key of the weight trajectories. Floored flags and
    the trajectories' keys and lengths must match exactly."""
    assert np.array_equal(report.floored, oracle["floored"])
    channels = range(report.floored.shape[0])
    out = {}
    for k, name in enumerate(("base", "adaptive")):
        out[f"forecasts.{name}"] = max(
            _gap(report.forecasts[:, k, ch], oracle["forecasts"][:, k, ch]) for ch in channels)
    # the report keeps targets for the scored windows only
    n_scored = report.floored.shape[1]
    out["forecasts.target"] = max(
        _gap(report.targets[:, ch], oracle["forecasts"][:n_scored, 2, ch]) for ch in channels)
    out["weight_used"] = _gap(report.weight_used, oracle["weight_used"])
    for i, metric in enumerate(("mase", "rmsse")):
        for k, stream in enumerate(STREAMS):
            out[f"scores.{metric}.{stream}"] = max(
                _gap(report.scores[i, k, ch], oracle["scores"][i, k, ch]) for ch in channels)
            out[f"aggregate.{metric}.{stream}"] = _gap(report.aggregate[stream][metric],
                                                       oracle["aggregate"][stream][metric])
    trajectories = [report.weights[name] for name in report.channel_names]
    assert [len(entries) for entries in trajectories] == [len(e) for e in oracle["weights"]]
    assert all(set(e) == set(TRAJECTORY_KEYS) for entries in trajectories for e in entries)
    for key in TRAJECTORY_KEYS:
        out[f"weights.{key}"] = max(
            _gap([e[key] for e in got], [e[key] for e in want])
            for got, want in zip(trajectories, oracle["weights"]))
    return out
