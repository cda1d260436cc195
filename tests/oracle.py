"""A slow, obviously correct replay of :func:`adapts.harness.run`.

:func:`replay` rebuilds a run from the scalar pieces only:

- ``base.observe`` once per revealed row and ``base.forecast`` once per
  channel and step;
- adaptive forecasts through the unfolded spectral chain (forward
  transform, low-pass, real layout, weight, inverse layout, zero padding,
  inverse transform) with a weight from a fresh batch ridge solve over
  every row absorbed so far, each row embedded by ``embed_pair``; no
  Woodbury step, no lazy inverse and no fold;
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


def batch_ridge(rows_in, rows_out, lam):
    """``(X'X + lam I)^-1 X'Y`` over every row absorbed so far."""
    x, y = np.asarray(rows_in), np.asarray(rows_out)
    return np.linalg.solve(x.T @ x + lam * np.eye(x.shape[1]), x.T @ y)


def replay(series, base, config):
    """Replay ``series`` ``(T, C)`` with ``base`` under ``config``.

    Returns a dict with the report's ``forecasts``, ``weight_used``,
    ``scores`` and ``floored`` columns, its ``aggregate`` MASE/RMSSE per
    stream and its ``weights`` trajectories, one list per channel.
    """
    series = np.asarray(series, dtype=np.float64)
    L, H, M, s = config.context_length, config.horizon, config.update_period, config.seasonality
    total, n_channels = series.shape
    # used only for embed_pair, its channel statistics and its settings
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
                pair = SamplePair(series[o - L + 1: o + 1, ch], series[o + 1: o + H + 1, ch], ch)
                ctx_bins, tgt_bins = embedder.embed_pair(pair)
                rows_in.append(_real_coefficients(ctx_bins, L))
                rows_out.append(_real_coefficients(tgt_bins, H))
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
