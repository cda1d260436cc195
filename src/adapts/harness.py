"""Rolling-window deployment simulator.

The harness steps through a multichannel series one time step at a time.
At each step it reads the trailing context window of every channel once,
obtains a base forecast and an adaptive forecast per channel (one
``predict`` call on the whole stack when the forecaster is shared),
combines them with the channel's current weight and emits a bundle. Every ``update_period`` steps it scores
every window whose target has fully materialized, feeds those scores to
the per-channel weighters, absorbs the newly revealed raw values into the
running channel statistics and refits the forecaster on the newly
completed pairs. Nothing ever reads past the current step: pairs enter
fitting only once their target lies entirely in the past, at the price of
a horizon-length lag.

The dataset is only ever touched through ``__getitem__`` on the object
passed in, so tests can substitute an index-recording wrapper to audit
that no operation looks ahead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import RollingConfig
from .errors import (
    CorruptSeries,
    InsufficientData,
    InvalidConfig,
    MissingForecast,
    ShapeMismatch,
)
from .forecaster import OnlineForecaster, SamplePair
from .metrics import score_windows
from .weighter import ChannelWeighter, combine

STREAMS = ("base", "adaptive", "combined")


# -- base forecasters ---------------------------------------------------------

class BaseForecaster:
    """Contract for the fixed forecaster being adapted.

    Implementations must be deterministic functions of what they have been
    shown and must never peek beyond the current time step. ``observe`` is
    called once per step with the newly revealed values (index order), in
    particular before the first ``forecast`` call of that step.
    """

    def observe(self, t: int, values: np.ndarray) -> None:
        pass

    def forecast(self, t: int, channel: int, context: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class NaiveSeasonalBase(BaseForecaster):
    """Tiles the final season of the context across the horizon."""

    def __init__(self, seasonality: int, horizon: int):
        if seasonality < 1:
            raise InvalidConfig(f"seasonality must be >= 1, got {seasonality}")
        self.seasonality = seasonality
        self.horizon = horizon

    def forecast(self, t, channel, context):
        season = np.asarray(context, dtype=np.float64)[-self.seasonality:]
        reps = -(-self.horizon // season.shape[0])
        return np.tile(season, reps)[: self.horizon]


class HistoricalMeanBase(BaseForecaster):
    """Constant forecast at the running mean of everything seen so far."""

    def __init__(self, horizon: int):
        self.horizon = horizon
        self._sums = None
        self._count = 0

    def observe(self, t, values):
        values = np.asarray(values, dtype=np.float64)
        if self._sums is None:
            self._sums = np.zeros_like(values)
        self._sums += values
        self._count += 1

    def forecast(self, t, channel, context):
        if self._count == 0:
            return np.full(self.horizon, float(np.mean(context)))
        return np.full(self.horizon, self._sums[channel] / self._count)


class PrecomputedBase(BaseForecaster):
    """Serves forecasts from a pre-generated table keyed by (t, channel)."""

    def __init__(self, table: dict, horizon: int, channel_names):
        self.table = table
        self.horizon = horizon
        self.channel_names = list(channel_names)

    def forecast(self, t, channel, context):
        name = self.channel_names[channel]
        try:
            vec = self.table[(t, name)]
        except KeyError:
            raise MissingForecast(
                f"no precomputed forecast for time step {t}, channel {name!r}"
            ) from None
        if vec.shape[0] != self.horizon:
            raise ShapeMismatch(
                f"precomputed forecast at ({t}, {name!r}) has length {vec.shape[0]}, "
                f"expected {self.horizon}"
            )
        return vec


def make_base_forecaster(kind: str, *, horizon: int, seasonality: int = None,
                         forecasts: dict = None, channel_names=None) -> BaseForecaster:
    """Build one of the bundled base forecasters.

    ``precomputed`` needs ``forecasts`` (a ``(t, channel_name) -> vector``
    mapping, e.g. from :func:`adapts.io.load_forecasts`) and the run's
    ``channel_names``.
    """
    if kind == "naive_seasonal":
        if seasonality is None:
            raise InvalidConfig("naive_seasonal base needs a seasonality")
        return NaiveSeasonalBase(seasonality, horizon)
    if kind == "historical_mean":
        return HistoricalMeanBase(horizon)
    if kind == "precomputed":
        if forecasts is None or channel_names is None:
            raise InvalidConfig("precomputed base needs forecasts and channel names")
        return PrecomputedBase(forecasts, horizon, channel_names)
    raise InvalidConfig(f"unknown base forecaster kind {kind!r}")


# -- run bookkeeping ----------------------------------------------------------

@dataclass
class ForecastBundle:
    """One emitted forecast for one channel, scored once its target lands."""

    time_step: int
    channel: int
    base_forecast: np.ndarray
    adaptive_forecast: np.ndarray
    combined_forecast: np.ndarray
    weight_used: float
    target: np.ndarray = None
    fully_observed: bool = False


@dataclass
class WindowRecord:
    """Per-window metric row backing the report aggregates."""

    time_step: int
    channel: int
    mase_base: float
    mase_adaptive: float
    mase_combined: float
    rmsse_base: float
    rmsse_adaptive: float
    rmsse_combined: float
    denominator_floored: bool


@dataclass
class RunReport:
    """Metrics, weight trajectories and bookkeeping for one run."""

    config: RollingConfig
    channel_names: list
    per_channel: dict = field(default_factory=dict)
    aggregate: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    windows_evaluated: int = 0
    floored_windows: int = 0
    update_steps: int = 0
    skipped_initial_steps: int = 0
    bundles: list = field(default_factory=list)
    dataset_name: str = ""

    def to_dict(self) -> dict:
        """JSON-ready structure: config echo, metrics, weight trajectories."""
        cfg = {k: getattr(self.config, k) for k in self.config.__dataclass_fields__}
        return {
            "dataset": self.dataset_name,
            "config": cfg,
            "channel_names": list(self.channel_names),
            "per_channel": self.per_channel,
            "aggregate": self.aggregate,
            "weights": self.weights,
            "windows_evaluated": self.windows_evaluated,
            "floored_windows": self.floored_windows,
            "update_steps": self.update_steps,
            "skipped_initial_steps": self.skipped_initial_steps,
        }


def collect_completed_pairs(t_now: int, last_collected: int, context_length: int,
                            horizon: int) -> list:
    """Forecast origins whose targets completed in (last_collected, t_now].

    An origin ``t`` is eligible once a full context ends at ``t`` and the
    last target index ``t + horizon`` has been observed. Returned origins
    are new since the previous call, oldest first.
    """
    first = max(context_length - 1, last_collected + 1)
    last = t_now - horizon
    origins = list(range(first, last + 1))
    assert all(t + horizon <= t_now for t in origins)
    return origins


def _check_row(row, t: int):
    bad = np.nonzero(~np.isfinite(np.asarray(row, dtype=np.float64)))[0]
    if bad.size:
        raise CorruptSeries(f"non-finite value at time step {t}, channel {int(bad[0])}")


def run(dataset, base: BaseForecaster, config: RollingConfig, channel_names=None,
        step_callback=None) -> RunReport:
    """Simulate deployment of ``base`` plus the adaptive layer over a series.

    Parameters
    ----------
    dataset : (T, C) array-like
        Accessed only through ``__getitem__``; values at indices greater
        than the current step are never touched.
    base : BaseForecaster
    config : RollingConfig
    channel_names : optional list of C names for reporting
    step_callback : optional callable invoked as ``step_callback(t)`` after
        each processed time step

    Returns
    -------
    RunReport
    """
    config.validate()
    L, H, M = config.context_length, config.horizon, config.update_period
    total, n_channels = dataset.shape
    if total < L + H + 1:
        raise InsufficientData(
            f"series length {total} cannot produce an evaluable update; "
            f"need at least {L + H + 1}"
        )
    if channel_names is None:
        channel_names = getattr(dataset, "channel_names", None)
    if channel_names is None:
        channel_names = [f"ch{i}" for i in range(n_channels)]
    if len(channel_names) != n_channels:
        raise InvalidConfig(
            f"{len(channel_names)} channel names for {n_channels} channels"
        )

    def new_forecaster():
        return OnlineForecaster(
            L, H, config.seasonality, lam=config.lam, alpha=config.alpha,
            instance_norm=config.instance_norm, channel_scaling=config.channel_scaling,
        )

    if config.shared_weights:
        forecasters = [new_forecaster()]
    else:
        forecasters = [new_forecaster() for _ in range(n_channels)]

    weighters = [
        ChannelWeighter(eta=config.eta, fast_window=config.fast_window,
                        warmup_steps=config.warmup)
        for _ in range(n_channels)
    ]
    # weights only move at updates: each channel's fast weight and applied
    # weight are computed once here and once after each of its updates
    w_fast = [w.fast_weight() for w in weighters]
    applied = [w.current_weight(config.weighter_mode) for w in weighters]

    report = RunReport(config=config, channel_names=list(channel_names),
                       skipped_initial_steps=L - 1)
    bundles = [[] for _ in range(n_channels)]  # indexed by (t - t0) per channel
    trajectories = [[] for _ in range(n_channels)]

    t0 = L - 1
    last_fit_origin = t0 - 1   # newest forecast origin already fitted on
    last_observed = -1         # newest raw index absorbed into channel stats

    def do_update(t_now):
        nonlocal last_fit_origin, last_observed
        origins = collect_completed_pairs(t_now, last_fit_origin, L, H)
        if origins:
            for ch in range(n_channels):
                block = [bundles[ch][t - t0] for t in origins]
                ctxs = np.stack([dataset[t - L + 1: t + 1, ch] for t in origins])
                tgts = np.stack([dataset[t + 1: t + 1 + H, ch] for t in origins])
                w = weighters[ch]
                # streams: base, adaptive, combined, and the two combos at
                # the fast and slow weights frozen since the previous update
                forecasts = np.empty((5, len(origins), H))
                for row, attr in enumerate(("base_forecast", "adaptive_forecast",
                                            "combined_forecast")):
                    np.stack([getattr(b, attr) for b in block], out=forecasts[row])
                forecasts[3] = combine(forecasts[0], forecasts[1], w_fast[ch])
                forecasts[4] = combine(forecasts[0], forecasts[1], w.w_slow)
                scores = score_windows(forecasts, tgts, ctxs, config.seasonality)
                del forecasts
                for b, tgt, mases, rmsses, floored in zip(
                        block, tgts, scores.mase[:3].T.tolist(), scores.rmsse[:3].T.tolist(),
                        scores.floored.tolist()):
                    b.target = tgt
                    b.fully_observed = True
                    report.records.append(WindowRecord(
                        time_step=b.time_step, channel=ch,
                        mase_base=mases[0], mase_adaptive=mases[1], mase_combined=mases[2],
                        rmsse_base=rmsses[0], rmsse_adaptive=rmsses[1],
                        rmsse_combined=rmsses[2],
                        denominator_floored=floored,
                    ))
                loss_base, loss_adaptive, _, loss_fast, loss_slow = \
                    scores.mase.mean(axis=1).tolist()
                w.update(loss_base, loss_adaptive, loss_fast, loss_slow)
                w_fast[ch] = w.fast_weight()
                applied[ch] = w.current_weight(config.weighter_mode)
                trajectories[ch].append({
                    "update_step": w.update_count,
                    "time_step": t_now,
                    "w_slow": w.w_slow,
                    "w_fast": w_fast[ch],
                    "beta_merge": w.beta_merge,
                    "w_combined": applied[ch],
                    "loss_base": loss_base,
                    "loss_adaptive": loss_adaptive,
                })
            report.update_steps += 1

        # absorb the raw values revealed since the previous update
        for idx in range(last_observed + 1, t_now + 1):
            row = np.asarray(dataset[idx], dtype=np.float64)
            if config.shared_weights:
                forecasters[0].observe_values(row)
            else:
                for ch in range(n_channels):
                    forecasters[ch].observe_values(row[ch: ch + 1])
        last_observed = t_now

        if origins:
            if config.shared_weights:
                pairs = [
                    SamplePair(np.asarray(dataset[t - L + 1: t + 1, ch], dtype=np.float64),
                               np.asarray(dataset[t + 1: t + 1 + H, ch], dtype=np.float64),
                               ch)
                    for ch in range(n_channels) for t in origins
                ]
                forecasters[0].fit_block(pairs)
            else:
                for ch in range(n_channels):
                    pairs = [
                        SamplePair(np.asarray(dataset[t - L + 1: t + 1, ch], dtype=np.float64),
                                   np.asarray(dataset[t + 1: t + 1 + H, ch], dtype=np.float64),
                                   0)
                        for t in origins
                    ]
                    forecasters[ch].fit_block(pairs)
            last_fit_origin = origins[-1]

    # values before the first forecast step are revealed up front; they
    # are all in the past once the loop starts
    for idx in range(0, t0):
        row = np.asarray(dataset[idx], dtype=np.float64)
        _check_row(row, idx)
        base.observe(idx, row)

    steps_done = 0
    for t in range(t0, total - 1):
        _check_row(dataset[t], t)
        base.observe(t, np.asarray(dataset[t], dtype=np.float64))
        # the (L, C) window is read once; row ch of ctxs is channel ch's context
        ctxs = np.ascontiguousarray(np.asarray(dataset[t - L + 1: t + 1], dtype=np.float64).T)
        if config.shared_weights:
            shared_forecasts = forecasters[0].predict(ctxs)
        for ch in range(n_channels):
            ctx = ctxs[ch]
            bf = np.asarray(base.forecast(t, ch, ctx), dtype=np.float64)
            if bf.shape != (H,):
                raise ShapeMismatch(
                    f"base forecast at (t={t}, channel={ch}) has shape {bf.shape}, "
                    f"expected ({H},)"
                )
            af = shared_forecasts[ch] if config.shared_weights else forecasters[ch].predict(ctx)
            w = applied[ch]
            bundles[ch].append(ForecastBundle(
                time_step=t, channel=ch, base_forecast=bf, adaptive_forecast=af,
                combined_forecast=combine(bf, af, w), weight_used=w,
            ))
        steps_done += 1
        if steps_done % M == 0:
            do_update(t)
        if step_callback is not None:
            step_callback(t)

    _summarize(report, bundles, trajectories)
    return report


def _summarize(report: RunReport, bundles, trajectories) -> None:
    n_channels = len(report.channel_names)
    by_channel = [[] for _ in range(n_channels)]
    for rec in report.records:
        by_channel[rec.channel].append(rec)
    stream_fields = {
        "base": ("mase_base", "rmsse_base"),
        "adaptive": ("mase_adaptive", "rmsse_adaptive"),
        "combined": ("mase_combined", "rmsse_combined"),
    }
    for ch, name in enumerate(report.channel_names):
        recs = by_channel[ch]
        entry = {"windows": len(recs),
                 "floored_windows": sum(r.denominator_floored for r in recs)}
        for stream, (mf, rf) in stream_fields.items():
            entry[stream] = {
                "mase": float(np.mean([getattr(r, mf) for r in recs])) if recs else None,
                "rmsse": float(np.mean([getattr(r, rf) for r in recs])) if recs else None,
            }
        report.per_channel[name] = entry
        report.weights[name] = trajectories[ch]
    scored = [report.per_channel[n] for n in report.channel_names
              if report.per_channel[n]["windows"] > 0]
    report.aggregate = {
        stream: {
            "mase": float(np.mean([e[stream]["mase"] for e in scored])) if scored else None,
            "rmsse": float(np.mean([e[stream]["rmsse"] for e in scored])) if scored else None,
        }
        for stream in STREAMS
    }
    report.windows_evaluated = len(report.records)
    report.floored_windows = sum(r.denominator_floored for r in report.records)
    report.bundles = bundles
