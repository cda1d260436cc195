"""Rolling-window deployment simulator.

The harness steps through a multichannel series one time step at a time
with one forecaster, holding one model for all channels or one per channel
(``shared_weights``). At each step it reads the trailing ``(L, C)`` window
once (its last row is the newly revealed row, which is checked and shown
to the base), obtains all base forecasts from one ``forecast_all`` call
and all adaptive forecasts from one ``predict`` call, and records both
with each channel's current weight. Every ``update_period`` steps it
reads every window whose target has fully materialized into one
channel-major block, scores it, feeds those scores to the per-channel
weighters, absorbs the newly revealed raw values into the running channel
statistics and refits the forecaster on the block. Nothing ever reads past
the current step: pairs enter fitting only once their target lies
entirely in the past, at the price of a horizon-length lag.

A run keeps its state in a few preallocated arrays on the report: the
base, adaptive and target forecasts of every step (step-major, so each
step writes one contiguous slab), the weight each channel used at each
step, and the MASE/RMSSE and floored flag of every scored window. The
combined forecast is not stored: it is ``combine(base, adaptive,
weight_used)``, an elementwise expression that rebuilds it bit for bit
wherever it is read (block scoring and ``RunReport.bundles``), so storing
it would only cost memory.

The dataset is only ever touched through ``__getitem__`` on the object
passed in, so tests can substitute an index-recording wrapper to audit
that no operation looks ahead.
"""

from __future__ import annotations

import functools
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
from .forecaster import OnlineForecaster
from .metrics import score_windows
from .weighter import ChannelWeighter, combine

STREAMS = ("base", "adaptive", "combined")


# -- base forecasters ---------------------------------------------------------

class BaseForecaster:
    """Contract for the fixed forecaster being adapted.

    Implementations must be deterministic functions of what they have been
    shown and must never peek beyond the current time step. ``observe`` is
    called once per step with the newly revealed values (index order), in
    particular before the step's forecasts are requested.

    The harness asks for all channels at once through ``forecast_all``,
    whose default calls ``forecast`` once per channel. A subclass that
    redefines ``forecast`` but not ``forecast_all`` gets that default back
    even where a parent overrides ``forecast_all``, so its own
    ``forecast`` is the one that runs.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "forecast" in vars(cls) and "forecast_all" not in vars(cls):
            cls.forecast_all = BaseForecaster.forecast_all

    def observe(self, t: int, values: np.ndarray) -> None:
        pass

    def forecast(self, t: int, channel: int, context: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def forecast_all(self, t: int, contexts: np.ndarray) -> np.ndarray:
        """The ``(C, H)`` forecasts of all channels; row ``ch`` of
        ``contexts`` is channel ``ch``'s ``(L,)`` context."""
        rows = []
        for ch, ctx in enumerate(contexts):
            row = np.asarray(self.forecast(t, ch, ctx), dtype=np.float64)
            if row.ndim != 1 or (rows and row.shape != rows[0].shape):
                raise ShapeMismatch(
                    f"base forecasts at t={t} are not vectors of one length: "
                    f"channel {ch} has shape {row.shape}"
                )
            rows.append(row)
        return np.stack(rows)


@functools.lru_cache(maxsize=16)
def _season_index(context_length: int, seasonality: int, horizon: int) -> np.ndarray:
    """Context positions that ``NaiveSeasonalBase.forecast`` tiles: the
    last ``s = min(seasonality, L)`` values, repeated across the horizon."""
    s = min(seasonality, context_length)
    index = context_length - s + np.arange(horizon) % s
    index.flags.writeable = False
    return index


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

    def forecast_all(self, t, contexts):
        contexts = np.asarray(contexts, dtype=np.float64)
        return contexts.take(_season_index(contexts.shape[-1], self.seasonality, self.horizon),
                             axis=-1)


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

    def forecast_all(self, t, contexts):
        contexts = np.asarray(contexts, dtype=np.float64)
        if self._count == 0:
            means = contexts.mean(axis=-1)
        else:
            means = self._sums[: contexts.shape[0]] / self._count
        return np.repeat(means[:, None], self.horizon, axis=1)


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

    def forecast_all(self, t, contexts):
        n = len(contexts)
        try:
            out = np.array([self.table[(t, name)] for name in self.channel_names[:n]],
                           dtype=np.float64)
        except (KeyError, ValueError):
            out = None
        if out is None or out.shape != (n, self.horizon):
            # the per-channel path raises the error naming the first bad channel
            return BaseForecaster.forecast_all(self, t, contexts)
        return out


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
    """One emitted forecast for one channel; ``target`` is None until the
    window has been scored."""

    time_step: int
    channel: int
    base_forecast: np.ndarray
    adaptive_forecast: np.ndarray
    combined_forecast: np.ndarray
    weight_used: float
    target: np.ndarray = None


@dataclass
class RunReport:
    """Metrics, weight trajectories and the run's forecasts as columns.

    Step ``i`` is forecast origin ``skipped_initial_steps + i``; scored
    windows are the first ``n_scored`` steps, oldest first.

    - ``forecasts``: ``(n_steps, 3, C, H)``, the base, adaptive and target
      forecasts of every step (targets are filled once scored);
    - ``weight_used``: ``(C, n_steps)``, the weight each channel blended with;
    - ``scores``: ``(2, 3, C, n_scored)``, MASE and RMSSE of the base,
      adaptive and combined streams per window;
    - ``floored``: ``(C, n_scored)``, whether a window's denominator was floored.
    """

    config: RollingConfig
    channel_names: list
    forecasts: np.ndarray
    weight_used: np.ndarray
    scores: np.ndarray
    floored: np.ndarray
    per_channel: dict = field(default_factory=dict)
    aggregate: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)
    windows_evaluated: int = 0
    floored_windows: int = 0
    update_steps: int = 0
    skipped_initial_steps: int = 0
    dataset_name: str = ""

    @property
    def bundles(self) -> list:
        """Per channel, one :class:`ForecastBundle` per step, oldest first,
        whose arrays are views of the columns (the combined one is rebuilt)."""
        t0, n_scored = self.skipped_initial_steps, self.floored.shape[1]
        views = []
        for ch in range(len(self.channel_names)):
            base, adaptive, target = (self.forecasts[:, k, ch] for k in range(3))
            w = self.weight_used[ch]
            combined = combine(base, adaptive, w[:, None])
            views.append([
                ForecastBundle(t0 + i, ch, base[i], adaptive[i], combined[i], wi,
                               target[i] if i < n_scored else None)
                for i, wi in enumerate(w.tolist())
            ])
        return views

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
    row = np.asarray(row, dtype=np.float64)
    if not np.isfinite(row).all():
        bad = np.flatnonzero(~np.isfinite(row))
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
    if len(set(channel_names)) != n_channels:
        raise InvalidConfig(f"channel names must be unique, got {list(channel_names)}")

    forecaster = OnlineForecaster(
        L, H, config.seasonality, lam=config.lam, alpha=config.alpha,
        instance_norm=config.instance_norm, channel_scaling=config.channel_scaling,
        models=1 if config.shared_weights else n_channels,
    )
    weighters = [
        ChannelWeighter(eta=config.eta, fast_window=config.fast_window,
                        warmup_steps=config.warmup)
        for _ in range(n_channels)
    ]
    # weights only move at updates: each channel's fast weight and applied
    # weight are computed once here and once after each of its updates
    w_fast = [w.fast_weight() for w in weighters]
    applied = [w.current_weight(config.weighter_mode) for w in weighters]
    trajectories = [[] for _ in range(n_channels)]

    t0 = L - 1
    n_steps = total - 1 - t0
    # the last update comes after n_steps // M * M steps and has scored all
    # of them but the H whose targets had not yet landed
    n_scored = max(0, n_steps // M * M - H)
    forecasts = np.empty((n_steps, 3, n_channels, H))  # base, adaptive, target
    weight_used = np.empty((n_channels, n_steps))
    scores = np.empty((2, 3, n_channels, n_scored))  # MASE, RMSSE of STREAMS
    floored = np.empty((n_channels, n_scored), dtype=bool)
    last_fit_origin = t0 - 1   # newest forecast origin already fitted on
    last_observed = -1         # newest raw index absorbed into channel stats
    update_steps = 0

    # values before the first forecast step are revealed up front; they
    # are all in the past once the loop starts
    for idx in range(0, t0):
        row = np.asarray(dataset[idx], dtype=np.float64)
        _check_row(row, idx)
        base.observe(idx, row)

    for i, t in enumerate(range(t0, total - 1)):
        # the (L, C) window is the step's only read: its last row is the
        # newly revealed row t, and row ch of ctxs is channel ch's context
        window = np.asarray(dataset[t - L + 1: t + 1], dtype=np.float64)
        _check_row(window[-1], t)
        base.observe(t, window[-1])
        ctxs = np.ascontiguousarray(window.T)
        step = forecasts[i]
        step[1] = forecaster.predict(ctxs)
        bf = np.asarray(base.forecast_all(t, ctxs), dtype=np.float64)
        if bf.shape != (n_channels, H):
            raise ShapeMismatch(
                f"base forecasts at t={t} have shape {bf.shape}, expected ({n_channels}, {H})"
            )
        step[0] = bf
        weight_used[:, i] = applied
        if (i + 1) % M == 0:
            origins = collect_completed_pairs(t, last_fit_origin, L, H)
            if origins:
                # the completed windows, channel-major (C, m, L) and (C, m, H):
                # scored per channel, then fitted as one block
                ctx_block = np.array([[dataset[o - L + 1: o + 1, ch] for o in origins]
                                      for ch in range(n_channels)], dtype=np.float64)
                tgt_block = np.array([[dataset[o + 1: o + 1 + H, ch] for o in origins]
                                      for ch in range(n_channels)], dtype=np.float64)
                done = slice(origins[0] - t0, origins[-1] + 1 - t0)
                forecasts[done, 2] = tgt_block.transpose(1, 0, 2)
                for ch, w in enumerate(weighters):
                    # streams: base, adaptive, combined, and the two combos at
                    # the fast and slow weights frozen since the previous update
                    bfs, afs = forecasts[done, 0, ch], forecasts[done, 1, ch]
                    block = score_windows(
                        np.stack([bfs, afs, combine(bfs, afs, weight_used[ch, done, None]),
                                  combine(bfs, afs, w_fast[ch]), combine(bfs, afs, w.w_slow)]),
                        tgt_block[ch], ctx_block[ch], config.seasonality)
                    scores[:, :, ch, done] = block.mase[:3], block.rmsse[:3]
                    floored[ch, done] = block.floored
                    loss_base, loss_adaptive, _, loss_fast, loss_slow = \
                        block.mase.mean(axis=1).tolist()
                    w.update(loss_base, loss_adaptive, loss_fast, loss_slow)
                    w_fast[ch] = w.fast_weight()
                    applied[ch] = w.current_weight(config.weighter_mode)
                    trajectories[ch].append({
                        "update_step": w.update_count,
                        "time_step": t,
                        "w_slow": w.w_slow,
                        "w_fast": w_fast[ch],
                        "beta_merge": w.beta_merge,
                        "w_combined": applied[ch],
                        "loss_base": loss_base,
                        "loss_adaptive": loss_adaptive,
                    })
                update_steps += 1

            # absorb the raw values revealed since the previous update
            for idx in range(last_observed + 1, t + 1):
                forecaster.observe_values(np.asarray(dataset[idx], dtype=np.float64))
            last_observed = t

            if origins:
                forecaster.fit(ctx_block.reshape(-1, L), tgt_block.reshape(-1, H),
                               np.repeat(np.arange(n_channels), len(origins)))
                last_fit_origin = origins[-1]
        if step_callback is not None:
            step_callback(t)

    if n_scored:
        means = scores.mean(axis=-1)  # (2, 3, C): MASE and RMSSE per stream and channel
        by_channel, overall = means.transpose(2, 0, 1).tolist(), means.mean(axis=-1).tolist()
    else:
        overall = [[None] * 3] * 2
        by_channel = [overall] * n_channels

    def streams(m):
        return {s: {"mase": m[0][k], "rmsse": m[1][k]} for k, s in enumerate(STREAMS)}

    names = list(channel_names)
    return RunReport(
        config=config, channel_names=names, forecasts=forecasts,
        weight_used=weight_used, scores=scores, floored=floored,
        per_channel={name: {"windows": n_scored, "floored_windows": int(floored[ch].sum()),
                            **streams(by_channel[ch])}
                     for ch, name in enumerate(names)},
        aggregate=streams(overall), weights=dict(zip(names, trajectories)),
        windows_evaluated=floored.size, floored_windows=int(floored.sum()),
        update_steps=update_steps, skipped_initial_steps=t0,
    )
