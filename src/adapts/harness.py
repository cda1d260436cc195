"""Rolling-window deployment simulator.

The harness steps through a multichannel series one time step at a time
with one forecaster, holding one model for all channels or one per channel
(``shared_weights``). A :class:`Session` owns one run's state, and
:func:`run` is a loop over it. The session has three boundaries, and each
reads the series once, one slab each:

- construction, before the first forecast step: the rows before it,
  checked as one block, then each shown to the base and all merged into
  the channel statistics at once;
- :meth:`Session.step`, at every forecast origin: the trailing ``(L, C)``
  window. Its last row, the newly revealed one, is checked (one count of
  its finite values) and shown to the base; one ``forecast_all`` call, the
  base's one forecasting method, and one ``predict`` call give every
  channel's base and adaptive forecasts, recorded with each channel's
  current weight. ``predict`` writes the adaptive ones straight into the
  step's ring row;
- :meth:`Session._update`, which every ``update_period``-th step calls:
  the rows from the first context of the windows whose targets have
  landed since the previous update (or the ``update_period`` newest rows
  if none has) up to the current step. One
  cursor, the number of steps already scored, says where those windows
  start, because step k's context starts at row k. The slab's newest
  ``update_period`` rows are merged into the channel statistics at once.
  The slab is copied once, channel-major, and the completed windows'
  targets are sliding views of that copy, never copied as a block: each
  window's seasonal-naive denominators come from one pass over the copy,
  each channel's windows are scored for the weighters, and the
  forecaster fits on the copy itself (``OnlineForecaster.fit_slab``),
  which holds exactly the completed windows. A channel's five scored
  streams are written into the session's one stream block, its base and
  adaptive forecasts copied from the ring and the three combinations
  written by ``combine(..., out=)``, and the block is scored in one
  ``scaled_scores`` call. The slab's rows from the first target on are
  kept as the report's landed rows.

So each row reaches the base once, and the channel statistics once if an
update follows it, in time order. Nothing ever reads past the current
step: pairs enter fitting only once their target lies entirely in the
past, at the price of a horizon-length lag.

A run keeps its state in a few preallocated arrays. The base and adaptive
forecasts live in a ring of steps (step-major, so each step writes one
contiguous slab) that holds only the steps no update has scored yet:
``update_period + horizon`` of them, rounded up to whole update periods.
A step's row is overwritten only after the update that scored it read
it, and every update reads its completed steps as one run of rows, a
view. With ``keep_forecasts`` the ring holds every step instead, and the
report hands them out. The report's own columns grow with the run, one
entry per step or scored window and channel: the weight each channel used
at each step, the MASE/RMSSE and floored flag of every scored window, and
the rows the scored windows' targets span. Weights move only at updates,
so they are written once per update period, for all of its steps at once.
Nothing that can be rebuilt bit for bit is stored, because storing it
would only cost memory:

- the combined forecast is ``combine(base, adaptive, weight_used)``, an
  elementwise expression rebuilt wherever it is read (block scoring and
  ``RunReport.bundles``);
- a scored window's target is ``H`` consecutive landed rows, so the
  targets are sliding views of those rows (``RunReport.targets``), not
  ``H`` copies of each row.

The dataset is only ever touched through its ``shape`` and ``__getitem__``
with a slice of rows on the object passed in, so tests can substitute an
index-recording wrapper to audit that no operation looks ahead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import RollingConfig, check_count
from .errors import (
    CorruptSeries,
    InsufficientData,
    InvalidConfig,
    MissingForecast,
    ShapeMismatch,
    UsageError,
)
from .forecaster import OnlineForecaster, _season_index
from .io import ForecastTable
from .metrics import scaled_scores, seasonal_naive_denominators
from .weighter import ChannelWeighter, combine

STREAMS = ("base", "adaptive", "combined")


# -- base forecasters ---------------------------------------------------------

class BaseForecaster:
    """Contract for the fixed forecaster being adapted.

    Implementations must be deterministic functions of what they have been
    shown and must never peek beyond the current time step. ``observe`` is
    called once per step with the newly revealed values (index order), in
    particular before the step's forecasts are requested. ``forecast_all``
    is the one forecasting method: the harness calls it once per step with
    every channel's context, and a subclass must define it.
    """

    def observe(self, t: int, values: np.ndarray) -> None:
        pass

    # not part of the contract: no run calls it
    def forecast(self, t: int, channel: int, context: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def forecast_all(self, t: int, contexts: np.ndarray) -> np.ndarray:
        """The ``(C, H)`` forecasts of all channels; row ``ch`` of
        ``contexts`` is channel ``ch``'s ``(L,)`` context."""
        raise NotImplementedError(f"{type(self).__name__} must define forecast_all(t, contexts)")


class NaiveSeasonalBase(BaseForecaster):
    """Tiles the final season of the context across the horizon."""

    def __init__(self, seasonality: int, horizon: int):
        check_count("seasonality", seasonality, 1)
        check_count("horizon", horizon, 1)
        self.seasonality = seasonality
        self.horizon = horizon

    def forecast_all(self, t, contexts):
        contexts = np.asarray(contexts, dtype=np.float64)
        return contexts.take(_season_index(contexts.shape[-1], self.seasonality, self.horizon),
                             axis=-1)


class HistoricalMeanBase(BaseForecaster):
    """Constant forecast at the running mean of everything seen so far."""

    def __init__(self, horizon: int):
        check_count("horizon", horizon, 1)
        self.horizon = horizon
        self._sums = None
        self._count = 0

    def observe(self, t, values):
        values = np.asarray(values, dtype=np.float64)
        if self._sums is None:
            self._sums = np.zeros_like(values)
        self._sums += values
        self._count += 1

    def forecast_all(self, t, contexts):
        contexts = np.asarray(contexts, dtype=np.float64)
        if self._count == 0:
            means = contexts.mean(axis=-1)
        else:
            means = self._sums[: contexts.shape[0]] / self._count
        return np.repeat(means[:, None], self.horizon, axis=1)


class PrecomputedBase(BaseForecaster):
    """Serves forecasts from a :class:`~adapts.io.ForecastTable`.

    Any other ``table``, or a table of another horizon, raises
    InvalidConfig here. Channel ``ch`` of a run is the table's channel
    ``channel_names[ch]``. Each step's forecasts are one lookup of their
    block rows, served as a copy. A forecast the lookup misses raises
    MissingForecast naming the first channel without one.
    """

    def __init__(self, table, horizon: int, channel_names):
        if not isinstance(table, ForecastTable):
            raise InvalidConfig(
                f"a precomputed base needs a ForecastTable, got {type(table).__name__}")
        check_count("horizon", horizon, 1)
        if table.horizon != horizon:
            raise InvalidConfig(
                f"forecast file horizon {table.horizon} differs from configured {horizon}")
        self.table = table
        self.horizon = horizon
        self.channel_names = list(channel_names)
        # the table's code of each channel name, -1 for a name it lacks
        self._codes = np.array([table.code(name) for name in self.channel_names], np.intp)

    def forecast_all(self, t, contexts):
        n = len(contexts)
        codes = self._codes[:n]
        listed = codes.tolist()
        if -1 in listed:  # a name the table lacks: the lookup stops before it
            codes = codes[:listed.index(-1)]
        rows = self.table.rows(t, codes)
        ch = (rows.tolist() + [-1]).index(-1)  # the first channel without a forecast
        if ch == n:
            return self.table.block[rows]
        if ch == len(self.channel_names):
            raise MissingForecast(f"no precomputed forecast for channel index {ch}: the "
                                  f"base holds {len(self.channel_names)} channel names")
        raise MissingForecast(f"no precomputed forecast for time step {t}, "
                              f"channel {self.channel_names[ch]!r}")


def make_base_forecaster(kind: str, *, horizon: int, seasonality: int = None,
                         forecasts=None, channel_names=None) -> BaseForecaster:
    """Build one of the bundled base forecasters.

    ``precomputed`` needs ``forecasts``, a :class:`~adapts.io.ForecastTable`
    such as :func:`adapts.io.load_forecasts` returns, and the run's
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

    Step ``i`` is forecast origin ``t0 + i``, ``t0 =
    skipped_initial_steps``; scored windows are the first ``n_scored``
    steps, oldest first.

    - ``forecasts``: ``(n_steps, 2, C, H)``, the base and adaptive forecasts
      of every step, or None unless the run kept them (``keep_forecasts``);
    - ``landed``: ``(n_scored + H - 1, C)``, series rows ``t0 + 1`` to ``t0 +
      n_scored + H - 1``, which the scored windows' targets span (``(0,
      C)`` when no window was scored);
    - ``weight_used``: ``(C, n_steps)``, the weight each channel blended with;
    - ``scores``: ``(2, 3, C, n_scored)``, MASE and RMSSE of the base,
      adaptive and combined streams per window;
    - ``floored``: ``(C, n_scored)``, whether a window's denominator was floored.

    ``targets`` and ``bundles`` are rebuilt from these on read.
    """

    config: RollingConfig
    channel_names: list
    forecasts: np.ndarray
    landed: np.ndarray
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
    def targets(self) -> np.ndarray:
        """``(n_scored, C, H)``: the target of every scored window, a
        read-only sliding view of ``landed``, so nothing is copied."""
        if not len(self.landed):
            return np.empty((0, len(self.channel_names), self.config.horizon))
        return sliding_window_view(self.landed, self.config.horizon, axis=0)

    @property
    def bundles(self) -> list:
        """Per channel, one :class:`ForecastBundle` per step, oldest first,
        whose arrays are views of the columns (the combined one is rebuilt)
        and of ``targets``; steps never scored keep ``target=None``. Each
        channel's list is empty when the run did not keep its forecasts."""
        if self.forecasts is None:
            return [[] for _ in self.channel_names]
        t0, n_scored = self.skipped_initial_steps, self.floored.shape[1]
        targets = self.targets
        views = []
        for ch in range(len(self.channel_names)):
            base, adaptive = self.forecasts[:, 0, ch], self.forecasts[:, 1, ch]
            target = targets[:, ch]
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


def _check_rows(values, t: int) -> None:
    """Raise CorruptSeries naming the first non-finite value, in time order,
    of ``values``: the ``(C,)`` row revealed at step ``t``, or the ``(k, C)``
    rows revealed from step ``t`` on.

    It counts the finite entries: a sum would warn on a finite overflow,
    and ``ndarray.all`` goes through a Python-level wrapper that costs
    more than the check itself."""
    finite = np.isfinite(values)
    if np.count_nonzero(finite) != finite.size:
        row, ch = divmod(int(np.argmin(finite)), finite.shape[-1])
        raise CorruptSeries(f"non-finite value at time step {t + row}, channel {ch}")


class Session:
    """One run of ``base`` plus the adaptive layer over a series, one
    forecast origin at a time; :func:`run` is the loop over it.

    The session owns the run's state: the forecaster, one weighter per
    channel, the report's columns, the ring of forecasts, the ``scored``
    cursor and the weight trajectories. It has three boundaries:

    - construction validates the inputs, builds the forecaster and the
      weighters, allocates the columns for the series' ``n_steps`` steps
      and reveals the rows before the first step, in one read;
    - :meth:`step` handles the next forecast origin and returns it;
    - :meth:`_update`, which every ``update_period``-th step calls, scores
      the windows whose targets have landed, moves the weights and fits
      the forecaster.

    Step ``s``'s base and adaptive forecasts sit at row ``(s + H) % R`` of
    ``ring``, ``(R, 2, C, H)``. ``R`` is the smallest multiple of
    ``update_period`` (``M``) that holds ``M + H`` steps, or every step and
    ``H`` more with ``keep_forecasts``. So each update's completed steps
    are one contiguous run of rows, and a row is written again only after
    the update that scored it.

    ``stream_block``, ``(5, M, H)``, is where an update scores each
    channel's ``m <= M`` completed windows in turn: its first ``m`` rows
    take the channel's base and adaptive forecasts and their combinations
    at the applied, fast and slow weights, so the per-channel loop
    allocates no stream arrays.

    :meth:`report` assembles the :class:`RunReport` after the last step.
    """

    def __init__(self, dataset, base: BaseForecaster, config: RollingConfig,
                 channel_names=None, keep_forecasts=False):
        config.validate()
        L, H, M = config.context_length, config.horizon, config.update_period
        if not hasattr(dataset, "shape"):
            raise ShapeMismatch(f"series must have a (T, C) shape, got a {type(dataset).__name__}")
        if len(dataset.shape) != 2:
            raise ShapeMismatch(f"series must be (T, C), got shape {dataset.shape}")
        total, n_channels = dataset.shape
        if n_channels == 0:
            raise ShapeMismatch(f"series of shape {dataset.shape} has no channels")
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

        self.dataset, self.base, self.config = dataset, base, config
        self.channel_names = list(channel_names)
        self.forecaster = OnlineForecaster(
            L, H, config.seasonality, lam=config.lam, alpha=config.alpha,
            instance_norm=config.instance_norm, channel_scaling=config.channel_scaling,
            models=1 if config.shared_weights else n_channels,
        )
        self.weighters = [
            ChannelWeighter(eta=config.eta, fast_window=config.fast_window,
                            warmup_steps=config.warmup)
            for _ in range(n_channels)
        ]
        self.trajectories = [[] for _ in range(n_channels)]

        self.t0 = t0 = L - 1
        self.n_steps = n_steps = total - 1 - t0
        # the last update comes after n_steps // M * M steps and has scored
        # all of them but the H whose targets had not yet landed
        n_scored = max(0, n_steps // M * M - H)
        span = (n_steps if keep_forecasts else M) + H
        self.ring = np.empty((-(-span // M) * M, 2, n_channels, H))  # base, adaptive
        # a kept run's ring never wraps, so step s stays at row s + H
        self.forecasts = self.ring[H: H + n_steps] if keep_forecasts else None
        # rows t0+1 ... t0+n_scored+H-1: every target a scoring update reads
        self.landed = np.empty((n_scored + H - 1 if n_scored else 0, n_channels))
        self.weight_used = np.empty((n_channels, n_steps))
        self.scores = np.empty((2, 3, n_channels, n_scored))  # MASE, RMSSE of STREAMS
        self.floored = np.empty((n_channels, n_scored), dtype=bool)
        # one channel's scored streams at a time. No step touches it, yet
        # allocated before the ring it raised paper-default's step_ms_p50
        # by 2.4 % (ROADMAP State, memory layout)
        self.stream_block = np.empty((5, M, H))
        self.scored = 0   # steps already scored and fitted on; step k's context starts at row k
        self.steps = 0    # steps taken
        self._lengths = L, H, M, len(self.ring)  # bound once: every step reads them

        # the rows before the first forecast step are revealed up front, in
        # one read, and checked as one block before the base sees any of them
        head = np.asarray(dataset[0:t0], dtype=np.float64)
        _check_rows(head, 0)
        for idx, row in enumerate(head):
            base.observe(idx, row)
        self.forecaster.observe_values(head)

    def step(self) -> int:
        """Reveal the next row, record every channel's base and adaptive
        forecasts at that origin and, when a period starts, the weights it
        blends with; update after every ``update_period``-th step. Returns
        the origin ``t``. Past the last origin it raises UsageError.

        The newly revealed row is checked with one count of its finite
        values, and ``predict`` writes the adaptive forecasts straight
        into the step's ring row."""
        L, H, M, R = self._lengths
        i = self.steps
        if i == self.n_steps:
            raise UsageError(f"the session has taken all {i} steps; no forecast origin is left")
        t = self.t0 + i
        self.steps = i + 1
        # the (L, C) window is the step's only read: its last row is the
        # newly revealed row t, and row ch of ctxs is channel ch's context
        window = np.asarray(self.dataset[t - L + 1: t + 1], dtype=np.float64)
        row = window[-1]
        _check_rows(row, t)
        self.base.observe(t, row)
        ctxs = np.ascontiguousarray(window.T)
        step = self.ring[(i + H) % R]
        self.forecaster.predict(ctxs, out=step[1])
        bf = np.asarray(self.base.forecast_all(t, ctxs), dtype=np.float64)
        if bf.shape != (len(ctxs), H):
            raise ShapeMismatch(
                f"base forecasts at t={t} have shape {bf.shape}, expected ({len(ctxs)}, {H})"
            )
        step[0] = bf
        if i % M == 0:
            # weights only move at updates: every step up to the next update
            # blends with the weights the previous one left
            self.weight_used[:, i: i + M] = [[w.current_weight(self.config.weighter_mode)]
                                             for w in self.weighters]
        if (i + 1) % M == 0:
            self._update(i, t)
        return t

    def _update(self, i: int, t: int) -> None:
        """The update after step ``i``, origin ``t``: merge the period's rows
        into the channel statistics and, once windows have completed since
        the previous update, score them, move the weights and fit on them."""
        L, H, M = self.config.context_length, self.config.horizon, self.config.update_period
        weight_used, scored = self.weight_used, self.scored
        # the steps whose targets have landed since the previous update
        done = slice(scored, max(scored, i + 1 - H))
        m = done.stop - done.start
        # their forecasts: m <= M rows from (scored + H) % R, which is H at
        # the first scoring update and a multiple of M after, so they never wrap
        first = (scored + H) % len(self.ring)
        forecasts = self.ring[first: first + m]
        # the update's one read: the M rows revealed since the previous
        # update and, when windows completed, every row they span
        lo = done.start if m else t - M + 1
        rows = np.asarray(self.dataset[lo: t + 1], dtype=np.float64)
        self.forecaster.observe_values(rows[-M:])
        if not m:
            return
        # the completed windows' targets, channel-major (C, m, H): sliding
        # views of one channel-major copy of the slab, scored per channel
        # against denominators taken from the slab in one pass; the copy,
        # m + L + H - 1 rows, is then fitted as one block
        cols = np.ascontiguousarray(rows.T)
        tgt_view = sliding_window_view(cols[:, L:], H, axis=1)[:, :m]
        naive_mae, naive_mse = seasonal_naive_denominators(
            cols[:, :m + L - 1], self.config.seasonality, L)
        # rows[L:] are rows t0+1+scored ... t: the done windows' targets
        self.landed[done.start: i] = rows[L:]
        # one channel's streams at a time, in the first m rows of the
        # session's block: base, adaptive, combined, and the two combos at
        # the fast and slow weights frozen since the previous update
        streams = self.stream_block[:, :m]
        bfs, afs, combined, fast, slow = streams
        for ch, w in enumerate(self.weighters):
            np.copyto(bfs, forecasts[:, 0, ch])
            np.copyto(afs, forecasts[:, 1, ch])
            combine(bfs, afs, weight_used[ch, done, None], out=combined)
            combine(bfs, afs, w.fast_weight(), out=fast)
            combine(bfs, afs, w.w_slow, out=slow)
            block = scaled_scores(streams, tgt_view[ch], naive_mae[ch], naive_mse[ch])
            self.scores[:, :, ch, done] = block.mase[:3], block.rmsse[:3]
            self.floored[ch, done] = block.floored
            # each stream's mean MASE, as np.mean sums and divides
            losses = np.add.reduce(block.mase, axis=1)
            losses /= m
            loss_base, loss_adaptive, _, loss_fast, loss_slow = losses.tolist()
            w.update(loss_base, loss_adaptive, loss_fast, loss_slow)
            self.trajectories[ch].append({
                "update_step": w.update_count,
                "time_step": t,
                "w_slow": w.w_slow,
                "w_fast": w.fast_weight(),
                "beta_merge": w.beta_merge,
                "w_combined": w.current_weight(self.config.weighter_mode),
                "loss_base": loss_base,
                "loss_adaptive": loss_adaptive,
            })
        self.forecaster.fit_slab(cols)
        self.scored = done.stop

    def report(self) -> RunReport:
        """The run's :class:`RunReport`, once every step has been taken;
        before that it raises UsageError."""
        if self.steps < self.n_steps:
            raise UsageError(f"the report needs all {self.n_steps} steps; "
                             f"the session has taken {self.steps}")
        scores, floored, names = self.scores, self.floored, self.channel_names
        n_scored = floored.shape[1]
        if n_scored:
            means = scores.mean(axis=-1)  # (2, 3, C): MASE and RMSSE per stream and channel
            by_channel, overall = means.transpose(2, 0, 1).tolist(), means.mean(axis=-1).tolist()
        else:
            overall = [[None] * 3] * 2
            by_channel = [overall] * len(names)

        def streams(m):
            return {s: {"mase": m[0][k], "rmsse": m[1][k]} for k, s in enumerate(STREAMS)}

        return RunReport(
            config=self.config, channel_names=names, forecasts=self.forecasts,
            landed=self.landed, weight_used=self.weight_used, scores=scores, floored=floored,
            per_channel={name: {"windows": n_scored, "floored_windows": int(floored[ch].sum()),
                                **streams(by_channel[ch])}
                         for ch, name in enumerate(names)},
            aggregate=streams(overall), weights=dict(zip(names, self.trajectories)),
            windows_evaluated=floored.size, floored_windows=int(floored.sum()),
            update_steps=len(self.trajectories[0]), skipped_initial_steps=self.t0,
        )


def run(dataset, base: BaseForecaster, config: RollingConfig, channel_names=None,
        step_callback=None, keep_forecasts=False) -> RunReport:
    """Simulate deployment of ``base`` plus the adaptive layer over a series:
    one :class:`Session`, stepped through every forecast origin.

    Parameters
    ----------
    dataset : (T, C) series, such as a numpy array
        Any object with a 2-D ``shape`` and a ``__getitem__`` that takes a
        slice of rows and returns them as a ``(k, C)`` array-like; a list
        of rows, which has no ``shape``, raises ShapeMismatch. The rows are
        read only through such slices, and values at indices greater than
        the current step are never touched.
    base : BaseForecaster
    config : RollingConfig
    channel_names : optional list of C names for reporting
    step_callback : optional callable invoked as ``step_callback(t)`` after
        each processed time step
    keep_forecasts : whether the report keeps every step's forecasts
        (``RunReport.forecasts`` and ``bundles``); by default the run holds
        only the steps it has yet to score

    Returns
    -------
    RunReport
    """
    session = Session(dataset, base, config, channel_names, keep_forecasts)
    for _ in range(session.n_steps):
        t = session.step()
        if step_callback is not None:
            step_callback(t)
    return session.report()
