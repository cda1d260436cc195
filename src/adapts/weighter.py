"""Per-channel combination of base and adaptive forecasts.

Three exponential weighters cooperate. The slow weighter discounts by
every loss seen since warm-up ended, so it tracks long-run relative
performance. The fast weighter recomputes its weight from only the most
recent ``fast_window`` loss pairs, so it can flip quickly after a regime
change. The merge weighter watches how well each of those two weightings
would have combined the forecasts and blends them into the single weight
actually used.

The slow and merge weights are not stored as probabilities. Repeatedly
renormalizing a probability loses the odds ratio once a weight saturates
near 0 or 1, and the drift compounds over thousands of updates. Instead
each weighter keeps compensated (Kahan) running sums of its two loss
streams and derives the weight as their softmax once per absorbed block,
which keeps the recursion equal to its closed form to near machine
precision over arbitrarily long streams.

Channels are independent: one state per channel, updates within a channel
serialized.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .config import WEIGHTER_MODES
from .errors import DegenerateWeights, InvalidConfig, InvalidLoss, ShapeMismatch


def exp_weight_step(prev_weights, losses, eta: float) -> np.ndarray:
    """One multiplicative-weights update.

    Each weight is scaled by ``exp(-eta * loss)`` and the vector is
    renormalized. Computed in log space with a max shift, so arbitrarily
    large finite losses cannot overflow or produce NaN.

    Parameters
    ----------
    prev_weights : nonnegative vector summing to 1 (within 1e-12)
    losses : finite, same length
    eta : learning rate, >= 0
    """
    prev = np.asarray(prev_weights, dtype=np.float64)
    loss = np.asarray(losses, dtype=np.float64)
    if prev.shape != loss.shape or prev.ndim != 1:
        raise ShapeMismatch(f"weights {prev.shape} and losses {loss.shape} must match")
    if not (np.all(prev >= 0) and abs(prev.sum() - 1.0) <= 1e-12):  # NaN fails both
        raise InvalidLoss(f"prior weights must form a simplex, got {prev}")
    if not np.all(np.isfinite(loss)):
        raise InvalidLoss(f"losses must be finite, got {loss}")
    if not (math.isfinite(eta) and eta >= 0):
        raise InvalidLoss(f"learning rate must be finite and >= 0, got {eta}")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_prev = np.log(prev)
        log_w = log_prev - eta * loss
        top = log_w.max()
        if not math.isfinite(top):
            # eta * loss overflowed: measure every loss from the least loss
            # among weighted entries, whose log weight then stays finite
            support = prev > 0
            gap = loss - loss[support].min()
            log_w = np.where(support, log_prev - eta * gap, -np.inf)
            top = log_w.max()
        shifted = np.exp(log_w - top)
    total = shifted.sum()
    if not total > 0:  # guard: top is finite, so one shifted entry is exactly 1
        raise DegenerateWeights("all weights vanished after the update")
    return shifted / total


def combine(base_forecast, adaptive_forecast, w, out=None) -> np.ndarray:
    """Convex combination ``w * base + (1 - w) * adaptive``.

    ``w`` is a scalar or an array that broadcasts against the forecasts,
    such as an ``(m, 1)`` column of per-row weights. The result is
    written into ``out`` and returned: a fresh array when ``out`` is None,
    else a float64 array of the result's shape, where another shape or
    dtype raises ShapeMismatch before anything is written. ``(1 - w) *
    adaptive`` is taken before ``out`` is written, so ``out`` may be
    ``base`` or ``adaptive`` itself.
    """
    base = np.asarray(base_forecast, dtype=np.float64)
    adaptive = np.asarray(adaptive_forecast, dtype=np.float64)
    if base.shape != adaptive.shape:
        raise ShapeMismatch(f"forecast shapes differ: {base.shape} vs {adaptive.shape}")
    shape = np.broadcast_shapes(np.shape(w), base.shape)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ShapeMismatch(f"out must have shape {shape} and dtype float64, "
                            f"got {out.shape} {out.dtype}")
    rest = (1.0 - w) * adaptive
    np.multiply(w, base, out=out)
    out += rest
    return out


class _LossSums:
    """Kahan-compensated running sums of a pair of loss streams.

    Held as Python floats, whose additions round exactly as numpy's do but
    overflow to inf without a warning. A sum that overflows saturates at
    inf: its compensation is reset to 0, so later additions cannot turn it
    into NaN.
    """

    __slots__ = ("totals", "_comp")

    def __init__(self):
        self.totals = [0.0, 0.0]
        self._comp = [0.0, 0.0]

    def add(self, first: float, second: float) -> None:
        for i, loss in enumerate((first, second)):
            total = self.totals[i]
            y = loss - self._comp[i]
            t = total + y
            self._comp[i] = 0.0 if t == math.inf else (t - total) - y
            self.totals[i] = t


def _softmax_pair_first(totals, eta: float) -> float:
    """First component of the two-way softmax of -eta * totals.

    Evaluated as a stable sigmoid, so that a total that overflowed to inf
    acts as a true zero weight: inf against a finite total gives 0 or 1,
    and two infinite totals give 0.5.
    """
    s1, s2 = float(totals[0]), float(totals[1])
    if eta == 0.0 or (math.isinf(s1) and math.isinf(s2)):
        return 0.5
    x = eta * (s1 - s2)
    if x >= 0:
        z = math.exp(-x)
        return z / (1.0 + z)
    return 1.0 / (1.0 + math.exp(x))


class ChannelWeighter:
    """Weighting state for one channel.

    The slow weight ``w_slow``, the fast weight (:meth:`fast_weight`) and
    the merge weight ``beta_merge`` start uniform at 0.5. Each is computed
    when a block of losses is absorbed and stored until the next one: the
    fast weight from the ring buffer of recent loss pairs, the slow and
    merge weights from their loss sums. During the first
    ``warmup_steps`` update steps the combined output is forced to the
    base forecast and incoming losses are not absorbed, so the cold-start
    fallback cannot poison the weights; the step counter still advances.
    """

    def __init__(self, eta: float = 0.5, fast_window: int = 5, warmup_steps: int = 5):
        if not (math.isfinite(eta) and eta >= 0):
            raise InvalidLoss(f"learning rate must be finite and >= 0, got {eta}")
        if fast_window < 1:
            raise InvalidLoss(f"fast window must be >= 1, got {fast_window}")
        if warmup_steps < 0:
            raise InvalidLoss(f"warm-up steps must be >= 0, got {warmup_steps}")
        self.eta = eta
        self.fast_window = fast_window
        self.warmup_steps = warmup_steps
        self.update_count = 0
        self.fast_losses = deque(maxlen=fast_window)
        self._slow = _LossSums()
        self._merge = _LossSums()
        self.w_slow = self._w_fast = self.beta_merge = 0.5

    def fast_weight(self) -> float:
        """Base-forecast weight from the buffered recent losses.

        The two-way softmax of the windowed loss sums, as for the slow and
        merge totals, at the last absorbed block; 0.5 before the first.
        """
        return self._w_fast

    def current_weight(self, mode: str = "full") -> float:
        """Weight applied to the base forecast at this moment.

        ``mode`` picks the rule (one of ``WEIGHTER_MODES``, see
        ``RollingConfig.weighter_mode``): the merge of the fast and slow
        weights, one of them alone, or a plain 0.5 average. During warm-up
        every mode applies 1.0.
        """
        if mode not in WEIGHTER_MODES:
            raise InvalidConfig(f"weighter mode must be one of {WEIGHTER_MODES}, got {mode!r}")
        if self.update_count < self.warmup_steps:
            return 1.0
        if mode == "slow_only":
            return self.w_slow
        if mode == "fast_only":
            return self._w_fast
        if mode == "unweighted":
            return 0.5
        beta = self.beta_merge
        return beta * self._w_fast + (1.0 - beta) * self.w_slow

    def update(self, loss_base: float, loss_adaptive: float,
               loss_fast_combo: float, loss_slow_combo: float) -> None:
        """Absorb one update step's block losses.

        The combo losses must be scored with the previous step's frozen
        fast and slow weights (read them before calling).
        """
        losses = (float(loss_base), float(loss_adaptive),
                  float(loss_fast_combo), float(loss_slow_combo))
        if not all(map(math.isfinite, losses)) or min(losses) < 0.0:
            raise InvalidLoss(f"losses must be finite and >= 0, got {losses}")
        if self.update_count < self.warmup_steps:
            self.update_count += 1
            return
        loss_base, loss_adaptive, loss_fast_combo, loss_slow_combo = losses
        self._slow.add(loss_base, loss_adaptive)
        self.fast_losses.append((loss_base, loss_adaptive))
        self._merge.add(loss_fast_combo, loss_slow_combo)
        self.update_count += 1
        self.w_slow = _softmax_pair_first(self._slow.totals, self.eta)
        self._w_fast = _softmax_pair_first([sum(col) for col in zip(*self.fast_losses)],
                                           self.eta)
        self.beta_merge = _softmax_pair_first(self._merge.totals, self.eta)
