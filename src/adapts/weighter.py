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
streams and derives the weight as a softmax on demand, which keeps the
recursion equal to its closed form to near machine precision over
arbitrarily long streams.

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
    if np.any(prev < 0) or abs(prev.sum() - 1.0) > 1e-12:
        raise InvalidLoss(f"prior weights must form a simplex, got {prev}")
    if not np.all(np.isfinite(loss)):
        raise InvalidLoss(f"losses must be finite, got {loss}")
    if not (math.isfinite(eta) and eta >= 0):
        raise InvalidLoss(f"learning rate must be finite and >= 0, got {eta}")
    with np.errstate(divide="ignore"):
        log_w = np.log(prev) - eta * loss
    shifted = np.exp(log_w - log_w.max())
    total = shifted.sum()
    if not total > 0:  # unreachable: the max-shifted entry is exactly 1
        raise DegenerateWeights("all weights vanished after the update")
    return shifted / total


def combine(base_forecast, adaptive_forecast, w: float) -> np.ndarray:
    """Convex combination ``w * base + (1 - w) * adaptive``."""
    base = np.asarray(base_forecast, dtype=np.float64)
    adaptive = np.asarray(adaptive_forecast, dtype=np.float64)
    if base.shape != adaptive.shape:
        raise ShapeMismatch(f"forecast shapes differ: {base.shape} vs {adaptive.shape}")
    return w * base + (1.0 - w) * adaptive


class _LossSums:
    """Kahan-compensated running sums of a pair of loss streams."""

    __slots__ = ("totals", "_comp")

    def __init__(self):
        self.totals = np.zeros(2)
        self._comp = np.zeros(2)

    def add(self, pair) -> None:
        y = np.asarray(pair, dtype=np.float64) - self._comp
        t = self.totals + y
        self._comp = (t - self.totals) - y
        self.totals = t

    def set_gap(self, gap: float) -> None:
        """Reset so that ``totals[0] - totals[1] == gap``."""
        self.totals = np.array([max(gap, 0.0), max(-gap, 0.0)])
        self._comp = np.zeros(2)


def _softmax_pair_first(sums: _LossSums, eta: float) -> float:
    """First component of the two-way softmax of -eta * totals.

    Evaluated as a stable sigmoid so that corner states (one total pinned
    at infinity by the weight setters) behave like true zero weights.
    """
    s1, s2 = float(sums.totals[0]), float(sums.totals[1])
    if eta == 0.0 or (math.isinf(s1) and math.isinf(s2)):
        return 0.5
    x = eta * (s1 - s2)
    if x >= 0:
        z = math.exp(-x)
        return z / (1.0 + z)
    return 1.0 / (1.0 + math.exp(x))


def _gap_for_weight(value: float, eta: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise InvalidLoss(f"weight must lie in [0, 1], got {value}")
    if value == 0.0:
        return math.inf
    if value == 1.0:
        return -math.inf
    if eta == 0.0:
        if value != 0.5:
            raise InvalidLoss("with eta == 0 only the uniform weight is representable")
        return 0.0
    return -math.log(value / (1.0 - value)) / eta


class ChannelWeighter:
    """Weighting state for one channel.

    The slow and merge weights start uniform at 0.5. The fast weight is
    derived on demand from the ring buffer of recent loss pairs rather
    than stored. During the first ``warmup_steps`` update steps the
    combined output is forced to the base forecast and incoming losses are
    not absorbed, so the cold-start fallback cannot poison the weights;
    the step counter still advances.
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

    @property
    def w_slow(self) -> float:
        """Base-forecast weight from all post-warm-up losses."""
        return _softmax_pair_first(self._slow, self.eta)

    @w_slow.setter
    def w_slow(self, value: float) -> None:
        self._slow.set_gap(_gap_for_weight(value, self.eta))

    @property
    def beta_merge(self) -> float:
        """Mixing weight between the fast and slow weighters."""
        return _softmax_pair_first(self._merge, self.eta)

    @beta_merge.setter
    def beta_merge(self, value: float) -> None:
        self._merge.set_gap(_gap_for_weight(value, self.eta))

    def fast_weight(self) -> float:
        """Base-forecast weight from the buffered recent losses.

        Softmax of the windowed cumulative losses; 0.5 while the buffer is
        empty.
        """
        if not self.fast_losses:
            return 0.5
        sums = np.sum(np.asarray(self.fast_losses, dtype=np.float64), axis=0)
        return float(exp_weight_step(np.array([0.5, 0.5]), sums, self.eta)[0])

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
            return self.fast_weight()
        if mode == "unweighted":
            return 0.5
        beta = self.beta_merge
        return beta * self.fast_weight() + (1.0 - beta) * self.w_slow

    def update(self, loss_base: float, loss_adaptive: float,
               loss_fast_combo: float, loss_slow_combo: float) -> None:
        """Absorb one update step's block losses.

        The combo losses must be scored with the previous step's frozen
        fast and slow weights (read them before calling).
        """
        losses = np.array([loss_base, loss_adaptive, loss_fast_combo, loss_slow_combo])
        if not np.all(np.isfinite(losses)) or np.any(losses < 0):
            raise InvalidLoss(f"losses must be finite and >= 0, got {losses}")
        if self.update_count < self.warmup_steps:
            self.update_count += 1
            return
        self._slow.add(losses[:2])
        self.fast_losses.append((float(loss_base), float(loss_adaptive)))
        self._merge.add(losses[2:])
        self.update_count += 1
