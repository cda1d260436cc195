"""Run configuration for the rolling-window harness."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidConfig

WEIGHTER_MODES = ("full", "slow_only", "fast_only", "unweighted")


@dataclass(frozen=True)
class RollingConfig:
    """Everything a rolling evaluation run depends on.

    ``lam`` is the ridge coefficient, ``alpha`` the fraction of low
    frequencies retained, ``eta`` the weighter learning rate,
    ``fast_window`` the number of recent update steps the fast weighter
    sees, and ``warmup`` the number of update steps during which the
    combined output is forced to the base forecast. ``weighter_mode``
    selects the combination rule: the full fast/slow/merge mechanism, one
    of its halves, or a plain 0.5 average.
    """

    context_length: int = 520
    horizon: int = 96
    update_period: int = 200
    seasonality: int = 24
    lam: float = 20.0
    alpha: float = 0.9
    eta: float = 0.5
    fast_window: int = 5
    warmup: int = 5
    weighter_mode: str = "full"
    instance_norm: bool = True
    channel_scaling: bool = True
    shared_weights: bool = True

    def validate(self) -> "RollingConfig":
        if self.context_length < 2:
            raise InvalidConfig(f"context_length must be >= 2, got {self.context_length}")
        if self.horizon < 1:
            raise InvalidConfig(f"horizon must be >= 1, got {self.horizon}")
        if self.update_period < 1:
            raise InvalidConfig(f"update_period must be >= 1, got {self.update_period}")
        if not 1 <= self.seasonality < self.context_length:
            raise InvalidConfig(
                f"need 1 <= seasonality < context_length, got "
                f"({self.seasonality}, {self.context_length})"
            )
        if not 0 < self.lam < math.inf:
            raise InvalidConfig(f"lambda must be positive and finite, got {self.lam}")
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidConfig(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0 <= self.eta < math.inf:
            raise InvalidConfig(f"eta must be finite and >= 0, got {self.eta}")
        if self.fast_window < 1:
            raise InvalidConfig(f"fast_window must be >= 1, got {self.fast_window}")
        if self.warmup < 0:
            raise InvalidConfig(f"warmup must be >= 0, got {self.warmup}")
        if self.weighter_mode not in WEIGHTER_MODES:
            raise InvalidConfig(
                f"weighter_mode must be one of {WEIGHTER_MODES}, got {self.weighter_mode!r}"
            )
        return self
