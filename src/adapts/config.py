"""Run configuration for the rolling-window harness."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig

WEIGHTER_MODES = ("full", "slow_only", "fast_only", "unweighted")
# each integer setting and its least value; seasonality is also below context_length
COUNTS = {"context_length": 2, "horizon": 1, "update_period": 1, "seasonality": 1,
          "fast_window": 1, "warmup": 0}
FLAGS = ("instance_norm", "channel_scaling", "shared_weights")


def check_count(name: str, value, low: int) -> None:
    """Raise InvalidConfig unless ``value`` is an integer (``int`` or
    ``np.integer``, not ``bool``) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise InvalidConfig(f"{name} must be >= {low}, got {value}")


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

    def __post_init__(self):
        # numpy scalars become Python ones, which a weighter's window and
        # the report's JSON config echo take
        for name in (*COUNTS, *FLAGS):
            value = getattr(self, name)
            if isinstance(value, (np.integer, np.bool_)):
                object.__setattr__(self, name, value.item())

    def validate(self) -> "RollingConfig":
        for name, low in COUNTS.items():
            check_count(name, getattr(self, name), low)
        for name in FLAGS:
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise InvalidConfig(f"{name} must be a boolean, got {value!r}")
        if self.seasonality >= self.context_length:
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
        if self.weighter_mode not in WEIGHTER_MODES:
            raise InvalidConfig(
                f"weighter_mode must be one of {WEIGHTER_MODES}, got {self.weighter_mode!r}"
            )
        return self
