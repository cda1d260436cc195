"""Scaled forecast-error metrics.

Forecast errors are normalized by the error a seasonal-naive forecaster
makes on the context window, which makes values comparable across
channels whose scale drifts over time. The same block-averaged score
doubles as the loss signal for the weighters.

The denominator is floored at ``DENOMINATOR_FLOOR`` so block averages stay
defined on locally constant or perfectly periodic contexts; callers that
care can test :func:`seasonal_naive_mae` against the floor and flag the
window, as :func:`score_windows` does for a whole block.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import EmptyBlock, InvalidSeasonality, ShapeMismatch

DENOMINATOR_FLOOR = 1e-8

# seasonal periods conventionally paired with the common benchmark sets
DATASET_SEASONALITY = {
    "etth1": 24,
    "etth2": 24,
    "ettm1": 96,
    "ettm2": 96,
    "us_weather": 24,
    "weather": 144,
    "solar": 24,
    "ecl": 24,
    "traffic": 24,
}


def default_seasonality(dataset_name: str) -> int:
    """Seasonal period for a known dataset name (case/space insensitive)."""
    key = dataset_name.strip().lower().replace(" ", "_").replace("-", "_")
    try:
        return DATASET_SEASONALITY[key]
    except KeyError:
        raise InvalidSeasonality(
            f"no default seasonality for {dataset_name!r}; known: "
            + ", ".join(sorted(DATASET_SEASONALITY))
        ) from None


def _check_inputs(forecast, target, context, s):
    forecast = np.asarray(forecast, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    context = np.asarray(context, dtype=np.float64)
    if forecast.shape != target.shape or forecast.ndim != 1:
        raise ShapeMismatch(
            f"forecast {forecast.shape} and target {target.shape} must be equal-length vectors"
        )
    if context.ndim != 1:
        raise ShapeMismatch(f"context must be a vector, got shape {context.shape}")
    if not isinstance(s, (int, np.integer)) or s < 1:
        raise InvalidSeasonality(f"seasonality must be a positive integer, got {s!r}")
    if s >= context.shape[0]:
        raise InvalidSeasonality(
            f"seasonality {s} must be smaller than the context length {context.shape[0]}"
        )
    return forecast, target, context


def seasonal_naive_mae(context, s: int) -> float:
    """Mean absolute seasonal difference of the context (unfloored)."""
    context = np.asarray(context, dtype=np.float64)
    if not isinstance(s, (int, np.integer)) or not 1 <= s < context.shape[0]:
        raise InvalidSeasonality(f"need 1 <= s < {context.shape[0]}, got {s!r}")
    return float(np.mean(np.abs(context[s:] - context[:-s])))


def seasonal_naive_mse(context, s: int) -> float:
    """Mean squared seasonal difference of the context (unfloored)."""
    context = np.asarray(context, dtype=np.float64)
    if not isinstance(s, (int, np.integer)) or not 1 <= s < context.shape[0]:
        raise InvalidSeasonality(f"need 1 <= s < {context.shape[0]}, got {s!r}")
    return float(np.mean(np.square(context[s:] - context[:-s])))


def mase(forecast, target, context, s: int) -> float:
    """Mean absolute error scaled by the context's seasonal-naive error."""
    forecast, target, context = _check_inputs(forecast, target, context, s)
    numerator = float(np.mean(np.abs(forecast - target)))
    return numerator / max(seasonal_naive_mae(context, s), DENOMINATOR_FLOOR)


def rmsse(forecast, target, context, s: int) -> float:
    """Root mean squared error scaled by the seasonal-naive RMSE."""
    forecast, target, context = _check_inputs(forecast, target, context, s)
    numerator = float(np.mean(np.square(forecast - target)))
    return float(np.sqrt(numerator / max(seasonal_naive_mse(context, s), DENOMINATOR_FLOOR)))


class WindowScores(NamedTuple):
    """Per-window scores of a stack of forecast streams over one block.

    ``mase`` and ``rmsse`` are ``(k, m)``, and ``floored`` is ``(m,)``:
    whether the window's unfloored seasonal-naive MAE lies below
    ``DENOMINATOR_FLOOR``.
    """

    mase: np.ndarray
    rmsse: np.ndarray
    floored: np.ndarray


def score_windows(forecasts, targets, contexts, s: int) -> WindowScores:
    """Array form of :func:`mase` and :func:`rmsse` over a block of windows.

    Each window's seasonal-naive denominators are computed once and shared
    by every stream. Row by row the values equal the scalar functions
    exactly: every mean runs over a contiguous last axis, as it does there.

    Parameters
    ----------
    forecasts : (k, m, H) array, one stack of m window forecasts per stream
    targets : (m, H) array
    contexts : (m, L) array of the matching context windows
    """
    forecasts = np.asarray(forecasts, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    contexts = np.asarray(contexts, dtype=np.float64)
    if forecasts.ndim != 3 or forecasts.shape[1] == 0:
        raise EmptyBlock("block must contain at least one window")
    k, m, _ = forecasts.shape
    if (targets.shape != forecasts.shape[1:] or contexts.ndim != 2
            or contexts.shape[0] != m):
        raise ShapeMismatch(
            f"inconsistent block shapes: {forecasts.shape}, {targets.shape}, {contexts.shape}"
        )
    if not isinstance(s, (int, np.integer)) or not 1 <= s < contexts.shape[1]:
        raise InvalidSeasonality(f"need 1 <= s < {contexts.shape[1]}, got {s!r}")
    diff = contexts[:, s:] - contexts[:, :-s]
    naive_mae = np.mean(np.abs(diff), axis=-1)
    naive_mse = np.mean(np.square(diff), axis=-1)
    errors = forecasts - targets
    mase_rows = np.mean(np.abs(errors), axis=-1) / np.maximum(naive_mae, DENOMINATOR_FLOOR)
    rmsse_rows = np.sqrt(np.mean(np.square(errors), axis=-1)
                         / np.maximum(naive_mse, DENOMINATOR_FLOOR))
    return WindowScores(mase_rows, rmsse_rows, naive_mae < DENOMINATOR_FLOOR)


def block_average_mase(forecasts, targets, contexts, s: int) -> float:
    """Arithmetic mean of per-window MASE over one update block.

    Parameters
    ----------
    forecasts, targets : (m, H) arrays, one row per window
    contexts : (m, L) array of the matching context windows
    """
    stack = np.asarray(forecasts, dtype=np.float64)[None]
    return float(np.mean(score_windows(stack, targets, contexts, s).mase[0]))
