"""Scaled forecast-error metrics.

Forecast errors are normalized by the error a seasonal-naive forecaster
makes on the context window, which makes values comparable across
channels whose scale drifts over time. The same block-averaged score
doubles as the loss signal for the weighters.

The denominator is floored at ``DENOMINATOR_FLOOR`` so block averages stay
defined on locally constant or perfectly periodic contexts.
:func:`mase` and :func:`rmsse` score one window.
:func:`seasonal_naive_denominators` gives both denominators of every
window of a series in one pass, and :func:`scaled_scores` scores a block
of windows against them and flags each window whose MAE denominator was
floored.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyBlock, InvalidSeasonality, ShapeMismatch

DENOMINATOR_FLOOR = 1e-8

def _check_seasonality(s, n: int) -> None:
    """Reject all but an integer season ``1 <= s < n``, ``n`` the window length."""
    if not isinstance(s, (int, np.integer)) or not 1 <= s < n:
        raise InvalidSeasonality(f"seasonality must be an integer in [1, {n}), got {s!r}")


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
    _check_seasonality(s, context.shape[0])
    return forecast, target, context


def seasonal_naive_mae(context, s: int) -> float:
    """Mean absolute seasonal difference of the context (unfloored)."""
    context = np.asarray(context, dtype=np.float64)
    _check_seasonality(s, context.shape[0])
    return float(np.mean(np.abs(context[s:] - context[:-s])))


def seasonal_naive_mse(context, s: int) -> float:
    """Mean squared seasonal difference of the context (unfloored)."""
    context = np.asarray(context, dtype=np.float64)
    _check_seasonality(s, context.shape[0])
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


def seasonal_naive_denominators(series, s: int, window: int):
    """Seasonal-naive MAE and MSE (unfloored) of every length-``window``
    window of ``series`` along its last axis: two ``(..., n - window + 1)``
    arrays whose entry ``j`` belongs to ``series[..., j:j + window]``.

    The seasonal differences are taken once over the whole series, and each
    window's means run over a length-``(window - s)`` sliding view of their
    absolute values and squares, so overlapping windows share one pass. Each
    value equals :func:`seasonal_naive_mae` or :func:`seasonal_naive_mse`
    of its window bit for bit: a view's windows are summed in the order of
    a contiguous copy's.
    """
    x = np.asarray(series, dtype=np.float64)
    _check_seasonality(s, window)
    if x.ndim == 0 or x.shape[-1] < window:
        raise ShapeMismatch(f"series of shape {x.shape} holds no window of length {window}")
    diff = x[..., s:] - x[..., :-s]
    return tuple(np.mean(sliding_window_view(f(diff), window - s, axis=-1), axis=-1)
                 for f in (np.abs, np.square))


def scaled_scores(forecasts, targets, naive_mae, naive_mse) -> WindowScores:
    """Scores of a ``(k, m, H)`` stack of forecast streams against ``(m,
    H)`` targets, given each window's unfloored seasonal-naive MAE and MSE
    as ``(m,)`` arrays (see :func:`seasonal_naive_denominators`). The
    denominators are floored here, and ``floored`` flags the MAE's floor.

    Each mean over the horizon is ``np.mean``'s own sum-then-divide
    (``np.add.reduce``, then ``/= H`` in place), the same bits without its
    wrapper's per-call cost, and the errors are squared in place, so the
    stack costs two temporaries of its size: the errors and their
    absolute values.
    """
    forecasts, targets, naive_mae, naive_mse = (
        np.asarray(a, dtype=np.float64) for a in (forecasts, targets, naive_mae, naive_mse))
    if forecasts.ndim != 3 or forecasts.shape[1] == 0:
        raise EmptyBlock("block must contain at least one window")
    m = forecasts.shape[1]
    if targets.shape != forecasts.shape[1:] or naive_mae.shape != (m,) or naive_mse.shape != (m,):
        raise ShapeMismatch(f"inconsistent block shapes: {forecasts.shape}, {targets.shape}, "
                            f"denominators {naive_mae.shape} and {naive_mse.shape}")
    H = forecasts.shape[2]
    errors = forecasts - targets
    mae = np.add.reduce(np.abs(errors), axis=-1)
    mae /= H
    mse = np.add.reduce(np.square(errors, out=errors), axis=-1)
    mse /= H
    mae /= np.maximum(naive_mae, DENOMINATOR_FLOOR)
    mse /= np.maximum(naive_mse, DENOMINATOR_FLOOR)
    return WindowScores(mae, np.sqrt(mse, out=mse), naive_mae < DENOMINATOR_FLOOR)


def block_average_mase(forecasts, targets, contexts, s: int) -> float:
    """Arithmetic mean of per-window MASE over one update block.

    Parameters
    ----------
    forecasts, targets : (m, H) arrays, one row per window
    contexts : (m, L) array of the matching context windows
    """
    contexts = np.asarray(contexts, dtype=np.float64)
    if contexts.ndim != 2:
        raise ShapeMismatch(f"contexts must be (m, L), got shape {contexts.shape}")
    naive_mae, naive_mse = seasonal_naive_denominators(contexts, s, contexts.shape[1])
    stack = np.asarray(forecasts, dtype=np.float64)[None]
    return float(np.mean(scaled_scores(stack, targets, naive_mae[:, 0], naive_mse[:, 0]).mase[0]))
