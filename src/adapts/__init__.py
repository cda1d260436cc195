"""Online adaptation of fixed forecasters.

The package turns any fixed base forecaster into an online-adaptive one:
a spectral ridge model is refit incrementally from streaming feedback and
its forecasts are blended with the base forecasts through per-channel
fast/slow exponential weighting, all evaluated in a rolling-window
protocol scored by MASE and RMSSE.
"""

from .config import RollingConfig, WEIGHTER_MODES
from .forecaster import (
    ChannelStats,
    OnlineForecaster,
    SamplePair,
    SpectralRidge,
    load_forecaster,
    save_forecaster,
)
from .harness import (
    BaseForecaster,
    ForecastBundle,
    HistoricalMeanBase,
    NaiveSeasonalBase,
    PrecomputedBase,
    RunReport,
    make_base_forecaster,
    run,
)
from .metrics import (
    block_average_mase,
    mase,
    rmsse,
)
from .spectral import (
    FilterSpec,
    Spectrum,
    filtered_bin_count,
    forward_rft,
    inverse_rft,
    lowpass,
    pad_spectrum,
)
from .weighter import ChannelWeighter, combine, exp_weight_step

__version__ = "0.1.0"

__all__ = [
    "BaseForecaster",
    "ChannelStats",
    "ChannelWeighter",
    "FilterSpec",
    "ForecastBundle",
    "HistoricalMeanBase",
    "NaiveSeasonalBase",
    "OnlineForecaster",
    "PrecomputedBase",
    "RollingConfig",
    "RunReport",
    "SamplePair",
    "SpectralRidge",
    "Spectrum",
    "WEIGHTER_MODES",
    "block_average_mase",
    "combine",
    "exp_weight_step",
    "filtered_bin_count",
    "forward_rft",
    "inverse_rft",
    "load_forecaster",
    "lowpass",
    "make_base_forecaster",
    "mase",
    "pad_spectrum",
    "rmsse",
    "run",
    "save_forecaster",
]
