"""MultiCast core: multiplexers, configuration, and the forecaster."""

from repro.core.aggregation import AGGREGATION_METHODS, aggregate_samples
from repro.core.config import PROMPT_STRATEGIES, MultiCastConfig, SaxConfig
from repro.core.estimator import (
    BaseEstimator,
    Estimator,
    PerDimension,
    positional_shim,
)
from repro.core.forecaster import MultiCastForecaster
from repro.core.multiplex import (
    MULTIPLEX_SCHEMES,
    BlockInterleaver,
    DigitInterleaver,
    Multiplexer,
    SaxSymbolCodec,
    ValueConcatenator,
    ValueInterleaver,
    get_multiplexer,
)
from repro.core.output import ForecastOutput
from repro.core.planning import ForecastPlan, plan_forecast
from repro.core.spec import ForecastSpec, canonicalize_sampling_options
from repro.core.timing import STAGES, StageClock

__all__ = [
    "MultiCastConfig",
    "SaxConfig",
    "ForecastSpec",
    "PROMPT_STRATEGIES",
    "canonicalize_sampling_options",
    "Estimator",
    "BaseEstimator",
    "PerDimension",
    "positional_shim",
    "MultiCastForecaster",
    "StageClock",
    "STAGES",
    "ForecastOutput",
    "ForecastPlan",
    "plan_forecast",
    "Multiplexer",
    "DigitInterleaver",
    "ValueInterleaver",
    "ValueConcatenator",
    "BlockInterleaver",
    "SaxSymbolCodec",
    "get_multiplexer",
    "MULTIPLEX_SCHEMES",
    "aggregate_samples",
    "AGGREGATION_METHODS",
]
