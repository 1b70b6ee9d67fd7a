"""repro: a full reproduction of MultiCast (ICDE 2024).

Zero-shot multivariate time series forecasting with (simulated) LLMs:
dimensional multiplexing (DI / VI / VC), SAX quantization, an in-context
language-model substrate, and the paper's baselines (LLMTime, ARIMA, LSTM).

Quickstart::

    from repro import ForecastSpec, MultiCastForecaster
    from repro.data import gas_rate

    history, future = gas_rate().train_test_split()
    spec = ForecastSpec(series=history, horizon=len(future), scheme="vi")
    output = MultiCastForecaster().forecast(spec)

The headline API is re-exported here; the subpackages hold the full
surface (see docs/API.md for the map).
"""

from repro.adapters import ForecastingHorizon
from repro.adapters import MultiCastForecaster as MultiCastEstimator
from repro.baselines import available_estimators, make_estimator
from repro.core import (
    PROMPT_STRATEGIES,
    BaseEstimator,
    Estimator,
    ForecastOutput,
    ForecastSpec,
    MultiCastConfig,
    MultiCastForecaster,
    SaxConfig,
    plan_forecast,
)
from repro.exceptions import (
    ConfigError,
    DataError,
    EncodingError,
    FittingError,
    GenerationError,
    ReproError,
    ScalingError,
)
from repro.observability import RunLedger, Tracer
from repro.serving import ForecastEngine, ForecastRequest, ForecastResponse
from repro.strategies import PromptStrategy
from repro.sweeps import SweepReport, SweepRunner, SweepSpec

__version__ = "1.3.0"

__all__ = [
    "ForecastSpec",
    "Estimator",
    "BaseEstimator",
    "MultiCastEstimator",
    "ForecastingHorizon",
    "make_estimator",
    "available_estimators",
    "SweepSpec",
    "SweepRunner",
    "SweepReport",
    "MultiCastConfig",
    "MultiCastForecaster",
    "SaxConfig",
    "ForecastOutput",
    "PromptStrategy",
    "PROMPT_STRATEGIES",
    "ForecastEngine",
    "ForecastRequest",
    "ForecastResponse",
    "Tracer",
    "RunLedger",
    "plan_forecast",
    "ReproError",
    "ConfigError",
    "DataError",
    "EncodingError",
    "FittingError",
    "GenerationError",
    "ScalingError",
    "__version__",
]
