"""Experiment protocol and method registry.

Every competitor from the paper's Section IV-A3 is registered under a name:

========================  ====================================================
``multicast-di/vi/vc``    MultiCast with the given multiplexing scheme
``multicast-bi``          the block-interleaving extension
``llmtime``               LLMTime applied per dimension
``arima``                 auto-order ARIMA per dimension
``lstm``                  the paper's grid-searched LSTM (128 units, 30 epochs)
``naive``/``drift``       reference forecasters
========================  ====================================================

:func:`run_method` produces the raw forecast; :func:`evaluate_method` adds
per-dimension RMSE against the held-out tail — one cell of Tables IV-VI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.baselines import (
    GRUForecaster,
    HoltWinters,
    LLMTime,
    LSTMForecaster,
    Theta,
    auto_arima,
    auto_var,
    drift_forecast,
    estimate_period,
    naive_forecast,
    seasonal_naive_forecast,
)
from repro.core import (
    ForecastSpec,
    MultiCastConfig,
    MultiCastForecaster,
    SaxConfig,
)
from repro.core.spec import canonicalize_sampling_options
from repro.data import Dataset
from repro.exceptions import ConfigError
from repro.metrics import rmse

__all__ = ["EvalResult", "run_method", "evaluate_method", "available_methods"]

DEFAULT_TEST_FRACTION = 0.2


@dataclass
class EvalResult:
    """One (method, dataset) evaluation: forecasts, errors, and accounting."""

    method: str
    dataset: str
    dim_names: tuple[str, ...]
    forecast: np.ndarray
    actual: np.ndarray
    rmse_per_dim: dict[str, float]
    wall_seconds: float
    simulated_seconds: float = 0.0
    prompt_tokens: int = 0
    generated_tokens: int = 0
    metadata: dict = field(default_factory=dict)

    @property
    def reported_seconds(self) -> float:
        """What the paper's time rows report: simulated seconds for LLM
        methods (token-count arithmetic), wall time otherwise."""
        return self.simulated_seconds if self.simulated_seconds > 0 else self.wall_seconds


def _multicast_forecast(scheme):
    def run(history, horizon, seed, **options):
        options = canonicalize_sampling_options(
            options, context=f"run_method('multicast-{scheme}')"
        )
        sax_options = options.pop("sax", None)
        state_cache = options.pop("state_cache", None)
        sax = SaxConfig(**sax_options) if isinstance(sax_options, dict) else sax_options
        config = MultiCastConfig(scheme=scheme, sax=sax, seed=seed, **options)
        spec = ForecastSpec.from_config(config, series=history, horizon=horizon)
        return MultiCastForecaster(state_cache=state_cache).forecast(spec)

    return run


def _llmtime_forecast(history, horizon, seed, **options):
    options = canonicalize_sampling_options(
        options, context="run_method('llmtime')"
    )
    return LLMTime(seed=seed, **options).forecast(history, horizon)


def _arima_forecast(history, horizon, seed, **options):
    del seed  # deterministic
    columns = [
        auto_arima(history[:, k], **options).forecast(horizon)
        for k in range(history.shape[1])
    ]
    return np.stack(columns, axis=1)


def _gru_forecast(history, horizon, seed, **options):
    """GRU extension baseline (same protocol as the LSTM)."""
    model = GRUForecaster(seed=seed, **options).fit(history)
    return model.forecast(horizon)


def _var_forecast(history, horizon, seed, **options):
    """Vector autoregression: the classical multivariate comparator."""
    del seed  # deterministic
    return auto_var(history, **options).forecast(horizon)


def _lstm_forecast(history, horizon, seed, **options):
    model = LSTMForecaster(seed=seed, **options).fit(history)
    return model.forecast(horizon)


def _holt_winters_forecast(history, horizon, seed, **options):
    """Additive Holt-Winters per dimension; the period is auto-detected
    from the autocorrelation peak unless passed as an option."""
    del seed  # deterministic
    period = options.pop("period", None)
    columns = []
    for k in range(history.shape[1]):
        series = history[:, k]
        p = estimate_period(series) if period is None else period
        if p >= 2 and series.size >= 2 * p + 1:
            columns.append(HoltWinters(period=p, **options).fit(series).forecast(horizon))
        else:
            columns.append(Theta().fit(series).forecast(horizon))
    return np.stack(columns, axis=1)


def _theta_forecast(history, horizon, seed, **options):
    del seed, options  # deterministic, no options
    columns = [
        Theta().fit(history[:, k]).forecast(horizon)
        for k in range(history.shape[1])
    ]
    return np.stack(columns, axis=1)


def _seasonal_naive(history, horizon, seed, **options):
    """Seasonal naive per dimension with an auto-detected (or given) period."""
    del seed
    period = options.pop("period", None)
    columns = []
    for k in range(history.shape[1]):
        p = estimate_period(history[:, k]) if period is None else period
        p = max(1, min(p, history.shape[0]))
        columns.append(
            seasonal_naive_forecast(history[:, k : k + 1], horizon, p)[:, 0]
        )
    return np.stack(columns, axis=1)


def _naive(history, horizon, seed, **options):
    del seed, options
    return naive_forecast(history, horizon)


def _drift(history, horizon, seed, **options):
    del seed, options
    return drift_forecast(history, horizon)


_METHODS = {
    "multicast-di": _multicast_forecast("di"),
    "multicast-vi": _multicast_forecast("vi"),
    "multicast-vc": _multicast_forecast("vc"),
    "multicast-bi": _multicast_forecast("bi"),
    "llmtime": _llmtime_forecast,
    "arima": _arima_forecast,
    "lstm": _lstm_forecast,
    "var": _var_forecast,
    "gru": _gru_forecast,
    "holt-winters": _holt_winters_forecast,
    "theta": _theta_forecast,
    "naive": _naive,
    "seasonal-naive": _seasonal_naive,
    "drift": _drift,
}


def available_methods() -> list[str]:
    """Registered method names, paper competitors first."""
    return list(_METHODS)


def run_method(
    method: str,
    history: np.ndarray,
    horizon: int,
    seed: int = 0,
    **options,
):
    """Run one registered method; returns its native forecast object.

    LLM methods return a :class:`~repro.core.output.ForecastOutput`; the
    classical baselines return a plain ``(horizon, d)`` array.
    """
    try:
        runner = _METHODS[method]
    except KeyError:
        known = ", ".join(_METHODS)
        raise ConfigError(f"unknown method {method!r}; available: {known}") from None
    return runner(history, horizon, seed, **options)


def evaluate_method(
    method: str,
    dataset: Dataset,
    test_fraction: float = DEFAULT_TEST_FRACTION,
    seed: int = 0,
    **options,
) -> EvalResult:
    """Hold out the trailing fraction, forecast it, and score per-dim RMSE."""
    history, actual = dataset.train_test_split(test_fraction)
    horizon = actual.shape[0]
    started = time.perf_counter()
    output = run_method(method, history, horizon, seed=seed, **options)
    wall = time.perf_counter() - started

    if isinstance(output, np.ndarray):
        forecast = output
        simulated = 0.0
        prompt_tokens = generated_tokens = 0
        metadata: dict = {}
    else:
        forecast = output.values
        simulated = output.simulated_seconds
        prompt_tokens = output.prompt_tokens
        generated_tokens = output.generated_tokens
        metadata = dict(output.metadata)

    errors = {
        name: rmse(actual[:, k], forecast[:, k])
        for k, name in enumerate(dataset.dim_names)
    }
    return EvalResult(
        method=method,
        dataset=dataset.name,
        dim_names=dataset.dim_names,
        forecast=forecast,
        actual=actual,
        rmse_per_dim=errors,
        wall_seconds=wall,
        simulated_seconds=simulated,
        prompt_tokens=prompt_tokens,
        generated_tokens=generated_tokens,
        metadata=metadata,
    )
