"""The paper's competitor methods (Section IV-A3).

* :class:`~repro.baselines.arima.ARIMA` — Box-Jenkins ARIMA implemented from
  scratch (differencing, Hannan-Rissanen initialisation, conditional
  sum-of-squares refinement) with AIC-based order selection;
* :class:`~repro.baselines.lstm.LSTMForecaster` — a from-scratch numpy LSTM
  (full BPTT) using the paper's grid-searched configuration: one hidden layer
  of 128 units, dropout 0.2, 30 epochs, Adam, MSE loss;
* :class:`~repro.baselines.llmtime.LLMTime` — the zero-shot univariate LLM
  forecaster (Gruver et al., NeurIPS 2023) applied per dimension, sharing the
  exact scaling/tokenization/generation machinery with MultiCast;
* :mod:`~repro.baselines.naive` — naive, seasonal-naive, and drift reference
  forecasters used by tests and sanity benches.

Every baseline implements the common
:class:`~repro.core.estimator.Estimator` protocol
(``fit``/``predict``/``get_params``/``set_params``), so the sweep runner
(:mod:`repro.sweeps`) and the adapters treat them uniformly.
:func:`make_estimator` builds any of them by registry name, wrapping
univariate models in :class:`~repro.core.estimator.PerDimension` so each
accepts ``(n, d)`` input.  ARIMA and exponential smoothing import SciPy
inside their fits, so importing this package does not load SciPy.
"""

from repro.baselines.arima import ARIMA, auto_arima, kpss_statistic
from repro.baselines.exponential import (
    HoltLinear,
    HoltWinters,
    SimpleExponentialSmoothing,
    Theta,
    estimate_period,
)
from repro.baselines.llmtime import LLMTime, LLMTimeConfig
from repro.baselines.lstm import LSTMForecaster, LSTMNetwork
from repro.baselines.gru import GRUForecaster, GRUNetwork
from repro.baselines.var import VAR, auto_var
from repro.baselines.naive import (
    DriftForecaster,
    NaiveForecaster,
    SeasonalNaiveForecaster,
    drift_forecast,
    naive_forecast,
    seasonal_naive_forecast,
)
from repro.core.estimator import PerDimension
from repro.exceptions import ConfigError

__all__ = [
    "ARIMA",
    "auto_arima",
    "kpss_statistic",
    "LLMTime",
    "LLMTimeConfig",
    "LSTMForecaster",
    "LSTMNetwork",
    "GRUForecaster",
    "GRUNetwork",
    "SimpleExponentialSmoothing",
    "HoltLinear",
    "HoltWinters",
    "Theta",
    "estimate_period",
    "VAR",
    "auto_var",
    "naive_forecast",
    "seasonal_naive_forecast",
    "drift_forecast",
    "NaiveForecaster",
    "SeasonalNaiveForecaster",
    "DriftForecaster",
    "make_estimator",
    "available_estimators",
    "estimator_param_names",
]

#: Registry name -> (class, needs-PerDimension-wrapping).  Univariate
#: models are lifted to ``(n, d)`` input so every entry is multivariate.
_ESTIMATORS = {
    "arima": (ARIMA, True),
    "ses": (SimpleExponentialSmoothing, True),
    "holt": (HoltLinear, True),
    "holt-winters": (HoltWinters, True),
    "theta": (Theta, True),
    "lstm": (LSTMForecaster, False),
    "gru": (GRUForecaster, False),
    "var": (VAR, False),
    "llmtime": (LLMTime, False),
    "naive": (NaiveForecaster, False),
    "seasonal-naive": (SeasonalNaiveForecaster, False),
    "drift": (DriftForecaster, False),
}


def available_estimators() -> list[str]:
    """Registered estimator names, sorted."""
    return sorted(_ESTIMATORS)


def estimator_param_names(name: str) -> tuple[str, ...]:
    """The canonical constructor parameter names of a registered estimator."""
    cls, _ = _lookup(name)
    return tuple(sorted(cls._param_names()))


def _lookup(name: str):
    try:
        return _ESTIMATORS[name]
    except KeyError:
        known = ", ".join(available_estimators())
        raise ConfigError(
            f"unknown estimator {name!r}; available: {known}"
        ) from None


def make_estimator(name: str, **params):
    """Build a registered estimator from a flat parameter dict.

    Univariate models (``arima``, ``ses``, ``holt``, ``holt-winters``,
    ``theta``) come back wrapped in
    :class:`~repro.core.estimator.PerDimension`, so every returned object
    fits ``(n, d)`` input and predicts ``(horizon, d)``.  Unknown names
    and unknown parameters raise :class:`~repro.exceptions.ConfigError`.
    """
    cls, per_dimension = _lookup(name)
    known = cls._param_names()
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ConfigError(
            f"estimator {name!r} got unknown parameters {unknown}; "
            f"valid parameters are {sorted(known)}"
        )
    estimator = cls(**params)
    return PerDimension(estimator) if per_dimension else estimator
