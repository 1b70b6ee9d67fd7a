"""Exponential-smoothing forecasters: Holt-Winters family and Theta.

Classical strong baselines beyond the paper's competitor list, implemented
from scratch:

* :class:`SimpleExponentialSmoothing` — level only;
* :class:`HoltLinear` — level + (optionally damped) trend;
* :class:`HoltWinters` — level + trend + additive seasonality;
* :class:`Theta` — the M3-winning theta method in its standard
  decomposition: SES on the theta=2 line plus half the linear-trend drift.

All smoothing parameters are fit by minimising the in-sample one-step sum
of squared errors with L-BFGS-B over the open unit box, which matches how
the reference implementations behave on these small series.

:func:`estimate_period` (autocorrelation-peak seasonality detection) lives
in :mod:`repro.decomposition.period` and is re-exported here because the
Holt-Winters path is its main consumer.
"""

from __future__ import annotations

import numpy as np

from repro.core.estimator import BaseEstimator
from repro.decomposition.period import estimate_period
from repro.exceptions import FittingError

__all__ = [
    "SimpleExponentialSmoothing",
    "HoltLinear",
    "HoltWinters",
    "Theta",
    "estimate_period",
]


def _minimise_on_unit_box(objective, x0: list[float]) -> np.ndarray:
    """Minimise ``objective`` with L-BFGS-B, each parameter in ``[1e-4, 1]``."""
    from scipy import optimize

    bounds = [(1e-4, 1.0)] * len(x0)
    return optimize.minimize(objective, np.array(x0), bounds=bounds, method="L-BFGS-B").x


def _validated_series(x: np.ndarray, minimum: int) -> np.ndarray:
    series = np.asarray(x, dtype=float)
    if series.ndim != 1:
        raise FittingError(f"expected a 1-D series, got shape {series.shape}")
    if series.size < minimum:
        raise FittingError(
            f"series of {series.size} points too short (need >= {minimum})"
        )
    if not np.isfinite(series).all():
        raise FittingError("training series contains NaN or inf")
    return series


class SimpleExponentialSmoothing(BaseEstimator):
    """SES: ``level_t = alpha * y_t + (1 - alpha) * level_{t-1}``.

    ``alpha=None`` (default) fits the smoothing constant by SSE.
    ``alpha`` is keyword-only under the Estimator API.
    """

    _TEST_PARAMS = ({}, {"alpha": 0.5})

    def __init__(self, *, alpha: float | None = None) -> None:
        if alpha is not None and not 0.0 < alpha <= 1.0:
            raise FittingError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._level: float | None = None
        self._fitted_alpha: float | None = None

    @staticmethod
    def _sse(alpha: float, y: np.ndarray) -> float:
        level = y[0]
        sse = 0.0
        for value in y[1:]:
            sse += (value - level) ** 2
            level = alpha * value + (1.0 - alpha) * level
        return sse

    def fit(self, x: np.ndarray) -> "SimpleExponentialSmoothing":
        """Estimate the level (and alpha, when not fixed) from the series."""
        y = _validated_series(x, 3)
        if self.alpha is None:
            from scipy import optimize

            result = optimize.minimize_scalar(
                lambda a: self._sse(a, y), bounds=(1e-4, 1.0), method="bounded"
            )
            self._fitted_alpha = float(result.x)
        else:
            self._fitted_alpha = self.alpha
        level = y[0]
        for value in y[1:]:
            level = self._fitted_alpha * value + (1.0 - self._fitted_alpha) * level
        self._level = float(level)
        return self

    @property
    def fitted_alpha(self) -> float:
        if self._fitted_alpha is None:
            raise FittingError("SimpleExponentialSmoothing used before fit()")
        return self._fitted_alpha

    def forecast(self, horizon: int) -> np.ndarray:
        """Flat forecast at the fitted level."""
        if self._level is None:
            raise FittingError("SimpleExponentialSmoothing used before fit()")
        if horizon < 1:
            raise FittingError(f"horizon must be >= 1, got {horizon}")
        return np.full(horizon, self._level)


class HoltLinear(BaseEstimator):
    """Holt's linear trend method, optionally damped.

    State equations (phi = 1 gives the classic undamped form)::

        level_t = alpha * y_t + (1 - alpha) * (level + phi * trend)
        trend_t = beta * (level_t - level) + (1 - beta) * phi * trend
        yhat_{t+h} = level + (phi + ... + phi^h) * trend

    ``damping`` is keyword-only under the Estimator API.
    """

    _TEST_PARAMS = ({}, {"damping": 0.9})

    def __init__(self, *, damping: float = 1.0) -> None:
        if not 0.0 < damping <= 1.0:
            raise FittingError(f"damping must be in (0, 1], got {damping}")
        self.damping = damping
        self._state: tuple[float, float] | None = None
        self.params: dict[str, float] = {}

    def _run(self, y: np.ndarray, alpha: float, beta: float) -> tuple[float, float, float]:
        phi = self.damping
        level = y[0]
        trend = y[1] - y[0]
        sse = 0.0
        for value in y[1:]:
            prediction = level + phi * trend
            sse += (value - prediction) ** 2
            new_level = alpha * value + (1.0 - alpha) * prediction
            trend = beta * (new_level - level) + (1.0 - beta) * phi * trend
            level = new_level
        return level, trend, sse

    def fit(self, x: np.ndarray) -> "HoltLinear":
        """Fit the smoothing constants by one-step SSE minimisation."""
        y = _validated_series(x, 4)

        def objective(params: np.ndarray) -> float:
            return self._run(y, params[0], params[1])[2]

        alpha, beta = _minimise_on_unit_box(objective, [0.5, 0.1])
        level, trend, _ = self._run(y, alpha, beta)
        self._state = (level, trend)
        self.params = {"alpha": float(alpha), "beta": float(beta)}
        return self

    def forecast(self, horizon: int) -> np.ndarray:
        """Extrapolate the (damped) trend for ``horizon`` steps."""
        if self._state is None:
            raise FittingError("HoltLinear used before fit()")
        if horizon < 1:
            raise FittingError(f"horizon must be >= 1, got {horizon}")
        level, trend = self._state
        phi = self.damping
        damping_sums = np.cumsum(phi ** np.arange(1, horizon + 1))
        return level + damping_sums * trend


class HoltWinters(BaseEstimator):
    """Additive Holt-Winters: level + trend + seasonal components.

    Parameters
    ----------
    period:
        Season length (must divide into at least two full seasons of
        data).  Keyword-only under the Estimator API.
    """

    _TEST_PARAMS = ({"period": 4},)

    def __init__(self, *, period: int) -> None:
        if period < 2:
            raise FittingError(f"period must be >= 2, got {period}")
        self.period = period
        self._state: tuple[float, float, np.ndarray] | None = None
        self.params: dict[str, float] = {}

    def _initial_state(self, y: np.ndarray) -> tuple[float, float, np.ndarray]:
        m = self.period
        first_season = y[:m]
        second_season = y[m : 2 * m]
        level = float(first_season.mean())
        trend = float((second_season.mean() - first_season.mean()) / m)
        seasonal = first_season - level
        return level, trend, seasonal.copy()

    def _run(
        self, y: np.ndarray, alpha: float, beta: float, gamma: float
    ) -> tuple[float, float, np.ndarray, float]:
        m = self.period
        level, trend, seasonal = self._initial_state(y)
        sse = 0.0
        for t in range(m, y.size):
            s_index = t % m
            prediction = level + trend + seasonal[s_index]
            error = y[t] - prediction
            sse += error**2
            new_level = alpha * (y[t] - seasonal[s_index]) + (1 - alpha) * (level + trend)
            trend = beta * (new_level - level) + (1 - beta) * trend
            seasonal[s_index] = gamma * (y[t] - new_level) + (1 - gamma) * seasonal[s_index]
            level = new_level
        return level, trend, seasonal, sse

    def fit(self, x: np.ndarray) -> "HoltWinters":
        """Fit level/trend/seasonal smoothing by one-step SSE minimisation."""
        y = _validated_series(x, 2 * self.period + 1)

        def objective(params: np.ndarray) -> float:
            return self._run(y, *params)[3]

        alpha, beta, gamma = _minimise_on_unit_box(objective, [0.3, 0.05, 0.1])
        level, trend, seasonal, _ = self._run(y, alpha, beta, gamma)
        self._state = (level, trend, seasonal)
        self._nobs = y.size
        self.params = {
            "alpha": float(alpha),
            "beta": float(beta),
            "gamma": float(gamma),
        }
        return self

    def forecast(self, horizon: int) -> np.ndarray:
        """Level + trend + periodic seasonal forecast."""
        if self._state is None:
            raise FittingError("HoltWinters used before fit()")
        if horizon < 1:
            raise FittingError(f"horizon must be >= 1, got {horizon}")
        level, trend, seasonal = self._state
        m = self.period
        steps = np.arange(1, horizon + 1)
        indices = (self._nobs + steps - 1) % m
        return level + steps * trend + seasonal[indices]


class Theta(BaseEstimator):
    """The standard two-line theta method (Assimakopoulos & Nikolopoulos).

    Decomposition: the theta=0 line is the linear regression on time (pure
    drift); the theta=2 line doubles the local curvature and is forecast
    with SES.  The final forecast averages the SES forecast of the theta=2
    line with the extrapolated drift line, which dampens the drift to about
    half the fitted slope — the classic M3 behaviour.
    """

    def __init__(self) -> None:
        self._ses: SimpleExponentialSmoothing | None = None
        self._slope = 0.0
        self._intercept = 0.0
        self._nobs = 0

    def fit(self, x: np.ndarray) -> "Theta":
        """Fit the drift line and the SES model of the theta=2 line."""
        y = _validated_series(x, 4)
        t = np.arange(y.size, dtype=float)
        self._slope, self._intercept = np.polyfit(t, y, 1)
        theta2 = 2.0 * y - (self._intercept + self._slope * t)
        self._ses = SimpleExponentialSmoothing().fit(theta2)
        self._nobs = y.size
        return self

    def forecast(self, horizon: int) -> np.ndarray:
        """Average of the SES(theta=2) forecast and the drift line."""
        if self._ses is None:
            raise FittingError("Theta used before fit()")
        if horizon < 1:
            raise FittingError(f"horizon must be >= 1, got {horizon}")
        steps = np.arange(self._nobs, self._nobs + horizon, dtype=float)
        drift_line = self._intercept + self._slope * steps
        theta2_forecast = self._ses.forecast(horizon)
        return 0.5 * (theta2_forecast + drift_line)
