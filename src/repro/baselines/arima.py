"""ARIMA from scratch.

ARIMA(p, d, q) models the ``d``-times differenced series ``y`` as

    y_t = c + sum_i phi_i y_{t-i} + sum_j theta_j e_{t-j} + e_t

The fitting pipeline is the classical one:

1. **Differencing** — apply ``d`` rounds of first differences;
2. **Hannan-Rissanen** — fit a long AR model by OLS to estimate innovations,
   then regress ``y_t`` on its own lags and the lagged innovation estimates
   to initialise ``(c, phi, theta)``;
3. **CSS refinement** — minimise the conditional sum of squared one-step
   errors with Nelder-Mead (scipy), starting from the Hannan-Rissanen
   estimates.  Pure AR models (q = 0) skip this step: OLS is already the
   CSS optimum.

Forecasting iterates the recursion with future innovations set to zero and
integrates the differences back.  :func:`auto_arima` picks ``d`` by variance
minimisation and ``(p, q)`` by AIC, which is how the paper's "no expert
knowledge" comparison is realised.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from repro.core.estimator import BaseEstimator
from repro.exceptions import FittingError

__all__ = ["ARIMA", "auto_arima", "difference", "undifference", "kpss_statistic"]

#: 5 % critical value of the KPSS level-stationarity statistic.
KPSS_CRITICAL_5PCT = 0.463


def kpss_statistic(x: np.ndarray, lags: int | None = None) -> float:
    """KPSS test statistic for level stationarity.

    Larger values reject stationarity.  Uses the Newey-West long-run
    variance with a Bartlett kernel; ``lags`` defaults to the conventional
    ``floor(4 * (n / 100) ** 0.25)``.  Compare against
    :data:`KPSS_CRITICAL_5PCT` (0.463) to decide whether to difference.
    """
    series = np.asarray(x, dtype=float)
    if series.ndim != 1 or series.size < 10:
        raise FittingError("kpss needs a 1-D series of at least 10 points")
    n = series.size
    residuals = series - series.mean()
    partial_sums = np.cumsum(residuals)
    if lags is None:
        lags = int(4 * (n / 100.0) ** 0.25)
    lags = min(lags, n - 1)
    long_run_variance = float(residuals @ residuals) / n
    for k in range(1, lags + 1):
        weight = 1.0 - k / (lags + 1.0)
        long_run_variance += 2.0 * weight * float(residuals[k:] @ residuals[:-k]) / n
    if long_run_variance <= 0:
        return 0.0
    return float(partial_sums @ partial_sums) / (n**2 * long_run_variance)


def difference(x: np.ndarray, d: int) -> np.ndarray:
    """Apply ``d`` rounds of first differencing."""
    if d < 0:
        raise FittingError(f"d must be >= 0, got {d}")
    y = np.asarray(x, dtype=float)
    for _ in range(d):
        if y.size < 2:
            raise FittingError("series too short to difference")
        y = np.diff(y)
    return y


def undifference(forecast: np.ndarray, history: np.ndarray, d: int) -> np.ndarray:
    """Integrate a forecast of the ``d``-differenced series back to levels.

    ``history`` is the *original* (undifferenced) series the model was fit
    on; its trailing values seed each integration level.
    """
    if d < 0:
        raise FittingError(f"d must be >= 0, got {d}")
    x = np.asarray(history, dtype=float)
    result = np.asarray(forecast, dtype=float)
    # Seed values: last value of each differencing level, innermost first.
    levels = [x]
    for _ in range(d):
        levels.append(np.diff(levels[-1]))
    for level in range(d - 1, -1, -1):
        result = levels[level][-1] + np.cumsum(result)
    return result


def _lagged_design(y: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix of ``p`` lags (plus intercept) and the aligned target."""
    n = y.size - p
    if n < p + 2:
        raise FittingError(
            f"series of length {y.size} too short for AR({p}) estimation"
        )
    columns = [np.ones(n)]
    for i in range(1, p + 1):
        columns.append(y[p - i : p - i + n])
    return np.stack(columns, axis=1), y[p:]


def _fit_ar_ols(y: np.ndarray, p: int) -> tuple[float, np.ndarray, np.ndarray]:
    """OLS AR(p) fit: returns (intercept, phi, residuals)."""
    if p == 0:
        c = float(y.mean())
        return c, np.empty(0), y - c
    design, target = _lagged_design(y, p)
    coefficients, *_ = np.linalg.lstsq(design, target, rcond=None)
    residuals = target - design @ coefficients
    return float(coefficients[0]), coefficients[1:], residuals


def _css_residuals(
    y: np.ndarray, c: float, phi: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """One-step conditional residuals with pre-sample values set to zero."""
    p, q = phi.size, theta.size
    n = y.size
    e = np.zeros(n)
    for t in range(n):
        prediction = c
        for i in range(1, min(p, t) + 1):
            prediction += phi[i - 1] * y[t - i]
        for j in range(1, min(q, t) + 1):
            prediction += theta[j - 1] * e[t - j]
        e[t] = y[t] - prediction
    return e


class ARIMA(BaseEstimator):
    """AutoRegressive Integrated Moving Average forecaster.

    Parameters
    ----------
    order:
        The classical ``(p, d, q)`` triple (keyword-only under the
        Estimator API).

    Call :meth:`fit` with a 1-D history, then :meth:`forecast` for point
    forecasts at any horizon.  After fitting, :attr:`aic` exposes the model
    selection criterion used by :func:`auto_arima`.
    """

    _TEST_PARAMS = ({"order": (1, 0, 0)},)

    def __init__(self, *, order: tuple[int, int, int] = (2, 0, 1)) -> None:
        p, d, q = order
        if min(p, d, q) < 0:
            raise FittingError(f"order components must be >= 0, got {order}")
        if p == 0 and q == 0 and d == 0:
            raise FittingError("ARIMA(0,0,0) has nothing to estimate")
        self.order = (int(p), int(d), int(q))
        self._history: np.ndarray | None = None
        self._c = 0.0
        self._phi = np.empty(0)
        self._theta = np.empty(0)
        self._sigma2 = 1.0
        self._nobs = 0

    # -- estimation ----------------------------------------------------------

    def fit(self, x: np.ndarray) -> "ARIMA":
        """Estimate the model from a 1-D training series (see module docs)."""
        series = np.asarray(x, dtype=float)
        if series.ndim != 1:
            raise FittingError(f"ARIMA expects a 1-D series, got shape {series.shape}")
        if not np.isfinite(series).all():
            raise FittingError("training series contains NaN or inf")
        p, d, q = self.order
        y = difference(series, d)
        if y.size < max(p, q) + max(8, p + q + 2):
            raise FittingError(
                f"series too short for ARIMA{self.order}: {series.size} points"
            )

        if q == 0:
            c, phi, residuals = _fit_ar_ols(y, p)
            theta = np.empty(0)
        else:
            c, phi, theta = self._hannan_rissanen(y, p, q)
            c, phi, theta = self._refine_css(y, c, phi, theta)
            residuals = _css_residuals(y, c, phi, theta)

        self._history = series
        self._c, self._phi, self._theta = c, phi, theta
        self._nobs = residuals.size
        self._sigma2 = float(np.mean(residuals**2))
        if not np.isfinite(self._sigma2) or self._sigma2 <= 0:
            self._sigma2 = 1e-12
        return self

    @staticmethod
    def _hannan_rissanen(
        y: np.ndarray, p: int, q: int
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Initial (c, phi, theta) via the two-stage Hannan-Rissanen method."""
        long_order = min(max(10, 2 * (p + q)), y.size // 2 - 2)
        if long_order < 1:
            raise FittingError("series too short for Hannan-Rissanen")
        _, _, innovations = _fit_ar_ols(y, long_order)
        # Align: innovations[t] estimates e_{t + long_order}.
        offset = long_order
        start = max(p, q)
        rows = []
        targets = []
        for t in range(offset + start, y.size):
            row = [1.0]
            row.extend(y[t - i] for i in range(1, p + 1))
            row.extend(innovations[t - offset - j] for j in range(1, q + 1))
            rows.append(row)
            targets.append(y[t])
        if len(rows) < p + q + 2:
            raise FittingError("series too short for Hannan-Rissanen regression")
        design = np.asarray(rows)
        target = np.asarray(targets)
        coefficients, *_ = np.linalg.lstsq(design, target, rcond=None)
        c = float(coefficients[0])
        phi = coefficients[1 : 1 + p]
        theta = coefficients[1 + p : 1 + p + q]
        return c, phi, theta

    @staticmethod
    def _refine_css(
        y: np.ndarray, c: float, phi: np.ndarray, theta: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Polish the estimates by minimising the conditional sum of squares."""
        p, q = phi.size, theta.size

        def unpack(params: np.ndarray):
            return float(params[0]), params[1 : 1 + p], params[1 + p :]

        def objective(params: np.ndarray) -> float:
            ci, phii, thetai = unpack(params)
            # Keep the optimiser away from wildly explosive regions.
            if np.abs(phii).sum() > 4.0 or np.abs(thetai).sum() > 4.0:
                return 1e12
            e = _css_residuals(y, ci, phii, thetai)
            sse = float(e @ e)
            return sse if np.isfinite(sse) else 1e12

        start = np.concatenate(([c], phi, theta))
        result = optimize.minimize(
            objective, start, method="Nelder-Mead",
            options={"maxiter": 500 * start.size, "xatol": 1e-6, "fatol": 1e-8},
        )
        best = result.x if result.fun <= objective(start) else start
        return unpack(best)

    # -- inference -----------------------------------------------------------

    def _require_fitted(self) -> None:
        if self._history is None:
            raise FittingError("ARIMA used before fit()")

    @property
    def params(self) -> dict[str, object]:
        """Fitted parameters: intercept, AR and MA coefficients, sigma^2."""
        self._require_fitted()
        return {
            "c": self._c,
            "phi": self._phi.copy(),
            "theta": self._theta.copy(),
            "sigma2": self._sigma2,
        }

    @property
    def aic(self) -> float:
        """Akaike information criterion under Gaussian innovations."""
        self._require_fitted()
        k = 1 + self._phi.size + self._theta.size + 1  # + sigma^2
        return self._nobs * float(np.log(self._sigma2)) + 2.0 * k

    def forecast(self, horizon: int) -> np.ndarray:
        """Point forecast for ``horizon`` steps past the end of the history."""
        self._require_fitted()
        if horizon < 1:
            raise FittingError(f"horizon must be >= 1, got {horizon}")
        p, d, q = self.order
        y = difference(self._history, d)
        e = _css_residuals(y, self._c, self._phi, self._theta)

        extended_y = list(y)
        extended_e = list(e)
        predictions = np.empty(horizon)
        for step in range(horizon):
            t = len(extended_y)
            value = self._c
            for i in range(1, p + 1):
                if t - i >= 0:
                    value += self._phi[i - 1] * extended_y[t - i]
            for j in range(1, q + 1):
                if t - j >= 0:
                    value += self._theta[j - 1] * extended_e[t - j]
            predictions[step] = value
            extended_y.append(value)
            extended_e.append(0.0)  # future innovations are zero in expectation
        return undifference(predictions, self._history, d)


def auto_arima(
    x: np.ndarray,
    max_p: int = 3,
    max_d: int = 2,
    max_q: int = 2,
) -> ARIMA:
    """Order selection: ``d`` by the KPSS stationarity test, ``(p, q)`` by AIC.

    The series is differenced while the KPSS statistic rejects level
    stationarity at 5 % (the standard ``ndiffs`` procedure — a variance
    heuristic over-differences AR processes with strong positive
    autocorrelation); then all ``(p, q)`` combinations at that ``d`` are fit
    and the lowest-AIC model wins.
    """
    series = np.asarray(x, dtype=float)
    if series.ndim != 1 or series.size < 20:
        raise FittingError("auto_arima needs a 1-D series of at least 20 points")

    d = 0
    current = series
    while d < max_d and kpss_statistic(current) > KPSS_CRITICAL_5PCT:
        current = np.diff(current)
        d += 1

    best: ARIMA | None = None
    best_aic = np.inf
    for p in range(max_p + 1):
        for q in range(max_q + 1):
            if p == 0 and q == 0 and d == 0:
                continue
            try:
                model = ARIMA(order=(p, d, q)).fit(series)
            except (FittingError, np.linalg.LinAlgError):
                continue
            if model.aic < best_aic:
                best, best_aic = model, model.aic
    if best is None:
        raise FittingError("auto_arima could not fit any candidate model")
    return best
