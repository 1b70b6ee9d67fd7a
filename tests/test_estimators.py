"""Tests for the common Estimator protocol across all baselines."""

import numpy as np
import pytest

from repro.baselines import (
    ARIMA,
    VAR,
    GRUForecaster,
    HoltWinters,
    LSTMForecaster,
    SimpleExponentialSmoothing,
    available_estimators,
    estimator_param_names,
    make_estimator,
)
from repro.core import Estimator, PerDimension
from repro.exceptions import ConfigError, FittingError

RNG = np.random.default_rng(7)
SERIES = np.cumsum(RNG.normal(size=(40, 2)), axis=0) + 25.0
UNIVARIATE = SERIES[:, 0]

#: Registry estimators that are cheap enough to fit in a unit test.
FAST_NAMES = [
    "arima", "ses", "holt", "holt-winters", "theta", "var",
    "naive", "seasonal-naive", "drift", "llmtime",
]

#: Params needed to make each estimator constructible/cheap in tests.
TEST_KWARGS = {
    "holt-winters": {"period": 4},
    "seasonal-naive": {"period": 4},
    "llmtime": {"num_samples": 1, "model": "uniform-sim"},
}


class TestProtocol:
    def test_registry_lists_every_baseline(self):
        names = available_estimators()
        assert names == sorted(names)
        for name in FAST_NAMES + ["lstm", "gru"]:
            assert name in names

    @pytest.mark.parametrize("name", FAST_NAMES)
    def test_registry_instances_satisfy_protocol(self, name):
        estimator = make_estimator(name, **TEST_KWARGS.get(name, {}))
        assert isinstance(estimator, Estimator)

    @pytest.mark.parametrize("name", FAST_NAMES)
    def test_fit_predict_shape(self, name):
        estimator = make_estimator(name, **TEST_KWARGS.get(name, {}))
        forecast = estimator.fit(SERIES).predict(3)
        assert np.asarray(forecast).shape == (3, SERIES.shape[1])

    def test_make_estimator_rejects_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown estimator"):
            make_estimator("prophet")

    def test_make_estimator_rejects_unknown_param(self):
        with pytest.raises(ConfigError, match="alpha_decay"):
            make_estimator("ses", alpha_decay=0.1)

    def test_param_names_are_sorted_and_canonical(self):
        assert list(estimator_param_names("lstm")) == sorted(
            estimator_param_names("lstm")
        )
        assert "hidden_size" in estimator_param_names("lstm")
        assert "order" in estimator_param_names("arima")


class TestParamsApi:
    def test_get_params_round_trip(self):
        model = LSTMForecaster(window=5, hidden_size=8, epochs=2)
        params = model.get_params()
        rebuilt = LSTMForecaster(**params)
        assert rebuilt.get_params() == params

    def test_set_params_returns_self_and_revalidates(self):
        model = SimpleExponentialSmoothing()
        assert model.set_params(alpha=0.4) is model
        assert model.get_params()["alpha"] == 0.4

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ConfigError, match="beta"):
            SimpleExponentialSmoothing().set_params(beta=1.0)

    def test_clone_is_unfitted_with_same_params(self):
        model = HoltWinters(period=4).fit(UNIVARIATE)
        twin = model.clone()
        assert twin is not model
        assert twin.get_params() == model.get_params()
        with pytest.raises(FittingError):
            twin.predict(2)

    @pytest.mark.parametrize("name", FAST_NAMES + ["lstm", "gru"])
    def test_get_test_params_construct(self, name):
        estimator = make_estimator(name, **TEST_KWARGS.get(name, {}))
        if isinstance(estimator, PerDimension):
            estimator = estimator.estimator
        target = type(estimator)
        for params in target.get_test_params():
            target(**params)

    def test_per_dimension_exposes_inner_params(self):
        wrapped = make_estimator("arima", order=(1, 0, 0))
        assert isinstance(wrapped, PerDimension)
        assert wrapped.get_params()["order"] == (1, 0, 0)


class TestLegacyShims:
    """Legacy spellings fail through the ordinary constructor errors."""

    def test_positional_arima_order_rejected(self):
        with pytest.raises(TypeError):
            ARIMA((1, 0, 0))

    def test_positional_var_order_rejected(self):
        with pytest.raises(TypeError):
            VAR(2)

    def test_positional_lstm_args_rejected(self):
        with pytest.raises(TypeError):
            LSTMForecaster(4, 8)

    def test_keyword_construction_is_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            GRUForecaster(window=4, hidden_size=8)

    def test_llmtime_config_object_rejected(self):
        from repro.baselines import LLMTime, LLMTimeConfig

        with pytest.raises(TypeError, match="config"):
            LLMTime(config=LLMTimeConfig(num_samples=1))
        with pytest.raises(TypeError):
            LLMTime(LLMTimeConfig(num_samples=1))


class TestSeedDeterminism:
    @pytest.mark.parametrize("name", ["lstm", "gru", "llmtime"])
    def test_same_seed_same_forecast(self, name):
        kwargs = {"seed": 3}
        if name in ("lstm", "gru"):
            kwargs.update(window=4, hidden_size=4, epochs=1)
        else:
            kwargs.update(num_samples=1, model="uniform-sim")
        one = make_estimator(name, **kwargs).fit(SERIES).predict(2)
        two = make_estimator(name, **kwargs).fit(SERIES).predict(2)
        assert np.array_equal(one, two)
