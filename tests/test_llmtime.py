"""Tests for the LLMTime baseline (zero-shot univariate LLM forecasting)."""

import hashlib

import numpy as np
import pytest

from repro.baselines import LLMTime, LLMTimeConfig
from repro.baselines.llmtime import _fit_horizon, _truncate_to_group_boundary
from repro.exceptions import ConfigError, DataError
from repro.metrics import rmse


def _sine(n=120, period=16.0):
    return np.sin(2 * np.pi * np.arange(n) / period)


class TestConfig:
    def test_paper_defaults(self):
        config = LLMTimeConfig()
        assert config.num_samples == 5
        assert config.model == "llama2-7b-sim"
        assert config.aggregation == "median"

    def test_validation(self):
        with pytest.raises(ConfigError):
            LLMTimeConfig(num_digits=0)
        with pytest.raises(ConfigError):
            LLMTimeConfig(num_samples=0)
        with pytest.raises(ConfigError):
            LLMTimeConfig(aggregation="mode")
        with pytest.raises(ConfigError):
            LLMTimeConfig(max_context_tokens=4)


class TestUnivariate:
    def test_samples_match_per_sample_draws(self):
        # sha256 of this forecast when every sample was drawn by its own
        # generate() call; the one generate_batch call must match it.
        output = LLMTime(num_samples=3, seed=0).forecast_univariate(
            _sine(), horizon=10
        )
        digest = hashlib.sha256(
            output.values.tobytes() + output.samples.tobytes()
        ).hexdigest()
        assert digest == (
            "c0be150e41d6843f4d659ee329000a54aade4c7fda504a13884f7fb81cdac20c"
        )

    def test_output_shapes_and_accounting(self):
        model = LLMTime(num_samples=3, seed=0)
        output = model.forecast_univariate(_sine(), horizon=10)
        assert output.values.shape == (10, 1)
        assert output.samples.shape == (3, 10, 1)
        assert output.prompt_tokens > 0
        # 3 samples x 10 steps x (3 digits + separator) tokens.
        assert output.generated_tokens == 3 * 10 * 4
        assert output.simulated_seconds > 0
        assert output.model_name == "llama2-7b-sim"

    def test_forecast_tracks_a_periodic_series(self):
        series = _sine(160)
        train, test = series[:144], series[144:]
        output = LLMTime(num_samples=5, seed=1).forecast_univariate(
            train, horizon=16
        )
        # The in-context model should do far better than predicting the mean.
        assert rmse(test, output.values[:, 0]) < rmse(test, np.zeros(16))

    def test_forecast_stays_in_scaled_range(self):
        series = 50.0 + 5.0 * _sine(100)
        output = LLMTime(num_samples=2, seed=2).forecast_univariate(
            series, horizon=8
        )
        # FixedDigitScaler bounds any decodable output by the headroom span.
        assert output.values.min() > 30.0
        assert output.values.max() < 70.0

    def test_reproducible_for_fixed_seed(self):
        series = _sine(80)
        a = LLMTime(seed=7).forecast_univariate(series, 5)
        b = LLMTime(seed=7).forecast_univariate(series, 5)
        assert np.allclose(a.values, b.values)

    def test_different_seeds_usually_differ(self):
        series = _sine(80) + 0.3 * np.random.default_rng(0).normal(size=80)
        a = LLMTime(seed=1, num_samples=2).forecast_univariate(series, 8)
        b = LLMTime(seed=2, num_samples=2).forecast_univariate(series, 8)
        assert not np.allclose(a.values, b.values)

    def test_2d_history_rejected(self):
        with pytest.raises(DataError):
            LLMTime().forecast_univariate(np.zeros((10, 2)), 3)

    def test_short_history_rejected(self):
        with pytest.raises(DataError):
            LLMTime().forecast_univariate(np.ones(3), 2)

    def test_bad_horizon_rejected(self):
        with pytest.raises(DataError):
            LLMTime().forecast_univariate(_sine(), 0)


class TestMultivariate:
    def test_dimensions_forecast_independently_and_stacked(self):
        history = np.stack([_sine(100), 10.0 + _sine(100, period=8.0)], axis=1)
        output = LLMTime(num_samples=2, seed=3).forecast(history, 6)
        assert output.values.shape == (6, 2)
        assert output.samples.shape == (2, 6, 2)
        assert output.metadata["per_dimension"] is True

    def test_times_and_tokens_sum_over_dimensions(self):
        history = np.stack([_sine(100), _sine(100)], axis=1)
        multi = LLMTime(num_samples=2, seed=4).forecast(history, 5)
        uni = LLMTime(num_samples=2, seed=4).forecast_univariate(
            history[:, 0], 5, seed=4
        )
        assert multi.prompt_tokens == pytest.approx(2 * uni.prompt_tokens)
        assert multi.simulated_seconds == pytest.approx(2 * uni.simulated_seconds)

    def test_univariate_input_promoted(self):
        output = LLMTime(num_samples=2).forecast(_sine(60), 4)
        assert output.values.shape == (4, 1)


class TestContextTruncation:
    def test_long_history_is_truncated_to_budget(self):
        series = _sine(3000)
        output = LLMTime(
            num_samples=1, max_context_tokens=200, seed=5
        ).forecast_univariate(series, 4)
        assert output.prompt_tokens <= 200

    def test_truncation_respects_group_boundary(self):
        # ids: 0 0 1 sep 0 0 2 sep 0 0 3 (separator id = 10)
        ids = [0, 0, 1, 10, 0, 0, 2, 10, 0, 0, 3]
        truncated = _truncate_to_group_boundary(ids, limit=6, separator_id=10)
        assert truncated == [0, 0, 3]

    def test_no_truncation_when_under_limit(self):
        ids = [1, 2, 3]
        assert _truncate_to_group_boundary(ids, 10, separator_id=10) == ids

    def test_truncation_without_separator_in_tail(self):
        ids = [0] * 20
        assert _truncate_to_group_boundary(ids, 5, separator_id=10) == [0] * 5


class TestFitHorizon:
    def test_truncates_long_output(self):
        assert _fit_horizon(np.arange(10.0), 4, 0.0).tolist() == [0, 1, 2, 3]

    def test_pads_short_output_with_last_value(self):
        assert _fit_horizon(np.array([5.0]), 3, 0.0).tolist() == [5.0, 5.0, 5.0]

    def test_empty_output_uses_fallback(self):
        assert _fit_horizon(np.array([]), 2, 9.0).tolist() == [9.0, 9.0]
