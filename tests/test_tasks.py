"""Tests for the zero-shot task extensions (imputation, anomaly, changepoint)."""

import hashlib

import numpy as np
import pytest

from repro.core import MultiCastConfig
from repro.exceptions import DataError
from repro.tasks import (
    anomaly_scores,
    changepoint_scores,
    detect_anomalies,
    detect_changepoints,
    impute,
)
from repro.tasks.imputation import _missing_runs

FAST = MultiCastConfig(num_samples=3, seed=0)


def _sine(n=200, period=20.0, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    return np.sin(2 * np.pi * np.arange(n) / period) + noise * rng.normal(size=n)


class TestMissingRuns:
    def test_single_run(self):
        mask = np.array([False, True, True, False])
        assert _missing_runs(mask) == [(1, 3)]

    def test_multiple_runs(self):
        mask = np.array([True, False, True, True, False, True])
        assert _missing_runs(mask) == [(0, 1), (2, 4), (5, 6)]

    def test_no_runs(self):
        assert _missing_runs(np.zeros(4, bool)) == []

    def test_all_missing(self):
        assert _missing_runs(np.ones(3, bool)) == [(0, 3)]


class TestImpute:
    def test_clean_periodic_gap_recovered_near_exactly(self):
        x = _sine()
        mask = np.zeros(200, bool)
        mask[100:110] = True
        corrupted = x.copy()
        corrupted[mask] = 0.0
        filled = impute(corrupted, mask, MultiCastConfig(num_samples=5, seed=0))
        gap_rmse = float(np.sqrt(((filled[mask] - x[mask]) ** 2).mean()))
        mean_fill = float(np.sqrt(((x[mask] - x[~mask].mean()) ** 2).mean()))
        assert gap_rmse < 0.2 * mean_fill

    def test_fill_matches_per_sample_draws(self):
        # sha256 of this fill when every sample was drawn by its own
        # generate() call; the one generate_batch call must match it.
        x = _sine(noise=0.05)
        mask = np.zeros(200, bool)
        mask[50:60] = True
        filled = impute(x, mask, FAST)
        assert hashlib.sha256(filled.tobytes()).hexdigest() == (
            "8c8b2889db7b14844eeadf05bde0c68915530d153769450d5b9d87f5006d61e2"
        )

    def test_observed_values_untouched(self):
        x = _sine(noise=0.05)
        mask = np.zeros(200, bool)
        mask[50:60] = True
        filled = impute(x, mask, FAST)
        assert np.array_equal(filled[~mask], x[~mask])

    def test_gap_at_series_start_uses_backward_pass_only(self):
        x = _sine()
        mask = np.zeros(200, bool)
        mask[:8] = True
        filled = impute(x, mask, FAST)
        assert np.isfinite(filled).all()
        assert np.abs(filled[:8]).max() < 2.0  # stays in signal range

    def test_gap_at_series_end_uses_forward_pass_only(self):
        x = _sine()
        mask = np.zeros(200, bool)
        mask[-8:] = True
        filled = impute(x, mask, FAST)
        assert np.isfinite(filled[-8:]).all()

    def test_multiple_gaps(self):
        x = _sine()
        mask = np.zeros(200, bool)
        mask[40:45] = True
        mask[120:130] = True
        filled = impute(x, mask, FAST)
        assert np.isfinite(filled).all()
        assert np.array_equal(filled[~mask], x[~mask])

    def test_no_gaps_returns_copy(self):
        x = _sine(50)
        filled = impute(x, np.zeros(50, bool), FAST)
        assert np.array_equal(filled, x)
        assert filled is not x

    def test_multivariate_with_shared_mask(self):
        x = np.stack([_sine(), 5.0 + _sine(period=10.0)], axis=1)
        mask = np.zeros(200, bool)
        mask[80:88] = True
        filled = impute(x, mask, FAST)
        assert filled.shape == x.shape
        assert np.array_equal(filled[~mask], x[~mask])

    def test_multivariate_with_per_dimension_mask(self):
        x = np.stack([_sine(), _sine(period=10.0)], axis=1)
        mask = np.zeros((200, 2), bool)
        mask[30:35, 0] = True  # only dimension 0 has a gap
        filled = impute(x, mask, FAST)
        assert np.array_equal(filled[:, 1], x[:, 1])

    def test_fully_missing_rejected(self):
        with pytest.raises(DataError):
            impute(np.zeros(10), np.ones(10, bool), FAST)

    def test_mask_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            impute(np.zeros(10), np.zeros(5, bool), FAST)

    def test_reproducible(self):
        x = _sine(noise=0.05)
        mask = np.zeros(200, bool)
        mask[90:96] = True
        a = impute(x, mask, MultiCastConfig(num_samples=3, seed=9))
        b = impute(x, mask, MultiCastConfig(num_samples=3, seed=9))
        assert np.array_equal(a, b)


class TestAnomaly:
    def test_injected_spike_scores_high(self):
        x = _sine(noise=0.03)
        x[150] += 3.0
        scores = anomaly_scores(x)
        assert scores[150] > np.quantile(scores[20:], 0.95)

    def test_detect_flags_the_spike(self):
        x = _sine(noise=0.03, seed=1)
        x[120] += 3.5
        hits = detect_anomalies(x, threshold_quantile=0.99)
        assert 120 in hits or 121 in hits

    def test_scores_shape(self):
        x = _sine(80)
        assert anomaly_scores(x).shape == (80,)

    def test_multivariate_takes_dimension_maximum(self):
        clean = _sine()
        spiked = _sine(period=10.0)
        spiked = spiked.copy()
        spiked[140] += 4.0
        multi = np.stack([clean, spiked], axis=1)
        scores = anomaly_scores(multi)
        uni = anomaly_scores(spiked)
        assert scores[140] >= uni[140] - 1e-9

    def test_warmup_excluded_from_detection(self):
        x = _sine()
        hits = detect_anomalies(x, threshold_quantile=0.9, warmup=10)
        assert (hits >= 10).all()

    def test_validation(self):
        with pytest.raises(DataError):
            anomaly_scores(np.ones(2))
        with pytest.raises(DataError):
            anomaly_scores(np.array([1.0, np.nan, 2.0, 3.0]))
        with pytest.raises(DataError):
            detect_anomalies(_sine(), threshold_quantile=1.5)
        with pytest.raises(DataError):
            detect_anomalies(_sine(50), warmup=50)


class TestChangepoint:
    def test_detects_a_regime_change(self):
        rng = np.random.default_rng(2)
        left = np.sin(2 * np.pi * np.arange(100) / 20.0)
        right = 2.5 + np.sin(2 * np.pi * np.arange(80) / 7.0)
        x = np.concatenate([left, right]) + 0.05 * rng.normal(size=180)
        hits = detect_changepoints(x, window=20)
        assert len(hits) >= 1
        assert any(abs(h - 100) <= 5 for h in hits)

    def test_stationary_series_scores_low_everywhere(self):
        x = _sine(noise=0.02, seed=3)
        scores = changepoint_scores(x, window=20)
        hits = detect_changepoints(x, window=20, threshold_quantile=0.999)
        # No hard assertion on zero hits (quantile always flags something
        # if threshold < max), but the score landscape should be flat-ish.
        active = scores[scores != 0.0]
        assert active.std() < 2.0
        assert len(hits) <= 2

    def test_min_separation_collapses_neighbouring_peaks(self):
        rng = np.random.default_rng(4)
        x = np.concatenate([np.zeros(60), np.ones(60) * 4.0]) + 0.05 * rng.normal(
            size=120
        )
        hits = detect_changepoints(x, window=15, min_separation=30)
        assert len(hits) <= 2

    def test_scores_zero_outside_valid_range(self):
        x = _sine(100)
        scores = changepoint_scores(x, window=20)
        assert np.allclose(scores[:20], 0.0)
        assert np.allclose(scores[81:], 0.0)

    def test_validation(self):
        with pytest.raises(DataError):
            changepoint_scores(np.zeros((10, 2)), window=4)
        with pytest.raises(DataError):
            changepoint_scores(_sine(30), window=20)
        with pytest.raises(DataError):
            changepoint_scores(_sine(100), window=2)
        with pytest.raises(DataError):
            detect_changepoints(_sine(100), window=20, threshold_quantile=0.0)
