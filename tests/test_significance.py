"""Tests for the Diebold-Mariano test and the detection-scoring harness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.evaluation import diebold_mariano
from repro.exceptions import DataError
from repro.tasks import (
    inject_level_shift,
    inject_point_anomalies,
    inject_regime_change,
    score_detections,
)


class TestDieboldMariano:
    def test_identical_forecasts_are_not_significant(self):
        rng = np.random.default_rng(0)
        errors = rng.normal(size=100)
        result = diebold_mariano(errors, errors)
        assert result.p_value == 1.0
        assert not result.significant()

    def test_clearly_better_method_is_detected(self):
        rng = np.random.default_rng(1)
        good = 0.5 * rng.normal(size=300)
        bad = 2.0 * rng.normal(size=300)
        result = diebold_mariano(good, bad)
        assert result.favours_first
        assert result.significant(0.01)

    def test_direction_flips_with_argument_order(self):
        rng = np.random.default_rng(2)
        good = 0.5 * rng.normal(size=200)
        bad = 2.0 * rng.normal(size=200)
        forward = diebold_mariano(good, bad)
        backward = diebold_mariano(bad, good)
        assert forward.statistic == pytest.approx(-backward.statistic)
        assert forward.favours_first and not backward.favours_first

    def test_equal_variance_noise_is_usually_insignificant(self):
        """Size control: under the null, rejections at 5% stay near 5%."""
        rejections = 0
        trials = 60
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            e1 = rng.normal(size=150)
            e2 = rng.normal(size=150)
            if diebold_mariano(e1, e2).significant(0.05):
                rejections += 1
        assert rejections <= int(0.15 * trials)  # generous band around 5%

    def test_absolute_loss_variant(self):
        rng = np.random.default_rng(3)
        good = 0.5 * rng.normal(size=300)
        bad = 2.0 * rng.normal(size=300)
        result = diebold_mariano(good, bad, loss="absolute")
        assert result.favours_first and result.significant(0.01)

    def test_horizon_bandwidth_changes_the_statistic(self):
        rng = np.random.default_rng(4)
        # Autocorrelated loss differential (overlapping h-step errors).
        base = np.cumsum(rng.normal(size=200)) * 0.05
        e1 = base + 0.4 * rng.normal(size=200)
        e2 = 1.3 * (base + 0.4 * rng.normal(size=200))
        h1 = diebold_mariano(e1, e2, horizon=1)
        h5 = diebold_mariano(e1, e2, horizon=5)
        assert h1.statistic != pytest.approx(h5.statistic)

    def test_validation(self):
        with pytest.raises(DataError):
            diebold_mariano(np.ones(3), np.ones(3))
        with pytest.raises(DataError):
            diebold_mariano(np.ones(10), np.ones(9))
        with pytest.raises(DataError):
            diebold_mariano(np.ones(10), np.ones(10), horizon=0)
        with pytest.raises(DataError):
            diebold_mariano(np.ones(10), np.ones(10), loss="huber")
        result = diebold_mariano(np.arange(10.0), np.arange(10.0) * 1.1)
        with pytest.raises(DataError):
            result.significant(alpha=0.0)


class TestInjectors:
    def test_point_anomalies_positions_and_magnitude(self):
        series = np.sin(np.arange(200.0) / 5.0)
        corrupted, positions = inject_point_anomalies(series, count=3, seed=0)
        assert positions.size == 3
        for p in positions:
            assert abs(corrupted[p] - series[p]) > 2.0 * series.std()
        untouched = np.delete(corrupted, positions)
        assert np.allclose(untouched, np.delete(series, positions))

    def test_point_anomalies_respect_margins(self):
        series = np.zeros(100) + np.sin(np.arange(100.0))
        _, positions = inject_point_anomalies(series, count=3, seed=1, margin=10)
        assert positions.min() >= 10 and positions.max() < 90
        assert np.diff(positions).min() > 10

    def test_level_shift(self):
        series = np.sin(np.arange(100.0) / 4.0)
        shifted = inject_level_shift(series, position=60, magnitude=3.0)
        assert np.allclose(shifted[:60], series[:60])
        assert (shifted[60:] - series[60:]).min() > 0

    def test_regime_change(self):
        series, break_at = inject_regime_change(100, 80, seed=2)
        assert series.size == 180
        assert break_at == 100
        assert series[110:].mean() > series[:100].mean() + 1.0

    def test_validation(self):
        with pytest.raises(DataError):
            inject_point_anomalies(np.zeros(20), count=5)
        with pytest.raises(DataError):
            inject_level_shift(np.zeros(10), position=0)
        with pytest.raises(DataError):
            inject_regime_change(4, 100)


class TestScoreDetections:
    def test_perfect_detection(self):
        score = score_detections([10, 50, 90], [10, 50, 90])
        assert score.precision == 1.0 and score.recall == 1.0 and score.f1 == 1.0

    def test_tolerance_window(self):
        score = score_detections([12], [10], tolerance=3)
        assert score.true_positives == 1
        score = score_detections([15], [10], tolerance=3)
        assert score.true_positives == 0

    def test_one_detection_cannot_match_two_events(self):
        score = score_detections([10], [9, 11], tolerance=3)
        assert score.true_positives == 1
        assert score.false_negatives == 1

    def test_nearest_match_wins(self):
        score = score_detections([10, 20], [11, 19], tolerance=3)
        assert score.true_positives == 2

    def test_false_positives_counted(self):
        score = score_detections([10, 40, 70], [10], tolerance=2)
        assert score.false_positives == 2
        assert score.precision == pytest.approx(1 / 3)

    def test_empty_edge_cases(self):
        assert score_detections([], []).precision == 1.0
        assert score_detections([], [5]).recall == 0.0
        assert score_detections([5], []).recall == 1.0
        assert score_detections([5], []).precision == 0.0
        assert score_detections([], [5]).f1 == 0.0

    def test_negative_tolerance_rejected(self):
        with pytest.raises(DataError):
            score_detections([1], [1], tolerance=-1)


class TestEndToEndDetection:
    def test_anomaly_detector_scores_well_on_planted_spikes(self):
        from repro.tasks import detect_anomalies

        series = np.sin(2 * np.pi * np.arange(240) / 20.0)
        corrupted, truth = inject_point_anomalies(
            series, count=3, magnitude=5.0, seed=3, margin=20
        )
        hits = detect_anomalies(corrupted, threshold_quantile=0.985)
        score = score_detections(hits, truth, tolerance=2)
        assert score.recall >= 2 / 3
        assert score.f1 > 0.5

    def test_changepoint_detector_scores_regime_break(self):
        from repro.tasks import detect_changepoints

        series, break_at = inject_regime_change(110, 90, seed=4)
        hits = detect_changepoints(series, window=20)
        score = score_detections(hits, [break_at], tolerance=5)
        assert score.recall == 1.0


@given(
    st.lists(st.integers(min_value=0, max_value=200), max_size=10, unique=True),
    st.integers(min_value=0, max_value=5),
)
@settings(max_examples=40)
def test_perfect_detection_property(events, tolerance):
    score = score_detections(events, events, tolerance=tolerance)
    assert score.recall == 1.0
    assert score.false_positives == 0
