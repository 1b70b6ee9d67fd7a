"""Tests for the dimensionality and context-length scaling studies."""

import pytest

from repro.exceptions import ConfigError
from repro.experiments import context_length_study, dimensionality_study


class TestDimensionalityStudy:
    def test_structure(self):
        table = dimensionality_study(dims=(2, 3), n=100, num_samples=2)
        assert table.header == ["Method", "2", "3"]
        assert {row[0] for row in table.rows} == {
            "multicast-di", "multicast-vi", "multicast-vc", "llmtime",
        }

    def test_cells_finite_and_positive(self):
        table = dimensionality_study(dims=(2, 4), n=100, num_samples=2)
        for row in table.rows:
            for value in row[1:]:
                assert 0.0 < value < 10.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            dimensionality_study(dims=(1, 2))


class TestContextLengthStudy:
    def test_structure_and_regimes(self):
        table = context_length_study(budgets=(128, 512), num_samples=2)
        labels = [row[0] for row in table.rows]
        assert "stationary, llama2-sim" in labels
        assert "trending, llama2-sim" in labels
        for row in table.rows:
            assert len(row) == 3

    def test_validation(self):
        with pytest.raises(ConfigError):
            context_length_study(budgets=(8, 128))
