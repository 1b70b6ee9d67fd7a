"""Tests for the BPE tokenizer-adaptation study."""

import hashlib

import numpy as np
import pytest

from repro.exceptions import EncodingError
from repro.experiments.tokenizer_study import (
    MERGE_BOUND,
    _forecast_univariate,
    _tokenize_paired,
    paired_digit_vocabulary,
    tokenizer_comparison_table,
)

#: sha256 of ``_forecast_univariate(series, 6, tokenizer)`` in
#: ``test_forecast_matches_per_sample_draws``, captured when every sample
#: was drawn by its own ``generate()`` call.
PER_SAMPLE_DIGESTS = {
    "digit": "9fc620f7a932150a287f8d181bb7394119c3f75338bf215362fff58450951b63",
    "paired": "62c7ae2e352922229b912abd5d5094949a7decf869070fc54d50630f3cb5271e",
}


class TestPairedVocabulary:
    def test_size(self):
        # 10 singles + MERGE_BOUND pairs + comma.
        assert len(paired_digit_vocabulary()) == 10 + MERGE_BOUND + 1

    def test_contains_only_low_pairs(self):
        vocabulary = paired_digit_vocabulary()
        vocabulary.id_of("49")
        with pytest.raises(EncodingError):
            vocabulary.id_of("50")

    def test_duplicate_rejected(self):
        from repro.experiments.tokenizer_study import _MultiTokenVocabulary

        with pytest.raises(EncodingError):
            _MultiTokenVocabulary(["a", "a"])


class TestPartialMergeTokenizer:
    def _decode(self, text):
        vocabulary = paired_digit_vocabulary()
        return vocabulary.decode(_tokenize_paired(text, vocabulary))

    def test_value_dependent_split(self):
        """The BPE pathology: split position depends on digit values."""
        assert self._decode("172") == ["17", "2"]
        assert self._decode("723") == ["7", "23"]

    def test_commas_never_merge(self):
        assert self._decode("01,23") == ["01", ",", "23"]

    def test_round_trips_as_text(self):
        for text in ("123,456,789", "000,999", "5"):
            assert "".join(self._decode(text)) == text

    def test_high_digits_fall_back_to_singles(self):
        assert self._decode("99") == ["9", "9"]

    def test_same_value_splits_identically(self):
        assert self._decode("017") == self._decode("017")


class TestStudy:
    def test_both_tokenizers_produce_usable_forecasts(self):
        series = np.sin(2 * np.pi * np.arange(120) / 12.0)
        for tokenizer in ("digit", "paired"):
            forecast = _forecast_univariate(
                series, horizon=8, tokenizer=tokenizer, num_samples=2
            )
            assert forecast.shape == (8,)
            assert np.isfinite(forecast).all()

    @pytest.mark.parametrize("tokenizer", ["digit", "paired"])
    def test_forecast_matches_per_sample_draws(self, tokenizer):
        # sha256 of this forecast when every sample was drawn by its own
        # generate() call; the one generate_batch call must match it.
        series = np.sin(np.arange(60.0) / 4.0) * 10 + 50
        forecast = _forecast_univariate(series, 6, tokenizer)
        digest = hashlib.sha256(forecast.tobytes()).hexdigest()
        assert digest == PER_SAMPLE_DIGESTS[tokenizer]

    def test_unknown_tokenizer_rejected(self):
        with pytest.raises(EncodingError):
            _forecast_univariate(np.sin(np.arange(60.0)), 4, "wordpiece")

    def test_table_structure(self):
        table = tokenizer_comparison_table(num_samples=2)
        assert [row[0] for row in table.rows] == ["digit", "paired"]
        for row in table.rows:
            assert np.isfinite(row[1]) and np.isfinite(row[2])
