"""Unit and property tests for the SAX substrate (PAA, breakpoints, encoder)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.exceptions import ConfigError, DataError, EncodingError
from repro.sax import (
    SaxAlphabet,
    SaxEncoder,
    gaussian_breakpoints,
    interval_expected_values,
    interval_midpoints,
    inverse_normal_cdf,
    inverse_paa,
    paa,
)
from repro.sax.paa import num_segments


class TestPaa:
    def test_exact_division(self):
        x = np.array([1.0, 3.0, 5.0, 7.0])
        assert paa(x, 2).tolist() == [2.0, 6.0]

    def test_trailing_partial_segment(self):
        x = np.array([1.0, 3.0, 10.0])
        assert paa(x, 2).tolist() == [2.0, 10.0]

    def test_segment_length_one_is_identity(self):
        x = np.array([4.0, 2.0, 9.0])
        assert paa(x, 1).tolist() == x.tolist()

    def test_segment_longer_than_series_gives_global_mean(self):
        x = np.array([2.0, 4.0])
        assert paa(x, 10).tolist() == [3.0]

    def test_inverse_paa_repeats_and_truncates(self):
        recon = inverse_paa(np.array([1.0, 2.0]), 3, 5)
        assert recon.tolist() == [1.0, 1.0, 1.0, 2.0, 2.0]

    def test_round_trip_preserves_segment_means(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=30)
        recon = inverse_paa(paa(x, 5), 5, 30)
        assert np.allclose(paa(recon, 5), paa(x, 5))

    def test_inverse_with_wrong_count_raises(self):
        with pytest.raises(DataError):
            inverse_paa(np.array([1.0]), 3, 10)

    def test_2d_input_raises(self):
        with pytest.raises(DataError):
            paa(np.zeros((3, 2)), 2)

    def test_bad_segment_length_raises(self):
        with pytest.raises(DataError):
            paa(np.zeros(4), 0)

    def test_num_segments_ceiling(self):
        assert num_segments(10, 3) == 4
        assert num_segments(9, 3) == 3


class TestInverseNormalCdf:
    def test_median(self):
        assert inverse_normal_cdf(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_matches_scipy_across_range(self):
        for p in np.linspace(0.001, 0.999, 199):
            assert inverse_normal_cdf(float(p)) == pytest.approx(
                stats.norm.ppf(p), abs=1e-10
            )

    def test_extreme_tails_match_scipy(self):
        for p in (1e-12, 1e-8, 1 - 1e-8):
            assert inverse_normal_cdf(p) == pytest.approx(
                stats.norm.ppf(p), rel=1e-9
            )

    def test_symmetry(self):
        assert inverse_normal_cdf(0.2) == pytest.approx(-inverse_normal_cdf(0.8))

    def test_domain_enforced(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DataError):
                inverse_normal_cdf(p)


class TestBreakpoints:
    def test_count(self):
        assert gaussian_breakpoints(5).size == 4

    def test_classic_sax_table_for_alphabet_4(self):
        # Lin & Keogh's published table: (-0.67, 0, 0.67).
        bps = gaussian_breakpoints(4)
        assert bps == pytest.approx([-0.6745, 0.0, 0.6745], abs=1e-4)

    def test_equiprobability(self):
        bps = gaussian_breakpoints(7)
        probs = np.diff(np.concatenate(([0.0], stats.norm.cdf(bps), [1.0])))
        assert np.allclose(probs, 1.0 / 7.0, atol=1e-12)

    def test_monotone_increasing(self):
        bps = gaussian_breakpoints(20)
        assert (np.diff(bps) > 0).all()

    def test_midpoints_lie_between_breakpoints(self):
        a = 6
        bps = gaussian_breakpoints(a)
        mids = interval_midpoints(a)
        edges = np.concatenate(([-np.inf], bps, [np.inf]))
        for i in range(a):
            assert edges[i] < mids[i] <= edges[i + 1]

    def test_expected_values_are_interval_means(self):
        a = 5
        levels = interval_expected_values(a)
        # Monte-Carlo check of the truncated-normal conditional mean.
        rng = np.random.default_rng(1)
        z = rng.normal(size=400_000)
        idx = np.searchsorted(gaussian_breakpoints(a), z)
        for i in range(a):
            assert levels[i] == pytest.approx(z[idx == i].mean(), abs=0.01)

    def test_alphabet_too_small_raises(self):
        with pytest.raises(DataError):
            gaussian_breakpoints(1)


class TestSaxAlphabet:
    def test_alphabetical_symbols(self):
        assert SaxAlphabet.alphabetical(5).symbols == ("a", "b", "c", "d", "e")

    def test_digital_symbols(self):
        assert SaxAlphabet.digital(5).symbols == ("0", "1", "2", "3", "4")

    def test_digital_capped_at_ten(self):
        """The reason Table IX has N/A for digital SAX at alphabet size 20."""
        SaxAlphabet.digital(10)
        with pytest.raises(ConfigError):
            SaxAlphabet.digital(20)

    def test_alphabetical_capped_at_26(self):
        with pytest.raises(ConfigError):
            SaxAlphabet.alphabetical(27)

    def test_of_kind_dispatch(self):
        assert SaxAlphabet.of_kind("digital", 5) == SaxAlphabet.digital(5)
        assert SaxAlphabet.of_kind("alphabetical", 5) == SaxAlphabet.alphabetical(5)
        with pytest.raises(ConfigError):
            SaxAlphabet.of_kind("hex", 5)

    def test_index_of_unknown_symbol_raises(self):
        with pytest.raises(EncodingError):
            SaxAlphabet.alphabetical(3).index_of("z")


class TestSaxEncoder:
    def _encoder(self, **kwargs):
        defaults = dict(segment_length=3, alphabet=SaxAlphabet.alphabetical(5))
        defaults.update(kwargs)
        return SaxEncoder(**defaults)

    def test_word_length_is_segment_count(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=31)
        encoder = self._encoder().fit(x)
        assert len(encoder.encode(x)) == encoder.segments_for(31) == 11

    def test_symbols_come_from_alphabet(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=60)
        encoder = self._encoder().fit(x)
        assert set(encoder.encode(x)) <= set("abcde")

    def test_roughly_equiprobable_on_gaussian_data(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=6000)
        encoder = self._encoder(segment_length=1).fit(x)
        word = encoder.encode(x)
        counts = np.array([word.count(s) for s in "abcde"]) / len(word)
        assert np.allclose(counts, 0.2, atol=0.03)

    def test_monotone_series_maps_to_sorted_word(self):
        x = np.linspace(-3.0, 3.0, 30)
        encoder = self._encoder(segment_length=1).fit(x)
        word = encoder.encode(x)
        assert word == sorted(word)

    def test_decode_length_and_units(self):
        x = 100.0 + 10.0 * np.sin(np.linspace(0, 6, 45))
        encoder = self._encoder().fit(x)
        recon = encoder.decode(encoder.encode(x), n=45)
        assert recon.shape == (45,)
        # Reconstruction stays in the neighbourhood of the original units.
        assert 60.0 < recon.mean() < 140.0

    def test_reconstruction_error_shrinks_with_alphabet(self):
        rng = np.random.default_rng(5)
        x = np.sin(np.linspace(0, 20, 200)) + 0.05 * rng.normal(size=200)

        def error(alphabet_size):
            encoder = SaxEncoder(1, SaxAlphabet.alphabetical(alphabet_size)).fit(x)
            recon = encoder.decode(encoder.encode(x), n=200)
            return np.sqrt(np.mean((recon - x) ** 2))

        assert error(20) < error(5) < error(2)

    def test_expected_reconstruction_mode(self):
        x = np.sin(np.linspace(0, 20, 100))
        enc_mid = self._encoder(reconstruction="midpoint").fit(x)
        enc_exp = self._encoder(reconstruction="expected").fit(x)
        recon_mid = enc_mid.decode(enc_mid.encode(x), n=100)
        recon_exp = enc_exp.decode(enc_exp.encode(x), n=100)
        assert not np.allclose(recon_mid, recon_exp)

    def test_unfitted_use_raises(self):
        with pytest.raises(EncodingError):
            self._encoder().encode(np.zeros(10))

    def test_invalid_reconstruction_mode_raises(self):
        with pytest.raises(ConfigError):
            self._encoder(reconstruction="nearest")

    def test_invalid_segment_length_raises(self):
        with pytest.raises(ConfigError):
            self._encoder(segment_length=0)

    def test_decode_rejects_unknown_symbols(self):
        encoder = self._encoder().fit(np.arange(10.0))
        with pytest.raises(EncodingError):
            encoder.decode(["z"], n=3)


@given(
    st.lists(
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        min_size=4,
        max_size=80,
    ),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=12),
)
@settings(max_examples=60)
def test_sax_round_trip_shape_property(xs, segment_length, alphabet_size):
    x = np.asarray(xs)
    encoder = SaxEncoder(segment_length, SaxAlphabet.alphabetical(alphabet_size))
    encoder.fit(x)
    word = encoder.encode(x)
    assert len(word) == encoder.segments_for(x.size)
    recon = encoder.decode(word, n=x.size)
    assert recon.shape == x.shape
    assert np.isfinite(recon).all()


@given(st.integers(min_value=2, max_value=26))
def test_breakpoints_symmetry_property(alphabet_size):
    bps = gaussian_breakpoints(alphabet_size)
    assert np.allclose(bps, -bps[::-1], atol=1e-9)


@given(
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
def test_inverse_normal_cdf_inverts_cdf_property(p):
    x = inverse_normal_cdf(p)
    assert 0.5 * math.erfc(-x / math.sqrt(2)) == pytest.approx(p, abs=1e-9)


class TestPaaEdgeCases:
    """Regression pins for the non-multiple-length / overflow bug sweep."""

    def test_weights_cover_series_exactly(self):
        from repro.sax import paa_weights

        for n in (1, 5, 6, 7, 12, 13, 100):
            for w in (1, 2, 3, 5, 8, 200):
                weights = paa_weights(n, w)
                assert weights.sum() == n  # never truncated, never padded
                assert weights.size == num_segments(n, w)
                assert (weights[:-1] == w).all()
                assert 1 <= weights[-1] <= w

    def test_last_frame_mean_uses_exact_weighting(self):
        from repro.sax import paa_weights

        # 7 values, window 3: the last segment holds exactly one value;
        # zero-padding would bias it toward 0, truncation would drop it.
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 100.0])
        coefficients = paa(x, 3)
        assert coefficients[-1] == 100.0
        weights = paa_weights(x.size, 3)
        starts = np.concatenate([[0], np.cumsum(weights)[:-1]])
        manual = np.array([
            x[s : s + w].sum() / w for s, w in zip(starts, weights)
        ])
        np.testing.assert_array_equal(coefficients, manual)

    def test_constant_series_is_exactly_preserved_at_any_length(self):
        for n in (5, 7, 10, 11):
            np.testing.assert_array_equal(paa(np.full(n, 5.5), 4), 5.5)

    def test_extreme_magnitude_windows_do_not_overflow(self):
        # Regression: the plain window sum hits inf at ~1.5e308 x 3; the
        # mean must still come out finite (it is <= max|window|).
        np.testing.assert_array_equal(paa(np.full(7, 1.5e308), 3), 1.5e308)
        mixed = np.array([1.7e308, 1.7e308, -1.7e308, 1.0])
        coefficients = paa(mixed, 3)
        assert np.isfinite(coefficients).all()
        assert np.isclose(coefficients[0], 1.7e308 / 3, rtol=1e-12)
        assert coefficients[1] == 1.0

    def test_overflow_path_emits_no_warnings(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            paa(np.full(9, 1.7e308), 4)
            paa(np.array([1.7e308, -1.7e308, 1.7e308]), 3)

    def test_divide_first_overflow_stays_finite(self):
        # Each max/3 rounds up, so the divide-first sum passes float max;
        # averaging in units of max|window| keeps the mean finite.
        import warnings

        top = np.finfo(float).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(paa(np.full(3, top), 3), [top])
            mixed = paa(np.array([top, top, top, -top, -top, -top, 1.0]), 3)
        np.testing.assert_array_equal(mixed, [top, -top, 1.0])

    def test_tame_path_bitwise_unchanged(self):
        # The overflow fallback must not perturb ordinary inputs: the
        # coefficient is still the plain numpy window mean, bit for bit.
        rng = np.random.default_rng(7)
        x = rng.standard_normal(23) * 1e6
        coefficients = paa(x, 5)
        expected = np.array(
            [x[i : i + 5].mean() for i in range(0, 23, 5)]
        )
        np.testing.assert_array_equal(coefficients, expected)


def _paa_per_window(x: np.ndarray, segment_length: int) -> np.ndarray:
    """Reference PAA: one plain mean per window, divide-first on overflow,
    and in units of the largest magnitude if divide-first overflows too."""
    means = []
    for start in range(0, x.size, segment_length):
        window = x[start : start + segment_length]
        with np.errstate(over="ignore", invalid="ignore"):
            mean = window.mean()
        if not np.isfinite(mean) and np.isfinite(window).all():
            with np.errstate(over="ignore", invalid="ignore"):
                mean = np.sum(window / window.size)
            if not np.isfinite(mean):
                scale = np.max(np.abs(window))
                mean = np.mean(window / scale) * scale
        means.append(mean)
    return np.array(means, dtype=float)


@given(
    st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.floats(min_value=1.6e308, max_value=1.7976931348623157e308),
            st.floats(min_value=-1.7976931348623157e308, max_value=-1.6e308),
        ),
        min_size=1,
        max_size=200,
    ),
    st.integers(min_value=1, max_value=160),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_paa_matches_per_window_loop_bitwise(xs, segment_length, strided):
    x = np.asarray(xs, dtype=float)
    if strided:
        x = np.repeat(x, 2)[::2]  # a non-contiguous view of the same values
    got = paa(x, segment_length)
    expected = _paa_per_window(x, segment_length)
    assert got.shape == expected.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()
