"""Piecewise Aggregate Approximation (PAA) and its pseudo-inverse.

PAA (Keogh et al., 2001; Yi & Faloutsos, 2000) compresses a series along the
time axis by replacing each window of ``segment_length`` consecutive values
with their mean.  The paper uses the segment length as "the level of
quantization on the x-axis" (Table II), so we parameterise by segment length
rather than by segment count; a trailing partial window is aggregated over
the values it actually contains.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataError

__all__ = ["paa", "inverse_paa", "num_segments", "paa_weights"]


def num_segments(n: int, segment_length: int) -> int:
    """Number of PAA segments covering a series of length ``n``."""
    if segment_length < 1:
        raise DataError(f"segment_length must be >= 1, got {segment_length}")
    if n < 1:
        raise DataError(f"series length must be >= 1, got {n}")
    return -(-n // segment_length)  # ceil division


def paa_weights(n: int, segment_length: int) -> np.ndarray:
    """How many values each PAA segment averages over.

    Every segment weighs ``segment_length`` values except possibly the
    last, which weighs exactly the ``n - (k - 1) * segment_length`` values
    the series actually contains — never zero-padded, never truncated.
    The weights always sum to ``n``, which is the invariant the trailing
    partial window of :func:`paa` relies on (pinned in ``tests/test_sax.py``).
    """
    k = num_segments(n, segment_length)
    weights = np.full(k, segment_length, dtype=int)
    weights[-1] = n - (k - 1) * segment_length
    return weights


def paa(x: np.ndarray, segment_length: int) -> np.ndarray:
    """Compress ``x`` to per-segment means.

    Returns an array of ``ceil(len(x) / segment_length)`` coefficients; the
    last coefficient averages the (possibly shorter) trailing window — see
    :func:`paa_weights` for the exact weighting.  Windows whose plain sum
    would overflow float64 are averaged divide-first, so any finite input
    yields the mathematically correct (finite, when representable) mean.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise DataError(f"paa expects a 1-D series, got shape {arr.shape}")
    n = arr.size
    k = num_segments(n, segment_length)
    full = n // segment_length
    coefficients = np.empty(k, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        coefficients[:full] = (
            arr[: full * segment_length].reshape(full, segment_length).mean(axis=1)
        )
        if full < k:
            coefficients[full] = arr[full * segment_length :].mean()
    for i in np.flatnonzero(~np.isfinite(coefficients)):
        window = arr[i * segment_length : (i + 1) * segment_length]
        if np.isfinite(window).all():
            # the sum overflowed float64 before the divide; dividing each
            # term first keeps the intermediate in range (the true mean is
            # always <= max|window|, hence representable) unless every
            # x / n rounds up past max / n.  Then average in units of
            # max|window|, where no partial sum passes n.
            with np.errstate(over="ignore", invalid="ignore"):
                mean = float(np.sum(window / window.size))
            if not np.isfinite(mean):
                scale = float(np.max(np.abs(window)))
                mean = float(np.mean(window / scale)) * scale
            coefficients[i] = mean
    return coefficients


def inverse_paa(coefficients: np.ndarray, segment_length: int, n: int) -> np.ndarray:
    """Expand PAA coefficients back to a length-``n`` step function.

    Each coefficient is repeated over its window; this is the canonical
    reconstruction (PAA is lossy, so the result is piecewise constant).
    """
    coeffs = np.asarray(coefficients, dtype=float)
    if coeffs.ndim != 1:
        raise DataError(f"expected 1-D coefficients, got shape {coeffs.shape}")
    expected = num_segments(n, segment_length)
    if coeffs.size != expected:
        raise DataError(
            f"{coeffs.size} coefficients cannot cover n={n} with "
            f"segment_length={segment_length} (need {expected})"
        )
    return np.repeat(coeffs, segment_length)[:n]
