"""Zero-shot imputation of missing spans (paper future work).

A missing run is infilled *bidirectionally*: the in-context model continues
the observed prefix forward across the gap, a second model continues the
reversed suffix backward, and the two constrained generations are blended
with linear cross-fade weights so the fill stays anchored at both ends.
Several samples are drawn per direction and the per-timestamp median taken,
exactly like the forecasting pipeline.

Multivariate input is imputed per dimension (each dimension's observed
values fit their own scaler).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import MultiCastConfig
from repro.encoding import parse_token_stream
from repro.exceptions import DataError
from repro.llm import PeriodicPatternConstraint, child_seeds, get_model
from repro.scaling import FixedDigitScaler
from repro.tasks._serialize import TOKENS_PER_STEP, serialize_series

__all__ = ["impute"]


def _missing_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` runs where ``mask`` is True (= missing)."""
    runs = []
    start = None
    for i, missing in enumerate(mask):
        if missing and start is None:
            start = i
        elif not missing and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, mask.size))
    return runs


def _generate_fill(
    context_values: np.ndarray,
    length: int,
    scaler: FixedDigitScaler,
    config: MultiCastConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Median constrained continuation of ``context_values`` (1-D floats)."""
    serialized = serialize_series(
        context_values, scaler=scaler, trailing_separator=True
    )
    model = get_model(config.model, vocab_size=len(serialized.vocabulary))
    pattern = [serialized.digit_ids] * serialized.codec.num_digits + [
        frozenset([serialized.separator_id])
    ]
    constraint = PeriodicPatternConstraint(pattern)
    needed = length * TOKENS_PER_STEP(serialized.codec.num_digits)
    decoder = model.generate_batch(
        serialized.ids,
        needed,
        [
            np.random.default_rng(seed)
            for seed in child_seeds(rng, config.num_samples)
        ],
        constraint=constraint,
        # Infill decodes conservatively: the gap is anchored on both
        # sides, so exploration only hurts.
        temperature=0.35,
    )
    samples = np.empty((config.num_samples, length))
    for s, result in enumerate(decoder.results):
        parsed = parse_token_stream(
            serialized.vocabulary.decode(result.tokens), serialized.codec
        )
        values = scaler.inverse_transform(parsed)
        if values.size < length:
            pad_value = values[-1] if values.size else context_values[-1]
            values = np.concatenate([values, np.full(length - values.size, pad_value)])
        samples[s] = values[:length]
    return np.median(samples, axis=0)


def _impute_univariate(
    series: np.ndarray,
    mask: np.ndarray,
    config: MultiCastConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    observed = series[~mask]
    if observed.size < 4:
        raise DataError("imputation needs at least 4 observed values")
    scaler = FixedDigitScaler(num_digits=config.num_digits).fit(observed)
    result = series.astype(float).copy()
    for start, stop in _missing_runs(mask):
        length = stop - start
        prefix = result[:start][~mask[:start]]
        suffix = result[stop:][~mask[stop:]]
        forward = backward = None
        if prefix.size >= 2:
            forward = _generate_fill(prefix, length, scaler, config, rng)
        if suffix.size >= 2:
            backward = _generate_fill(suffix[::-1], length, scaler, config, rng)[::-1]
        if forward is None and backward is None:
            raise DataError(
                f"missing run [{start}, {stop}) has no usable context on "
                "either side"
            )
        if forward is None:
            fill = backward
        elif backward is None:
            fill = forward
        else:
            # Cross-fade: trust the forward pass near the left anchor and
            # the backward pass near the right anchor.
            weights = (
                np.arange(1, length + 1) / (length + 1) if length > 1 else np.array([0.5])
            )
            fill = (1.0 - weights) * forward + weights * backward
        result[start:stop] = fill
    return result


def impute(
    series: np.ndarray,
    mask: np.ndarray,
    config: MultiCastConfig | None = None,
    seed: int | None = None,
) -> np.ndarray:
    """Fill masked entries of a series with zero-shot constrained generation.

    Parameters
    ----------
    series:
        ``(n,)`` or ``(n, d)`` float array.  Masked entries may hold any
        placeholder value (they are ignored).
    mask:
        Boolean array of the same leading shape; True marks *missing*.
        For 2-D input the mask may be 1-D (same gaps in all dimensions) or
        2-D (per-dimension gaps).
    config:
        Reuses :class:`MultiCastConfig` for ``num_digits``, ``num_samples``,
        ``model`` and ``seed``.

    Returns a new array with the gaps filled; observed entries are untouched.
    """
    config = config or MultiCastConfig()
    values = np.asarray(series, dtype=float)
    missing = np.asarray(mask, dtype=bool)
    rng = np.random.default_rng(config.seed if seed is None else seed)

    if values.ndim == 1:
        if missing.shape != values.shape:
            raise DataError("mask shape must match the series")
        if not missing.any():
            return values.copy()
        if missing.all():
            raise DataError("cannot impute a fully-missing series")
        return _impute_univariate(values, missing, config, rng)

    if values.ndim != 2:
        raise DataError(f"expected (n,) or (n, d) input, got shape {values.shape}")
    if missing.ndim == 1:
        missing = np.repeat(missing[:, None], values.shape[1], axis=1)
    if missing.shape != values.shape:
        raise DataError("mask shape must match the series")
    columns = []
    for k in range(values.shape[1]):
        if missing[:, k].any():
            columns.append(
                _impute_univariate(values[:, k], missing[:, k], config, rng)
            )
        else:
            columns.append(values[:, k].copy())
    return np.stack(columns, axis=1)
