"""LLMTime (Gruver et al., NeurIPS 2023) — the zero-shot univariate baseline.

LLMTime forecasts each dimension *separately*: rescale to fixed-digit
integers, serialise digit-by-digit with comma separators, let the LLM
continue the stream under a ``[0-9,]`` logit constraint, draw several
samples, and take the per-timestamp median after descaling.  MultiCast
generalises exactly this pipeline to multivariate input, so the two share
the scaling/encoding/generation machinery verbatim — which is what makes
the paper's accuracy and timing comparisons apples-to-apples.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.aggregation import AGGREGATION_METHODS, aggregate_samples
from repro.core.estimator import BaseEstimator
from repro.core.output import ForecastOutput
from repro.encoding import (
    SEPARATOR,
    DigitCodec,
    digit_vocabulary,
    parse_token_stream,
    render_token_stream,
)
from repro.exceptions import ConfigError, DataError, FittingError
from repro.llm import PeriodicPatternConstraint, child_seeds, get_model
from repro.scaling import FixedDigitScaler

__all__ = ["LLMTime", "LLMTimeConfig"]


@dataclass(frozen=True)
class LLMTimeConfig:
    """Configuration mirroring the paper's Table II defaults."""

    num_digits: int = 3
    num_samples: int = 5
    model: str = "llama2-7b-sim"
    aggregation: str = "median"
    max_context_tokens: int = 4096
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_digits < 1:
            raise ConfigError(f"num_digits must be >= 1, got {self.num_digits}")
        if self.num_samples < 1:
            raise ConfigError(f"num_samples must be >= 1, got {self.num_samples}")
        if self.aggregation not in AGGREGATION_METHODS:
            raise ConfigError(
                f"aggregation must be one of {AGGREGATION_METHODS}, "
                f"got {self.aggregation!r}"
            )
        if self.max_context_tokens < 8:
            raise ConfigError("max_context_tokens must be >= 8")


def _truncate_to_group_boundary(ids: list[int], limit: int, separator_id: int) -> list[int]:
    """Keep at most ``limit`` trailing ids, starting just after a separator."""
    if len(ids) <= limit:
        return ids
    tail = ids[-limit:]
    try:
        first_separator = tail.index(separator_id)
    except ValueError:
        return tail
    return tail[first_separator + 1 :]


class LLMTime(BaseEstimator):
    """Univariate zero-shot forecaster, applied per dimension for 2-D input.

    The constructor takes the configuration fields as flat keywords (the
    Estimator API), validated through :class:`LLMTimeConfig`.
    """

    _PARAMS = (
        "num_digits",
        "num_samples",
        "model",
        "aggregation",
        "max_context_tokens",
        "seed",
    )
    _TEST_PARAMS = ({"num_samples": 1, "model": "uniform-sim"},)

    def __init__(
        self,
        *,
        num_digits: int | None = None,
        num_samples: int | None = None,
        model: str | None = None,
        aggregation: str | None = None,
        max_context_tokens: int | None = None,
        seed: int | None = None,
    ) -> None:
        fields = {
            "num_digits": num_digits,
            "num_samples": num_samples,
            "model": model,
            "aggregation": aggregation,
            "max_context_tokens": max_context_tokens,
            "seed": seed,
        }
        self.config = LLMTimeConfig(
            **{k: v for k, v in fields.items() if v is not None}
        )
        for name in self._PARAMS:
            setattr(self, name, getattr(self.config, name))
        self._history: np.ndarray | None = None
        self._vocabulary = digit_vocabulary()
        self._codec = DigitCodec(self.config.num_digits)
        self._digit_ids = self._vocabulary.ids_of("0123456789")
        self._separator_id = self._vocabulary.id_of(SEPARATOR)

    def fit(self, history) -> "LLMTime":
        """Store the history (zero-shot: there is nothing to train)."""
        values = np.asarray(history, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2:
            raise DataError(f"expected (n, d) history, got shape {values.shape}")
        self._history = values
        return self

    def predict(self, horizon: int) -> np.ndarray:
        """Point forecast ``(horizon, d)`` for the fitted history."""
        if self._history is None:
            raise FittingError("LLMTime used before fit()")
        return self.forecast(self._history, horizon).values

    def _constraint(self) -> PeriodicPatternConstraint:
        pattern = [self._digit_ids] * self.config.num_digits + [
            frozenset([self._separator_id])
        ]
        return PeriodicPatternConstraint(pattern)

    def forecast_univariate(
        self, history: np.ndarray, horizon: int, seed: int | None = None
    ) -> ForecastOutput:
        """Forecast one dimension; returns a (horizon, 1) output."""
        series = np.asarray(history, dtype=float)
        if series.ndim != 1:
            raise DataError(f"expected a 1-D history, got shape {series.shape}")
        if series.size < 4:
            raise DataError("history too short to forecast from")
        if horizon < 1:
            raise DataError(f"horizon must be >= 1, got {horizon}")
        config = self.config
        started = time.perf_counter()

        scaler = FixedDigitScaler(num_digits=config.num_digits).fit(series)
        codes = scaler.transform(series)
        tokens = render_token_stream(codes.tolist(), self._codec) + [SEPARATOR]
        prompt_ids = _truncate_to_group_boundary(
            self._vocabulary.encode(tokens),
            config.max_context_tokens,
            self._separator_id,
        )

        model = get_model(config.model, vocab_size=len(self._vocabulary))
        tokens_per_step = config.num_digits + 1
        needed = horizon * tokens_per_step
        constraint = self._constraint()
        rng = np.random.default_rng(config.seed if seed is None else seed)
        decoder = model.generate_batch(
            prompt_ids,
            needed,
            [
                np.random.default_rng(s)
                for s in child_seeds(rng, config.num_samples)
            ],
            constraint=constraint,
        )

        sample_values = np.empty((config.num_samples, horizon))
        generated_total = 0
        for s, result in enumerate(decoder.results):
            generated_total += len(result.tokens)
            parsed = parse_token_stream(
                self._vocabulary.decode(result.tokens), self._codec
            )
            values = scaler.inverse_transform(parsed)
            sample_values[s] = _fit_horizon(values, horizon, fallback=series[-1])

        samples = sample_values[:, :, None]
        point = aggregate_samples(samples, config.aggregation)
        simulated = config.num_samples * model.cost.seconds(
            len(prompt_ids), needed
        )
        return ForecastOutput(
            values=point,
            samples=samples,
            prompt_tokens=len(prompt_ids),
            generated_tokens=generated_total,
            simulated_seconds=simulated,
            wall_seconds=time.perf_counter() - started,
            model_name=config.model,
            metadata={"method": "llmtime"},
        )

    def forecast(
        self, history: np.ndarray, horizon: int, seed: int | None = None
    ) -> ForecastOutput:
        """Forecast every dimension independently and stack the results.

        Token counts and times are summed over dimensions, matching the
        paper's note that LLMTime's total time is "the sum of time needed
        per dimension".
        """
        values = np.asarray(history, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2:
            raise DataError(f"expected (n, d) history, got shape {values.shape}")
        base_seed = self.config.seed if seed is None else seed
        outputs = [
            self.forecast_univariate(values[:, i], horizon, seed=base_seed + i)
            for i in range(values.shape[1])
        ]
        return ForecastOutput(
            values=np.concatenate([o.values for o in outputs], axis=1),
            samples=np.concatenate([o.samples for o in outputs], axis=2),
            prompt_tokens=sum(o.prompt_tokens for o in outputs),
            generated_tokens=sum(o.generated_tokens for o in outputs),
            simulated_seconds=sum(o.simulated_seconds for o in outputs),
            wall_seconds=sum(o.wall_seconds for o in outputs),
            model_name=self.config.model,
            metadata={"method": "llmtime", "per_dimension": True},
        )


def _fit_horizon(values: np.ndarray, horizon: int, fallback: float) -> np.ndarray:
    """Truncate or pad a parsed forecast to exactly ``horizon`` values."""
    if values.size >= horizon:
        return values[:horizon]
    if values.size == 0:
        return np.full(horizon, fallback)
    pad = np.full(horizon - values.size, values[-1])
    return np.concatenate([values, pad])
