"""The per-step digit strategy: the paper's raw pipeline (Section III-A).

Each timestamp of each dimension is rescaled to a fixed digit budget and
serialised digit-by-digit through the configured multiplexer — exactly the
pre-strategy ``MultiCastForecaster`` raw path, moved behind the
:class:`~repro.strategies.base.PromptStrategy` interface.  Outputs are bit
identical to the legacy path under the same seed (pinned by
``tests/test_strategies.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.aggregation import aggregate_samples
from repro.core.output import ForecastOutput
from repro.encoding import SEPARATOR, DigitCodec, digit_vocabulary
from repro.scaling import FixedDigitScaler, MultivariateScaler
from repro.strategies.base import PromptStrategy, StrategyContext

__all__ = ["DigitStrategy"]


class DigitStrategy(PromptStrategy):
    """Per-step digits through the configured multiplexer (paper raw path)."""

    name = "digit"

    def forecast(
        self,
        values: np.ndarray,
        horizon: int,
        seed: int | None,
        context: StrategyContext,
    ) -> ForecastOutput:
        """Rescale → multiplex digits → generate → demultiplex → descale."""
        config = context.config
        clock = context.clock
        multiplexer = context.multiplexer
        n, d = values.shape

        with clock.stage("scale"):
            scaler = MultivariateScaler(
                lambda: FixedDigitScaler(num_digits=config.num_digits)
            ).fit(values)
            codes = scaler.transform(values).astype(np.int64)
            codes = context.truncate_rows(codes, config.num_digits)

        with clock.stage("multiplex") as mux_span:
            codec = DigitCodec(config.num_digits)
            vocabulary = digit_vocabulary()
            stream = multiplexer.mux(codes, codec) + [SEPARATOR]
            prompt_ids = vocabulary.encode(stream)
            tokens_needed = horizon * multiplexer.tokens_per_timestamp(
                d, config.num_digits
            )
            constraint = context.constraint(
                vocabulary, "0123456789", d, config.num_digits
            )
            mux_span.set_attribute("prompt_tokens", len(prompt_ids))
            mux_span.set_attribute("tokens_needed", tokens_needed)

        with clock.stage("generate"):
            streams, generated, simulated, ingest_info = context.run_samples(
                vocabulary, prompt_ids, tokens_needed, constraint, seed
            )

        with clock.stage("demultiplex"):
            sample_values = np.empty((len(streams), horizon, d))
            for s, tokens in enumerate(streams):
                rows = multiplexer.demux(
                    tokens, d, codec, row_offset=codes.shape[0]
                )
                rows = context.fit_rows(
                    rows.astype(float), horizon, d, fallback=codes[-1].astype(float)
                )
                sample_values[s] = scaler.inverse_transform(rows)

        with clock.stage("aggregate"):
            point = aggregate_samples(sample_values, config.aggregation)
        return ForecastOutput(
            values=point,
            samples=sample_values,
            prompt_tokens=len(prompt_ids),
            generated_tokens=generated,
            simulated_seconds=simulated,
            model_name=config.model,
            metadata={
                "method": f"multicast-{multiplexer.name}",
                "sax": False,
                "strategy": self.name,
                "requested_samples": config.num_samples,
                "completed_samples": len(streams),
                **ingest_info,
            },
        )
