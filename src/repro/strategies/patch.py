"""The patch-aggregate strategy: per-patch summary stats instead of digits.

Patch-based prompting (arXiv 2506.12953) observes that an LLM forecaster
does not need every timestamp spelled out: aggregating each
``patch_length``-step window to one summary statistic (the PAA mean,
reusing :mod:`repro.sax.paa`) divides both the prompt and the generated
token count by roughly the patch length while keeping the digit
serialisation — so the cut *compounds* with SAX-style alphabet tricks and
with batched decoding (see ``benchmarks/bench_strategies.py``).

The history's trailing partial patch is aggregated over exactly the values
it contains (:func:`~repro.sax.paa.paa`'s exact last-frame weighting — see
:func:`~repro.sax.paa.paa_weights`), never zero-padded; the model forecasts
``ceil(horizon / patch_length)`` patch rows and each generated patch mean
is expanded piecewise-constant over its window, truncated to the horizon.
"""

from __future__ import annotations

import numpy as np

from repro.core.aggregation import aggregate_samples
from repro.core.output import ForecastOutput
from repro.encoding import SEPARATOR, DigitCodec, digit_vocabulary
from repro.sax.paa import num_segments, paa
from repro.scaling import FixedDigitScaler, MultivariateScaler
from repro.strategies.base import PromptStrategy, StrategyContext

__all__ = ["PatchAggregateStrategy"]


class PatchAggregateStrategy(PromptStrategy):
    """PAA patch means, digit-serialised: ~``patch_length``× fewer tokens."""

    name = "patch"

    def forecast(
        self,
        values: np.ndarray,
        horizon: int,
        seed: int | None,
        context: StrategyContext,
    ) -> ForecastOutput:
        """Aggregate patches → multiplex digits → generate → expand patches."""
        config = context.config
        clock = context.clock
        multiplexer = context.multiplexer
        n, d = values.shape
        patch = config.patch_length

        with clock.stage("scale"):
            # (k, d) matrix of per-patch means; the trailing partial patch
            # averages only the values it actually contains.
            patch_means = np.stack(
                [paa(values[:, k], patch) for k in range(d)], axis=1
            )
            scaler = MultivariateScaler(
                lambda: FixedDigitScaler(num_digits=config.num_digits)
            ).fit(patch_means)
            codes = scaler.transform(patch_means).astype(np.int64)
            codes = context.truncate_rows(codes, config.num_digits)

        with clock.stage("multiplex") as mux_span:
            codec = DigitCodec(config.num_digits)
            vocabulary = digit_vocabulary()
            stream = multiplexer.mux(codes, codec) + [SEPARATOR]
            prompt_ids = vocabulary.encode(stream)
            horizon_patches = num_segments(horizon, patch)
            tokens_needed = horizon_patches * multiplexer.tokens_per_timestamp(
                d, config.num_digits
            )
            constraint = context.constraint(
                vocabulary, "0123456789", d, config.num_digits
            )
            mux_span.set_attribute("prompt_tokens", len(prompt_ids))
            mux_span.set_attribute("tokens_needed", tokens_needed)
            mux_span.set_attribute("patch_length", patch)

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
                    rows.astype(float),
                    horizon_patches,
                    d,
                    fallback=codes[-1].astype(float),
                )
                means = scaler.inverse_transform(rows)
                # Each patch mean holds over its window; the final patch
                # covers only the remainder of the horizon.
                sample_values[s] = np.repeat(means, patch, axis=0)[:horizon]

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
                "method": f"multicast-patch-{multiplexer.name}",
                "sax": False,
                "strategy": self.name,
                "patch_length": patch,
                "history_patches": int(codes.shape[0]),
                "horizon_patches": int(horizon_patches),
                "requested_samples": config.num_samples,
                "completed_samples": len(streams),
                **ingest_info,
            },
        )
