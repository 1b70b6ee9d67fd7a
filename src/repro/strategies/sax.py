"""The SAX strategy: symbol-per-segment prompting (paper Section III-B).

Each dimension is SAX-quantized first (PAA on the time axis, Gaussian
breakpoints on the value axis) so one symbol replaces ``num_digits`` digit
tokens per timestamp — the paper's >10× execution-time lever — and the
multiplexers run unchanged over symbol cells.  This is the pre-strategy
``MultiCastForecaster`` SAX path moved behind the
:class:`~repro.strategies.base.PromptStrategy` interface; outputs are bit
identical to the legacy path under the same seed.
"""

from __future__ import annotations

import numpy as np

from repro.core.aggregation import aggregate_samples
from repro.core.config import SaxConfig
from repro.core.multiplex import SaxSymbolCodec
from repro.core.output import ForecastOutput
from repro.encoding import SEPARATOR, sax_vocabulary
from repro.sax.encoder import SaxEncoder
from repro.sax.paa import num_segments
from repro.strategies.base import PromptStrategy, StrategyContext

__all__ = ["SaxStrategy"]


class SaxStrategy(PromptStrategy):
    """SAX symbols through the configured multiplexer (paper SAX path)."""

    name = "sax"

    def forecast(
        self,
        values: np.ndarray,
        horizon: int,
        seed: int | None,
        context: StrategyContext,
    ) -> ForecastOutput:
        """Quantize per dimension → multiplex symbols → generate → decode."""
        config = context.config
        clock = context.clock
        multiplexer = context.multiplexer
        # Forcing strategy="sax" without SAX settings uses the paper's
        # Table II defaults; "default" resolution always has config.sax.
        sax = config.sax if config.sax is not None else SaxConfig()
        n, d = values.shape
        alphabet = sax.alphabet()

        with clock.stage("scale"):
            encoders = []
            words = []
            for k in range(d):
                encoder = SaxEncoder(
                    sax.segment_length, alphabet, reconstruction=sax.reconstruction
                ).fit(values[:, k])
                encoders.append(encoder)
                words.append(encoder.encode(values[:, k]))

            codec = SaxSymbolCodec(alphabet)
            # Symbol indices per segment per dimension: the SAX "code matrix".
            symbol_codes = np.asarray(
                [[alphabet.index_of(s) for s in word] for word in words],
                dtype=np.int64,
            ).T
            symbol_codes = context.truncate_rows(symbol_codes, width=1)

        with clock.stage("multiplex") as mux_span:
            vocabulary = sax_vocabulary(alphabet.symbols)
            stream = multiplexer.mux(symbol_codes, codec) + [SEPARATOR]
            prompt_ids = vocabulary.encode(stream)

            horizon_segments = num_segments(horizon, sax.segment_length)
            tokens_needed = (
                horizon_segments * multiplexer.tokens_per_timestamp(d, 1)
            )
            constraint = context.constraint(vocabulary, alphabet.symbols, d, 1)
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
                    tokens, d, codec, row_offset=symbol_codes.shape[0]
                )
                rows = context.fit_rows(
                    rows.astype(float),
                    horizon_segments,
                    d,
                    fallback=symbol_codes[-1].astype(float),
                ).astype(int)
                for k in range(d):
                    symbols = [alphabet.symbols[i] for i in rows[:, k]]
                    decoded = encoders[k].decode(
                        symbols, n=horizon_segments * sax.segment_length
                    )
                    sample_values[s, :, k] = decoded[:horizon]

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
                "sax": True,
                "strategy": self.name,
                "segment_length": sax.segment_length,
                "alphabet_size": sax.alphabet_size,
                "alphabet_kind": sax.alphabet_kind,
                "requested_samples": config.num_samples,
                "completed_samples": len(streams),
                **ingest_info,
            },
        )
