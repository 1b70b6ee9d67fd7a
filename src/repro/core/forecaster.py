"""The MultiCast forecaster: the paper's full pipeline, end to end.

Raw path (Section III-A)::

    history (n, d) floats
      └─ FixedDigitScaler per dimension      → (n, d) integers
          └─ multiplexer (DI/VI/VC)          → one digit/comma token stream
              └─ corpus ids                  → LLM prompt
                  └─ constrained sampling ×S → S continuation streams
                      └─ demultiplex         → S × (h, d) integer matrices
                          └─ descale         → S × (h, d) float forecasts
                              └─ median      → (h, d) point forecast

SAX path (Section III-B): each dimension is SAX-quantized first (PAA on the
time axis, Gaussian breakpoints on the value axis), so one *symbol* per
segment replaces ``num_digits`` digit tokens per timestamp — the >10×
execution-time win of Tables VIII-IX — and the multiplexers run unchanged
over symbol cells.  Generated symbols are decoded back to piecewise-constant
values through the per-dimension encoder.

The serialisation half of both paths lives in :mod:`repro.strategies`
(``DigitStrategy`` and ``SaxStrategy``, plus the patch-aggregate,
decompose-then-forecast and auto strategies); the forecaster keeps the
sampling half — validation, seasonal adjustment, prompt ingest, the
ingest-state cache, lockstep batched decoding — and hands it to
the selected strategy through :class:`_StrategyContext`.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import replace

import numpy as np

from repro.core.config import MultiCastConfig
from repro.core.multiplex import Multiplexer, get_multiplexer
from repro.core.output import ForecastOutput
from repro.core.spec import ForecastSpec
from repro.core.timing import StageClock
from repro.decomposition import SeasonalAdjuster, estimate_period
from repro.encoding import SEPARATOR
from repro.encoding.vocabulary import Vocabulary
from repro.exceptions import ConfigError, DataError, GenerationError
from repro.llm import (
    Constraint,
    PeriodicPatternConstraint,
    SetConstraint,
    child_seeds,
    get_model,
)
from repro.llm.state_cache import IngestStateCache
from repro.observability.spans import NULL_TRACER

__all__ = ["MultiCastForecaster"]


class MultiCastForecaster:
    """Zero-shot multivariate forecaster driven by a (simulated) LLM.

    Example
    -------
    >>> from repro.core import ForecastSpec, MultiCastForecaster
    >>> from repro.data import gas_rate
    >>> history, future = gas_rate().train_test_split()
    >>> spec = ForecastSpec(series=history, horizon=len(future), scheme="di")
    >>> output = MultiCastForecaster().forecast(spec)
    >>> output.values.shape == future.shape
    True

    The prompt is ingested once per request and the whole sample ensemble
    decodes in lockstep from that one prefill; passing an
    :class:`~repro.llm.state_cache.IngestStateCache` additionally reuses
    prefilled state *across* requests (exact repeats fork it, extended
    histories advance only the new suffix).  Neither changes outputs:
    under a fixed seed, results are bit-identical to drawing each sample
    on its own from a fresh ingest of the prompt.
    """

    def __init__(
        self,
        config: MultiCastConfig | None = None,
        *,
        tracer=None,
        state_cache: IngestStateCache | None = None,
        stop: Callable[[], bool] | None = None,
    ) -> None:
        self.config = config or MultiCastConfig()
        self._multiplexer: Multiplexer = get_multiplexer(self.config.scheme)
        self._tracer = NULL_TRACER if tracer is None else tracer
        self._state_cache = state_cache
        self._stop = stop

    # -- public API -----------------------------------------------------------

    def forecast(self, spec: ForecastSpec, *, tracer=None) -> ForecastOutput:
        """Run one forecast described by a :class:`ForecastSpec`.

        The spec is self-contained: its pipeline fields replace the
        constructor's ``config`` entirely.  The constructor keeps only
        execution machinery: tracer, ingest-state cache, stop callable.

        ``tracer`` (defaulting to the constructor's, defaulting to the
        no-op :data:`~repro.observability.NULL_TRACER`) receives one
        ``forecast`` root span per call with a ``stage:*`` child per
        pipeline stage; the ``stage:generate`` span nests one
        ``llm:ingest`` and one ``llm:decode_batch`` span.  The root span's
        duration is *defined* as the sum of its stage spans — exactly
        :attr:`ForecastOutput.wall_seconds` — so the rendered trace and
        the flat ``timings`` dict never disagree.
        """
        if not isinstance(spec, ForecastSpec):
            raise ConfigError(
                "forecast() takes a ForecastSpec; the forecast(history, "
                "horizon) form was removed (see the migration guide in "
                "docs/API.md)"
            )
        spec.require_series()
        worker = MultiCastForecaster(
            spec.config,
            tracer=self._tracer,
            state_cache=self._state_cache,
            stop=self._stop,
        )
        return worker._forecast_impl(spec.series, spec.horizon, spec.seed, tracer)

    def _forecast_impl(
        self,
        history: np.ndarray,
        horizon: int,
        seed: int | None,
        tracer,
    ) -> ForecastOutput:
        """The pipeline body behind :meth:`forecast`."""
        if horizon is None:
            raise DataError("horizon must be provided")
        values = np.asarray(history, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2:
            raise DataError(f"expected (n, d) history, got shape {values.shape}")
        if values.shape[0] < 4:
            raise DataError("history too short to forecast from")
        if not np.isfinite(values).all():
            raise DataError("history contains NaN or inf")
        if horizon < 1:
            raise DataError(f"horizon must be >= 1, got {horizon}")

        # Deferred: repro.strategies imports core submodules, so a
        # module-level import here would cycle when the strategies
        # package is imported first.
        from repro.strategies.base import resolve_strategy

        tracer = self._tracer if tracer is None else tracer
        with tracer.span(
            "forecast",
            scheme=self._multiplexer.name,
            sax=self.config.sax is not None,
            model=self.config.model,
            horizon=int(horizon),
            dims=int(values.shape[1]),
            seed=int(self.config.seed if seed is None else seed),
        ) as root:
            clock = StageClock(tracer)
            adjusters = None
            if self.config.deseasonalize is not None:
                with clock.stage("deseasonalize"):
                    adjusters, values = self._seasonal_adjust(values)

            strategy = resolve_strategy(self.config.strategy, self.config)
            context = _StrategyContext(self, clock, tracer)
            output = strategy.forecast(values, horizon, seed, context)

            if adjusters is not None:
                with clock.stage("deseasonalize"):
                    self._seasonal_restore(output, adjusters)
            output.timings = dict(clock.timings)
            output.wall_seconds = clock.total
            if root.is_recording:
                root.set_attribute(
                    "completed_samples", output.metadata.get("completed_samples")
                )
                root.set_attribute("generated_tokens", output.generated_tokens)
                root.set_attribute("prompt_tokens", output.prompt_tokens)
                root.set_attribute("strategy", output.metadata.get("strategy"))
                root.set_attribute("wall_seconds", round(clock.total, 9))
                root.finish(at=root.start_time + clock.total)
        output.assert_timing_invariant()
        return output

    # -- optional seasonal adjustment (extension, DESIGN.md §6) ----------------

    def _seasonal_adjust(
        self, values: np.ndarray
    ) -> tuple[list[SeasonalAdjuster | None], np.ndarray]:
        """Strip each dimension's additive seasonal component.

        Dimensions with no detectable/usable seasonality keep a ``None``
        adjuster and pass through unchanged.
        """
        setting = self.config.deseasonalize
        n, d = values.shape
        adjusters: list[SeasonalAdjuster | None] = []
        adjusted = values.copy()
        for k in range(d):
            period = (
                estimate_period(values[:, k]) if setting == "auto" else int(setting)
            )
            if period < 2 or n < 2 * period:
                adjusters.append(None)
                continue
            adjuster = SeasonalAdjuster(period).fit(values[:, k])
            adjusters.append(adjuster)
            adjusted[:, k] = adjuster.adjust(values[:, k])
        return adjusters, adjusted

    @staticmethod
    def _seasonal_restore(
        output: ForecastOutput, adjusters: list[SeasonalAdjuster | None]
    ) -> None:
        """Add each dimension's periodic seasonal extrapolation back."""
        for k, adjuster in enumerate(adjusters):
            if adjuster is None:
                continue
            output.values[:, k] = adjuster.restore(output.values[:, k])
            for s in range(output.num_samples):
                output.samples[s, :, k] = adjuster.restore(output.samples[s, :, k])
        output.metadata["deseasonalized"] = [
            adjuster.period if adjuster else None for adjuster in adjusters
        ]

    # -- shared generation machinery -------------------------------------------

    def _constraint(
        self, vocabulary: Vocabulary, value_tokens: str | tuple[str, ...],
        num_dims: int, width: int,
    ) -> Constraint:
        value_ids = vocabulary.ids_of(value_tokens)
        if not self.config.structured_constraint:
            return SetConstraint(value_ids | {vocabulary.id_of(SEPARATOR)})
        pattern = self._multiplexer.constraint_pattern(
            num_dims, width, value_ids, vocabulary.id_of(SEPARATOR)
        )
        return PeriodicPatternConstraint(pattern)

    def _run_samples(
        self,
        vocabulary: Vocabulary,
        prompt_ids: list[int],
        tokens_needed: int,
        constraint: Constraint,
        seed: int | None,
        tracer,
    ) -> tuple[list[list[str]], int, float, dict]:
        """Draw the configured number of continuations.

        One :class:`~repro.llm.batch.BatchedDecoder` advances every stream
        in lockstep from one prefilled session (one ``llm:ingest`` and one
        ``llm:decode_batch`` span).  Each stream samples with its own child
        seed, drawn up front, so the ensemble equals S independent draws of
        the prompt.  The
        constructor's ``stop`` callable is polled between decode steps;
        when it fires the live streams are abandoned and, with no stream
        left, the forecast raises :class:`GenerationError`.

        Returns (decoded token streams, total generated tokens, simulated
        seconds, decode/ingest info dict).  Simulated seconds charge the
        prompt ingest once plus decode per completed sample — a
        deterministic cost model independent of cache state, so every run
        of one request reports identical costs.
        """
        config = self.config
        model = get_model(config.model, vocab_size=len(vocabulary))
        rng = np.random.default_rng(config.seed if seed is None else seed)
        seeds = child_seeds(rng, config.num_samples)

        session = model.prefill(
            prompt_ids, tracer=tracer, state_cache=self._state_cache
        )
        decoder = model.generate_batch(
            prompt_ids,
            tokens_needed,
            [np.random.default_rng(s) for s in seeds],
            constraint=constraint,
            temperature=config.temperature,
            tracer=tracer,
            session=session,
            stop=self._stop,
        )
        completed = [r for r in decoder.results if r is not None]
        if not completed:
            raise GenerationError("every sample stream was abandoned")
        streams = [vocabulary.decode(result.tokens) for result in completed]
        generated = sum(len(result.tokens) for result in completed)
        simulated = model.cost.seconds(len(prompt_ids), 0) + sum(
            model.cost.seconds(0, len(result.tokens)) for result in completed
        )
        info = {
            "ingest": session.outcome,
            "ingested_tokens": session.ingested_tokens,
            "batch_occupancy": list(decoder.occupancy),
            "batch_groups": list(decoder.group_counts),
        }
        return streams, generated, simulated, info

    def _truncate_rows(self, matrix: np.ndarray, width: int) -> np.ndarray:
        """Keep only the most recent rows whose stream fits the prompt budget."""
        per_row = self._multiplexer.tokens_per_timestamp(matrix.shape[1], width)
        max_rows = max(2, self.config.max_context_tokens // per_row)
        return matrix[-max_rows:]

    @staticmethod
    def _fit_rows(
        rows: np.ndarray, horizon: int, num_dims: int, fallback: np.ndarray
    ) -> np.ndarray:
        """Truncate or pad a demultiplexed sample to exactly ``horizon`` rows."""
        if rows.shape[0] >= horizon:
            return rows[:horizon]
        if rows.shape[0] == 0:
            return np.tile(np.asarray(fallback, dtype=float), (horizon, 1))
        pad = np.tile(rows[-1], (horizon - rows.shape[0], 1))
        return np.vstack([rows, pad])


class _StrategyContext:
    """:class:`~repro.strategies.base.StrategyContext` backed by a forecaster.

    Duck-typed rather than subclassed — the strategies package imports core
    submodules, so inheriting here would make the interface ABC part of an
    import cycle.  One context serves one request: it binds the request's
    stage clock and tracer over the forecaster's shared generation
    machinery.
    """

    def __init__(
        self,
        forecaster: MultiCastForecaster,
        clock: StageClock,
        tracer,
    ) -> None:
        self.config = forecaster.config
        self.clock = clock
        self.multiplexer = forecaster._multiplexer
        self._forecaster = forecaster
        self._tracer = tracer

    def run_samples(
        self, vocabulary, prompt_ids, tokens_needed, constraint, seed
    ):
        """Draw the sample ensemble (see `MultiCastForecaster._run_samples`)."""
        return self._forecaster._run_samples(
            vocabulary, prompt_ids, tokens_needed, constraint, seed,
            self._tracer,
        )

    def constraint(self, vocabulary, value_tokens, num_dims, width):
        """The generation constraint for the request's scheme and codec."""
        return self._forecaster._constraint(
            vocabulary, value_tokens, num_dims, width
        )

    def truncate_rows(self, matrix, width):
        """Drop old rows so the serialised prompt fits the token budget."""
        return self._forecaster._truncate_rows(matrix, width)

    def fit_rows(self, rows, horizon, num_dims, fallback):
        """Truncate or pad a demultiplexed sample to exactly ``horizon`` rows."""
        return self._forecaster._fit_rows(rows, horizon, num_dims, fallback)

    def subforecast(self, values, horizon, seed, label=""):
        """Run a nested forecast through the full request machinery.

        The sub-request shares the parent's ingest-state cache and stop
        callable — so it hits the ingest cache and the batched decoder
        exactly like a top-level request — but always runs the ``"default"`` strategy
        (composites never recurse) and never re-applies seasonal
        adjustment (the composite strategy owns seasonality).
        """
        parent = self._forecaster
        worker = MultiCastForecaster(
            replace(parent.config, strategy="default", deseasonalize=None),
            tracer=self._tracer,
            state_cache=parent._state_cache,
            stop=parent._stop,
        )
        with self._tracer.span("subforecast", label=label):
            return worker._forecast_impl(values, horizon, seed, self._tracer)
