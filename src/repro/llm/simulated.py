"""Named simulated backend models and their registry.

A :class:`SimulatedLLM` bundles an in-context model class with the sampling
profile and latency that characterise a specific backend, so the rest of the
library selects models by name exactly as the paper selects LLaMA2 or Phi-2:

* ``"llama2-7b-sim"`` — deep context (PPM order 12), moderate temperature:
  the stronger model.  Slower per token (7B forward pass on CPU).
* ``"phi2-2.7b-sim"`` — shallow context (PPM order 2), high temperature:
  captures the paper's observation that Phi-2 follows the trend but drifts
  off-scale, roughly doubling RMSE (Table III, Fig. 2).  Faster per token.
* ``"ngram-sim"`` — the fixed-order n-gram stand-in (ablation).
* ``"uniform-sim"`` — no model at all (control).

New presets can be added with :func:`register_model`.

Prompt ingest is shared, not repeated: :meth:`SimulatedLLM.prefill` builds
(or fetches from an :class:`~repro.llm.state_cache.IngestStateCache`) a
:class:`PrefilledSession`, and :meth:`SimulatedLLM.generate_batch` decodes
every sample stream from that one session instead of re-ingesting the
prompt per sample — the substrate's equivalent of KV-cache prefix reuse.
:meth:`SimulatedLLM.generate` is the one-stream reference it is pinned
against: a fresh ingest and a plain per-token decode.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigError, GenerationError
from repro.llm.batch import BatchedDecoder
from repro.llm.constraints import Constraint
from repro.llm.cost import TokenCostModel
from repro.llm.ctw import CTWLanguageModel
from repro.llm.interface import GenerationResult, LanguageModel
from repro.llm.ngram import NgramBackoffLM, UniformLM
from repro.llm.ppm import PPMLanguageModel
from repro.llm.recency import RecencyPPMLanguageModel
from repro.llm.state_cache import IngestStateCache
from repro.llm.wrappers import ShiftBiasedLM
from repro.observability.spans import NULL_TRACER

__all__ = [
    "SimulatedLLM",
    "ModelSpec",
    "PrefilledSession",
    "register_model",
    "get_model",
    "available_models",
]


@dataclass(frozen=True)
class ModelSpec:
    """Recipe for constructing a named simulated model.

    ``realtime_scale`` optionally converts the cost model's *simulated*
    seconds into real ones: each call sleeps ``cost.seconds(...) *
    realtime_scale`` after its work, emulating the latency of a remote
    inference API.  The sleep releases the GIL, so this is what makes
    concurrent serving benchmarks representative of hosted backends; 0
    (the default) keeps generation as fast as the substrate.  Ingest
    latency is charged where ingest happens: a prefill that reuses a
    cached state only sleeps for the tokens it actually ingested, and a
    batched decode sleeps for one stream's decode steps.
    """

    name: str
    factory: Callable[[int], LanguageModel]
    temperature: float = 1.0
    top_p: float | None = None
    cost: TokenCostModel = field(default_factory=TokenCostModel)
    realtime_scale: float = 0.0
    description: str = ""


@dataclass
class PrefilledSession:
    """A prompt ingested once, ready to be forked by the decoders.

    Attributes
    ----------
    model:
        The prefilled in-context model.  **Frozen by contract** — consumers
        must :meth:`~repro.llm.interface.LanguageModel.fork` it before
        decoding, which is what makes one session safely shareable across
        decoders (and across threads).
    context:
        The prompt tokens the session is conditioned on.
    ingested_tokens:
        How many of those tokens this prefill actually ingested (0 on an
        exact cache hit, the suffix length on an incremental extension,
        ``len(context)`` on a miss).
    outcome:
        ``"fork"``, ``"extend"`` or ``"miss"`` — where the state came from.
    """

    model: LanguageModel
    context: tuple[int, ...]
    ingested_tokens: int
    outcome: str


class SimulatedLLM:
    """A named backend model: in-context LM + sampling profile + cost model.

    The object carries no decode state across calls — each :meth:`generate`
    conditions on exactly the prompt it is given, mirroring how a zero-shot
    API call carries no state between requests.  What *can* persist is the
    deterministic ingest work: pass ``state_cache`` (or a ``session`` from
    :meth:`prefill` to :meth:`generate_batch`) to reuse previously built
    in-context structure.
    """

    def __init__(
        self,
        spec: ModelSpec,
        vocab_size: int,
        state_cache: IngestStateCache | None = None,
    ) -> None:
        self.spec = spec
        self.vocab_size = vocab_size
        self.state_cache = state_cache

    @property
    def name(self) -> str:
        """The registry preset name (e.g. ``"llama2-7b-sim"``)."""
        return self.spec.name

    @property
    def cost(self) -> TokenCostModel:
        """The preset's simulated-seconds cost model."""
        return self.spec.cost

    def _sleep(self, prompt_tokens: int, generated_tokens: int) -> None:
        if self.spec.realtime_scale > 0.0:
            time.sleep(
                self.spec.cost.seconds(prompt_tokens, generated_tokens)
                * self.spec.realtime_scale
            )

    def prefill(
        self,
        context: Sequence[int],
        tracer=None,
        state_cache: IngestStateCache | None = None,
    ) -> PrefilledSession:
        """Ingest ``context`` once, reusing cached state where possible.

        With a cache (the ``state_cache`` argument, falling back to the
        instance's), an exact hit skips ingest entirely (outcome
        ``"fork"``), a strict-prefix hit forks the cached state and
        advances only the new suffix (``"extend"``), and a miss ingests in
        full; the resulting state is deposited back for future calls.
        Emits one ``llm:ingest`` span whose ``ingest`` attribute records
        the outcome and whose ``ingested_tokens`` records the work actually
        done — which is also all the realtime latency charged.
        """
        tracer = NULL_TRACER if tracer is None else tracer
        cache = self.state_cache if state_cache is None else state_cache
        prompt = tuple(int(t) for t in context)
        lookup = None
        if cache is not None and cache.enabled:
            lookup = cache.get(self.name, self.vocab_size, prompt)
        outcome = "miss" if lookup is None else lookup.outcome
        with tracer.span(
            "llm:ingest",
            context_tokens=len(prompt),
            ingest=outcome,
        ) as span:
            if lookup is not None and lookup.outcome == "fork":
                model = lookup.model
                ingested = 0
            elif lookup is not None and lookup.outcome == "extend":
                model = lookup.model  # already a private fork
                model.extend(prompt[lookup.matched :])
                ingested = len(prompt) - lookup.matched
                cache.put(self.name, self.vocab_size, prompt, model)
            else:
                model = self.spec.factory(self.vocab_size)
                ingested = len(prompt)
                if cache is not None:
                    # Deposits doubling-boundary checkpoints along the way,
                    # so later *shorter* queries of this prompt can extend
                    # from the longest cached prefix instead of missing.
                    cache.ingest(self.name, self.vocab_size, prompt, model)
                else:
                    model.reset(prompt)
            span.set_attribute("ingested_tokens", ingested)
            self._sleep(ingested, 0)
        return PrefilledSession(
            model=model, context=prompt, ingested_tokens=ingested, outcome=outcome
        )

    def generate(
        self,
        context: Sequence[int],
        max_new_tokens: int,
        rng: np.random.Generator,
        constraint: Constraint | None = None,
        temperature: float | None = None,
        tracer=None,
    ) -> GenerationResult:
        """One constrained sample of ``max_new_tokens`` continuation tokens.

        The per-stream reference: a fresh model ingests ``context`` and
        decodes one token at a time.  Forecasting never calls it — the
        forecaster, tasks and baselines decode through
        :meth:`generate_batch` — but tests and the fuzz harness pin every
        batched path against it, so it stays deliberately plain.

        ``temperature`` overrides the preset's sampling temperature for this
        call (tasks like imputation decode more conservatively than
        forecasting).  ``tracer`` wraps the call in an ``llm:generate``
        span (naming the backend preset) with the ``llm:ingest`` /
        ``llm:decode`` phases nested beneath it.
        """
        tracer = NULL_TRACER if tracer is None else tracer
        with tracer.span(
            "llm:generate",
            model=self.name,
            context_tokens=len(context),
            max_new_tokens=max_new_tokens,
        ) as span:
            model = self.spec.factory(self.vocab_size)
            result = model.generate(
                context,
                max_new_tokens,
                rng,
                constraint=constraint,
                temperature=(
                    self.spec.temperature if temperature is None else temperature
                ),
                top_p=self.spec.top_p,
                tracer=tracer,
            )
            self._sleep(len(context), len(result.tokens))
            span.set_attribute("tokens_generated", len(result.tokens))
        return result

    def generate_batch(
        self,
        context: Sequence[int],
        max_new_tokens: int | Sequence[int],
        rngs: Sequence[np.random.Generator],
        constraint: Constraint | None = None,
        temperature: float | None = None,
        tracer=None,
        session: PrefilledSession | None = None,
        state_cache: IngestStateCache | None = None,
        stop=None,
    ) -> BatchedDecoder:
        """Decode one constrained continuation per RNG, in lockstep.

        The batched counterpart of calling :meth:`generate` once per
        sample: all streams fork from one prefilled session (``session``
        if given, else an internal :meth:`prefill`) and advance together
        through a :class:`~repro.llm.batch.BatchedDecoder`, which emits
        the ``llm:decode_batch`` span.  Under the same per-stream RNGs the
        results are bit-identical to per-sample :meth:`generate` calls.

        ``stop`` is an optional zero-argument callable polled between
        steps (deadline enforcement); when it fires, unfinished streams
        report ``None``.  Realtime latency is charged for one stream's
        decode steps — the whole point of batching is that the S streams
        share each model pass.  Returns the decoder, whose ``results``,
        ``occupancy`` and ``group_counts`` carry the outcome.
        """
        tracer = NULL_TRACER if tracer is None else tracer
        prompt = tuple(int(t) for t in context)
        if session is None:
            session = self.prefill(prompt, tracer=tracer, state_cache=state_cache)
        elif session.context != prompt:
            raise GenerationError(
                "prefilled session does not match the generate_batch() context"
            )
        decoder = BatchedDecoder(
            session.model,
            rngs,
            max_new_tokens,
            constraint=constraint,
            temperature=(
                self.spec.temperature if temperature is None else temperature
            ),
            top_p=self.spec.top_p,
        )
        decoder.decode(
            tracer=tracer, stop=stop, span_attributes={"model": self.name}
        )
        self._sleep(0, decoder.steps)
        return decoder

    def sequence_nll(
        self, tokens: Sequence[int], context: Sequence[int] = ()
    ) -> np.ndarray:
        """Per-token NLL under a fresh in-context model (anomaly scoring)."""
        model = self.spec.factory(self.vocab_size)
        return model.sequence_nll(tokens, context)

    def __repr__(self) -> str:
        return f"SimulatedLLM({self.name!r}, vocab_size={self.vocab_size})"


_REGISTRY: dict[str, ModelSpec] = {}


def register_model(spec: ModelSpec, overwrite: bool = False) -> None:
    """Add a model preset to the registry."""
    if spec.name in _REGISTRY and not overwrite:
        raise ConfigError(f"model {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec


def get_model(
    name: str, vocab_size: int, state_cache: IngestStateCache | None = None
) -> SimulatedLLM:
    """Instantiate a registered preset for a given vocabulary size.

    ``state_cache`` attaches a shared ingest-state cache so the instance's
    :meth:`~SimulatedLLM.prefill` calls reuse prompt state across requests.
    """
    try:
        spec = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigError(f"unknown model {name!r}; available: {known}") from None
    return SimulatedLLM(spec, vocab_size, state_cache=state_cache)


def available_models() -> list[str]:
    """Names of all registered presets."""
    return sorted(_REGISTRY)


register_model(
    ModelSpec(
        name="llama2-7b-sim",
        factory=lambda v: PPMLanguageModel(v, max_order=12),
        temperature=1.0,
        top_p=None,
        cost=TokenCostModel(seconds_per_generated_token=0.5),
        description="LLaMA2-7B stand-in: deep in-context induction (PPM-12).",
    )
)
register_model(
    ModelSpec(
        name="phi2-2.7b-sim",
        factory=lambda v: ShiftBiasedLM(
            PPMLanguageModel(v, max_order=1, uniform_floor=5e-2),
            shift_weight=0.8,
            shift_steps=5,
        ),
        temperature=1.5,
        top_p=None,
        cost=TokenCostModel(seconds_per_generated_token=0.2),
        description=(
            "Phi-2 stand-in: shallow context (PPM-1), noisy sampling, and a "
            "systematic upward decoding bias; tracks trends but sits 1-2 "
            "units off-scale, roughly doubling RMSE (paper Table III, Fig. 2b)."
        ),
    )
)
register_model(
    ModelSpec(
        name="ctw-sim",
        factory=lambda v: CTWLanguageModel(v, depth=8),
        temperature=1.0,
        cost=TokenCostModel(seconds_per_generated_token=0.5),
        description=(
            "Context Tree Weighting: exact Bayesian mixture over all tree "
            "sources up to depth 8 — the theoretically optimal in-context "
            "predictor family (lower code length than PPM on noisy streams)."
        ),
    )
)
register_model(
    ModelSpec(
        name="ppm-recency-sim",
        factory=lambda v: RecencyPPMLanguageModel(v, max_order=12, halflife=400.0),
        temperature=1.0,
        cost=TokenCostModel(seconds_per_generated_token=0.5),
        description=(
            "Recency-weighted PPM: like the llama2 preset but with "
            "exponentially decayed counts, tracking regime changes."
        ),
    )
)
register_model(
    ModelSpec(
        name="ngram-sim",
        factory=lambda v: NgramBackoffLM(v, order=5, alpha=0.5),
        temperature=0.8,
        cost=TokenCostModel(seconds_per_generated_token=0.3),
        description="Fixed-order interpolated n-gram stand-in (ablation).",
    )
)
register_model(
    ModelSpec(
        name="uniform-sim",
        factory=UniformLM,
        temperature=1.0,
        cost=TokenCostModel(seconds_per_generated_token=0.1),
        description="Uniform control model — ignores its context.",
    )
)
