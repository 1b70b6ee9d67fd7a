"""The language-model substrate.

The paper runs LLaMA2-7B and Phi-2 through the Hugging Face API; this
offline reproduction replaces them with from-scratch *in-context* language
models over the same constrained token vocabulary (see DESIGN.md, section 2):

* :class:`~repro.llm.ppm.PPMLanguageModel` — variable-order prediction by
  partial matching, the main stand-in for an LLM's in-context pattern
  induction on numeric token streams;
* :class:`~repro.llm.ngram.NgramBackoffLM` — fixed-order interpolated n-gram;
* :class:`~repro.llm.simulated.SimulatedLLM` — a named wrapper adding the
  sampling profile (temperature/top-p) and a per-token latency model, with
  registry presets ``"llama2-7b-sim"`` and ``"phi2-2.7b-sim"``.

Generation is token-by-token with a hard vocabulary constraint, exactly like
LLMTime's logit mask restricting output to ``[0-9,]``.

Prompt ingest is deterministic, so it is shared rather than repeated:
``LanguageModel.fork()`` snapshots in-context state, ``SimulatedLLM.prefill``
ingests a prompt once per request, and
:class:`~repro.llm.state_cache.IngestStateCache` reuses (and incrementally
extends) prefilled state across requests — the substrate's analogue of
KV-cache prefix reuse.
"""

from repro.llm.interface import GenerationResult, LanguageModel
from repro.llm.batch import BatchedDecoder
from repro.llm.constraints import (
    Constraint,
    PeriodicPatternConstraint,
    SetConstraint,
)
from repro.llm.sampling import (
    child_generators,
    child_seeds,
    filter_distribution,
    mask_for_ids,
    sample_from_distribution,
    sample_step,
)
from repro.llm.ppm import PPMLanguageModel
from repro.llm.ngram import NgramBackoffLM, UniformLM
from repro.llm.wrappers import ShiftBiasedLM
from repro.llm.cost import TokenCostModel
from repro.llm.perplexity import bits_per_token, rank_models_by_perplexity
from repro.llm.simulated import (
    ModelSpec,
    PrefilledSession,
    SimulatedLLM,
    available_models,
    get_model,
    register_model,
)
from repro.llm.state_cache import IngestLookup, IngestStateCache

__all__ = [
    "LanguageModel",
    "GenerationResult",
    "Constraint",
    "SetConstraint",
    "PeriodicPatternConstraint",
    "sample_from_distribution",
    "sample_step",
    "filter_distribution",
    "mask_for_ids",
    "BatchedDecoder",
    "child_seeds",
    "child_generators",
    "PPMLanguageModel",
    "NgramBackoffLM",
    "UniformLM",
    "ShiftBiasedLM",
    "TokenCostModel",
    "bits_per_token",
    "rank_models_by_perplexity",
    "SimulatedLLM",
    "ModelSpec",
    "PrefilledSession",
    "IngestLookup",
    "IngestStateCache",
    "get_model",
    "register_model",
    "available_models",
]
