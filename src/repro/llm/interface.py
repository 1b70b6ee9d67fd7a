"""Abstract interface all language models in the substrate implement.

Models are *in-context*: they carry no trained weights, only structure built
from the prompt itself (this is the zero-shot setting — the only "training
data" is the serialised history).  The contract mirrors what MultiCast needs
from a Hugging Face model: next-token distributions over a fixed corpus-id
space, autoregressive constrained sampling, and sequence log-likelihoods.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import GenerationError
from repro.llm.constraints import Constraint
from repro.llm.sampling import sample_from_distribution
from repro.observability.spans import NULL_TRACER

__all__ = ["LanguageModel", "GenerationResult"]


@dataclass
class GenerationResult:
    """A sampled continuation plus accounting the cost model needs."""

    tokens: list[int]
    log_probs: list[float] = field(default_factory=list)

    @property
    def total_log_prob(self) -> float:
        """Sum of the per-token sampling log-probabilities."""
        return float(sum(self.log_probs))

    def __len__(self) -> int:
        return len(self.tokens)


class LanguageModel(ABC):
    """Autoregressive model over a dense corpus-id vocabulary.

    Subclasses implement the incremental session protocol:
    :meth:`reset` ingests a prompt, :meth:`next_distribution` returns the
    distribution for the next position, and :meth:`advance` feeds one more
    token (model output or forced).  The base class builds :meth:`generate`
    and :meth:`sequence_nll` on top of that protocol.
    """

    def __init__(self, vocab_size: int) -> None:
        if vocab_size < 2:
            raise GenerationError(f"vocab_size must be >= 2, got {vocab_size}")
        self.vocab_size = vocab_size

    @abstractmethod
    def reset(self, context: Sequence[int]) -> None:
        """Start a new session conditioned on ``context``."""

    @abstractmethod
    def next_distribution(self) -> np.ndarray:
        """Probability vector (sums to 1) for the next token."""

    @abstractmethod
    def advance(self, token: int) -> None:
        """Append ``token`` to the session and update internal structure."""

    def extend(self, tokens: Sequence[int]) -> None:
        """Append every token of ``tokens`` in order, as :meth:`advance` would.

        The ingest paths (prompt reset, cache extension, checkpointed
        prefill) feed whole chunks through here, so substrates that can
        count a chunk at once (PPM) override it; the result must equal
        per-token :meth:`advance`.
        """
        for token in tokens:
            self.advance(int(token))

    @classmethod
    def next_distribution_batch(
        cls, models: Sequence["LanguageModel"]
    ) -> np.ndarray:
        """Next-token distributions for several models as an ``(S, V)`` matrix.

        Row ``i`` is bit-identical to ``models[i].next_distribution()`` —
        that is the contract the batched decode scheduler
        (:class:`repro.llm.batch.BatchedDecoder`) relies on to stay
        deterministic with respect to one-stream decoding.  The base
        implementation simply stacks per-model calls; substrates with a
        vectorisable scoring tail (PPM, recency PPM, n-gram, uniform,
        shift-biased) override it to share work across rows, falling back
        to stacking whenever the batch mixes model types or parameters.
        """
        if not models:
            raise GenerationError("next_distribution_batch needs >= 1 model")
        return np.stack([model.next_distribution() for model in models])

    def fork(self) -> "LanguageModel":
        """A deep, independent copy of the current in-context state.

        Ingest is deterministic, so ``fork()`` after ingesting a prompt
        yields a model whose :meth:`next_distribution` and sampling
        behaviour are bit-identical to a fresh :meth:`reset` on the same
        prompt — without re-paying the O(n · order) ingest cost.  Mutating
        the fork (via :meth:`advance` / :meth:`generate`) never leaks back
        into the parent, and forking a frozen parent is thread-safe (it
        only reads), which is what lets one shared prefill serve a whole
        sample ensemble concurrently.

        The default implementation is a :func:`copy.deepcopy`; concrete
        models override it with structure-aware copies that are much
        faster than re-ingesting the prompt.
        """
        return copy.deepcopy(self)

    def _check_token(self, token: int) -> None:
        if not 0 <= token < self.vocab_size:
            raise GenerationError(
                f"token id {token} outside vocabulary of size {self.vocab_size}"
            )

    def generate(
        self,
        context: Sequence[int],
        max_new_tokens: int,
        rng: np.random.Generator,
        constraint: Constraint | None = None,
        temperature: float = 1.0,
        top_k: int | None = None,
        top_p: float | None = None,
        tracer=None,
    ) -> GenerationResult:
        """Sample a constrained continuation of ``context``.

        ``constraint`` restricts the admissible ids at each generated
        position (position 0 = first new token), reproducing the paper's
        "model's output is limited to producing only digits and commas".

        ``tracer`` splits the draw into an ``llm:ingest`` span (prompt →
        in-context structure; cost scales with context length) and an
        ``llm:decode`` span (the constrained sampling loop; cost scales
        with ``max_new_tokens``) — the two phases whose balance shifts
        between raw-digit and SAX pipelines.
        """
        if max_new_tokens < 0:
            raise GenerationError(f"max_new_tokens must be >= 0, got {max_new_tokens}")
        tracer = NULL_TRACER if tracer is None else tracer
        with tracer.span(
            "llm:ingest",
            context_tokens=len(context),
            ingested_tokens=len(context),
            ingest="miss",
        ):
            self.reset(context)
        return self.decode(
            max_new_tokens,
            rng,
            constraint=constraint,
            temperature=temperature,
            top_k=top_k,
            top_p=top_p,
            tracer=tracer,
        )

    def decode(
        self,
        max_new_tokens: int,
        rng: np.random.Generator,
        constraint: Constraint | None = None,
        temperature: float = 1.0,
        top_k: int | None = None,
        top_p: float | None = None,
        tracer=None,
    ) -> GenerationResult:
        """Sample ``max_new_tokens`` from the *current* session state.

        This is :meth:`generate` without the ingest phase: the session must
        already be conditioned (by :meth:`reset`, :meth:`advance`, or by
        :meth:`fork`-ing a prefilled model).  It is the per-stream
        reference the batched decoder (:class:`repro.llm.batch.BatchedDecoder`)
        is pinned against, and stays deliberately plain: it scores and
        filters every slot, forced separator slots included, and rebuilds
        the mask from ``allowed_ids`` on every token.
        """
        if max_new_tokens < 0:
            raise GenerationError(f"max_new_tokens must be >= 0, got {max_new_tokens}")
        tracer = NULL_TRACER if tracer is None else tracer
        tokens: list[int] = []
        log_probs: list[float] = []
        with tracer.span("llm:decode", max_new_tokens=max_new_tokens) as span:
            for position in range(max_new_tokens):
                probs = self.next_distribution()
                allowed = constraint.allowed_at(position) if constraint else None
                token, prob = sample_from_distribution(
                    probs,
                    rng,
                    temperature=temperature,
                    top_k=top_k,
                    top_p=top_p,
                    allowed_ids=allowed,
                )
                tokens.append(token)
                log_probs.append(float(np.log(max(prob, 1e-300))))
                self.advance(token)
            span.set_attribute("tokens_generated", len(tokens))
        return GenerationResult(tokens=tokens, log_probs=log_probs)

    def sequence_nll(
        self,
        tokens: Sequence[int],
        context: Sequence[int] = (),
    ) -> np.ndarray:
        """Per-token negative log-likelihood of ``tokens`` after ``context``.

        The anomaly-detection extension scores timestamps by this quantity:
        a value the in-context model finds surprising gets a high NLL.
        """
        self.reset(context)
        nll = np.empty(len(tokens), dtype=float)
        for i, token in enumerate(tokens):
            self._check_token(int(token))
            probs = self.next_distribution()
            nll[i] = -float(np.log(max(probs[int(token)], 1e-300)))
            self.advance(int(token))
        return nll
