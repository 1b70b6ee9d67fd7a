"""Token-level batched decoding for sample ensembles.

MultiCast's point forecast is the per-timestamp median over S i.i.d.
constrained continuations of *one* prompt, so a request decodes S streams
that differ only in their sampling RNG.  The sequential and thread-pooled
paths advance each stream's own token loop — S full passes over the model
per step.  :class:`BatchedDecoder` advances all streams in lockstep
instead (iteration-level batching, as in Orca-style LLM serving): one
vectorised :meth:`~repro.llm.interface.LanguageModel.next_distribution_batch`
call per step scores every live stream, each stream samples from its row
with its own seed-derived generator, and streams that hit their token
budget retire from the batch immediately (no padding waste).

Two substrate properties make this cheap *and* exact:

* **Determinism** — a model's state is a pure function of (prefilled
  prompt + generated tokens), so streams whose generated prefixes are
  equal share bit-identical model state.  The scheduler therefore keeps
  one model per *group* of streams with the same prefix, scoring each
  distinct state once per step and forking (copy-on-write, from PR 3)
  only when sampled tokens split a group.  Early in a decode — and for
  the whole decode at low temperatures — the batch collapses to a
  handful of groups, which is where the ≥3× win over the pooled path
  comes from (see ``benchmarks/bench_batching.py``).
* **Bit-identity** — every stream samples from a distribution row that
  is bit-identical to a per-stream ``next_distribution()`` call, with
  the same per-stream generator the sequential path would use.  The
  deterministic half of sampling
  (:func:`~repro.llm.sampling.filter_distribution`) runs once per group,
  and :func:`~repro.llm.sampling.draw_tokens` then draws every stream of
  the group from one shared CDF: it replays ``Generator.choice``'s own
  algorithm (one ``rng.random()`` and a right bisect per stream), so each
  generator is consumed exactly as
  :func:`~repro.llm.sampling.sample_from_distribution` consumes it.
  Batched output therefore equals the sequential and pooled paths token
  for token and log-prob for log-prob (pinned by
  ``tests/test_batched_decoding.py`` and the ``decode_equivalence`` fuzz
  family).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.exceptions import GenerationError
from repro.llm.constraints import Constraint
from repro.llm.interface import GenerationResult, LanguageModel
from repro.llm.sampling import draw_tokens, filter_distribution, mask_for_ids
from repro.observability.spans import NULL_TRACER

__all__ = ["BatchedDecoder"]


class _Stream:
    """One in-flight sample: its identity, RNG, and token budget."""

    __slots__ = ("index", "rng", "budget")

    def __init__(self, index: int, rng: np.random.Generator, budget: int) -> None:
        self.index = index
        self.rng = rng
        self.budget = budget


class _Group:
    """Streams sharing one generated prefix — and therefore one model."""

    __slots__ = ("model", "streams", "tokens", "log_probs")

    def __init__(
        self,
        model: LanguageModel,
        streams: list[_Stream],
        tokens: list[int],
        log_probs: list[float],
    ) -> None:
        self.model = model
        self.streams = streams
        self.tokens = tokens
        self.log_probs = log_probs


class BatchedDecoder:
    """Lockstep scheduler decoding S streams from one prefilled model.

    Parameters
    ----------
    model:
        A prefilled in-context model (e.g. the ``model`` of a
        :class:`~repro.llm.simulated.PrefilledSession`).  Treated as
        frozen: the decoder forks it once up front and never mutates it,
        so one session can serve many decoders (and other consumers)
        concurrently.
    rngs:
        One :class:`numpy.random.Generator` per stream, in stream order —
        the same seed-derived generators the sequential path would use
        (see :func:`~repro.llm.sampling.child_seeds`).
    max_new_tokens:
        Per-stream token budget: one int shared by all streams, or a
        sequence with one budget per stream.  A stream retires the moment
        its budget is reached.
    constraint, temperature, top_k, top_p:
        As in :meth:`~repro.llm.interface.LanguageModel.decode`, applied
        identically to every stream.  The constraint's admissible mask is
        computed once per step and shared across streams.

    After :meth:`decode`, the instance exposes the run's telemetry:
    ``results`` (per-stream :class:`GenerationResult`, ``None`` for
    streams abandoned by an early stop), ``occupancy`` (live streams per
    step), ``group_counts`` (distinct model states scored per step),
    ``steps`` and ``stopped``.
    """

    def __init__(
        self,
        model: LanguageModel,
        rngs: Sequence[np.random.Generator],
        max_new_tokens: int | Sequence[int],
        constraint: Constraint | None = None,
        temperature: float = 1.0,
        top_k: int | None = None,
        top_p: float | None = None,
    ) -> None:
        if len(rngs) == 0:
            raise GenerationError("a batch needs at least one stream")
        if isinstance(max_new_tokens, (int, np.integer)):
            budgets = [int(max_new_tokens)] * len(rngs)
        else:
            budgets = [int(b) for b in max_new_tokens]
        if len(budgets) != len(rngs):
            raise GenerationError(
                f"{len(rngs)} streams but {len(budgets)} token budgets"
            )
        if any(budget < 0 for budget in budgets):
            raise GenerationError("max_new_tokens must be >= 0 for every stream")
        self._model = model
        self._streams = [
            _Stream(i, rng, budget)
            for i, (rng, budget) in enumerate(zip(rngs, budgets))
        ]
        self._constraint = constraint
        self._temperature = temperature
        self._top_k = top_k
        self._top_p = top_p
        self._mask_cache: dict[frozenset[int], np.ndarray] = {}
        self.batch_width = len(rngs)
        self.results: list[GenerationResult | None] = [None] * len(rngs)
        self.occupancy: list[int] = []
        self.group_counts: list[int] = []
        self.steps = 0
        self.stopped = False

    def _mask_at(self, position: int) -> np.ndarray | None:
        """The step's shared admissibility mask (cached per pattern slot)."""
        if self._constraint is None:
            return None
        allowed = self._constraint.allowed_at(position)
        mask = self._mask_cache.get(allowed)
        if mask is None:
            mask = mask_for_ids(allowed, self._model.vocab_size)
            self._mask_cache[allowed] = mask
        return mask

    def decode(
        self,
        tracer=None,
        stop: Callable[[], bool] | None = None,
        span_attributes: dict | None = None,
    ) -> list[GenerationResult | None]:
        """Run the lockstep loop to completion (or until ``stop`` fires).

        Each step: retire streams whose budget is met, score the distinct
        model states with one ``next_distribution_batch`` call, sample one
        token per live stream from its row with its own RNG, then
        partition each group by sampled token — the first partition keeps
        the group's model (advanced in place), later partitions fork it
        first.  ``stop`` is polled between steps; when it returns True the
        decode aborts, already-retired streams keep their results and
        still-live streams report ``None`` (the engine uses this to honour
        request deadlines with a partial ensemble).

        Emits one ``llm:decode_batch`` span carrying ``batch_width``,
        ``steps``, ``tokens_generated`` and mean occupancy/group counts.
        Returns ``self.results`` (stream order).
        """
        tracer = NULL_TRACER if tracer is None else tracer
        results = self.results
        with tracer.span(
            "llm:decode_batch",
            batch_width=self.batch_width,
            max_new_tokens=max((s.budget for s in self._streams), default=0),
            **(span_attributes or {}),
        ) as span:
            root = _Group(
                model=self._model.fork(),
                streams=list(self._streams),
                tokens=[],
                log_probs=[],
            )
            groups = [root]
            position = 0
            while True:
                live: list[_Group] = []
                for group in groups:
                    keep: list[_Stream] = []
                    for stream in group.streams:
                        if stream.budget <= position:
                            results[stream.index] = GenerationResult(
                                tokens=list(group.tokens),
                                log_probs=list(group.log_probs),
                            )
                        else:
                            keep.append(stream)
                    if keep:
                        group.streams = keep
                        live.append(group)
                groups = live
                if not groups:
                    break
                if stop is not None and stop():
                    self.stopped = True
                    break
                self.occupancy.append(
                    sum(len(group.streams) for group in groups)
                )
                self.group_counts.append(len(groups))
                mask = self._mask_at(position)
                matrix = type(groups[0].model).next_distribution_batch(
                    [group.model for group in groups]
                )
                next_groups: list[_Group] = []
                for row, group in enumerate(groups):
                    # The deterministic filtering half of sampling depends
                    # only on the shared row, so it runs once per group;
                    # each stream then consumes its own RNG exactly as the
                    # sequential path's sample_from_distribution would.
                    p, greedy = filter_distribution(
                        matrix[row],
                        temperature=self._temperature,
                        top_k=self._top_k,
                        top_p=self._top_p,
                        allowed_mask=mask,
                    )
                    tokens = draw_tokens(
                        p, [stream.rng for stream in group.streams], greedy
                    )
                    buckets: dict[int, list[_Stream]] = {}
                    drawn: dict[int, float] = {}
                    for stream, token in zip(group.streams, tokens):
                        members = buckets.get(token)
                        if members is None:
                            buckets[token] = [stream]
                            drawn[token] = float(p[token])
                        else:
                            members.append(stream)
                    items = list(buckets.items())
                    # Fork for the later partitions *before* the first one
                    # advances the shared model in place.
                    forks = [group.model] + [
                        group.model.fork() for _ in items[1:]
                    ]
                    for (token, members), model in zip(items, forks):
                        model.advance(token)
                        next_groups.append(
                            _Group(
                                model=model,
                                streams=members,
                                tokens=group.tokens + [token],
                                log_probs=group.log_probs
                                + [float(np.log(max(drawn[token], 1e-300)))],
                            )
                        )
                groups = next_groups
                position += 1
            self.steps = len(self.occupancy)
            if span.is_recording:
                span.set_attribute("steps", self.steps)
                span.set_attribute(
                    "tokens_generated",
                    sum(len(r.tokens) for r in results if r is not None),
                )
                if self.occupancy:
                    span.set_attribute(
                        "mean_occupancy",
                        round(float(np.mean(self.occupancy)), 3),
                    )
                    span.set_attribute(
                        "mean_groups",
                        round(float(np.mean(self.group_counts)), 3),
                    )
                if self.stopped:
                    span.set_attribute("stopped", True)
        return results
