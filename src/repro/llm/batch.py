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
  the same per-stream generator the sequential path would use.  The step
  kernel :func:`~repro.llm.sampling.sample_step` filters all rows at
  once and draws each stream with one ``rng.random()`` and a right
  bisect (``Generator.choice``'s own algorithm); a slot whose constraint
  admits one id (the ``vi`` separator) is not scored, as that id has
  probability exactly 1.  Batched output therefore equals the sequential
  and pooled paths token for token and log-prob for log-prob (pinned by
  ``tests/test_batched_decoding.py`` and the ``decode_equivalence`` fuzz
  family).

:class:`~repro.scheduling.ContinuousScheduler` keeps one decoder per
resident request and runs the same step, :func:`decode_step`, over all of
them at once.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import GenerationError
from repro.llm.constraints import Constraint
from repro.llm.interface import GenerationResult, LanguageModel
from repro.llm.sampling import forced_draw, mask_for_ids, sample_step
from repro.observability.spans import NULL_TRACER

__all__ = ["BatchedDecoder"]


#: One in-flight sample: its identity, RNG, and token budget.
_Stream = namedtuple("_Stream", ["index", "rng", "budget"])


@dataclass(slots=True, eq=False)
class _Group:
    """Streams sharing one generated prefix — and therefore one model."""

    model: LanguageModel
    streams: list[_Stream]
    tokens: list[int]
    log_probs: list[float]


def stream_budgets(
    rngs: Sequence[np.random.Generator], max_new_tokens: int | Sequence[int]
) -> list[int]:
    """Per-stream token budgets, validated against the stream count."""
    if len(rngs) == 0:
        raise GenerationError("a batch needs at least one stream")
    if isinstance(max_new_tokens, (int, np.integer)):
        budgets = [int(max_new_tokens)] * len(rngs)
    else:
        budgets = [int(b) for b in max_new_tokens]
    if len(budgets) != len(rngs):
        raise GenerationError(f"{len(rngs)} streams but {len(budgets)} token budgets")
    if any(budget < 0 for budget in budgets):
        raise GenerationError("max_new_tokens must be >= 0 for every stream")
    return budgets


def decode_step(decoders: Sequence["BatchedDecoder"]) -> None:
    """Advance every live group of every decoder by one token.

    Groups at a forced slot (the mask admits one id) take that id without
    being scored: it has probability exactly 1 after filtering, so each
    stream still spends one ``rng.random()`` (none when greedy) and
    records log-prob ``0.0``.  The other groups are scored with one
    ``next_distribution_batch`` call and sampled with one
    :func:`~repro.llm.sampling.sample_step` call per (model type,
    vocabulary, sampling settings).  Each group is then partitioned by
    token: the first-drawn partition keeps the group (its model advanced
    in place), later partitions fork the model first.
    """
    # Per group, in decoder then group order: its partitions by token.
    partitions: list[list[tuple[int, float, list[int]]]] = []
    batches: dict[tuple, tuple[list[int], list[_Group], list]] = {}
    for decoder in decoders:
        mask, forced = decoder._slot()
        if forced is not None:
            forced_draw(
                [s.rng for group in decoder.groups for s in group.streams],
                *decoder._sampling,
            )
            partitions += [
                [(forced, 1.0, list(range(len(group.streams))))]
                for group in decoder.groups
            ]
            continue
        for group in decoder.groups:
            model = group.model
            key = (type(model), model.vocab_size, decoder._sampling, mask is None)
            batch = batches.get(key)
            if batch is None:
                batch = batches[key] = ([], [], [])
            indices, groups, masks = batch
            indices.append(len(partitions))
            groups.append(group)
            masks.append(mask)
            partitions.append([])
    for (model_type, _, sampling, _), (indices, groups, masks) in batches.items():
        mask = masks[0]
        if mask is not None and any(item is not mask for item in masks):
            mask = np.stack(masks)
        step = sample_step(
            model_type.next_distribution_batch([group.model for group in groups]),
            [[stream.rng for stream in group.streams] for group in groups],
            *sampling,
            allowed_mask=mask,
        )
        for index, parts in zip(indices, step):
            partitions[index] = parts
    parts_of = iter(partitions)
    for decoder in decoders:
        next_groups: list[_Group] = []
        for group in decoder.groups:
            parts = next(parts_of)
            token, prob, members = parts[0]
            # Fork for the later partitions *before* the first one
            # advances the shared model in place.
            splits = [
                _Group(
                    model=group.model.fork(),
                    streams=[group.streams[member] for member in others],
                    tokens=group.tokens + [other],
                    log_probs=group.log_probs + [float(np.log(max(p, 1e-300)))],
                )
                for other, p, others in parts[1:]
            ]
            if splits:
                group.streams = [group.streams[member] for member in members]
            group.model.advance(token)
            group.tokens.append(token)
            group.log_probs.append(float(np.log(max(prob, 1e-300))))
            next_groups.append(group)
            for split in splits:
                split.model.advance(split.tokens[-1])
                next_groups.append(split)
        decoder.groups = next_groups
        decoder.position += 1


class BatchedDecoder:
    """Lockstep scheduler decoding S streams from one prefilled model.

    Parameters
    ----------
    model:
        A prefilled in-context model (e.g. the ``model`` of a
        :class:`~repro.llm.simulated.PrefilledSession`).  Treated as
        frozen: the decoder forks it once on construction and never
        mutates it, so one session can serve many decoders (and other
        consumers) concurrently.
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
        built once per pattern slot and shared across streams.

    After :meth:`decode`, the instance exposes the run's telemetry:
    ``results`` (per-stream :class:`GenerationResult`, ``None`` for
    streams abandoned by an early stop), ``occupancy`` (live streams per
    step), ``group_counts`` (distinct model states per step),
    ``steps`` and ``stopped``.  A caller stepping several decoders
    together (the continuous scheduler) calls :meth:`begin_step` on each
    and then :func:`decode_step` on the live ones, instead of
    :meth:`decode`; ``width`` is the number of streams still decoding.
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
        budgets = stream_budgets(rngs, max_new_tokens)
        streams = [_Stream(i, rng, b) for i, (rng, b) in enumerate(zip(rngs, budgets))]
        self.groups = [_Group(model.fork(), streams, [], [])]
        self.position = 0
        self._vocab_size = model.vocab_size
        self._constraint = constraint
        self._sampling = (temperature, top_k, top_p)
        self._slots: dict[frozenset[int], tuple[np.ndarray, int | None]] = {}
        self.batch_width = self.width = len(rngs)
        self._max_new_tokens = max(budgets)
        self._retire_at = min(budgets)
        self.results: list[GenerationResult | None] = [None] * len(rngs)
        self.occupancy: list[int] = []
        self.group_counts: list[int] = []
        self.steps = 0
        self.stopped = False

    def _slot(self) -> tuple[np.ndarray | None, int | None]:
        """This step's admissibility mask and, if it admits one id, that id
        (cached per pattern slot)."""
        if self._constraint is None:
            return None, None
        allowed = self._constraint.allowed_at(self.position)
        slot = self._slots.get(allowed)
        if slot is None:
            forced = int(next(iter(allowed))) if len(allowed) == 1 else None
            slot = (mask_for_ids(allowed, self._vocab_size), forced)
            self._slots[allowed] = slot
        return slot

    def begin_step(self, stop: Callable[[], bool] | None = None) -> bool:
        """Retire streams whose budget is met, poll ``stop`` and record the
        step's telemetry; False once no stream is left or ``stop`` fired."""
        if self.position >= self._retire_at:
            live: list[_Group] = []
            for group in self.groups:
                keep: list[_Stream] = []
                for stream in group.streams:
                    if stream.budget <= self.position:
                        self.results[stream.index] = GenerationResult(
                            tokens=list(group.tokens), log_probs=list(group.log_probs)
                        )
                    else:
                        keep.append(stream)
                if keep:
                    group.streams = keep
                    live.append(group)
            self.groups = live
            budgets = [stream.budget for group in live for stream in group.streams]
            self.width = len(budgets)
            self._retire_at = min(budgets, default=0)
        if not self.groups:
            return False
        if stop is not None and stop():
            self.stopped = True
            return False
        self.occupancy.append(self.width)
        self.group_counts.append(len(self.groups))
        return True

    def decode(
        self,
        tracer=None,
        stop: Callable[[], bool] | None = None,
        span_attributes: dict | None = None,
    ) -> list[GenerationResult | None]:
        """Run the lockstep loop to completion (or until ``stop`` fires).

        Each step is :meth:`begin_step` (retire streams whose budget is
        met, poll ``stop``) then :func:`decode_step`.  When ``stop``
        returns True the decode aborts, already-retired streams keep their
        results and still-live streams report ``None`` (the engine uses
        this to honour request deadlines with a partial ensemble).

        Emits one ``llm:decode_batch`` span carrying ``batch_width``,
        ``steps``, ``tokens_generated`` and mean occupancy/group counts.
        Returns ``self.results`` (stream order).
        """
        tracer = NULL_TRACER if tracer is None else tracer
        results = self.results
        with tracer.span(
            "llm:decode_batch",
            batch_width=self.batch_width,
            max_new_tokens=self._max_new_tokens,
            **(span_attributes or {}),
        ) as span:
            while self.begin_step(stop):
                decode_step([self])
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
