"""Shared-prefix ingest-state cache: prefill once, fork forever after.

Prompt ingest — :meth:`~repro.llm.interface.LanguageModel.reset` — is the
substrate's analogue of LLM prefill: O(n · order) dictionary updates that
are re-paid from scratch on every call even though ingest is deterministic
and prompts repeat heavily in practice (every sample of an ensemble shares
one prompt; rolling-origin backtest windows and dashboard refreshes extend
each other).  Real serving stacks eliminate exactly this redundancy with
KV-cache / prefix reuse; this module is the in-context-model version.

An :class:`IngestStateCache` maps ``(model preset, vocab size, prompt
tokens)`` to a *prefilled* :class:`~repro.llm.interface.LanguageModel`.
Lookups resolve three ways:

* **fork** — the exact prompt is cached: callers fork the stored state and
  skip ingest entirely (O(state) instead of O(n · order) Python updates);
* **extend** — a cached prompt is a strict *prefix* of the new one (the
  rolling-origin case): the stored state is forked and only the suffix is
  advanced, turning O(n) prefill into O(Δ);
* **miss** — nothing usable is cached: the caller ingests in full and
  deposits the result for the next request.

In-context states cannot be *rewound*: a model prefilled on a long prompt
is useless for a strictly shorter query, even though that query is a
prefix of what was ingested.  :meth:`IngestStateCache.ingest` therefore
deposits **checkpoints** while it ingests — frozen snapshots at doubling
token boundaries (16, 32, 64, ...) — so a later shorter query resolves to
the longest cached prefix at or below its length instead of missing
outright.  This is the serving stack's one prefix cache: every engine,
sharded worker and backtest prefills through it.

Entries are LRU-evicted by total *token* count (not entry count), since a
prefilled state's memory footprint scales with its prompt length.  An
optional **spill tier** (``spill=``, duck-typed; see
:class:`repro.sharding.SpillStore`) turns eviction into demotion: evicted
states are serialized to a shared store, and a lookup that misses both
memory tiers consults it before reporting a miss — so prefill state
survives process restarts and migrates across sharded workers.

Thread-safety contract: cached models are **frozen** — :meth:`get` hands
back the shared instance (or a private fork for the extend case) and every
consumer must :meth:`~repro.llm.interface.LanguageModel.fork` before
mutating; :meth:`put` takes ownership of the deposited model, which the
caller must not advance afterwards.  :class:`~repro.llm.simulated.
SimulatedLLM.prefill` implements this discipline for you.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass

from repro.exceptions import ConfigError
from repro.llm.interface import LanguageModel

__all__ = ["IngestLookup", "IngestStateCache", "checkpoint_lengths"]

#: Shortest prefix worth snapshotting during ingest; below this the ingest
#: is cheaper than the bookkeeping.
CHECKPOINT_FLOOR = 16


def checkpoint_lengths(n: int) -> tuple[int, ...]:
    """Doubling snapshot boundaries strictly below ``n``.

    ``(16, 32, 64, ...)`` up to (excluding) ``n`` — O(log n) checkpoints
    that guarantee any future prefix query of length ``q >= 16`` finds a
    cached state covering at least ``q // 2`` tokens.
    """
    lengths = []
    length = CHECKPOINT_FLOOR
    while length < n:
        lengths.append(length)
        length *= 2
    return tuple(lengths)


@dataclass
class IngestLookup:
    """Outcome of one cache lookup.

    Attributes
    ----------
    model:
        A prefilled model covering ``matched`` prompt tokens, or ``None``
        on a miss.  For ``outcome == "fork"`` this is the *shared* cached
        instance — fork before mutating.  For ``"extend"`` it is a private
        fork the caller may advance (and should deposit back via ``put``).
    matched:
        Number of leading prompt tokens the returned state already covers.
    outcome:
        ``"fork"`` (exact hit), ``"extend"`` (strict-prefix hit) or
        ``"miss"``.
    """

    model: LanguageModel | None
    matched: int
    outcome: str


class IngestStateCache:
    """Thread-safe LRU of prefilled in-context models, bounded by tokens.

    Parameters
    ----------
    max_tokens:
        Total prompt-token budget across all entries; least-recently-used
        entries are evicted once the budget is exceeded.  ``0`` builds a
        disabled cache (every ``get`` misses, every ``put`` is dropped), so
        callers can switch caching off without branching.
    spill:
        Optional second tier (duck-typed; anything with
        ``store(model_name, vocab_size, tokens, model)`` and
        ``fetch(model_name, vocab_size, tokens) -> (model | None, matched)``
        — :class:`repro.sharding.SpillStore` is the shipped
        implementation).  Evicted entries are demoted into it, and
        lookups that miss memory consult it before reporting a miss.
    """

    def __init__(self, max_tokens: int = 262_144, *, spill=None) -> None:
        if max_tokens < 0:
            raise ConfigError(f"max_tokens must be >= 0, got {max_tokens}")
        self.max_tokens = max_tokens
        self.spill = spill
        self._spill_hits = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, LanguageModel] = OrderedDict()
        self._total_tokens = 0
        self._hits = 0
        self._extends = 0
        self._misses = 0
        self._evictions = 0
        self._tokens_saved = 0

    @property
    def enabled(self) -> bool:
        """False for a zero-budget cache (stores and lookups are no-ops)."""
        return self.max_tokens > 0

    @staticmethod
    def _key(model_name: str, vocab_size: int, tokens: tuple) -> tuple:
        return (model_name, int(vocab_size), tokens)

    def get(
        self, model_name: str, vocab_size: int, tokens: Sequence[int]
    ) -> IngestLookup:
        """Resolve a prompt against the cache.

        Prefers an exact match (``"fork"``); otherwise the *longest* cached
        strict prefix under the same ``(model_name, vocab_size)`` namespace
        (``"extend"``, returning a private fork prefilled to ``matched``
        tokens); otherwise the spill tier, when one is attached; otherwise
        a ``"miss"``.  A spill hit is promoted back into the memory tier.
        """
        prompt = tuple(int(t) for t in tokens)
        namespace = (model_name, int(vocab_size))
        parent = None
        best_length = 0
        with self._lock:
            if not self.enabled:
                self._misses += 1
                return IngestLookup(model=None, matched=0, outcome="miss")
            exact = self._entries.get(self._key(model_name, vocab_size, prompt))
            if exact is not None:
                self._entries.move_to_end(
                    self._key(model_name, vocab_size, prompt)
                )
                self._hits += 1
                self._tokens_saved += len(prompt)
                return IngestLookup(model=exact, matched=len(prompt), outcome="fork")
            best_key = None
            for key in self._entries:
                cached_tokens = key[2]
                if (
                    key[:2] == namespace
                    and best_length < len(cached_tokens) < len(prompt)
                    and prompt[: len(cached_tokens)] == cached_tokens
                ):
                    best_key, best_length = key, len(cached_tokens)
            if best_key is not None:
                self._entries.move_to_end(best_key)
                parent = self._entries[best_key]
                self._extends += 1
                self._tokens_saved += best_length
        if parent is not None:
            # Fork outside the lock: cached entries are frozen, so concurrent
            # forks are pure reads, and fork cost must not serialise readers.
            return IngestLookup(
                model=parent.fork(), matched=best_length, outcome="extend"
            )
        if self.spill is not None:
            loaded, matched = self.spill.fetch(model_name, vocab_size, prompt)
            if loaded is not None:
                outcome = "fork" if matched == len(prompt) else "extend"
                with self._lock:
                    if outcome == "fork":
                        self._hits += 1
                    else:
                        self._extends += 1
                    self._spill_hits += 1
                    self._tokens_saved += matched
                # Promote: the next lookup for this prompt should hit memory.
                self.put(model_name, vocab_size, prompt[:matched], loaded.fork())
                return IngestLookup(model=loaded, matched=matched, outcome=outcome)
        with self._lock:
            self._misses += 1
        return IngestLookup(model=None, matched=0, outcome="miss")

    def ingest(
        self,
        model_name: str,
        vocab_size: int,
        tokens: Sequence[int],
        model: LanguageModel,
    ) -> LanguageModel:
        """Ingest ``tokens`` into a *fresh* ``model``, depositing checkpoints.

        The miss-path counterpart of :meth:`get`: the prompt is ingested in
        full (bit-identical to ``model.reset(tokens)`` — ``extend`` after
        a prefix ``reset`` is the same contract the extend path already
        relies on), but frozen snapshots are deposited
        at :func:`checkpoint_lengths` boundaries along the way, plus the
        full prompt.  A later query for any *shorter* prefix of this
        prompt then resolves to the longest cached checkpoint at or below
        its length — previously such queries missed outright, because an
        end state cannot serve a shorter prefix.

        Returns the fully ingested model, which the cache owns (frozen);
        callers must fork before decoding, exactly as after :meth:`put`.
        """
        prompt = tuple(int(t) for t in tokens)
        if not self.enabled:
            model.reset(prompt)
            return model
        cursor = 0
        for boundary in checkpoint_lengths(len(prompt)):
            if cursor == 0:
                model.reset(prompt[:boundary])
            else:
                model.extend(prompt[cursor:boundary])
            cursor = boundary
            self.put(model_name, vocab_size, prompt[:boundary], model.fork())
        if cursor == 0:
            model.reset(prompt)
        else:
            model.extend(prompt[cursor:])
        self.put(model_name, vocab_size, prompt, model)
        return model

    def put(
        self,
        model_name: str,
        vocab_size: int,
        tokens: Sequence[int],
        model: LanguageModel,
    ) -> None:
        """Deposit a prefilled model, taking ownership of it.

        The caller must not mutate ``model`` afterwards (fork it instead).
        Prompts longer than the whole budget are not cached at all.  With a
        spill tier attached, entries this deposit evicts are demoted to it
        (serialized outside the lock) instead of destroyed.
        """
        prompt = tuple(int(t) for t in tokens)
        if not self.enabled or len(prompt) > self.max_tokens:
            return
        key = self._key(model_name, vocab_size, prompt)
        demoted = []
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = model
                return
            self._entries[key] = model
            self._total_tokens += len(prompt)
            while self._total_tokens > self.max_tokens:
                evicted_key, evicted_model = self._entries.popitem(last=False)
                self._total_tokens -= len(evicted_key[2])
                self._evictions += 1
                if self.spill is not None:
                    demoted.append((evicted_key, evicted_model))
        for (name, vocab, evicted_tokens), evicted_model in demoted:
            self.spill.store(name, vocab, evicted_tokens, evicted_model)

    def clear(self) -> None:
        """Drop every entry (hit/extend/miss statistics are kept)."""
        with self._lock:
            self._entries.clear()
            self._total_tokens = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def stats(self) -> dict:
        """Lookup/eviction accounting plus the prefill tokens saved."""
        with self._lock:
            lookups = self._hits + self._extends + self._misses
            return {
                "entries": len(self._entries),
                "total_tokens": self._total_tokens,
                "max_tokens": self.max_tokens,
                "hits": self._hits,
                "extends": self._extends,
                "misses": self._misses,
                "evictions": self._evictions,
                "tokens_saved": self._tokens_saved,
                "spill_hits": self._spill_hits,
                "hit_rate": (self._hits + self._extends) / lookups if lookups else 0.0,
            }

    def __repr__(self) -> str:
        stats = self.stats
        return (
            f"IngestStateCache(entries={stats['entries']}, "
            f"tokens={stats['total_tokens']}/{self.max_tokens}, "
            f"hits={stats['hits']}, extends={stats['extends']}, "
            f"misses={stats['misses']})"
        )
