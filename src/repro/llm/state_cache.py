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
prefix of what was ingested, so such a query misses.  A miss deposits only
the full prompt.  Snapshots at doubling lengths would let a shorter query
extend instead, but no served workload sends one (zero-shot prompts are
distinct; backtest windows extend their predecessor's full prompt), and
on a 1,200-token zero-shot miss they cost about 2,000 more cached tokens
and 2.8 ms more CPU.
This is the serving stack's one prefix cache: every engine, sharded
worker and backtest prefills through it.

A lookup never scans the cache.  Every strict prefix at least
:data:`INDEX_FLOOR` tokens long starts with the query's first
``INDEX_FLOOR`` tokens, so entries of that length or more are indexed
by ``(model preset, vocab size, first 16 tokens)``.  A lookup costs one
exact probe, one read of the query's head bucket and at most 15 exact
probes for the shorter prefixes, whatever the number of entries.

Entries are LRU-evicted by total *token* count (not entry count), since a
prefilled state's memory footprint scales with its prompt length.  An
optional **spill tier** (``spill=``, duck-typed; see
:class:`repro.sharding.SpillStore`) turns eviction into demotion: evicted
states are serialized to a shared store, and a lookup that misses memory
asks it for the exact prompt before reporting a miss — so prefill state
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

__all__ = ["IngestLookup", "IngestStateCache"]

#: Length of the head that indexes entries; shorter entries are found by
#: exact probes instead.
INDEX_FLOOR = 16


def _as_prompt(tokens: Sequence[int]) -> tuple:
    """``tokens`` as a key's tuple of ints; a tuple is taken as it is."""
    if type(tokens) is tuple:
        return tokens
    return tuple(int(t) for t in tokens)


def _head(key: tuple) -> tuple | None:
    """The index bucket of a cache key, or ``None`` below the floor."""
    model_name, vocab_size, prompt = key
    if len(prompt) < INDEX_FLOOR:
        return None
    return (model_name, vocab_size, prompt[:INDEX_FLOOR])


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
        ``fetch(model_name, vocab_size, tokens) -> model | None`` for the
        exact prompt — :class:`repro.sharding.SpillStore` is the shipped
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
        # (model, vocab, first INDEX_FLOOR tokens) -> keys of entries
        # at least that long; shorter entries are found by exact probes.
        self._heads: dict[tuple, set[tuple]] = {}
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

    def _longest_strict_prefix(self, key: tuple) -> tuple | None:
        """Key of the longest cached strict prefix of ``key``'s prompt.

        Caller holds the lock.  Reads the prompt's head bucket, then probes
        the prefixes shorter than :data:`INDEX_FLOOR` longest first.
        """
        model_name, vocab_size, prompt = key
        length = len(prompt)
        best_key = None
        best_length = 0
        bucket = self._heads.get(_head(key), ()) if length > INDEX_FLOOR else ()
        for cached in bucket:
            cached_length = len(cached[2])
            if (
                best_length < cached_length < length
                and prompt[:cached_length] == cached[2]
            ):
                best_key, best_length = cached, cached_length
        if best_key is not None:
            return best_key
        for cached_length in range(min(length, INDEX_FLOOR) - 1, 0, -1):
            short = (model_name, vocab_size, prompt[:cached_length])
            if short in self._entries:
                return short
        return None

    def get(
        self, model_name: str, vocab_size: int, tokens: Sequence[int]
    ) -> IngestLookup:
        """Resolve a prompt against the cache.

        Prefers an exact match (``"fork"``); otherwise the *longest* cached
        strict prefix under the same ``(model_name, vocab_size)`` namespace
        (``"extend"``, returning a private fork prefilled to ``matched``
        tokens); otherwise the exact prompt in the spill tier, when one is
        attached (``"fork"``, on a private instance); otherwise a
        ``"miss"``.  A spill hit is promoted back into the memory tier.
        """
        prompt = _as_prompt(tokens)
        key = self._key(model_name, vocab_size, prompt)
        parent = None
        best_length = 0
        with self._lock:
            if not self.enabled:
                self._misses += 1
                return IngestLookup(model=None, matched=0, outcome="miss")
            exact = self._entries.get(key)
            if exact is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                self._tokens_saved += len(prompt)
                return IngestLookup(model=exact, matched=len(prompt), outcome="fork")
            best_key = self._longest_strict_prefix(key)
            if best_key is not None:
                self._entries.move_to_end(best_key)
                parent = self._entries[best_key]
                best_length = len(best_key[2])
                self._extends += 1
                self._tokens_saved += best_length
        if parent is not None:
            # Fork outside the lock: cached entries are frozen, so concurrent
            # forks are pure reads, and fork cost must not serialise readers.
            return IngestLookup(
                model=parent.fork(), matched=best_length, outcome="extend"
            )
        if self.spill is not None:
            loaded = self.spill.fetch(model_name, vocab_size, prompt)
            if loaded is not None:
                with self._lock:
                    self._hits += 1
                    self._spill_hits += 1
                    self._tokens_saved += len(prompt)
                # Promote: the next lookup for this prompt should hit memory.
                self.put(model_name, vocab_size, prompt, loaded.fork())
                return IngestLookup(model=loaded, matched=len(prompt), outcome="fork")
        with self._lock:
            self._misses += 1
        return IngestLookup(model=None, matched=0, outcome="miss")

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
        prompt = _as_prompt(tokens)
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
            head = _head(key)
            if head is not None:
                self._heads.setdefault(head, set()).add(key)
            self._total_tokens += len(prompt)
            while self._total_tokens > self.max_tokens:
                evicted_key, evicted_model = self._entries.popitem(last=False)
                head = _head(evicted_key)
                if head is not None:
                    bucket = self._heads[head]
                    bucket.discard(evicted_key)
                    if not bucket:
                        del self._heads[head]
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
            self._heads.clear()
            self._total_tokens = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list[tuple]:
        """The cached ``(model_name, vocab_size, tokens)`` keys, LRU first."""
        with self._lock:
            return list(self._entries)

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
