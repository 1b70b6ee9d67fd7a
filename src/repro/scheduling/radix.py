"""Radix-tree prefill cache: prefix-shared ingest state across requests.

The flat :class:`~repro.llm.state_cache.IngestStateCache` keys whole
prompts; two requests whose prompts merely *share a prefix* each pay their
own ingest.  :class:`RadixPrefillTree` stores prompts in a
path-compressed prefix tree (SGLang-style radix cache) with a frozen
in-context model snapshot attached to tree nodes, so

* an exact repeat forks the deepest snapshot and skips ingest entirely;
* a prompt extending any cached prefix — including a prefix contributed
  by an *unrelated* request — forks the deepest covering snapshot and
  advances only its own suffix;
* a prompt *shorter* than anything cached still resolves to the longest
  checkpoint at or below its length, because :meth:`RadixPrefillTree.prefill`
  deposits snapshots at doubling boundaries while it ingests (in-context
  states cannot be rewound, so prefix coverage has to be built on the way
  up).

Eviction is LRU by **resident tokens** (the sum of all edge segment
lengths), and every node carries a thread-safe refcount: the continuous
scheduler pins the node a resident decode forked from, and pinned nodes
(plus their ancestors) are never evicted mid-flight.

Snapshots obey the same freezing contract as the flat cache: the tree owns
every deposited model, lookups hand back either the shared instance (exact
hit — fork before mutating) or a private fork (extend), and depositors
must not advance a model after inserting it.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.exceptions import ConfigError
from repro.llm.interface import LanguageModel
from repro.llm.state_cache import checkpoint_lengths

__all__ = ["PrefillResult", "RadixLookup", "RadixPrefillTree"]


class _Node:
    """One radix-tree node: an edge segment plus an optional snapshot.

    ``segment`` is the token run on the edge from the parent; ``depth`` is
    the total number of prompt tokens covered from the root through this
    node.  ``model`` (when set) is a frozen in-context state conditioned
    on exactly those ``depth`` tokens.  ``refs`` counts live pins.
    """

    __slots__ = ("segment", "children", "model", "depth", "refs", "tick", "parent")

    def __init__(
        self, segment: tuple[int, ...], depth: int, parent: "_Node | None"
    ) -> None:
        self.segment = segment
        self.children: dict[int, _Node] = {}
        self.model: LanguageModel | None = None
        self.depth = depth
        self.refs = 0
        self.tick = 0
        self.parent = parent


@dataclass
class RadixLookup:
    """Outcome of one tree lookup (mirrors ``IngestLookup``).

    ``model`` is the shared cached instance for ``outcome == "fork"``
    (fork before mutating), a private fork for ``"extend"``, and ``None``
    for ``"miss"``.  ``matched`` counts the leading prompt tokens the
    returned state covers.
    """

    model: LanguageModel | None
    matched: int
    outcome: str
    _node: "_Node | None" = field(default=None, repr=False)


@dataclass
class PrefillResult:
    """A prompt fully resolved through the tree, ready to decode from.

    ``model`` is frozen (tree-owned or shared); fork before decoding.
    ``ingested`` counts the suffix tokens actually ingested by this call
    (0 on an exact hit).  While ``pinned``, the covering node will not be
    evicted; hand the result back via :meth:`RadixPrefillTree.release`.
    """

    model: LanguageModel
    context: tuple[int, ...]
    matched: int
    ingested: int
    outcome: str
    _node: "_Node | None" = field(default=None, repr=False)


def _common_prefix(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Length of the longest common prefix of two token runs."""
    limit = min(len(a), len(b))
    i = 0
    while i < limit and a[i] == b[i]:
        i += 1
    return i


class RadixPrefillTree:
    """Thread-safe radix tree of prefilled models, bounded by resident tokens.

    Parameters
    ----------
    max_tokens:
        Eviction budget: total tokens across all edge segments.  ``0``
        builds a disabled tree (every lookup misses, deposits are
        dropped), so callers can switch prefix caching off without
        branching.
    """

    def __init__(self, max_tokens: int = 262_144) -> None:
        if max_tokens < 0:
            raise ConfigError(f"max_tokens must be >= 0, got {max_tokens}")
        self.max_tokens = max_tokens
        self._lock = threading.Lock()
        self._roots: dict[tuple[str, int], _Node] = {}
        self._inflight: dict[tuple, threading.Event] = {}
        self._total_tokens = 0
        self._tick = 0
        self._hits = 0
        self._extends = 0
        self._misses = 0
        self._evictions = 0
        self._tokens_saved = 0

    @property
    def enabled(self) -> bool:
        """False for a zero-budget tree (lookups and deposits are no-ops)."""
        return self.max_tokens > 0

    # -- internal helpers (callers hold the lock) ------------------------------

    def _root(self, model_name: str, vocab_size: int) -> _Node:
        key = (model_name, int(vocab_size))
        root = self._roots.get(key)
        if root is None:
            root = _Node(segment=(), depth=0, parent=None)
            self._roots[key] = root
        return root

    def _touch(self, node: _Node) -> None:
        self._tick += 1
        node.tick = self._tick

    def _walk(self, root: _Node, tokens: tuple[int, ...]) -> tuple[_Node, int]:
        """Deepest node whose full path is a prefix of ``tokens``.

        Returns ``(node, matched)`` where ``matched == node.depth`` is the
        number of ``tokens`` covered; divergence or a query ending mid-edge
        stops the walk at the last fully matched node.
        """
        node = root
        i = 0
        while i < len(tokens):
            child = node.children.get(tokens[i])
            if child is None:
                break
            common = _common_prefix(child.segment, tokens[i:])
            if common < len(child.segment):
                break
            node = child
            i += common
            self._touch(node)
        return node, i

    def _best_snapshot(self, node: _Node) -> _Node | None:
        """The nearest ancestor-or-self of ``node`` holding a snapshot."""
        while node is not None:
            if node.model is not None:
                return node
            node = node.parent
        return None

    def _insert(
        self, root: _Node, tokens: tuple[int, ...], model: LanguageModel
    ) -> _Node:
        """Attach ``model`` as the snapshot covering exactly ``tokens``.

        Splits edges where the new path diverges from (or stops inside)
        an existing segment.  If the node already carries a snapshot the
        existing one is kept — deposits race benignly because equal paths
        imply bit-identical states.
        """
        node = root
        i = 0
        while i < len(tokens):
            child = node.children.get(tokens[i])
            if child is None:
                leaf = _Node(
                    segment=tokens[i:], depth=node.depth + len(tokens) - i,
                    parent=node,
                )
                node.children[tokens[i]] = leaf
                self._total_tokens += len(leaf.segment)
                node = leaf
                i = len(tokens)
                break
            common = _common_prefix(child.segment, tokens[i:])
            if common < len(child.segment):
                # Split the edge: a new interior node takes the shared run,
                # the existing child keeps its identity (and pins) below.
                mid = _Node(
                    segment=child.segment[:common],
                    depth=child.depth - (len(child.segment) - common),
                    parent=node,
                )
                node.children[child.segment[0]] = mid
                child.segment = child.segment[common:]
                child.parent = mid
                mid.children[child.segment[0]] = child
                node = mid
                i += common
            else:
                node = child
                i += common
        if node.model is None:
            node.model = model
        self._touch(node)
        self._evict()
        return node

    def _evict(self) -> None:
        """Drop least-recently-used unpinned leaves until within budget.

        A pinned node protects itself only; interior nodes become leaves
        (and thus evictable) as their subtrees are pruned.
        """
        while self._total_tokens > self.max_tokens:
            victim: _Node | None = None
            for root in self._roots.values():
                stack = list(root.children.values())
                while stack:
                    node = stack.pop()
                    if node.children:
                        stack.extend(node.children.values())
                    elif node.refs == 0 and (
                        victim is None or node.tick < victim.tick
                    ):
                        victim = node
            if victim is None:
                return
            victim.parent.children.pop(victim.segment[0])
            self._total_tokens -= len(victim.segment)
            self._evictions += 1

    # -- public API ------------------------------------------------------------

    def lookup(
        self,
        model_name: str,
        vocab_size: int,
        tokens: Sequence[int],
        pin: bool = False,
    ) -> RadixLookup:
        """Resolve a prompt to the deepest cached snapshot covering a prefix.

        Outcomes mirror the flat cache: ``"fork"`` (a snapshot covers the
        whole prompt; the shared instance is returned), ``"extend"`` (a
        strict prefix is covered; a private fork is returned) or
        ``"miss"``.  ``pin=True`` increments the covering node's refcount
        so eviction skips it until :meth:`release` is called.
        """
        prompt = tuple(int(t) for t in tokens)
        with self._lock:
            if not self.enabled:
                self._misses += 1
                return RadixLookup(model=None, matched=0, outcome="miss")
            node, _ = self._walk(self._root(model_name, vocab_size), prompt)
            best = self._best_snapshot(node)
            if best is None or best.depth == 0:
                self._misses += 1
                return RadixLookup(model=None, matched=0, outcome="miss")
            self._touch(best)
            if pin:
                best.refs += 1
            if best.depth == len(prompt):
                self._hits += 1
                self._tokens_saved += best.depth
                return RadixLookup(
                    model=best.model, matched=best.depth, outcome="fork",
                    _node=best if pin else None,
                )
            self._extends += 1
            self._tokens_saved += best.depth
            parent = best.model
        # Fork outside the lock: snapshots are frozen, so concurrent forks
        # are pure reads and fork cost must not serialise readers.
        return RadixLookup(
            model=parent.fork(), matched=best.depth, outcome="extend",
            _node=best if pin else None,
        )

    def insert(
        self,
        model_name: str,
        vocab_size: int,
        tokens: Sequence[int],
        model: LanguageModel,
    ) -> None:
        """Deposit a frozen model conditioned on exactly ``tokens``.

        Takes ownership: the caller must not advance ``model`` afterwards.
        Prompts longer than the whole budget are not cached at all.
        """
        prompt = tuple(int(t) for t in tokens)
        if not self.enabled or len(prompt) > self.max_tokens:
            return
        with self._lock:
            self._insert(self._root(model_name, vocab_size), prompt, model)

    def prefill(
        self,
        model_name: str,
        vocab_size: int,
        tokens: Sequence[int],
        factory: Callable[[], LanguageModel],
        pin: bool = False,
    ) -> PrefillResult:
        """Resolve a prompt end to end: lookup, ingest the gap, deposit.

        The one-call ingest driver the continuous scheduler uses.  An
        exact hit returns the shared snapshot with nothing ingested; an
        extend forks the deepest covering snapshot and advances only the
        suffix; a miss builds a fresh model via ``factory``.  On the way,
        snapshots are deposited at doubling
        :func:`~repro.llm.state_cache.checkpoint_lengths` boundaries past
        the matched prefix, plus the full prompt — which is what lets
        later *shorter* or *diverging* prompts find a usable prefix.

        Identical prompts in flight at once are **single-flighted**: the
        first caller ingests while the rest wait on its completion, then
        fork the deposited snapshot — N concurrent tenants over one prompt
        pay one ingest, not N racing ones.

        The returned model is frozen (fork before decoding).  With
        ``pin=True`` the covering node is refcounted until
        :meth:`release`.
        """
        prompt = tuple(int(t) for t in tokens)
        key = (model_name, int(vocab_size), prompt)
        leader = False
        while True:
            lookup = self.lookup(model_name, vocab_size, prompt, pin=pin)
            if lookup.outcome == "fork":
                return PrefillResult(
                    model=lookup.model, context=prompt, matched=lookup.matched,
                    ingested=0, outcome="fork", _node=lookup._node,
                )
            if not self.enabled:
                break
            with self._lock:
                pending = self._inflight.get(key)
                if pending is None:
                    self._inflight[key] = threading.Event()
                    leader = True
            if leader:
                break
            # Another thread is ingesting this exact prompt: drop any pin
            # from the stale lookup, wait, then re-resolve (normally a fork).
            if pin:
                self.release(lookup)
            pending.wait()
        try:
            if lookup.outcome == "extend":
                model = lookup.model  # already a private fork
                cursor = lookup.matched
            else:
                model = factory()
                cursor = 0
            boundaries = [
                b for b in checkpoint_lengths(len(prompt)) if b > cursor
            ] + [len(prompt)]
            for boundary in boundaries:
                if cursor == 0:
                    model.reset(prompt[:boundary])
                else:
                    model.extend(prompt[cursor:boundary])
                cursor = boundary
                deposit = model if boundary == len(prompt) else model.fork()
                self.insert(model_name, vocab_size, prompt[:boundary], deposit)
            node = lookup._node
            if pin and node is None:
                # Miss path: pin the full-prompt node we just deposited.
                with self._lock:
                    if self.enabled:
                        walked, matched = self._walk(
                            self._root(model_name, vocab_size), prompt
                        )
                        if matched == len(prompt) and walked.depth == len(prompt):
                            walked.refs += 1
                            node = walked
            return PrefillResult(
                model=model, context=prompt, matched=lookup.matched,
                ingested=len(prompt) - lookup.matched, outcome=lookup.outcome,
                _node=node,
            )
        finally:
            if leader:
                with self._lock:
                    pending = self._inflight.pop(key, None)
                if pending is not None:
                    pending.set()

    def release(self, handle: PrefillResult | RadixLookup) -> None:
        """Drop the pin taken by ``lookup(pin=True)`` / ``prefill(pin=True)``."""
        node = handle._node
        if node is None:
            return
        with self._lock:
            if node.refs > 0:
                node.refs -= 1
            handle._node = None

    def clear(self) -> None:
        """Drop every snapshot and node (statistics are kept)."""
        with self._lock:
            self._roots.clear()
            self._total_tokens = 0

    def __len__(self) -> int:
        """Number of snapshot-bearing nodes across all namespaces."""
        with self._lock:
            count = 0
            for root in self._roots.values():
                stack = [root]
                while stack:
                    node = stack.pop()
                    if node.model is not None:
                        count += 1
                    stack.extend(node.children.values())
            return count

    @property
    def stats(self) -> dict:
        """Lookup/eviction accounting plus the prefill tokens saved."""
        with self._lock:
            nodes = 0
            snapshots = 0
            for root in self._roots.values():
                stack = [root]
                while stack:
                    node = stack.pop()
                    nodes += 1
                    if node.model is not None:
                        snapshots += 1
                    stack.extend(node.children.values())
            lookups = self._hits + self._extends + self._misses
            return {
                "nodes": nodes,
                "snapshots": snapshots,
                "resident_tokens": self._total_tokens,
                "max_tokens": self.max_tokens,
                "hits": self._hits,
                "extends": self._extends,
                "misses": self._misses,
                "evictions": self._evictions,
                "tokens_saved": self._tokens_saved,
                "hit_rate": (
                    (self._hits + self._extends) / lookups if lookups else 0.0
                ),
            }

    def __repr__(self) -> str:
        stats = self.stats
        return (
            f"RadixPrefillTree(snapshots={stats['snapshots']}, "
            f"tokens={stats['resident_tokens']}/{self.max_tokens}, "
            f"hits={stats['hits']}, extends={stats['extends']}, "
            f"misses={stats['misses']})"
        )
