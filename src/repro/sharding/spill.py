"""The on-disk spill tier of the two-tier ingest store.

A worker's in-memory :class:`~repro.llm.state_cache.IngestStateCache` is
bounded and process-private: LRU eviction throws prefill work away, and a
worker restart loses everything.  :class:`SpillStore` is the second tier
— a shared directory of serialized prefilled-model checkpoints that

* receives entries the in-memory tier evicts (so eviction demotes rather
  than destroys),
* answers in-memory misses (so prefill state survives worker restarts and
  *migrates across shards*: worker A's eviction is worker B's warm start
  after a routing change),
* is itself size-bounded, LRU-evicted **by token count** (a prefilled
  state's footprint scales with its prompt length, not its entry count),
  with recency tracked by file mtime — loads refresh it.

Lookups never scan the directory: :meth:`fetch` probes the exact key
plus the O(log n) prefixes at doubling lengths (:func:`_checkpoint_lengths`)
by content digest and stops at the longest hit.

Robustness contract: writes are atomic (temp file + ``os.replace``), and
a load that fails for *any* reason — truncated file from a killed worker,
pickle drift, concurrent eviction — deletes the entry and reports a miss.
An entry is a small header pickle followed by the model pickle; the header
carries :data:`SPILL_FORMAT`, and an entry whose stamp differs (written by
code with another model state layout, which could unpickle cleanly and
only fail mid-decode) is dropped the same way, before its model is read.
A corrupt spill tier can cost re-ingest work but can never poison a
forecast or crash a worker.  Multiple worker processes share one
directory without coordination; every cross-process race collapses to
"miss" or "redundant store".
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import threading
from collections.abc import Sequence
from pathlib import Path

from repro.exceptions import ConfigError
from repro.llm.interface import LanguageModel

__all__ = ["SpillStore"]

_SUFFIX = ".spill"

#: Stamp of the pickled model state layout.  Bump it whenever a model's
#: state attributes change, so entries written before the change miss.
#: 2: PPM counts in one table keyed by integer suffix id.
#: 3: a single-continuation PPM context is one int, not a dict.
SPILL_FORMAT = 3


def _checkpoint_lengths(n: int) -> tuple[int, ...]:
    """Doubling prefix lengths strictly below ``n``: ``(16, 32, 64, ...)``."""
    lengths = []
    length = 16
    while length < n:
        lengths.append(length)
        length *= 2
    return tuple(lengths)


class SpillStore:
    """Size-bounded shared directory of pickled prefilled models.

    Parameters
    ----------
    directory:
        Where entries live; created if missing.  Point every worker of a
        sharded engine at the same directory to let evicted prefill state
        migrate across shards.
    max_tokens:
        Total prompt-token budget across all spilled entries; the oldest
        (by mtime) entries are unlinked once the budget is exceeded.
        ``0`` builds a disabled store (stores and fetches are no-ops).
    """

    def __init__(self, directory: str | Path, max_tokens: int = 1_048_576) -> None:
        if max_tokens < 0:
            raise ConfigError(f"max_tokens must be >= 0, got {max_tokens}")
        self.directory = Path(directory)
        self.max_tokens = max_tokens
        if self.enabled:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._stores = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._corrupt_dropped = 0

    @property
    def enabled(self) -> bool:
        """False for a zero-budget store (stores and fetches are no-ops)."""
        return self.max_tokens > 0

    @staticmethod
    def _digest(model_name: str, vocab_size: int, tokens: tuple) -> str:
        payload = repr((model_name, int(vocab_size), tokens)).encode()
        return hashlib.sha256(payload).hexdigest()

    def _path(self, model_name: str, vocab_size: int, tokens: tuple) -> Path:
        digest = self._digest(model_name, vocab_size, tokens)
        return self.directory / f"{digest}.{len(tokens)}{_SUFFIX}"

    # -- write side ----------------------------------------------------------

    def store(
        self,
        model_name: str,
        vocab_size: int,
        tokens: Sequence[int],
        model: LanguageModel,
    ) -> None:
        """Persist one prefilled model checkpoint (atomic, then evict).

        Entries longer than the whole budget are dropped outright.  The
        caller keeps ownership of ``model`` — it is serialized, not
        retained — so this is safe to call with a model about to be
        discarded by the in-memory tier.
        """
        prompt = tuple(int(t) for t in tokens)
        if not self.enabled or not prompt or len(prompt) > self.max_tokens:
            return
        path = self._path(model_name, vocab_size, prompt)
        payload = pickle.dumps(
            (SPILL_FORMAT, model_name, int(vocab_size), prompt),
            protocol=pickle.HIGHEST_PROTOCOL,
        ) + pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
        temp = path.with_suffix(f".tmp-{os.getpid()}-{threading.get_ident()}")
        try:
            temp.write_bytes(payload)
            os.replace(temp, path)
        except OSError:
            # Disk trouble degrades the spill tier to a no-op, never the
            # forecast path.
            temp.unlink(missing_ok=True)
            return
        with self._lock:
            self._stores += 1
        self._evict()

    def _entries(self) -> list[tuple[Path, int, float]]:
        """(path, token count, mtime) for every live entry, oldest first."""
        rows = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        for name in names:
            if not name.endswith(_SUFFIX):
                continue
            try:
                count = int(name[: -len(_SUFFIX)].rsplit(".", 1)[1])
                mtime = (self.directory / name).stat().st_mtime
            except (IndexError, ValueError, OSError):
                continue  # foreign file or concurrently removed
            rows.append((self.directory / name, count, mtime))
        rows.sort(key=lambda row: row[2])
        return rows

    def _evict(self) -> None:
        rows = self._entries()
        total = sum(count for _, count, _ in rows)
        for path, count, _ in rows:
            if total <= self.max_tokens:
                break
            try:
                path.unlink()
            except OSError:
                continue  # another worker evicted it first
            total -= count
            with self._lock:
                self._evictions += 1

    # -- read side -----------------------------------------------------------

    def _load(
        self, model_name: str, vocab_size: int, tokens: tuple
    ) -> LanguageModel | None:
        path = self._path(model_name, vocab_size, tokens)
        try:
            payload = path.read_bytes()
        except OSError:
            return None
        try:
            stream = io.BytesIO(payload)
            header = pickle.load(stream)
            if header != (SPILL_FORMAT, model_name, int(vocab_size), tokens):
                raise ValueError("spill format or key mismatch")
            model = pickle.load(stream)
        except Exception:
            # Truncated write, stale format, pickle drift, tampering or a
            # digest collision: drop and miss.
            with self._lock:
                self._corrupt_dropped += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        try:
            os.utime(path)  # refresh LRU recency
        except OSError:
            pass
        return model

    def fetch(
        self, model_name: str, vocab_size: int, tokens: Sequence[int]
    ) -> tuple[LanguageModel | None, int]:
        """Longest spilled prefix of ``tokens``: ``(model, matched)`` or ``(None, 0)``.

        Probes the exact prompt first, then each doubling prefix length
        longest-first, so no directory scan is needed.  The memory tier
        deposits whole prompts only, so a prefix probe hits only a spilled
        prompt of exactly that length.  The returned model is a private
        instance (freshly deserialized); callers may advance it directly.
        """
        prompt = tuple(int(t) for t in tokens)
        if not self.enabled or not prompt:
            return None, 0
        lengths = [len(prompt), *reversed(_checkpoint_lengths(len(prompt)))]
        for matched in lengths:
            model = self._load(model_name, vocab_size, prompt[:matched])
            if model is not None:
                with self._lock:
                    self._hits += 1
                return model, matched
        with self._lock:
            self._misses += 1
        return None, 0

    # -- introspection -------------------------------------------------------

    @property
    def stats(self) -> dict:
        """Per-process accounting plus the directory's current footprint."""
        rows = self._entries()
        with self._lock:
            return {
                "entries": len(rows),
                "total_tokens": sum(count for _, count, _ in rows),
                "max_tokens": self.max_tokens,
                "stores": self._stores,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "corrupt_dropped": self._corrupt_dropped,
            }

    def __repr__(self) -> str:
        stats = self.stats
        return (
            f"SpillStore({str(self.directory)!r}, "
            f"tokens={stats['total_tokens']}/{self.max_tokens}, "
            f"entries={stats['entries']}, hits={stats['hits']})"
        )
