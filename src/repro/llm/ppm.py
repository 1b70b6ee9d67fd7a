"""Prediction by Partial Matching (PPM) — the main LLM stand-in.

Zero-shot LLM forecasting works because an LLM continues the repetitive
structure of the numeric token stream it is shown (the LLMTime argument that
digit-by-digit prediction follows a multimodal distribution the model infers
in context).  PPM performs precisely that in-context induction: it predicts
the next token from counts gathered over the prompt itself, preferring the
longest context suffix that has been seen before and *escaping* to shorter
suffixes when the long one is uninformative.

This implementation uses the PPM-C escape estimator without exclusion:

    P_k(t | s_k)   = c(s_k t) / (c(s_k) + d(s_k))
    P_esc(s_k)     = d(s_k)   / (c(s_k) + d(s_k))

where ``s_k`` is the length-``k`` suffix, ``c`` are continuation counts and
``d`` the number of distinct continuations.  Probability mass cascades from
order ``max_order`` down to order 0 and finally a uniform floor, so every
token always has non-zero probability.

The context index is *incremental* and keyed by integers: a suffix
``(t_{n-k}, ..., t_{n-1})`` is the base-``V+1`` number whose digits are the
tokens plus one, most recent token least significant, so suffixes of every
order share one table without colliding.  The model keeps the ids of the
current suffixes of length ``1..max_order`` and rolls them forward on each
token (``id_k' = id_{k-1}·(V+1) + (t+1)``), so :meth:`~PPMLanguageModel.
advance` and scoring cost O(max_order) integer and dictionary operations
per token.  A context's counts take one of two canonical forms: a context
whose continuations so far are all one token ``t``, seen ``c`` times, is
the int ``c·V + t``; only a context with two or more distinct
continuations holds a ``{token: count}`` dict.  An in-context model mostly
copies its history, so most contexts are ints, which cost no allocation
and nothing to copy or garbage-collect.  A second distinct continuation
promotes the int to a fresh dict.

:meth:`~PPMLanguageModel.extend` ingests a whole chunk at once: it builds
every (suffix id, token) pair of the chunk with int64 numpy and tallies
them with one ``np.unique``, so prompt ingest is O(n · max_order) array
work.  Contexts new to the table with one continuation in the chunk (most
of a prompt's) go in through one ``dict.update``; only contexts already
in the table or with two or more continuations take a per-key step.

Those whole-chunk numpy calls release the GIL, so while another request
thread decodes in Python, an ingest can lose the interpreter at each call
and wait a switch interval to get it back.  Served, that trade is a net
win.  On e2ebench ``zero-shot`` (traced, 2 vCPUs, seed 262) it lengthened
the ``llm:ingest`` span from 11.5 to 23.9 ms per request, since the span
now holds the other request's turn.  Against ingest split into
GIL-holding pieces of at most 500 elements, decode fell from 32.9 to
24.7 ms per request, the ``sharding.transit_ms_p50`` residual (here the
GIL hand-off to the event loop) from 17.8 to 2.1 ms, and phase CPU per
request from 38.8 to 31.1 ms.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence

import numpy as np

from repro.exceptions import GenerationError
from repro.llm.interface import LanguageModel

__all__ = ["PPMLanguageModel"]

_INT64_MAX = 2**63 - 1


class PPMLanguageModel(LanguageModel):
    """Variable-order PPM model over a dense corpus-id vocabulary.

    Parameters
    ----------
    vocab_size:
        Size of the corpus-id space (digits + separator, or SAX symbols).
    max_order:
        Longest context suffix considered.  This is the model-capacity knob
        that differentiates the simulated LLaMA2 and Phi-2 presets.
    uniform_floor:
        Weight left for the uniform distribution after the order-0 escape —
        keeps the model proper and mildly exploratory.

    The continuation counts live in one table, suffix id -> entry, where an
    entry is the int ``count * vocab_size + token`` for a context with one
    distinct continuation and a ``{token: count}`` dict otherwise.  The
    table is shared copy-on-write between a model and its forks.  Ints are
    immutable, so writing one just stores a new int; ``_owned`` covers dict
    entries only.  It is ``None`` until the first fork (never-forked models
    skip the ownership check entirely) and afterwards holds the suffix ids
    whose dicts this instance owns; any other dict is copied before its
    first write.
    """

    def __init__(
        self,
        vocab_size: int,
        max_order: int = 8,
        uniform_floor: float = 1e-3,
    ) -> None:
        super().__init__(vocab_size)
        if max_order < 0:
            raise GenerationError(f"max_order must be >= 0, got {max_order}")
        if not 0.0 < uniform_floor < 1.0:
            raise GenerationError(
                f"uniform_floor must be in (0, 1), got {uniform_floor}"
            )
        self.max_order = max_order
        self.uniform_floor = uniform_floor
        self._radix = vocab_size + 1
        # Bulk ingest packs (suffix id, token) into one int64 key; the
        # largest key is below (V+1)^K · V.
        self._bulk = self._radix**max_order * vocab_size <= _INT64_MAX
        self._table: dict[int, int | dict[int, int]] = {}
        self._owned: set[int] | None = None
        self._suffix_ids: list[int] = []
        self._zero_counts = np.zeros(vocab_size, dtype=float)

    # -- session protocol ---------------------------------------------------

    def reset(self, context: Sequence[int]) -> None:
        """Rebuild the context index from scratch and ingest ``context``."""
        self._table = {}
        self._owned = None
        self._suffix_ids = []
        self._zero_counts = np.zeros(self.vocab_size, dtype=float)
        self.extend(context)

    def fork(self) -> "PPMLanguageModel":
        """Copy-on-write fork: the suffix table shares counts until written.

        Orders of magnitude faster than re-ingesting the prompt (one
        shallow copy of the suffix table instead of per-token updates),
        and observationally independent — writes on either side privatise
        the touched entry first, so the continuation counts of parent and
        fork never influence each other.  Subclasses keep the base
        deepcopy (their extra state is unknown here).
        """
        if type(self) is not PPMLanguageModel:
            return super().fork()
        fresh = PPMLanguageModel(
            self.vocab_size,
            max_order=self.max_order,
            uniform_floor=self.uniform_floor,
        )
        fresh._table = dict(self._table)
        fresh._owned = set()
        self._owned = set()
        fresh._suffix_ids = list(self._suffix_ids)
        fresh._zero_counts = self._zero_counts.copy()
        return fresh

    def advance(self, token: int) -> None:
        """Record ``token``'s continuation at every suffix order."""
        token = operator.index(token)
        self._check_token(token)
        table = self._table
        owned = self._owned
        size = self.vocab_size
        suffix_ids = self._suffix_ids
        for suffix_id in suffix_ids:
            entry = table.get(suffix_id)
            if entry is None:
                table[suffix_id] = size + token
            elif type(entry) is int:
                if entry % size == token:
                    table[suffix_id] = entry + size
                else:
                    count, seen = divmod(entry, size)
                    table[suffix_id] = {seen: count, token: 1}
                    if owned is not None:
                        owned.add(suffix_id)
            else:
                if owned is not None and suffix_id not in owned:
                    entry = table[suffix_id] = dict(entry)
                    owned.add(suffix_id)
                entry[token] = entry.get(token, 0) + 1
        self._zero_counts[token] += 1.0
        if self.max_order:
            digit = token + 1
            radix = self._radix
            self._suffix_ids = [digit] + [
                s * radix + digit for s in suffix_ids[: self.max_order - 1]
            ]

    def extend(self, tokens: Sequence[int]) -> None:
        """Ingest ``tokens`` in bulk; same state as ``advance`` per token.

        Every (suffix id, token) pair of the chunk is packed into one
        int64 key with numpy, one level per order, and the keys are
        tallied by one ``np.unique``.  Keys sort by suffix id first, so a
        context with one distinct continuation in the chunk is a key
        whose neighbours have other ids; each such context absent from
        the table goes in as one int in a single ``dict.update``, and
        only the rest take the per-key rule of :meth:`advance`.  Counts
        are integers, so the table ends up equal to per-token
        :meth:`advance` whatever the order of the tally.  Vocabularies
        whose packed keys could overflow int64, and chunks holding an
        invalid id (which must raise at the same token as :meth:`advance`
        does), take the per-token path.
        """
        values = [int(token) for token in tokens]
        if (
            not self._bulk
            or len(values) < 2
            or min(values) < 0
            or max(values) >= self.vocab_size
        ):
            for token in values:
                self.advance(token)
            return
        size = self.vocab_size
        radix = self._radix
        suffix_ids = self._suffix_ids
        # The last len(suffix_ids) tokens, oldest first, read off the
        # longest suffix id's digits.
        tail: list[int] = []
        if suffix_ids:
            longest = suffix_ids[-1]
            for _ in suffix_ids:
                longest, digit = divmod(longest, radix)
                tail.append(digit - 1)
            tail.reverse()
        lead = len(tail)
        history = tail + values
        seq = np.array(history, dtype=np.int64)
        digits = seq + 1
        total = seq.size
        # level[j] is the id of the length-k suffix ending at seq[j + k - 1],
        # i.e. the context of seq[j + k]; keep the pairs whose token lies in
        # the chunk.
        keys = []
        level = digits[: total - 1]
        for k in range(1, self.max_order + 1):
            if k > 1:
                level = digits[k - 1 : total - 1] + radix * level[: total - k]
            if level.size == 0:
                break
            start = max(lead, k)
            keys.append(level[start - k :] * size + seq[start:])
        if keys:
            self._merge(*np.unique(np.concatenate(keys), return_counts=True))
        self._zero_counts += np.bincount(seq[lead:], minlength=size)
        ids: list[int] = []
        suffix_id = 0
        scale = 1
        for token in reversed(history[max(0, len(history) - self.max_order) :]):
            suffix_id += (token + 1) * scale
            scale *= radix
            ids.append(suffix_id)
        self._suffix_ids = ids

    def _merge(self, keys: np.ndarray, counts: np.ndarray) -> None:
        """Add the sorted, distinct packed ``keys``, seen ``counts`` times."""
        size = self.vocab_size
        suffix_ids, tokens = np.divmod(keys, size)
        single = np.ones(keys.size, dtype=bool)
        same = suffix_ids[1:] == suffix_ids[:-1]
        single[1:] &= ~same
        single[:-1] &= ~same
        table = self._table
        present = table.keys() & suffix_ids[single].tolist()
        if present:
            single &= ~np.isin(suffix_ids, list(present))
        table.update(
            zip(
                suffix_ids[single].tolist(),
                (counts[single] * size + tokens[single]).tolist(),
            )
        )
        rest = ~single
        owned = self._owned
        for suffix_id, token, n in zip(
            suffix_ids[rest].tolist(), tokens[rest].tolist(), counts[rest].tolist()
        ):
            entry = table.get(suffix_id)
            if entry is None:
                table[suffix_id] = n * size + token
            elif type(entry) is int:
                if entry % size == token:
                    table[suffix_id] = entry + n * size
                else:
                    count, seen = divmod(entry, size)
                    table[suffix_id] = {seen: count, token: n}
                    if owned is not None:
                        owned.add(suffix_id)
            else:
                if owned is not None and suffix_id not in owned:
                    entry = table[suffix_id] = dict(entry)
                    owned.add(suffix_id)
                entry[token] = entry.get(token, 0) + n

    def _escape_cascade(self) -> tuple[list[float], float]:
        """Orders ``max_order..1`` summed into a length-V list, plus the
        escape weight left for the order-0/uniform tail.

        Python floats round exactly as float64 array elements do, and the
        list avoids a numpy scalar round trip per count."""
        table = self._table
        size = self.vocab_size
        result = [0.0] * size
        weight = 1.0
        for suffix_id in reversed(self._suffix_ids):
            entry = table.get(suffix_id)
            if entry is None:
                continue
            if type(entry) is int:
                count, token = divmod(entry, size)
                denom = count + 1
                result[token] += weight * count / denom
                weight *= 1 / denom
            else:
                total = sum(entry.values())
                distinct = len(entry)
                denom = total + distinct
                for token, count in entry.items():
                    result[token] += weight * count / denom
                weight *= distinct / denom
            if weight < 1e-12:
                break
        return result, weight

    def _order0_tail(self, result: np.ndarray, weight: float) -> np.ndarray:
        """Order-0 unigram escape plus the uniform floor and normalisation."""
        total0 = float(self._zero_counts.sum())
        if total0 > 0.0:
            distinct0 = float(np.count_nonzero(self._zero_counts))
            denom0 = total0 + distinct0
            result += weight * self._zero_counts / denom0
            weight *= distinct0 / denom0
        floor_weight = max(weight, self.uniform_floor)
        result += floor_weight / self.vocab_size
        return result / result.sum()

    def next_distribution(self) -> np.ndarray:
        """PPM-C escape cascade from the longest matching suffix down."""
        row, weight = self._escape_cascade()
        return self._order0_tail(np.array(row), weight)

    @classmethod
    def next_distribution_batch(
        cls, models: Sequence["PPMLanguageModel"]
    ) -> np.ndarray:
        """Batched PPM scoring: per-row escape cascades, vectorised tail.

        The sparse high-order cascade stays per-model (it touches only the
        few counts behind the current suffix), while the dense order-0 /
        uniform-floor / normalisation tail — the bulk of the per-call numpy
        work — runs once over the whole ``(S, V)`` matrix, per-row sums and
        counts as axis-1 reductions.  Every operation keeps the per-element
        order of the scalar path, and an axis-1 sum over C-contiguous rows
        equals the 1-D sum of each row, so rows are bit-identical to
        per-model :meth:`next_distribution` calls.
        """
        if any(type(model) is not PPMLanguageModel for model in models):
            return super().next_distribution_batch(models)
        size = models[0].vocab_size
        if any(model.vocab_size != size for model in models):
            return super().next_distribution_batch(models)
        rows, cascade_weights = zip(*(model._escape_cascade() for model in models))
        result = np.array(rows)
        weights = np.array(cascade_weights)
        zeros = np.array([model._zero_counts for model in models])
        totals = zeros.sum(axis=1)
        if not (totals > 0.0).all():
            # Empty-context rows take the scalar tail (rare outside tests).
            for i, model in enumerate(models):
                result[i] = model._order0_tail(result[i], float(weights[i]))
            return result
        distincts = (zeros != 0.0).sum(axis=1, dtype=float)  # count_nonzero
        denoms = totals + distincts
        result += weights[:, None] * zeros / denoms[:, None]
        weights = weights * (distincts / denoms)
        floors = np.array([model.uniform_floor for model in models])
        floor_weights = np.maximum(weights, floors)
        result += floor_weights[:, None] / size
        result /= result.sum(axis=1, keepdims=True)
        return result
