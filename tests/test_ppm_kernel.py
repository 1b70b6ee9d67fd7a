"""Oracle tests for the PPM kernel.

* A naive PPM-C reference — recount every order over the whole history,
  then apply the module docstring's formula — must match
  :meth:`PPMLanguageModel.next_distribution` bit for bit.
* :meth:`PPMLanguageModel.extend` in random chunks must leave exactly the
  state per-token :meth:`~PPMLanguageModel.advance` leaves, on fresh
  models, across copy-on-write forks, and for vocabularies whose packed
  suffix keys do not fit in int64 (the per-token fallback).
"""

import copy

import numpy as np
import pytest

from repro.exceptions import GenerationError
from repro.llm import PPMLanguageModel
from repro.llm.state_cache import IngestStateCache


def _reference_distribution(history, vocab_size, max_order, uniform_floor):
    """PPM-C without exclusion, recounted from scratch over ``history``."""
    n = len(history)
    result = np.zeros(vocab_size, dtype=float)
    weight = 1.0
    for k in range(min(max_order, n), 0, -1):
        suffix = history[n - k :]
        counts = {}
        for i in range(k, n):
            if history[i - k : i] == suffix:
                counts[history[i]] = counts.get(history[i], 0) + 1
        if not counts:
            continue
        total = sum(counts.values())
        distinct = len(counts)
        denom = total + distinct
        for token, count in counts.items():
            result[token] += weight * count / denom
        weight *= distinct / denom
        if weight < 1e-12:
            break
    zero = np.bincount(np.asarray(history, dtype=int), minlength=vocab_size)
    zero = zero.astype(float)
    if n:
        distinct0 = float(np.count_nonzero(zero))
        denom0 = float(n) + distinct0
        result += weight * zero / denom0
        weight *= distinct0 / denom0
    result += max(weight, uniform_floor) / vocab_size
    return result / result.sum()


def _structured_history(rng, vocab_size, length):
    """Noisy repeats of a short motif, so high orders find matches."""
    motif = rng.integers(0, vocab_size, size=int(rng.integers(2, 9))).tolist()
    history = []
    while len(history) < length:
        if rng.random() < 0.15:
            history.append(int(rng.integers(0, vocab_size)))
        else:
            history.extend(motif)
    return history[:length]


def _state(model):
    return (
        model._table,
        model._suffix_ids,
        model._zero_counts.tolist(),
        model.next_distribution().tobytes(),
    )


def _advanced(history, vocab_size, max_order):
    model = PPMLanguageModel(vocab_size, max_order=max_order)
    for token in history:
        model.advance(token)
    return model


def _random_chunks(rng, tokens):
    chunks, cursor = [], 0
    while cursor < len(tokens):
        size = int(rng.choice([0, 1, 2, 3, 17, 64, 200]))
        chunks.append(tokens[cursor : cursor + size])
        cursor += size
    return chunks


def _does_not_fit_int64(vocab_size, max_order):
    return (vocab_size + 1) ** max_order * vocab_size > 2**63 - 1


class TestNaiveReference:
    @pytest.mark.parametrize("max_order", [0, 1, 2, 12])
    @pytest.mark.parametrize("seed", range(4))
    def test_next_distribution_bit_identical(self, max_order, seed):
        rng = np.random.default_rng(seed)
        vocab_size = int(rng.integers(2, 12))
        history = _structured_history(rng, vocab_size, 160)
        floor = float(rng.choice([1e-3, 5e-2]))
        model = PPMLanguageModel(vocab_size, max_order=max_order, uniform_floor=floor)
        model.reset(history[:40])
        for n in range(40, len(history) + 1):
            expected = _reference_distribution(
                history[:n], vocab_size, max_order, floor
            )
            assert model.next_distribution().tobytes() == expected.tobytes(), n
            if n < len(history):
                model.advance(history[n])

    @pytest.mark.parametrize("max_order", [0, 1, 2, 12])
    def test_batch_rows_match_reference(self, max_order):
        rng = np.random.default_rng(7)
        histories = [_structured_history(rng, 11, 90 + 13 * i) for i in range(4)]
        models = []
        for history in histories:
            model = PPMLanguageModel(11, max_order=max_order)
            model.reset(history)
            models.append(model)
        matrix = PPMLanguageModel.next_distribution_batch(models)
        for row, history in zip(matrix, histories):
            expected = _reference_distribution(history, 11, max_order, 1e-3)
            assert row.tobytes() == expected.tobytes()


class TestExtendEqualsAdvance:
    @pytest.mark.parametrize(
        "vocab_size,max_order",
        [(2, 0), (3, 1), (11, 2), (11, 12), (40, 12), (5, 30)],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_random_chunks(self, vocab_size, max_order, seed):
        rng = np.random.default_rng(seed)
        history = _structured_history(rng, vocab_size, 500)
        model = PPMLanguageModel(vocab_size, max_order=max_order)
        for chunk in _random_chunks(rng, history):
            model.extend(chunk)
        assert _state(model) == _state(_advanced(history, vocab_size, max_order))

    @pytest.mark.parametrize("max_order", [2, 5, 12])
    def test_chunks_that_end_inside_the_first_max_order_tokens(self, max_order):
        history = _structured_history(np.random.default_rng(max_order), 11, 60)
        model = PPMLanguageModel(11, max_order=max_order)
        cursor = 0
        for size in (3, 7, 1, 2, 4, 43):
            model.extend(history[cursor : cursor + size])
            cursor += size
            assert _state(model) == _state(
                _advanced(history[:cursor], 11, max_order)
            )

    def test_reset_is_one_extend(self):
        rng = np.random.default_rng(3)
        history = _structured_history(rng, 11, 700)
        model = PPMLanguageModel(11, max_order=12)
        model.reset(history)
        assert _state(model) == _state(_advanced(history, 11, 12))

    @pytest.mark.parametrize("vocab_size", [11, 40])
    def test_across_copy_on_write_forks(self, vocab_size):
        rng = np.random.default_rng(vocab_size)
        prompt = _structured_history(rng, vocab_size, 300)
        tails = [_structured_history(rng, vocab_size, 150) for _ in range(3)]
        parent = PPMLanguageModel(vocab_size, max_order=12)
        parent.reset(prompt)
        forks = [parent.fork() for _ in tails]
        grandchild = forks[0].fork()
        for fork, tail in zip(forks, tails):
            for chunk in _random_chunks(rng, tail):
                fork.extend(chunk)
        grandchild.extend(tails[1])
        parent.extend(tails[2][::-1])
        for fork, tail in zip(forks, tails):
            assert _state(fork) == _state(
                _advanced(prompt + tail, vocab_size, 12)
            )
        assert _state(grandchild) == _state(
            _advanced(prompt + tails[1], vocab_size, 12)
        )
        assert _state(parent) == _state(
            _advanced(prompt + tails[2][::-1], vocab_size, 12)
        )

    def test_fallback_vocabulary_does_not_fit_int64(self):
        assert _does_not_fit_int64(40, 12)
        assert not _does_not_fit_int64(11, 12)

    def test_checkpointed_ingest_equals_advance(self):
        rng = np.random.default_rng(11)
        prompt = _structured_history(rng, 11, 1100)
        cache = IngestStateCache()
        model = cache.ingest("m", 11, prompt, PPMLanguageModel(11, max_order=12))
        assert _state(model) == _state(_advanced(prompt, 11, 12))
        checkpoint = cache.get("m", 11, prompt[:512])
        assert checkpoint.outcome == "fork"
        assert _state(checkpoint.model) == _state(
            _advanced(prompt[:512], 11, 12)
        )

    def test_invalid_token_raises_where_advance_would(self):
        model = PPMLanguageModel(5, max_order=3)
        with pytest.raises(GenerationError, match="outside vocabulary"):
            model.extend([0, 1, 2, 7, 3])
        assert _state(model) == _state(_advanced([0, 1, 2], 5, 3))


def _recount(history, max_order, vocab_size):
    """Suffix id -> {token: count}, recounted naively over ``history``."""
    radix = vocab_size + 1
    counts = {}
    for i, token in enumerate(history):
        suffix_id, scale = 0, 1
        for k in range(1, min(max_order, i) + 1):
            suffix_id += (history[i - k] + 1) * scale
            scale *= radix
            row = counts.setdefault(suffix_id, {})
            row[token] = row.get(token, 0) + 1
    return counts


def _assert_canonical(model, history):
    """An entry is an int exactly when its context has one continuation."""
    size = model.vocab_size
    expected = _recount(history, model.max_order, size)
    assert model._table.keys() == expected.keys()
    for suffix_id, counts in expected.items():
        entry = model._table[suffix_id]
        if len(counts) == 1:
            assert type(entry) is int, suffix_id
            ((token, count),) = counts.items()
            assert divmod(entry, size) == (count, token)
        else:
            assert type(entry) is dict and entry == counts, suffix_id


class TestCanonicalForm:
    CASES = [(2, 1), (11, 2), (11, 12), (40, 12)]

    @pytest.mark.parametrize("vocab_size,max_order", CASES)
    def test_every_ingest_path(self, vocab_size, max_order):
        rng = np.random.default_rng(vocab_size * max_order)
        history = _structured_history(rng, vocab_size, 600)
        reset = PPMLanguageModel(vocab_size, max_order=max_order)
        reset.reset(history)
        chunked = PPMLanguageModel(vocab_size, max_order=max_order)
        for chunk in _random_chunks(rng, history):
            chunked.extend(chunk)
        for model in (reset, chunked, _advanced(history, vocab_size, max_order)):
            _assert_canonical(model, history)

    def test_ingest_cache_and_its_checkpoints(self):
        rng = np.random.default_rng(5)
        prompt = _structured_history(rng, 11, 1100)
        cache = IngestStateCache()
        model = cache.ingest("m", 11, prompt, PPMLanguageModel(11, max_order=12))
        _assert_canonical(model, prompt)
        checkpoint = cache.get("m", 11, prompt[:512])
        assert checkpoint.outcome == "fork"
        _assert_canonical(checkpoint.model, prompt[:512])
        extended = cache.get("m", 11, prompt + prompt[:50])
        assert extended.outcome == "extend" and extended.matched == len(prompt)
        extended.model.extend(prompt[:50])
        _assert_canonical(extended.model, prompt + prompt[:50])

    def test_both_entry_forms_occur(self):
        history = _structured_history(np.random.default_rng(0), 11, 600)
        model = PPMLanguageModel(11, max_order=12)
        model.reset(history)
        kinds = {type(entry) for entry in model._table.values()}
        assert kinds == {int, dict}


def _transitions(before, after):
    """Count the entries a write moved int->int, int->dict and dict->dict."""
    moves = {"int->int": 0, "int->dict": 0, "dict->dict": 0}
    for suffix_id, old in before.items():
        new = after[suffix_id]
        if new == old:
            continue
        kind = f"{type(old).__name__}->{type(new).__name__}"
        moves[kind] += 1
    return moves


class TestCopyOnWriteIsolation:
    @pytest.mark.parametrize("path", ["advance", "extend"])
    def test_fork_writes_never_reach_the_parent(self, path):
        rng = np.random.default_rng(17)
        prompt = _structured_history(rng, 11, 400)
        tail = _structured_history(rng, 11, 200) + prompt[:100]
        parent = PPMLanguageModel(11, max_order=12)
        parent.reset(prompt)
        table = copy.deepcopy(parent._table)
        distribution = parent.next_distribution().tobytes()
        fork = parent.fork()
        if path == "advance":
            for token in tail:
                fork.advance(token)
        else:
            for chunk in _random_chunks(rng, tail):
                fork.extend(chunk)
        moves = _transitions(table, fork._table)
        assert all(moves.values()), moves
        assert parent._table == table
        assert parent.next_distribution().tobytes() == distribution
        _assert_canonical(fork, prompt + tail)
        # And the other way: the parent's own writes leave the fork alone.
        forked = copy.deepcopy(fork._table)
        parent.extend(tail[::-1])
        assert fork._table == forked
        _assert_canonical(parent, prompt + tail[::-1])


class TestNumpyTokens:
    def test_numpy_ints_leave_the_table_python_ints_leave(self):
        history = _structured_history(np.random.default_rng(9), 11, 300)
        model = PPMLanguageModel(11, max_order=12)
        for token in history:
            model.advance(np.int64(token))
        expected = _advanced(history, 11, 12)
        assert _state(model) == _state(expected)
        for suffix_id, entry in model._table.items():
            assert type(suffix_id) is int
            if type(entry) is dict:
                assert all(type(token) is int for token in entry)
            else:
                assert type(entry) is int
        assert all(type(suffix_id) is int for suffix_id in model._suffix_ids)
        # Promotions after numpy-int writes decode like any other entry.
        model.extend(history[::-1])
        _assert_canonical(model, history + history[::-1])
