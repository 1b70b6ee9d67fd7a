"""Oracle tests for the PPM kernel.

* A naive PPM-C reference — recount every order over the whole history,
  then apply the module docstring's formula — must match
  :meth:`PPMLanguageModel.next_distribution` bit for bit.
* :meth:`PPMLanguageModel.extend` in random chunks must leave exactly the
  state per-token :meth:`~PPMLanguageModel.advance` leaves, on fresh
  models, across copy-on-write forks, and for vocabularies whose packed
  suffix keys do not fit in int64 (the per-token fallback); a Hypothesis
  property drives the tally through new contexts that split within one
  chunk, fork chunks that promote shared ints, and chunks whose every
  context is already present.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import GenerationError
from repro.llm import PPMLanguageModel, get_model
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

    def test_cache_miss_then_extend_equals_advance(self):
        rng = np.random.default_rng(11)
        prompt = _structured_history(rng, 11, 1100)
        tail = _structured_history(rng, 11, 90)
        llm = get_model("llama2-7b-sim", 11, state_cache=IngestStateCache())
        miss = llm.prefill(prompt)
        assert miss.outcome == "miss"
        assert _state(miss.model) == _state(_advanced(prompt, 11, 12))
        extended = llm.prefill(prompt + tail)
        assert extended.outcome == "extend"
        assert _state(extended.model) == _state(_advanced(prompt + tail, 11, 12))
        _assert_canonical(extended.model, prompt + tail)

    def test_checkpointed_ingest_equals_advance(self):
        rng = np.random.default_rng(11)
        prompt = _structured_history(rng, 11, 1100)
        llm = get_model("llama2-7b-sim", 11, state_cache=IngestStateCache())
        assert _state(llm.prefill(prompt).model) == _state(
            _advanced(prompt, 11, 12)
        )
        # A former checkpoint length is no longer deposited: it misses, and
        # its one-pass ingest still equals per-token advance.
        shorter = llm.prefill(prompt[:512])
        assert shorter.outcome == "miss"
        assert _state(shorter.model) == _state(_advanced(prompt[:512], 11, 12))

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
        llm = get_model("llama2-7b-sim", 11, state_cache=IngestStateCache())
        _assert_canonical(llm.prefill(prompt).model, prompt)
        shorter = llm.prefill(prompt[:512])
        assert shorter.outcome == "miss"
        _assert_canonical(shorter.model, prompt[:512])
        extended = llm.prefill(prompt + prompt[:50])
        assert extended.outcome == "extend" and extended.ingested_tokens == 50
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


def _chunk_contexts(model, chunk):
    """Suffix id -> the tokens ``chunk`` records under it, as advance would."""
    radix = model._radix
    ids = list(model._suffix_ids)
    contexts = {}
    for token in chunk:
        for suffix_id in ids:
            contexts.setdefault(suffix_id, []).append(token)
        if model.max_order:
            digit = token + 1
            ids = [digit] + [i * radix + digit for i in ids[: model.max_order - 1]]
    return contexts


NEW_CONTEXT_SPLITS = "a new context gets 3+ continuations, 2+ of them distinct"
FORK_PROMOTES_INT = "a fork's chunk adds a second token to an int entry"
ALL_PRESENT = "every context of a chunk is already present"


def _tally_cases(model, chunk, forked):
    """Which of the merge's interesting situations ``chunk`` exercises."""
    table = model._table
    contexts = _chunk_contexts(model, chunk)
    found = set()
    for suffix_id, tokens in contexts.items():
        entry = table.get(suffix_id)
        if entry is None and len(tokens) >= 3 and len(set(tokens)) >= 2:
            found.add(NEW_CONTEXT_SPLITS)
        if forked and type(entry) is int:
            if any(token != entry % model.vocab_size for token in tokens):
                found.add(FORK_PROMOTES_INT)
    if contexts and all(suffix_id in table for suffix_id in contexts):
        found.add(ALL_PRESENT)
    return found


def _sized_chunks(tokens, sizes):
    chunks, cursor = [], 0
    while cursor < len(tokens):
        size = sizes[len(chunks) % len(sizes)]
        chunks.append(tokens[cursor : cursor + size])
        cursor += size
    return chunks


@st.composite
def _tally_inputs(draw, vocab_size):
    """A noisy motif repeat, a fork point and a cycle of chunk sizes."""
    motif = draw(st.lists(st.integers(0, vocab_size - 1), min_size=1, max_size=6))
    length = draw(st.integers(2, 240))
    history = (motif * length)[:length]
    noise = st.tuples(st.integers(0, length - 1), st.integers(0, vocab_size - 1))
    for position, token in draw(st.lists(noise, max_size=12)):
        history[position] = token
    fork_at = draw(st.integers(0, length))
    sizes = draw(st.lists(st.integers(1, 80), min_size=1, max_size=6))
    return history, fork_at, sizes


def _check_tally(vocab_size, max_order, history, fork_at, sizes):
    """Chunked extend on a fresh model, then on its fork, equals advance;
    returns the tally cases the chunks exercised."""
    found = set()
    parent = PPMLanguageModel(vocab_size, max_order=max_order)
    for chunk in _sized_chunks(history[:fork_at], sizes):
        found |= _tally_cases(parent, chunk, forked=False)
        parent.extend(chunk)
    assert _state(parent) == _state(
        _advanced(history[:fork_at], vocab_size, max_order)
    )
    table = copy.deepcopy(parent._table)
    distribution = parent.next_distribution().tobytes()
    fork = parent.fork()
    for chunk in _sized_chunks(history[fork_at:], sizes):
        found |= _tally_cases(fork, chunk, forked=True)
        fork.extend(chunk)
    assert _state(fork) == _state(_advanced(history, vocab_size, max_order))
    assert parent._table == table
    assert parent.next_distribution().tobytes() == distribution
    return found


class TestTallyProperty:
    """The sorted one-pass tally against per-token ``advance``."""

    @pytest.mark.parametrize("vocab_size,max_order", TestCanonicalForm.CASES)
    def test_chunked_extend_on_fresh_and_forked_models(self, vocab_size, max_order):
        found = set()

        @given(_tally_inputs(vocab_size))
        @settings(max_examples=100, deadline=None, derandomize=True)
        def check(inputs):
            found.update(_check_tally(vocab_size, max_order, *inputs))

        check()
        assert found == {NEW_CONTEXT_SPLITS, FORK_PROMOTES_INT, ALL_PRESENT}


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
