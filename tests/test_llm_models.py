"""Unit and property tests for the language-model substrate (PPM, n-gram)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import GenerationError
from repro.llm import NgramBackoffLM, PPMLanguageModel, UniformLM


def _distribution_checks(probs, vocab_size):
    assert probs.shape == (vocab_size,)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert (probs >= 0).all()


class TestPPM:
    def test_distribution_is_proper_on_empty_context(self):
        model = PPMLanguageModel(vocab_size=11)
        model.reset([])
        _distribution_checks(model.next_distribution(), 11)

    def test_learns_a_deterministic_cycle(self):
        # Pattern 0 1 2 0 1 2 ... — after seeing it, PPM should strongly
        # predict the next element of the cycle.
        model = PPMLanguageModel(vocab_size=5, max_order=4)
        model.reset([0, 1, 2] * 20)
        probs = model.next_distribution()
        assert probs[0] > 0.9

    def test_every_token_has_nonzero_probability(self):
        model = PPMLanguageModel(vocab_size=4, max_order=3)
        model.reset([0] * 50)
        probs = model.next_distribution()
        assert (probs > 0).all()

    def test_greedy_generation_continues_cycle(self):
        model = PPMLanguageModel(vocab_size=5, max_order=4)
        rng = np.random.default_rng(0)
        result = model.generate([0, 1, 2] * 15, 9, rng, temperature=0.0)
        assert result.tokens == [0, 1, 2, 0, 1, 2, 0, 1, 2]

    def test_higher_order_model_is_sharper_on_structured_data(self):
        # An ambiguous bigram context: "0 1" is followed by 2 and by 3
        # depending on what precedes; a deep model disambiguates.
        sequence = ([9, 0, 1, 2] * 10) + ([8, 0, 1, 3] * 10)
        shallow = PPMLanguageModel(vocab_size=10, max_order=1)
        deep = PPMLanguageModel(vocab_size=10, max_order=5)
        context = sequence + [9, 0, 1]
        shallow.reset(context)
        deep.reset(context)
        assert deep.next_distribution()[2] > shallow.next_distribution()[2]

    def test_log_probs_are_recorded(self):
        model = PPMLanguageModel(vocab_size=3, max_order=2)
        rng = np.random.default_rng(1)
        result = model.generate([0, 1] * 10, 5, rng)
        assert len(result.log_probs) == 5
        assert all(lp <= 0.0 for lp in result.log_probs)
        assert result.total_log_prob == pytest.approx(sum(result.log_probs))

    def test_sequence_nll_lower_for_predictable_continuation(self):
        model = PPMLanguageModel(vocab_size=5, max_order=4)
        context = [0, 1, 2] * 20
        expected = model.sequence_nll([0, 1, 2], context)
        model2 = PPMLanguageModel(vocab_size=5, max_order=4)
        surprising = model2.sequence_nll([4, 4, 4], context)
        assert expected.mean() < surprising.mean()

    def test_invalid_token_rejected(self):
        model = PPMLanguageModel(vocab_size=3)
        model.reset([])
        with pytest.raises(GenerationError):
            model.advance(3)

    def test_invalid_constructor_args(self):
        with pytest.raises(GenerationError):
            PPMLanguageModel(vocab_size=1)
        with pytest.raises(GenerationError):
            PPMLanguageModel(vocab_size=3, max_order=-1)
        with pytest.raises(GenerationError):
            PPMLanguageModel(vocab_size=3, uniform_floor=0.0)

    def test_incremental_equals_batch_reset(self):
        """advance() must produce the same state as reset() on the full context."""
        rng = np.random.default_rng(2)
        tokens = rng.integers(0, 4, size=60).tolist()
        incremental = PPMLanguageModel(vocab_size=4, max_order=3)
        incremental.reset(tokens[:30])
        for t in tokens[30:]:
            incremental.advance(t)
        batch = PPMLanguageModel(vocab_size=4, max_order=3)
        batch.reset(tokens)
        assert np.allclose(
            incremental.next_distribution(), batch.next_distribution()
        )


class TestNgram:
    def test_distribution_is_proper(self):
        model = NgramBackoffLM(vocab_size=7, order=3)
        model.reset([1, 2, 3, 4] * 5)
        _distribution_checks(model.next_distribution(), 7)

    def test_learns_repetition(self):
        model = NgramBackoffLM(vocab_size=5, order=3, alpha=0.1)
        model.reset([0, 1, 2] * 20)
        assert int(np.argmax(model.next_distribution())) == 0

    def test_order_zero_reduces_to_unigram(self):
        model = NgramBackoffLM(vocab_size=4, order=0, alpha=0.01)
        model.reset([2] * 100)
        probs = model.next_distribution()
        assert int(np.argmax(probs)) == 2
        assert probs[2] > 0.95

    def test_unseen_context_backs_off_smoothly(self):
        model = NgramBackoffLM(vocab_size=4, order=3)
        model.reset([0, 1] * 10 + [3, 3, 3])  # context (3,3,3) seen once
        probs = model.next_distribution()
        _distribution_checks(probs, 4)

    def test_invalid_args(self):
        with pytest.raises(GenerationError):
            NgramBackoffLM(vocab_size=4, order=-1)
        with pytest.raises(GenerationError):
            NgramBackoffLM(vocab_size=4, alpha=0.0)


class TestUniform:
    def test_ignores_context(self):
        model = UniformLM(vocab_size=5)
        model.reset([0, 0, 0, 0])
        assert np.allclose(model.next_distribution(), 0.2)

    def test_generate_respects_max_tokens(self):
        model = UniformLM(vocab_size=5)
        rng = np.random.default_rng(3)
        assert len(model.generate([], 12, rng)) == 12

    def test_zero_tokens(self):
        model = UniformLM(vocab_size=5)
        rng = np.random.default_rng(3)
        assert len(model.generate([0], 0, rng)) == 0

    def test_negative_max_tokens_raises(self):
        model = UniformLM(vocab_size=5)
        with pytest.raises(GenerationError):
            model.generate([], -1, np.random.default_rng(0))


token_lists = st.lists(st.integers(min_value=0, max_value=4), max_size=120)


@given(token_lists)
@settings(max_examples=50)
def test_ppm_distribution_proper_property(context):
    model = PPMLanguageModel(vocab_size=5, max_order=4)
    model.reset(context)
    probs = model.next_distribution()
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert (probs > 0).all()


@given(token_lists)
@settings(max_examples=50)
def test_ngram_distribution_proper_property(context):
    model = NgramBackoffLM(vocab_size=5, order=3)
    model.reset(context)
    probs = model.next_distribution()
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert (probs > 0).all()


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=6, max_size=60))
@settings(max_examples=40)
def test_ppm_nll_finite_property(tokens):
    model = PPMLanguageModel(vocab_size=3, max_order=3)
    nll = model.sequence_nll(tokens[3:], context=tokens[:3])
    assert np.isfinite(nll).all()
    assert (nll >= 0).all()


# -- fork() semantics ---------------------------------------------------------

_FORK_CONTEXT = [0, 1, 2, 3, 1, 2, 0, 1, 2, 3, 3, 2, 1, 0] * 6


def _preset_models():
    from repro.llm import available_models, get_model

    return [get_model(name, vocab_size=5) for name in available_models()]


class TestFork:
    """fork() must be indistinguishable from a fresh reset — for every
    registered preset's underlying model — and strictly isolated."""

    @pytest.mark.parametrize(
        "llm", _preset_models(), ids=lambda llm: llm.name
    )
    def test_fork_matches_fresh_reset_distribution(self, llm):
        parent = llm.spec.factory(llm.vocab_size)
        parent.reset(_FORK_CONTEXT)
        fork = parent.fork()
        fresh = llm.spec.factory(llm.vocab_size)
        fresh.reset(_FORK_CONTEXT)
        np.testing.assert_array_equal(
            fork.next_distribution(), fresh.next_distribution()
        )

    @pytest.mark.parametrize(
        "llm", _preset_models(), ids=lambda llm: llm.name
    )
    def test_fork_decode_stream_is_bit_identical_to_generate(self, llm):
        parent = llm.spec.factory(llm.vocab_size)
        parent.reset(_FORK_CONTEXT)
        forked = parent.fork().decode(12, np.random.default_rng(7))
        fresh = llm.spec.factory(llm.vocab_size)
        full = fresh.generate(_FORK_CONTEXT, 12, np.random.default_rng(7))
        assert forked.tokens == full.tokens
        assert forked.log_probs == full.log_probs

    @pytest.mark.parametrize(
        "llm", _preset_models(), ids=lambda llm: llm.name
    )
    def test_mutating_the_fork_never_leaks_into_the_parent(self, llm):
        parent = llm.spec.factory(llm.vocab_size)
        parent.reset(_FORK_CONTEXT)
        before = parent.next_distribution().copy()
        fork = parent.fork()
        fork.decode(30, np.random.default_rng(3))
        for token in [4, 4, 4, 0, 0, 0]:
            fork.advance(token)
        np.testing.assert_array_equal(parent.next_distribution(), before)

    @pytest.mark.parametrize(
        "llm", _preset_models(), ids=lambda llm: llm.name
    )
    def test_mutating_the_parent_never_leaks_into_the_fork(self, llm):
        parent = llm.spec.factory(llm.vocab_size)
        parent.reset(_FORK_CONTEXT)
        fork = parent.fork()
        before = fork.next_distribution().copy()
        for token in [4, 0, 4, 0]:
            parent.advance(token)
        np.testing.assert_array_equal(fork.next_distribution(), before)

    def test_shiftbiased_fork_does_not_share_the_inner_model(self):
        from repro.llm import ShiftBiasedLM

        parent = ShiftBiasedLM(PPMLanguageModel(5, max_order=3))
        parent.reset(_FORK_CONTEXT)
        fork = parent.fork()
        assert fork.base is not parent.base
        assert fork.shift_weight == parent.shift_weight
        assert fork.shift_steps == parent.shift_steps

    def test_subclasses_fall_back_to_deepcopy_and_keep_their_type(self):
        class Tagged(PPMLanguageModel):
            tag = "subclass-state"

        parent = Tagged(5, max_order=3)
        parent.reset(_FORK_CONTEXT)
        fork = parent.fork()
        assert type(fork) is Tagged and fork.tag == "subclass-state"
        np.testing.assert_array_equal(
            fork.next_distribution(), parent.next_distribution()
        )
