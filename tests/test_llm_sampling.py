"""Tests for sampling, constraints, cost model, and the model registry."""

import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding import digit_vocabulary
from repro.exceptions import ConfigError, GenerationError
from repro.llm import (
    ModelSpec,
    PeriodicPatternConstraint,
    SetConstraint,
    TokenCostModel,
    UniformLM,
    available_models,
    get_model,
    register_model,
    sample_from_distribution,
)
from repro.llm.sampling import draw_tokens, filter_distribution, sample_step


class TestSampling:
    def test_greedy_picks_argmax(self):
        probs = np.array([0.1, 0.7, 0.2])
        token, p = sample_from_distribution(probs, np.random.default_rng(0), temperature=0.0)
        assert token == 1
        assert p == pytest.approx(0.7)

    def test_respects_allowed_ids(self):
        probs = np.array([0.9, 0.05, 0.05])
        rng = np.random.default_rng(1)
        for _ in range(20):
            token, _ = sample_from_distribution(probs, rng, allowed_ids=[1, 2])
            assert token in (1, 2)

    def test_masked_out_mass_falls_back_to_uniform(self):
        probs = np.array([1.0, 0.0, 0.0])
        rng = np.random.default_rng(2)
        tokens = {
            sample_from_distribution(probs, rng, allowed_ids=[1, 2])[0]
            for _ in range(50)
        }
        assert tokens == {1, 2}

    def test_temperature_zero_after_mask(self):
        probs = np.array([0.5, 0.3, 0.2])
        token, _ = sample_from_distribution(
            probs, np.random.default_rng(0), temperature=0.0, allowed_ids=[1, 2]
        )
        assert token == 1

    def test_low_temperature_sharpens(self):
        probs = np.array([0.6, 0.4])
        rng = np.random.default_rng(3)
        cold = [
            sample_from_distribution(probs, rng, temperature=0.1)[0]
            for _ in range(200)
        ]
        assert np.mean(cold) < 0.05  # almost always token 0

    def test_high_temperature_flattens(self):
        probs = np.array([0.9, 0.1])
        rng = np.random.default_rng(4)
        hot = [
            sample_from_distribution(probs, rng, temperature=10.0)[0]
            for _ in range(400)
        ]
        assert 0.3 < np.mean(hot) < 0.7

    def test_top_k_filters(self):
        probs = np.array([0.5, 0.3, 0.15, 0.05])
        rng = np.random.default_rng(5)
        tokens = {
            sample_from_distribution(probs, rng, top_k=2)[0] for _ in range(100)
        }
        assert tokens <= {0, 1}

    def test_top_p_filters(self):
        probs = np.array([0.55, 0.4, 0.04, 0.01])
        rng = np.random.default_rng(6)
        tokens = {
            sample_from_distribution(probs, rng, top_p=0.9)[0] for _ in range(200)
        }
        assert tokens <= {0, 1}

    def test_invalid_args_raise(self):
        probs = np.array([1.0])
        rng = np.random.default_rng(0)
        with pytest.raises(GenerationError):
            sample_from_distribution(probs, rng, temperature=-1.0)
        with pytest.raises(GenerationError):
            sample_from_distribution(probs, rng, top_k=0)
        with pytest.raises(GenerationError):
            sample_from_distribution(probs, rng, top_p=0.0)
        with pytest.raises(GenerationError):
            sample_from_distribution(np.zeros((2, 2)), rng)
        with pytest.raises(GenerationError):
            sample_from_distribution(np.array([0.5, 0.5]), rng, allowed_ids=[5])
        with pytest.raises(GenerationError):
            sample_from_distribution(np.array([0.5, 0.5]), rng, allowed_ids=[])

    def test_all_zero_distribution_raises(self):
        with pytest.raises(GenerationError):
            sample_from_distribution(np.zeros(3), np.random.default_rng(0))


class TestDrawTokens:
    """``draw_tokens`` must consume each generator as ``Generator.choice``."""

    @staticmethod
    def _rows(rng, count):
        for _ in range(count):
            size = int(rng.integers(2, 40))
            raw = rng.random(size) ** float(rng.choice([1.0, 8.0, 60.0]))
            raw[rng.random(size) < 0.3] = 0.0
            if rng.random() < 0.2:
                raw[int(rng.integers(size))] = 1e-300  # near-zero entry
            if rng.random() < 0.1:
                raw[:] = 0.0  # all mass masked: uniform over the mask
            mask = rng.random(size) < 0.7
            mask[int(rng.integers(size))] = True
            yield raw, mask

    @pytest.mark.parametrize("temperature", [1.0, 0.5, 1.7])
    def test_matches_generator_choice(self, temperature):
        master = np.random.default_rng(int(temperature * 10))
        for raw, mask in self._rows(master, 400):
            p, greedy = filter_distribution(
                raw, temperature=temperature, allowed_mask=mask
            )
            assert not greedy
            seeds = master.integers(0, 2**63, size=6)
            expected = [
                int(np.random.default_rng(s).choice(p.size, p=p)) for s in seeds
            ]
            rngs = [np.random.default_rng(s) for s in seeds]
            assert draw_tokens(p, rngs) == expected
            # Every generator is left exactly where choice leaves it.
            after = [np.random.default_rng(s) for s in seeds]
            for rng in after:
                rng.choice(p.size, p=p)
            assert [r.random() for r in rngs] == [r.random() for r in after]

    def test_greedy_takes_argmax_and_leaves_generators_alone(self):
        p, greedy = filter_distribution(np.array([0.2, 0.5, 0.3]), temperature=0.0)
        assert greedy
        rngs = [np.random.default_rng(s) for s in range(3)]
        assert draw_tokens(p, rngs, greedy=True) == [1, 1, 1]
        assert [r.random() for r in rngs] == [
            np.random.default_rng(s).random() for s in range(3)
        ]

    @pytest.mark.parametrize(
        "p,message",
        [
            (np.array([0.5, np.nan]), "NaN"),
            (np.array([1.5, -0.5]), "non-negative"),
            (np.array([0.5, 0.4]), "sum to 1"),
        ],
    )
    def test_rejects_what_choice_rejects(self, p, message):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(p.size, p=p)
        with pytest.raises(ValueError, match=message):
            draw_tokens(p, [np.random.default_rng(0)])

    def test_sample_from_distribution_matches_choice(self):
        rng = np.random.default_rng(5)
        for raw, mask in self._rows(rng, 200):
            seed = int(rng.integers(2**63))
            token, prob = sample_from_distribution(
                raw, np.random.default_rng(seed), allowed_mask=mask
            )
            p, _ = filter_distribution(raw, allowed_mask=mask)
            assert token == int(np.random.default_rng(seed).choice(p.size, p=p))
            assert prob == float(p[token])


def _reference_filter(probs, temperature, top_k, top_p, allowed_mask):
    """The one-row filter as it stood before the step kernel (naive)."""
    p = np.asarray(probs, dtype=float)
    if temperature < 0:
        raise GenerationError(f"temperature must be >= 0, got {temperature}")
    if top_k is not None and top_k < 1:
        raise GenerationError(f"top_k must be >= 1, got {top_k}")
    if top_p is not None and not 0.0 < top_p <= 1.0:
        raise GenerationError(f"top_p must be in (0, 1], got {top_p}")
    p = np.clip(p, 0.0, None)
    mask = None
    if allowed_mask is not None:
        mask = np.asarray(allowed_mask, dtype=bool)
        if not mask.any():
            raise GenerationError("allowed_mask admits no ids")
    if mask is not None:
        p = np.where(mask, p, 0.0)
        if p.sum() <= 0.0:
            p = mask.astype(float)
    if p.sum() <= 0.0:
        raise GenerationError("distribution has no probability mass")
    p = p / p.sum()
    if temperature < 1e-6:
        return p, True
    if temperature != 1.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = np.where(p > 0.0, np.log(p), -np.inf)
            logp = logp / temperature
            logp -= logp.max()
            p = np.exp(logp)
        p[~np.isfinite(p)] = 0.0
        p = p / p.sum()
    if top_k is not None and top_k < np.count_nonzero(p):
        keep = np.argsort(p)[-top_k:]
        filtered = np.zeros_like(p)
        filtered[keep] = p[keep]
        p = filtered / filtered.sum()
    if top_p is not None and top_p < 1.0:
        order = np.argsort(p)[::-1]
        cumulative = np.cumsum(p[order])
        cutoff = int(np.searchsorted(cumulative, top_p)) + 1
        keep = order[:cutoff]
        filtered = np.zeros_like(p)
        filtered[keep] = p[keep]
        p = filtered / filtered.sum()
    return p, False


def _reference_draw(p, rngs, greedy):
    """The one-row draw as it stood before the step kernel (naive)."""
    if greedy:
        return [int(np.argmax(p))] * len(rngs)
    total = math.fsum(p.tolist())
    if math.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > float(np.sqrt(np.finfo(np.float64).eps)):
        raise ValueError("Probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    bounds = cdf.tolist()
    return [bisect_right(bounds, rng.random()) for rng in rngs]


def _reference_step(probs, rngs, temperature, top_k, top_p, mask):
    """Per-row filter + draw, partitioned like ``sample_step``'s result."""
    step = []
    for g, row_rngs in enumerate(rngs):
        row_mask = None if mask is None else (mask if mask.ndim == 1 else mask[g])
        with np.errstate(invalid="ignore"):  # NaN rows
            p, greedy = _reference_filter(
                probs[g], temperature, top_k, top_p, row_mask
            )
        parts = {}
        for member, token in enumerate(_reference_draw(p, row_rngs, greedy)):
            parts.setdefault(token, []).append(member)
        step.append([(t, float(p[t]), members) for t, members in parts.items()])
    return step


def _same(a, b):
    """Equality that also holds between two NaNs (greedy NaN rows)."""
    return a == b or (a != a and b != b)


class TestSampleStep:
    """``sample_step`` equals per-row filter + draw on every row."""

    TEMPERATURES = (0.0, 1e-7, 0.5, 1.0, 1.7)

    @classmethod
    def _case(cls, rng, poison=False):
        size = int(rng.choice([2, 11, 27]))
        rows = int(rng.integers(1, 9))
        layout = rng.random()
        probs = rng.random((rows, size)) ** float(rng.choice([1.0, 8.0, 60.0]))
        probs[rng.random((rows, size)) < 0.3] = 0.0
        for g in range(rows):
            kind = rng.random()
            if kind < 0.1 and layout < 0.8:
                probs[g] = 0.0  # no mass: the uniform fallback of the mask
            elif kind < 0.2:
                probs[g] = np.round(probs[g], 1)  # ties for top-k/top-p
            elif kind < 0.25:
                probs[g, int(rng.integers(size))] = 1e-300
            if poison and rng.random() < 0.3:
                if rng.random() < 0.5:
                    probs[g, int(rng.integers(size))] = np.nan
                else:
                    probs[g] = -rng.random(size)
        if layout >= 0.8:
            probs[probs.sum(axis=1) == 0.0, 0] = 1.0  # unmasked rows need mass
        mask = None
        if layout < 0.3:
            mask = rng.random(size) < 0.6
            mask[int(rng.integers(size))] = True
        elif layout < 0.6:
            mask = rng.random((rows, size)) < 0.6
            mask[np.arange(rows), rng.integers(size, size=rows)] = True
        elif layout < 0.8:
            mask = np.zeros(size, dtype=bool)  # a single admitted id
            mask[int(rng.integers(size))] = True
        top_k = top_p = None
        if rng.random() < 0.3:
            top_k = int(rng.integers(1, size + 2))
        if rng.random() < 0.3:
            # Dyadic cut-offs land exactly on the cumulative mass of
            # uniform rows (the mask fallback over 2, 4 or 8 ids).
            top_p = float(rng.choice([1.0, 0.25, 0.5, 0.75, rng.uniform(0.05, 1.0)]))
        temperature = float(rng.choice(cls.TEMPERATURES))
        seeds = [
            [int(seed) for seed in rng.integers(0, 2**63, size=int(rng.integers(1, 5)))]
            for _ in range(rows)
        ]
        return probs, mask, temperature, top_k, top_p, seeds

    @staticmethod
    def _run(step, probs, mask, temperature, top_k, top_p, seeds):
        rngs = [[np.random.default_rng(seed) for seed in row] for row in seeds]
        try:
            result = step(probs, rngs, temperature, top_k, top_p, mask)
        except Exception as exc:  # compared by type below
            return type(exc), None
        states = [[rng.bit_generator.state for rng in row] for row in rngs]
        return result, states

    def test_matches_per_row_reference(self):
        master = np.random.default_rng(2024)
        kernel = lambda probs, rngs, t, k, p, mask: sample_step(  # noqa: E731
            probs, rngs, temperature=t, top_k=k, top_p=p, allowed_mask=mask
        )
        for _ in range(1200):
            case = self._case(master)
            got, got_states = self._run(kernel, *case)
            want, want_states = self._run(_reference_step, *case)
            assert got_states is not None and want_states is not None
            assert got_states == want_states
            assert len(got) == len(want)
            for got_row, want_row in zip(got, want):
                assert [(t, m) for t, _, m in got_row] == [(t, m) for t, _, m in want_row]
                assert all(
                    _same(a, b)
                    for (_, a, _), (_, b, _) in zip(got_row, want_row)
                )

    def test_bad_rows_raise_what_per_row_raises(self):
        master = np.random.default_rng(7)
        kernel = lambda probs, rngs, t, k, p, mask: sample_step(  # noqa: E731
            probs, rngs, temperature=t, top_k=k, top_p=p, allowed_mask=mask
        )
        raised = 0
        for _ in range(600):
            case = self._case(master, poison=True)
            got, got_states = self._run(kernel, *case)
            want, want_states = self._run(_reference_step, *case)
            if want_states is None:
                raised += 1
                assert got == want and got_states is None
                continue
            assert got_states == want_states
            for got_row, want_row in zip(got, want):
                assert [(t, m) for t, _, m in got_row] == [(t, m) for t, _, m in want_row]
                assert all(
                    _same(a, b)
                    for (_, a, _), (_, b, _) in zip(got_row, want_row)
                )
        assert raised > 50  # the poisoned rows do reach both error paths

    def test_forced_slot_is_certain(self):
        # One admitted id: probability exactly 1 at every temperature, so a
        # decoder may take it unscored (the forced-position skip).
        master = np.random.default_rng(3)
        for temperature in self.TEMPERATURES:
            probs = master.random((4, 11))
            probs[0] = 0.0
            mask = np.zeros(11, dtype=bool)
            mask[10] = True
            step = sample_step(
                probs,
                [[np.random.default_rng(0)]] * 4,
                temperature=temperature,
                top_k=2,
                top_p=0.5,
                allowed_mask=mask,
            )
            assert step == [[(10, 1.0, [0])]] * 4
            assert float(np.log(1.0)) == 0.0

    @pytest.mark.parametrize("width", range(1, 65))
    def test_axis1_reductions_equal_per_row(self, width):
        # The kernel's premise: an axis-1 sum/cumsum over C-contiguous rows
        # gives each row the bits of the 1-D call.
        master = np.random.default_rng(width)
        for rows in (1, 2, 3, 5, 8, 17):
            matrix = master.random((rows, width)) ** 8.0
            matrix[master.random((rows, width)) < 0.3] = 0.0
            sums = matrix.sum(axis=1)
            cumsums = np.cumsum(matrix, axis=1)
            for g in range(rows):
                row = np.array(matrix[g])
                assert sums[g].tobytes() == row.sum().tobytes()
                assert cumsums[g].tobytes() == row.cumsum().tobytes()

    def test_rejects_bad_shapes(self):
        rngs = [[np.random.default_rng(0)]]
        with pytest.raises(GenerationError, match="score matrix"):
            sample_step(np.ones(3) / 3, rngs)
        with pytest.raises(GenerationError, match="score matrix"):
            sample_step(np.ones((2, 3)) / 3, rngs)
        with pytest.raises(GenerationError, match="does not match"):
            sample_step(np.ones((1, 3)) / 3, rngs, allowed_mask=np.ones(4, bool))
        with pytest.raises(GenerationError, match="admits no ids"):
            sample_step(np.ones((1, 3)) / 3, rngs, allowed_mask=np.zeros(3, bool))
        with pytest.raises(GenerationError, match="temperature"):
            sample_step(np.ones((1, 3)) / 3, rngs, temperature=-1.0)


class TestConstraints:
    def test_set_constraint_is_position_independent(self):
        constraint = SetConstraint([1, 2, 3])
        assert constraint.allowed_at(0) == constraint.allowed_at(99)

    def test_empty_set_rejected(self):
        with pytest.raises(ConfigError):
            SetConstraint([])

    def test_periodic_pattern_cycles(self):
        digits = frozenset(range(10))
        comma = frozenset([10])
        constraint = PeriodicPatternConstraint([digits, digits, comma])
        assert constraint.allowed_at(0) == digits
        assert constraint.allowed_at(2) == comma
        assert constraint.allowed_at(3) == digits
        assert constraint.allowed_at(5) == comma

    def test_phase_shift(self):
        a, b = frozenset([0]), frozenset([1])
        constraint = PeriodicPatternConstraint([a, b], phase=1)
        assert constraint.allowed_at(0) == b
        assert constraint.allowed_at(1) == a

    def test_empty_pattern_rejected(self):
        with pytest.raises(ConfigError):
            PeriodicPatternConstraint([])

    def test_empty_slot_rejected(self):
        with pytest.raises(ConfigError):
            PeriodicPatternConstraint([frozenset([1]), frozenset()])

    def test_negative_position_rejected(self):
        constraint = PeriodicPatternConstraint([frozenset([1])])
        with pytest.raises(ConfigError):
            constraint.allowed_at(-1)

    def test_generation_follows_structured_grammar(self):
        """Even a uniform model emits perfectly formed groups under the grammar."""
        vocab = digit_vocabulary()
        digits = vocab.ids_of("0123456789")
        comma = vocab.ids_of(",")
        constraint = PeriodicPatternConstraint(
            [digits, digits, digits, comma]
        )
        model = UniformLM(vocab_size=len(vocab))
        result = model.generate([], 12, np.random.default_rng(7), constraint=constraint)
        text = "".join(vocab.decode(result.tokens))
        groups = text.split(",")
        assert [len(g) for g in groups[:3]] == [3, 3, 3]


class TestCostModel:
    def test_seconds_scale_linearly_with_generated_tokens(self):
        cost = TokenCostModel(seconds_per_generated_token=0.5)
        assert cost.seconds(0, 100) == pytest.approx(50.0)
        assert cost.seconds(0, 200) == pytest.approx(100.0)

    def test_prompt_tokens_are_cheap_but_counted(self):
        cost = TokenCostModel(
            seconds_per_generated_token=0.5, seconds_per_prompt_token=0.002
        )
        assert cost.seconds(1000, 0) == pytest.approx(2.0)

    def test_dollars_count_all_tokens(self):
        cost = TokenCostModel(usd_per_1k_tokens=2.0)
        assert cost.dollars(500, 500) == pytest.approx(2.0)

    def test_negative_rates_rejected(self):
        with pytest.raises(ConfigError):
            TokenCostModel(seconds_per_generated_token=-1.0)


_PRESETS = ["llama2-7b-sim", "ngram-sim", "phi2-2.7b-sim", "uniform-sim"]


class TestRegistry:
    def test_paper_presets_available(self):
        assert available_models() == _PRESETS

    @pytest.mark.parametrize("name", ["ctw-sim", "ppm-recency-sim"])
    def test_deleted_presets_are_unknown(self, name):
        with pytest.raises(ConfigError, match=f"unknown model {name!r}") as info:
            get_model(name, vocab_size=11)
        for preset in _PRESETS:
            assert preset in str(info.value)

    def test_deleted_model_classes_do_not_import(self):
        with pytest.raises(ImportError):
            from repro.llm import CTWLanguageModel  # noqa: F401
        with pytest.raises(ImportError):
            from repro.llm import RecencyPPMLanguageModel  # noqa: F401

    def test_get_model_instantiates(self):
        model = get_model("llama2-7b-sim", vocab_size=11)
        assert model.name == "llama2-7b-sim"
        assert model.vocab_size == 11

    def test_unknown_model_raises_with_suggestions(self):
        with pytest.raises(ConfigError, match="llama2-7b-sim"):
            get_model("gpt-17", vocab_size=11)

    def test_duplicate_registration_rejected(self):
        spec = ModelSpec(name="llama2-7b-sim", factory=UniformLM)
        with pytest.raises(ConfigError):
            register_model(spec)

    def test_overwrite_allowed_when_explicit(self):
        spec = ModelSpec(name="test-overwrite", factory=UniformLM)
        register_model(spec)
        register_model(spec, overwrite=True)
        assert "test-overwrite" in available_models()

    def test_registry_is_restored_after_each_test(self):
        """``test_overwrite_allowed_when_explicit`` registered a model; the
        autouse fixture in ``conftest.py`` removed it again."""
        assert available_models() == _PRESETS

    def test_generation_is_reproducible_with_seeded_rng(self):
        model = get_model("llama2-7b-sim", vocab_size=11)
        context = list(range(10)) * 4
        a = model.generate(context, 20, np.random.default_rng(42)).tokens
        b = model.generate(context, 20, np.random.default_rng(42)).tokens
        assert a == b

    def test_simulated_model_is_stateless_across_calls(self):
        model = get_model("llama2-7b-sim", vocab_size=11)
        context = [1, 2, 3] * 10
        first = model.generate(context, 10, np.random.default_rng(0)).tokens
        model.generate([5, 6] * 20, 10, np.random.default_rng(9))
        again = model.generate(context, 10, np.random.default_rng(0)).tokens
        assert first == again

    def test_nll_scoring_through_wrapper(self):
        model = get_model("llama2-7b-sim", vocab_size=5)
        nll = model.sequence_nll([0, 1, 2], context=[0, 1, 2] * 10)
        assert nll.shape == (3,)
        assert np.isfinite(nll).all()


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0),
        min_size=2,
        max_size=20,
    ).filter(lambda xs: sum(xs) > 0),
    st.floats(min_value=0.0, max_value=5.0),
)
@settings(max_examples=60)
def test_sampling_always_returns_valid_token_property(weights, temperature):
    probs = np.asarray(weights)
    probs = probs / probs.sum()
    token, p = sample_from_distribution(
        probs, np.random.default_rng(0), temperature=temperature
    )
    assert 0 <= token < probs.size
    assert 0.0 <= p <= 1.0 + 1e-9


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=40))
def test_periodic_constraint_period_property(period, position):
    pattern = [frozenset([i]) for i in range(period)]
    constraint = PeriodicPatternConstraint(pattern)
    assert constraint.allowed_at(position) == frozenset([position % period])
