"""Shared-prefix ingest caching: cache semantics, bit-identity, wiring.

Three layers are covered:

* :class:`~repro.llm.state_cache.IngestStateCache` unit behaviour —
  fork / extend / miss resolution, LRU-by-token eviction, thread safety,
  and the ``max_tokens=0`` disabled mode;
* the regression that matters most: with a fixed seed, forecasts are
  **bit-identical** with and without ingest caching, on both decoders,
  across multiplexing schemes and both raw/SAX paths — and equal to the
  pinned digests of drawing each sample from its own prompt ingest;
* wiring: engine counters and ledger field, and the rolling-origin
  backtest's incremental prompt extension.
"""

import hashlib
import threading
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ForecastSpec,
    MultiCastConfig,
    MultiCastForecaster,
    SaxConfig,
)
from repro.data import Dataset
from repro.evaluation import rolling_origin_evaluation
from repro.exceptions import ConfigError, GenerationError
from repro.llm import (
    IngestStateCache,
    PPMLanguageModel,
    get_model,
)
from repro.observability import Tracer

RNG = np.random.default_rng(42)
# Extremes pinned at the very start so every backtest window's scaler fit
# is identical and later prompts are strict extensions of earlier ones.
HISTORY = np.column_stack(
    [
        np.concatenate(([5.0, -5.0], np.sin(np.arange(58) / 3.0))),
        np.concatenate(([4.0, -4.0], np.cos(np.arange(58) / 4.0))),
    ]
) + 0.05 * RNG.standard_normal((60, 2))
HISTORY[0] = [6.0, 5.0]
HISTORY[1] = [-6.0, -5.0]


def _prefilled(tokens, vocab_size=5):
    model = PPMLanguageModel(vocab_size, max_order=4)
    model.reset(tokens)
    return model


class TestIngestStateCache:
    def test_miss_then_exact_hit_forks(self):
        cache = IngestStateCache()
        prompt = [0, 1, 2, 3] * 5
        lookup = cache.get("m", 5, prompt)
        assert lookup.outcome == "miss" and lookup.model is None
        cache.put("m", 5, prompt, _prefilled(prompt))
        hit = cache.get("m", 5, prompt)
        assert hit.outcome == "fork"
        assert hit.matched == len(prompt)
        np.testing.assert_array_equal(
            hit.model.next_distribution(),
            _prefilled(prompt).next_distribution(),
        )

    def test_strict_prefix_extends_with_private_fork(self):
        cache = IngestStateCache()
        prefix = [0, 1, 2, 3] * 5
        cached = _prefilled(prefix)
        cache.put("m", 5, prefix, cached)
        longer = prefix + [1, 2, 3, 0]
        lookup = cache.get("m", 5, longer)
        assert lookup.outcome == "extend"
        assert lookup.matched == len(prefix)
        assert lookup.model is not cached  # a private fork, safe to advance
        for token in longer[lookup.matched :]:
            lookup.model.advance(token)
        np.testing.assert_array_equal(
            lookup.model.next_distribution(),
            _prefilled(longer).next_distribution(),
        )

    def test_longest_prefix_wins(self):
        cache = IngestStateCache()
        short, long = [0, 1] * 3, [0, 1] * 6
        cache.put("m", 5, short, _prefilled(short))
        cache.put("m", 5, long, _prefilled(long))
        lookup = cache.get("m", 5, [0, 1] * 9)
        assert lookup.outcome == "extend" and lookup.matched == len(long)

    def test_namespaced_by_model_and_vocab(self):
        cache = IngestStateCache()
        prompt = [0, 1, 2] * 4
        cache.put("m", 5, prompt, _prefilled(prompt))
        assert cache.get("other", 5, prompt).outcome == "miss"
        assert cache.get("m", 7, prompt).outcome == "miss"
        assert cache.get("m", 5, prompt).outcome == "fork"

    def test_identical_prompt_is_not_an_extend(self):
        cache = IngestStateCache()
        prompt = [0, 1, 2] * 4
        cache.put("m", 5, prompt, _prefilled(prompt))
        # Equal length is not a *strict* prefix: resolves as exact hit only.
        assert cache.get("m", 5, list(prompt)).outcome == "fork"

    def test_lru_eviction_by_token_count(self):
        cache = IngestStateCache(max_tokens=25)
        a, b, c = [0] * 10, [1] * 10, [2] * 10
        cache.put("m", 5, a, _prefilled(a))
        cache.put("m", 5, b, _prefilled(b))
        assert cache.get("m", 5, a).outcome == "fork"  # refresh a
        cache.put("m", 5, c, _prefilled(c))  # 30 > 25: evicts LRU = b
        assert cache.get("m", 5, b).outcome == "miss"
        assert cache.get("m", 5, a).outcome == "fork"
        assert cache.get("m", 5, c).outcome == "fork"
        assert cache.stats["evictions"] == 1
        assert cache.stats["total_tokens"] == 20

    def test_oversized_prompt_is_not_cached(self):
        cache = IngestStateCache(max_tokens=5)
        prompt = [0] * 10
        cache.put("m", 5, prompt, _prefilled(prompt))
        assert len(cache) == 0

    def test_disabled_cache_is_a_no_op(self):
        cache = IngestStateCache(max_tokens=0)
        assert not cache.enabled
        prompt = [0, 1] * 4
        cache.put("m", 5, prompt, _prefilled(prompt))
        assert cache.get("m", 5, prompt).outcome == "miss"
        assert len(cache) == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigError, match="max_tokens"):
            IngestStateCache(max_tokens=-1)

    def test_stats_track_hits_extends_misses_and_savings(self):
        cache = IngestStateCache()
        prompt = [0, 1, 2, 3] * 3
        cache.get("m", 5, prompt)
        cache.put("m", 5, prompt, _prefilled(prompt))
        cache.get("m", 5, prompt)
        cache.get("m", 5, prompt + [0, 1])
        stats = cache.stats
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["extends"] == 1
        assert stats["tokens_saved"] == 2 * len(prompt)
        assert stats["hit_rate"] == pytest.approx(2 / 3)

    def test_clear_drops_entries_keeps_stats(self):
        cache = IngestStateCache()
        prompt = [0, 1] * 4
        cache.put("m", 5, prompt, _prefilled(prompt))
        cache.get("m", 5, prompt)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats["hits"] == 1
        assert cache.get("m", 5, prompt).outcome == "miss"

    def test_concurrent_forks_of_a_shared_entry_are_safe(self):
        cache = IngestStateCache()
        prompt = [0, 1, 2, 3, 2, 1] * 8
        cache.put("m", 5, prompt, _prefilled(prompt))
        expected = _prefilled(prompt).next_distribution()
        errors = []

        def worker(seed):
            try:
                for _ in range(10):
                    lookup = cache.get("m", 5, prompt)
                    fork = lookup.model.fork()
                    fork.decode(8, np.random.default_rng(seed))
                    np.testing.assert_array_equal(
                        lookup.model.next_distribution(), expected
                    )
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        np.testing.assert_array_equal(
            cache.get("m", 5, prompt).model.next_distribution(), expected
        )


class TestSimulatedPrefill:
    def test_prefill_generate_matches_plain_generate(self):
        llm = get_model("llama2-7b-sim", vocab_size=11)
        prompt = [0, 1, 2, 10, 3, 4, 5, 10] * 6
        session = llm.prefill(prompt)
        assert session.outcome == "miss"
        assert session.ingested_tokens == len(prompt)
        (a,) = llm.generate_batch(
            prompt, 8, [np.random.default_rng(5)], session=session
        ).results
        b = llm.generate(prompt, 8, np.random.default_rng(5))
        assert a.tokens == b.tokens and a.log_probs == b.log_probs

    def test_prefill_uses_and_feeds_the_cache(self):
        cache = IngestStateCache()
        llm = get_model("llama2-7b-sim", vocab_size=11, state_cache=cache)
        prompt = [0, 1, 2, 10] * 8
        assert llm.prefill(prompt).outcome == "miss"
        again = llm.prefill(prompt)
        assert again.outcome == "fork" and again.ingested_tokens == 0
        extended = llm.prefill(prompt + [3, 4, 5, 10])
        assert extended.outcome == "extend"
        assert extended.ingested_tokens == 4
        # The extended state was re-deposited: an exact repeat now forks it.
        assert llm.prefill(prompt + [3, 4, 5, 10]).outcome == "fork"

    def test_traced_prefill_spans_the_lookup(self, monkeypatch):
        cache = IngestStateCache()
        tracer = Tracer()
        llm = get_model("llama2-7b-sim", vocab_size=11, state_cache=cache)
        open_during_get = []
        real_get = cache.get

        def get(*args):
            span = tracer.current_span()
            open_during_get.append(None if span is None else span.name)
            return real_get(*args)

        monkeypatch.setattr(cache, "get", get)
        prompt = [0, 1, 2, 10] * 8
        for tokens in (prompt, prompt + [3, 4, 5, 10], prompt):
            llm.prefill(tokens, tracer=tracer)
        spans = tracer.collector.drain()
        assert [span.name for span in spans] == ["llm:ingest"] * 3
        assert [span.attributes["ingest"] for span in spans] == [
            "miss",
            "extend",
            "fork",
        ]
        assert open_during_get == ["llm:ingest"] * 3

    def test_session_context_mismatch_is_an_error(self):
        llm = get_model("llama2-7b-sim", vocab_size=11)
        session = llm.prefill([0, 1, 2, 10])
        with pytest.raises(GenerationError, match="session"):
            llm.generate_batch(
                [0, 1, 2, 3], 4, [np.random.default_rng(0)], session=session
            )


#: ``sha256(values.tobytes() + samples.tobytes())`` of each case with every
#: sample drawn on its own from a fresh ingest of the prompt (the per-draw
#: path the shared prefill and the ingest cache replaced), captured before
#: that path was deleted.
PER_DRAW = {
    "di-raw": "622840eaec18678d3611e86f5654bf00bf70c178cc2bf27bd978ebf241266116",
    "di-sax": "7f8cd5939134b50913ee359061d6892c57261f411ad3478fdf65b4de87f7dce3",
    "vi-raw": "3f079ef4786138456265d7a3516f55b4af809e3564c430665471d374bd26fc97",
    "vi-sax": "7f8cd5939134b50913ee359061d6892c57261f411ad3478fdf65b4de87f7dce3",
    "vc-raw": "c30815214ae4c26fd617dba99c0ca9ffd06d9fffe9d8ee5be4a4a5d1da6ec4da",
    "vc-sax": "14cc0ce81f08cb4a57504e4027bc951e3fa5997b34409095f8cd7d2549d50cfe",
    "extended": "b5960abbc21326b641172dc78a23512acee3e50966bd7637fff3b5e6ad6317a2",
    "charge": "73dc2d6c5ab580170c09bd43effb1dfcd0c17a6ad4162da01c8c5d06ea120829",
}


def _digest(output) -> str:
    return hashlib.sha256(
        output.values.tobytes() + output.samples.tobytes()
    ).hexdigest()


def _forecast(config, state_cache=None):
    forecaster = MultiCastForecaster(state_cache=state_cache)
    spec = ForecastSpec.from_config(config, series=HISTORY, horizon=5)
    return forecaster.forecast(spec)


class TestBitIdentity:
    """The tentpole regression: caching must never change a single bit."""

    @pytest.mark.parametrize("scheme", ["di", "vi", "vc"])
    @pytest.mark.parametrize("sax", [None, SaxConfig()], ids=["raw", "sax"])
    def test_cached_and_uncached_forecasts_are_bit_identical(self, scheme, sax):
        config = MultiCastConfig(scheme=scheme, sax=sax, num_samples=3, seed=123)
        baseline = _forecast(config)  # no cache
        cache = IngestStateCache()
        cold = _forecast(config, state_cache=cache)  # cache miss
        warm = _forecast(config, state_cache=cache)  # cache fork
        assert cold.metadata["ingest"] == "miss"
        assert warm.metadata["ingest"] == "fork"
        expected = PER_DRAW[f"{scheme}-{'raw' if sax is None else 'sax'}"]
        for output in (baseline, cold, warm):
            assert _digest(output) == expected
            assert output.prompt_tokens == baseline.prompt_tokens
            assert output.generated_tokens == baseline.generated_tokens
            assert output.simulated_seconds == baseline.simulated_seconds

    def test_extended_history_is_bit_identical_too(self):
        config = MultiCastConfig(scheme="di", num_samples=2, seed=7)
        cache = IngestStateCache()
        forecaster = MultiCastForecaster(state_cache=cache)
        forecaster.forecast(ForecastSpec.from_config(config, series=HISTORY[:50], horizon=4))
        extended = forecaster.forecast(
            ForecastSpec.from_config(config, series=HISTORY[:55], horizon=4)
        )
        assert extended.metadata["ingest"] == "extend"
        uncached = MultiCastForecaster().forecast(
            ForecastSpec.from_config(config, series=HISTORY[:55], horizon=4)
        )
        assert _digest(extended) == _digest(uncached) == PER_DRAW["extended"]

    def test_simulated_seconds_charge_ingest_once(self):
        config = MultiCastConfig(scheme="di", num_samples=4, seed=0)
        output = _forecast(config)
        assert _digest(output) == PER_DRAW["charge"]
        llm = get_model(config.model, vocab_size=11)
        per_sample = output.generated_tokens // 4
        expected = llm.cost.seconds(output.prompt_tokens, 0) + 4 * llm.cost.seconds(
            0, per_sample
        )
        assert output.simulated_seconds == pytest.approx(expected)


class TestEngineWiring:
    def test_engine_counts_ingest_outcomes_and_ledger_records_them(self, tmp_path):
        from repro.serving import ForecastCache, ForecastEngine, ForecastRequest

        ledger_path = tmp_path / "ledger.jsonl"
        config = MultiCastConfig(num_samples=2, seed=0)
        with ForecastEngine(
            cache=ForecastCache(max_entries=0),  # isolate the ingest cache
            ledger=str(ledger_path),
        ) as engine:
            engine.forecast(ForecastRequest(HISTORY, 4, config=config))
            # Same prompt, different seed: result cache can't help, the
            # ingest cache can.
            second = MultiCastConfig(num_samples=2, seed=1)
            engine.forecast(ForecastRequest(HISTORY, 4, config=second))
            assert engine.metrics.counter("ingest_cache_misses").value == 1
            assert engine.metrics.counter("ingest_cache_hits").value == 1
            snapshot = engine.metrics_snapshot()
        assert snapshot["ingest_cache"]["hits"] == 1
        assert snapshot["ingest_cache"]["misses"] == 1
        from repro.observability import read_ledger

        records = read_ledger(str(ledger_path))
        assert [r["ingest"] for r in records] == ["miss", "fork"]

    def test_disabled_ingest_cache_still_serves(self):
        from repro.serving import ForecastEngine, ForecastRequest

        config = MultiCastConfig(num_samples=2, seed=0)
        with ForecastEngine(
            ingest_cache=IngestStateCache(max_tokens=0)
        ) as engine:
            response = engine.forecast(ForecastRequest(HISTORY, 4, config=config))
        assert response.ok
        assert response.output.metadata["ingest"] == "miss"


class TestBacktestExtension:
    def test_rolling_origin_extends_instead_of_reingesting(self):
        dataset = Dataset(name="synthetic", values=HISTORY, dim_names=("a", "b"))
        cache = IngestStateCache()
        spec = ForecastSpec(num_samples=2)
        uncached = rolling_origin_evaluation(
            "multicast-di", dataset, horizon=4, num_windows=3, spec=spec
        )
        cached = rolling_origin_evaluation(
            "multicast-di",
            dataset,
            horizon=4,
            num_windows=3,
            spec=spec,
            state_cache=cache,
        )
        assert cached.window_rmse == uncached.window_rmse
        stats = cache.stats
        # Window 1 misses; windows 2 and 3 extend the previous prompt.
        assert stats["misses"] == 1
        assert stats["extends"] == 2
        assert stats["tokens_saved"] > 0


class TestMissDeposit:
    """A miss ingests in one pass and deposits the full prompt only."""

    def test_miss_deposits_exactly_one_entry(self):
        cache = IngestStateCache()
        llm = get_model("llama2-7b-sim", vocab_size=5, state_cache=cache)
        prompt = tuple(int(t) for t in RNG.integers(0, 5, size=150))
        session = llm.prefill(prompt)
        assert session.outcome == "miss"
        assert cache.keys() == [("llama2-7b-sim", 5, prompt)]
        assert cache.stats["total_tokens"] == len(prompt)
        assert cache.get("llama2-7b-sim", 5, prompt).model is session.model

    def test_shorter_query_after_longer_deposit_misses(self):
        cache = IngestStateCache()
        llm = get_model("llama2-7b-sim", vocab_size=5, state_cache=cache)
        prompt = [int(t) for t in RNG.integers(0, 5, size=120)]
        assert llm.prefill(prompt).outcome == "miss"
        # In-context state cannot be rewound, and no shorter state is kept.
        shorter = llm.prefill(prompt[:90])
        assert shorter.outcome == "miss"
        assert shorter.ingested_tokens == 90
        fresh = get_model("llama2-7b-sim", vocab_size=5).prefill(prompt[:90])
        np.testing.assert_array_equal(
            shorter.model.next_distribution(),
            fresh.model.next_distribution(),
        )

    def test_disabled_cache_miss_still_ingests(self):
        cache = IngestStateCache(max_tokens=0)
        llm = get_model("llama2-7b-sim", vocab_size=5, state_cache=cache)
        prompt = [0, 1, 2, 3] * 10
        session = llm.prefill(prompt)
        assert session.outcome == "miss" and len(cache) == 0
        fresh = get_model("llama2-7b-sim", vocab_size=5).prefill(prompt)
        np.testing.assert_array_equal(
            session.model.next_distribution(), fresh.model.next_distribution()
        )


class TestIngestCheckpoints:
    """A miss deposits no checkpoints: its one-pass ingest is a plain reset."""

    def test_ingest_matches_plain_reset_bitwise(self):
        cache = IngestStateCache()
        llm = get_model("llama2-7b-sim", vocab_size=5, state_cache=cache)
        prompt = tuple(int(t) for t in RNG.integers(0, 5, size=90))
        session = llm.prefill(prompt)
        assert session.outcome == "miss"
        np.testing.assert_array_equal(
            session.model.next_distribution(), _prefilled(prompt).next_distribution()
        )
        # No entry at the former checkpoint lengths 16, 32 and 64.
        assert cache.keys() == [("llama2-7b-sim", 5, prompt)]


class _ReferenceCache:
    """The cache's contract as a plain LRU with a linear prefix scan."""

    def __init__(self, max_tokens):
        self.max_tokens = max_tokens
        self.keys = OrderedDict()
        self.stats = dict.fromkeys(
            ("hits", "extends", "misses", "evictions", "tokens_saved"), 0
        )

    def get(self, name, vocab_size, prompt):
        key = (name, vocab_size, prompt)
        if self.max_tokens and key in self.keys:
            self.keys.move_to_end(key)
            self.stats["hits"] += 1
            self.stats["tokens_saved"] += len(prompt)
            return "fork", len(prompt)
        best = None
        for cached in self.keys:
            length = len(cached[2])
            if (
                cached[:2] == key[:2]
                and 0 < length < len(prompt)
                and prompt[:length] == cached[2]
                and (best is None or length > len(best[2]))
            ):
                best = cached
        if best is None:
            self.stats["misses"] += 1
            return "miss", 0
        self.keys.move_to_end(best)
        self.stats["extends"] += 1
        self.stats["tokens_saved"] += len(best[2])
        return "extend", len(best[2])

    def put(self, name, vocab_size, prompt):
        if not self.max_tokens or len(prompt) > self.max_tokens:
            return
        key = (name, vocab_size, prompt)
        self.keys[key] = None
        self.keys.move_to_end(key)
        while sum(len(cached[2]) for cached in self.keys) > self.max_tokens:
            self.keys.popitem(last=False)
            self.stats["evictions"] += 1


#: Namespaces differing by model name and by vocabulary size; tokens stay
#: below 3 so every prompt is valid in each.
NAMESPACES = (("m", 3), ("m", 4), ("n", 3))

_OPERATION = st.tuples(
    st.sampled_from(["put"] * 4 + ["get"] * 4 + ["clear"]),
    st.sampled_from(NAMESPACES),
    st.integers(min_value=0, max_value=1),
    st.one_of(
        st.integers(min_value=0, max_value=56),
        st.integers(min_value=14, max_value=18),  # around the index floor
    ),
)


class TestIndexedLookup:
    """The head-indexed lookup against a brute-force scan of the keys."""

    @given(
        max_tokens=st.sampled_from([0, 24, 48, 96, 100_000]),
        branch=st.integers(min_value=0, max_value=24),
        tails=st.lists(
            st.lists(st.integers(0, 2), min_size=56, max_size=56),
            min_size=2,
            max_size=2,
        ),
        operations=st.lists(_OPERATION, min_size=1, max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_lookup_matches_brute_force_scan(
        self, max_tokens, branch, tails, operations
    ):
        # The two token streams share their first ``branch`` tokens, so
        # heads collide, and part ways below or above the index floor.
        streams = (tails[0], tails[0][:branch] + tails[1][branch:])
        cache = IngestStateCache(max_tokens=max_tokens)
        reference = _ReferenceCache(max_tokens)
        for operation, (name, vocab_size), stream, length in operations:
            prompt = tuple(streams[stream][:length])
            if operation == "clear":
                cache.clear()
                reference.keys.clear()
            elif operation == "put":
                cache.put(name, vocab_size, prompt, _prefilled(prompt, vocab_size))
                reference.put(name, vocab_size, prompt)
            else:
                lookup = cache.get(name, vocab_size, list(prompt))
                expected = reference.get(name, vocab_size, prompt)
                assert (lookup.outcome, lookup.matched) == expected
            assert cache.keys() == list(reference.keys)
            stats = cache.stats
            assert {key: stats[key] for key in reference.stats} == reference.stats
            assert stats["entries"] == len(reference.keys)
            assert stats["total_tokens"] == sum(
                len(key[2]) for key in reference.keys
            )
