"""Cross-request continuous batching: radix tree, scheduler, engine wiring.

Four layers are covered:

* :class:`~repro.scheduling.RadixPrefillTree` unit behaviour — exact-hit
  fork, cross-request prefix extension, shorter-query checkpoint reuse,
  LRU-by-token eviction with pinning, the disabled mode, thread safety;
* :class:`~repro.scheduling.ContinuousScheduler` — **bit-identity** with
  standalone per-request batched decoding across concurrent requests,
  admission-cap queueing, early stop, lifecycle;
* engine wiring — ``execution="continuous"`` byte-equality with
  ``"batched"`` across schemes × raw/SAX × cold/warm prefill tree, plus
  scheduler metrics and ledger fields;
* a thread-contention stress test: many threads submitting many specs
  concurrently, with no deadlock, no dropped request, and per-spec
  deterministic outputs.
"""

import json
import threading

import numpy as np
import pytest

from repro.core import MultiCastConfig, SaxConfig
from repro.exceptions import ConfigError, GenerationError
from repro.llm import PPMLanguageModel, get_model
from repro.llm.sampling import child_seeds
from repro.scheduling import ContinuousScheduler, RadixPrefillTree
from repro.serving import ForecastEngine, ForecastRequest

RNG = np.random.default_rng(7)
HISTORY = np.column_stack(
    [
        np.sin(np.arange(60) / 3.0),
        np.cos(np.arange(60) / 4.0),
    ]
) + 0.05 * RNG.standard_normal((60, 2))


def _prefilled(tokens, vocab_size=6):
    model = PPMLanguageModel(vocab_size, max_order=4)
    model.reset(tokens)
    return model


def _factory(vocab_size=6):
    return lambda: PPMLanguageModel(vocab_size, max_order=4)


def _tokens(n, vocab_size=6, seed=0):
    return [int(t) for t in np.random.default_rng(seed).integers(0, vocab_size, n)]


class TestRadixPrefillTree:
    def test_exact_hit_forks_shared_instance(self):
        tree = RadixPrefillTree()
        prompt = _tokens(40)
        first = tree.prefill("m", 6, prompt, _factory())
        assert first.outcome == "miss" and first.ingested == len(prompt)
        again = tree.prefill("m", 6, prompt, _factory())
        assert again.outcome == "fork" and again.ingested == 0
        assert again.model is first.model  # the shared frozen snapshot

    def test_cross_request_prefix_extend(self):
        tree = RadixPrefillTree()
        prefix = _tokens(50, seed=1)
        tree.prefill("m", 6, prefix, _factory())
        longer = prefix + _tokens(20, seed=2)
        result = tree.prefill("m", 6, longer, _factory())
        assert result.outcome == "extend"
        assert result.matched == len(prefix)
        assert result.ingested == 20
        np.testing.assert_array_equal(
            result.model.next_distribution(),
            _prefilled(longer).next_distribution(),
        )

    def test_shorter_query_finds_doubling_checkpoint(self):
        tree = RadixPrefillTree()
        prompt = _tokens(150, seed=3)
        tree.prefill("m", 6, prompt, _factory())
        # 100 < the 128 checkpoint, so the walk stops at the 64 snapshot.
        result = tree.prefill("m", 6, prompt[:100], _factory())
        assert result.outcome == "extend"
        assert result.matched == 64
        np.testing.assert_array_equal(
            result.model.next_distribution(),
            _prefilled(prompt[:100]).next_distribution(),
        )

    def test_prefill_bitwise_matches_plain_reset(self):
        tree = RadixPrefillTree()
        prompt = _tokens(90, seed=4)
        result = tree.prefill("m", 6, prompt, _factory())
        np.testing.assert_array_equal(
            result.model.next_distribution(),
            _prefilled(prompt).next_distribution(),
        )

    def test_namespaced_by_model_and_vocab(self):
        tree = RadixPrefillTree()
        prompt = _tokens(30, seed=5)
        tree.prefill("m", 6, prompt, _factory())
        assert tree.lookup("other", 6, prompt).outcome == "miss"
        assert tree.lookup("m", 7, prompt).outcome == "miss"
        assert tree.lookup("m", 6, prompt).outcome == "fork"

    def test_lru_eviction_by_resident_tokens(self):
        tree = RadixPrefillTree(max_tokens=40)
        old = _tokens(20, seed=6)
        new = [9 % 6] + _tokens(19, seed=8)
        tree.insert("m", 6, old, _prefilled(old))
        tree.lookup("m", 6, old)  # touch
        tree.insert("m", 6, new, _prefilled(new))
        third = [5] + _tokens(30, seed=9)
        tree.insert("m", 6, third, _prefilled(third))
        assert tree.stats["evictions"] >= 1
        assert tree.stats["resident_tokens"] <= 40

    def test_pinned_nodes_survive_eviction(self):
        tree = RadixPrefillTree(max_tokens=30)
        pinned_prompt = _tokens(20, seed=10)
        pinned = tree.prefill("m", 6, pinned_prompt, _factory(), pin=True)
        tree.insert("m", 6, [1] + _tokens(25, seed=11), _prefilled([1]))
        assert tree.lookup("m", 6, pinned_prompt).outcome == "fork"
        tree.release(pinned)
        tree.insert("m", 6, [2] + _tokens(28, seed=12), _prefilled([2]))
        assert tree.stats["resident_tokens"] <= 30

    def test_release_is_idempotent(self):
        tree = RadixPrefillTree()
        result = tree.prefill("m", 6, _tokens(20, seed=13), _factory(), pin=True)
        tree.release(result)
        tree.release(result)  # second release is a no-op

    def test_disabled_tree_is_a_no_op_but_still_ingests(self):
        tree = RadixPrefillTree(max_tokens=0)
        prompt = _tokens(40, seed=14)
        result = tree.prefill("m", 6, prompt, _factory())
        assert result.outcome == "miss"
        assert len(tree) == 0
        np.testing.assert_array_equal(
            result.model.next_distribution(),
            _prefilled(prompt).next_distribution(),
        )

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigError):
            RadixPrefillTree(max_tokens=-1)

    def test_clear_drops_snapshots(self):
        tree = RadixPrefillTree()
        tree.prefill("m", 6, _tokens(30, seed=15), _factory())
        assert len(tree) > 0
        tree.clear()
        assert len(tree) == 0

    def test_concurrent_prefills_are_consistent(self):
        tree = RadixPrefillTree()
        prompts = [_tokens(60, seed=s) for s in (20, 20, 21, 22)]
        results = [None] * 8
        errors = []

        def worker(index):
            try:
                prompt = prompts[index % len(prompts)]
                result = tree.prefill("m", 6, prompt, _factory())
                results[index] = (
                    prompt,
                    result.model.next_distribution().copy(),
                )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for prompt, dist in results:
            np.testing.assert_array_equal(
                dist, _prefilled(prompt).next_distribution()
            )


    def test_concurrent_identical_prompts_single_flight(self):
        tree = RadixPrefillTree()
        prompt = _tokens(2000, seed=23)
        builds = []

        def counting_factory():
            model = PPMLanguageModel(6, max_order=4)
            builds.append(model)
            return model

        results = [None] * 8
        barrier = threading.Barrier(8)

        def worker(index):
            barrier.wait()
            results[index] = tree.prefill("m", 6, prompt, counting_factory)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # One leader ingests; everyone else waits and forks its deposit.
        assert len(builds) == 1
        assert sum(1 for r in results if r.outcome == "fork") == 7
        assert sum(r.ingested for r in results) == len(prompt)
        reference = _prefilled(prompt).next_distribution()
        for result in results:
            np.testing.assert_array_equal(
                result.model.next_distribution(), reference
            )


def _make_rngs(seed, n):
    return [np.random.default_rng(s) for s in child_seeds(np.random.default_rng(seed), n)]


class TestContinuousScheduler:
    def test_matches_standalone_batched_bitwise(self):
        vocab = 12
        jobs = [
            ("llama2-7b-sim", _tokens(80, vocab, seed=30), 4, 12),
            ("phi2-2.7b-sim", _tokens(50, vocab, seed=31), 3, 9),
            ("ngram-sim", _tokens(80, vocab, seed=30), 5, 7),
            ("llama2-7b-sim", _tokens(80, vocab, seed=30), 2, 12),
        ]
        expected = []
        for preset, prompt, streams, budget in jobs:
            llm = get_model(preset, vocab)
            decoder = llm.generate_batch(
                prompt, budget, _make_rngs(hash((preset, budget)) % 2**31, streams)
            )
            expected.append(decoder.results)
        scheduler = ContinuousScheduler(
            max_resident_streams=6, prefill_tree=RadixPrefillTree()
        )
        handles = [
            scheduler.submit(
                get_model(preset, vocab),
                prompt,
                budget,
                _make_rngs(hash((preset, budget)) % 2**31, streams),
            )
            for preset, prompt, streams, budget in jobs
        ]
        outputs = [handle.result(timeout=60) for handle in handles]
        scheduler.close()
        for want, got in zip(expected, outputs):
            for a, b in zip(want, got):
                assert a.tokens == b.tokens
                assert a.log_probs == b.log_probs

    def test_mixed_vocabularies_share_the_loop(self):
        # A raw-digit and a SAX-sized request of one substrate resident
        # together: each step must score them as separate batches.
        jobs = [
            (11, _tokens(80, 11, seed=40), 3, 300),
            (7, _tokens(60, 7, seed=41), 2, 40),
        ]
        expected = [
            get_model("llama2-7b-sim", vocab)
            .generate_batch(prompt, budget, _make_rngs(vocab, streams))
            .results
            for vocab, prompt, streams, budget in jobs
        ]
        scheduler = ContinuousScheduler()
        try:
            handles = [
                scheduler.submit(
                    get_model("llama2-7b-sim", vocab),
                    prompt,
                    budget,
                    _make_rngs(vocab, streams),
                )
                for vocab, prompt, streams, budget in jobs
            ]
            outputs = [handle.result(timeout=60) for handle in handles]
        finally:
            scheduler.close()
        for want, got in zip(expected, outputs):
            assert [r.tokens for r in got] == [r.tokens for r in want]
            assert [r.log_probs for r in got] == [r.log_probs for r in want]

    def test_admission_cap_queues_fifo_and_all_complete(self):
        scheduler = ContinuousScheduler(max_resident_streams=2)
        llm = get_model("uniform-sim", 8)
        handles = [
            scheduler.submit(llm, _tokens(10, 8, seed=i), 6, _make_rngs(i, 2))
            for i in range(5)
        ]
        for handle in handles:
            results = handle.result(timeout=60)
            assert all(len(r.tokens) == 6 for r in results)
        stats = scheduler.stats
        scheduler.close()
        assert stats["admitted"] == 5
        assert stats["completed"] == 5
        assert stats["queue_depth"] == 0

    def test_request_wider_than_cap_still_runs(self):
        scheduler = ContinuousScheduler(max_resident_streams=2)
        llm = get_model("uniform-sim", 8)
        handle = scheduler.submit(llm, _tokens(10, 8), 4, _make_rngs(0, 6))
        results = handle.result(timeout=60)
        scheduler.close()
        assert all(len(r.tokens) == 4 for r in results)

    def test_stop_abandons_live_streams(self):
        scheduler = ContinuousScheduler()
        llm = get_model("uniform-sim", 8)
        handle = scheduler.submit(
            llm, _tokens(10, 8), 50, _make_rngs(1, 3), stop=lambda: True
        )
        results = handle.result(timeout=60)
        scheduler.close()
        assert handle.stopped
        assert results == [None, None, None]

    def test_zero_budget_streams_retire_immediately(self):
        scheduler = ContinuousScheduler()
        llm = get_model("uniform-sim", 8)
        handle = scheduler.submit(llm, _tokens(10, 8), [0, 3], _make_rngs(2, 2))
        results = handle.result(timeout=60)
        scheduler.close()
        assert results[0].tokens == []
        assert len(results[1].tokens) == 3

    def test_submit_after_close_raises(self):
        scheduler = ContinuousScheduler()
        scheduler.close()
        with pytest.raises(GenerationError):
            scheduler.submit(
                get_model("uniform-sim", 8), _tokens(5, 8), 2, _make_rngs(3, 1)
            )

    def test_empty_stream_list_rejected(self):
        scheduler = ContinuousScheduler()
        with pytest.raises(GenerationError):
            scheduler.submit(get_model("uniform-sim", 8), _tokens(5, 8), 2, [])
        scheduler.close()

    def test_metrics_and_queue_wait_recorded(self):
        from repro.serving.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        scheduler = ContinuousScheduler(max_resident_streams=2, metrics=metrics)
        llm = get_model("uniform-sim", 8)
        handles = [
            scheduler.submit(llm, _tokens(10, 8, seed=i), 5, _make_rngs(i, 2))
            for i in range(4)
        ]
        for handle in handles:
            handle.result(timeout=60)
            assert handle.queue_wait_seconds >= 0.0
        scheduler.close()
        snapshot = metrics.snapshot()
        assert snapshot["sched_requests_total"]["value"] == 4
        assert snapshot["sched_requests_completed"]["value"] == 4
        assert snapshot["sched_queue_wait_seconds"]["count"] == 4
        assert snapshot["sched_step_occupancy"]["count"] > 0


def _request(execution, *, seed=11, scheme="vi", sax=None, use_cache=True):
    config = MultiCastConfig(
        scheme=scheme, num_samples=4, seed=seed, sax=sax
    )
    return ForecastRequest(
        HISTORY,
        horizon=6,
        config=config,
        execution=execution,
        use_cache=use_cache,
    )


class TestEngineContinuous:
    @pytest.mark.parametrize("scheme", ["di", "vi", "vc"])
    @pytest.mark.parametrize("sax", [None, SaxConfig(segment_length=4)])
    def test_continuous_matches_batched_cold_and_warm(self, scheme, sax):
        with ForecastEngine(num_workers=2) as engine:
            batched = engine.forecast(
                _request("batched", scheme=scheme, sax=sax, use_cache=False)
            )
        with ForecastEngine(num_workers=2) as engine:
            cold = engine.forecast(
                _request("continuous", scheme=scheme, sax=sax, use_cache=False)
            )
            warm = engine.forecast(
                _request("continuous", scheme=scheme, sax=sax, use_cache=False)
            )
        for response in (cold, warm):
            assert response.ok
            assert response.output.metadata["execution"] == "continuous"
            assert (
                response.output.values.tobytes()
                == batched.output.values.tobytes()
            )
            assert (
                response.output.samples.tobytes()
                == batched.output.samples.tobytes()
            )
        assert cold.output.metadata["ingest"] == "miss"
        assert warm.output.metadata["ingest"] == "fork"

    def test_shared_tree_forks_across_tenants(self):
        with ForecastEngine(num_workers=2) as engine:
            first = engine.forecast(_request("continuous", seed=1, use_cache=False))
            second = engine.forecast(_request("continuous", seed=2, use_cache=False))
            snapshot = engine.metrics_snapshot()
        assert first.ok and second.ok
        # Same history, different seed: same prompt, so the radix tree
        # serves the second request's ingest outright.
        assert second.output.metadata["ingest"] == "fork"
        assert snapshot["prefill_tree"]["hits"] >= 1
        assert snapshot["scheduler"]["completed"] == 2

    def test_scheduler_created_lazily(self):
        with ForecastEngine(num_workers=2) as engine:
            engine.forecast(_request("batched", use_cache=False))
            assert "scheduler" not in engine.metrics_snapshot()
            engine.forecast(_request("continuous", use_cache=False))
            assert "scheduler" in engine.metrics_snapshot()

    def test_ledger_records_execution_and_queue_wait(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with ForecastEngine(num_workers=2, ledger=str(path)) as engine:
            engine.forecast(_request("continuous", use_cache=False))
        record = json.loads(path.read_text().strip().splitlines()[-1])
        assert record["execution"] == "continuous"
        assert record["queue_wait_seconds"] is not None
        assert record["ingest"] == "miss"

    def test_continuous_respects_deadline(self):
        config = MultiCastConfig(scheme="vi", num_samples=3, seed=5)
        request = ForecastRequest(
            HISTORY,
            horizon=6,
            config=config,
            execution="continuous",
            deadline_seconds=1e-9,
            use_cache=False,
        )
        with ForecastEngine(num_workers=2) as engine:
            response = engine.forecast(request)
        # Every stream was abandoned before its first step: a clean
        # deadline error, not a hang.
        assert not response.ok
        assert "deadline" in response.error

    def test_invalid_max_resident_streams_rejected(self):
        with pytest.raises(ConfigError):
            ForecastEngine(max_resident_streams=0)


class TestSubmitContention:
    """Satellite: concurrent ``submit()`` under thread contention."""

    def test_many_threads_many_specs_no_drops_deterministic(self):
        specs = [
            _request("continuous", seed=seed, use_cache=False)
            for seed in (1, 2, 3)
        ]
        with ForecastEngine(num_workers=4, max_concurrent_requests=4) as engine:
            reference = [
                engine.forecast(_request("batched", seed=seed, use_cache=False))
                for seed in (1, 2, 3)
            ]
            futures = []
            for _ in range(4):  # 4 waves x 3 specs submitted concurrently
                futures.extend(engine.submit(spec) for spec in specs)
            responses = [future.result(timeout=120) for future in futures]
        assert len(responses) == 12
        for index, response in enumerate(responses):
            assert response.ok, response.error
            want = reference[index % len(specs)]
            assert (
                response.output.values.tobytes()
                == want.output.values.tobytes()
            )
            assert (
                response.output.samples.tobytes()
                == want.output.samples.tobytes()
            )


class TestCliContinuous:
    def test_forecast_execution_continuous_is_value_neutral(self, tmp_path, capsys):
        from repro.cli import main

        outputs = {}
        for mode in ("batched", "continuous"):
            out_path = tmp_path / f"{mode}.csv"
            code = main([
                "forecast", "--dataset", "gas_rate", "--num-samples", "2",
                "--horizon", "5", "--execution", mode,
                "--output", str(out_path),
            ])
            assert code == 0
            outputs[mode] = out_path.read_text()
        capsys.readouterr()
        assert outputs["batched"] == outputs["continuous"]

    def test_batch_execution_override_and_stream_cap(self, tmp_path, capsys):
        from repro.cli import main

        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps({
            "jobs": [
                {"name": "a", "dataset": "gas_rate", "horizon": 4,
                 "num_samples": 2, "scheme": "vi"},
                {"name": "b", "dataset": "gas_rate", "horizon": 4,
                 "num_samples": 2, "scheme": "di"},
            ]
        }))
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "batch", "--manifest", str(manifest),
            "--execution", "continuous",
            "--max-resident-streams", "4",
            "--metrics-out", str(metrics_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "a: ok" in out and "b: ok" in out
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["scheduler"]["completed"] == 2
        assert snapshot["scheduler"]["max_resident_streams"] == 4

    def test_batch_rejects_bad_execution_override(self, tmp_path):
        from repro.cli import main

        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps({
            "jobs": [{"name": "a", "dataset": "gas_rate", "horizon": 4}]
        }))
        with pytest.raises(SystemExit):
            main(["batch", "--manifest", str(manifest),
                  "--execution", "warp"])
