"""Tests for the serving subsystem: engine, cache, policy, and metrics.

The flaky/slow backend models follow the injection pattern of
``test_failure_injection.py``: adversarial specs registered into the model
registry, exercised through the full pipeline.
"""

import hashlib
import threading
import time

import numpy as np
import pytest

from repro.core import (
    ForecastSpec,
    MultiCastConfig,
    MultiCastForecaster,
    SaxConfig,
)
from repro.data import synthetic_multivariate
from repro.exceptions import ConfigError, GenerationError
from repro.llm import ModelSpec, TokenCostModel, register_model
from repro.llm.ppm import PPMLanguageModel
from repro.observability import read_ledger
from repro.serving import (
    Deadline,
    ForecastCache,
    ForecastEngine,
    ForecastRequest,
    MetricsRegistry,
    RetryPolicy,
    forecast_digest,
)

HISTORY = synthetic_multivariate(n=100, num_dims=2, seed=0).values

#: ``sha256(values.tobytes() + samples.tobytes())`` of each
#: :class:`TestEngineEquivalence` case with every sample drawn on its own
#: from a fresh ingest of the prompt (the per-draw path), captured before
#: that path was deleted.
PER_DRAW = {
    "di": "08d4d9280ea336d1dd8f8729d5409246b2f616420b6bcd0797657cc9cdcc9bc9",
    "vc": "c2ebb488784bcea75ce6db113f0e14f28d5dfe5e8634f52766e73c89abd54069",
    "sax": "310587af36c88a0a3781f2cb2c20d9103b1f8b814197ae5e0b2396c5ab3a608d",
}


def _digest(output) -> str:
    return hashlib.sha256(
        output.values.tobytes() + output.samples.tobytes()
    ).hexdigest()


def _output(config=None, horizon=5, seed=0):
    config = config or MultiCastConfig(num_samples=2, seed=seed)
    spec = ForecastSpec.from_config(config, series=HISTORY, horizon=horizon)
    return MultiCastForecaster().forecast(spec)


class _FlakyPPM(PPMLanguageModel):
    """Fails the first ``remaining`` prompt ingests (shared counter), then works.

    ``reset`` runs on every ingest that misses the cache, and a failed
    ingest deposits nothing, so each retried attempt ingests again.
    """

    failures = {"remaining": 0}
    lock = threading.Lock()

    def reset(self, context):
        with self.lock:
            if self.failures["remaining"] > 0:
                self.failures["remaining"] -= 1
                raise GenerationError("transient upstream failure")
        super().reset(context)


class _SlowPPM(PPMLanguageModel):
    """Sleeps in every scored decode step, so a deadline fires mid-decode.

    The delay sits in ``next_distribution_batch``, which both decoders call
    once per scored step; the engine polls its deadline between steps.
    """

    delay = 0.02

    @classmethod
    def next_distribution_batch(cls, models):
        time.sleep(cls.delay)
        return super().next_distribution_batch(models)


def _register(name, factory):
    register_model(
        ModelSpec(name=name, factory=factory, cost=TokenCostModel(0.1)),
        overwrite=True,
    )


class TestForecastCache:
    def test_hit_returns_equal_output_and_counts(self):
        cache = ForecastCache(max_entries=4)
        output = _output()
        key = forecast_digest(HISTORY, MultiCastConfig(num_samples=2), 5)
        assert cache.get(key) is None  # miss
        cache.put(key, output)
        hit = cache.get(key)
        assert hit is not None
        assert np.array_equal(hit.values, output.values)
        stats = cache.stats
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_returned_entry_is_a_private_copy(self):
        cache = ForecastCache()
        output = _output()
        cache.put("k", output)
        first = cache.get("k")
        first.values[:] = -999.0
        second = cache.get("k")
        assert not np.array_equal(first.values, second.values)

    def test_lru_eviction_order(self):
        cache = ForecastCache(max_entries=2)
        output = _output()
        cache.put("a", output)
        cache.put("b", output)
        assert cache.get("a") is not None  # refresh a → b is now LRU
        cache.put("c", output)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats["evictions"] == 1

    def test_disabled_cache_never_stores(self):
        cache = ForecastCache(max_entries=0)
        assert not cache.enabled
        cache.put("k", _output())
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_digest_sensitivity(self):
        config = MultiCastConfig(num_samples=2)
        base = forecast_digest(HISTORY, config, 5)
        assert forecast_digest(HISTORY, config, 5) == base
        assert forecast_digest(HISTORY, config, 6) != base
        assert forecast_digest(HISTORY * 1.0001, config, 5) != base
        assert forecast_digest(HISTORY, MultiCastConfig(num_samples=3), 5) != base
        assert forecast_digest(HISTORY, config, 5, seed=1) != base
        # seed override equal to the config seed is the same computation
        assert forecast_digest(HISTORY, config, 5, seed=config.seed) == base

    def test_invalid_size_rejected(self):
        with pytest.raises(ConfigError):
            ForecastCache(max_entries=-1)


class TestRetryPolicy:
    def test_delays_are_exponential_and_capped(self):
        policy = RetryPolicy(max_attempts=5, base_delay=0.1, multiplier=2.0,
                             max_delay=0.3)
        assert list(policy.delays()) == pytest.approx([0.1, 0.2, 0.3, 0.3])

    def test_retry_then_succeed(self):
        calls = {"n": 0}
        slept = []

        def task():
            calls["n"] += 1
            if calls["n"] < 3:
                raise GenerationError("flaky")
            return "ok"

        policy = RetryPolicy(max_attempts=3, base_delay=0.01)
        result, attempts = policy.run(task, sleep=slept.append)
        assert result == "ok" and attempts == 3
        assert slept == pytest.approx([0.01, 0.02])

    def test_exhaustion_raises_last_error(self):
        def task():
            raise GenerationError("always down")

        policy = RetryPolicy(max_attempts=2, base_delay=0.0)
        with pytest.raises(GenerationError, match="always down"):
            policy.run(task, sleep=lambda s: None)

    def test_non_generation_errors_propagate_immediately(self):
        calls = {"n": 0}

        def task():
            calls["n"] += 1
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=3).run(task, sleep=lambda s: None)
        assert calls["n"] == 1

    def test_expired_deadline_stops_retrying(self):
        deadline = Deadline(10.0, clock=iter([0.0, 20.0, 20.0, 20.0]).__next__)
        with pytest.raises(GenerationError):
            RetryPolicy(max_attempts=5).run(
                lambda: (_ for _ in ()).throw(GenerationError("x")),
                deadline=deadline,
                sleep=lambda s: None,
            )

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigError):
            Deadline(0.0)


class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(2)
        registry.gauge("inflight").add(3)
        registry.gauge("inflight").add(-1)
        assert registry.counter("hits").value == 3
        assert registry.gauge("inflight").value == 2
        with pytest.raises(ConfigError):
            registry.counter("hits").inc(-1)

    def test_histogram_quantiles_are_exact(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency")
        for value in range(1, 101):  # 1..100
            histogram.observe(float(value))
        assert histogram.count == 100
        assert histogram.mean == pytest.approx(50.5)
        assert histogram.quantile(0.0) == 1.0
        assert histogram.quantile(1.0) == 100.0
        assert histogram.quantile(0.5) == pytest.approx(50.5)
        snapshot = histogram.snapshot()
        assert snapshot["p50"] == pytest.approx(50.5)
        assert snapshot["p95"] == pytest.approx(95.05)
        assert snapshot["p99"] == pytest.approx(99.01)
        assert snapshot["min"] == 1.0 and snapshot["max"] == 100.0

    def test_histogram_window_bounds_memory(self):
        histogram = MetricsRegistry().histogram("w")
        for value in range(10000):
            histogram.observe(float(value))
        assert histogram.count == 10000  # lifetime count survives the window
        assert histogram.quantile(0.0) >= 10000 - 4096  # window dropped old obs

    def test_timer_observes_elapsed(self):
        registry = MetricsRegistry()
        with registry.timer("span_seconds"):
            time.sleep(0.01)
        assert registry.histogram("span_seconds").count == 1
        assert registry.histogram("span_seconds").mean >= 0.009

    def test_kind_conflicts_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigError):
            registry.gauge("x")

    def test_json_snapshot_round_trips(self):
        import json

        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.histogram("b").observe(1.0)
        parsed = json.loads(registry.to_json())
        assert parsed["a"]["value"] == 1
        assert parsed["b"]["count"] == 1


class TestEngineEquivalence:
    @pytest.mark.parametrize("scheme", ["di", "vc"])
    def test_parallel_matches_sequential_exactly(self, scheme):
        """The headline determinism property: a served forecast is
        bit-identical to drawing each sample on its own under a fixed seed
        (the pinned per-draw digest)."""
        config = MultiCastConfig(scheme=scheme, num_samples=5, seed=42)
        with ForecastEngine() as engine:
            served = engine.forecast(
                ForecastRequest(HISTORY, 7, config=config, use_cache=False)
            )
        assert served.ok
        assert _digest(served.output) == PER_DRAW[scheme]

    def test_sax_and_seed_override_equivalence(self):
        config = MultiCastConfig(num_samples=4, sax=SaxConfig(), seed=0)
        with ForecastEngine() as engine:
            served = engine.forecast(
                ForecastRequest(HISTORY, 9, config=config, seed=5, use_cache=False)
            )
        assert _digest(served.output) == PER_DRAW["sax"]

    def test_many_threads_many_specs_no_drops_deterministic(self):
        """Concurrent ``submit()`` under thread contention: no deadlock, no
        dropped request, and every response equals its spec's reference."""

        def request(seed):
            config = MultiCastConfig(num_samples=4, seed=seed)
            return ForecastRequest(HISTORY, 6, config=config, use_cache=False)

        seeds = (1, 2, 3)
        with ForecastEngine(max_concurrent_requests=4) as engine:
            reference = [engine.forecast(request(seed)) for seed in seeds]
            futures = []
            for _ in range(4):  # 4 waves x 3 specs submitted concurrently
                futures.extend(engine.submit(request(seed)) for seed in seeds)
            responses = [future.result(timeout=120) for future in futures]
        assert len(responses) == 12
        for index, response in enumerate(responses):
            assert response.ok, response.error
            want = reference[index % len(seeds)]
            assert (
                response.output.values.tobytes()
                == want.output.values.tobytes()
            )
            assert (
                response.output.samples.tobytes()
                == want.output.samples.tobytes()
            )


class TestEngineServing:
    def test_cache_hit_on_repeat_and_isolation_between_configs(self):
        with ForecastEngine() as engine:
            request = ForecastRequest(
                HISTORY, 5, config=MultiCastConfig(num_samples=2)
            )
            first = engine.forecast(request)
            second = engine.forecast(request)
            other = engine.forecast(
                ForecastRequest(HISTORY, 5, config=MultiCastConfig(num_samples=3))
            )
        assert not first.cache_hit and second.cache_hit and not other.cache_hit
        assert np.array_equal(first.output.values, second.output.values)
        assert engine.metrics.counter("cache_hits").value == 1

    def test_use_cache_false_bypasses(self):
        with ForecastEngine() as engine:
            request = ForecastRequest(
                HISTORY, 5, config=MultiCastConfig(num_samples=2), use_cache=False
            )
            engine.forecast(request)
            repeat = engine.forecast(request)
        assert not repeat.cache_hit

    def test_batch_preserves_order_and_isolates_failures(self):
        good = MultiCastConfig(num_samples=2)
        requests = [
            ForecastRequest(HISTORY, 4, config=good, name="ok-1"),
            ForecastRequest(np.zeros((10, 2)), 4, config=good, name="bad-nan"),
            ForecastRequest(HISTORY, 4, config=good, name="ok-2"),
        ]
        requests[1].history = np.full((10, 2), np.nan)
        with ForecastEngine() as engine:
            responses = engine.forecast_batch(requests)
        assert [r.name for r in responses] == ["ok-1", "bad-nan", "ok-2"]
        assert responses[0].ok and responses[2].ok
        assert not responses[1].ok and "NaN" in responses[1].error

    def test_retry_then_succeed_with_flaky_model(self):
        _register("serving-flaky", lambda v: _FlakyPPM(v, max_order=3))
        _FlakyPPM.failures["remaining"] = 2
        config = MultiCastConfig(num_samples=3, model="serving-flaky", seed=0)
        with ForecastEngine(
            retry=RetryPolicy(max_attempts=3, base_delay=0.001)
        ) as engine:
            response = engine.forecast(ForecastRequest(HISTORY, 4, config=config))
            assert response.ok
            assert response.attempts >= 2
            assert engine.metrics.counter("request_retries").value >= 2
        # The retried request is bit-identical to one that never failed.
        clean = _output(config, horizon=4)
        assert _digest(response.output) == _digest(clean)

    def test_permanent_failure_yields_error_response(self):
        _register("serving-flaky", lambda v: _FlakyPPM(v, max_order=3))
        _FlakyPPM.failures["remaining"] = 10**9
        config = MultiCastConfig(num_samples=2, model="serving-flaky")
        with ForecastEngine(
            retry=RetryPolicy(max_attempts=2, base_delay=0.0)
        ) as engine:
            response = engine.forecast(ForecastRequest(HISTORY, 4, config=config))
            assert not response.ok
            assert response.output is None and response.error
            assert engine.metrics.counter("requests_failed").value == 1
        _FlakyPPM.failures["remaining"] = 0

    def test_deadline_expiry_mid_decode_fails_the_request(self, tmp_path):
        _register("serving-slow", lambda v: _SlowPPM(v, max_order=3))
        config = MultiCastConfig(num_samples=3, model="serving-slow", seed=0)
        ledger = tmp_path / "runs.jsonl"
        # Ingest is fast; 24 scored steps at 0.02 s each run well past the
        # 0.1 s deadline, which the decoder sees between two steps.
        with ForecastEngine(ledger=ledger) as engine:
            response = engine.forecast(
                ForecastRequest(HISTORY, 4, config=config, deadline_seconds=0.1)
            )
            assert not response.ok and response.output is None
            assert "deadline of 0.1s exceeded" in response.error
            assert engine.metrics.counter("requests_deadline_exceeded").value == 1
            assert engine.metrics.counter("requests_failed").value == 1
            assert engine.metrics.counter("request_retries").value == 0
        (record,) = read_ledger(ledger)
        assert record["outcome"] == "failed"
        assert "deadline" in record["error"]

    def test_partial_results_are_not_cached(self):
        _register("serving-slow", lambda v: _SlowPPM(v, max_order=3))
        config = MultiCastConfig(num_samples=3, model="serving-slow", seed=0)
        with ForecastEngine() as engine:
            # The deadline cuts the decode short: the failure is not stored.
            cut = engine.forecast(
                ForecastRequest(HISTORY, 4, config=config, deadline_seconds=0.1)
            )
            assert not cut.ok
            assert len(engine.cache) == 0
            # The same request without a deadline is computed afresh, then cached.
            full = engine.forecast(ForecastRequest(HISTORY, 4, config=config))
            assert full.ok and not full.cache_hit
            assert len(engine.cache) == 1
            repeat = engine.forecast(ForecastRequest(HISTORY, 4, config=config))
            assert repeat.cache_hit
        assert _digest(full.output) == _digest(_output(config, horizon=4))

    def test_deadline_with_no_completed_samples_is_an_error(self):
        _register("serving-slow", lambda v: _SlowPPM(v, max_order=3))
        config = MultiCastConfig(num_samples=2, model="serving-slow", seed=1)
        with ForecastEngine(cache=ForecastCache(0)) as engine:
            response = engine.forecast(
                ForecastRequest(HISTORY, 4, config=config, deadline_seconds=0.05)
            )
            assert not response.ok
            assert "deadline" in response.error
            assert engine.metrics.counter("requests_deadline_exceeded").value == 1

    def test_ledger_metrics_read_counters_without_histogram_snapshots(
        self, tmp_path, monkeypatch
    ):
        from repro.serving.metrics import Histogram

        snapshots = []
        real_snapshot = Histogram.snapshot

        def counting_snapshot(histogram):
            snapshots.append(histogram)
            return real_snapshot(histogram)

        monkeypatch.setattr(Histogram, "snapshot", counting_snapshot)
        ledger = tmp_path / "runs.jsonl"
        config = MultiCastConfig(num_samples=2)
        with ForecastEngine(ledger=ledger) as engine:
            engine.forecast(ForecastRequest(HISTORY, 4, config=config))
            engine.forecast(ForecastRequest(HISTORY, 4, config=config))
            assert snapshots == []
            monkeypatch.setattr(Histogram, "snapshot", real_snapshot)
            counters = {
                name: instrument["value"]
                for name, instrument in engine.metrics.snapshot().items()
                if instrument["type"] == "counter"
            }
        first, second = read_ledger(ledger)
        assert second["metrics"] == counters
        assert second["metrics"]["cache_hits"] == 1
        assert first["metrics"]["requests_total"] == 1

    def test_metrics_snapshot_includes_stages_and_cache(self):
        with ForecastEngine() as engine:
            engine.forecast(
                ForecastRequest(HISTORY, 4, config=MultiCastConfig(num_samples=2))
            )
            snapshot = engine.metrics_snapshot()
        assert snapshot["requests_total"]["value"] == 1
        assert snapshot["stage_generate_seconds"]["count"] == 1
        for quantile in ("p50", "p95", "p99"):
            assert quantile in snapshot["request_seconds"]
        assert snapshot["cache"]["misses"] == 1

    def test_closed_engine_rejects_work(self):
        engine = ForecastEngine()
        engine.close()
        with pytest.raises(ConfigError):
            engine.forecast(ForecastRequest(HISTORY, 4))

    def test_request_validation(self):
        with pytest.raises(ConfigError):
            ForecastRequest(HISTORY, 0)
        with pytest.raises(ConfigError):
            ForecastRequest(HISTORY, 5, deadline_seconds=0.0)
        with pytest.raises(ConfigError):
            ForecastEngine(max_concurrent_requests=0)


class TestBacktestThroughEngine:
    def test_engine_backtest_matches_sequential(self):
        from repro.evaluation import rolling_origin_evaluation

        dataset = synthetic_multivariate(n=120, num_dims=2, seed=3)
        spec = ForecastSpec(num_samples=2)
        sequential = rolling_origin_evaluation(
            "multicast-di", dataset, horizon=8, num_windows=2, spec=spec
        )
        with ForecastEngine() as engine:
            served = rolling_origin_evaluation(
                "multicast-di", dataset, horizon=8, num_windows=2,
                spec=spec, engine=engine,
            )
            # A second run over the same windows is answered from cache.
            rerun = rolling_origin_evaluation(
                "multicast-di", dataset, horizon=8, num_windows=2,
                spec=spec, engine=engine,
            )
            assert engine.metrics.counter("cache_hits").value == 2
        assert served.window_rmse == sequential.window_rmse
        assert rerun.window_rmse == sequential.window_rmse

    def test_non_multicast_method_ignores_engine(self):
        from repro.evaluation import rolling_origin_evaluation

        dataset = synthetic_multivariate(n=100, num_dims=1, seed=4)
        with ForecastEngine() as engine:
            result = rolling_origin_evaluation(
                "naive", dataset, horizon=5, num_windows=2, engine=engine
            )
            assert engine.metrics.counter("requests_total").value == 0
        assert result.num_windows == 2


class TestForecasterTimings:
    def test_timings_cover_all_stages_and_sum_to_wall(self):
        output = _output()
        for stage in ("scale", "multiplex", "generate", "demultiplex", "aggregate"):
            assert stage in output.timings
            assert output.timings[stage] >= 0.0
        assert output.wall_seconds == pytest.approx(sum(output.timings.values()))

    def test_deseasonalize_stage_appears_when_enabled(self):
        config = MultiCastConfig(num_samples=2, deseasonalize=12)
        t = np.arange(120.0)
        history = np.stack(
            [np.sin(2 * np.pi * t / 12) + 5, np.cos(2 * np.pi * t / 12) + 5],
            axis=1,
        )
        output = MultiCastForecaster().forecast(
            ForecastSpec.from_config(config, series=history, horizon=6)
        )
        assert "deseasonalize" in output.timings
