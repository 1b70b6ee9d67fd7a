"""Tests for multi-process sharded serving: routing, spill tier, recovery.

The load-bearing contract is bit-identity: a :class:`ShardedEngine` with
any shard count must produce byte-for-byte the single-process engine's
forecasts under fixed seeds — sharding buys throughput, never a different
answer.  The crash tests use the engine's ``chaos_delay_seconds``
failure-injection knob to hold a request in-flight deterministically
while its worker is killed.
"""

import asyncio
import json
import pickle
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import ForecastSpec, MultiCastConfig
from repro.data import synthetic_multivariate
from repro.exceptions import ConfigError
from repro.gateway import ForecastGateway
from repro.llm.simulated import get_model
from repro.llm.state_cache import IngestStateCache
from repro.observability import SpanCollector, Tracer
from repro.serving import ForecastEngine, ForecastRequest
from repro.serving.cache import forecast_digest
from repro.sharding import (
    ShardedEngine,
    SpillStore,
    rendezvous_ranking,
    rendezvous_shard,
)

HISTORY = synthetic_multivariate(n=64, num_dims=2, seed=9).values

MODEL_NAME = "uniform-sim"
VOCAB = 4096


def _spec(seed=0, num_samples=2, horizon=4):
    config = MultiCastConfig(
        num_samples=num_samples, model=MODEL_NAME, seed=seed
    )
    return ForecastSpec.from_config(config, series=HISTORY, horizon=horizon)


def _prefilled(prompt):
    """A substrate model prefilled on ``prompt`` (what the cache stores)."""
    model = get_model(MODEL_NAME, vocab_size=VOCAB).spec.factory(VOCAB)
    model.reset(prompt)
    return model


# -- rendezvous routing --------------------------------------------------------


def test_rendezvous_is_deterministic_and_in_range():
    shards = [0, 1, 2, 3]
    for key in ("abcd" * 8, "0123" * 8, "ffff" * 8):
        first = rendezvous_shard(key, shards)
        assert first in shards
        assert rendezvous_shard(key, shards) == first
        ranking = rendezvous_ranking(key, shards)
        assert sorted(ranking) == shards  # a permutation, no repeats


def test_rendezvous_rejects_empty_shard_list():
    with pytest.raises(Exception):
        rendezvous_ranking("aa", [])


def test_rendezvous_spreads_keys_roughly_evenly():
    shards = [0, 1, 2, 3]
    rng = np.random.default_rng(0)
    counts = {shard: 0 for shard in shards}
    for _ in range(2000):
        key = "".join(rng.choice(list("0123456789abcdef"), size=16))
        counts[rendezvous_shard(key, shards)] += 1
    for count in counts.values():
        assert 0.15 * 2000 < count < 0.35 * 2000, counts


def test_rendezvous_disruption_is_minimal():
    """Removing one shard only moves the keys that lived on it."""
    shards = [0, 1, 2, 3]
    rng = np.random.default_rng(1)
    keys = [
        "".join(rng.choice(list("0123456789abcdef"), size=16))
        for _ in range(500)
    ]
    before = {key: rendezvous_shard(key, shards) for key in keys}
    survivors = [0, 1, 3]
    for key in keys:
        after = rendezvous_shard(key, survivors)
        if before[key] != 2:
            assert after == before[key]
        else:
            assert after in survivors


# -- spill store ---------------------------------------------------------------


def test_spill_store_validates_budget(tmp_path):
    with pytest.raises(ConfigError):
        SpillStore(tmp_path, max_tokens=-1)
    disabled = SpillStore(tmp_path / "off", max_tokens=0)
    assert not disabled.enabled
    disabled.store(MODEL_NAME, VOCAB, (1, 2, 3), _prefilled((1, 2, 3)))
    assert disabled.fetch(MODEL_NAME, VOCAB, (1, 2, 3)) == (None, 0)


def test_eviction_demotes_into_spill_and_lookup_promotes_back(tmp_path):
    spill = SpillStore(tmp_path, max_tokens=10_000)
    cache = IngestStateCache(max_tokens=40, spill=spill)
    short = tuple(range(20))
    long = tuple(range(100, 130))
    cache.put(MODEL_NAME, VOCAB, short, _prefilled(short))
    cache.put(MODEL_NAME, VOCAB, long, _prefilled(long))  # evicts `short`
    assert spill.stats["entries"] == 1

    lookup = cache.get(MODEL_NAME, VOCAB, short)
    assert lookup.outcome == "fork"
    assert lookup.matched == len(short)
    assert cache.stats["spill_hits"] == 1
    # Promotion: the next lookup resolves from memory, not the spill tier.
    hits_before = spill.stats["hits"]
    assert cache.get(MODEL_NAME, VOCAB, short).outcome == "fork"
    assert spill.stats["hits"] == hits_before


def test_spill_state_migrates_across_cache_instances(tmp_path):
    """Worker A's eviction is worker B's warm start (shared directory)."""
    prompt = tuple(range(24))
    first = IngestStateCache(
        max_tokens=24, spill=SpillStore(tmp_path, max_tokens=10_000)
    )
    first.put(MODEL_NAME, VOCAB, prompt, _prefilled(prompt))
    filler = tuple(range(500, 524))
    # The second put busts the budget and demotes `prompt` into the spill.
    first.put(MODEL_NAME, VOCAB, filler, _prefilled(filler))

    second = IngestStateCache(
        max_tokens=1000, spill=SpillStore(tmp_path, max_tokens=10_000)
    )
    lookup = second.get(MODEL_NAME, VOCAB, prompt)
    assert lookup.outcome == "fork"
    assert lookup.matched == len(prompt)


def test_spill_fetch_probes_checkpoint_prefixes(tmp_path):
    spill = SpillStore(tmp_path, max_tokens=10_000)
    prompt = tuple(range(200, 264))  # 64 tokens
    spill.store(MODEL_NAME, VOCAB, prompt[:16], _prefilled(prompt[:16]))
    model, matched = spill.fetch(MODEL_NAME, VOCAB, prompt)
    assert model is not None
    assert matched == 16  # the doubling checkpoint, not a full-prompt hit


def test_corrupt_spill_entry_is_dropped_not_raised(tmp_path):
    spill = SpillStore(tmp_path, max_tokens=10_000)
    prompt = tuple(range(20))
    spill.store(MODEL_NAME, VOCAB, prompt, _prefilled(prompt))
    path = spill._path(MODEL_NAME, VOCAB, prompt)
    path.write_bytes(b"not a pickle")
    model, matched = spill.fetch(MODEL_NAME, VOCAB, prompt)
    assert model is None and matched == 0
    assert spill.stats["corrupt_dropped"] == 1
    assert not path.exists()


def _old_layout_ppm(prompt):
    """A PPM model as pickled before counts moved to integer suffix ids.

    It unpickles without error under the current class, then fails on its
    first scoring call — the stale-entry hazard the format stamp closes.
    """
    from types import SimpleNamespace

    from repro.llm import PPMLanguageModel

    model = PPMLanguageModel.__new__(PPMLanguageModel)
    model.__dict__.update(
        vocab_size=11,
        max_order=2,
        uniform_floor=1e-3,
        _orders=[SimpleNamespace(table={}, _owned=None) for _ in range(3)],
        _zero_counts=np.ones(11),
        _history=list(prompt),
    )
    return model


def test_spill_entry_in_the_old_layout_misses(tmp_path):
    import pickle

    spill = SpillStore(tmp_path, max_tokens=10_000)
    prompt = tuple(i % 11 for i in range(20))
    stale = _old_layout_ppm(prompt)
    with pytest.raises(AttributeError):
        pickle.loads(pickle.dumps(stale)).next_distribution()
    path = spill._path("llama2-7b-sim", 11, prompt)
    path.write_bytes(pickle.dumps(("llama2-7b-sim", 11, prompt, stale)))
    assert spill.fetch("llama2-7b-sim", 11, prompt) == (None, 0)
    assert spill.stats["corrupt_dropped"] == 1
    assert not path.exists()


def test_spill_entry_with_another_format_stamp_misses(tmp_path):
    import pickle

    from repro.sharding import spill as spill_module

    spill = SpillStore(tmp_path, max_tokens=10_000)
    prompt = tuple(range(20))
    path = spill._path(MODEL_NAME, VOCAB, prompt)
    header = (spill_module.SPILL_FORMAT - 1, MODEL_NAME, VOCAB, prompt)
    path.write_bytes(pickle.dumps(header) + pickle.dumps(_prefilled(prompt)))
    assert spill.fetch(MODEL_NAME, VOCAB, prompt) == (None, 0)
    assert spill.stats["corrupt_dropped"] == 1
    # The same entry under the current stamp is served.
    spill.store(MODEL_NAME, VOCAB, prompt, _prefilled(prompt))
    model, matched = spill.fetch(MODEL_NAME, VOCAB, prompt)
    assert model is not None and matched == len(prompt)


def test_spill_evicts_oldest_down_to_token_budget(tmp_path):
    spill = SpillStore(tmp_path, max_tokens=50)
    for start in (0, 1000, 2000, 3000):
        prompt = tuple(range(start, start + 20))
        spill.store(MODEL_NAME, VOCAB, prompt, _prefilled(prompt))
        time.sleep(0.01)  # distinct mtimes make LRU order deterministic
    stats = spill.stats
    assert stats["total_tokens"] <= 50
    assert stats["evictions"] == 2
    # The newest entry survived.
    newest = tuple(range(3000, 3020))
    model, matched = spill.fetch(MODEL_NAME, VOCAB, newest)
    assert model is not None and matched == len(newest)


# -- sharded engine: bit-identity ----------------------------------------------


@pytest.fixture(scope="module")
def sharded_engine():
    with ShardedEngine(num_shards=2) as engine:
        yield engine


def test_sharded_forecasts_bit_identical_to_in_process(sharded_engine):
    specs = [_spec(seed=seed) for seed in (7, 8, 9)]
    with ForecastEngine() as engine:
        baseline = [engine.forecast(spec) for spec in specs]
    for spec, expected in zip(specs, baseline):
        assert expected.ok
        # Cold pass, then warm (the worker's result cache must not change
        # a bit either).
        for _ in range(2):
            response = sharded_engine.forecast(spec)
            assert response.ok, response.error
            assert (
                response.output.values.tobytes()
                == expected.output.values.tobytes()
            )
            assert (
                response.output.samples.tobytes()
                == expected.output.samples.tobytes()
            )


def test_warm_repeat_hits_the_worker_result_cache(sharded_engine):
    spec = _spec(seed=77)
    first = sharded_engine.forecast(spec)
    second = sharded_engine.forecast(spec)
    assert first.ok and second.ok
    assert second.cache_hit


def test_metrics_snapshot_reports_per_shard_health(sharded_engine):
    sharded_engine.forecast(_spec(seed=78))
    snapshot = sharded_engine.metrics_snapshot()
    assert snapshot["shard_requests_total"]["value"] >= 1
    shards = snapshot["shards"]
    assert set(shards) == {"0", "1"}
    for entry in shards.values():
        assert entry["healthy"]
        assert isinstance(entry["worker_pid"], int)
    assert sum(entry["dispatched_total"] for entry in shards.values()) >= 1


def test_sharded_engine_validates_configuration():
    with pytest.raises(ConfigError):
        ShardedEngine(num_shards=0)
    with pytest.raises(ConfigError):
        ShardedEngine(num_shards=1, max_attempts=0)


def test_ledger_records_carry_shard_identity(tmp_path):
    ledger_path = tmp_path / "shard.jsonl"
    with ShardedEngine(
        num_shards=2, ledger=str(ledger_path)
    ) as engine:
        response = engine.forecast(_spec(seed=31))
        assert response.ok
    record = json.loads(ledger_path.read_text().splitlines()[0])
    assert record["shard"] in (0, 1)
    assert isinstance(record["worker_pid"], int)
    assert record["attempts"] == 1
    assert record["outcome"] == "ok"


# -- sharded engine: crash recovery --------------------------------------------


def _await_inflight(engine, timeout=5.0):
    """The shard currently serving a request (its worker mid-chaos-delay)."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        target = next(
            (shard for shard in engine._shards if shard.inflight > 0), None
        )
        if target is not None and target.process.is_alive():
            # Give the worker a beat to dequeue the task before the kill.
            time.sleep(0.2)
            return target
        time.sleep(0.01)
    raise AssertionError("no shard picked up the request in time")


def test_worker_death_mid_request_retries_on_another_shard():
    tracer = Tracer(SpanCollector())
    with ShardedEngine(
        num_shards=2,
        chaos_delay_seconds=0.6,
        tracer=tracer,
    ) as engine:
        future = engine.submit(_spec(seed=3))
        victim = _await_inflight(engine)
        victim.process.terminate()

        response = future.result(timeout=30)
        assert response.ok, response.error
        assert response.attempts == 2

        dispatches = [
            span
            for span in response.trace.walk()
            if span.name == "shard:dispatch"
        ]
        assert [span.attributes["attempt"] for span in dispatches] == [1, 2]
        assert dispatches[1].attributes["shard"] != victim.index

        snapshot = engine.metrics_snapshot()
        assert snapshot["shard_restarts"]["value"] == 1
        assert snapshot["shard_retries"]["value"] == 1
        assert snapshot["shards"][str(victim.index)]["restarts"] == 1

        # The restarted shard is healthy and serves again.
        again = engine.forecast(_spec(seed=4))
        assert again.ok


def test_retry_returns_to_a_failed_shard_when_no_other_can_serve():
    """A worker that cannot be restarted leaves only shards already tried."""

    def out_of_processes(shard):
        raise OSError("no more processes")

    with ShardedEngine(
        num_shards=2, max_attempts=3, chaos_delay_seconds=0.6
    ) as engine:
        future = engine.submit(_spec(seed=5))
        first = _await_inflight(engine)
        engine._spawn = out_of_processes
        first.process.terminate()
        deadline = time.time() + 10
        while first.process is not None and time.time() < deadline:
            time.sleep(0.01)  # until the I/O thread has handled the death
        second = _await_inflight(engine)
        assert second.index != first.index and first.process is None
        del engine._spawn
        second.process.terminate()

        response = future.result(timeout=30)
        assert response.ok, response.error
        assert response.attempts == 3

def test_exhausted_retries_surface_as_typed_shard_failure(tmp_path):
    ledger_path = tmp_path / "failures.jsonl"
    with ShardedEngine(
        num_shards=1,
        max_attempts=1,
        chaos_delay_seconds=0.6,
        ledger=str(ledger_path),
    ) as engine:
        future = engine.submit(
            _spec(seed=5), ledger_extra={"enqueued_at": time.perf_counter()}
        )
        victim = _await_inflight(engine)
        victim.process.terminate()

        response = future.result(timeout=30)
        assert not response.ok
        assert response.error.startswith("ShardFailure")
        assert response.attempts == 1
        assert engine.metrics_snapshot()["shard_failures"]["value"] == 1
    record = json.loads(ledger_path.read_text().splitlines()[0])
    assert record["outcome"] == "failed"
    assert record["attempts"] == 1
    assert record["shard"] is None
    assert record["gateway_queue_wait_seconds"] >= 0
    assert record["strategy"] == "default"

    # The same fields an in-process engine writes for a failed request.
    engine_ledger = tmp_path / "engine.jsonl"
    bad = ForecastRequest(
        HISTORY, horizon=4,
        config=MultiCastConfig(num_samples=2, model="no-such-model"),
    )
    with ForecastEngine(ledger=str(engine_ledger)) as engine:
        assert not engine.forecast(bad).ok
    engine_record = json.loads(engine_ledger.read_text().splitlines()[0])
    assert engine_record["outcome"] == "failed"
    assert set(record) == set(engine_record) | {"shard", "worker_pid"}


def test_queued_request_survives_a_worker_crash(tmp_path):
    """Only the request on the dead worker's pipe spends an attempt."""
    ledger_path = tmp_path / "crash.jsonl"
    queued_spec = _spec(seed=62)
    with ForecastEngine() as engine:
        expected = engine.forecast(queued_spec)
    with ShardedEngine(
        num_shards=1,
        max_attempts=1,
        chaos_delay_seconds=0.6,
        ledger=str(ledger_path),
    ) as engine:
        first = engine.submit(
            ForecastRequest.from_spec(_spec(seed=61), name="first")
        )
        queued = engine.submit(
            ForecastRequest.from_spec(queued_spec, name="queued")
        )
        victim = _await_inflight(engine)
        victim_pid = victim.process.pid
        victim.process.terminate()

        failed = first.result(timeout=30)
        assert failed.error.startswith("ShardFailure")
        served = queued.result(timeout=30)
        assert served.ok, served.error
        assert served.attempts == 1
        assert served.values.tobytes() == expected.values.tobytes()
        assert (
            served.output.samples.tobytes()
            == expected.output.samples.tobytes()
        )
        # The first request and the queued one, each dispatched once.
        assert engine.metrics_snapshot()["shards"]["0"]["dispatched_total"] == 2
    records = [json.loads(line) for line in ledger_path.read_text().splitlines()]
    assert sorted(record["name"] for record in records) == ["first", "queued"]
    (queued_record,) = [r for r in records if r["name"] == "queued"]
    assert queued_record["outcome"] == "ok"
    assert queued_record["worker_pid"] != victim_pid


def test_close_writes_one_terminal_record_per_unfinished_request(tmp_path):
    ledger_path = tmp_path / "close.jsonl"
    engine = ShardedEngine(
        num_shards=1, chaos_delay_seconds=0.6, ledger=str(ledger_path)
    )
    futures = [
        engine.submit(ForecastRequest.from_spec(_spec(seed=seed), name=name))
        for seed, name in ((43, "inflight"), (44, "queued"))
    ]
    _await_inflight(engine)
    engine.close()
    for future in futures:
        response = future.result(timeout=30)
        assert response.error == "engine closed before completion"
    records = [json.loads(line) for line in ledger_path.read_text().splitlines()]
    assert sorted(record["name"] for record in records) == ["inflight", "queued"]
    assert {record["outcome"] for record in records} == {"failed"}


# -- sharded engine: placement and transport -----------------------------------


def _home_shard(spec, shards=(0, 1)):
    request = ForecastRequest.from_spec(spec)
    digest = forecast_digest(
        request.history, request.config, request.horizon, request.seed
    )
    return rendezvous_shard(digest, list(shards))


def test_same_home_requests_queue_on_their_home_shard(tmp_path):
    """Placement is a function of the request, not of which worker is idle.

    Both requests are counted on their home shard at submit, so per-shard
    dispatch counts repeat exactly for one input whatever the timing.
    """
    by_home = {}
    for seed in range(100, 120):
        by_home.setdefault(_home_shard(_spec(seed=seed)), []).append(seed)
    home, seeds = next(
        (home, seeds) for home, seeds in by_home.items() if len(seeds) >= 2
    )
    ledger_path = tmp_path / "placement.jsonl"
    with ShardedEngine(
        num_shards=2, chaos_delay_seconds=0.3, ledger=str(ledger_path)
    ) as engine:
        futures = [
            engine.submit(
                ForecastRequest.from_spec(_spec(seed=seed), name=str(seed))
            )
            for seed in seeds[:2]
        ]
        shards = engine.metrics_snapshot()["shards"]
        assert shards[str(home)]["dispatched_total"] == 2
        assert shards[str(home)]["inflight"] == 2
        assert shards[str(1 - home)]["dispatched_total"] == 0
        assert all(future.result(timeout=30).ok for future in futures)
    records = [json.loads(line) for line in ledger_path.read_text().splitlines()]
    assert {record["shard"] for record in records} == {home}


def test_payloads_beyond_the_pipe_buffer_do_not_deadlock(sharded_engine):
    history = synthetic_multivariate(n=3000, num_dims=4, seed=3).values
    specs = [
        ForecastSpec.from_config(
            MultiCastConfig(num_samples=1, model=MODEL_NAME, seed=seed),
            series=history,
            horizon=4,
        )
        for seed in range(16)
    ]
    request = ForecastRequest.from_spec(specs[0])
    assert len(pickle.dumps(request)) > 64 * 1024
    with ForecastEngine() as engine:
        expected = [engine.forecast(spec) for spec in specs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = list(pool.map(sharded_engine.submit, specs))
    for future, direct in zip(futures, expected):
        response = future.result(timeout=120)
        assert response.ok, response.error
        assert response.values.tobytes() == direct.values.tobytes()
        assert (
            response.output.samples.tobytes()
            == direct.output.samples.tobytes()
        )


# -- gateway over a sharded engine ---------------------------------------------


def test_gateway_over_sharded_engine_is_bit_identical(tmp_path):
    ledger_path = tmp_path / "gateway-sharded.jsonl"
    spec = _spec(seed=21)
    with ForecastEngine() as engine:
        direct = engine.forecast(ForecastRequest.from_spec(spec))
    assert direct.ok

    async def through_gateway():
        engine = ShardedEngine(
            num_shards=2, ledger=str(ledger_path)
        )
        try:
            async with ForecastGateway(engine) as gateway:
                handle = await gateway.submit(spec, tenant="t")
                return await gateway.result(handle)
        finally:
            engine.close()

    served = asyncio.run(through_gateway())
    assert served.ok
    assert served.values.tobytes() == direct.values.tobytes()
    assert (
        served.output.samples.tobytes() == direct.output.samples.tobytes()
    )
    record = json.loads(ledger_path.read_text().splitlines()[0])
    assert record["admission"] == "admitted"
    assert record["tenant"] == "t"
    assert record["shard"] in (0, 1)
    assert isinstance(record["worker_pid"], int)
    assert record["gateway_queue_wait_seconds"] >= 0
