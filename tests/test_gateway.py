"""Tests for the async serving gateway: admission, coalescing, streaming.

No pytest-asyncio in the toolchain, so every async path runs through
``asyncio.run`` inside plain sync tests.  The bit-identity tests are the
load-bearing ones: whatever the gateway does at the door, an admitted
request must produce byte-for-byte the engine's direct answer.
"""

import asyncio
import json
import time

import numpy as np
import pytest

from repro.core import ForecastSpec, MultiCastConfig
from repro.data import synthetic_multivariate
from repro.exceptions import ConfigError
from repro.gateway import (
    AdmissionController,
    ForecastGateway,
    Overloaded,
    QuotaExceeded,
    TenantQuota,
    TokenBucket,
)
from repro.serving import ForecastCache, ForecastEngine, ForecastRequest

HISTORY = synthetic_multivariate(n=80, num_dims=2, seed=3).values


def _spec(seed=0, num_samples=2, horizon=4):
    config = MultiCastConfig(
        num_samples=num_samples, model="uniform-sim", seed=seed
    )
    return ForecastSpec.from_config(config, series=HISTORY, horizon=horizon)


# -- token bucket / admission controller -------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_token_bucket_starts_full_and_refills():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
    assert bucket.try_acquire()
    assert bucket.try_acquire()
    assert bucket.try_acquire()
    assert not bucket.try_acquire()
    assert bucket.retry_after() == pytest.approx(0.5)
    clock.now += 0.5  # rate 2/s: half a second buys one token
    assert bucket.try_acquire()
    assert not bucket.try_acquire()


def test_token_bucket_caps_at_burst():
    clock = FakeClock()
    bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
    clock.now += 100.0
    assert bucket.tokens == pytest.approx(2.0)


def test_token_bucket_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        TokenBucket(rate=0.0)
    with pytest.raises(ConfigError):
        TokenBucket(rate=1.0, burst=0.5)
    with pytest.raises(ConfigError):
        TenantQuota(rate=-1.0)


def test_admission_controller_sheds_past_max_pending():
    admission = AdmissionController(max_pending=2)
    admission.acquire()
    admission.acquire()
    with pytest.raises(Overloaded) as caught:
        admission.acquire()
    assert caught.value.pending == 2
    assert caught.value.max_pending == 2
    admission.release()
    admission.acquire()  # slot freed, admission resumes
    assert admission.stats["shed"] == 1


def test_admission_controller_charges_tenant_quotas():
    clock = FakeClock()
    admission = AdmissionController(
        default_quota=TenantQuota(rate=1.0, burst=2.0), clock=clock
    )
    admission.charge("a")
    admission.charge("a")
    with pytest.raises(QuotaExceeded) as caught:
        admission.charge("a")
    assert caught.value.tenant == "a"
    assert caught.value.retry_after > 0
    admission.charge("b")  # independent bucket per tenant
    assert admission.stats["quota_rejected"] == 1


# -- bit-identity --------------------------------------------------------------


def test_gateway_results_bit_identical_to_direct_engine():
    spec = _spec(seed=11)
    with ForecastEngine() as engine:
        direct = engine.forecast(ForecastRequest.from_spec(spec))
    assert direct.ok

    async def through_gateway():
        async with ForecastGateway() as gateway:
            handle = await gateway.submit(spec, tenant="t")
            return await gateway.result(handle)

    served = asyncio.run(through_gateway())
    assert served.ok
    assert served.values.tobytes() == direct.values.tobytes()
    assert (
        served.output.samples.tobytes() == direct.output.samples.tobytes()
    )


def test_coalesced_followers_get_bit_identical_private_copies():
    spec = _spec(seed=5)

    async def run():
        async with ForecastGateway() as gateway:
            leader = await gateway.submit(spec, tenant="a")
            follower = await gateway.submit(spec, tenant="b")
            assert follower.coalesced and not leader.coalesced
            first = await gateway.result(leader)
            second = await gateway.result(follower)
            return first, second

    first, second = asyncio.run(run())
    assert first.values.tobytes() == second.values.tobytes()
    # Private copy: mutating one tenant's array cannot leak to the other.
    assert first.output is not second.output
    assert second.request.tenant == "b"


# -- admission through the gateway --------------------------------------------


def test_shed_under_burst_is_deterministic():
    """A burst of max_pending + k distinct submissions sheds exactly k."""
    max_pending, extra = 4, 3
    specs = [_spec(seed=100 + i) for i in range(max_pending + extra)]

    async def burst():
        engine = ForecastEngine(cache=ForecastCache(max_entries=0))
        async with ForecastGateway(engine, max_pending=max_pending) as gateway:
            handles, shed = [], []
            # No await between submissions completes, so no slot can free
            # up mid-burst: admission order alone decides who is shed.
            for index, spec in enumerate(specs):
                try:
                    handles.append(await gateway.submit(spec))
                except Overloaded:
                    shed.append(index)
            responses = [await gateway.result(h) for h in handles]
        engine.close()
        return shed, responses

    shed, responses = asyncio.run(burst())
    assert shed == [max_pending, max_pending + 1, max_pending + 2]
    assert all(response.ok for response in responses)


def test_quota_exhaustion_raises_typed_error_not_hang():
    spec_a, spec_b, spec_c = (_spec(seed=s) for s in (1, 2, 3))

    async def run():
        async with ForecastGateway(
            default_quota=TenantQuota(rate=0.001, burst=2.0)
        ) as gateway:
            await gateway.submit(spec_a, tenant="greedy")
            await gateway.submit(spec_b, tenant="greedy")
            started = time.perf_counter()
            with pytest.raises(QuotaExceeded) as caught:
                await gateway.submit(spec_c, tenant="greedy")
            elapsed = time.perf_counter() - started
            return caught.value, elapsed

    error, elapsed = asyncio.run(run())
    assert error.tenant == "greedy"
    assert error.retry_after > 0
    assert elapsed < 1.0  # rejected at the door, never queued


def test_closed_gateway_rejects_submissions():
    async def run():
        gateway = ForecastGateway()
        await gateway.close()
        with pytest.raises(ConfigError):
            await gateway.submit(_spec())

    asyncio.run(run())


# -- streaming -----------------------------------------------------------------


def test_stream_replays_past_events_and_terminates_on_result():
    spec = _spec(seed=21, num_samples=3)

    async def run():
        async with ForecastGateway() as gateway:
            handle = await gateway.submit(spec)
            await gateway.result(handle)  # finish before attaching
            kinds = [event.kind async for event in gateway.stream(handle)]
            return kinds

    kinds = asyncio.run(run())
    # The ensemble decodes in lockstep: nothing falls between the two.
    assert kinds == ["accepted", "result"]


def test_stream_consumer_disconnecting_mid_request_detaches_cleanly():
    spec = _spec(seed=22, num_samples=3)

    async def run():
        async with ForecastGateway() as gateway:
            handle = await gateway.submit(spec)
            stream = gateway.stream(handle)
            first = await anext(stream)
            assert handle.stream_consumers == 1
            await stream.aclose()  # disconnect mid-request
            assert handle.stream_consumers == 0
            response = await gateway.result(handle)
            return first.kind, response

    kind, response = asyncio.run(run())
    assert kind == "accepted"
    assert response.ok  # the request survived its audience leaving


# -- coalesced deadlines -------------------------------------------------------


def test_coalesced_followers_observe_independent_deadlines():
    spec = _spec(seed=31)

    async def run():
        # No result cache: the leader must actually compute, so the
        # follower's tiny deadline expires while the leader is in flight.
        engine = ForecastEngine(cache=ForecastCache(max_entries=0))
        async with ForecastGateway(engine) as gateway:
            leader = await gateway.submit(spec, tenant="patient")
            follower = await gateway.submit(
                ForecastRequest.from_spec(
                    spec, deadline_seconds=1e-6, tenant="hurried"
                )
            )
            assert follower.coalesced
            impatient = await gateway.result(follower)
            patient = await gateway.result(leader)
        engine.close()
        return impatient, patient

    impatient, patient = asyncio.run(run())
    assert not impatient.ok
    assert "deadline" in impatient.error
    assert patient.ok  # the leader (and its other consumers) unaffected


# -- observability -------------------------------------------------------------


def test_gateway_ledger_records_admission_outcomes(tmp_path):
    ledger_path = tmp_path / "gateway.jsonl"
    spec = _spec(seed=41)

    async def run():
        engine = ForecastEngine(ledger=str(ledger_path))
        async with ForecastGateway(
            engine,
            default_quota=TenantQuota(rate=0.001, burst=1.0),
        ) as gateway:
            leader = await gateway.submit(spec, tenant="a")
            follower = await gateway.submit(spec, tenant="b")
            with pytest.raises(QuotaExceeded):
                await gateway.submit(_spec(seed=42), tenant="a")
            await gateway.result(leader)
            await gateway.result(follower)
        engine.close()

    asyncio.run(run())
    records = [
        json.loads(line)
        for line in ledger_path.read_text().splitlines()
        if line.strip()
    ]
    by_admission = {record["admission"]: record for record in records}
    assert set(by_admission) == {"admitted", "coalesced", "quota"}
    admitted = by_admission["admitted"]
    assert admitted["tenant"] == "a"
    assert admitted["gateway_queue_wait_seconds"] >= 0
    coalesced = by_admission["coalesced"]
    assert coalesced["tenant"] == "b"
    assert coalesced["outcome"] == "ok"
    # The follower did no ingest of its own: its record must say
    # "coalesced", not echo the leader's miss/extend/fork (which lives on
    # the admitted record), and not the pre-fix hardcoded None.
    assert coalesced["ingest"] == "coalesced"
    assert by_admission["admitted"]["ingest"] in {"miss", "extend", "fork"}
    quota = by_admission["quota"]
    assert quota["outcome"] == "failed"
    assert quota["tenant"] == "a"


def test_direct_engine_records_admission_direct(tmp_path):
    ledger_path = tmp_path / "direct.jsonl"
    with ForecastEngine(ledger=str(ledger_path)) as engine:
        engine.forecast(ForecastRequest.from_spec(_spec(seed=51)))
    record = json.loads(ledger_path.read_text().splitlines()[0])
    assert record["admission"] == "direct"
    assert record["tenant"] == ""
    assert record["gateway_queue_wait_seconds"] is None


def test_gateway_metrics_and_stats():
    spec = _spec(seed=61)

    async def run():
        async with ForecastGateway(max_pending=2) as gateway:
            handle = await gateway.submit(spec)
            dupe = await gateway.submit(spec)
            await gateway.result(handle)
            await gateway.result(dupe)
            return gateway.stats(), gateway.metrics.snapshot()

    stats, snapshot = asyncio.run(run())
    assert stats["admission"]["pending"] == 0
    assert stats["inflight"] == 0
    assert snapshot["gateway_requests_total"]["value"] == 2
    assert snapshot["gateway_coalesced_total"]["value"] == 1
    assert "gateway_queue_wait_seconds" in snapshot


def test_poll_reports_lifecycle_states():
    spec = _spec(seed=71)

    async def run():
        async with ForecastGateway() as gateway:
            handle = await gateway.submit(spec)
            running = gateway.poll(handle).state
            follower = await gateway.submit(spec)
            coalesced = gateway.poll(follower).state
            await gateway.result(handle)
            await gateway.result(follower)
            return running, coalesced, gateway.poll(handle).state

    running, coalesced, done = asyncio.run(run())
    assert running == "running"
    assert coalesced == "coalesced"
    assert done == "done"


def test_manifest_jobs_carry_tenant():
    from repro.serving import load_manifest

    import json as json_module
    import tempfile

    with tempfile.NamedTemporaryFile(
        "w", suffix=".json", delete=False
    ) as handle:
        json_module.dump(
            {"jobs": [{"name": "x", "dataset": "gas_rate", "horizon": 4,
                       "tenant": "team-a"}]},
            handle,
        )
        path = handle.name
    job = load_manifest(path)[0]
    assert job.tenant == "team-a"
    request = job.to_request(np.zeros((10, 1)) + 1.0)
    assert request.tenant == "team-a"
