"""Build, warm and measure the serving stack a workload runs against.

The stack is ``ForecastGateway`` over an in-process ``ForecastEngine``
(``zero-shot``, ``backtest``) or over a 2-worker ``ShardedEngine``
(``sax-sharded``), with the result cache disabled in both.  Everything
the benchmark measures comes from outside the program: timers around
public calls, ``ForecastOutput.timings``/``metadata``, the ``tracer=`` and
``ledger=`` parameters, and ``metrics_snapshot()``.

``repro`` is imported inside the functions, never at module level, so the
set-up probe (``setup_probe.py``) can start its clock before the import.
"""

from __future__ import annotations

import os
import statistics
import time

NUM_SHARDS = 2
#: Rows, horizon and samples of the warm-up request each worker serves.
WARMUP_ROWS = 24
WARMUP_HORIZON = 2
WARMUP_SAMPLES = 1


def build_gateway(sharded: bool, *, tracer=None, ledger=None, ingest_cache_tokens=None):
    """A ``ForecastGateway`` over a fresh engine with no result cache.

    ``ingest_cache_tokens`` overrides the in-process ingest-cache cap;
    ``None`` keeps the program's default.  The sharded engine's spill tier
    is off, so the benchmark writes nothing outside its checkout.
    """
    from repro.gateway import ForecastGateway

    if sharded:
        from repro.sharding import ShardedEngine

        engine = ShardedEngine(
            num_shards=NUM_SHARDS,
            result_cache_entries=0,
            spill_max_tokens=0,
            tracer=tracer,
            ledger=ledger,
        )
    else:
        from repro.serving import ForecastEngine
        from repro.serving.cache import ForecastCache

        options = {}
        if ingest_cache_tokens is not None:
            from repro.llm.state_cache import IngestStateCache

            options["ingest_cache"] = IngestStateCache(
                max_tokens=ingest_cache_tokens
            )
        engine = ForecastEngine(
            cache=ForecastCache(max_entries=0),
            tracer=tracer,
            ledger=ledger,
            **options,
        )
    return ForecastGateway(engine)


def _warmup_request(attempt: int):
    from repro.core.spec import ForecastSpec
    from repro.data import gas_rate
    from repro.serving import ForecastRequest

    spec = ForecastSpec(
        series=gas_rate(n=WARMUP_ROWS, seed=attempt).values,
        horizon=WARMUP_HORIZON,
        num_samples=WARMUP_SAMPLES,
        seed=attempt,
    )
    return ForecastRequest.from_spec(
        spec, use_cache=False, name=f"warmup-{attempt}"
    )


def workers_served(gateway) -> list[int]:
    """Requests dispatched so far to each serving process."""
    snapshot = gateway.engine.metrics_snapshot()
    shards = snapshot.get("shards")
    if shards is None:
        return [int(snapshot.get("requests_total", {}).get("value", 0))]
    return [int(shard["dispatched_total"]) for shard in shards.values()]


async def warm_up(gateway, max_attempts: int = 64) -> None:
    """Serve small requests until every worker has served one.

    A sharded engine routes by request digest, so distinct warm-up
    requests are sent one at a time until each shard has been dispatched
    at least one.  A worker that answers has also finished starting, so
    this doubles as the readiness wait.
    """
    for attempt in range(max_attempts):
        handle = await gateway.submit(_warmup_request(attempt), tenant="warmup")
        response = await gateway.result(handle)
        if not response.ok:
            raise RuntimeError(f"warm-up request failed: {response.error}")
        if min(workers_served(gateway)) > 0:
            return
    raise RuntimeError(f"not every worker served within {max_attempts} warm-ups")


def serving_pids(gateway) -> list[int]:
    """This process plus every shard worker's pid."""
    pids = [os.getpid()]
    shards = gateway.engine.metrics_snapshot().get("shards", {})
    pids.extend(
        int(shard["worker_pid"])
        for shard in shards.values()
        if shard.get("worker_pid") is not None
    )
    return pids


def peak_rss_mb(pids) -> float:
    """Summed ``VmHWM`` (peak resident set) of ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
            else:
                raise RuntimeError(f"no VmHWM for pid {pid}")
    return total_kb / 1024.0


def host_probe_ms(repeats: int = 5, iterations: int = 200_000) -> float:
    """Median time of a fixed pure-Python loop, in ms.

    Recorded beside every run (ungated) so that a reader can tell a slow
    host from a slow program when two sets of runs disagree.
    """
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        acc = 0
        for k in range(iterations):
            acc = (acc + k * k) % 1_000_003
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3


def host_cpu_ticks() -> list[int]:
    """The host's CPU time counters (first line of ``/proc/stat``)."""
    with open("/proc/stat") as stat:
        return [int(field) for field in stat.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time between two ``host_cpu_ticks`` that was stolen.

    The first eight counters (user to steal) add up to all CPU time; the
    guest counters after them are already inside user and nice.
    """
    deltas = [b - a for a, b in zip(before[:8], after[:8])]
    total = sum(deltas)
    return deltas[7] / total if len(deltas) == 8 and total > 0 else 0.0
