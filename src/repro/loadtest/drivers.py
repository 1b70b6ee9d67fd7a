"""Load-test drivers: how arrivals hit the gateway.

Two canonical shapes:

* :func:`run_open_loop` — arrivals fire on a fixed schedule (``rate``
  requests/second) regardless of how the system keeps up.  This is the
  honest overload test: when the gateway falls behind, latency and shed
  rate grow instead of the offered load silently dropping (no
  coordinated omission).
* :func:`run_closed_loop` — ``concurrency`` workers each keep exactly
  one request in flight, submitting the next the moment the previous
  resolves.  This measures sustainable throughput at a fixed
  concurrency rather than behaviour under a fixed offered rate.

Both return one :class:`RequestSample` per workload item, in arrival
order, which :mod:`repro.loadtest.report` aggregates.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro.gateway.admission import Overloaded, QuotaExceeded
from repro.gateway.gateway import ForecastGateway
from repro.loadtest.workload import WorkloadItem
from repro.serving.request import ForecastRequest

__all__ = ["RequestSample", "run_closed_loop", "run_open_loop"]


@dataclass(frozen=True)
class RequestSample:
    """What one arrival experienced, end to end.

    ``outcome`` is ``"ok"``, ``"failed"`` (served with an
    error), ``"shed"`` or ``"quota"`` (rejected at the door).
    ``latency_seconds`` is submit-to-resolution for served requests and
    submit-to-rejection (effectively 0) for rejected ones.
    ``deadline_hit`` is True when the request was served successfully
    within its own deadline (always True for successful requests that
    had no deadline, always False for rejections).
    """

    name: str
    tenant: str
    outcome: str
    latency_seconds: float
    coalesced: bool = False
    cache_hit: bool = False
    deadline_hit: bool = False


async def _serve_one(
    gateway: ForecastGateway, item: WorkloadItem
) -> RequestSample:
    """Submit one workload item and watch it to resolution."""
    started = time.perf_counter()
    request = ForecastRequest.from_spec(
        item.spec,
        deadline_seconds=item.deadline_seconds,
        name=item.name,
        tenant=item.tenant,
    )
    try:
        handle = await gateway.submit(request)
    except Overloaded:
        return RequestSample(
            name=item.name,
            tenant=item.tenant,
            outcome="shed",
            latency_seconds=time.perf_counter() - started,
        )
    except QuotaExceeded:
        return RequestSample(
            name=item.name,
            tenant=item.tenant,
            outcome="quota",
            latency_seconds=time.perf_counter() - started,
        )
    response = await gateway.result(handle)
    latency = time.perf_counter() - started
    outcome = "ok" if response.ok else "failed"
    deadline_hit = response.ok and (
        item.deadline_seconds is None or latency <= item.deadline_seconds
    )
    return RequestSample(
        name=item.name,
        tenant=item.tenant,
        outcome=outcome,
        latency_seconds=latency,
        coalesced=handle.coalesced,
        cache_hit=response.cache_hit,
        deadline_hit=deadline_hit,
    )


async def run_open_loop(
    gateway: ForecastGateway,
    workload: list[WorkloadItem],
    *,
    rate: float,
) -> list[RequestSample]:
    """Fire arrivals at ``rate`` requests/second, never waiting for results.

    Arrival ``i`` is scheduled at ``i / rate`` seconds after the start;
    if the loop falls behind schedule it submits immediately (offered
    load is preserved, not thinned).  Returns samples in arrival order
    once every request resolves.
    """
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    start = time.perf_counter()
    tasks: list[asyncio.Task] = []
    for index, item in enumerate(workload):
        delay = start + index / rate - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(_serve_one(gateway, item)))
    return list(await asyncio.gather(*tasks))


async def run_closed_loop(
    gateway: ForecastGateway,
    workload: list[WorkloadItem],
    *,
    concurrency: int = 4,
) -> list[RequestSample]:
    """Serve the workload with ``concurrency`` one-in-flight workers.

    Workers pull the next arrival as soon as their previous request
    resolves — offered load self-adjusts to what the system sustains.
    Returns samples in arrival order.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    queue: asyncio.Queue = asyncio.Queue()
    for position, item in enumerate(workload):
        queue.put_nowait((position, item))
    samples: list[RequestSample | None] = [None] * len(workload)

    async def worker() -> None:
        while True:
            try:
                position, item = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            samples[position] = await _serve_one(gateway, item)

    await asyncio.gather(
        *(worker() for _ in range(min(concurrency, len(workload))))
    )
    return [sample for sample in samples if sample is not None]
