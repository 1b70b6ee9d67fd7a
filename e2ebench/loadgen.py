"""The closed-loop load generator: clients that each wait for their reply.

People who run a backtest or refresh a dashboard wait for each forecast
before asking for the next, so the benchmark offers load in a closed
loop: ``clients`` coroutines in one thread and one event loop, each
submitting its next request only after the previous one resolved.
Request indices are handed out in submission order, so request ``i`` is
always the ``i``-th request sent.

This generator belongs to the benchmark, not to ``repro.loadtest``, so no
change to the program can alter how load is offered.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass


@dataclass
class Sample:
    """One request as the client saw it."""

    index: int
    client: int
    submitted_at: float
    submit_seconds: float
    latency_seconds: float
    completed_at: float
    response: object | None
    error: str | None

    @property
    def ok(self) -> bool:
        """Complete and not partial: the only outcome counted a success."""
        response = self.response
        return (
            self.error is None
            and response is not None
            and response.ok
            and not response.partial
        )


@dataclass
class Phase:
    """Every sample of one timed phase, in completion order."""

    samples: list[Sample]
    wall_seconds: float
    started_at: float
    #: Times a client waited for a request's dependency to resolve.
    dependency_waits: int = 0

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def completed(self) -> int:
        return sum(1 for sample in self.samples if sample.ok)

    def by_index(self) -> dict[int, Sample]:
        return {sample.index: sample for sample in self.samples}


async def closed_loop(
    gateway,
    make_request,
    *,
    seconds,
    min_requests=0,
    clients=2,
    depends_on=None,
    on_submitted=None,
):
    """Drive ``gateway`` for ``seconds`` with ``clients`` closed-loop clients.

    ``make_request(i)`` builds request ``i``; it runs before the request's
    timer starts.  ``depends_on(i)`` (optional) names a request that must
    have resolved before ``i`` is sent — a backtest sends a series' next
    window only after the previous one came back — and a client waits for
    it before taking ``i``, so requests are still sent in index order.
    ``on_submitted(i)`` (optional) runs right after request ``i`` was
    admitted, outside the timers.  No client starts a request once
    ``seconds`` have passed and ``min_requests`` have been sent, so a slow
    host still sends every request the count metrics need.  The phase ends
    when the last request in flight resolves, and ``wall_seconds`` runs to
    that moment.
    """
    from repro.exceptions import ReproError

    samples: list[Sample] = []
    resolved: dict[int, asyncio.Event] = {}
    next_index = 0
    waits = 0
    started = time.perf_counter()
    deadline = started + seconds

    async def take_index() -> int:
        nonlocal next_index, waits
        while True:
            index = next_index
            dependency = depends_on(index) if depends_on is not None else None
            if dependency is None or (
                dependency in resolved and resolved[dependency].is_set()
            ):
                next_index += 1
                return index
            waits += 1
            await resolved.setdefault(dependency, asyncio.Event()).wait()

    async def client(client_id: int) -> None:
        while next_index < min_requests or time.perf_counter() < deadline:
            index = await take_index()
            request = make_request(index)
            submitted_at = time.perf_counter()
            response = error = None
            submit_seconds = 0.0
            try:
                handle = await gateway.submit(request, tenant=f"client-{client_id}")
                submit_seconds = time.perf_counter() - submitted_at
                if on_submitted is not None:
                    on_submitted(index)
                response = await gateway.result(handle)
            except ReproError as rejected:  # shed or over quota
                error = f"{type(rejected).__name__}: {rejected}"
            completed_at = time.perf_counter()
            samples.append(
                Sample(
                    index=index,
                    client=client_id,
                    submitted_at=submitted_at,
                    submit_seconds=submit_seconds,
                    latency_seconds=completed_at - submitted_at,
                    completed_at=completed_at,
                    response=response,
                    error=error,
                )
            )
            resolved.setdefault(index, asyncio.Event()).set()

    await asyncio.gather(*(client(client_id) for client_id in range(clients)))
    return Phase(
        samples=samples,
        wall_seconds=time.perf_counter() - started,
        started_at=started,
        dependency_waits=waits,
    )
