"""Handles and stream events: the gateway's view of one in-flight request.

``ForecastGateway.submit`` returns a :class:`GatewayHandle` immediately —
the ticket a caller uses to ``poll`` (non-blocking state), ``result``
(await the :class:`~repro.serving.request.ForecastResponse`), or
``stream`` (an async iterator of :class:`StreamEvent`).  Handles are
cheap and single-request; the heavy state (engine futures, coalescing
maps) lives in the gateway.

Stream consumers may disconnect at any point: closing the stream detaches
its queue and nothing else — the underlying request keeps running, other
consumers of the same handle keep receiving events, and ``result`` still
resolves.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass

from repro.serving.request import ForecastRequest, ForecastResponse

__all__ = ["GatewayHandle", "HandleStatus", "StreamEvent"]

_HANDLE_IDS = itertools.count(1)


@dataclass(frozen=True)
class StreamEvent:
    """One streamed observation of an in-flight request.

    ``kind`` is the event type:

    * ``"accepted"`` — admission succeeded; ``requested`` reports the
      sample ensemble size.
    * ``"result"`` — terminal; ``response`` carries the full
      :class:`~repro.serving.request.ForecastResponse`.

    The ensemble decodes in lockstep inside one pass, so no event falls
    between the two.
    """

    kind: str
    requested: int = 0
    response: ForecastResponse | None = None


@dataclass(frozen=True)
class HandleStatus:
    """A non-blocking snapshot of one handle (what ``poll`` returns).

    ``state`` is ``"running"`` (admitted, engine working — possibly
    briefly queued on the engine's request pool, which the
    ``gateway_queue_wait_seconds`` histogram measures), ``"coalesced"``
    (riding an identical in-flight request), ``"done"`` (response ready
    and ok) or ``"failed"`` (response ready with an error).
    ``requested`` is the sample ensemble size.
    """

    state: str
    requested: int = 0
    tenant: str = ""
    coalesced: bool = False


class GatewayHandle:
    """One submitted request's ticket: identity, status, and its future.

    Created by :meth:`ForecastGateway.submit`; never constructed by
    callers.  ``handle.done`` / ``handle.response`` allow cheap
    inspection, but the blessed accessors are the gateway's ``poll``,
    ``result`` and ``stream``.
    """

    def __init__(
        self,
        request: ForecastRequest,
        digest: str,
        *,
        loop: asyncio.AbstractEventLoop,
        coalesced: bool = False,
    ) -> None:
        self.id = next(_HANDLE_IDS)
        self.request = request
        self.digest = digest
        self.coalesced = coalesced
        self.submitted_at = time.perf_counter()
        self.future: asyncio.Future = loop.create_future()
        self.requested = int(request.config.num_samples)
        self._queues: list[asyncio.Queue] = []
        self._events: list[StreamEvent] = []

    # -- state ---------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True once the response (success or failure) is available."""
        return self.future.done()

    @property
    def response(self) -> ForecastResponse | None:
        """The terminal response, or None while in flight."""
        if not self.future.done() or self.future.cancelled():
            return None
        if self.future.exception() is not None:
            return None
        return self.future.result()

    def status(self) -> HandleStatus:
        """The non-blocking :class:`HandleStatus` snapshot."""
        response = self.response
        if response is not None:
            state = "done" if response.ok else "failed"
        elif self.future.done():
            state = "failed"
        elif self.coalesced:
            state = "coalesced"
        else:
            state = "running"
        return HandleStatus(
            state=state,
            requested=self.requested,
            tenant=self.request.tenant,
            coalesced=self.coalesced,
        )

    # -- event plumbing (called by the gateway, on the event loop) -----------

    def publish(self, event: StreamEvent) -> None:
        """Record one event and fan it out to every attached stream."""
        self._events.append(event)
        for queue in self._queues:
            queue.put_nowait(event)

    def attach_stream(self) -> asyncio.Queue:
        """A queue pre-seeded with every past event (no event is missed)."""
        queue: asyncio.Queue = asyncio.Queue()
        for event in self._events:
            queue.put_nowait(event)
        self._queues.append(queue)
        return queue

    def detach_stream(self, queue: asyncio.Queue) -> None:
        """Forget a consumer's queue (stream closed or disconnected)."""
        if queue in self._queues:
            self._queues.remove(queue)

    @property
    def stream_consumers(self) -> int:
        """Currently attached stream queues (for tests and introspection)."""
        return len(self._queues)

    def resolve(self, response: ForecastResponse) -> None:
        """Set the terminal response and publish the ``result`` event.

        Idempotent: a handle that already resolved (e.g. a coalesced
        follower that hit its own deadline) ignores later resolutions.
        """
        if self.future.done():
            return
        self.future.set_result(response)
        self.publish(
            StreamEvent(
                kind="result", requested=self.requested, response=response
            )
        )

    def fail(self, error: BaseException) -> None:
        """Resolve the handle with an exception (engine-level failure)."""
        if self.future.done():
            return
        self.future.set_exception(error)

    def __repr__(self) -> str:
        return (
            f"GatewayHandle(id={self.id}, tenant={self.request.tenant!r}, "
            f"state={self.status().state!r}, digest={self.digest[:12]}...)"
        )
