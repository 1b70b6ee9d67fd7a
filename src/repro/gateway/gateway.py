"""The asyncio front door: submit / poll / result / stream over the engine.

:class:`ForecastGateway` turns the thread-pooled
:class:`~repro.serving.engine.ForecastEngine` into an async service with
a backpressure story:

* **submit** admits (or rejects) a request and returns a
  :class:`~repro.gateway.handles.GatewayHandle` immediately — admission
  control is a bounded pending set (typed
  :class:`~repro.gateway.admission.Overloaded` shedding) plus per-tenant
  token-bucket quotas (typed
  :class:`~repro.gateway.admission.QuotaExceeded`);
* identical in-flight requests — same
  :func:`~repro.serving.cache.forecast_digest`, i.e. same history bytes,
  config, horizon, and seed — are **single-flight coalesced**: one engine
  computation, every follower handle resolved from it (tenant and name
  are *not* part of the digest, so a thundering herd across tenants costs
  one forecast);
* **poll** is a non-blocking state snapshot, **result** awaits the
  :class:`~repro.serving.request.ForecastResponse` (honouring each
  handle's *own* deadline even when coalesced behind a slower leader),
  and **stream** yields :class:`~repro.gateway.handles.StreamEvent`
  lifecycle events: ``accepted`` on admission, then the final
  ``result``.

The gateway adds nothing to the numeric path: an admitted request is the
exact :class:`~repro.serving.request.ForecastRequest` the engine would
serve directly, so gateway results are bit-identical to
``engine.forecast`` (and to a direct
:class:`~repro.core.forecaster.MultiCastForecaster` call) under the same seed
— pinned by ``tests/test_gateway.py``.

Admission outcomes land in three places: the engine's
:class:`~repro.serving.metrics.MetricsRegistry` (``gateway_*`` counters,
the ``gateway_pending`` gauge, the ``gateway_queue_wait_seconds``
histogram), the request span (``tenant`` / ``admission`` /
``queue_wait`` attributes), and the run ledger (``tenant``,
``admission`` ∈ ``admitted|coalesced|shed|quota|direct``,
``gateway_queue_wait_seconds`` — see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import asyncio
import copy
import dataclasses
import time

from repro.core.spec import ForecastSpec
from repro.exceptions import ConfigError
from repro.gateway.admission import AdmissionController, TenantQuota
from repro.gateway.handles import GatewayHandle, HandleStatus, StreamEvent
from repro.serving.cache import forecast_digest
from repro.serving.engine import ForecastEngine
from repro.serving.request import ForecastRequest, ForecastResponse

__all__ = ["ForecastGateway"]


class _Inflight:
    """One coalescing group: the leader handle and its followers."""

    def __init__(self, leader: GatewayHandle) -> None:
        self.leader = leader
        self.followers: list[GatewayHandle] = []


class ForecastGateway:
    """Asyncio serving gateway over a :class:`ForecastEngine`.

    Parameters
    ----------
    engine:
        The engine to serve through; when None the gateway builds (and
        owns, and closes) a default one.
    max_pending:
        Admission bound: admitted-but-unfinished requests beyond this are
        shed with :class:`~repro.gateway.admission.Overloaded`.
        Coalesced followers are free.
    default_quota / tenant_quotas:
        Per-tenant token buckets
        (:class:`~repro.gateway.admission.TenantQuota`); ``default_quota``
        covers tenants without an explicit entry, ``None`` means
        unlimited.
    coalesce:
        Single-flight identical in-flight requests (on by default).
    clock:
        Monotonic clock for the quota buckets (injectable for tests).

    Example
    -------
    >>> import asyncio
    >>> from repro.gateway import ForecastGateway
    >>> async def serve(spec):
    ...     async with ForecastGateway() as gateway:
    ...         handle = await gateway.submit(spec, tenant="demo")
    ...         return await gateway.result(handle)
    """

    def __init__(
        self,
        engine: ForecastEngine | None = None,
        *,
        max_pending: int = 64,
        default_quota: TenantQuota | None = None,
        tenant_quotas: dict[str, TenantQuota] | None = None,
        coalesce: bool = True,
        clock=time.monotonic,
    ) -> None:
        self._owns_engine = engine is None
        self.engine = ForecastEngine() if engine is None else engine
        self.coalesce = coalesce
        self.admission = AdmissionController(
            max_pending=max_pending,
            default_quota=default_quota,
            tenant_quotas=tenant_quotas,
            clock=clock,
        )
        self.metrics = self.engine.metrics
        self._inflight: dict[str, _Inflight] = {}
        self._handles: set[GatewayHandle] = set()
        self._closed = False

    # -- submission ----------------------------------------------------------

    async def submit(
        self,
        request: ForecastRequest | ForecastSpec,
        *,
        tenant: str = "default",
    ) -> GatewayHandle:
        """Admit one request; return its handle (or raise a typed rejection).

        Accepts a :class:`~repro.serving.request.ForecastRequest` or an
        executable :class:`~repro.core.spec.ForecastSpec`.  ``tenant``
        fills the request's tenant when it has none (an explicit
        ``request.tenant`` wins).  Raises
        :class:`~repro.gateway.admission.QuotaExceeded` when the tenant's
        bucket is empty and :class:`~repro.gateway.admission.Overloaded`
        when the pending set is full — both *before* any engine work, so
        rejection is O(1) and never blocks.
        """
        self._check_open()
        loop = asyncio.get_running_loop()
        request = self._coerce(request, tenant)
        tenant = request.tenant
        self.metrics.counter("gateway_requests_total").inc()

        try:
            self.admission.charge(tenant)
        except Exception:
            self.metrics.counter("gateway_quota_rejected_total").inc()
            self._ledger_rejection(request, "quota", "tenant over quota")
            raise

        digest = forecast_digest(
            request.history, request.config, request.horizon, request.seed
        )
        if self.coalesce:
            entry = self._inflight.get(digest)
            if entry is not None and not entry.leader.done:
                return self._attach_follower(entry, request, loop, digest)

        try:
            self.admission.acquire()
        except Exception:
            self.metrics.counter("gateway_shed_total").inc()
            self._ledger_rejection(request, "shed", "gateway overloaded")
            raise
        self.metrics.gauge("gateway_pending").set(self.admission.pending)

        handle = GatewayHandle(request, digest, loop=loop)
        self._handles.add(handle)
        entry = _Inflight(handle)
        self._inflight[digest] = entry

        ledger_extra = {
            "tenant": tenant,
            "admission": "admitted",
            "enqueued_at": time.perf_counter(),
        }
        engine_future = self.engine.submit(request, ledger_extra=ledger_extra)
        engine_future.add_done_callback(
            lambda future: self._schedule_finalize(loop, digest, entry, future)
        )
        handle.publish(
            StreamEvent(kind="accepted", requested=handle.requested)
        )
        return handle

    def _coerce(
        self, request: ForecastRequest | ForecastSpec, tenant: str
    ) -> ForecastRequest:
        if isinstance(request, ForecastSpec):
            request = ForecastRequest.from_spec(request)
        if not request.tenant:
            request = dataclasses.replace(request, tenant=tenant)
        return request

    def _attach_follower(
        self,
        entry: _Inflight,
        request: ForecastRequest,
        loop: asyncio.AbstractEventLoop,
        digest: str,
    ) -> GatewayHandle:
        """Coalesce: ride the identical in-flight leader, no engine work."""
        follower = GatewayHandle(request, digest, loop=loop, coalesced=True)
        self._handles.add(follower)
        entry.followers.append(follower)
        self.metrics.counter("gateway_coalesced_total").inc()
        follower.publish(
            StreamEvent(kind="accepted", requested=follower.requested)
        )
        return follower

    # -- event-loop callbacks -------------------------------------------------

    def _schedule_finalize(self, loop, digest, entry, future) -> None:
        try:
            loop.call_soon_threadsafe(self._finalize, digest, entry, future)
        except RuntimeError:
            # The loop is gone (gateway user tore it down mid-flight);
            # nothing left to notify.
            self.admission.release()

    def _finalize(self, digest: str, entry: _Inflight, future) -> None:
        """Resolve the leader and every follower from the engine's result."""
        self.admission.release()
        self.metrics.gauge("gateway_pending").set(self.admission.pending)
        if self._inflight.get(digest) is entry:
            del self._inflight[digest]
        error = future.exception()
        if error is not None:
            entry.leader.fail(error)
            for follower in entry.followers:
                follower.fail(error)
            return
        response = future.result()
        entry.leader.resolve(response)
        for follower in entry.followers:
            if follower.done:
                continue  # e.g. already failed its own deadline
            follower.resolve(self._retag(response, follower.request))
            self._ledger_coalesced(follower, response)

    @staticmethod
    def _retag(
        response: ForecastResponse, request: ForecastRequest
    ) -> ForecastResponse:
        """A follower's private copy of the leader's response."""
        return ForecastResponse(
            request,
            output=copy.deepcopy(response.output),
            error=response.error,
            cache_hit=response.cache_hit,
            attempts=response.attempts,
            wall_seconds=response.wall_seconds,
        )

    # -- retrieval -----------------------------------------------------------

    def poll(self, handle: GatewayHandle) -> HandleStatus:
        """Non-blocking state snapshot of one handle (never raises)."""
        return handle.status()

    async def result(self, handle: GatewayHandle) -> ForecastResponse:
        """Await the handle's response, honouring its *own* deadline.

        A coalesced follower whose ``deadline_seconds`` elapses before its
        leader finishes resolves to a failed (deadline) response — the
        leader, and every other follower, is unaffected.  Engine-side
        failures never raise from here; they come back as error
        responses, exactly like ``engine.forecast``.
        """
        deadline = handle.request.deadline_seconds
        if deadline is not None and not handle.done:
            remaining = deadline - (time.perf_counter() - handle.submitted_at)
            try:
                return await asyncio.wait_for(
                    asyncio.shield(handle.future), max(0.0, remaining)
                )
            except asyncio.TimeoutError:
                timed_out = ForecastResponse(
                    handle.request,
                    error=(
                        f"deadline of {deadline}s exceeded while awaiting "
                        f"the gateway result"
                    ),
                    wall_seconds=time.perf_counter() - handle.submitted_at,
                )
                self.metrics.counter("gateway_deadline_expired_total").inc()
                handle.resolve(timed_out)
                return timed_out
        return await handle.future

    async def stream(self, handle: GatewayHandle):
        """Async-iterate the handle's events, ending after ``"result"``.

        Yields every past event first (nothing is missed by attaching
        late), then live ones.  Closing the iterator early — a consumer
        disconnecting mid-request — detaches only this consumer; the
        request keeps running and ``result`` still resolves.
        """
        queue = handle.attach_stream()
        try:
            while True:
                event = await queue.get()
                yield event
                if event.kind == "result":
                    return
        finally:
            handle.detach_stream(queue)

    # -- lifecycle -----------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigError("gateway is closed")

    def stats(self) -> dict:
        """Admission statistics plus the engine's full metrics snapshot."""
        return {
            "admission": self.admission.stats,
            "inflight": len(self._inflight),
            "engine": self.engine.metrics_snapshot(),
        }

    async def close(self) -> None:
        """Drain in-flight handles, then close the engine if owned."""
        if self._closed:
            return
        self._closed = True
        pending = [h.future for h in self._handles if not h.done]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        if self._owns_engine:
            self.engine.close()

    async def __aenter__(self) -> "ForecastGateway":
        """Enter ``async with``: the gateway itself."""
        return self

    async def __aexit__(self, *exc_info) -> None:
        """Exit ``async with``: drain and close."""
        await self.close()

    # -- ledger --------------------------------------------------------------

    def _ledger_rejection(
        self, request: ForecastRequest, admission: str, reason: str
    ) -> None:
        """One ledger record for a request the engine never saw."""
        self._ledger_append(request, admission, "failed", error=reason)

    def _ledger_coalesced(
        self, follower: GatewayHandle, response: ForecastResponse
    ) -> None:
        """One ledger record for a follower resolved from its leader.

        The ``ingest`` field records ``"coalesced"`` — the follower did no
        ingest of its own (the leader's record carries the real
        miss/extend/fork outcome), and copying the leader's value here
        would double-count ingest work in ledger audits.
        """
        self._ledger_append(
            follower.request,
            "coalesced",
            "ok" if response.ok else "failed",
            error=response.error,
            cache_hit=response.cache_hit,
            wall_seconds=time.perf_counter() - follower.submitted_at,
            ingest="coalesced",
        )

    def _ledger_append(
        self,
        request: ForecastRequest,
        admission: str,
        outcome: str,
        *,
        error: str | None = None,
        cache_hit: bool = False,
        wall_seconds: float = 0.0,
        ingest: str | None = None,
    ) -> None:
        ledger = self.engine.ledger
        if ledger is None:
            return
        ledger.append(
            {
                "unix_time": round(time.time(), 3),
                "name": request.name,
                "tenant": request.tenant,
                "admission": admission,
                "gateway_queue_wait_seconds": None,
                "outcome": outcome,
                "config_hash": forecast_digest(
                    request.history,
                    request.config,
                    request.horizon,
                    request.seed,
                ),
                "seed": int(request.effective_seed),
                "scheme": request.config.scheme,
                "sax": request.config.sax is not None,
                "model": request.config.model,
                "horizon": int(request.horizon),
                "cache_hit": cache_hit,
                "attempts": 0,
                "error": error,
                "wall_seconds": round(wall_seconds, 9),
                "prompt_tokens": 0,
                "generated_tokens": 0,
                "ingest": ingest,
                "timings": {},
                "spans": None,
                "metrics": self.metrics.counter_values(),
            }
        )
