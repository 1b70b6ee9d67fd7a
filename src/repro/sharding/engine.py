"""The sharded engine: fan requests out to decode worker *processes*.

The serving stack's decode path — per-request lockstep batched
decoding — runs inside one Python process, so one GIL is the ceiling on
sustained throughput.
:class:`ShardedEngine` is the escape hatch production LLM-serving stacks
take when a single executor saturates: N worker processes (see
:mod:`repro.sharding.worker`), each a complete single-process serving
stack over its own model replicas, behind a supervisor that owns

* **routing** — cache-affine rendezvous hashing of the request's
  :func:`~repro.serving.cache.forecast_digest`
  (:mod:`repro.sharding.routing`), so a repeated spec lands on the
  worker that already holds its result-cache entry and prefill state.
  A worker holds at most one request; the rest routed to it wait in
  its supervisor-side backlog;
* **transport** — one duplex pipe per shard, and one supervisor I/O
  thread (``shard-io``) that waits on every pipe and every process
  sentinel at once: results, readiness and deaths arrive the same way;
* **health** — a worker death is restarted (counted in
  ``shard_restarts``), and the one request on its pipe is retried on
  another shard (bounded attempts, then a typed :class:`ShardFailure`
  error response).  Its backlog was never sent, so a death spends
  none of those requests' attempts.  The shared
  :class:`~repro.sharding.SpillStore` directory means the restarted
  worker rehydrates evicted prefill state instead of starting cold;
* **result reassembly** — worker results resolve
  :class:`concurrent.futures.Future` objects, ledger records are
  enriched with ``shard``/``worker_pid`` and written by the one
  supervisor-side ledger, and supervisor spans (``shard:dispatch`` /
  ``shard:collect``) record placement and attempts.

The engine is a drop-in for :class:`~repro.serving.engine.ForecastEngine`
behind :class:`~repro.gateway.gateway.ForecastGateway` — same
``submit`` / ``forecast`` / ``metrics`` / ``ledger`` surface — and
bit-identical to it under fixed seeds: forecasts are pure functions of
``(history, config, horizon, seed)``, and workers run the exact
single-process code path.  Tests pin this across {cold, warm cache} ×
shard counts.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import shutil
import tempfile
import threading
import time
from collections import deque
from collections.abc import Iterable
from concurrent.futures import Future
from dataclasses import dataclass, field
from multiprocessing import connection

from repro.core.spec import ForecastSpec
from repro.exceptions import ConfigError, ReproError
from repro.observability.ledger import RunLedger
from repro.observability.spans import NULL_TRACER, Span
from repro.serving.cache import forecast_digest
from repro.serving.metrics import MetricsRegistry
from repro.serving.request import ForecastRequest, ForecastResponse
from repro.sharding.routing import KEY_PREFIX, rendezvous_ranking
from repro.sharding.worker import worker_main

__all__ = ["ShardedEngine", "ShardFailure"]

#: How long the constructor waits for each worker's ``ready`` message.
_START_TIMEOUT_SECONDS = 120.0

#: Workers are always spawned, never forked: ``_handle_death`` respawns
#: them from the ``shard-io`` thread, and forking a process that has other
#: threads running copies locks held by those threads.
_MP_CONTEXT = multiprocessing.get_context("spawn")


class ShardFailure(ReproError):
    """A request exhausted its attempts because workers kept dying.

    Carries the shards tried and the attempt count; surfaced to callers
    as a failed :class:`~repro.serving.request.ForecastResponse` whose
    ``error`` starts with ``"ShardFailure"``, and to the ledger as an
    ``outcome="failed"`` record.
    """

    def __init__(self, shards_tried: tuple[int, ...], attempts: int) -> None:
        self.shards_tried = shards_tried
        self.attempts = attempts
        super().__init__(
            f"ShardFailure: worker died on shard(s) {list(shards_tried)} "
            f"({attempts} attempt(s) exhausted)"
        )


@dataclass(eq=False)
class _Shard:
    """Supervisor-side bookkeeping for one worker process and its pipe."""

    index: int
    conn: connection.Connection | None = None
    process: multiprocessing.process.BaseProcess | None = None
    healthy: bool = False  # until the worker's "ready" message
    restarts: int = 0
    worker_pid: int | None = None
    dispatched_total: int = 0
    current: _Pending | None = None  # the request on the pipe
    backlog: deque[_Pending] = field(default_factory=deque)  # not yet sent

    @property
    def inflight(self) -> int:
        """Requests routed to this shard and not yet answered."""
        return int(self.current is not None) + len(self.backlog)


@dataclass(eq=False)
class _Pending:
    """One submitted request: identity, placement state, and its future."""

    request: ForecastRequest
    digest: str
    ranking: list[int]  # every shard, best-first for this digest
    payload: bytes  # the pickled request message, sent as is
    future: Future
    extra: dict
    root: Span | None
    attempt: int = 1
    failed_shards: set[int] = field(default_factory=set)


def _failure_record(pending: _Pending, response: ForecastResponse) -> dict:
    """Ledger record of a request no worker answered: the keys of a
    :class:`~repro.serving.engine.ForecastEngine` failure record plus
    ``shard``/``worker_pid``; ``metrics`` is empty (no worker counted it).
    """
    request = pending.request
    wait = pending.extra.get("gateway_queue_wait_seconds")
    return {
        "unix_time": round(time.time(), 3),
        "name": request.name,
        "tenant": request.tenant,
        "admission": pending.extra.get("admission", "direct"),
        "gateway_queue_wait_seconds": None if wait is None else round(wait, 9),
        "outcome": "failed",
        "config_hash": pending.digest,
        "seed": int(request.effective_seed),
        "scheme": request.config.scheme,
        "sax": request.config.sax is not None,
        "model": request.config.model,
        "horizon": int(request.horizon),
        "strategy": request.config.strategy,
        "cache_hit": False,
        "attempts": response.attempts,
        "error": response.error,
        "wall_seconds": 0.0,
        "prompt_tokens": 0,
        "generated_tokens": 0,
        "ingest": None,
        "timings": {},
        "spans": None,
        "shard": None,
        "worker_pid": None,
        "metrics": {},
    }


class ShardedEngine:
    """Multi-process forecast service: N decode workers, one supervisor.

    Parameters
    ----------
    num_shards:
        Decode worker processes.  Each runs a full
        :class:`~repro.serving.engine.ForecastEngine`; sizing guidance
        lives in ``docs/SERVING.md`` ("Scaling out").
    result_cache_entries / ingest_cache_tokens:
        Forwarded to each worker's engine (``0`` disables the respective
        cache, exactly as in-process).
    spill_dir:
        Shared directory of the on-disk ingest spill tier.  ``None``
        creates a private temporary directory (removed on :meth:`close`);
        pass an explicit path to share spill state across engine restarts.
    spill_max_tokens:
        Token budget of the spill tier (``0`` disables spilling).
    max_attempts:
        Total placement attempts per request: after this many worker
        deaths a request resolves to a :class:`ShardFailure` error
        response.
    metrics / tracer / ledger:
        Supervisor-side observability, same contract as
        :class:`~repro.serving.engine.ForecastEngine`.  The ledger gains
        ``shard`` / ``worker_pid`` on every record; the tracer gains
        ``shard:dispatch`` / ``shard:collect`` spans; metrics gain the
        ``shard_*`` family.
    chaos_delay_seconds:
        Failure-injection knob: every worker sleeps this long before
        serving each request, making kill-mid-request tests
        deterministic.  Leave at 0.0 in production.
    """

    def __init__(
        self,
        num_shards: int = 2,
        *,
        result_cache_entries: int = 128,
        ingest_cache_tokens: int = 262_144,
        spill_dir: str | None = None,
        spill_max_tokens: int = 1_048_576,
        max_attempts: int = 2,
        metrics: MetricsRegistry | None = None,
        tracer=None,
        ledger: RunLedger | str | None = None,
        chaos_delay_seconds: float = 0.0,
    ) -> None:
        if num_shards < 1:
            raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
        if max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {max_attempts}")
        self.num_shards = num_shards
        self.max_attempts = max_attempts
        self.metrics = metrics or MetricsRegistry()
        self.tracer = NULL_TRACER if tracer is None else tracer
        if ledger is None or isinstance(ledger, RunLedger):
            self.ledger = ledger
        else:
            self.ledger = RunLedger(ledger)
        self._owns_spill_dir = spill_dir is None
        if spill_dir is None and spill_max_tokens > 0:
            spill_dir = tempfile.mkdtemp(prefix="multicast-spill-")
        self.spill_dir = spill_dir
        self._options = {
            "result_cache_entries": int(result_cache_entries),
            "ingest_cache_tokens": int(ingest_cache_tokens),
            "spill_dir": spill_dir if spill_max_tokens > 0 else None,
            "spill_max_tokens": int(spill_max_tokens),
            "chaos_delay_seconds": float(chaos_delay_seconds),
            "ledger": self.ledger is not None,
        }
        self._lock = threading.Lock()
        self._closed = False
        self._shards = [_Shard(index) for index in range(num_shards)]
        self._io = threading.Thread(
            target=self._io_loop, name="shard-io", daemon=True
        )
        try:
            for shard in self._shards:
                self._spawn(shard)
            for shard in self._shards:  # start-up runs in parallel; await each
                self._await_ready(shard)
        except BaseException:
            self.close()
            raise
        self._io.start()

    # -- lifecycle ------------------------------------------------------------

    def _spawn(self, shard: _Shard) -> None:
        conn, worker_conn = _MP_CONTEXT.Pipe()
        process = _MP_CONTEXT.Process(
            target=worker_main,
            args=(self._options, worker_conn),
            name=f"mc-shard-{shard.index}",
            daemon=True,
        )
        try:
            process.start()
        finally:
            worker_conn.close()  # the worker's copy is the only one left
        shard.conn, shard.process = conn, process

    def _await_ready(self, shard: _Shard) -> None:
        try:
            if shard.conn.poll(_START_TIMEOUT_SECONDS):
                return self._on_message(shard, shard.conn.recv())
        except (EOFError, OSError) as error:
            raise ReproError(
                f"shard {shard.index} worker died during start-up"
            ) from error
        raise ReproError(
            f"shard {shard.index} worker not ready in {_START_TIMEOUT_SECONDS:g} s"
        )

    def close(self) -> None:
        """Stop every worker; unfinished requests resolve as failed."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            leftovers, processes = [], []
            for shard in self._shards:
                leftovers.extend(filter(None, [shard.current, *shard.backlog]))
                shard.current, shard.backlog = None, deque()
                if shard.process is not None:
                    processes.append(shard.process)
                    try:
                        shard.conn.send({"kind": "stop"})
                    except OSError:
                        pass  # already dead; the I/O thread reaps it
        for process in processes:
            process.join(timeout=10)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
        if self._io.is_alive():
            self._io.join(timeout=5)
        for pending in leftovers:
            self._resolve_failed(
                pending, "engine closed before completion", pending.attempt
            )
        if self._owns_spill_dir and self.spill_dir:
            shutil.rmtree(self.spill_dir, ignore_errors=True)

    def __enter__(self) -> "ShardedEngine":
        """Enter ``with``: the engine itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Exit ``with``: close every worker."""
        self.close()

    # -- public API -----------------------------------------------------------

    def forecast(
        self,
        request: ForecastRequest | ForecastSpec,
        *,
        ledger_extra: dict | None = None,
    ) -> ForecastResponse:
        """Serve one request, blocking until its shard returns the result."""
        return self.submit(request, ledger_extra=ledger_extra).result()

    def submit(
        self,
        request: ForecastRequest | ForecastSpec,
        *,
        ledger_extra: dict | None = None,
    ) -> Future:
        """Route a request to its shard; returns a Future.

        Same hook as :meth:`ForecastEngine.submit`: ``ledger_extra``
        carries the gateway's admission metadata into the worker's ledger
        record (``enqueued_at`` is converted to
        ``gateway_queue_wait_seconds`` supervisor-side, since
        ``time.perf_counter`` readings do not transfer across processes).
        """
        if isinstance(request, ForecastSpec):
            request = ForecastRequest.from_spec(request)
        extra = dict(ledger_extra) if ledger_extra else {}
        enqueued_at = extra.pop("enqueued_at", None)
        if enqueued_at is not None:
            queue_wait = time.perf_counter() - enqueued_at
            extra["gateway_queue_wait_seconds"] = queue_wait
            self.metrics.histogram("gateway_queue_wait_seconds").observe(queue_wait)
        digest = forecast_digest(
            request.history, request.config, request.horizon, request.seed
        )
        root = None
        if self.tracer.enabled:
            root = Span(
                "request",
                {
                    "request_name": request.name or "",
                    "scheme": request.config.scheme,
                    "horizon": int(request.horizon),
                    "seed": int(request.effective_seed),
                    "digest": digest[:KEY_PREFIX],
                },
            )
        # Pickled once, here and outside the lock: a retry resends the
        # same bytes, and an unpicklable request fails its caller rather
        # than the I/O thread.
        payload = pickle.dumps(
            {"kind": "request", "request": request, "ledger_extra": extra or None},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        future: Future = Future()
        ranking = rendezvous_ranking(digest, range(self.num_shards))
        pending = _Pending(request, digest, ranking, payload, future, extra, root)
        with self._lock:
            if self._closed:
                raise ConfigError("engine is closed")
            self._route_locked(pending)
        self.metrics.counter("shard_requests_total").inc()
        return future

    def forecast_batch(
        self, requests: Iterable[ForecastRequest | ForecastSpec]
    ) -> list[ForecastResponse]:
        """Serve many requests across the shards; responses in request order."""
        futures = [self.submit(request) for request in requests]
        return [future.result() for future in futures]

    def metrics_snapshot(self) -> dict:
        """Supervisor metrics plus a per-shard health/occupancy section."""
        snapshot = self.metrics.snapshot()
        with self._lock:
            snapshot["shards"] = {
                str(shard.index): {
                    "type": "shard",
                    "healthy": shard.healthy,
                    "restarts": shard.restarts,
                    "inflight": shard.inflight,
                    "dispatched_total": shard.dispatched_total,
                    "worker_pid": shard.worker_pid,
                }
                for shard in self._shards
            }
        return snapshot

    # -- dispatch -------------------------------------------------------------

    def _route_locked(self, pending: _Pending, *, retry: bool = False) -> None:
        """Queue a request on its rendezvous-winning shard; send if idle.

        Caller holds ``self._lock``.  Shards the request already failed
        on are skipped while another live one exists.  Placement never
        depends on timing, so per-shard counts repeat for one input.
        """
        live = [shard.index for shard in self._shards if shard.process is not None]
        candidates = [i for i in live if i not in pending.failed_shards] or live
        candidates = candidates or range(self.num_shards)  # none could restart
        target = next(i for i in pending.ranking if i in candidates)
        shard = self._shards[target]
        shard.dispatched_total += 1
        if retry:
            shard.backlog.appendleft(pending)  # it was sent before the rest
        else:
            shard.backlog.append(pending)
        self._pump_locked(shard)

    def _pump_locked(self, shard: _Shard) -> None:
        """Send a ready, idle shard the oldest request routed to it."""
        if shard.healthy and shard.current is None and shard.backlog:
            self._send_locked(shard, shard.backlog.popleft())
        self.metrics.gauge(f"shard_{shard.index}_inflight").set(shard.inflight)

    def _send_locked(self, shard: _Shard, pending: _Pending) -> None:
        shard.current = pending
        if pending.root is not None:
            dispatch = Span(
                "shard:dispatch", {"shard": shard.index, "attempt": pending.attempt}
            )
            dispatch.finish()
            pending.root.children.append(dispatch)
        # The worker is blocked in recv(), so even a payload larger than
        # the pipe buffer drains without waiting on this process.
        try:
            shard.conn.send_bytes(pending.payload)
        except OSError:
            pass  # the worker died; the I/O thread retries the request

    # -- the I/O thread -------------------------------------------------------

    def _io_loop(self) -> None:
        """Wait on every pipe and sentinel; handle results, readiness, deaths."""
        while True:
            with self._lock:
                live = [shard for shard in self._shards if shard.process is not None]
                if self._closed and not live:
                    return
            handles = {shard.conn: shard for shard in live}
            handles.update((shard.process.sentinel, shard) for shard in live)
            # The timeout only bounds how long close() waits when no
            # worker is left to wake this thread.
            ready = connection.wait(list(handles), timeout=1.0)
            # Pipes before sentinels: a result sent just before a death
            # is delivered rather than retried.
            ready.sort(key=lambda handle: isinstance(handle, int))
            dead: set[int] = set()
            for handle in ready:
                shard = handles[handle]
                if shard.index in dead:
                    continue  # both handles of one death fired
                if handle is shard.conn:
                    try:
                        self._on_message(shard, handle.recv())
                        continue
                    except (EOFError, OSError):
                        pass  # the worker died mid-message
                dead.add(shard.index)
                self._handle_death(shard)

    def _on_message(self, shard: _Shard, message: dict) -> None:
        pending = None
        with self._lock:
            if message["kind"] == "ready":
                shard.worker_pid = message["worker_pid"]
                shard.healthy = True
            else:
                pending, shard.current = shard.current, None
            self._pump_locked(shard)
        if pending is not None:  # None: close() already resolved it
            self._finish(shard, pending, message)

    def _finish(self, shard: _Shard, pending: _Pending, message: dict) -> None:
        attempts = max(int(message["attempts"]), pending.attempt)
        response = ForecastResponse(
            pending.request,
            output=message["output"],
            error=message["error"],
            cache_hit=message["cache_hit"],
            attempts=attempts,
            wall_seconds=message["wall_seconds"],
        )
        if pending.root is not None:
            collect = Span(
                "shard:collect",
                {"shard": shard.index, "worker_pid": shard.worker_pid,
                 "attempt": pending.attempt},
            )
            collect.finish()
            pending.root.children.append(collect)
            self._end_trace(pending, response)
        self.metrics.histogram("shard_request_seconds").observe(
            float(message["wall_seconds"])
        )
        record = message["record"]
        if record is not None and self.ledger is not None:
            record["shard"] = shard.index
            record["worker_pid"] = shard.worker_pid
            record["attempts"] = attempts
            self.ledger.append(record)
        pending.future.set_result(response)

    def _end_trace(self, pending: _Pending, response: ForecastResponse) -> None:
        pending.root.set_attribute("outcome", "ok" if response.ok else "failed")
        if response.error is not None:
            pending.root.set_attribute("error", response.error)
        pending.root.finish()
        self.tracer.collector.add(pending.root)
        response.trace = pending.root

    # -- health ---------------------------------------------------------------

    def _handle_death(self, shard: _Shard) -> None:
        """Restart a dead worker and retry the one request on its pipe.

        Its backlog was never sent, so it spends no attempt: it waits for
        the restarted worker, or moves on if no worker could be started.
        """
        exhausted = retry = None
        with self._lock:
            pending, shard.current = shard.current, None
            shard.healthy = False
            shard.conn.close()
            if self._closed:
                shard.process = None
                return
            shard.restarts += 1
            self.metrics.counter("shard_restarts").inc()
            if pending is not None:
                pending.failed_shards.add(shard.index)
                pending.attempt += 1
                if pending.attempt > self.max_attempts:
                    exhausted = pending
                else:
                    self.metrics.counter("shard_retries").inc()
                    retry = pending
            try:
                self._spawn(shard)
            except OSError:
                shard.process = None  # out of processes: routing skips it
                orphans, shard.backlog = shard.backlog, deque()
                for orphan in reversed(orphans):
                    self._route_locked(orphan, retry=True)
            if retry is not None:
                self._route_locked(retry, retry=True)
            self._pump_locked(shard)  # not ready yet: refreshes its gauge
        if exhausted is not None:
            attempts_tried = exhausted.attempt - 1  # the last increment never ran
            failure = ShardFailure(
                tuple(sorted(exhausted.failed_shards)), attempts_tried
            )
            self.metrics.counter("shard_failures").inc()
            self._resolve_failed(exhausted, str(failure), attempts_tried)

    def _resolve_failed(self, pending: _Pending, error: str, attempts: int) -> None:
        """Resolve a request no worker answered: response, trace, ledger."""
        response = ForecastResponse(pending.request, error=error, attempts=attempts)
        if pending.root is not None:
            self._end_trace(pending, response)
        if self.ledger is not None:
            self.ledger.append(_failure_record(pending, response))
        pending.future.set_result(response)

    def __repr__(self) -> str:
        with self._lock:
            healthy = sum(1 for shard in self._shards if shard.healthy)
            inflight = sum(shard.inflight for shard in self._shards)
        return (
            f"ShardedEngine(shards={self.num_shards}, healthy={healthy}, "
            f"inflight={inflight}, pid={os.getpid()})"
        )
