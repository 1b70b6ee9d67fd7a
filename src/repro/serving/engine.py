"""The concurrent forecast engine.

The engine turns :class:`MultiCastForecaster` — a single-threaded library
object — into a service: requests are accepted concurrently on a small
request pool, and each request's ``num_samples`` independent constrained
continuations (the paper medians i.i.d. draws, LLMTime-style) decode in
lockstep through the request's own :class:`~repro.llm.batch.BatchedDecoder`
pass, prefilled from the engine's shared
:class:`~repro.llm.state_cache.IngestStateCache` so repeated and extended
histories reuse prompt ingest.  The serving policies (result cache,
deadline, retry) wrap the pipeline without touching its numerics: the
deadline is polled between decode steps, and a transient
:class:`~repro.exceptions.GenerationError` re-runs the whole forecast
under the retry policy.

Determinism is preserved end to end: the forecaster derives one child seed
per sample up front and every stream samples from its own
``numpy.random.Generator`` built from that seed, so an engine forecast —
first attempt or retry — is bit-identical to a direct
``MultiCastForecaster.forecast`` under the same seed (a property the test
suite asserts).

Observability is opt-in and zero-cost when off: pass a
:class:`~repro.observability.Tracer` to get one ``request`` span per served
forecast (the pipeline's ``forecast``/``stage:*``/``llm:*`` spans nest
beneath it, one ``forecast`` span per attempt), and a
:class:`~repro.observability.RunLedger` to append one JSONL record per
forecast — config hash, seed, outcome ``ok|failed``, latency,
token counts, span tree — for post-hoc analysis with
``repro-multicast ledger summarize``.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from concurrent.futures import Future, ThreadPoolExecutor

from repro.core.forecaster import MultiCastForecaster
from repro.core.spec import ForecastSpec
from repro.exceptions import ConfigError, ReproError
from repro.llm.state_cache import IngestStateCache
from repro.observability.ledger import RunLedger
from repro.observability.spans import NULL_TRACER, Span
from repro.serving.cache import ForecastCache, forecast_digest
from repro.serving.metrics import MetricsRegistry
from repro.serving.policy import Deadline, RetryPolicy
from repro.serving.request import ForecastRequest, ForecastResponse

__all__ = ["ForecastEngine"]


def _outcome(response: ForecastResponse) -> str:
    """Terminal state of a served request: ``ok`` or ``failed``."""
    return "ok" if response.ok else "failed"


class ForecastEngine:
    """Thread-pooled forecast service over the MultiCast pipeline.

    Parameters
    ----------
    cache:
        Result cache; defaults to a 128-entry LRU.  Pass
        ``ForecastCache(max_entries=0)`` to disable caching entirely.
    ingest_cache:
        Shared :class:`~repro.llm.state_cache.IngestStateCache` reusing
        prompt-ingest state across requests: repeated prompts fork a cached
        prefill, extended histories (rolling windows) advance only the new
        suffix.  Defaults to an enabled cache; pass
        ``IngestStateCache(max_tokens=0)`` to disable.  Unlike the result
        cache it never short-circuits sampling, so it also accelerates
        requests with different seeds over the same prompt.
    retry:
        Request-level retry policy: a forecast that fails with a transient
        :class:`~repro.exceptions.GenerationError` is re-run from scratch
        under the same seed, so a retried request is bit-identical to one
        that succeeded first time.
    metrics:
        Metrics registry; defaults to a fresh private one, exposed as
        ``engine.metrics``.
    max_concurrent_requests:
        Request-orchestration pool size used by :meth:`submit` /
        :meth:`forecast_batch`.
    tracer:
        Optional :class:`~repro.observability.Tracer`; defaults to the
        no-op tracer (zero overhead, bit-identical results).  When set,
        every request's span tree is attached to its response as
        ``response.trace``.
    ledger:
        Optional :class:`~repro.observability.RunLedger` (or a path,
        coerced to one); when set, one JSONL record is appended per served
        request — including cache hits and failures.

    Example
    -------
    >>> from repro.serving import ForecastEngine, ForecastRequest
    >>> with ForecastEngine() as engine:
    ...     response = engine.forecast(ForecastRequest(history, horizon=8))
    """

    def __init__(
        self,
        *,
        cache: ForecastCache | None = None,
        ingest_cache: IngestStateCache | None = None,
        retry: RetryPolicy | None = None,
        metrics: MetricsRegistry | None = None,
        max_concurrent_requests: int = 2,
        tracer=None,
        ledger: RunLedger | str | None = None,
        sleep=time.sleep,
    ) -> None:
        if max_concurrent_requests < 1:
            raise ConfigError(
                f"max_concurrent_requests must be >= 1, "
                f"got {max_concurrent_requests}"
            )
        self.cache = ForecastCache() if cache is None else cache
        self.ingest_cache = (
            IngestStateCache() if ingest_cache is None else ingest_cache
        )
        self.retry = retry or RetryPolicy()
        self.metrics = metrics or MetricsRegistry()
        self.tracer = NULL_TRACER if tracer is None else tracer
        if ledger is None or isinstance(ledger, RunLedger):
            self.ledger = ledger
        else:
            self.ledger = RunLedger(ledger)
        self._sleep = sleep
        self._requests = ThreadPoolExecutor(
            max_workers=max_concurrent_requests, thread_name_prefix="mc-request"
        )
        self._closed = False

    # -- public API -----------------------------------------------------------

    def forecast(
        self,
        request: ForecastRequest | ForecastSpec,
        *,
        ledger_extra: dict | None = None,
    ) -> ForecastResponse:
        """Serve one request on the calling thread.

        Accepts a :class:`ForecastRequest` or, directly, an executable
        :class:`~repro.core.spec.ForecastSpec` (wrapped via
        :meth:`ForecastRequest.from_spec` with default serving options).

        ``ledger_extra`` carries admission metadata (``tenant``,
        ``admission``, ``enqueued_at``) from the gateway into the request
        span and ledger record; it does not affect the forecast.
        """
        self._check_open()
        return self._execute(self._coerce(request), ledger_extra)

    def submit(
        self,
        request: ForecastRequest | ForecastSpec,
        *,
        ledger_extra: dict | None = None,
    ) -> Future:
        """Enqueue a request (or spec); returns a Future of :class:`ForecastResponse`.

        Accepts the same ``ledger_extra`` hook as :meth:`forecast`.
        """
        self._check_open()
        return self._requests.submit(
            self._execute, self._coerce(request), ledger_extra
        )

    @staticmethod
    def _coerce(request: ForecastRequest | ForecastSpec) -> ForecastRequest:
        if isinstance(request, ForecastSpec):
            return ForecastRequest.from_spec(request)
        return request

    def forecast_batch(
        self, requests: Iterable[ForecastRequest | ForecastSpec]
    ) -> list[ForecastResponse]:
        """Serve many requests concurrently; responses in request order.

        Never raises for an individual request — failures come back as
        error responses, so one bad series cannot sink a batch.
        """
        futures = [self.submit(request) for request in requests]
        return [future.result() for future in futures]

    def metrics_snapshot(self) -> dict:
        """Current metrics, including live result- and ingest-cache statistics."""
        snapshot = self.metrics.snapshot()
        snapshot["cache"] = {"type": "cache", **self.cache.stats}
        snapshot["ingest_cache"] = {"type": "cache", **self.ingest_cache.stats}
        return snapshot

    def close(self) -> None:
        """Shut the request pool down; in-flight work completes first."""
        if not self._closed:
            self._closed = True
            self._requests.shutdown(wait=True)

    def __enter__(self) -> ForecastEngine:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request execution ----------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigError("engine is closed")

    def _execute(
        self,
        request: ForecastRequest,
        ledger_extra: dict | None = None,
    ) -> ForecastResponse:
        admission = dict(ledger_extra) if ledger_extra else {}
        enqueued_at = admission.pop("enqueued_at", None)
        if enqueued_at is not None:
            queue_wait = time.perf_counter() - enqueued_at
            admission["gateway_queue_wait_seconds"] = queue_wait
            self.metrics.histogram("gateway_queue_wait_seconds").observe(
                queue_wait
            )
        key = forecast_digest(
            request.history, request.config, request.horizon, request.seed
        )
        with self.tracer.span(
            "request",
            request_name=request.name or "",
            scheme=request.config.scheme,
            horizon=int(request.horizon),
            seed=int(request.effective_seed),
        ) as span:
            if span.is_recording:
                if request.tenant:
                    span.set_attribute("tenant", request.tenant)
                if "admission" in admission:
                    span.set_attribute("admission", admission["admission"])
                if "gateway_queue_wait_seconds" in admission:
                    span.set_attribute(
                        "queue_wait",
                        round(admission["gateway_queue_wait_seconds"], 9),
                    )
            response = self._serve(request, key, span)
            if span.is_recording:
                span.set_attribute("cache_hit", response.cache_hit)
                span.set_attribute("outcome", _outcome(response))
                span.set_attribute("attempts", response.attempts)
                response.trace = span
        if self.ledger is not None:
            self.ledger.append(
                self._ledger_record(request, response, key, span, admission)
            )
        return response

    def _serve(
        self, request: ForecastRequest, key: str, span: Span
    ) -> ForecastResponse:
        started = time.perf_counter()
        self.metrics.counter("requests_total").inc()

        if request.use_cache and self.cache.enabled:
            cached = self.cache.get(key)
            if cached is not None:
                wall = time.perf_counter() - started
                self.metrics.counter("cache_hits").inc()
                self.metrics.histogram("request_seconds").observe(wall)
                return ForecastResponse(
                    request, output=cached, cache_hit=True, wall_seconds=wall
                )
            self.metrics.counter("cache_misses").inc()

        deadline = Deadline(request.deadline_seconds)
        forecaster = MultiCastForecaster(
            request.config,
            tracer=self.tracer,
            state_cache=self.ingest_cache,
            stop=lambda: deadline.expired,
        )
        spec = ForecastSpec.from_config(
            request.config,
            series=request.history,
            horizon=request.horizon,
            seed=request.effective_seed,
        )
        attempts = 0

        def attempt():
            nonlocal attempts
            attempts += 1
            return forecaster.forecast(spec)

        self.metrics.gauge("inflight_requests").add(1)
        try:
            output, _ = self.retry.run(
                attempt,
                deadline=deadline,
                sleep=self._sleep,
                on_retry=lambda *_: self.metrics.counter("request_retries").inc(),
            )
        except ReproError as error:
            wall = time.perf_counter() - started
            message = str(error)
            if deadline.expired:
                self.metrics.counter("requests_deadline_exceeded").inc()
                message = (
                    f"deadline of {request.deadline_seconds}s exceeded "
                    f"({message})"
                )
            self.metrics.counter("requests_failed").inc()
            if span.is_recording:
                span.set_attribute("deadline_remaining", deadline.remaining())
                span.set_attribute("error", message)
            return ForecastResponse(
                request,
                error=message,
                attempts=max(1, attempts),
                wall_seconds=wall,
            )
        finally:
            self.metrics.gauge("inflight_requests").add(-1)

        wall = time.perf_counter() - started
        ingest = output.metadata.get("ingest")
        if ingest == "fork":
            self.metrics.counter("ingest_cache_hits").inc()
        elif ingest == "extend":
            self.metrics.counter("ingest_cache_extends").inc()
        elif ingest == "miss":
            self.metrics.counter("ingest_cache_misses").inc()
        if span.is_recording and ingest is not None:
            span.set_attribute("ingest", ingest)
        for occupancy in output.metadata.get("batch_occupancy", ()):
            self.metrics.histogram("decode_batch_occupancy").observe(occupancy)
        if request.use_cache:
            self.cache.put(key, output)

        self.metrics.histogram("request_seconds").observe(wall)
        for stage, seconds in output.timings.items():
            self.metrics.histogram(f"stage_{stage}_seconds").observe(seconds)

        if span.is_recording:
            span.set_attribute("deadline_remaining", deadline.remaining())
        return ForecastResponse(
            request,
            output=output,
            attempts=attempts,
            wall_seconds=wall,
        )

    def _ledger_record(
        self,
        request: ForecastRequest,
        response: ForecastResponse,
        key: str,
        span: Span,
        admission: dict | None = None,
    ) -> dict:
        """One self-contained JSONL record for the run ledger.

        The ``metrics`` field holds every counter's value at record time
        (request totals, cache hits, failures) — enough to cross-check a
        ``ledger summarize`` report against a ``--metrics-out`` dump.  It
        reads the counters alone, so no histogram window is copied or
        sorted per request.
        ``admission`` carries the gateway's outcome and queue wait when the
        request arrived through one (``admission="direct"`` otherwise).
        """
        output = response.output
        admission = admission or {}
        gateway_wait = admission.get("gateway_queue_wait_seconds")
        record = {
            "unix_time": round(time.time(), 3),
            "name": request.name,
            "tenant": request.tenant,
            "admission": admission.get("admission", "direct"),
            "gateway_queue_wait_seconds": (
                round(gateway_wait, 9) if gateway_wait is not None else None
            ),
            "outcome": _outcome(response),
            "config_hash": key,
            "seed": int(request.effective_seed),
            "scheme": request.config.scheme,
            "sax": request.config.sax is not None,
            "model": request.config.model,
            "horizon": int(request.horizon),
            "strategy": (
                output.metadata.get("strategy", request.config.strategy)
                if output
                else request.config.strategy
            ),
            "cache_hit": response.cache_hit,
            "attempts": response.attempts,
            "error": response.error,
            "wall_seconds": round(response.wall_seconds, 9),
            "prompt_tokens": output.prompt_tokens if output else 0,
            "generated_tokens": output.generated_tokens if output else 0,
            "ingest": output.metadata.get("ingest") if output else None,
            "timings": (
                {k: round(v, 9) for k, v in output.timings.items()}
                if output
                else {}
            ),
            "spans": span.to_dict() if span.is_recording else None,
            "metrics": self.metrics.counter_values(),
        }
        return record
