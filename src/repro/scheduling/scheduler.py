"""One shared decode loop for many concurrent forecast requests.

:class:`~repro.llm.batch.BatchedDecoder` advances the S sample streams of
*one* request in lockstep; :class:`ContinuousScheduler` generalises that
loop across requests, the way iteration-level schedulers (Orca, vLLM) run
a serving fleet: every resident request contributes its live groups to one
global step, new requests are admitted *between* iterations — they never
wait for a resident batch to drain — and requests retire stream by stream
the moment their budgets are met.

Bit-identity with per-request ``execution="batched"`` falls out of three
substrate facts:

* each stream samples from its **own** seed-derived generator, and the
  scheduler consumes each stream's RNG in exactly the per-step order the
  single-request decoder would (retire → stop poll → score → sample);
* model state is a pure function of (prompt + generated tokens), so
  scoring a request's groups alongside a stranger's groups cannot change
  any row — :meth:`~repro.llm.interface.LanguageModel.
  next_distribution_batch` guarantees row *i* is bit-identical to
  ``models[i].next_distribution()``;
* the step is the one :class:`~repro.llm.batch.BatchedDecoder` runs
  (:func:`~repro.llm.batch.decode_step`), which filters and draws each
  row from that row and its request's own sampling settings alone.

The ``sched_equivalence`` fuzz family and ``tests/test_scheduling.py``
pin this equivalence across random interleavings.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import GenerationError
from repro.llm.constraints import Constraint
from repro.llm.batch import BatchedDecoder, decode_step, stream_budgets
from repro.llm.interface import GenerationResult
from repro.llm.simulated import SimulatedLLM
from repro.observability.spans import NULL_TRACER
from repro.scheduling.radix import RadixPrefillTree

__all__ = ["ContinuousScheduler", "ScheduledDecode"]


class ScheduledDecode:
    """Caller-facing handle for one request resident in the scheduler.

    Returned by :meth:`ContinuousScheduler.submit`; the caller blocks on
    :meth:`result` (or polls :meth:`done`) while the shared loop decodes.
    After completion the handle carries the same telemetry a
    :class:`~repro.llm.batch.BatchedDecoder` would: ``results`` (stream
    order; ``None`` for streams abandoned by an early ``stop``),
    ``occupancy`` and ``group_counts`` (this request's live streams /
    distinct model states per step *it* was resident), ``steps`` and
    ``stopped`` — plus the scheduling outcomes ``queue_wait_seconds``,
    ``ingest`` and ``ingested_tokens``.
    """

    def __init__(self, decoder: BatchedDecoder, ingest: str, ingested_tokens: int) -> None:
        self.batch_width = decoder.batch_width
        self.results = decoder.results
        self.occupancy = decoder.occupancy
        self.group_counts = decoder.group_counts
        self.steps = 0
        self.stopped = False
        self.queue_wait_seconds = 0.0
        self.ingest = ingest
        self.ingested_tokens = ingested_tokens
        self._event = threading.Event()
        self._error: BaseException | None = None

    def done(self) -> bool:
        """True once every stream has retired (or the request failed)."""
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> list[GenerationResult | None]:
        """Block until the request retires; return per-stream results.

        Re-raises the scheduler loop's exception if this request failed;
        raises :class:`TimeoutError` if ``timeout`` elapses first.
        """
        if not self._event.wait(timeout):
            raise TimeoutError("scheduled decode did not finish in time")
        if self._error is not None:
            raise self._error
        return self.results


@dataclass(slots=True, eq=False)
class _Job:
    """Scheduler-internal state for one resident request."""

    handle: ScheduledDecode
    decoder: BatchedDecoder
    stop: Callable[[], bool] | None
    pin: object
    enqueued_at: float = field(default_factory=time.monotonic)


class ContinuousScheduler:
    """Global iteration-level scheduler shared by concurrent requests.

    Parameters
    ----------
    max_resident_streams:
        Admission cap: total live streams across resident requests.  A
        request queues (FIFO) until it fits; to guarantee progress, the
        queue head is always admitted when nothing is resident, even if
        wider than the cap.
    prefill_tree:
        Optional :class:`~repro.scheduling.RadixPrefillTree` deduplicating
        prompt ingest across requests; nodes a resident request forked
        from stay pinned against eviction until it retires.
    metrics:
        Optional :class:`~repro.serving.metrics.MetricsRegistry` receiving
        ``sched_*`` counters, gauges, and histograms.
    tracer:
        Optional tracer; the loop emits one ``llm:sched_step`` span per
        shared iteration (resident request/stream/group counts).

    The loop thread starts lazily on the first :meth:`submit` and runs as
    a daemon; :meth:`close` drains pending and resident work, then joins.
    """

    def __init__(
        self,
        max_resident_streams: int = 64,
        prefill_tree: RadixPrefillTree | None = None,
        metrics=None,
        tracer=None,
    ) -> None:
        if max_resident_streams < 1:
            raise GenerationError(
                f"max_resident_streams must be >= 1, got {max_resident_streams}"
            )
        self.max_resident_streams = max_resident_streams
        self.prefill_tree = prefill_tree
        self._metrics = metrics
        self._tracer = NULL_TRACER if tracer is None else tracer
        self._cond = threading.Condition()
        self._pending: list[_Job] = []
        self._resident: list[_Job] = []
        self._thread: threading.Thread | None = None
        self._closed = False
        self._admitted = 0
        self._completed = 0
        self._steps = 0

    # ------------------------------------------------------------------
    # submission (caller threads)
    # ------------------------------------------------------------------

    def submit(
        self,
        llm: SimulatedLLM,
        context: Sequence[int],
        max_new_tokens: int | Sequence[int],
        rngs: Sequence[np.random.Generator],
        constraint: Constraint | None = None,
        temperature: float | None = None,
        tracer=None,
        stop: Callable[[], bool] | None = None,
    ) -> ScheduledDecode:
        """Join the shared loop with one request's stream ensemble.

        Mirrors :meth:`~repro.llm.simulated.SimulatedLLM.generate_batch`:
        prompt ingest happens here on the caller's thread (through the
        radix tree when one is attached, depositing checkpoints and
        emitting the same ``llm:ingest`` span shape), then the streams are
        enqueued and decoded by the loop thread.  Under the same RNGs the
        returned results are bit-identical to a standalone
        ``generate_batch`` call.  ``stop`` is polled between shared steps
        from the loop thread, so it must be thread-safe (deadlines are).
        """
        budgets = stream_budgets(rngs, max_new_tokens)
        tracer = self._tracer if tracer is None else tracer
        prompt = tuple(int(t) for t in context)
        pin = None
        if self.prefill_tree is not None and self.prefill_tree.enabled:
            with tracer.span(
                "llm:ingest", context_tokens=len(prompt), ingest="radix"
            ) as span:
                pin = self.prefill_tree.prefill(
                    llm.name,
                    llm.vocab_size,
                    prompt,
                    lambda: llm.spec.factory(llm.vocab_size),
                    pin=True,
                )
                if span.is_recording:
                    span.set_attribute("ingest", pin.outcome)
                    span.set_attribute("ingested_tokens", pin.ingested)
            llm._sleep(pin.ingested, 0)
            model, ingest, ingested = pin.model, pin.outcome, pin.ingested
        else:
            session = llm.prefill(prompt, tracer=tracer)
            model, ingest, ingested = (
                session.model,
                session.outcome,
                session.ingested_tokens,
            )
        # The decoder forks the frozen prefill state once — the tree (or
        # cache) keeps the shared original.
        decoder = BatchedDecoder(
            model,
            rngs,
            budgets,
            constraint=constraint,
            temperature=llm.spec.temperature if temperature is None else temperature,
            top_p=llm.spec.top_p,
        )
        handle = ScheduledDecode(decoder, ingest=ingest, ingested_tokens=ingested)
        job = _Job(handle=handle, decoder=decoder, stop=stop, pin=pin)
        if self._metrics is not None:
            self._metrics.counter("sched_requests_total").inc()
        with self._cond:
            if self._closed:
                raise GenerationError("scheduler is closed")
            self._pending.append(job)
            if self._metrics is not None:
                self._metrics.gauge("sched_queue_depth").set(len(self._pending))
            self._ensure_thread()
            self._cond.notify_all()
        return handle

    def _ensure_thread(self) -> None:
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="continuous-scheduler", daemon=True
            )
            self._thread.start()

    # ------------------------------------------------------------------
    # the shared loop (scheduler thread)
    # ------------------------------------------------------------------

    def _admit_locked(self) -> None:
        """Admit queued jobs FIFO while they fit under the stream cap."""
        resident_streams = sum(job.decoder.width for job in self._resident)
        while self._pending:
            job = self._pending[0]
            width = job.handle.batch_width
            if self._resident and resident_streams + width > self.max_resident_streams:
                break
            self._pending.pop(0)
            job.handle.queue_wait_seconds = time.monotonic() - job.enqueued_at
            self._resident.append(job)
            resident_streams += width
            self._admitted += 1
            if self._metrics is not None:
                self._metrics.histogram("sched_queue_wait_seconds").observe(
                    job.handle.queue_wait_seconds
                )
        if self._metrics is not None:
            self._metrics.gauge("sched_queue_depth").set(len(self._pending))
            self._metrics.gauge("sched_resident_requests").set(len(self._resident))
            self._metrics.gauge("sched_resident_streams").set(resident_streams)

    def _finalize_locked(self, job: _Job, error: BaseException | None = None) -> None:
        """Retire a job: record telemetry, release its pin, wake its caller."""
        handle = job.handle
        if handle._event.is_set():
            return
        handle.steps = len(handle.occupancy)
        handle.stopped = job.decoder.stopped
        handle._error = error
        if job in self._resident:
            self._resident.remove(job)
        if job.pin is not None and self.prefill_tree is not None:
            self.prefill_tree.release(job.pin)
            job.pin = None
        self._completed += 1
        if self._metrics is not None:
            self._metrics.counter("sched_requests_completed").inc()
            self._metrics.gauge("sched_resident_requests").set(len(self._resident))
            self._metrics.gauge("sched_resident_streams").set(
                sum(item.decoder.width for item in self._resident)
            )
        handle._event.set()
        self._cond.notify_all()

    def _run(self) -> None:
        while True:
            with self._cond:
                self._admit_locked()
                while not self._resident:
                    if self._closed and not self._pending:
                        return
                    self._cond.wait()
                    self._admit_locked()
                jobs = list(self._resident)
            try:
                self._step(jobs)
            except BaseException as exc:  # fail resident jobs, keep serving
                with self._cond:
                    for job in jobs:
                        self._finalize_locked(job, error=exc)

    def _step(self, jobs: list[_Job]) -> None:
        """One shared iteration over every resident job.

        Per job the step performs *exactly* the single-request decoder's
        sequence — retire streams at budget, poll ``stop``, record
        occupancy, then one shared :func:`~repro.llm.batch.decode_step`
        over every job's groups (score, draw per stream with its own RNG,
        partition groups by token) — so each job's RNG consumption and
        model trajectory are independent of who else is resident.
        """
        live_jobs: list[_Job] = []
        for job in jobs:
            if job.decoder.begin_step(job.stop):
                live_jobs.append(job)
            else:
                with self._cond:
                    self._finalize_locked(job)
        if not live_jobs:
            return
        decoders = [job.decoder for job in live_jobs]
        with self._tracer.span("llm:sched_step") as span:
            if span.is_recording:
                span.set_attribute("resident_requests", len(decoders))
                span.set_attribute(
                    "resident_streams", sum(decoder.width for decoder in decoders)
                )
                span.set_attribute(
                    "groups", sum(len(decoder.groups) for decoder in decoders)
                )
            decode_step(decoders)
        self._steps += 1
        if self._metrics is not None:
            self._metrics.histogram("sched_step_occupancy").observe(
                sum(decoder.width for decoder in decoders)
            )
            self._metrics.histogram("sched_step_groups").observe(
                sum(len(decoder.groups) for decoder in decoders)
            )

    # ------------------------------------------------------------------
    # lifecycle / introspection
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drain pending and resident requests, then stop the loop thread."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            thread = self._thread
        if thread is not None:
            while True:
                with self._cond:
                    if not self._pending and not self._resident:
                        break
                    self._cond.wait(timeout=0.1)
            thread.join(timeout=10.0)

    @property
    def stats(self) -> dict:
        """Queue/residency/throughput accounting for snapshots and tests."""
        with self._cond:
            return {
                "resident_requests": len(self._resident),
                "resident_streams": sum(job.decoder.width for job in self._resident),
                "queue_depth": len(self._pending),
                "admitted": self._admitted,
                "completed": self._completed,
                "steps": self._steps,
                "max_resident_streams": self.max_resident_streams,
            }

    def __repr__(self) -> str:
        stats = self.stats
        return (
            f"ContinuousScheduler(resident={stats['resident_requests']}, "
            f"queued={stats['queue_depth']}, steps={stats['steps']}, "
            f"max_resident_streams={self.max_resident_streams})"
        )
