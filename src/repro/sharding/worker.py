"""The decode worker process: one full serving engine per shard.

Each shard of a :class:`~repro.sharding.engine.ShardedEngine` is a
separate OS process running :func:`worker_main` — a plain module-level
function so the ``spawn`` start method (the safe default in a process
that also runs supervisor threads) can import and launch it.  A worker
owns a complete single-process stack: its own
:class:`~repro.serving.engine.ForecastEngine` (result cache,
:class:`~repro.scheduling.ContinuousScheduler`, radix prefill tree) over
its own :class:`~repro.llm.state_cache.IngestStateCache`,
backed by the *shared* :class:`~repro.sharding.SpillStore` directory so
prefill state evicted here outlives this process and can warm any other
shard.

Protocol (all messages are plain picklable dicts, over one duplex pipe
per shard):

* outbound ``{"kind": "ready", "worker_pid"}`` — sent once after the
  engine is built (the supervisor uses it to mark the shard healthy);
* inbound ``{"kind": "request", "request", "ledger_extra"}`` — serve one
  :class:`~repro.serving.request.ForecastRequest`;
* outbound ``{"kind": "result", ...}`` — the reply to that request: the
  response fields plus the worker-side ledger record when the
  supervisor has a ledger (it enriches the record with
  ``shard``/``worker_pid`` and appends it, so one process writes the
  ledger file);
* inbound ``{"kind": "stop"}`` — close the engine, exit 0.

The supervisor sends a request only to a worker waiting in ``recv``,
one at a time, and the worker writes only in reply, so neither side
can block the other on a full pipe buffer.  A shard is a serial decode
loop (each request's ensemble decodes in lockstep).

Workers run the null tracer — span trees are process-local object graphs
that do not cross a pickle boundary; the supervisor contributes
``shard:dispatch`` / ``shard:collect`` spans instead.  Outputs are
bit-identical either way.
"""

from __future__ import annotations

import os
import time

from repro.observability.ledger import RunLedger
from repro.serving.request import ForecastResponse

__all__ = ["worker_main"]


class _CollectingLedger(RunLedger):
    """A RunLedger that keeps records in memory instead of writing JSONL.

    The worker's engine appends one record per served request; the loop
    ships it to the supervisor, which owns the real ledger file (a single
    writer, enriched with shard identity).
    """

    def __init__(self) -> None:
        super().__init__(path=os.devnull)
        self.records: list[dict] = []

    def append(self, record: dict) -> None:
        """Keep the record for the loop to ship (nothing touches disk)."""
        self.records.append(record)


def _build_engine(options: dict):
    """Construct the worker's private serving stack from picklable options."""
    from repro.llm.state_cache import IngestStateCache
    from repro.serving.cache import ForecastCache
    from repro.serving.engine import ForecastEngine
    from repro.sharding.spill import SpillStore

    spill = None
    if options.get("spill_dir"):
        spill = SpillStore(
            options["spill_dir"],
            max_tokens=int(options.get("spill_max_tokens", 1_048_576)),
        )
    # A record costs a full metrics snapshot: build none nobody reads.
    ledger = _CollectingLedger() if options.get("ledger", True) else None
    engine = ForecastEngine(
        cache=ForecastCache(max_entries=int(options.get("result_cache_entries", 128))),
        ingest_cache=IngestStateCache(
            max_tokens=int(options.get("ingest_cache_tokens", 262_144)),
            spill=spill,
        ),
        max_resident_streams=int(options.get("max_resident_streams", 64)),
        ledger=ledger,
    )
    return engine, ledger


def worker_main(options: dict, conn) -> None:
    """Entry point of one decode worker process.

    ``conn`` is this worker's end of its shard's duplex pipe.
    ``options`` carries the engine knobs (see :func:`_build_engine`) plus
    ``chaos_delay_seconds`` — a deliberate pre-serve sleep used by
    crash-recovery tests to hold a request in-flight long enough to kill
    the process deterministically.
    """
    engine, ledger = _build_engine(options)
    chaos_delay = float(options.get("chaos_delay_seconds", 0.0))
    try:
        conn.send({"kind": "ready", "worker_pid": os.getpid()})
        while True:
            message = conn.recv()
            if message["kind"] == "stop":
                break
            if chaos_delay > 0.0:
                time.sleep(chaos_delay)
            try:
                response = engine.forecast(
                    message["request"], ledger_extra=message["ledger_extra"]
                )
            except Exception as error:  # noqa: BLE001 - shipped, not raised
                # The engine converts expected failures into error
                # responses; anything that still escapes must not kill the
                # worker loop — report it as a failed response instead.
                response = ForecastResponse(
                    message["request"], error=f"worker error: {error}"
                )
            record = ledger.records.pop() if ledger and ledger.records else None
            conn.send(
                {
                    "kind": "result",
                    "output": response.output,
                    "error": response.error,
                    "cache_hit": response.cache_hit,
                    "partial": response.partial,
                    "attempts": response.attempts,
                    "wall_seconds": response.wall_seconds,
                    "record": record,
                }
            )
    except (EOFError, OSError):
        pass  # the supervisor is gone: nobody is left to serve
    finally:
        engine.close()
