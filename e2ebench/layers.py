"""Turn one run's samples, spans, ledger records and snapshots into metrics.

End-to-end metrics aggregate the whole untraced timed phase.  Per-layer
metrics come from the traced phase and are measured from outside:

* timers the load generator put around ``gateway.submit`` and the result;
* ``ForecastOutput.timings`` / ``metadata`` / token counts;
* spans from the ``tracer=`` parameter (in-process engines only: shard
  workers run the null tracer) and records from the ``ledger=`` parameter;
* ``metrics_snapshot()`` counters.

Count metrics (tokens, reuse, occupancy, bytes, dispatch balance) cover
the first ``count_window`` requests of the phase, which every run sends
and which are a pure function of the seed, so they repeat exactly.
"""

from __future__ import annotations

import pickle
import statistics

import numpy as np

#: Span names whose self time is decode work.
DECODE_SPANS = ("llm:decode_batch", "llm:sched_step")
INGEST_SPAN = "llm:ingest"
CORE_STAGES = ("scale", "multiplex", "demultiplex", "aggregate")


def quantile_ms(values, q: float) -> float:
    """The ``q`` quantile of ``values`` (seconds), in ms."""
    return float(np.quantile(np.asarray(values, dtype=float), q)) * 1e3


def end_to_end(phase) -> dict:
    """Throughput, latency and success of one untraced phase."""
    ok = [sample for sample in phase.samples if sample.ok]
    latencies = [sample.latency_seconds for sample in ok]
    return {
        "throughput_rps": len(ok) / phase.wall_seconds,
        "latency_p50_ms": quantile_ms(latencies, 0.5),
        "latency_p90_ms": quantile_ms(latencies, 0.9),
        "success_rate": len(ok) / phase.attempted,
    }


def count_metrics(phase, count_window: int) -> dict:
    """Exact per-request work counts over the first ``count_window`` requests."""
    by_index = phase.by_index()
    responses = [by_index[index].response for index in range(count_window)]
    outputs = [response.output for response in responses]
    prompt = sum(output.prompt_tokens for output in outputs)
    ingested = sum(output.metadata["ingested_tokens"] for output in outputs)
    generated = sum(output.generated_tokens for output in outputs)
    occupancy = [
        width for output in outputs for width in output.metadata["batch_occupancy"]
    ]
    groups = sum(
        count for output in outputs for count in output.metadata["batch_groups"]
    )
    transferred = sum(
        len(pickle.dumps(response.request)) + len(pickle.dumps(response.output))
        for response in responses
    )
    return {
        "llm.prefix_reuse_ratio": 1.0 - ingested / prompt,
        "llm.ingested_tokens_per_request": ingested / count_window,
        "llm.generated_tokens_per_request": generated / count_window,
        "llm.batch_occupancy_mean": sum(occupancy) / len(occupancy),
        "llm.groups_per_stream": groups / sum(occupancy),
        "core.prompt_tokens_per_request": prompt / count_window,
        "sharding.bytes_per_request": transferred / count_window,
    }


def self_seconds(span) -> float:
    """A span's duration minus the part of it its children cover."""
    intervals = sorted(
        (max(child.start_time, span.start_time), min(child.end_time, span.end_time))
        for child in span.children
        if child.end_time is not None
    )
    covered = 0.0
    cursor = span.start_time
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return span.duration - covered


def span_self_seconds(traces, names) -> float:
    """Summed self time of every span named in ``names`` across ``traces``."""
    return sum(
        self_seconds(span)
        for trace in traces
        for span in trace.walk()
        if span.name in names
    )


def per_layer(traced, untraced, *, sharded, ledger_records, snapshot,
              count_window, dispatched) -> tuple[dict, dict]:
    """Per-layer metrics of the traced phase, plus notes for the detail line."""
    notes = {}
    ok = [sample for sample in traced.samples if sample.ok]
    responses = [sample.response for sample in ok]
    outputs = [response.output for response in responses]
    metrics = {}

    # gateway
    metrics["gateway.submit_ms_p50"] = quantile_ms(
        [sample.submit_seconds for sample in ok], 0.5
    )
    names = {sample.response.request.name for sample in ok}
    waits = {
        record["name"]: record["gateway_queue_wait_seconds"]
        for record in ledger_records
        if record["name"] in names
    }
    if len(waits) != len(names) or None in waits.values():
        raise RuntimeError("ledger lacks a queue wait for some served request")
    metrics["gateway.queue_wait_ms_p50"] = quantile_ms(list(waits.values()), 0.5)
    metrics["gateway.shed_total"] = counter(snapshot, "gateway_shed_total")
    metrics["gateway.coalesced_total"] = counter(snapshot, "gateway_coalesced_total")

    # serving
    metrics["serving.overhead_ms_p50"] = quantile_ms(
        [response.wall_seconds - response.output.wall_seconds for response in responses],
        0.5,
    )
    metrics["serving.result_cache_hit_ratio"] = result_cache_hit_ratio(
        traced, snapshot
    )

    # sharding (in-process, one "shard": everything between the client and
    # the engine's own timer, such as the gateway hop and thread hand-offs)
    metrics["sharding.transit_ms_p50"] = quantile_ms(
        [
            sample.latency_seconds
            - waits[sample.response.request.name]
            - sample.response.wall_seconds
            for sample in ok
        ],
        0.5,
    )
    notes["sharding.bytes_per_request"] = (
        "computed: pickled request plus pickled ForecastOutput"
    )
    metrics["sharding.dispatch_imbalance"] = (
        max(dispatched) / statistics.mean(dispatched) if sharded else 1.0
    )
    if not sharded:
        notes["sharding.dispatch_imbalance"] = "in-process: one serving process"

    # scheduling
    queue_waits = [
        output.metadata["queue_wait_seconds"]
        for output in outputs
        if "queue_wait_seconds" in output.metadata
    ]
    if queue_waits:
        metrics["scheduling.queue_wait_ms_p50"] = quantile_ms(queue_waits, 0.5)
    else:
        metrics["scheduling.queue_wait_ms_p50"] = 0.0
        notes["scheduling.queue_wait_ms_p50"] = (
            "not applicable: the default decode path bypasses the scheduler"
        )

    # llm
    generated = sum(output.generated_tokens for output in outputs)
    if sharded:
        decode_seconds = sum(output.timings["generate"] for output in outputs)
        ingest_seconds = 0.0
        notes["llm.decode_ms_per_request"] = (
            "shard workers run the null tracer: generate stage time, ingest included"
        )
        notes["llm.ingest_ms_per_request"] = (
            "not separable from outside a shard worker; reported as 0"
        )
    else:
        traces = [response.trace for response in responses]
        if any(trace is None for trace in traces):
            raise RuntimeError("traced phase returned a response without a trace")
        decode_seconds = span_self_seconds(traces, DECODE_SPANS)
        ingest_seconds = span_self_seconds(traces, (INGEST_SPAN,))
    metrics["llm.ingest_ms_per_request"] = ingest_seconds * 1e3 / len(outputs)
    metrics["llm.decode_ms_per_request"] = decode_seconds * 1e3 / len(outputs)
    metrics["llm.decode_tokens_per_s"] = generated / decode_seconds
    metrics.update(count_metrics(traced, count_window))

    # core / strategies
    for stage in CORE_STAGES:
        metrics[f"core.{stage}_ms_p50"] = quantile_ms(
            [output.timings[stage] for output in outputs], 0.5
        )

    # observability
    metrics["observability.tracing_overhead_ratio"] = (
        end_to_end(untraced)["throughput_rps"] / end_to_end(traced)["throughput_rps"]
    )
    return metrics, notes


def counter(snapshot: dict, name: str) -> float:
    """A counter's value in a ``metrics_snapshot()`` (0 when never touched)."""
    return float(snapshot.get(name, {}).get("value", 0.0))


def result_cache_hit_ratio(phase, snapshot: dict) -> float:
    """Responses served from the result cache, over requests attempted.

    Counts the responses' ``cache_hit`` flags plus the in-process engine's
    own cache counter, so a hit shows whichever side reports it.
    """
    flagged = sum(
        1 for sample in phase.samples
        if sample.response is not None and sample.response.cache_hit
    )
    engine_hits = snapshot.get("cache", {}).get("hits", 0)
    return max(flagged, engine_hits) / phase.attempted
