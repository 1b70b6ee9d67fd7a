"""The repository's end-to-end benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload zero-shot --seed 1 --seconds 30 --trace 0

``--trace 0`` serves the workload for ``--seconds`` through
``ForecastGateway`` with tracing off and reports the end-to-end metrics.
``--trace 1`` serves it twice from fresh stacks, for half of
``--seconds`` each, untraced then with ``tracer=`` and ``ledger=`` set,
and reports the per-layer metrics of the traced phase.  ``--workload
all`` runs the three workloads in turn, each in a process of its own (so
each reports its own peak memory), printing a detail and a result line
for each.  ``--short`` scales the run down for the benchmark's own
tests (see ``README.md``).  The command itself only supervises: each
workload runs in a child process, and once that has exited every
process left below it is waited for (``procs.py``).

Every run checks its output: a fixed subset of responses must be
bit-identical to direct ``MultiCastForecaster().forecast(spec)`` calls,
every request must succeed, and the workload guards must hold.  The last
stdout line is the result object; the line before it is a detail object
(inputs digest, host probe, guards).  The exit code is 0 only when the
run is correct.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import procs  # noqa: E402
import stack  # noqa: E402
from loadgen import closed_loop  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

CLIENTS = 2

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_rate": "ratio",
    "digest_match_rate": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "gateway.submit_ms_p50": "ms",
    "gateway.queue_wait_ms_p50": "ms",
    "gateway.shed_total": "count",
    "gateway.coalesced_total": "count",
    "serving.overhead_ms_p50": "ms",
    "serving.result_cache_hit_ratio": "ratio",
    "sharding.transit_ms_p50": "ms",
    "sharding.bytes_per_request": "bytes",
    "sharding.dispatch_imbalance": "ratio",
    "scheduling.queue_wait_ms_p50": "ms",
    "llm.ingest_ms_per_request": "ms",
    "llm.decode_ms_per_request": "ms",
    "llm.decode_tokens_per_s": "1/s",
    "llm.prefix_reuse_ratio": "ratio",
    "llm.ingested_tokens_per_request": "count",
    "llm.generated_tokens_per_request": "count",
    "llm.batch_occupancy_mean": "count",
    "llm.groups_per_stream": "ratio",
    "core.scale_ms_p50": "ms",
    "core.multiplex_ms_p50": "ms",
    "core.demultiplex_ms_p50": "ms",
    "core.aggregate_ms_p50": "ms",
    "core.prompt_tokens_per_request": "count",
    "observability.tracing_overhead_ratio": "ratio",
    "host.probe_ms": "ms",
}


@dataclass(frozen=True)
class Scale:
    """How much work one run does beyond its ``--seconds``."""

    #: Requests each phase must complete; also the count-metric window.
    count_window: int = 100
    #: Fresh-process set-ups timed for ``setup_s``: about half before the
    #: timed phase and the rest after it, so they sample the host across
    #: the run.
    setup_probes: int = 5
    #: Ingest-cache cap override for ``zero-shot`` (None: program default).
    zero_shot_ingest_tokens: int | None = None

    @property
    def reference_indices(self) -> tuple[int, ...]:
        """Responses checked against direct forecasts: both ends of the window."""
        last = self.count_window
        return (0, 1, 2, last - 3, last - 2, last - 1)


FULL = Scale()
#: Drives every guard in a few seconds: a small ingest cache makes
#: ``zero-shot`` evict after a handful of requests.
SHORT = Scale(count_window=12, setup_probes=2, zero_shot_ingest_tokens=8192)
#: Where a traced phase's ``RunLedger`` file lives (ignored by git).
LEDGER_DIR = Path(".bench_build")


class Guards:
    """Named pass/fail checks; any failure makes the run incorrect."""

    def __init__(self) -> None:
        self.results: dict[str, bool] = {}

    def check(self, name: str, passed: bool) -> None:
        self.results[name] = self.results.get(name, True) and bool(passed)

    @property
    def passed(self) -> bool:
        return all(self.results.values())


@dataclass
class PhaseResult:
    """One served phase plus what was read off the stack before closing it."""

    phase: object
    snapshot_before: dict
    snapshot_after: dict
    rss_mb: float
    dispatched: list[int]
    ledger_records: list[dict]
    #: CPU time this process spent in the timed phase; with the wall time
    #: it tells a slow CPU from time spent waiting.
    cpu_seconds: float = 0.0
    #: Share of the host's CPU time the hypervisor took for others during
    #: the phase (``steal`` in ``/proc/stat``); high when the host is loaded.
    steal_share: float = 0.0


def ingest_tokens(workload: Workload, scale: Scale) -> int | None:
    return scale.zero_shot_ingest_tokens if workload.name == "zero-shot" else None


async def serve_phase(workload, seconds, scale, *, traced) -> PhaseResult:
    """Build a fresh stack, warm it, drive it for ``seconds``, close it."""
    tracer = ledger = None
    if traced:
        from repro.observability import RunLedger, SpanCollector, Tracer

        tracer = Tracer(SpanCollector(max_spans=64))
        LEDGER_DIR.mkdir(exist_ok=True)
        ledger = RunLedger(LEDGER_DIR / f"ledger-{os.getpid()}-{workload.name}.jsonl")
        ledger.path.unlink(missing_ok=True)
    gateway = stack.build_gateway(
        workload.info.sharded,
        tracer=tracer,
        ledger=ledger,
        ingest_cache_tokens=ingest_tokens(workload, scale),
    )
    try:
        await stack.warm_up(gateway)
        before = gateway.engine.metrics_snapshot()
        baseline = stack.workers_served(gateway)
        dispatched: list[int] = []
        window_rss_mb: list[float] = []

        def on_submitted(index: int) -> None:
            # Requests are admitted in index order, so right after the
            # window's last admission the per-worker dispatch counts cover
            # exactly the window, and peak memory covers a fixed amount of
            # work however fast the stack runs.
            if index == scale.count_window - 1:
                now = stack.workers_served(gateway)
                dispatched.extend(n - b for n, b in zip(now, baseline))
                window_rss_mb.append(
                    stack.peak_rss_mb(stack.serving_pids(gateway))
                )

        cpu_before = os.times()
        host_before = stack.host_cpu_ticks()
        phase = await closed_loop(
            gateway,
            workload.request,
            seconds=seconds,
            min_requests=scale.count_window,
            clients=CLIENTS,
            depends_on=workload.predecessor,
            on_submitted=on_submitted,
        )
        cpu_after = os.times()
        host_after = stack.host_cpu_ticks()
        after = gateway.engine.metrics_snapshot()
    finally:
        await gateway.close()
        gateway.engine.close()
    records = []
    if ledger is not None:
        from repro.observability import read_ledger

        records = read_ledger(ledger.path)
        ledger.path.unlink()
    return PhaseResult(
        phase=phase,
        snapshot_before=before,
        snapshot_after=after,
        rss_mb=window_rss_mb[0] if window_rss_mb else 0.0,
        dispatched=dispatched,
        ledger_records=records,
        cpu_seconds=(cpu_after.user - cpu_before.user)
        + (cpu_after.system - cpu_before.system),
        steal_share=stack.steal_share(host_before, host_after),
    )


def run_phase(workload, seconds, scale, *, traced) -> PhaseResult:
    """``serve_phase`` in an event loop of its own.

    The result is handed out through a list, not as the main task's
    result: on leaving, ``asyncio.run`` of Python 3.11 builds the repr of
    its SIGINT handler, which holds the main task and so every response
    of the phase: 13 s after a 30-second ``sax-sharded`` phase on a
    2-vCPU host.
    """
    results: list[PhaseResult] = []

    async def serve() -> None:
        results.append(await serve_phase(workload, seconds, scale, traced=traced))

    asyncio.run(serve())
    return results[0]


def counter_delta(result: PhaseResult, name: str) -> float:
    return layers.counter(result.snapshot_after, name) - layers.counter(
        result.snapshot_before, name
    )


def check_phase(guards: Guards, workload: Workload, result: PhaseResult, scale: Scale) -> None:
    """The workload guards every phase must pass."""
    phase = result.phase
    by_index = phase.by_index()
    guards.check(
        "completed_at_least_count_window",
        phase.completed >= scale.count_window
        and all(
            index in by_index and by_index[index].ok
            for index in range(scale.count_window)
        ),
    )
    guards.check(
        "result_cache_hit_ratio_zero",
        layers.result_cache_hit_ratio(phase, result.snapshot_after) == 0,
    )
    guards.check("shed_total_zero", counter_delta(result, "gateway_shed_total") == 0)
    guards.check(
        "coalesced_total_zero", counter_delta(result, "gateway_coalesced_total") == 0
    )
    outputs = [s.response.output for s in phase.samples if s.ok]
    if workload.name == "zero-shot":
        guards.check(
            "zero_shot_prefix_reuse_zero",
            all(o.metadata["ingested_tokens"] == o.prompt_tokens for o in outputs),
        )
        evictions = result.snapshot_after["ingest_cache"]["evictions"] - (
            result.snapshot_before["ingest_cache"]["evictions"]
        )
        guards.check("zero_shot_ingest_cache_evicted", evictions > 0)


def reference_match_rate(workload: Workload, phase, indices) -> float:
    """Share of ``indices`` whose served forecast is bit-identical to a direct call."""
    from repro.core.forecaster import MultiCastForecaster

    by_index = phase.by_index()
    matches = 0
    for index in indices:
        sample = by_index.get(index)
        if sample is None or not sample.ok:
            continue
        served = sample.response.output
        direct = MultiCastForecaster().forecast(workload.spec(index))
        if (
            served.values.shape == direct.values.shape
            and served.values.tobytes() == direct.values.tobytes()
            and served.samples.tobytes() == direct.samples.tobytes()
        ):
            matches += 1
    return matches / len(indices)


def measure_setup(workload: Workload, probes: int) -> list[float]:
    """``setup_s`` of ``probes`` fresh processes, one at a time."""
    command = [sys.executable, str(HERE / "setup_probe.py"), workload.name]
    times = []
    for _ in range(probes):
        completed = subprocess.run(
            command, capture_output=True, text=True, timeout=120, check=False
        )
        if completed.returncode != 0:
            raise RuntimeError(
                f"set-up probe failed ({completed.returncode}): "
                f"{completed.stderr.strip()[-2000:]}"
            )
        times.append(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run(workload_name: str, seed: int, seconds: float, trace: bool, scale: Scale):
    """One benchmark run; returns ``(result, detail)`` dictionaries.

    ``result`` is None for a traced run that broke a guard.
    """
    workload = Workload(workload_name, seed)
    guards = Guards()
    detail: dict = {
        "workload": workload_name,
        "pid": os.getpid(),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "clients": CLIENTS,
        "cpu_count": os.cpu_count(),
        "inputs_digest": workload.inputs_digest(scale.count_window),
    }
    probe_before = stack.host_probe_ms()
    setup_times = [] if trace else measure_setup(workload, scale.setup_probes // 2)

    # A traced run splits its time between an untraced and a traced phase,
    # so it costs about as much as an untraced run.
    phase_seconds = seconds / 2 if trace else seconds
    untraced = run_phase(workload, phase_seconds, scale, traced=False)
    check_phase(guards, workload, untraced, scale)
    phases = [untraced]
    traced = None
    if trace:
        traced = run_phase(workload, phase_seconds, scale, traced=True)
        check_phase(guards, workload, traced, scale)
        phases.append(traced)
        if guards.passed:
            guards.check(
                "count_metrics_repeat_across_phases",
                layers.count_metrics(untraced.phase, scale.count_window)
                == layers.count_metrics(traced.phase, scale.count_window),
            )

    served = traced if trace else untraced
    digest_rate = reference_match_rate(
        workload, served.phase, scale.reference_indices
    )
    e2e = layers.end_to_end(untraced.phase)
    e2e["digest_match_rate"] = digest_rate
    e2e["peak_rss_mb"] = untraced.rss_mb
    guards.check("digest_match_rate_one", digest_rate == 1.0)
    guards.check(
        "success_rate_one",
        all(layers.end_to_end(p.phase)["success_rate"] == 1.0 for p in phases),
    )

    detail["guards"] = guards.results
    if trace:
        if not guards.passed:
            # Per-layer numbers of a run that broke a guard mean nothing.
            return None, detail
        metrics, notes = layers.per_layer(
            traced.phase,
            untraced.phase,
            sharded=workload.info.sharded,
            ledger_records=traced.ledger_records,
            snapshot=traced.snapshot_after,
            count_window=scale.count_window,
            dispatched=traced.dispatched,
        )
        detail["notes"] = notes
        units = PER_LAYER_UNITS
    else:
        setup_times += measure_setup(
            workload, scale.setup_probes - len(setup_times)
        )
        e2e["setup_s"] = statistics.median(setup_times)
        detail["setup_s_probes"] = setup_times
        metrics = e2e
        units = END_TO_END_UNITS

    probe_after = stack.host_probe_ms()
    detail["host.probe_ms"] = {"before": probe_before, "after": probe_after}
    if trace:
        metrics["host.probe_ms"] = (probe_before + probe_after) / 2
    detail["phases"] = [
        {"attempted": p.phase.attempted, "completed": p.phase.completed,
         "wall_seconds": p.phase.wall_seconds, "cpu_seconds": p.cpu_seconds,
         "steal_share": p.steal_share,
         "dependency_waits": p.phase.dependency_waits}
        for p in phases
    ]
    detail["end_to_end"] = e2e
    attempted = sum(p.phase.attempted for p in phases)
    completed = sum(p.phase.completed for p in phases)
    result = {
        "correct": guards.passed,
        "attempted": attempted,
        "failed": attempted - completed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    return result, detail


def non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a seed >= 0, got {value}")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"],
        help="one workload, or all of them in turn",
    )
    parser.add_argument("--seed", type=non_negative, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--short", action="store_true",
        help="scaled-down run for the benchmark's own tests",
    )
    # Set by ``supervise`` on the child that does the work.
    parser.add_argument("--supervised", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = Path.cwd() / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(
            "e2ebench: no ./src/repro here; run from the repository root",
            file=sys.stderr,
        )
        return 2
    if not args.supervised:
        return supervise(args)
    sys.path.insert(0, str(source))
    scale = SHORT if args.short else FULL
    result, detail = run(
        args.workload, args.seed, args.seconds, bool(args.trace), scale
    )
    print(json.dumps({"detail": detail}), flush=True)
    if result is None:
        print(
            f"e2ebench: {args.workload}: guards failed: {detail['guards']}",
            file=sys.stderr,
        )
        return 1
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def supervise(args) -> int:
    """Run each workload in a child process, then collect all it left.

    A workload runs in a child so that every process it starts, down to
    a resource tracker that outlives its owner, ends up this process's to
    wait for (see ``procs.py``).  ``--workload all`` runs the workloads
    one after another, each in a process of its own: peak memory
    (``VmHWM``) never falls during a process's life, so workloads sharing
    one would each report the largest peak so far rather than their own.
    """
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    procs.adopt_orphans()
    status = 0
    try:
        for name in names:
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--supervised",
                *(["--short"] if args.short else []),
            ]
            child = subprocess.run(command, check=False)
            status = status or child.returncode
    finally:
        procs.stop_children()
    return status


if __name__ == "__main__":
    sys.exit(main())
