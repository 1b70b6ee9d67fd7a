"""Continuous-scheduling bench: many-tenant throughput vs per-request runs.

One measurement, two serving strategies.  N concurrent tenants each submit
one forecast over the *same* history (different seeds — the draws differ,
the prompt does not).  The baseline serves them the pre-scheduler way: one
``execution="batched"`` forecast per request, each paying its own full
prompt ingest.  The continuous path submits all N to one
:class:`~repro.serving.ForecastEngine` with ``execution="continuous"`` —
requests share a single :class:`~repro.scheduling.ContinuousScheduler`
iteration loop, and the engine's :class:`~repro.scheduling.RadixPrefillTree`
turns every ingest after the first into an O(1) snapshot fork.

The workload is the regime the scheduler targets: a long history (ingest
dominates) and a short horizon, so cross-request prefix reuse — not decode
dedup — carries the win.  Every continuous response is asserted
byte-identical to its per-request baseline, so the curve measures pure
scheduling, never drift.

Run standalone to (re)generate ``BENCH_scheduler.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_scheduler.py

``--smoke`` runs one mid-size case (N=4), asserts continuous beats
per-request, and skips the JSON write — the CI entry point.  Through
pytest (``pytest benchmarks/bench_scheduler.py``) the full acceptance
threshold is asserted: >=2x throughput at N=16 concurrent specs.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import ForecastSpec, MultiCastForecaster
from repro.serving import ForecastEngine

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_scheduler.json"

PRESET = "llama2-7b-sim"  # the PPM substrate
HISTORY_LENGTH = 400  # long prompt: ingest dominates the per-request cost
HORIZON = 4  # short decode keeps the workload prefix-bound
NUM_SAMPLES = 2  # streams per request
TEMPERATURE = 0.3
CONCURRENCY = (1, 4, 16, 64)
MAX_RESIDENT_STREAMS = 64
REPEATS = 2  # best-of, to keep scheduler noise out of the ratios


def _history(n: int = HISTORY_LENGTH) -> np.ndarray:
    """A clean two-dimensional periodic series (period 12)."""
    t = np.arange(n)
    return np.column_stack(
        [np.sin(2 * np.pi * t / 12.0), np.cos(2 * np.pi * t / 12.0)]
    )


def _specs(concurrency: int) -> list[ForecastSpec]:
    """N tenants: identical history and knobs, per-tenant seeds."""
    return [
        ForecastSpec(
            series=_history(HISTORY_LENGTH),
            horizon=HORIZON,
            scheme="di",
            num_samples=NUM_SAMPLES,
            model=PRESET,
            temperature=TEMPERATURE,
            seed=1000 + index,
            execution="batched",
        )
        for index in range(concurrency)
    ]


def _baseline(specs: list[ForecastSpec]) -> tuple[float, list]:
    """Per-request batched serving: a cold forecaster per spec, in sequence."""
    start = time.perf_counter()
    results = [MultiCastForecaster().forecast(spec) for spec in specs]
    return time.perf_counter() - start, results


def _continuous(specs: list[ForecastSpec]) -> tuple[float, list, dict]:
    """All specs submitted at once to one shared continuous scheduler."""
    with ForecastEngine(
        max_concurrent_requests=len(specs),
        max_resident_streams=MAX_RESIDENT_STREAMS,
    ) as engine:
        start = time.perf_counter()
        responses = engine.forecast_batch(
            [spec.replace(execution="continuous") for spec in specs]
        )
        seconds = time.perf_counter() - start
        snapshot = engine.metrics_snapshot()
    for response in responses:
        if not response.ok:
            raise AssertionError(f"continuous request failed: {response.error}")
    return seconds, responses, snapshot


def measure_concurrency(concurrency_levels=CONCURRENCY) -> dict:
    """End-to-end many-tenant wall time per strategy and concurrency level."""
    report: dict = {}
    for concurrency in concurrency_levels:
        specs = _specs(concurrency)
        baseline_seconds = float("inf")
        continuous_seconds = float("inf")
        snapshot: dict = {}
        for _ in range(REPEATS):
            seconds, references = _baseline(specs)
            baseline_seconds = min(baseline_seconds, seconds)
            seconds, responses, snapshot = _continuous(specs)
            continuous_seconds = min(continuous_seconds, seconds)
            for reference, response in zip(references, responses):
                result = response.output
                assert result.values.tobytes() == reference.values.tobytes()
                assert result.samples.tobytes() == reference.samples.tobytes()
        occupancies = [
            response.output.metadata["batch_occupancy"]
            for response in responses
        ]
        tree = snapshot["prefill_tree"]
        sched = snapshot["scheduler"]
        report[str(concurrency)] = {
            "requests": concurrency,
            "prompt_tokens": references[0].prompt_tokens,
            "generated_tokens": references[0].generated_tokens,
            "seconds": {
                "per_request_batched": baseline_seconds,
                "continuous": continuous_seconds,
            },
            "throughput_speedup": baseline_seconds / continuous_seconds,
            "mean_occupancy": float(
                np.mean([np.mean(curve) for curve in occupancies])
            ),
            "occupancy_curve": occupancies[0],
            "prefill_tree": {
                "hits": tree["hits"],
                "extends": tree["extends"],
                "misses": tree["misses"],
                "tokens_saved": tree["tokens_saved"],
            },
            "scheduler_steps": sched["steps"],
        }
    return report


def run() -> dict:
    report = {
        "workload": {
            "preset": PRESET,
            "history_length": HISTORY_LENGTH,
            "horizon": HORIZON,
            "num_samples": NUM_SAMPLES,
            "temperature": TEMPERATURE,
            "max_resident_streams": MAX_RESIDENT_STREAMS,
        },
        "concurrency": measure_concurrency(),
    }
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def smoke() -> None:
    """CI entry point: one mid-size case, asserted, nothing written."""
    report = measure_concurrency(concurrency_levels=(4,))
    case = report["4"]
    seconds = case["seconds"]
    print(
        f"{PRESET} @ N=4: per-request {seconds['per_request_batched']:.3f}s, "
        f"continuous {seconds['continuous']:.3f}s, "
        f"speedup {case['throughput_speedup']:.2f}x, "
        f"tokens saved {case['prefill_tree']['tokens_saved']}"
    )
    assert case["throughput_speedup"] > 1.0, (
        "continuous scheduling must beat per-request batched serving"
    )


def test_scheduler_bench(emit):
    report = run()
    lines = [
        f"continuous scheduling on {PRESET} "
        f"(history {HISTORY_LENGTH}, horizon {HORIZON}, S={NUM_SAMPLES}):"
    ]
    for concurrency, case in report["concurrency"].items():
        seconds = case["seconds"]
        lines.append(
            f"  N={concurrency:>2}  per-request {seconds['per_request_batched']:7.3f} s  "
            f"continuous {seconds['continuous']:7.3f} s  "
            f"speedup {case['throughput_speedup']:5.2f}x  "
            f"saved {case['prefill_tree']['tokens_saved']:>6} tok  "
            f"occupancy {case['mean_occupancy']:5.2f}"
        )
    emit("scheduler", "\n".join(lines))
    case = report["concurrency"]["16"]
    # Acceptance threshold from the continuous-scheduling issue.
    assert case["throughput_speedup"] >= 2.0
    # Requests after the first fork the radix tree instead of re-ingesting.
    assert case["prefill_tree"]["misses"] == 1
    assert case["prefill_tree"]["hits"] == 15
    assert case["prefill_tree"]["tokens_saved"] >= 15 * case["prompt_tokens"]


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        smoke()
    else:
        print(json.dumps(run(), indent=2))
        print(f"wrote {BENCH_PATH}")
