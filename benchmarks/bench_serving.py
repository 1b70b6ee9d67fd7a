"""Serving-layer bench: result-cache warm-up.

The ``hosted-api-sim`` preset registered here flips on
``ModelSpec.realtime_scale``, so every decode sleeps in proportion to its
simulated token latency — the profile of a remote inference API, where
the client thread idles while the provider decodes.  Against that backend
the engine's content-addressed result cache removes the wait entirely for
a repeated request.

Run standalone to (re)generate ``BENCH_serving.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_serving.py

or through pytest (``pytest benchmarks/bench_serving.py``), where the
acceptance threshold — >=10x warm-cache speedup — is asserted.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core import MultiCastConfig
from repro.data import synthetic_multivariate
from repro.llm import ModelSpec, TokenCostModel, register_model
from repro.llm.ppm import PPMLanguageModel
from repro.serving import ForecastEngine, ForecastRequest

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

NUM_SAMPLES = 4
HORIZON = 8


def _register_hosted_backend() -> str:
    """A remote-API stand-in: modest CPU work, latency dominated by sleeps."""
    register_model(
        ModelSpec(
            name="hosted-api-sim",
            factory=lambda v: PPMLanguageModel(v, max_order=3),
            cost=TokenCostModel(seconds_per_generated_token=0.5),
            realtime_scale=0.003,
            description="Hosted-API stand-in: per-token latency as real sleeps.",
        ),
        overwrite=True,
    )
    return "hosted-api-sim"


def measure_cache() -> dict:
    """Cold miss vs warm hit for an identical request."""
    model = _register_hosted_backend()
    history = synthetic_multivariate(n=160, num_dims=2, seed=0).values
    request = ForecastRequest(
        history,
        HORIZON,
        config=MultiCastConfig(num_samples=NUM_SAMPLES, model=model, seed=0),
        name="bench-0",
    )
    with ForecastEngine() as engine:
        start = time.perf_counter()
        cold_response = engine.forecast(request)
        cold = time.perf_counter() - start

        start = time.perf_counter()
        warm_response = engine.forecast(request)
        warm = time.perf_counter() - start
    assert not cold_response.cache_hit and warm_response.cache_hit

    return {
        "cold_seconds": cold,
        "warm_seconds": warm,
        "cache_speedup": cold / warm,
    }


def run() -> dict:
    report = {"cache": measure_cache()}
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_serving_bench(emit):
    cache = run()["cache"]
    lines = [
        f"cold cache     {cache['cold_seconds']:8.3f} s",
        f"warm cache     {cache['warm_seconds']:8.3f} s"
        f"   speedup {cache['cache_speedup']:5.1f}x",
    ]
    emit("serving_cache", "\n".join(lines))
    # Acceptance threshold from the serving issue.
    assert cache["cache_speedup"] >= 10.0


if __name__ == "__main__":
    print(json.dumps(run(), indent=2))
    print(f"wrote {BENCH_PATH}")
