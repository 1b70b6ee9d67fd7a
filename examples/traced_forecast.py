#!/usr/bin/env python
"""Observability end to end: span trees and the run ledger.

Serves a small batch of gas-rate forecasts through a traced
``ForecastEngine``, prints the first request's full span tree (serving
envelope → pipeline stages → ingest and batched decode), then reads
the JSONL run ledger back and prints the aggregate report — the same
output as ``repro-multicast ledger summarize``.

Run:  python examples/traced_forecast.py
"""

import tempfile
from pathlib import Path

from repro.core import MultiCastConfig
from repro.data import gas_rate
from repro.observability import (
    SpanCollector,
    Tracer,
    render_span_tree,
    stage_timings,
    summarize_ledger,
)
from repro.serving import ForecastEngine, ForecastRequest


def main() -> None:
    dataset = gas_rate()
    history, future = dataset.train_test_split(test_fraction=0.2)
    config = MultiCastConfig(scheme="vi", num_samples=3, seed=0)

    ledger_path = Path(tempfile.mkdtemp()) / "runs.jsonl"
    collector = SpanCollector()
    with ForecastEngine(tracer=Tracer(collector), ledger=ledger_path) as engine:
        responses = engine.forecast_batch(
            [
                ForecastRequest(
                    history, horizon=len(future), config=config,
                    seed=run, name=f"gas-{run}",
                )
                for run in range(3)
            ]
        )
        # Same request again: served from the cache, still traced/ledgered.
        repeat = engine.forecast(
            ForecastRequest(history, horizon=len(future), config=config,
                            seed=0, name="gas-0-again")
        )

    for response in responses:
        print(response.summary())
    print(repeat.summary())

    first = responses[0].trace
    print("\n=== span tree: gas-0 ===")
    print(render_span_tree(first))

    forecast_span = first.find("forecast")
    print("\nroot duration == wall_seconds:",
          forecast_span.duration == responses[0].output.wall_seconds)
    print("stage timings from spans:", {
        stage: round(seconds, 4)
        for stage, seconds in stage_timings(forecast_span).items()
    })

    print(f"\n=== ledger summary ({ledger_path}) ===")
    print(summarize_ledger(ledger_path).format())


if __name__ == "__main__":
    main()
