"""Ingest-caching bench: incremental extension across backtest windows.

Rolling-origin evaluation with and without an
:class:`~repro.llm.state_cache.IngestStateCache`.  Window ``k+1``'s prompt
strictly extends window ``k``'s, so the cache turns each window's O(n)
prefill into O(Δ); the ingested-token reduction *grows* with the number
of windows (superlinear win), which the report shows by measuring at two
window counts.  Window RMSEs must be bit-identical with and without the
cache.

Run standalone to (re)generate ``BENCH_ingest.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_ingest_cache.py

``--smoke`` runs the same measurement, asserts the threshold, and skips
the JSON write — the CI entry point.  Through pytest
(``pytest benchmarks/bench_ingest_cache.py``) the report is also written
to ``results/ingest_cache.txt``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import ForecastSpec, MultiCastConfig
from repro.core.planning import plan_forecast
from repro.data import Dataset
from repro.evaluation import rolling_origin_evaluation
from repro.llm import IngestStateCache

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_ingest.json"

BACKTEST_LENGTH = 240
BACKTEST_HORIZON = 4
BACKTEST_STRIDE = 2
BACKTEST_SAMPLES = 2


def _history(n: int) -> np.ndarray:
    """A 2-dim series whose global extremes sit in the first two rows.

    Early extremes pin the digit scaler's fit for every truncation of the
    series, which is what keeps successive backtest prompts strict prefix
    extensions of each other.
    """
    rng = np.random.default_rng(0)
    t = np.arange(n)
    values = np.column_stack(
        [
            np.sin(t / 6.0) + 0.1 * rng.standard_normal(n),
            np.cos(t / 9.0) + 0.1 * rng.standard_normal(n),
        ]
    )
    values[0] = [2.5, 2.5]
    values[1] = [-2.5, -2.5]
    return values


def measure_backtest_extension(window_counts=(3, 6)) -> dict:
    """Rolling-origin backtest with and without the ingest-state cache."""
    dataset = Dataset(
        name="bench-extension",
        values=_history(BACKTEST_LENGTH),
        dim_names=("x", "y"),
    )
    config = MultiCastConfig(num_samples=BACKTEST_SAMPLES, seed=0)
    report: dict = {}
    for num_windows in window_counts:
        common = dict(
            horizon=BACKTEST_HORIZON,
            num_windows=num_windows,
            stride=BACKTEST_STRIDE,
            spec=ForecastSpec(num_samples=BACKTEST_SAMPLES),
        )
        start = time.perf_counter()
        uncached = rolling_origin_evaluation("multicast-di", dataset, **common)
        uncached_seconds = time.perf_counter() - start

        cache = IngestStateCache()
        start = time.perf_counter()
        cached = rolling_origin_evaluation(
            "multicast-di", dataset, state_cache=cache, **common
        )
        cached_seconds = time.perf_counter() - start

        assert cached.window_rmse == uncached.window_rmse
        origins = uncached.origins
        prompt_tokens = [
            plan_forecast(config, origin, 2, BACKTEST_HORIZON).prompt_tokens
            for origin in origins
        ]
        uncached_ingested = sum(prompt_tokens)
        cached_ingested = uncached_ingested - cache.stats["tokens_saved"]
        report[f"{num_windows}_windows"] = {
            "origins": origins,
            "cache_outcomes": {
                "misses": cache.stats["misses"],
                "extends": cache.stats["extends"],
            },
            "uncached_ingested_tokens": uncached_ingested,
            "cached_ingested_tokens": cached_ingested,
            "ingest_reduction": uncached_ingested / cached_ingested,
            "uncached_seconds": uncached_seconds,
            "cached_seconds": cached_seconds,
            "wall_speedup": uncached_seconds / cached_seconds,
        }
    return report


def check(report: dict) -> None:
    """The acceptance threshold: the ingest reduction grows with windows."""
    assert (
        report["6_windows"]["ingest_reduction"]
        > report["3_windows"]["ingest_reduction"]
        > 1.0
    ), "the ingest-token reduction must grow with the window count"


def run() -> dict:
    report = {"backtest_extension": measure_backtest_extension()}
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def smoke() -> None:
    """CI entry point: the extension check, asserted, nothing written."""
    report = measure_backtest_extension()
    for key, case in report.items():
        print(
            f"{key}: ingest tokens {case['uncached_ingested_tokens']} -> "
            f"{case['cached_ingested_tokens']} "
            f"({case['ingest_reduction']:.2f}x less)"
        )
    check(report)


def test_ingest_bench(emit):
    report = run()
    lines = ["backtest incremental extension:"]
    for key, case in report["backtest_extension"].items():
        lines.append(
            f"  {key:<10} ingest tokens {case['uncached_ingested_tokens']:>6} -> "
            f"{case['cached_ingested_tokens']:>5} "
            f"({case['ingest_reduction']:.1f}x less)  "
            f"wall speedup {case['wall_speedup']:4.2f}x"
        )
    emit("ingest_cache", "\n".join(lines))
    check(report["backtest_extension"])


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        smoke()
    else:
        print(json.dumps(run(), indent=2))
        print(f"wrote {BENCH_PATH}")
