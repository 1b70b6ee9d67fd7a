"""Prompt-strategy bench: tokens vs accuracy per serialisation strategy.

One workload, every prompt strategy.  A strongly seasonal two-dimensional
series is forecast over the same horizon by each strategy in
``repro.strategies`` — the classic per-step digit pipeline, SAX symbols,
per-patch PAA aggregation, and decompose-then-forecast — and the report
records the full trajectory: prompt tokens, generated tokens, held-out
RMSE, and wall time under batched decoding.  Token savings compound in
the decoder (fewer prompt tokens to ingest *and* fewer decode steps per
stream), so both axes appear side by side.

Run standalone to (re)generate ``BENCH_strategies.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_strategies.py

``--smoke`` runs just the digit/patch pair and asserts the acceptance
threshold (patch cuts prompt tokens >= 3x at equal horizon) without
writing JSON — the CI entry point.  Through pytest
(``pytest benchmarks/bench_strategies.py``) the full report is generated
and the same threshold asserted.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import ForecastSpec, MultiCastConfig, MultiCastForecaster, SaxConfig
from repro.metrics import rmse

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_strategies.json"

PRESET = "llama2-7b-sim"
HISTORY_LENGTH = 120
HORIZON = 24
NUM_SAMPLES = 5
PATCH_LENGTH = 6
SEED = 0

#: strategy name -> extra MultiCastConfig fields for that row.
STRATEGIES = {
    "digit": {},
    "sax": {"sax": SaxConfig(segment_length=6, alphabet_size=5)},
    "patch": {"patch_length": PATCH_LENGTH},
    "decompose": {},
    "auto": {},
}


def _series(n: int = HISTORY_LENGTH + HORIZON) -> np.ndarray:
    """A seasonal two-dimensional series (period 12) with mild noise."""
    t = np.arange(n)
    rng = np.random.default_rng(7)
    return np.column_stack([
        np.sin(2 * np.pi * t / 12.0) + 0.05 * rng.standard_normal(n),
        np.cos(2 * np.pi * t / 12.0) + 0.05 * rng.standard_normal(n),
    ])


def measure_strategies(names=tuple(STRATEGIES)) -> dict:
    """Tokens, accuracy, and wall time per strategy on the shared workload."""
    series = _series()
    history, actual = series[:HISTORY_LENGTH], series[HISTORY_LENGTH:]
    report: dict = {}
    for name in names:
        config = MultiCastConfig(
            strategy=name,
            num_samples=NUM_SAMPLES,
            model=PRESET,
            seed=SEED,
            **STRATEGIES[name],
        )
        spec = ForecastSpec.from_config(config, series=history, horizon=HORIZON)
        start = time.perf_counter()
        output = MultiCastForecaster().forecast(spec)
        seconds = time.perf_counter() - start
        report[name] = {
            "strategy_ran": output.metadata["strategy"],
            "prompt_tokens": output.prompt_tokens,
            "generated_tokens": output.generated_tokens,
            "total_tokens": output.prompt_tokens + output.generated_tokens,
            "rmse": float(np.mean([
                rmse(actual[:, k], output.values[:, k])
                for k in range(actual.shape[1])
            ])),
            "seconds": seconds,
        }
    if "digit" in report:
        digits = report["digit"]
        for name, row in report.items():
            row["prompt_token_reduction_vs_digit"] = (
                digits["prompt_tokens"] / row["prompt_tokens"]
            )
    return report


def run() -> dict:
    report = {
        "workload": {
            "preset": PRESET,
            "history_length": HISTORY_LENGTH,
            "horizon": HORIZON,
            "num_samples": NUM_SAMPLES,
            "patch_length": PATCH_LENGTH,
        },
        "strategies": measure_strategies(),
    }
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def smoke() -> None:
    """CI entry point: digit vs patch, asserted, nothing written."""
    report = measure_strategies(names=("digit", "patch"))
    digit, patch = report["digit"], report["patch"]
    print(
        f"{PRESET} @ horizon {HORIZON}: digit {digit['prompt_tokens']} "
        f"prompt tokens (rmse {digit['rmse']:.3f}), patch "
        f"{patch['prompt_tokens']} prompt tokens (rmse {patch['rmse']:.3f}), "
        f"reduction {patch['prompt_token_reduction_vs_digit']:.2f}x"
    )
    assert patch["prompt_token_reduction_vs_digit"] >= 3.0, (
        "patch aggregation must cut prompt tokens at least 3x vs "
        "per-step digits at equal horizon"
    )


def test_strategies_bench(emit):
    report = run()
    lines = [
        f"prompt strategies on {PRESET} "
        f"(history {HISTORY_LENGTH}, horizon {HORIZON}, S={NUM_SAMPLES}):"
    ]
    for name, row in report["strategies"].items():
        lines.append(
            f"  {name:<9} ({row['strategy_ran']:<14}) "
            f"prompt {row['prompt_tokens']:>5}  "
            f"generated {row['generated_tokens']:>5}  "
            f"rmse {row['rmse']:6.3f}  "
            f"batched {row['seconds']:6.3f} s  "
            f"cut {row['prompt_token_reduction_vs_digit']:5.2f}x"
        )
    emit("strategies", "\n".join(lines))
    # Acceptance threshold from the prompt-strategy issue.
    assert (
        report["strategies"]["patch"]["prompt_token_reduction_vs_digit"] >= 3.0
    )


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        smoke()
    else:
        print(json.dumps(run(), indent=2))
        print(f"wrote {BENCH_PATH}")
