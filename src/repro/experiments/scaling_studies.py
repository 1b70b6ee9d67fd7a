"""Scaling studies: dimensionality and context length.

Two questions the paper raises but does not isolate:

* **Dimensionality** (Table V discussion): "a possible drop in the
  performance of MultiCast as the dimensionality of the time series
  increases since there is the extra step of demultiplexing the input that
  the LLMs must infer."  :func:`dimensionality_study` probes it directly on
  synthetic families with d = 2..8 equally-coupled dimensions, comparing
  multiplexed MultiCast against per-dimension LLMTime as ``d`` grows —
  with the group length ``d·b`` growing linearly in ``d``, the in-context
  model's effective pattern horizon shrinks, so the multiplexing burden is
  measurable.
* **Context length** (the paper's token-cost discussion): how much history
  does zero-shot forecasting actually need?  :func:`context_length_study`
  sweeps the prompt budget and reports the accuracy/token trade-off.
"""

from __future__ import annotations

import numpy as np

from repro.data import synthetic_multivariate
from repro.evaluation import TableResult
from repro.evaluation.protocol import run_method
from repro.exceptions import ConfigError
from repro.metrics import rmse

__all__ = ["dimensionality_study", "context_length_study"]


def _mean_rmse(actual: np.ndarray, forecast: np.ndarray) -> float:
    """RMSE averaged over dimensions (each dimension is unit-scale here)."""
    return float(
        np.mean([rmse(actual[:, k], forecast[:, k]) for k in range(actual.shape[1])])
    )


def dimensionality_study(
    dims: tuple[int, ...] = (2, 3, 4, 6, 8),
    n: int = 160,
    num_samples: int = 5,
    seed: int = 0,
) -> TableResult:
    """Mean RMSE of multiplexed vs per-dimension forecasting as d grows.

    All dimensions share the same coupled-seasonal generator, so the mean
    per-dimension RMSE is comparable across ``d``.
    """
    if min(dims) < 2:
        raise ConfigError("dimensionality study starts at d=2")
    table = TableResult(
        table_id="Dimensionality",
        title="Mean RMSE vs number of dimensions (coupled synthetic)",
        header=["Method", *(str(d) for d in dims)],
    )
    cells: dict[str, list[float]] = {
        "multicast-di": [], "multicast-vi": [], "multicast-vc": [], "llmtime": [],
    }
    for d in dims:
        dataset = synthetic_multivariate(n=n, num_dims=d, seed=seed + d)
        history, actual = dataset.train_test_split(0.2)
        horizon = actual.shape[0]
        for method in cells:
            output = run_method(
                method, history, horizon, seed=seed, num_samples=num_samples
            )
            cells[method].append(_mean_rmse(actual, output.values))
    for method, errors in cells.items():
        table.add_row(method, *errors)
    table.notes.append(
        "Paper (Table V discussion): MultiCast may degrade with "
        "dimensionality because the model must also infer the "
        "demultiplexing; LLMTime is per-dimension and insensitive to d."
    )
    return table


def context_length_study(
    budgets: tuple[int, ...] = (128, 256, 512, 1024, 2048),
    num_samples: int = 5,
    seed: int = 0,
) -> TableResult:
    """Accuracy vs prompt budget, on stationary and trending series.

    Two regimes with opposite answers:

    * **stationary seasonal** — more history means more pattern repetitions
      to match against, so accuracy improves monotonically with budget;
    * **trending** — old history sits at *stale levels*, and the plain PPM
      weighs a 500-step-old match as much as yesterday's, so long contexts
      actively mislead it: accuracy regresses as the budget grows.
    """
    if min(budgets) < 16:
        raise ConfigError("context budgets below 16 tokens are meaningless")
    table = TableResult(
        table_id="Context length",
        title="Mean RMSE vs prompt budget (multicast-di, coupled synthetic)",
        header=["Series / backend", *(str(b) for b in budgets)],
    )
    configurations = [
        ("stationary, llama2-sim", 0.0, "llama2-7b-sim"),
        ("trending, llama2-sim", 0.01, "llama2-7b-sim"),
    ]
    for label, trend, model in configurations:
        dataset = synthetic_multivariate(
            n=600, num_dims=2, period=24.0, trend=trend,
            noise_scale=0.1, seed=seed,
        )
        history, actual = dataset.train_test_split(0.1)
        horizon = actual.shape[0]
        errors = []
        for budget in budgets:
            output = run_method(
                "multicast-di", history, horizon, seed=seed,
                num_samples=num_samples, max_context_tokens=budget,
                model=model,
            )
            errors.append(_mean_rmse(actual, output.values))
        table.add_row(label, *errors)
    table.notes.append(
        "Stationary data: longer context helps monotonically. Trending "
        "data: stale-level matches mislead plain PPM, so longer context "
        "regresses."
    )
    return table
