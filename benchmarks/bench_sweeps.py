"""Sweep-subsystem bench: trial throughput, resume cost, halving savings.

One MultiCast knob grid, three ways.  The same :class:`repro.sweeps.SweepSpec`
runs (a) in-process, (b) fanned out through a two-shard
:class:`~repro.sharding.ShardedEngine`, and (c) a second time with
``resume=True`` against the ledger the first run wrote — which must
re-execute zero trials and return the identical best configuration.  A
successive-halving variant of the same grid reports how many backtest
window evaluations early stopping saves over the flat sweep.

Run standalone to (re)generate ``BENCH_sweeps.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_sweeps.py

``--smoke`` runs a reduced grid and asserts the resume contract (zero
re-executed trials, identical best config, one ledger record per trial)
without writing JSON — the CI entry point.  Through pytest
(``pytest benchmarks/bench_sweeps.py``) the full report is generated and
the same contract asserted.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.sweeps import SweepRunner, SweepSpec

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweeps.json"

HISTORY_LENGTH = 48
HORIZON = 3
NUM_WINDOWS = 2
SEED = 0

#: The full bench grid: 3 * 3 * 2 * 2 = 36 trials.
FULL_SPACE = {
    "b": [1, 2, 3],
    "a": [3, 4, 5],
    "num_samples": [1, 2],
    "temperature": [0.7, 1.0],
}

#: The CI smoke grid: 2 * 2 = 4 trials.
SMOKE_SPACE = {"b": [1, 2], "a": [3, 4]}


def _series(n: int = HISTORY_LENGTH) -> np.ndarray:
    """A smooth two-dimensional random walk."""
    rng = np.random.default_rng(13)
    return np.cumsum(rng.normal(size=(n, 2)), axis=0) + 40.0


def _sweep(space, **overrides) -> SweepSpec:
    kwargs = dict(
        method="multicast-vi",
        space=space,
        horizon=HORIZON,
        num_windows=NUM_WINDOWS,
        seed=SEED,
        fixed={"model": "uniform-sim"},
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


def measure(space, *, shards: int = 2) -> dict:
    """Run the grid in-process, sharded, and resumed; check the contract."""
    from repro.sharding import ShardedEngine

    series = _series()
    sweep = _sweep(space)
    workdir = Path(tempfile.mkdtemp(prefix="bench_sweeps_"))
    ledger = workdir / "ledger.jsonl"

    start = time.perf_counter()
    local = SweepRunner(ledger=str(ledger)).run(sweep, series)
    local_seconds = time.perf_counter() - start

    start = time.perf_counter()
    with ShardedEngine(num_shards=shards) as engine:
        sharded = SweepRunner(
            engine, ledger=str(workdir / "sharded.jsonl")
        ).run(sweep, series)
    sharded_seconds = time.perf_counter() - start

    start = time.perf_counter()
    resumed = SweepRunner(ledger=str(ledger)).run(
        sweep, series, resume=True
    )
    resume_seconds = time.perf_counter() - start

    records = [
        json.loads(line) for line in ledger.read_text().splitlines()
    ]
    assert len(records) == sweep.total_trials, "one ledger record per trial"
    assert resumed.trials_run == 0, "resume must re-execute zero trials"
    assert resumed.best_index == local.best_index
    assert resumed.best_score == local.best_score
    assert sharded.best_index == local.best_index
    assert sharded.best_score == local.best_score

    halved = _sweep(space, num_windows=6, num_rungs=2, eta=3)
    halved_ledger = workdir / "halved.jsonl"
    SweepRunner(ledger=str(halved_ledger)).run(halved, series)
    halved_windows = sum(
        json.loads(line)["windows"]
        for line in halved_ledger.read_text().splitlines()
    )
    flat_windows = halved.total_trials * 6

    return {
        "trials": sweep.total_trials,
        "windows_per_trial": NUM_WINDOWS,
        "best_params": local.best_params,
        "best_score": local.best_score,
        "seconds": {
            "local": local_seconds,
            "sharded": sharded_seconds,
            "resume": resume_seconds,
        },
        "trials_per_second_local": sweep.total_trials / local_seconds,
        "resume_speedup_vs_local": local_seconds / resume_seconds,
        "halving": {
            "window_evaluations_flat": flat_windows,
            "window_evaluations_halved": halved_windows,
            "savings_fraction": 1.0 - halved_windows / flat_windows,
        },
    }


def run() -> dict:
    report = {
        "workload": {
            "method": "multicast-vi",
            "model": "uniform-sim",
            "history_length": HISTORY_LENGTH,
            "horizon": HORIZON,
            "num_windows": NUM_WINDOWS,
            "space": {k: list(v) for k, v in FULL_SPACE.items()},
            "cpu_count": os.cpu_count(),
        },
        "results": measure(FULL_SPACE),
    }
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def smoke() -> None:
    """CI entry point: reduced grid, resume contract asserted, no JSON."""
    results = measure(SMOKE_SPACE)
    print(
        f"sweep smoke: {results['trials']} trials, "
        f"local {results['seconds']['local']:.2f}s, "
        f"sharded {results['seconds']['sharded']:.2f}s, "
        f"resume {results['seconds']['resume']:.3f}s "
        f"({results['resume_speedup_vs_local']:.1f}x), "
        f"halving saves "
        f"{results['halving']['savings_fraction']:.0%} of window evals"
    )
    assert results["resume_speedup_vs_local"] > 1.0, (
        "resuming a completed sweep must be faster than re-running it"
    )
    assert results["halving"]["savings_fraction"] > 0.0, (
        "successive halving must evaluate fewer windows than the flat sweep"
    )


def test_sweeps_bench(emit):
    report = run()
    results = report["results"]
    lines = [
        f"hyperparameter sweep over multicast-vi "
        f"({results['trials']} trials x {NUM_WINDOWS} windows, uniform-sim):",
        f"  local   {results['seconds']['local']:7.2f} s "
        f"({results['trials_per_second_local']:.1f} trials/s)",
        f"  sharded {results['seconds']['sharded']:7.2f} s (2 shards)",
        f"  resume  {results['seconds']['resume']:7.3f} s "
        f"({results['resume_speedup_vs_local']:.1f}x vs local)",
        f"  halving: {results['halving']['window_evaluations_halved']} "
        f"of {results['halving']['window_evaluations_flat']} window evals "
        f"({results['halving']['savings_fraction']:.0%} saved)",
        f"  best: {results['best_params']} "
        f"(rmse {results['best_score']:.4f})",
    ]
    emit("sweeps", "\n".join(lines))
    assert results["trials"] == 36


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        smoke()
    else:
        print(json.dumps(run(), indent=2))
        print(f"wrote {BENCH_PATH}")
