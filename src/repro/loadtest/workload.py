"""Workloads: what a load test replays.

A workload is a list of :class:`WorkloadItem` — one per arrival, in
arrival order.  Two sources:

* :func:`synthesize_workload` — a fully synthetic stream with a
  configurable number of *distinct* request shapes drawn repeatedly
  (repetition is what exercises the gateway's single-flight coalescing
  and the engine's result cache);
* :func:`replay_workload` — rebuilt from a
  :class:`~repro.observability.ledger.RunLedger` JSONL file.  The ledger
  records a request's *identity* (config hash, seed, model, scheme,
  horizon, tenant) but not its raw series, so histories are synthesized
  deterministically from the recorded ``config_hash`` — two records that
  collided in the original run collide in the replay too, preserving the
  workload's duplicate structure (and therefore its coalesce/cache
  behaviour) without shipping the data.

Everything is deterministic under a fixed ``seed``: the same call
produces byte-identical histories and the same arrival order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.config import MultiCastConfig
from repro.core.spec import ForecastSpec
from repro.exceptions import ConfigError

__all__ = ["WorkloadItem", "replay_workload", "synthesize_workload"]


@dataclass(frozen=True)
class WorkloadItem:
    """One arrival in a load-test workload.

    ``spec`` is the executable request; ``tenant`` routes quota
    accounting; ``deadline_seconds`` (optional) becomes the request's
    serving deadline; ``name`` labels the request in the ledger.
    """

    spec: ForecastSpec
    tenant: str = "default"
    deadline_seconds: float | None = None
    name: str = ""


def _history(rng: np.random.Generator, length: int) -> np.ndarray:
    """A plausible univariate series: trend + seasonality + noise."""
    t = np.arange(length, dtype=float)
    trend = rng.uniform(-0.02, 0.02) * t
    season = rng.uniform(0.5, 2.0) * np.sin(
        2 * np.pi * t / rng.integers(6, 24) + rng.uniform(0, 2 * np.pi)
    )
    noise = rng.normal(0.0, 0.1, size=length)
    return 10.0 + trend + season + noise


def synthesize_workload(
    num_requests: int,
    *,
    distinct: int = 50,
    seed: int = 0,
    history_length: int = 64,
    horizon: int = 3,
    num_samples: int = 2,
    model: str = "uniform-sim",
    scheme: str = "vi",
    tenants: tuple[str, ...] = ("alpha", "beta", "gamma"),
    deadline_seconds: float | None = None,
) -> list[WorkloadItem]:
    """A deterministic synthetic workload of ``num_requests`` arrivals.

    ``distinct`` request shapes (series + config + seed) are generated
    once, then each arrival draws one uniformly — so a 10⁴-request
    workload over 50 shapes revisits each shape ~200 times, giving the
    coalescer and result cache realistic duplicate pressure.  Tenants
    round-robin over ``tenants``.
    """
    if num_requests < 1:
        raise ConfigError(f"num_requests must be >= 1, got {num_requests}")
    if distinct < 1:
        raise ConfigError(f"distinct must be >= 1, got {distinct}")
    rng = np.random.default_rng(seed)
    shapes = []
    for index in range(distinct):
        config = MultiCastConfig(
            scheme=scheme,
            num_samples=num_samples,
            model=model,
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        shapes.append(
            ForecastSpec.from_config(
                config,
                series=_history(rng, history_length),
                horizon=horizon,
            )
        )
    picks = rng.integers(0, distinct, size=num_requests)
    return [
        WorkloadItem(
            spec=shapes[int(pick)],
            tenant=tenants[arrival % len(tenants)],
            deadline_seconds=deadline_seconds,
            name=f"synthetic-{arrival:05d}",
        )
        for arrival, pick in enumerate(picks)
    ]


def replay_workload(
    ledger_path: str | Path,
    *,
    limit: int | None = None,
    repeat: int = 1,
    history_length: int = 64,
    num_samples: int = 2,
    model: str | None = None,
    deadline_seconds: float | None = None,
) -> list[WorkloadItem]:
    """Rebuild a workload from a run-ledger JSONL file.

    Each ledger record becomes one arrival (``repeat`` cycles the whole
    file to scale small ledgers up to load-test size).  The recorded
    ``config_hash`` seeds the synthetic history, so records that shared
    a hash in the original run produce identical specs here — the
    duplicate (coalesce/cache) structure of the original traffic
    survives the replay.  ``model`` overrides the recorded model (e.g.
    to replay a llama2-7b-sim ledger against the cheap uniform-sim);
    ``num_samples`` caps ensemble size because the ledger does not
    record it.  Gateway rejection records (``admission`` of ``shed`` or
    ``quota``) are skipped — they carry no engine work to replay.
    """
    path = Path(ledger_path)
    if not path.exists():
        raise ConfigError(f"ledger not found: {path}")
    if repeat < 1:
        raise ConfigError(f"repeat must be >= 1, got {repeat}")
    records = []
    with path.open("r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("admission") in ("shed", "quota"):
                continue
            records.append(record)
            if limit is not None and len(records) >= limit:
                break
    if not records:
        raise ConfigError(f"ledger {path} has no replayable records")

    items = []
    for cycle in range(repeat):
        for index, record in enumerate(records):
            digest = str(record.get("config_hash", f"record-{index}"))
            try:
                history_seed = int(digest[:16], 16)
            except ValueError:
                history_seed = index
            rng = np.random.default_rng(history_seed % (2**63))
            config = MultiCastConfig(
                scheme=record.get("scheme", "vi"),
                num_samples=num_samples,
                model=model or record.get("model", "uniform-sim"),
                seed=int(record.get("seed", 0)),
            )
            spec = ForecastSpec.from_config(
                config,
                series=_history(rng, history_length),
                horizon=int(record.get("horizon", 3)),
            )
            items.append(
                WorkloadItem(
                    spec=spec,
                    tenant=str(record.get("tenant") or "default"),
                    deadline_seconds=deadline_seconds,
                    name=record.get("name") or f"replay-{cycle}-{index:05d}",
                )
            )
    return items
