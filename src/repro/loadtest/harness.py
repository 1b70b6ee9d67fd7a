"""The synchronous load-test entry point the CLI and benchmarks share.

:func:`run_loadtest` owns the whole lifecycle: build (or accept) a
workload, stand up a :class:`~repro.gateway.gateway.ForecastGateway`
with the configured admission limits, drive it with the chosen driver
(open- or closed-loop), and fold the samples into a
:class:`~repro.loadtest.report.LoadTestReport`.  It is a plain blocking
function (``asyncio.run`` inside) so ``repro-cli loadtest``,
``benchmarks/bench_loadtest.py`` and the test suite all call the same
code path.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.exceptions import ConfigError
from repro.gateway.admission import TenantQuota
from repro.gateway.gateway import ForecastGateway
from repro.loadtest.drivers import run_closed_loop, run_open_loop
from repro.loadtest.report import LoadTestReport, build_report
from repro.loadtest.workload import (
    WorkloadItem,
    replay_workload,
    synthesize_workload,
)
from repro.serving.cache import ForecastCache
from repro.serving.engine import ForecastEngine

__all__ = ["LoadTestConfig", "run_loadtest"]

_DRIVERS = ("open", "closed")


@dataclass(frozen=True)
class LoadTestConfig:
    """Everything one load-test run needs, in one place.

    ``driver`` selects :func:`~repro.loadtest.drivers.run_open_loop`
    (``"open"``, paced by ``rate`` requests/second) or
    :func:`~repro.loadtest.drivers.run_closed_loop` (``"closed"``, paced
    by ``concurrency`` in-flight workers).  ``ledger_path`` switches the
    workload source from synthesis to ledger replay.  ``shards`` selects
    the engine behind the gateway: ``0`` (default) serves in-process,
    ``N >= 1`` stands up a :class:`~repro.sharding.ShardedEngine` with
    ``N`` decode worker processes (bit-identical results; see
    ``docs/SERVING.md``, "Scaling out").  The remaining fields mirror
    :func:`~repro.loadtest.workload.synthesize_workload` and the
    gateway's admission knobs.
    """

    requests: int = 1000
    driver: str = "open"
    rate: float = 200.0
    concurrency: int = 8
    ledger_path: str | None = None
    distinct: int = 50
    seed: int = 0
    history_length: int = 64
    horizon: int = 3
    num_samples: int = 2
    model: str = "uniform-sim"
    deadline_seconds: float | None = None
    max_pending: int = 64
    quota_rate: float | None = None
    quota_burst: float = 1.0
    coalesce: bool = True
    use_result_cache: bool = True
    tenants: tuple[str, ...] = ("alpha", "beta", "gamma")
    ledger_out: str | None = field(default=None)
    shards: int = 0

    def __post_init__(self) -> None:
        if self.driver not in _DRIVERS:
            raise ConfigError(
                f"driver must be one of {_DRIVERS}, got {self.driver!r}"
            )
        if self.requests < 1:
            raise ConfigError(f"requests must be >= 1, got {self.requests}")
        if self.shards < 0:
            raise ConfigError(f"shards must be >= 0, got {self.shards}")


def _build_workload(config: LoadTestConfig) -> list[WorkloadItem]:
    if config.ledger_path is not None:
        items = replay_workload(
            config.ledger_path,
            history_length=config.history_length,
            num_samples=config.num_samples,
            model=config.model,
            deadline_seconds=config.deadline_seconds,
        )
        if len(items) < config.requests:
            repeat = -(-config.requests // len(items))  # ceil division
            items = replay_workload(
                config.ledger_path,
                repeat=repeat,
                history_length=config.history_length,
                num_samples=config.num_samples,
                model=config.model,
                deadline_seconds=config.deadline_seconds,
            )
        return items[: config.requests]
    return synthesize_workload(
        config.requests,
        distinct=config.distinct,
        seed=config.seed,
        history_length=config.history_length,
        horizon=config.horizon,
        num_samples=config.num_samples,
        model=config.model,
        tenants=config.tenants,
        deadline_seconds=config.deadline_seconds,
    )


def run_loadtest(
    config: LoadTestConfig,
    *,
    workload: list[WorkloadItem] | None = None,
) -> LoadTestReport:
    """Run one load test end to end; blocking, deterministic workload.

    Pass ``workload`` to drive a pre-built arrival list (tests do);
    otherwise the workload comes from ``config`` (ledger replay when
    ``config.ledger_path`` is set, synthesis otherwise).
    """
    items = workload if workload is not None else _build_workload(config)
    if config.shards > 0:
        from repro.sharding import ShardedEngine

        engine = ShardedEngine(
            num_shards=config.shards,
            result_cache_entries=128 if config.use_result_cache else 0,
            ledger=config.ledger_out,
        )
    else:
        engine = ForecastEngine(
            cache=None
            if config.use_result_cache
            else ForecastCache(max_entries=0),
            ledger=config.ledger_out,
        )
    quota = (
        TenantQuota(rate=config.quota_rate, burst=config.quota_burst)
        if config.quota_rate is not None
        else None
    )

    async def _run() -> list:
        async with ForecastGateway(
            engine,
            max_pending=config.max_pending,
            default_quota=quota,
            coalesce=config.coalesce,
        ) as gateway:
            if config.driver == "open":
                return await run_open_loop(gateway, items, rate=config.rate)
            return await run_closed_loop(
                gateway, items, concurrency=config.concurrency
            )

    started = time.perf_counter()
    try:
        samples = asyncio.run(_run())
    finally:
        engine.close()
    wall = time.perf_counter() - started
    return build_report(samples, wall)
