"""Aggregating load-test samples into an SLO-checkable report.

:class:`LoadTestReport` condenses a list of per-arrival
:class:`~repro.loadtest.drivers.RequestSample` into the numbers an
operator actually pages on: deadline hit-rate, latency percentiles
(p50/p95/p99), shed rate, quota-rejection rate, coalesce rate, cache-hit
rate, and sustained throughput.  :class:`SLOThresholds` +
:meth:`LoadTestReport.violations` turn the report into a pass/fail gate
(CI runs the smoke load test and asserts zero violations at trivial
load).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.loadtest.drivers import RequestSample

__all__ = ["LoadTestReport", "SLOThresholds", "build_report"]


@dataclass(frozen=True)
class SLOThresholds:
    """The pass/fail line for a load test (None disables a check).

    ``min_deadline_hit_rate`` / ``max_shed_rate`` / ``max_failed_rate``
    are fractions of all arrivals; ``max_p99_seconds`` applies to served
    (non-rejected) request latency.
    """

    min_deadline_hit_rate: float | None = None
    max_p99_seconds: float | None = None
    max_shed_rate: float | None = None
    max_failed_rate: float | None = None


@dataclass(frozen=True)
class LoadTestReport:
    """Everything a load-test run measured, JSON-serializable.

    Rates are fractions of ``total`` arrivals.  Latency percentiles are
    over *served* requests only (rejections resolve in microseconds and
    would drag percentiles into meaninglessness); ``throughput_rps`` is
    served requests divided by wall time.
    """

    total: int
    ok: int
    failed: int
    shed: int
    quota_rejected: int
    coalesced: int
    cache_hits: int
    deadline_hit_rate: float
    shed_rate: float
    quota_rate: float
    coalesce_rate: float
    cache_hit_rate: float
    failed_rate: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    latency_mean: float
    wall_seconds: float
    throughput_rps: float
    per_tenant: dict = field(default_factory=dict)

    def violations(self, slo: SLOThresholds) -> list[str]:
        """Human-readable SLO breaches (empty list = the test passes)."""
        found = []
        if (
            slo.min_deadline_hit_rate is not None
            and self.deadline_hit_rate < slo.min_deadline_hit_rate
        ):
            found.append(
                f"deadline hit-rate {self.deadline_hit_rate:.4f} < "
                f"required {slo.min_deadline_hit_rate:.4f}"
            )
        if (
            slo.max_p99_seconds is not None
            and self.latency_p99 > slo.max_p99_seconds
        ):
            found.append(
                f"p99 latency {self.latency_p99:.4f}s > "
                f"allowed {slo.max_p99_seconds:.4f}s"
            )
        if slo.max_shed_rate is not None and self.shed_rate > slo.max_shed_rate:
            found.append(
                f"shed rate {self.shed_rate:.4f} > "
                f"allowed {slo.max_shed_rate:.4f}"
            )
        if (
            slo.max_failed_rate is not None
            and self.failed_rate > slo.max_failed_rate
        ):
            found.append(
                f"failed rate {self.failed_rate:.4f} > "
                f"allowed {slo.max_failed_rate:.4f}"
            )
        return found

    def to_dict(self) -> dict:
        """A plain-JSON view (what ``BENCH_loadtest.json`` embeds)."""
        return {
            "total": self.total,
            "ok": self.ok,
            "failed": self.failed,
            "shed": self.shed,
            "quota_rejected": self.quota_rejected,
            "coalesced": self.coalesced,
            "cache_hits": self.cache_hits,
            "deadline_hit_rate": round(self.deadline_hit_rate, 6),
            "shed_rate": round(self.shed_rate, 6),
            "quota_rate": round(self.quota_rate, 6),
            "coalesce_rate": round(self.coalesce_rate, 6),
            "cache_hit_rate": round(self.cache_hit_rate, 6),
            "failed_rate": round(self.failed_rate, 6),
            "latency_p50": round(self.latency_p50, 6),
            "latency_p95": round(self.latency_p95, 6),
            "latency_p99": round(self.latency_p99, 6),
            "latency_mean": round(self.latency_mean, 6),
            "wall_seconds": round(self.wall_seconds, 3),
            "throughput_rps": round(self.throughput_rps, 2),
            "per_tenant": self.per_tenant,
        }

    def summary(self) -> str:
        """A compact multi-line console summary."""
        return (
            f"requests={self.total} ok={self.ok} "
            f"failed={self.failed} shed={self.shed} "
            f"quota={self.quota_rejected}\n"
            f"deadline hit-rate={self.deadline_hit_rate:.4f} "
            f"shed rate={self.shed_rate:.4f} "
            f"coalesce rate={self.coalesce_rate:.4f} "
            f"cache-hit rate={self.cache_hit_rate:.4f}\n"
            f"latency p50={self.latency_p50 * 1e3:.2f}ms "
            f"p95={self.latency_p95 * 1e3:.2f}ms "
            f"p99={self.latency_p99 * 1e3:.2f}ms "
            f"throughput={self.throughput_rps:.1f} req/s "
            f"wall={self.wall_seconds:.2f}s"
        )


def build_report(
    samples: list[RequestSample], wall_seconds: float
) -> LoadTestReport:
    """Fold per-arrival samples into one :class:`LoadTestReport`."""
    total = len(samples)
    if total == 0:
        raise ValueError("cannot build a report from zero samples")
    by_outcome = {"ok": 0, "failed": 0, "shed": 0, "quota": 0}
    for sample in samples:
        by_outcome[sample.outcome] = by_outcome.get(sample.outcome, 0) + 1
    served = [s for s in samples if s.outcome in ("ok", "failed")]
    latencies = np.array([s.latency_seconds for s in served], dtype=float)
    if latencies.size:
        p50, p95, p99 = np.percentile(latencies, [50, 95, 99])
        mean = float(latencies.mean())
    else:
        p50 = p95 = p99 = mean = 0.0

    per_tenant: dict[str, dict] = {}
    for sample in samples:
        bucket = per_tenant.setdefault(
            sample.tenant, {"total": 0, "ok": 0, "shed": 0, "quota": 0}
        )
        bucket["total"] += 1
        if sample.outcome == "ok":
            bucket["ok"] += 1
        elif sample.outcome == "shed":
            bucket["shed"] += 1
        elif sample.outcome == "quota":
            bucket["quota"] += 1

    return LoadTestReport(
        total=total,
        ok=by_outcome["ok"],
        failed=by_outcome["failed"],
        shed=by_outcome["shed"],
        quota_rejected=by_outcome["quota"],
        coalesced=sum(1 for s in samples if s.coalesced),
        cache_hits=sum(1 for s in samples if s.cache_hit),
        deadline_hit_rate=sum(1 for s in samples if s.deadline_hit) / total,
        shed_rate=by_outcome["shed"] / total,
        quota_rate=by_outcome["quota"] / total,
        coalesce_rate=sum(1 for s in samples if s.coalesced) / total,
        cache_hit_rate=sum(1 for s in samples if s.cache_hit) / total,
        failed_rate=by_outcome["failed"] / total,
        latency_p50=float(p50),
        latency_p95=float(p95),
        latency_p99=float(p99),
        latency_mean=mean,
        wall_seconds=wall_seconds,
        throughput_rps=(len(served) / wall_seconds) if wall_seconds > 0 else 0.0,
        per_tenant=per_tenant,
    )
