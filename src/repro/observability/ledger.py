"""The run ledger: one JSONL record per served forecast, for post-hoc analysis.

Metrics answer "how is the service doing *right now*"; the ledger answers
"what happened to request 417 last Tuesday".  The serving engine appends
one self-contained JSON object per forecast — config hash, seed, outcome
(``ok`` / ``failed``), wall seconds, token counts, per-stage
timings, the request's span tree when tracing is on, and a compact metric
snapshot — so a directory of ledger files *is* the service's queryable
history.  ``repro-multicast ledger summarize`` aggregates any ledger back
into per-outcome counts and latency quantiles.

Record schema (one JSON object per line; ``docs/OBSERVABILITY.md`` has the
full field reference)::

    {"name": "gas-di", "outcome": "ok", "config_hash": "ab12…", "seed": 0,
     "scheme": "di", "sax": false, "model": "llama2-7b-sim", "horizon": 8,
     "cache_hit": false, "attempts": 1, "error": null,
     "wall_seconds": 0.41, "prompt_tokens": 3120, "generated_tokens": 320,
     "timings": {"scale": …}, "spans": {…} | null, "metrics": {…}}
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.exceptions import ConfigError, DataError

__all__ = ["RunLedger", "LedgerSummary", "read_ledger", "summarize_ledger"]

#: The terminal states of a served forecast.
OUTCOMES = ("ok", "failed")

#: Latency quantiles reported by :func:`summarize_ledger` — the same set
#: the serving :class:`~repro.serving.metrics.Histogram` snapshots, so the
#: two reports are directly comparable.
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


class RunLedger:
    """Append-only JSONL sink, safe for concurrent writers.

    Each :meth:`append` serialises one record and writes it as a single
    line under a lock (the engine's request pool calls this from several
    threads).  The file handle is opened per write, so a ledger can be
    tailed, rotated, or read while the engine is live.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._records_written = 0

    def append(self, record: dict) -> None:
        """Write one record as a JSON line (fsync-free, flush-per-line)."""
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            with open(self.path, "a") as handle:
                handle.write(line + "\n")
            self._records_written += 1

    @property
    def records_written(self) -> int:
        """Records appended through this instance (not lines in the file)."""
        with self._lock:
            return self._records_written

    def __repr__(self) -> str:
        return f"RunLedger({str(self.path)!r}, written={self.records_written})"


def read_ledger(path: str | Path) -> list[dict]:
    """Parse a ledger file into a list of record dicts.

    Blank lines are skipped; a malformed line raises :class:`DataError`
    naming its line number (a truncated final line from a crashed writer
    is the common case worth a precise message).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ConfigError(f"ledger not found: {path}") from None
    records = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise DataError(
                f"ledger {path} line {number} is not valid JSON: {error}"
            ) from None
        if not isinstance(record, dict):
            raise DataError(
                f"ledger {path} line {number} is not an object"
            )
        records.append(record)
    return records


@dataclass
class LedgerSummary:
    """Aggregated view of one ledger: outcome counts and latency quantiles."""

    total: int
    outcomes: dict = field(default_factory=dict)
    cache_hits: int = 0
    retries: int = 0
    latency: dict = field(default_factory=dict)
    prompt_tokens: int = 0
    generated_tokens: int = 0
    by_scheme: dict = field(default_factory=dict)

    def format(self) -> str:
        """Render the report the ``ledger summarize`` CLI prints."""
        lines = [f"records: {self.total}"]
        outcome_bits = "  ".join(
            f"{name}={self.outcomes.get(name, 0)}" for name in OUTCOMES
        )
        lines.append(f"outcomes: {outcome_bits}")
        lines.append(f"cache hits: {self.cache_hits}    retries: {self.retries}")
        if self.latency:
            lat = self.latency
            lines.append(
                "latency: mean={mean:.4f}s  p50={p50:.4f}s  p95={p95:.4f}s  "
                "p99={p99:.4f}s  max={max:.4f}s".format(**lat)
            )
        lines.append(
            f"tokens: prompt={self.prompt_tokens} "
            f"generated={self.generated_tokens}"
        )
        if self.by_scheme:
            scheme_bits = "  ".join(
                f"{scheme}={count}" for scheme, count in sorted(self.by_scheme.items())
            )
            lines.append(f"schemes: {scheme_bits}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serialisable form for ``ledger summarize --json``."""
        return {
            "total": self.total,
            "outcomes": dict(self.outcomes),
            "cache_hits": self.cache_hits,
            "retries": self.retries,
            "latency": dict(self.latency),
            "prompt_tokens": self.prompt_tokens,
            "generated_tokens": self.generated_tokens,
            "by_scheme": dict(self.by_scheme),
        }


def summarize_ledger(source: str | Path | list) -> LedgerSummary:
    """Aggregate a ledger (path or pre-read record list) into a summary.

    Latency quantiles are exact ``numpy.quantile`` values over every
    record's ``wall_seconds`` — computed the same way the serving
    histogram's snapshot computes ``request_seconds`` quantiles, so a
    ledger written alongside a metrics dump reports matching numbers.
    """
    records = source if isinstance(source, list) else read_ledger(source)
    if not records:
        raise DataError("ledger contains no records")

    outcomes: dict[str, int] = {}
    by_scheme: dict[str, int] = {}
    walls: list[float] = []
    summary = LedgerSummary(total=len(records))
    for record in records:
        outcome = record.get("outcome", "ok")
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        scheme = record.get("scheme")
        if scheme:
            by_scheme[scheme] = by_scheme.get(scheme, 0) + 1
        if record.get("cache_hit"):
            summary.cache_hits += 1
        summary.retries += max(0, int(record.get("attempts", 1)) - 1)
        summary.prompt_tokens += int(record.get("prompt_tokens", 0))
        summary.generated_tokens += int(record.get("generated_tokens", 0))
        wall = record.get("wall_seconds")
        if wall is not None:
            walls.append(float(wall))

    summary.outcomes = outcomes
    summary.by_scheme = by_scheme
    if walls:
        values = np.asarray(walls)
        summary.latency = {
            "mean": float(values.mean()),
            "max": float(values.max()),
        }
        for q in SUMMARY_QUANTILES:
            summary.latency[f"p{int(q * 100)}"] = float(np.quantile(values, q))
    return summary
