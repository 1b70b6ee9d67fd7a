"""Process-local metrics: counters, gauges, and latency histograms.

The serving engine needs to answer "how is the service doing?" without any
external dependency, so this module implements the minimal Prometheus-style
instrument set in pure Python.  All instruments are thread-safe; a
:class:`MetricsRegistry` groups them under names and exports one JSON
snapshot for dashboards, tests, and the ``batch`` CLI's ``--metrics-out``.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

import numpy as np

from repro.exceptions import ConfigError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Quantiles reported by every histogram snapshot.
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)


class Counter:
    """A monotonically increasing count (requests served, cache hits, ...)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Increase the count; negative increments are rejected."""
        if amount < 0:
            raise ConfigError(f"counters only go up; got increment {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current count."""
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        """Exportable state: ``{"type": "counter", "value": ...}``."""
        return {"type": "counter", "value": self.value}


class Gauge:
    """A value that goes up and down (in-flight requests, cache size)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        """Shift the gauge by ``amount`` (negative to decrement)."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current level."""
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        """Exportable state: ``{"type": "gauge", "value": ...}``."""
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Observation distribution with exact quantiles over a sliding window.

    Keeps the most recent ``window`` observations (default 4096 — enough for
    exact p99 at serving scale while bounding memory) plus running
    count/total over the full lifetime.
    """

    def __init__(self, window: int = 4096) -> None:
        if window < 1:
            raise ConfigError(f"histogram window must be >= 1, got {window}")
        self._lock = threading.Lock()
        self._window = window
        self._values: list[float] = []
        self._count = 0
        self._total = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation (e.g. a request latency in seconds)."""
        value = float(value)
        with self._lock:
            self._values.append(value)
            if len(self._values) > self._window:
                del self._values[: len(self._values) - self._window]
            self._count += 1
            self._total += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    @property
    def count(self) -> int:
        """Lifetime number of observations (not bounded by the window)."""
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        """Lifetime sum of observations."""
        with self._lock:
            return self._total

    @property
    def mean(self) -> float:
        """Lifetime mean observation (0 when empty)."""
        with self._lock:
            return self._total / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Exact ``q``-quantile of the windowed observations (0 if empty)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if not self._values:
                return 0.0
            return float(np.quantile(np.asarray(self._values), q))

    def snapshot(self) -> dict:
        """Count/total/mean/min/max plus exact p50/p95/p99 quantiles."""
        with self._lock:
            values = np.asarray(self._values) if self._values else None
            out = {
                "type": "histogram",
                "count": self._count,
                "total": self._total,
                "mean": self._total / self._count if self._count else 0.0,
                "min": self._min if self._count else 0.0,
                "max": self._max if self._count else 0.0,
            }
        for q in DEFAULT_QUANTILES:
            key = f"p{int(q * 100)}"
            out[key] = float(np.quantile(values, q)) if values is not None else 0.0
        return out


class MetricsRegistry:
    """Named instruments with get-or-create semantics and JSON export.

    >>> registry = MetricsRegistry()
    >>> registry.counter("requests_total").inc()
    >>> with registry.timer("request_seconds"):
    ...     pass
    >>> snapshot = registry.snapshot()
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, kind):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = kind()
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise ConfigError(
                    f"metric {name!r} is a {type(instrument).__name__}, "
                    f"not a {kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the named gauge."""
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """Get or create the named histogram."""
        return self._get_or_create(name, Histogram)

    @contextmanager
    def timer(self, histogram_name: str):
        """Time a block and observe the elapsed seconds."""
        histogram = self.histogram(histogram_name)
        started = time.perf_counter()
        try:
            yield
        finally:
            histogram.observe(time.perf_counter() - started)

    def snapshot(self) -> dict:
        """One nested dict of every instrument's current state."""
        with self._lock:
            instruments = dict(self._instruments)
        return {name: inst.snapshot() for name, inst in sorted(instruments.items())}

    def counter_values(self) -> dict[str, float]:
        """Every counter's current value, by name — the cheap subset of
        :meth:`snapshot` (no histogram window is copied or sorted)."""
        with self._lock:
            instruments = dict(self._instruments)
        return {
            name: inst.value
            for name, inst in sorted(instruments.items())
            if isinstance(inst, Counter)
        }

    def to_json(self, indent: int | None = 2) -> str:
        """The full snapshot serialised as JSON (the ``--metrics-out`` dump)."""
        return json.dumps(self.snapshot(), indent=indent)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._instruments
