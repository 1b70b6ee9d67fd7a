"""The serving layer: MultiCast as a concurrent forecast service.

The paper's pipeline is one function call; serving heavy traffic needs four
more things, each a module here:

* :mod:`~repro.serving.engine` — :class:`ForecastEngine`, a thread-pooled
  service that decodes each request's ``num_samples`` independent draws
  in lockstep through one per-request batched decoder and
  aggregates them through the paper's median path, bit-identically to a
  direct forecast under the same seed;
* :mod:`~repro.serving.cache` — :class:`ForecastCache`, a content-addressed
  LRU over (history bytes, config, horizon, seed) digests;
* :mod:`~repro.serving.policy` — :class:`Deadline` and :class:`RetryPolicy`
  (a per-request time budget, bounded exponential backoff);
* :mod:`~repro.serving.metrics` — :class:`MetricsRegistry` with counters,
  gauges, and p50/p95/p99 latency histograms, exportable as JSON.

Observability plugs in from :mod:`repro.observability`: build the engine
with ``tracer=`` for per-request span trees (``response.trace``) and
``ledger=`` for an append-only JSONL run ledger, summarised by
``repro-multicast ledger summarize``.

Entry points: the ``repro-multicast batch`` CLI subcommand runs a manifest
of jobs through one engine, and
:func:`repro.evaluation.rolling_origin_evaluation` accepts an ``engine=`` to
parallelise (and cache) backtest windows.
"""

from repro.serving.cache import ForecastCache, forecast_digest
from repro.serving.engine import ForecastEngine
from repro.serving.manifest import BatchJob, load_manifest
from repro.serving.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.serving.policy import Deadline, RetryPolicy
from repro.serving.request import ForecastRequest, ForecastResponse

__all__ = [
    "ForecastEngine",
    "ForecastRequest",
    "ForecastResponse",
    "ForecastCache",
    "forecast_digest",
    "Deadline",
    "RetryPolicy",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "BatchJob",
    "load_manifest",
]
