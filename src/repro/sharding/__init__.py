"""Multi-process sharded serving: decode workers beyond one GIL.

The in-process throughput lever — lockstep batched decoding
(:mod:`repro.llm.batch`) — executes inside one Python process.  This
package scales *out* instead of up:

* :class:`ShardedEngine` — the supervisor: fans
  :class:`~repro.core.spec.ForecastSpec` requests out to N worker
  processes, each running a full single-process serving stack, and owns
  routing, health (restart + bounded retry, typed :class:`ShardFailure`),
  and result reassembly.  Drop-in behind
  :class:`~repro.gateway.gateway.ForecastGateway`, bit-identical to the
  in-process engine under fixed seeds.
* :func:`rendezvous_shard` / :func:`rendezvous_ranking` — cache-affine
  HRW routing on :func:`~repro.serving.cache.forecast_digest` prefixes,
  so repeated specs keep landing on their cache-warm worker.
* :class:`SpillStore` — the on-disk tier of the two-tier ingest store: a
  shared, size-bounded, corruption-tolerant directory of serialized
  prefilled states that in-memory
  :class:`~repro.llm.state_cache.IngestStateCache` eviction demotes into,
  letting prefill state survive worker restarts and migrate across
  shards.

See ``docs/SERVING.md`` ("Scaling out") for sizing and placement
guidance, and ``benchmarks/bench_loadtest.py`` for the standing
throughput trajectory.
"""

from repro.sharding.engine import ShardedEngine, ShardFailure
from repro.sharding.routing import rendezvous_ranking, rendezvous_shard
from repro.sharding.spill import SpillStore
from repro.sharding.worker import worker_main

__all__ = [
    "ShardedEngine",
    "ShardFailure",
    "SpillStore",
    "rendezvous_ranking",
    "rendezvous_shard",
    "worker_main",
]
