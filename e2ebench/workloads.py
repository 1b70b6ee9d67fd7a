"""The benchmark's three request streams, each a pure function of its seed.

Request ``i`` of a run is built by :meth:`Workload.request`, which depends
only on the workload, the run seed and ``i``: two runs with one seed send
identical requests in identical order, so the count metrics repeat
exactly.  Every request uses the paper's setting: ``llama2-7b-sim``,
5 independent samples, the ``vi`` scheme, horizon 12.  Series come from
the ``repro.data`` paper-dataset generators; request ``i`` uses dataset
``i % 3`` (2, 3 and 4 dimensions), so every run has the same mix.

* ``zero-shot`` — a distinct 120-row raw-digit series per request.
* ``backtest`` — rolling-origin windows over 6 series, two per dataset,
  served round-robin; a series' history grows one row per request from
  100 rows, so each window extends its predecessor's prompt.  After 40
  windows (100 to 139 rows, mean 119.5) a series is replaced by a fresh
  one from the same generator, so a phase of any length serves the same
  mix of window lengths.
* ``sax-sharded`` — the ``zero-shot`` series as SAX prompts, served by a
  2-worker ``ShardedEngine``.

Nothing here imports ``repro`` at module level, so the set-up probe can
start its clock before the first ``import repro``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

HORIZON = 12
HISTORY_ROWS = 120
BACKTEST_START_ROWS = 100
BACKTEST_SERIES = 6
#: Windows per backtest series before a fresh series takes its place.
BACKTEST_WINDOWS = 40
#: Settings every request shares.  ``execution`` is deliberately absent:
#: the benchmark measures whatever decode path is the default.
SPEC_SETTINGS = {
    "model": "llama2-7b-sim",
    "num_samples": 5,
    "scheme": "vi",
}
SAX_SETTINGS = {"segment_length": 2, "alphabet_size": 10}
#: Seed offset between the series of one run seed and the next.
_SEED_STRIDE = 100_000


@dataclass(frozen=True)
class WorkloadInfo:
    """Static description of one workload."""

    name: str
    sharded: bool
    sax: bool


WORKLOADS = {
    "zero-shot": WorkloadInfo("zero-shot", sharded=False, sax=False),
    "backtest": WorkloadInfo("backtest", sharded=False, sax=False),
    "sax-sharded": WorkloadInfo("sax-sharded", sharded=True, sax=True),
}


def _generators():
    from repro.data import electricity, gas_rate, weather

    return (gas_rate, electricity, weather)


class Workload:
    """The request stream of one workload under one run seed."""

    def __init__(self, name: str, seed: int) -> None:
        if name not in WORKLOADS:
            raise ValueError(
                f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
            )
        self.info = WORKLOADS[name]
        self.name = name
        self.seed = int(seed)
        self._base = self.seed * _SEED_STRIDE
        self._backtest_series: dict[int, object] = {}

    def _generate(self, key: int, length: int):
        """Values of paper-dataset generator ``key % 3`` under seed ``key``."""
        generator = _generators()[key % 3]
        return generator(n=length, seed=self._base + key).values

    def history(self, index: int):
        """The ``(rows, dims)`` history of request ``index``."""
        if self.name != "backtest":
            return self._generate(index, HISTORY_ROWS)
        slot = index % BACKTEST_SERIES
        rounds = index // BACKTEST_SERIES
        # Series ``slot + 6 * cycle`` keeps dataset ``index % 3`` and shares
        # no prefix with the series it replaces.
        key = slot + BACKTEST_SERIES * (rounds // BACKTEST_WINDOWS)
        window = rounds % BACKTEST_WINDOWS
        full = self._backtest_series.get(key)
        if full is None:
            full = self._generate(key, BACKTEST_START_ROWS + BACKTEST_WINDOWS)
            self._backtest_series[key] = full
        return full[: BACKTEST_START_ROWS + window]

    def predecessor(self, index: int) -> int | None:
        """The request that must resolve before ``index`` is sent.

        A backtest window extends the previous window of its series, so it
        waits for it; with more series than clients the wait is rare, and
        it makes each window's prefix reuse a pure function of the seed.
        """
        if self.name == "backtest" and index >= BACKTEST_SERIES:
            return index - BACKTEST_SERIES
        return None

    def request_seed(self, index: int) -> int:
        """The sampling seed of request ``index``."""
        return (self.seed * 1_000_003 + index) % (2**31 - 1)

    def spec(self, index: int):
        """The :class:`~repro.core.spec.ForecastSpec` of request ``index``."""
        from repro.core.spec import ForecastSpec

        options = dict(SPEC_SETTINGS)
        if self.info.sax:
            options["sax"] = dict(SAX_SETTINGS)
        return ForecastSpec(
            series=self.history(index),
            horizon=HORIZON,
            seed=self.request_seed(index),
            **options,
        )

    def request(self, index: int):
        """Request ``index`` as served: result cache off, named by index.

        The name ties the request's ledger record back to its response.
        """
        from repro.serving import ForecastRequest

        return ForecastRequest.from_spec(
            self.spec(index), use_cache=False, name=f"req-{index}"
        )

    def inputs_digest(self, count: int) -> str:
        """blake2b over the first ``count`` requests' inputs.

        Covers the series bytes, sampling seed, horizon and the
        benchmark's own settings — not any program-side digest — so a
        change to the ``repro.data`` generators shows up here as a
        changed workload rather than as a change in speed.
        """
        hasher = hashlib.blake2b(digest_size=16)
        settings = dict(SPEC_SETTINGS, horizon=HORIZON, sax=self.info.sax)
        hasher.update(json.dumps(settings, sort_keys=True).encode())
        for index in range(count):
            history = self.history(index)
            hasher.update(repr(history.shape).encode())
            hasher.update(history.tobytes())
            hasher.update(str(self.request_seed(index)).encode())
        return hasher.hexdigest()
