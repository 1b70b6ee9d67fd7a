#!/usr/bin/env python
"""Serving layer walkthrough: one engine, many forecasts.

The :class:`~repro.serving.ForecastEngine` turns the paper's single
``forecast()`` call into a concurrent service — requests run on a small
request pool, each decoding its sample ensemble in lockstep, identical
requests are answered from a content-addressed cache, and every request
carries a deadline and retry budget.  This script
shows the three entry points an adopting user touches:

1. **Direct requests** — submit a batch of :class:`ForecastRequest` objects
   and read bit-identical results back (same seed => same forecast as a
   direct forecaster call);
2. **Engine-backed backtest** — pass ``engine=`` to
   ``rolling_origin_evaluation`` so windows run concurrently and re-runs
   hit the cache;
3. **Observability** — dump the engine's metrics registry (request latency
   percentiles, per-stage timings, cache hit rate) as JSON.

Run:  python examples/concurrent_backtest.py
"""

import json

import numpy as np

from repro.core import ForecastSpec, MultiCastConfig, MultiCastForecaster
from repro.data import gas_rate
from repro.evaluation import rolling_origin_evaluation
from repro.serving import ForecastEngine, ForecastRequest


def main() -> None:
    dataset = gas_rate()
    history = np.asarray(dataset.values)
    horizon = 12

    with ForecastEngine() as engine:
        # 1 -- a batch of requests: two schemes plus a deliberate repeat
        configs = {
            "di": MultiCastConfig(scheme="di", num_samples=5, seed=0),
            "vc": MultiCastConfig(scheme="vc", num_samples=5, seed=0),
        }
        requests = [
            ForecastRequest(history, horizon, config=cfg, name=name)
            for name, cfg in configs.items()
        ]
        requests.append(
            ForecastRequest(history, horizon, config=configs["di"], name="di-again")
        )
        for response in engine.forecast_batch(requests):
            print(response.summary())

        # served results match a direct forecaster call exactly
        direct = MultiCastForecaster().forecast(
            ForecastSpec.from_config(configs["di"], series=history, horizon=horizon)
        )
        served = engine.forecast(
            ForecastRequest(history, horizon, config=configs["di"])
        )
        assert np.array_equal(served.output.values, direct.values)
        print("\nengine forecast == direct forecast (same seed): verified")

        # 2 -- backtest through the engine: windows run concurrently,
        #      and the second run is answered from cache
        for label in ("cold", "warm"):
            backtest = rolling_origin_evaluation(
                "multicast-di", dataset, horizon=horizon, num_windows=3,
                spec=ForecastSpec(num_samples=5), engine=engine,
            )
            mean = backtest.mean_rmse()
            print(f"\n{label} backtest RMSE: "
                  + ", ".join(f"{k}={v:.3f}" for k, v in mean.items()))

        # 3 -- what did all of that cost?
        snapshot = engine.metrics_snapshot()
        print("\nengine metrics:")
        print(f"  requests        {snapshot['requests_total']['value']}")
        print(f"  cache hit rate  {snapshot['cache']['hit_rate']:.0%}")
        print(f"  request p95     {snapshot['request_seconds']['p95'] * 1000:.1f} ms")
        print("\nfull registry snapshot (as written by --metrics-out):")
        print(json.dumps(
            {k: v for k, v in snapshot.items() if k.startswith("stage_")},
            indent=2,
        ))


if __name__ == "__main__":
    main()
