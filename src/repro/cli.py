"""Command-line interface.

Usage (installed as ``repro-multicast``, or ``python -m repro.cli``)::

    repro-multicast forecast --dataset gas_rate --scheme di --num-samples 5
    repro-multicast forecast --csv mydata.csv --horizon 24 --output fcst.csv
    repro-multicast forecast --dataset gas_rate --trace
    repro-multicast evaluate --dataset weather --methods multicast-di arima
    repro-multicast batch --manifest jobs.json --repeat 2 --metrics-out m.json
    repro-multicast batch --manifest jobs.json --ledger runs.jsonl --trace
    repro-multicast serve --manifest jobs.json --max-pending 32 \
        --quota-rate 10 --ledger runs.jsonl
    repro-multicast loadtest --requests 5000 --rate 1000 --deadline 2.0
    repro-multicast loadtest --replay-ledger runs.jsonl --driver closed
    repro-multicast ledger summarize runs.jsonl
    repro-multicast table iv
    repro-multicast figure 2
    repro-multicast list

Every subcommand prints plain text; ``forecast --output`` also writes the
forecast as CSV.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core import (
    PROMPT_STRATEGIES,
    ForecastSpec,
    MultiCastConfig,
    MultiCastForecaster,
    SaxConfig,
)
from repro.data import (
    Dataset,
    electricity,
    gas_rate,
    load_csv,
    save_csv,
    weather,
)
from repro.evaluation import ascii_plot, evaluate_method, format_table
from repro.evaluation.protocol import available_methods
from repro.exceptions import ReproError
from repro.llm import available_models

__all__ = ["main", "build_parser"]

_DATASETS = {"gas_rate": gas_rate, "electricity": electricity, "weather": weather}

_TABLES = {}  # populated lazily to keep import time low


def _table_functions():
    from repro import experiments

    return {
        "i": experiments.table_i,
        "iii": experiments.table_iii,
        "iv": experiments.table_iv,
        "v": experiments.table_v,
        "vi": experiments.table_vi,
        "vii": experiments.table_vii,
        "viii": experiments.table_viii,
        "ix": experiments.table_ix,
    }


def _figure_functions():
    from repro import experiments

    return {
        "2": experiments.figure_2,
        "3": experiments.figure_3,
        "4": experiments.figure_4,
        "5": experiments.figure_5,
        "6": experiments.figure_6,
        "7": experiments.figure_7,
        "8": experiments.figure_8,
    }


def _load_dataset(args) -> Dataset:
    if args.csv:
        return load_csv(args.csv)
    return _DATASETS[args.dataset or "gas_rate"]()


def _ensure_writable(path: str | None, flag: str) -> None:
    """Fail fast when an output path cannot possibly be written.

    Checked before any forecasting work starts, so a typo'd ``--output``
    directory surfaces as a normal CLI error up front instead of a raw
    traceback after the (expensive) run has already completed.
    """
    if path is None:
        return
    import os

    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ReproError(f"{flag} directory does not exist: {parent}")
    if os.path.isdir(path):
        raise ReproError(f"{flag} path is a directory: {path}")


def _add_samples_argument(parser: argparse.ArgumentParser) -> None:
    """Add the ``--num-samples`` flag."""
    parser.add_argument(
        "--num-samples", dest="num_samples", type=int, default=None,
        help="continuations sampled per forecast (default 5)",
    )


def _resolve_samples(args, default: int = 5) -> int:
    """The sample count from ``--num-samples``, else ``default``."""
    return default if args.num_samples is None else args.num_samples


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-multicast",
        description="MultiCast: zero-shot multivariate forecasting (reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    forecast = sub.add_parser("forecast", help="forecast a dataset or CSV file")
    source = forecast.add_mutually_exclusive_group()
    # No argparse default here: a defaulted flag is never counted as "seen"
    # by the exclusivity check, so --dataset gas_rate --csv x would slip by.
    source.add_argument("--dataset", choices=sorted(_DATASETS), default=None)
    source.add_argument("--csv", help="path to a headed CSV file")
    forecast.add_argument("--scheme", choices=("di", "vi", "vc", "bi"), default="di")
    _add_samples_argument(forecast)
    forecast.add_argument("--digits", type=int, default=3)
    forecast.add_argument("--model", default="llama2-7b-sim")
    forecast.add_argument("--seed", type=int, default=0)
    forecast.add_argument(
        "--strategy", choices=PROMPT_STRATEGIES, default="default",
        help="prompt strategy: how history is serialised into the prompt "
             "('default' keeps the classic digit/SAX pipeline; see "
             "docs/ARCHITECTURE.md)",
    )
    forecast.add_argument(
        "--patch-length", type=int, default=None,
        help="patch width for --strategy patch (timestamps aggregated "
             "per prompt token group; default 6)",
    )
    forecast.add_argument(
        "--horizon", type=int, default=None,
        help="steps past the end (default: hold out and score the last 20%%)",
    )
    forecast.add_argument("--sax-segment", type=int, default=None,
                          help="enable SAX with this segment length")
    forecast.add_argument("--sax-alphabet", type=int, default=5)
    forecast.add_argument("--sax-kind", choices=("alphabetical", "digital"),
                          default="alphabetical")
    forecast.add_argument("--output", help="write the forecast to this CSV path")
    forecast.add_argument("--plot", action="store_true",
                          help="draw an ASCII overlay of dimension 0")
    forecast.add_argument("--verbose", action="store_true",
                          help="print the per-stage timing breakdown")
    forecast.add_argument("--trace", action="store_true",
                          help="print the hierarchical span tree of the run")

    evaluate = sub.add_parser("evaluate", help="score methods on a dataset")
    evaluate.add_argument("--dataset", choices=sorted(_DATASETS), default="gas_rate")
    evaluate.add_argument("--methods", nargs="+",
                          default=["multicast-di", "llmtime", "arima"])
    _add_samples_argument(evaluate)
    evaluate.add_argument("--seed", type=int, default=0)

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("which", choices=sorted(_table_functions()) + ["all"])
    _add_samples_argument(table)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("which", choices=sorted(_figure_functions()))
    _add_samples_argument(figure)
    figure.add_argument("--csv-out", help="also write the series to this path")

    plan = sub.add_parser("plan", help="predict token/time/cost before running")
    plan.add_argument("--dataset", choices=sorted(_DATASETS), default="gas_rate")
    plan.add_argument("--scheme", choices=("di", "vi", "vc", "bi"), default="di")
    _add_samples_argument(plan)
    plan.add_argument("--model", default="llama2-7b-sim")
    plan.add_argument("--horizon", type=int, default=None,
                      help="default: 20%% of the dataset length")
    plan.add_argument("--sax-segment", type=int, default=None)

    backtest = sub.add_parser("backtest", help="rolling-origin evaluation")
    backtest.add_argument("--dataset", choices=sorted(_DATASETS), default="gas_rate")
    backtest.add_argument("--method", default="multicast-di")
    backtest.add_argument("--horizon", type=int, default=20)
    backtest.add_argument("--windows", type=int, default=3)
    _add_samples_argument(backtest)
    backtest.add_argument("--seed", type=int, default=0)
    backtest.add_argument(
        "--strategy", choices=PROMPT_STRATEGIES, default="default",
        help="prompt strategy for MultiCast windows",
    )

    batch = sub.add_parser(
        "batch", help="forecast many series/configs concurrently from a manifest"
    )
    batch.add_argument("--manifest", required=True,
                       help="JSON manifest of forecast jobs (see docs/API.md)")
    batch.add_argument("--request-concurrency", type=int, default=2,
                       help="requests in flight at once")
    batch.add_argument("--strategy", choices=PROMPT_STRATEGIES, default=None,
                       help="override every job's prompt strategy")
    batch.add_argument("--repeat", type=int, default=1,
                       help="run the whole batch this many times "
                            "(later passes exercise the result cache)")
    batch.add_argument("--no-cache", action="store_true",
                       help="disable the content-addressed result cache")
    batch.add_argument("--metrics-out",
                       help="write the engine's metrics snapshot to this JSON path")
    batch.add_argument("--ledger",
                       help="append one JSONL run-ledger record per request "
                            "to this path (see docs/OBSERVABILITY.md)")
    batch.add_argument("--trace", action="store_true",
                       help="trace every request; with --ledger, records "
                            "carry full span trees")

    serve = sub.add_parser(
        "serve",
        help="serve a manifest through the async gateway "
             "(admission control, quotas, coalescing)",
    )
    serve.add_argument("--manifest", required=True,
                       help="JSON manifest of forecast jobs (see docs/API.md)")
    serve.add_argument("--shards", type=int, default=0,
                       help="decode worker *processes*: 0 serves in-process, "
                            "N >= 1 stands up a ShardedEngine with N shards "
                            "(bit-identical results; see docs/SERVING.md)")
    serve.add_argument("--request-concurrency", type=int, default=2,
                       help="engine requests in flight at once")
    serve.add_argument("--max-pending", type=int, default=64,
                       help="admission bound: requests beyond this are shed "
                            "with a typed Overloaded error")
    serve.add_argument("--quota-rate", type=float, default=None,
                       help="per-tenant sustained requests/second "
                            "(default: unlimited)")
    serve.add_argument("--quota-burst", type=float, default=1.0,
                       help="per-tenant burst allowance (bucket size)")
    serve.add_argument("--no-coalesce", action="store_true",
                       help="disable single-flight coalescing of identical "
                            "in-flight requests")
    serve.add_argument("--metrics-out",
                       help="write the engine's metrics snapshot to this JSON path")
    serve.add_argument("--ledger",
                       help="append one JSONL run-ledger record per request "
                            "(admission outcomes included)")

    loadtest = sub.add_parser(
        "loadtest",
        help="replay or synthesize a workload against the gateway and "
             "report SLO metrics",
    )
    loadtest.add_argument("--requests", type=int, default=1000,
                          help="total arrivals to offer")
    loadtest.add_argument("--driver", choices=("open", "closed"),
                          default="open",
                          help="open-loop (fixed offered rate) or "
                               "closed-loop (fixed concurrency)")
    loadtest.add_argument("--rate", type=float, default=200.0,
                          help="open-loop offered rate, requests/second")
    loadtest.add_argument("--concurrency", type=int, default=8,
                          help="closed-loop in-flight workers")
    loadtest.add_argument("--replay-ledger", default=None,
                          help="rebuild the workload from this run-ledger "
                               "JSONL instead of synthesizing")
    loadtest.add_argument("--distinct", type=int, default=50,
                          help="distinct request shapes in a synthetic "
                               "workload (repetition drives coalescing)")
    loadtest.add_argument("--seed", type=int, default=0)
    loadtest.add_argument("--model", default="uniform-sim",
                          help="backend model for the workload")
    _add_samples_argument(loadtest)
    loadtest.add_argument("--horizon", type=int, default=3)
    loadtest.add_argument("--deadline", type=float, default=None,
                          help="per-request deadline in seconds")
    loadtest.add_argument("--max-pending", type=int, default=64)
    loadtest.add_argument("--quota-rate", type=float, default=None)
    loadtest.add_argument("--quota-burst", type=float, default=1.0)
    loadtest.add_argument("--no-cache", action="store_true",
                          help="disable the engine's result cache")
    loadtest.add_argument("--no-coalesce", action="store_true")
    loadtest.add_argument("--shards", type=int, default=0,
                          help="decode worker processes behind the gateway "
                               "(0 = in-process engine)")
    loadtest.add_argument("--json-out", default=None,
                          help="write the full report as JSON to this path")
    loadtest.add_argument("--ledger-out", default=None,
                          help="run ledger written by the gateway during "
                               "the test (replayable by --replay-ledger)")

    ledger = sub.add_parser(
        "ledger", help="inspect run-ledger files written by batch --ledger"
    )
    ledger_sub = ledger.add_subparsers(dest="ledger_command", required=True)
    summarize = ledger_sub.add_parser(
        "summarize", help="aggregate a ledger into outcome counts and latency"
    )
    summarize.add_argument("file", help="path to a .jsonl run ledger")
    summarize.add_argument("--json", action="store_true",
                           help="emit the summary as JSON instead of text")

    sweep = sub.add_parser(
        "sweep",
        help="grid/random hyperparameter search with ledger-backed resume",
    )
    sweep.add_argument("--method", default="multicast-vi",
                       help="multicast-<scheme> or a baseline estimator name")
    sweep.add_argument("--dataset", choices=sorted(_DATASETS),
                       default="gas_rate")
    sweep.add_argument("--param", action="append", default=[],
                       metavar="KEY=V1,V2,...",
                       help="swept knob and its candidate values "
                            "(repeatable; paper aliases b/w/a accepted)")
    sweep.add_argument("--fixed", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="knob pinned to one value for every trial "
                            "(repeatable)")
    sweep.add_argument("--search", choices=("grid", "random"),
                       default="grid")
    sweep.add_argument("--trials", type=int, default=None,
                       help="number of random-search draws "
                            "(grid search sizes itself)")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--horizon", type=int, default=4,
                       help="backtest horizon each trial is scored on")
    sweep.add_argument("--windows", type=int, default=3,
                       help="rolling-origin backtest windows per trial")
    sweep.add_argument("--stride", type=int, default=None,
                       help="origin step between windows (default: horizon)")
    sweep.add_argument("--rungs", type=int, default=1,
                       help="successive-halving rungs (1 = no early stop)")
    sweep.add_argument("--eta", type=int, default=3,
                       help="successive-halving keep ratio")
    sweep.add_argument("--shards", type=int, default=0,
                       help="decode worker processes for MultiCast trials "
                            "(0 = in-process; results are bit-identical)")
    sweep.add_argument("--ledger", default=None,
                       help="JSONL run ledger: one record per (trial, rung); "
                            "required for --resume")
    sweep.add_argument("--resume", action="store_true",
                       help="skip trials already recorded in --ledger "
                            "(matched by content digest)")
    sweep.add_argument("--json-out", default=None,
                       help="write the full report as JSON to this path")

    sub.add_parser("list", help="list datasets, methods, and backend models")
    return parser


def _command_forecast(args) -> int:
    _ensure_writable(args.output, "--output")
    dataset = _load_dataset(args)
    sax = None
    if args.sax_segment is not None:
        sax = SaxConfig(
            segment_length=args.sax_segment,
            alphabet_size=args.sax_alphabet,
            alphabet_kind=args.sax_kind,
        )
    if args.horizon is None:
        history, actual = dataset.train_test_split(0.2)
        horizon = actual.shape[0]
    else:
        history, actual = np.asarray(dataset.values), None
        horizon = args.horizon
    spec_kwargs = {}
    if args.patch_length is not None:
        spec_kwargs["patch_length"] = args.patch_length
    spec = ForecastSpec(
        series=history,
        horizon=horizon,
        scheme=args.scheme,
        num_digits=args.digits,
        num_samples=_resolve_samples(args),
        model=args.model,
        sax=sax,
        seed=args.seed,
        strategy=args.strategy,
        **spec_kwargs,
    )
    tracer = None
    if args.trace:
        from repro.observability import SpanCollector, Tracer

        tracer = Tracer(SpanCollector())
    output = MultiCastForecaster(tracer=tracer).forecast(spec)

    print(f"{dataset.name}: {dataset.num_dims} dims, history {len(history)}, "
          f"horizon {horizon}, scheme {args.scheme}, model {args.model}")
    print(f"tokens: prompt={output.prompt_tokens} generated={output.generated_tokens}"
          f"  simulated={output.simulated_seconds:.0f}s wall={output.wall_seconds:.2f}s")
    if args.verbose:
        total = output.wall_seconds or 1.0
        print("stage timings:")
        for stage, seconds in output.timings.items():
            print(f"  {stage:<13} {seconds * 1000:9.2f} ms  "
                  f"{seconds / total:6.1%}")
    if tracer is not None:
        from repro.observability import render_span_tree

        print("trace:")
        for root in tracer.collector.drain():
            print(render_span_tree(root))
    if actual is not None:
        from repro.metrics import rmse

        for k, name in enumerate(dataset.dim_names):
            print(f"  RMSE[{name}] = {rmse(actual[:, k], output.values[:, k]):.4f}")
    if args.plot:
        series = {"forecast": output.values[:, 0]}
        if actual is not None:
            series = {"actual": actual[:, 0], **series}
        print(ascii_plot(series, title=f"{dataset.dim_names[0]}"))
    if args.output:
        save_csv(
            Dataset(f"{dataset.name}_forecast", output.values, dataset.dim_names),
            args.output,
        )
        print(f"forecast written to {args.output}")
    return 0


def _command_evaluate(args) -> int:
    dataset = _DATASETS[args.dataset]()
    num_samples = _resolve_samples(args)
    rows = []
    for method in args.methods:
        options = {}
        if method.startswith("multicast") or method == "llmtime":
            options["num_samples"] = num_samples
        result = evaluate_method(method, dataset, seed=args.seed, **options)
        rows.append([
            method,
            *(result.rmse_per_dim[name] for name in dataset.dim_names),
            f"{result.reported_seconds:.0f}s",
        ])
    print(format_table(
        ["method", *dataset.dim_names, "time"],
        rows,
        title=f"{dataset.name}: per-dimension RMSE (last 20% held out)",
    ))
    return 0


def _command_table(args) -> int:
    functions = _table_functions()
    num_samples = _resolve_samples(args)
    names = sorted(functions) if args.which == "all" else [args.which]
    for name in names:
        function = functions[name]
        if name == "i":
            print(function().format())
        else:
            print(function(num_samples=num_samples).format())
        print()
    return 0


def _command_figure(args) -> int:
    _ensure_writable(args.csv_out, "--csv-out")
    figure = _figure_functions()[args.which](num_samples=_resolve_samples(args))
    print(figure.render())
    if args.csv_out:
        figure.save_csv(args.csv_out)
        print(f"series written to {args.csv_out}")
    return 0


def _command_list(args) -> int:
    del args
    print("datasets:       " + "  ".join(sorted(_DATASETS)))
    print("methods:        " + "  ".join(available_methods()))
    print("backend models: " + "  ".join(available_models()))
    return 0


def _command_plan(args) -> int:
    from repro.core import plan_forecast

    dataset = _DATASETS[args.dataset]()
    horizon = args.horizon or max(1, dataset.num_timestamps // 5)
    num_samples = _resolve_samples(args)
    sax = None
    if args.sax_segment is not None:
        sax = SaxConfig(segment_length=args.sax_segment)
    config = MultiCastConfig(
        scheme=args.scheme, num_samples=num_samples, model=args.model, sax=sax
    )
    plan = plan_forecast(config, dataset.num_timestamps, dataset.num_dims, horizon)
    print(f"{dataset.name}: scheme={args.scheme} samples={num_samples} "
          f"horizon={horizon} sax={'on' if sax else 'off'}")
    print(f"  prompt tokens          {plan.prompt_tokens}")
    print(f"  generated tokens       {plan.generated_tokens}")
    print(f"  billing total          {plan.total_tokens} tokens")
    print(f"  simulated inference    {plan.simulated_seconds:.0f}s")
    print(f"  estimated cost         ${plan.usd:.4f}")
    return 0


def _command_backtest(args) -> int:
    from repro.evaluation import rolling_origin_evaluation

    dataset = _DATASETS[args.dataset]()
    num_samples = _resolve_samples(args)
    spec = None
    options = {}
    if args.method.startswith("multicast"):
        spec = ForecastSpec(
            num_samples=num_samples,
            strategy=args.strategy,
        )
    elif args.method == "llmtime":
        options["num_samples"] = num_samples
    result = rolling_origin_evaluation(
        args.method, dataset, horizon=args.horizon,
        num_windows=args.windows, seed=args.seed, spec=spec, **options,
    )
    mean, std = result.mean_rmse(), result.std_rmse()
    print(f"{args.method} on {dataset.name}: {result.num_windows} windows "
          f"of {args.horizon} (origins {result.origins})")
    for name in dataset.dim_names:
        print(f"  RMSE[{name}] = {mean[name]:.4f} ± {std[name]:.4f}")
    return 0


def _command_batch(args) -> int:
    import dataclasses
    import json

    from repro.exceptions import ConfigError
    from repro.serving import ForecastCache, ForecastEngine, load_manifest

    _ensure_writable(args.metrics_out, "--metrics-out")
    _ensure_writable(args.ledger, "--ledger")
    jobs = load_manifest(args.manifest)
    requests = []
    for job in jobs:
        if job.csv is not None:
            series = np.asarray(load_csv(job.csv).values)
        elif job.dataset in _DATASETS:
            series = np.asarray(_DATASETS[job.dataset]().values)
        else:
            raise ConfigError(
                f"job {job.name!r}: unknown dataset {job.dataset!r}; "
                f"available: {', '.join(sorted(_DATASETS))}"
            )
        request = job.to_request(series)
        if args.strategy is not None:
            request = dataclasses.replace(
                request,
                config=dataclasses.replace(request.config, strategy=args.strategy),
            )
        requests.append(request)

    cache = ForecastCache(max_entries=0) if args.no_cache else None
    tracer = None
    if args.trace:
        from repro.observability import SpanCollector, Tracer

        tracer = Tracer(SpanCollector())
    failed = 0
    with ForecastEngine(
        cache=cache,
        max_concurrent_requests=args.request_concurrency,
        tracer=tracer,
        ledger=args.ledger,
    ) as engine:
        for round_index in range(max(1, args.repeat)):
            if args.repeat > 1:
                print(f"pass {round_index + 1}/{args.repeat}:")
            responses = engine.forecast_batch(requests)
            for response in responses:
                print(f"  {response.summary()}")
            failed = sum(1 for r in responses if not r.ok)
        stats = engine.cache.stats
        print(f"jobs: {len(requests)}  failed: {failed}  "
              f"cache: {stats['hits']} hits / {stats['misses']} misses")
        if args.metrics_out:
            with open(args.metrics_out, "w") as handle:
                json.dump(engine.metrics_snapshot(), handle, indent=2)
            print(f"metrics written to {args.metrics_out}")
        if args.ledger:
            print(f"ledger: {engine.ledger.records_written} records "
                  f"appended to {args.ledger}")
    return 1 if failed else 0


def _command_serve(args) -> int:
    import asyncio
    import json

    from repro.exceptions import ConfigError
    from repro.gateway import (
        ForecastGateway,
        Overloaded,
        QuotaExceeded,
        TenantQuota,
    )
    from repro.serving import ForecastEngine, load_manifest

    _ensure_writable(args.metrics_out, "--metrics-out")
    _ensure_writable(args.ledger, "--ledger")
    jobs = load_manifest(args.manifest)
    requests = []
    for job in jobs:
        if job.csv is not None:
            series = np.asarray(load_csv(job.csv).values)
        elif job.dataset in _DATASETS:
            series = np.asarray(_DATASETS[job.dataset]().values)
        else:
            raise ConfigError(
                f"job {job.name!r}: unknown dataset {job.dataset!r}; "
                f"available: {', '.join(sorted(_DATASETS))}"
            )
        requests.append(job.to_request(series))

    quota = (
        TenantQuota(rate=args.quota_rate, burst=args.quota_burst)
        if args.quota_rate is not None
        else None
    )
    if args.shards > 0:
        from repro.sharding import ShardedEngine

        engine = ShardedEngine(num_shards=args.shards, ledger=args.ledger)
    else:
        engine = ForecastEngine(
            max_concurrent_requests=args.request_concurrency,
            ledger=args.ledger,
        )

    async def _serve_all() -> int:
        rejected = 0
        failed = 0
        async with ForecastGateway(
            engine,
            max_pending=args.max_pending,
            default_quota=quota,
            coalesce=not args.no_coalesce,
        ) as gateway:
            handles = []
            for request in requests:
                try:
                    handles.append(await gateway.submit(request))
                except (Overloaded, QuotaExceeded) as error:
                    rejected += 1
                    print(f"  {request.name or 'request'}: REJECTED {error}")
            for handle in handles:
                response = await gateway.result(handle)
                flags = " [coalesced]" if handle.coalesced else ""
                print(f"  {response.summary()}{flags}")
                if not response.ok:
                    failed += 1
            stats = gateway.stats()["admission"]
        print(f"jobs: {len(requests)}  failed: {failed}  "
              f"rejected: {rejected}  shed: {stats['shed']}  "
              f"quota: {stats['quota_rejected']}")
        return 1 if (failed or rejected) else 0

    try:
        code = asyncio.run(_serve_all())
        if args.metrics_out:
            with open(args.metrics_out, "w") as handle:
                json.dump(engine.metrics_snapshot(), handle, indent=2)
            print(f"metrics written to {args.metrics_out}")
        if args.ledger:
            print(f"ledger: {engine.ledger.records_written} records "
                  f"appended to {args.ledger}")
    finally:
        engine.close()
    return code


def _command_loadtest(args) -> int:
    import json

    from repro.loadtest import LoadTestConfig, run_loadtest

    _ensure_writable(args.json_out, "--json-out")
    _ensure_writable(args.ledger_out, "--ledger-out")
    config = LoadTestConfig(
        requests=args.requests,
        driver=args.driver,
        rate=args.rate,
        concurrency=args.concurrency,
        ledger_path=args.replay_ledger,
        distinct=args.distinct,
        seed=args.seed,
        horizon=args.horizon,
        num_samples=_resolve_samples(args, default=2),
        model=args.model,
        deadline_seconds=args.deadline,
        max_pending=args.max_pending,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        coalesce=not args.no_coalesce,
        use_result_cache=not args.no_cache,
        ledger_out=args.ledger_out,
        shards=args.shards,
    )
    report = run_loadtest(config)
    print(report.summary())
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print(f"report written to {args.json_out}")
    return 0


def _command_ledger(args) -> int:
    import json

    from repro.observability import summarize_ledger

    summary = summarize_ledger(args.file)
    if args.json:
        print(json.dumps(summary.to_dict(), indent=2))
    else:
        print(summary.format())
    return 0


def _parse_sweep_value(text: str):
    """A CLI sweep value: bool/None/int/float when it parses, else str."""
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            continue
    return text.strip()


def _parse_sweep_assignments(entries, *, flag: str, multi: bool) -> dict:
    """``KEY=V1,V2`` flags into a space/fixed dict for SweepSpec."""
    parsed: dict = {}
    for entry in entries:
        key, separator, value = entry.partition("=")
        if not separator or not key.strip() or not value.strip():
            raise ReproError(
                f"{flag} expects KEY=VALUE{',VALUE...' if multi else ''}, "
                f"got {entry!r}"
            )
        values = [_parse_sweep_value(v) for v in value.split(",")]
        parsed[key.strip()] = values if multi else values[0]
    return parsed


def _command_sweep(args) -> int:
    import json

    from repro.sweeps import SweepRunner, SweepSpec

    if args.resume and args.ledger is None:
        raise ReproError("--resume needs --ledger (the record of done trials)")
    sweep = SweepSpec(
        method=args.method,
        space=_parse_sweep_assignments(args.param, flag="--param", multi=True),
        search=args.search,
        num_trials=args.trials,
        seed=args.seed,
        horizon=args.horizon,
        num_windows=args.windows,
        stride=args.stride,
        num_rungs=args.rungs,
        eta=args.eta,
        fixed=_parse_sweep_assignments(args.fixed, flag="--fixed", multi=False),
    )
    series = np.asarray(_DATASETS[args.dataset]().values)
    runner_kwargs = {"ledger": args.ledger} if args.ledger else {}
    if args.shards > 0 and args.method.startswith("multicast-"):
        from repro.sharding import ShardedEngine

        with ShardedEngine(num_shards=args.shards) as engine:
            report = SweepRunner(engine, **runner_kwargs).run(
                sweep, series, resume=args.resume
            )
    else:
        report = SweepRunner(**runner_kwargs).run(
            sweep, series, resume=args.resume
        )
    print(report.format())
    if args.json_out:
        _ensure_writable(args.json_out, "--json-out")
        with open(args.json_out, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
    return 0


_COMMANDS = {
    "forecast": _command_forecast,
    "evaluate": _command_evaluate,
    "table": _command_table,
    "figure": _command_figure,
    "plan": _command_plan,
    "backtest": _command_backtest,
    "batch": _command_batch,
    "serve": _command_serve,
    "loadtest": _command_loadtest,
    "ledger": _command_ledger,
    "sweep": _command_sweep,
    "list": _command_list,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        # filesystem problems with user-supplied paths (unwritable output,
        # a directory where a file was expected) are user errors, not bugs.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
