"""Tests for the load-test harness: workloads, drivers, reports."""

import json

import pytest

from repro.exceptions import ConfigError
from repro.loadtest import (
    LoadTestConfig,
    RequestSample,
    SLOThresholds,
    build_report,
    replay_workload,
    run_loadtest,
    synthesize_workload,
)
from repro.serving import forecast_digest


def _digest(item):
    spec = item.spec
    return forecast_digest(spec.series, spec.config, spec.horizon, spec.seed)


# -- workloads -----------------------------------------------------------------


def test_synthesize_workload_is_deterministic():
    first = synthesize_workload(40, distinct=5, seed=9)
    second = synthesize_workload(40, distinct=5, seed=9)
    assert [_digest(a) for a in first] == [_digest(b) for b in second]
    assert [a.tenant for a in first] == [b.tenant for b in second]


def test_synthesize_workload_repeats_distinct_shapes():
    items = synthesize_workload(60, distinct=4, seed=1)
    assert len(items) == 60
    assert len({_digest(item) for item in items}) == 4
    assert {item.tenant for item in items} == {"alpha", "beta", "gamma"}


def test_synthesize_workload_validates_arguments():
    with pytest.raises(ConfigError):
        synthesize_workload(0)
    with pytest.raises(ConfigError):
        synthesize_workload(10, distinct=0)


def _write_ledger(path, records):
    path.write_text(
        "".join(json.dumps(record) + "\n" for record in records)
    )


def test_replay_workload_preserves_duplicate_structure(tmp_path):
    ledger = tmp_path / "runs.jsonl"
    base = {
        "seed": 7, "horizon": 5, "model": "uniform-sim", "scheme": "vi",
        "tenant": "team-a", "admission": "admitted",
    }
    _write_ledger(
        ledger,
        [
            {**base, "name": "r0", "config_hash": "ab" * 32},
            {**base, "name": "r1", "config_hash": "cd" * 32},
            {**base, "name": "r2", "config_hash": "ab" * 32},  # dup of r0
        ],
    )
    items = replay_workload(ledger)
    assert len(items) == 3
    assert _digest(items[0]) == _digest(items[2])  # collision survives replay
    assert _digest(items[0]) != _digest(items[1])
    assert items[0].tenant == "team-a"
    assert items[0].spec.horizon == 5


def test_replay_workload_skips_gateway_rejections(tmp_path):
    ledger = tmp_path / "runs.jsonl"
    _write_ledger(
        ledger,
        [
            {"seed": 1, "horizon": 3, "config_hash": "11" * 32,
             "admission": "admitted"},
            {"seed": 2, "horizon": 3, "config_hash": "22" * 32,
             "admission": "shed"},
            {"seed": 3, "horizon": 3, "config_hash": "33" * 32,
             "admission": "quota"},
        ],
    )
    items = replay_workload(ledger)
    assert len(items) == 1


def test_replay_workload_repeat_scales_small_ledgers(tmp_path):
    ledger = tmp_path / "runs.jsonl"
    _write_ledger(
        ledger,
        [{"seed": 1, "horizon": 3, "config_hash": "aa" * 32}],
    )
    assert len(replay_workload(ledger, repeat=5)) == 5
    with pytest.raises(ConfigError):
        replay_workload(tmp_path / "missing.jsonl")


# -- report --------------------------------------------------------------------


def _sample(outcome="ok", latency=0.01, **kwargs):
    defaults = dict(
        name="s", tenant="t", outcome=outcome, latency_seconds=latency,
        deadline_hit=outcome == "ok",
    )
    defaults.update(kwargs)
    return RequestSample(**defaults)


def test_build_report_rates_and_percentiles():
    samples = (
        [_sample(latency=0.010)] * 6
        + [_sample("shed", latency=0.0)] * 2
        + [_sample("quota", latency=0.0)]
        + [_sample("ok", latency=0.020, coalesced=True)]
    )
    report = build_report(samples, wall_seconds=1.0)
    assert report.total == 10
    assert report.shed_rate == pytest.approx(0.2)
    assert report.quota_rate == pytest.approx(0.1)
    assert report.coalesce_rate == pytest.approx(0.1)
    assert report.deadline_hit_rate == pytest.approx(0.7)
    # Percentiles cover served requests only, so rejections don't drag
    # them toward zero.
    assert report.latency_p50 == pytest.approx(0.010)
    assert report.throughput_rps == pytest.approx(7.0)
    assert report.per_tenant["t"]["shed"] == 2


def test_report_slo_violations():
    report = build_report(
        [_sample()] * 8 + [_sample("shed", latency=0.0)] * 2, 1.0
    )
    clean = SLOThresholds()
    assert report.violations(clean) == []
    strict = SLOThresholds(
        min_deadline_hit_rate=0.95, max_shed_rate=0.1, max_p99_seconds=0.001
    )
    messages = report.violations(strict)
    assert len(messages) == 3
    assert any("shed rate" in message for message in messages)


def test_build_report_requires_samples():
    with pytest.raises(ValueError):
        build_report([], 1.0)


def test_report_round_trips_to_json():
    report = build_report([_sample()], 0.5)
    assert json.loads(json.dumps(report.to_dict()))["total"] == 1


# -- harness -------------------------------------------------------------------


def test_run_loadtest_open_loop_meets_slo_at_trivial_load():
    report = run_loadtest(
        LoadTestConfig(
            requests=60, rate=300.0, distinct=6, deadline_seconds=5.0
        )
    )
    assert report.total == 60
    assert report.violations(
        SLOThresholds(min_deadline_hit_rate=0.99, max_shed_rate=0.0)
    ) == []


def test_run_loadtest_closed_loop():
    report = run_loadtest(
        LoadTestConfig(requests=40, driver="closed", concurrency=4, distinct=4)
    )
    assert report.total == 40
    assert report.ok + report.failed == 40
    assert report.coalesce_rate + report.cache_hit_rate > 0


def test_run_loadtest_sheds_under_burst():
    report = run_loadtest(
        LoadTestConfig(
            requests=200,
            rate=100_000.0,
            distinct=200,  # all distinct: coalescing cannot absorb the burst
            max_pending=4,
            use_result_cache=False,
        )
    )
    assert report.shed > 0
    assert report.shed_rate > 0


def test_run_loadtest_replays_its_own_ledger(tmp_path):
    ledger_path = tmp_path / "run.jsonl"
    first = run_loadtest(
        LoadTestConfig(
            requests=30, rate=300.0, distinct=3, ledger_out=str(ledger_path)
        )
    )
    assert first.total == 30
    assert ledger_path.exists()
    replayed = run_loadtest(
        LoadTestConfig(requests=20, rate=300.0, ledger_path=str(ledger_path))
    )
    assert replayed.total == 20
    assert replayed.failed == 0


def test_run_loadtest_over_sharded_engine(tmp_path):
    ledger_path = tmp_path / "sharded.jsonl"
    report = run_loadtest(
        LoadTestConfig(
            requests=30,
            rate=300.0,
            distinct=5,
            shards=2,
            ledger_out=str(ledger_path),
        )
    )
    assert report.total == 30
    assert report.failed == 0
    records = [
        json.loads(line)
        for line in ledger_path.read_text().splitlines()
        if line.strip()
    ]
    served = [r for r in records if r["admission"] == "admitted"]
    assert served and all(r["shard"] in (0, 1) for r in served)


def test_loadtest_config_validates():
    with pytest.raises(ConfigError):
        LoadTestConfig(driver="sideways")
    with pytest.raises(ConfigError):
        LoadTestConfig(requests=0)
    with pytest.raises(ConfigError):
        LoadTestConfig(shards=-1)


def test_cli_loadtest_subcommand(tmp_path, capsys):
    from repro.cli import main

    json_out = tmp_path / "report.json"
    code = main(
        [
            "loadtest", "--requests", "40", "--rate", "400",
            "--distinct", "5", "--deadline", "5.0",
            "--json-out", str(json_out),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "deadline hit-rate" in out
    assert json.loads(json_out.read_text())["total"] == 40


def test_cli_serve_subcommand(tmp_path, capsys):
    from repro.cli import main

    manifest = tmp_path / "jobs.json"
    manifest.write_text(
        json.dumps(
            {
                "jobs": [
                    {"name": "a", "dataset": "gas_rate", "horizon": 4,
                     "num_samples": 2, "model": "uniform-sim",
                     "tenant": "alpha"},
                    {"name": "b", "dataset": "gas_rate", "horizon": 4,
                     "num_samples": 2, "model": "uniform-sim",
                     "tenant": "beta"},
                ]
            }
        )
    )
    ledger_path = tmp_path / "serve.jsonl"
    code = main(
        ["serve", "--manifest", str(manifest), "--ledger", str(ledger_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "[coalesced]" in out  # identical specs across tenants coalesce
    records = [
        json.loads(line) for line in ledger_path.read_text().splitlines()
    ]
    assert {record["admission"] for record in records} == {
        "admitted", "coalesced",
    }
