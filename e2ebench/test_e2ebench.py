"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest e2ebench -q

The short mode (``--short``) drives every workload, traced and untraced,
through every guard in a few seconds each; the unit tests check that the
guards fail on the inputs they exist to catch.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SHORT_SECONDS = "3"


def invoke(*args, cwd=ROOT, timeout=180):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout, check=False,
    )


_RUNS: dict[tuple, tuple] = {}


def short_run(workload: str, trace: int, seed: int = 3, *, fresh: bool = False):
    """``(result, detail)`` of one short run, memoised unless ``fresh``."""
    key = (workload, trace, seed)
    if fresh or key not in _RUNS:
        completed = invoke(
            "--workload", workload, "--seed", str(seed),
            "--seconds", SHORT_SECONDS, "--trace", str(trace), "--short",
        )
        assert completed.returncode == 0, completed.stderr[-3000:]
        lines = completed.stdout.strip().splitlines()
        _RUNS[key] = (json.loads(lines[-1]), json.loads(lines[-2])["detail"])
    return _RUNS[key]


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["command"] == ["python3", "e2ebench/run.py"]
    assert spec["paths"] == ["e2ebench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_short_run_is_correct_and_complete(workload, trace):
    result, detail = short_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2 * run.SHORT.count_window
    expected = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(detail["guards"].values()) and detail["guards"]
    assert detail["inputs_digest"] == Workload(workload, 3).inputs_digest(
        run.SHORT.count_window
    )
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["gateway.shed_total"] == metrics["gateway.coalesced_total"] == 0
        assert metrics["serving.result_cache_hit_ratio"] == 0
        if workload == "zero-shot":
            assert metrics["llm.prefix_reuse_ratio"] == 0
        if workload == "backtest":
            assert metrics["llm.prefix_reuse_ratio"] > 0
    else:
        assert result["metrics"]["digest_match_rate"]["value"] == 1.0
        assert result["metrics"]["success_rate"]["value"] == 1.0


COUNT_METRICS = (
    "llm.prefix_reuse_ratio",
    "llm.ingested_tokens_per_request",
    "llm.generated_tokens_per_request",
    "llm.batch_occupancy_mean",
    "llm.groups_per_stream",
    "core.prompt_tokens_per_request",
    "sharding.bytes_per_request",
    "sharding.dispatch_imbalance",
)


@pytest.mark.parametrize("workload", ["backtest", "sax-sharded"])
def test_count_metrics_repeat_exactly_for_one_seed(workload):
    first, _ = short_run(workload, 1)
    repeat, _ = short_run(workload, 1, fresh=True)
    for name in COUNT_METRICS:
        assert repeat["metrics"][name] == first["metrics"][name], name


def test_all_runs_every_workload_in_one_command_each_in_its_own_process():
    completed = invoke(
        "--workload", "all", "--seed", "3", "--seconds", SHORT_SECONDS,
        "--trace", "0", "--short",
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    lines = [json.loads(line) for line in completed.stdout.strip().splitlines()]
    details = [line["detail"] for line in lines if "detail" in line]
    results = [line for line in lines if "correct" in line]
    assert [detail["workload"] for detail in details] == list(WORKLOADS)
    assert [result["correct"] for result in results] == [True] * len(WORKLOADS)
    # Peak memory never falls within a process, so each workload must run
    # in a process of its own to report its own peak.
    assert len({detail["pid"] for detail in details}) == len(WORKLOADS)
    for name, result in zip(WORKLOADS, results):
        alone, _ = short_run(name, 0)
        assert result["metrics"]["peak_rss_mb"]["value"] == pytest.approx(
            alone["metrics"]["peak_rss_mb"]["value"], rel=0.1
        ), name


def test_backtest_window_lengths_do_not_depend_on_run_length():
    workload = Workload("backtest", 0)
    cycle = 6 * 40
    lengths = [len(workload.history(index)) for index in range(2 * cycle)]
    assert min(lengths) == 100 and max(lengths) == 139
    assert lengths[:cycle] == lengths[cycle:]
    assert sum(lengths[:cycle]) / cycle == pytest.approx(119.5)
    # A window extends its predecessor, but a series' first window after
    # the wrap is a fresh series, not a replay of an earlier prompt.
    assert (workload.history(6)[:100] == workload.history(0)).all()
    assert not (workload.history(cycle)[:100] == workload.history(0)).all()
    assert [index % 3 for index in range(2 * cycle)] == [
        workload_dataset(workload, index) for index in range(2 * cycle)
    ]


def workload_dataset(workload, index):
    """Which paper dataset request ``index`` of ``workload`` comes from."""
    return {2: 0, 3: 1, 4: 2}[workload.history(index).shape[1]]


def session_members(session_id: int) -> list[str]:
    """``pid state`` of every process, zombies included, in a session."""
    members = []
    for stat_path in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat_path.read_text()
        except OSError:
            continue
        fields = text.rsplit(")", 1)[1].split()
        # After the command name: state, ppid, pgrp, session.
        if int(fields[3]) == session_id:
            members.append(f"{stat_path.parent.name} {fields[0]}")
    return members


def test_leaves_no_process_behind():
    # In a session of its own, everything the run starts (shard workers,
    # set-up probes, their resource trackers) is traceable after it exits.
    child = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "sax-sharded",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--short"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert child.wait(timeout=180) == 0
    assert session_members(child.pid) == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "zero-shot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


# -- guards fail on what they exist to catch ----------------------------------


def fake_phase(outputs, *, cache_hit=False):
    """A phase of ok samples over ``outputs``."""
    samples = []
    for index, output in enumerate(outputs):
        response = types.SimpleNamespace(
            ok=True, partial=False, cache_hit=cache_hit, output=output,
            request=types.SimpleNamespace(name=f"req-{index}"),
        )
        samples.append(types.SimpleNamespace(index=index, ok=True, response=response))
    return types.SimpleNamespace(
        samples=samples,
        attempted=len(samples),
        completed=len(samples),
        by_index=lambda: {s.index: s for s in samples},
    )


def fake_output(prompt=10, ingested=10):
    return types.SimpleNamespace(
        prompt_tokens=prompt, metadata={"ingested_tokens": ingested}
    )


def guards_for(workload, phase, *, before=None, after=None, count_window=4):
    scale = run.Scale(count_window=count_window)
    result = run.PhaseResult(
        phase=phase,
        snapshot_before=before or {"ingest_cache": {"evictions": 0}},
        snapshot_after=after or {"ingest_cache": {"evictions": 1}},
        rss_mb=1.0, dispatched=[], ledger_records=[],
    )
    guards = run.Guards()
    run.check_phase(guards, Workload(workload, 0), result, scale)
    return guards.results


def test_guards_pass_on_a_clean_phase():
    assert all(guards_for("zero-shot", fake_phase([fake_output()] * 4)).values())


def test_cache_hit_replay_fails_the_run():
    results = guards_for("zero-shot", fake_phase([fake_output()] * 4, cache_hit=True))
    assert results["result_cache_hit_ratio_zero"] is False


def test_coalescing_or_shedding_fails_the_run():
    after = {
        "ingest_cache": {"evictions": 1},
        "gateway_coalesced_total": {"type": "counter", "value": 2.0},
        "gateway_shed_total": {"type": "counter", "value": 1.0},
    }
    results = guards_for("zero-shot", fake_phase([fake_output()] * 4), after=after)
    assert results["coalesced_total_zero"] is False
    assert results["shed_total_zero"] is False


def test_zero_shot_prefix_reuse_or_no_eviction_fails_the_run():
    reused = fake_phase([fake_output(), fake_output(ingested=4)] * 2)
    assert guards_for("zero-shot", reused)["zero_shot_prefix_reuse_zero"] is False
    no_eviction = {"ingest_cache": {"evictions": 0}}
    results = guards_for(
        "zero-shot", fake_phase([fake_output()] * 4), after=no_eviction
    )
    assert results["zero_shot_ingest_cache_evicted"] is False


def test_too_few_requests_fails_the_run():
    results = guards_for("zero-shot", fake_phase([fake_output()] * 3))
    assert results["completed_at_least_count_window"] is False


def test_a_request_waits_for_its_dependency_and_order_holds():
    class SlowFirstGateway:
        async def submit(self, request, tenant):
            return request

        async def result(self, handle):
            await asyncio.sleep(0.05 if handle == 0 else 0.001)
            return types.SimpleNamespace(ok=True, partial=False)

    phase = asyncio.run(loadgen.closed_loop(
        SlowFirstGateway(), lambda index: index, seconds=0, min_requests=8,
        clients=2, depends_on=lambda index: index - 2 if index >= 2 else None,
    ))
    by_index = phase.by_index()
    assert sorted(by_index) == list(range(8))
    assert phase.dependency_waits >= 1
    for index in range(2, 8):
        assert by_index[index - 2].completed_at <= by_index[index].submitted_at
    submitted = sorted(by_index.values(), key=lambda sample: sample.submitted_at)
    assert [sample.index for sample in submitted] == list(range(8))


def test_self_seconds_subtracts_the_union_of_children():
    def span(start, end, children=()):
        return types.SimpleNamespace(
            start_time=start, end_time=end, duration=end - start,
            children=list(children),
        )

    parent = span(0.0, 10.0, [span(1.0, 3.0), span(2.0, 4.0), span(8.0, 12.0)])
    assert layers.self_seconds(parent) == pytest.approx(10.0 - 3.0 - 2.0)
