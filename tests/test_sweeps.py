"""Tests for repro.sweeps: expansion, running, halving, resume, scale."""

import json

import numpy as np
import pytest

from repro.core import ForecastSpec
from repro.exceptions import ConfigError
from repro.sweeps import (
    KNOB_ALIASES,
    SweepRunner,
    SweepSpec,
    expand_trials,
)

RNG = np.random.default_rng(21)
SERIES = np.cumsum(RNG.normal(size=(48, 2)), axis=0) + 30.0


def _mc_sweep(**overrides):
    kwargs = dict(
        method="multicast-vi",
        space={"b": [1, 2], "num_samples": [1]},
        horizon=3,
        num_windows=2,
        fixed={"model": "uniform-sim"},
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestSweepSpec:
    def test_paper_aliases_canonicalize(self):
        sweep = _mc_sweep(space={"b": [1], "w": [2], "a": [4]})
        assert set(sweep.space) == {
            KNOB_ALIASES["b"], KNOB_ALIASES["w"], KNOB_ALIASES["a"]
        }

    def test_unknown_multicast_knob_rejected(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            _mc_sweep(space={"learning_rate": [0.1]})

    def test_unknown_baseline_param_rejected(self):
        with pytest.raises(ConfigError, match="alpha"):
            SweepSpec(method="lstm", space={"alpha": [0.1]})

    def test_alias_collision_rejected(self):
        with pytest.raises(ConfigError, match="twice"):
            _mc_sweep(space={"b": [1], "num_digits": [2]})

    def test_space_and_fixed_overlap_rejected(self):
        with pytest.raises(ConfigError, match="both space and fixed"):
            _mc_sweep(space={"b": [1]}, fixed={"num_digits": 3})

    def test_grid_num_trials_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="exactly 2"):
            _mc_sweep(num_trials=5)

    def test_random_requires_num_trials(self):
        with pytest.raises(ConfigError, match="num_trials"):
            _mc_sweep(search="random")

    def test_sweep_id_is_content_addressed(self):
        assert _mc_sweep().sweep_id == _mc_sweep().sweep_id
        assert _mc_sweep().sweep_id != _mc_sweep(seed=1).sweep_id

    def test_windows_for_rung_allocation(self):
        sweep = _mc_sweep(num_windows=9, num_rungs=3, eta=3)
        assert [sweep.windows_for_rung(r) for r in range(3)] == [1, 3, 9]

    def test_template_folds_sax_keys(self):
        sweep = _mc_sweep(
            fixed={"model": "uniform-sim", "sax.segment_length": 3}
        )
        template = sweep.spec_template()
        assert template.sax.segment_length == 3
        assert template.series is None


class TestExpansion:
    def test_grid_expansion_is_deterministic(self):
        sweep = _mc_sweep(space={"b": [1, 2, 3], "num_samples": [1, 2]})
        first = expand_trials(sweep)
        second = expand_trials(sweep)
        assert first == second
        assert len(first) == 6 == sweep.total_trials

    def test_random_expansion_is_seeded(self):
        sweep = _mc_sweep(
            space={"b": [1, 2, 3, 4]}, search="random", num_trials=10
        )
        assert expand_trials(sweep) == expand_trials(sweep)
        other = _mc_sweep(
            space={"b": [1, 2, 3, 4]}, search="random", num_trials=10, seed=9
        )
        assert expand_trials(other) != expand_trials(sweep)

    def test_trial_seed_depends_only_on_content(self):
        sweep = _mc_sweep(space={"b": [1, 2]})
        reordered = _mc_sweep(space={"b": [2, 1]})
        by_digest = {t.trial_digest: t.seed for t in expand_trials(sweep)}
        for trial in expand_trials(reordered):
            assert by_digest[trial.trial_digest] == trial.seed


class TestSpecTemplateEdgeCases:
    """The ForecastSpec.replace/template behaviors sweeps lean on."""

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="not_a_field"):
            ForecastSpec(num_samples=2).replace(not_a_field=1)

    def test_sweep_rejects_sample_alias(self):
        with pytest.raises(ConfigError, match="n_samples"):
            _mc_sweep(space={"b": [1, 2], "n_samples": [1]})
        with pytest.raises(ConfigError, match="n_samples"):
            _mc_sweep(fixed={"n_samples": 1})

    def test_replace_revalidates_fields(self):
        with pytest.raises(Exception):
            ForecastSpec().replace(scheme="warp-speed")

    def test_template_binds_series_and_horizon(self):
        template = ForecastSpec(num_samples=1)
        bound = template.replace(series=SERIES, horizon=2, seed=4)
        assert bound.series.shape == SERIES.shape
        assert bound.horizon == 2
        assert template.series is None

    def test_backtest_rejects_bound_spec_naming_fields(self):
        from repro.data import gas_rate
        from repro.evaluation import rolling_origin_evaluation

        with pytest.raises(ConfigError, match="series.*horizon"):
            rolling_origin_evaluation(
                "multicast-vi",
                gas_rate(),
                horizon=4,
                spec=ForecastSpec(series=SERIES, horizon=4),
            )


class TestSweepRunner:
    def test_run_scores_and_records_every_trial(self, tmp_path):
        ledger = tmp_path / "run.jsonl"
        sweep = _mc_sweep()
        report = SweepRunner(ledger=str(ledger)).run(sweep, SERIES)
        assert report.num_trials == 2
        assert report.trials_run == 2
        assert report.best_params is not None
        records = [json.loads(line) for line in ledger.read_text().splitlines()]
        assert len(records) == 2
        for record in records:
            assert record["kind"] == "sweep_trial"
            assert record["sweep_id"] == sweep.sweep_id
            assert record["outcome"] == "ok"
            assert record["rung"] == 0
            assert record["trial_digest"]

    def test_same_seed_is_deterministic(self, tmp_path):
        sweep = _mc_sweep(space={"b": [1, 2, 3]})
        one = SweepRunner(ledger=str(tmp_path / "a.jsonl")).run(sweep, SERIES)
        two = SweepRunner(ledger=str(tmp_path / "b.jsonl")).run(sweep, SERIES)
        assert one.best_index == two.best_index
        assert one.best_score == two.best_score
        assert [t.scores for t in one.trials] == [t.scores for t in two.trials]

    def test_ledger_optional_for_plain_runs(self):
        report = SweepRunner().run(_mc_sweep(), SERIES)
        assert report.trials_run == 2

    def test_resume_without_ledger_rejected(self):
        with pytest.raises(ConfigError, match="ledger"):
            SweepRunner().run(_mc_sweep(), SERIES, resume=True)

    def test_baseline_sweep_runs_without_engine(self, tmp_path):
        sweep = SweepSpec(
            method="lstm",
            space={"window": [3, 4]},
            fixed={"hidden_size": 4, "epochs": 1, "batch_size": 8},
            horizon=3,
            num_windows=2,
        )
        report = SweepRunner(ledger=str(tmp_path / "l.jsonl")).run(
            sweep, SERIES
        )
        assert report.trials_run == 2
        assert report.best_params["window"] in (3, 4)

    def test_failed_trials_are_recorded_not_fatal(self, tmp_path):
        # alphabet_size=1 is an invalid SAX alphabet -> per-trial error.
        sweep = _mc_sweep(space={"a": [1, 4], "num_samples": [1]})
        ledger = tmp_path / "l.jsonl"
        report = SweepRunner(ledger=str(ledger)).run(sweep, SERIES)
        assert report.trials_failed == 1
        assert report.best_params is not None
        outcomes = {
            json.loads(line)["outcome"]
            for line in ledger.read_text().splitlines()
        }
        assert outcomes == {"ok", "error"}

    def test_successive_halving_prunes_and_records_rungs(self, tmp_path):
        sweep = _mc_sweep(
            space={"b": [1, 2, 3, 4]},
            num_windows=4,
            num_rungs=2,
            eta=2,
        )
        ledger = tmp_path / "l.jsonl"
        report = SweepRunner(ledger=str(ledger)).run(sweep, SERIES)
        pruned = [t for t in report.trials if t.outcome == "pruned"]
        survivors = [t for t in report.trials if 1 in t.scores]
        assert len(survivors) == 2
        assert len(pruned) == 2
        records = [json.loads(line) for line in ledger.read_text().splitlines()]
        assert sum(r["rung"] == 0 for r in records) == 4
        assert sum(r["rung"] == 1 for r in records) == 2

    def test_marginals_cover_every_swept_knob(self):
        report = SweepRunner().run(
            _mc_sweep(space={"b": [1, 2], "a": [4, 5]}), SERIES
        )
        assert set(report.marginals) == {"num_digits", "sax.alphabet_size"}


class TestResume:
    def test_kill_mid_sweep_then_resume_runs_only_the_rest(self, tmp_path):
        sweep = _mc_sweep(space={"b": [1, 2, 3, 4], "num_samples": [1, 2]})
        total = sweep.total_trials
        clean = SweepRunner(ledger=str(tmp_path / "clean.jsonl")).run(
            sweep, SERIES
        )

        ledger = tmp_path / "crash.jsonl"
        seen = []

        class Killed(RuntimeError):
            pass

        def killer(trial, rung, score):
            seen.append(trial.index)
            if len(seen) == 3:
                raise Killed()

        with pytest.raises(Killed):
            SweepRunner(ledger=str(ledger)).run(
                sweep, SERIES, on_trial=killer
            )
        # The ledger append happens before the callback: all three
        # completed trials survived the crash.
        assert len(ledger.read_text().splitlines()) == 3

        resumed = SweepRunner(ledger=str(ledger)).run(
            sweep, SERIES, resume=True
        )
        assert resumed.trials_resumed == 3
        assert resumed.trials_run == total - 3
        assert resumed.best_index == clean.best_index
        assert resumed.best_score == clean.best_score
        assert [t.scores for t in resumed.trials] == [
            t.scores for t in clean.trials
        ]
        # A second resume re-executes nothing at all.
        again = SweepRunner(ledger=str(ledger)).run(
            sweep, SERIES, resume=True
        )
        assert again.trials_run == 0
        assert again.trials_resumed == total
        assert again.best_index == clean.best_index

    def test_resume_ignores_other_sweeps_records(self, tmp_path):
        ledger = tmp_path / "shared.jsonl"
        SweepRunner(ledger=str(ledger)).run(_mc_sweep(), SERIES)
        other = _mc_sweep(seed=5)
        report = SweepRunner(ledger=str(ledger)).run(
            other, SERIES, resume=True
        )
        assert report.trials_resumed == 0
        assert report.trials_run == other.total_trials


class TestScale:
    """The acceptance scenario: a 200-trial sweep through shards."""

    def test_200_trials_sharded_matches_single_process(self, tmp_path):
        from repro.sharding import ShardedEngine

        mc_sweep = SweepSpec(
            method="multicast-vi",
            space={
                "b": [1, 2, 3, 4],
                "a": [3, 4, 5, 6],
                "num_samples": [1, 2],
                "temperature": [0.5, 1.0, 1.5],
                "w": [2, 3],
            },
            horizon=2,
            num_windows=1,
            fixed={"model": "uniform-sim"},
        )
        lstm_sweep = SweepSpec(
            method="lstm",
            space={
                "window": [3, 4],
                "hidden_size": [4, 8],
                "learning_rate": [0.01, 0.05],
            },
            fixed={"epochs": 1, "batch_size": 8},
            horizon=2,
            num_windows=1,
        )
        assert mc_sweep.total_trials + lstm_sweep.total_trials >= 200

        sharded_ledger = tmp_path / "sharded.jsonl"
        with ShardedEngine(num_shards=2) as engine:
            runner = SweepRunner(engine, ledger=str(sharded_ledger))
            sharded = runner.run(mc_sweep, SERIES)
            lstm_report = runner.run(lstm_sweep, SERIES)

        # One ledger record per trial, tagged with digest/sweep_id/rung.
        records = [
            json.loads(line)
            for line in sharded_ledger.read_text().splitlines()
        ]
        assert len(records) == mc_sweep.total_trials + lstm_sweep.total_trials
        for record in records:
            assert record["kind"] == "sweep_trial"
            assert record["sweep_id"] in (
                mc_sweep.sweep_id, lstm_sweep.sweep_id
            )
            assert record["trial_digest"]
            assert record["rung"] == 0
        digests = [
            r["trial_digest"]
            for r in records
            if r["sweep_id"] == mc_sweep.sweep_id
        ]
        assert len(set(digests)) == mc_sweep.total_trials

        # Single-process run: identical trials, scores, and best config.
        local = SweepRunner(ledger=str(tmp_path / "local.jsonl")).run(
            mc_sweep, SERIES
        )
        assert local.best_index == sharded.best_index
        assert local.best_score == sharded.best_score
        assert local.best_params == sharded.best_params
        assert [t.scores for t in local.trials] == [
            t.scores for t in sharded.trials
        ]
        assert lstm_report.best_params is not None
