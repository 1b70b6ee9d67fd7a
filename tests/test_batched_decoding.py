"""Lockstep batched decoding and the ForecastSpec API.

Pins the tentpole contracts of the batched execution path:

* the three execution modes (``batched``, ``pooled``, ``sequential``) are
  **bit-identical** at the forecaster level, across schemes, SAX, and
  cold/warm ingest caches;
* the :class:`~repro.llm.batch.BatchedDecoder` equals per-stream
  sequential decoding token for token and log-prob for log-prob on every
  registered backend preset;
* scheduling behaviour — heterogeneous budgets, retirement, early stop —
  matches its documentation;
* slots whose constraint admits one id skip scoring in both decoders and
  still consume each stream's draw, with unchanged step telemetry;
* :class:`~repro.core.ForecastSpec` validates eagerly, stays frozen, and
  round-trips through the serving layer (engine, request, manifest, CLI).
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import ForecastSpec, MultiCastForecaster, SaxConfig
from repro.exceptions import ConfigError, DataError, GenerationError
from repro.llm import (
    BatchedDecoder,
    IngestStateCache,
    PeriodicPatternConstraint,
    SetConstraint,
    available_models,
    child_seeds,
    get_model,
)
from repro.observability import read_ledger
from repro.scheduling import ContinuousScheduler
from repro.serving import ForecastEngine, ForecastRequest, load_manifest

EXECUTIONS = ("batched", "pooled", "sequential")


def _history(n=36, d=2):
    t = np.arange(n, dtype=float)
    columns = [np.sin(t / 3.0) * 5.0 + 20.0, np.cos(t / 4.0) * 3.0 + 10.0]
    return np.stack(columns[:d], axis=1)


def _spec(**overrides):
    settings = dict(
        series=_history(), horizon=4, scheme="di", num_samples=3, seed=7
    )
    settings.update(overrides)
    return ForecastSpec(**settings)


class TestForecasterEquivalence:
    """All three execution modes produce byte-identical outputs."""

    @pytest.mark.parametrize("scheme", ["di", "vi", "vc"])
    @pytest.mark.parametrize("quantized", [False, True])
    def test_modes_bit_identical(self, scheme, quantized):
        sax = SaxConfig(segment_length=4, alphabet_size=5) if quantized else None
        spec = _spec(scheme=scheme, sax=sax)
        outputs = {
            mode: MultiCastForecaster().forecast(spec.replace(execution=mode))
            for mode in EXECUTIONS
        }
        reference = outputs["sequential"]
        for mode in ("batched", "pooled"):
            output = outputs[mode]
            assert output.values.tobytes() == reference.values.tobytes()
            assert output.samples.tobytes() == reference.samples.tobytes()
            assert output.generated_tokens == reference.generated_tokens
            assert output.simulated_seconds == reference.simulated_seconds
        assert outputs["batched"].metadata["execution"] == "batched"
        assert outputs["sequential"].metadata["execution"] == "sequential"

    def test_batched_warm_cache_identity(self):
        spec = _spec(scheme="vi")
        reference = MultiCastForecaster().forecast(
            spec.replace(execution="sequential")
        )
        cache = IngestStateCache()
        cold = MultiCastForecaster(state_cache=cache).forecast(spec)
        warm = MultiCastForecaster(state_cache=cache).forecast(spec)
        assert cold.metadata["ingest"] == "miss"
        assert warm.metadata["ingest"] == "fork"
        assert warm.metadata["ingested_tokens"] == 0
        for output in (cold, warm):
            assert output.values.tobytes() == reference.values.tobytes()
            assert output.samples.tobytes() == reference.samples.tobytes()

    @pytest.mark.parametrize("temperature", [0.0, 1.5])
    def test_temperature_extremes_stay_identical(self, temperature):
        # Greedy decoding (temperature 0) consumes no RNG at all; a hot
        # temperature splits the batch into many groups.  Both ends must
        # still match the sequential path exactly.
        spec = _spec(temperature=temperature, num_samples=4)
        batched = MultiCastForecaster().forecast(spec)
        sequential = MultiCastForecaster().forecast(
            spec.replace(execution="sequential")
        )
        assert batched.samples.tobytes() == sequential.samples.tobytes()

    def test_batched_metadata_reports_occupancy(self):
        output = MultiCastForecaster().forecast(_spec())
        occupancy = output.metadata["batch_occupancy"]
        groups = output.metadata["batch_groups"]
        assert len(occupancy) == len(groups) > 0
        assert occupancy[0] == 3  # every stream live at step one
        # Never more distinct model states than live streams.
        assert all(g <= o for g, o in zip(groups, occupancy))


class TestDecoderEquivalence:
    """BatchedDecoder == per-stream sequential decode on every preset."""

    CONTEXT = [1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4, 5, 1, 2, 3, 4, 5] * 2
    BUDGET = 6

    @pytest.mark.parametrize("preset", available_models())
    def test_presets_bit_identical(self, preset):
        llm = get_model(preset, vocab_size=8)
        seeds = child_seeds(np.random.default_rng(11), 4)
        constraint = SetConstraint({1, 2, 3, 4, 5})
        sequential = [
            llm.generate(
                self.CONTEXT,
                self.BUDGET,
                np.random.default_rng(seed),
                constraint=constraint,
            )
            for seed in seeds
        ]
        decoder = llm.generate_batch(
            self.CONTEXT,
            self.BUDGET,
            [np.random.default_rng(seed) for seed in seeds],
            constraint=constraint,
        )
        for result, expected in zip(decoder.results, sequential):
            assert result.tokens == expected.tokens
            assert result.log_probs == expected.log_probs
        assert decoder.steps == self.BUDGET
        assert not decoder.stopped

    def test_heterogeneous_budgets_retire_streams(self):
        llm = get_model("llama2-7b-sim", vocab_size=8)
        session = llm.prefill(self.CONTEXT)
        seeds = [101, 202, 303]
        budgets = [0, 3, 6]
        decoder = BatchedDecoder(
            session.model,
            [np.random.default_rng(seed) for seed in seeds],
            budgets,
        )
        decoder.decode()
        for result, budget, seed in zip(decoder.results, budgets, seeds):
            assert len(result.tokens) == budget
            expected = llm.generate(
                self.CONTEXT, budget, np.random.default_rng(seed)
            )
            assert result.tokens == expected.tokens
        # Zero-budget stream retires before the first scoring pass; the
        # three-token stream drops out mid-decode.
        assert decoder.occupancy[0] == 2
        assert decoder.occupancy == sorted(decoder.occupancy, reverse=True)
        assert decoder.steps == max(budgets)

    def test_stop_keeps_retired_abandons_live(self):
        llm = get_model("llama2-7b-sim", vocab_size=8)
        session = llm.prefill(self.CONTEXT)
        steps_allowed = 3
        polls = iter(range(1000))
        decoder = BatchedDecoder(
            session.model,
            [np.random.default_rng(seed) for seed in (1, 2)],
            [2, 9],
        )
        decoder.decode(stop=lambda: next(polls) >= steps_allowed)
        assert decoder.stopped
        assert len(decoder.results[0].tokens) == 2  # finished before the stop
        assert decoder.results[1] is None  # abandoned mid-flight
        assert decoder.steps == steps_allowed

    def test_session_left_untouched(self):
        # The decoder forks the session model up front: one prefill can
        # feed many decodes (and other consumers) without interference.
        llm = get_model("llama2-7b-sim", vocab_size=8)
        session = llm.prefill(self.CONTEXT)
        first = llm.generate_batch(
            self.CONTEXT,
            4,
            [np.random.default_rng(5)],
            session=session,
        )
        second = llm.generate_batch(
            self.CONTEXT,
            4,
            [np.random.default_rng(5)],
            session=session,
        )
        assert first.results[0].tokens == second.results[0].tokens

    def test_constructor_rejects_bad_batches(self):
        llm = get_model("llama2-7b-sim", vocab_size=8)
        session = llm.prefill(self.CONTEXT)
        with pytest.raises(GenerationError, match="at least one stream"):
            BatchedDecoder(session.model, [], 5)
        with pytest.raises(GenerationError, match="token budgets"):
            BatchedDecoder(
                session.model, [np.random.default_rng(0)], [1, 2]
            )
        with pytest.raises(GenerationError, match=">= 0"):
            BatchedDecoder(session.model, [np.random.default_rng(0)], [-1])


def _prefix_telemetry(results, budgets):
    """Live streams and distinct generated prefixes at every step."""
    occupancy, groups = [], []
    for step in range(max(budgets)):
        live = [r for r, budget in zip(results, budgets) if budget > step]
        occupancy.append(len(live))
        groups.append(len({tuple(r.tokens[:step]) for r in live}))
    return occupancy, groups


class TestForcedPositions:
    """A slot whose mask admits one id is not scored, but still drawn.

    Both decoders take the forced id without scoring the group; each
    stream must still spend its ``rng.random()`` there (none when greedy)
    and record log-prob ``0.0``, so tokens, log-probs, generator states
    and the step telemetry equal per-stream ``generate``.
    """

    # 20 random three-digit values, value-interleaved with separator 10.
    CONTEXT = [
        int(token)
        for row in np.random.default_rng(4).integers(0, 10, size=(20, 3))
        for token in [*row, 10]
    ]
    BUDGETS = [0, 4, 9, 12, 12]
    DIGITS = frozenset(range(10))

    @classmethod
    def _constraint(cls, kind):
        if kind == "set":
            return SetConstraint({3})
        return PeriodicPatternConstraint([cls.DIGITS, cls.DIGITS, cls.DIGITS, {10}])

    def _decode(self, execution, llm, rngs, constraint, temperature):
        if execution == "batched":
            decoder = llm.generate_batch(
                self.CONTEXT,
                self.BUDGETS,
                rngs,
                constraint=constraint,
                temperature=temperature,
            )
            return decoder.results, decoder.occupancy, decoder.group_counts
        scheduler = ContinuousScheduler()
        try:
            handle = scheduler.submit(
                llm,
                self.CONTEXT,
                self.BUDGETS,
                rngs,
                constraint=constraint,
                temperature=temperature,
            )
            results = handle.result(timeout=60)
        finally:
            scheduler.close()
        return results, handle.occupancy, handle.group_counts

    @pytest.mark.parametrize("execution", ["batched", "continuous"])
    @pytest.mark.parametrize("kind", ["set", "vi"])
    @pytest.mark.parametrize("temperature", [0.0, 1.0, 1.7])
    def test_equal_to_per_stream_generate(self, execution, kind, temperature):
        llm = get_model("llama2-7b-sim", vocab_size=11)
        constraint = self._constraint(kind)
        seeds = child_seeds(np.random.default_rng(23), len(self.BUDGETS))
        rngs = [np.random.default_rng(seed) for seed in seeds]
        results, occupancy, group_counts = self._decode(
            execution, llm, rngs, constraint, temperature
        )
        for seed, budget, rng, result in zip(seeds, self.BUDGETS, rngs, results):
            own = np.random.default_rng(seed)
            expected = llm.generate(
                self.CONTEXT,
                budget,
                own,
                constraint=constraint,
                temperature=temperature,
            )
            assert result.tokens == expected.tokens
            assert result.log_probs == expected.log_probs
            assert rng.bit_generator.state == own.bit_generator.state
            for position, (token, log_prob) in enumerate(
                zip(result.tokens, result.log_probs)
            ):
                if len(constraint.allowed_at(position)) == 1:
                    assert (token, log_prob) == (
                        next(iter(constraint.allowed_at(position))),
                        0.0,
                    )
        assert (occupancy, group_counts) == _prefix_telemetry(results, self.BUDGETS)

    @pytest.mark.parametrize("execution", ["batched", "continuous"])
    def test_telemetry_pinned(self, execution):
        # Captured from the decoder that scored every slot.  e2ebench's
        # llm.groups_per_stream and llm.batch_occupancy_mean derive from
        # these lists, so skipping forced slots must leave them as they are.
        llm = get_model("llama2-7b-sim", vocab_size=11)
        seeds = child_seeds(np.random.default_rng(23), len(self.BUDGETS))
        _, occupancy, group_counts = self._decode(
            execution,
            llm,
            [np.random.default_rng(seed) for seed in seeds],
            self._constraint("vi"),
            1.0,
        )
        assert occupancy == [4, 4, 4, 4, 3, 3, 3, 3, 3, 2, 2, 2]
        assert group_counts == [1, 3, 4, 4, 3, 3, 3, 3, 3, 2, 2, 2]


class TestForecastSpec:
    """The request object validates eagerly and stays immutable."""

    def test_frozen(self):
        spec = _spec()
        with pytest.raises(AttributeError):
            spec.horizon = 10

    def test_template_requires_series(self):
        template = ForecastSpec(num_samples=2)
        with pytest.raises(ConfigError, match="template"):
            MultiCastForecaster().forecast(template)

    def test_bad_execution_rejected(self):
        with pytest.raises(ConfigError, match="execution"):
            ForecastSpec(execution="warp")

    def test_bad_pipeline_field_rejected_eagerly(self):
        with pytest.raises(ConfigError):
            ForecastSpec(scheme="nope")
        with pytest.raises(ConfigError):
            _spec().replace(num_samples=0)

    def test_kwargs_alongside_spec_rejected(self):
        with pytest.raises(ConfigError, match="inside the ForecastSpec"):
            MultiCastForecaster().forecast(_spec(), horizon=3)

    def test_sax_dict_coerced(self):
        spec = _spec(sax={"segment_length": 4, "alphabet_size": 5})
        assert isinstance(spec.sax, SaxConfig)
        assert spec.sax.segment_length == 4

    def test_series_is_read_only(self):
        spec = _spec()
        with pytest.raises(ValueError):
            spec.series[0, 0] = 99.0

    def test_data_errors_still_raised_at_forecast_time(self):
        short = ForecastSpec(series=[1.0, 2.0, 3.0], horizon=2)
        with pytest.raises(DataError, match="too short"):
            MultiCastForecaster().forecast(short)

    def test_create_warns_on_legacy_alias(self):
        with pytest.warns(DeprecationWarning, match="ForecastSpec"):
            spec = ForecastSpec.create(series=_history(), horizon=4, n_samples=2)
        assert spec.num_samples == 2
        with pytest.raises(ConfigError, match="n_samples"):
            ForecastSpec.create(n_samples=2, num_samples=3)


class TestServingIntegration:
    """Specs flow through engine, request envelope, manifest and ledger."""

    def test_engine_accepts_spec_and_tracks_occupancy(self, tmp_path):
        spec = _spec()
        ledger = tmp_path / "runs.jsonl"
        with ForecastEngine(num_workers=2, ledger=ledger) as engine:
            response = engine.forecast(spec)
            submitted = engine.submit(spec.replace(seed=8)).result()
            snapshot = engine.metrics_snapshot()
        direct = MultiCastForecaster().forecast(spec)
        assert response.ok
        assert response.output.values.tobytes() == direct.values.tobytes()
        assert submitted.ok
        # One observation per decode step across the two served requests.
        assert snapshot["decode_batch_occupancy"]["count"] > 0
        assert snapshot["decode_batch_occupancy"]["max"] <= spec.num_samples
        records = read_ledger(ledger)
        assert [r["execution"] for r in records] == ["batched", "batched"]

    def test_request_from_spec_round_trips(self):
        spec = _spec(execution="pooled")
        request = ForecastRequest.from_spec(
            spec, deadline_seconds=30.0, name="demo"
        )
        assert request.execution == "pooled"
        assert request.horizon == spec.horizon
        assert request.effective_seed == spec.seed
        assert request.deadline_seconds == 30.0
        assert np.array_equal(request.history, spec.series)
        with pytest.raises(ConfigError, match="template"):
            ForecastRequest.from_spec(ForecastSpec())

    def test_manifest_parses_execution_and_num_samples(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps({
            "jobs": [
                {"name": "a", "dataset": "gas_rate", "horizon": 4,
                 "num_samples": 2, "execution": "batched"},
                {"name": "b", "dataset": "gas_rate", "horizon": 4},
            ]
        }))
        jobs = load_manifest(path)
        assert jobs[0].execution == "batched"
        assert jobs[0].config.num_samples == 2
        assert jobs[1].execution == "pooled"  # serving default
        request = jobs[0].to_request(_history())
        assert request.execution == "batched"

    def test_manifest_rejects_bad_execution(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([
            {"dataset": "gas_rate", "horizon": 4, "execution": "warp"}
        ]))
        with pytest.raises(ConfigError, match="execution"):
            load_manifest(path)

    def test_cli_execution_flag_is_value_neutral(self, tmp_path, capsys):
        outputs = {}
        for mode in ("batched", "sequential"):
            out_path = tmp_path / f"{mode}.csv"
            code = main([
                "forecast", "--dataset", "gas_rate", "--num-samples", "2",
                "--horizon", "5", "--execution", mode,
                "--output", str(out_path),
            ])
            assert code == 0
            outputs[mode] = out_path.read_text()
        capsys.readouterr()
        assert outputs["batched"] == outputs["sequential"]
