"""Lockstep batched decoding and the ForecastSpec API.

Pins the contracts of the one decode path:

* the forecaster reproduces the pinned digests of drawing every sample
  on its own from a fresh prompt ingest — across schemes, SAX,
  temperatures, and cold/warm ingest caches;
* the :class:`~repro.llm.batch.BatchedDecoder` equals per-stream
  decoding token for token and log-prob for log-prob on every
  registered backend preset;
* decoder behaviour — heterogeneous budgets, retirement, early stop —
  matches its documentation;
* slots whose constraint admits one id skip scoring and still consume
  each stream's draw, with unchanged step telemetry;
* :class:`~repro.core.ForecastSpec` validates eagerly, stays frozen, and
  round-trips through the serving layer (engine, request, manifest, CLI);
  the removed ``execution`` knob is rejected everywhere it used to be
  accepted.
"""

import hashlib
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
from repro.serving import ForecastEngine, ForecastRequest, load_manifest

#: ``sha256(values.tobytes() + samples.tobytes())`` of each
#: :class:`TestForecasterEquivalence` case with every sample drawn on its
#: own from a fresh ingest of the prompt (the per-draw path), captured
#: before that path was deleted.  Keys: ``(scheme, quantized)`` and
#: ``("temperature", value)``.
PER_DRAW = {
    ("di", False): "7294395b0ef927a3a0d1a856c76c5347a4bb469de24ad1255c8c1df31abfadb9",
    ("di", True): "355c82a3f9212e8e3e747bbb89b26adf326968f6df5b69a1939330515beeca6a",
    ("vi", False): "b3a4074d330efadb59b1b3cd2013563235622776322b97b6bf2fd9d3cfaf4076",
    ("vi", True): "355c82a3f9212e8e3e747bbb89b26adf326968f6df5b69a1939330515beeca6a",
    ("vc", False): "45aa9ea887506797896d8ec38cc7a6e6face5ccee4d2e2cff52b1521e59327b3",
    ("vc", True): "32d8a69ba4115729191cb953556c8f3ec2319474c1f4aa36037eb2f5f425eedd",
    ("temperature", 0.0): (
        "28034bb589579cff18bbc7c2f294cdd7302cc888bbaf6f772a315f2095f26692"
    ),
    ("temperature", 1.5): (
        "54650fd01d92cea6c897e8bce602d8493e2cca9b8db17fbca68e4f2efb7ccc13"
    ),
}
#: The CSV ``repro-multicast forecast --dataset gas_rate --num-samples 2
#: --horizon 5 --output`` wrote on the per-draw path.
PER_DRAW_CLI_CSV = "6d357701718772aef2d83b10c92277fed61ef5cc333c83e5408efb79b09416d6"


def _history(n=36, d=2):
    t = np.arange(n, dtype=float)
    columns = [np.sin(t / 3.0) * 5.0 + 20.0, np.cos(t / 4.0) * 3.0 + 10.0]
    return np.stack(columns[:d], axis=1)


def _digest(output) -> str:
    return hashlib.sha256(
        output.values.tobytes() + output.samples.tobytes()
    ).hexdigest()


def _spec(**overrides):
    settings = dict(
        series=_history(), horizon=4, scheme="di", num_samples=3, seed=7
    )
    settings.update(overrides)
    return ForecastSpec(**settings)


class TestForecasterEquivalence:
    """Every scheme, raw or SAX, reproduces the per-draw digests byte for
    byte."""

    @pytest.mark.parametrize("scheme", ["di", "vi", "vc"])
    @pytest.mark.parametrize("quantized", [False, True])
    def test_modes_bit_identical(self, scheme, quantized):
        sax = SaxConfig(segment_length=4, alphabet_size=5) if quantized else None
        output = MultiCastForecaster().forecast(_spec(scheme=scheme, sax=sax))
        assert _digest(output) == PER_DRAW[(scheme, quantized)]
        assert "execution" not in output.metadata

    def test_batched_warm_cache_identity(self):
        spec = _spec(scheme="vi")
        cache = IngestStateCache()
        cold = MultiCastForecaster(state_cache=cache).forecast(spec)
        warm = MultiCastForecaster(state_cache=cache).forecast(spec)
        assert cold.metadata["ingest"] == "miss"
        assert warm.metadata["ingest"] == "fork"
        assert warm.metadata["ingested_tokens"] == 0
        for output in (cold, warm):
            assert _digest(output) == PER_DRAW[("vi", False)]

    @pytest.mark.parametrize("temperature", [0.0, 1.5])
    def test_temperature_extremes_stay_identical(self, temperature):
        # Greedy decoding (temperature 0) consumes no RNG at all; a hot
        # temperature splits the batch into many groups.  Both ends must
        # still match the per-draw digest exactly.
        spec = _spec(temperature=temperature, num_samples=4)
        output = MultiCastForecaster().forecast(spec)
        assert _digest(output) == PER_DRAW[("temperature", temperature)]

    def test_batched_metadata_reports_occupancy(self):
        output = MultiCastForecaster().forecast(_spec())
        occupancy = output.metadata["batch_occupancy"]
        groups = output.metadata["batch_groups"]
        assert len(occupancy) == len(groups) > 0
        assert occupancy[0] == 3  # every stream live at step one
        # Never more distinct model states than live streams.
        assert all(g <= o for g, o in zip(groups, occupancy))


class TestDecoderEquivalence:
    """BatchedDecoder == per-stream decode on every preset."""

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

    The decoder takes the forced id without scoring the group; each
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

    def _decode(self, llm, rngs, constraint, temperature):
        decoder = llm.generate_batch(
            self.CONTEXT,
            self.BUDGETS,
            rngs,
            constraint=constraint,
            temperature=temperature,
        )
        return decoder.results, decoder.occupancy, decoder.group_counts

    @pytest.mark.parametrize("kind", ["set", "vi"])
    @pytest.mark.parametrize("temperature", [0.0, 1.0, 1.7])
    def test_equal_to_per_stream_generate(self, kind, temperature):
        llm = get_model("llama2-7b-sim", vocab_size=11)
        constraint = self._constraint(kind)
        seeds = child_seeds(np.random.default_rng(23), len(self.BUDGETS))
        rngs = [np.random.default_rng(seed) for seed in seeds]
        results, occupancy, group_counts = self._decode(
            llm, rngs, constraint, temperature
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

    def test_telemetry_pinned(self):
        # Captured from the decoder that scored every slot.  e2ebench's
        # llm.groups_per_stream and llm.batch_occupancy_mean derive from
        # these lists, so skipping forced slots must leave them as they are.
        llm = get_model("llama2-7b-sim", vocab_size=11)
        seeds = child_seeds(np.random.default_rng(23), len(self.BUDGETS))
        _, occupancy, group_counts = self._decode(
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
        # The knob is gone: even its old default is an unknown field.
        for value in ("batched", "continuous"):
            with pytest.raises(TypeError, match="execution"):
                ForecastSpec(execution=value)
            with pytest.raises(ConfigError, match="execution"):
                _spec().replace(execution=value)
            with pytest.raises(TypeError, match="execution"):
                ForecastRequest(_history(), horizon=4, execution=value)

    def test_bad_pipeline_field_rejected_eagerly(self):
        with pytest.raises(ConfigError):
            ForecastSpec(scheme="nope")
        with pytest.raises(ConfigError):
            _spec().replace(num_samples=0)

    def test_kwargs_alongside_spec_rejected(self):
        # horizon and seed live inside the spec; forecast() takes no others.
        with pytest.raises(TypeError, match="horizon"):
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
        with ForecastEngine(ledger=ledger) as engine:
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
        assert [r["outcome"] for r in records] == ["ok", "ok"]
        assert not any("execution" in r or "partial" in r for r in records)

    def test_request_from_spec_round_trips(self):
        spec = _spec()
        request = ForecastRequest.from_spec(
            spec, deadline_seconds=30.0, name="demo"
        )
        assert request.horizon == spec.horizon
        assert request.effective_seed == spec.seed
        assert request.deadline_seconds == 30.0
        assert np.array_equal(request.history, spec.series)
        with pytest.raises(ConfigError, match="template"):
            ForecastRequest.from_spec(ForecastSpec())

    def test_manifest_parses_num_samples(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps({
            "jobs": [
                {"name": "a", "dataset": "gas_rate", "horizon": 4,
                 "num_samples": 2},
                {"name": "b", "dataset": "gas_rate", "horizon": 4},
            ]
        }))
        jobs = load_manifest(path)
        assert jobs[0].config.num_samples == 2
        request = jobs[0].to_request(_history())
        assert request.config.num_samples == 2

    def test_manifest_rejects_bad_execution(self, tmp_path):
        # Both old values fail through the unknown-key check.
        for value in ("batched", "continuous"):
            path = tmp_path / f"{value}.json"
            path.write_text(json.dumps([
                {"dataset": "gas_rate", "horizon": 4, "execution": value}
            ]))
            with pytest.raises(ConfigError, match="unknown keys.*execution"):
                load_manifest(path)

    def test_cli_forecast_reproduces_per_draw_csv(self, tmp_path, capsys):
        out_path = tmp_path / "forecast.csv"
        code = main([
            "forecast", "--dataset", "gas_rate", "--num-samples", "2",
            "--horizon", "5", "--output", str(out_path),
        ])
        assert code == 0
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        assert digest == PER_DRAW_CLI_CSV
        for command in ("forecast", "backtest"):
            with pytest.raises(SystemExit):
                main([command, "--dataset", "gas_rate", "--execution", "batched"])
        capsys.readouterr()
