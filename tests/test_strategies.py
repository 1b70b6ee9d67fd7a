"""Tests for the pluggable prompt-strategy layer (``repro.strategies``).

Two contracts carry the refactor:

* the ``"default"`` strategy is **bit-identical** to the pre-strategy
  pipeline — pinned below as digest regressions over every scheme ×
  codec combination, so any drift in the moved code fails loudly, and
* every new strategy (``patch``, ``decompose``, ``auto``) is
  deterministic across serving paths ({in-process, sharded}) and
  ingest-cache temperature ({cold, warm}).
"""

import hashlib

import numpy as np
import pytest

from repro.core import (
    PROMPT_STRATEGIES,
    ForecastSpec,
    MultiCastConfig,
    MultiCastForecaster,
    SaxConfig,
)
from repro.exceptions import ConfigError
from repro.llm.state_cache import IngestStateCache
from repro.strategies import (
    AutoStrategy,
    DecomposeThenForecastStrategy,
    DigitStrategy,
    PatchAggregateStrategy,
    PromptStrategy,
    SaxStrategy,
    get_strategy,
    resolve_strategy,
    select_strategy,
)

_RNG = np.random.default_rng(42)
HISTORY = np.cumsum(_RNG.standard_normal((48, 2)), axis=0)
HORIZON = 7
SEED = 11
SAX = SaxConfig(segment_length=3, alphabet_size=5)

#: (scheme, sax?) -> (sha256(values+samples)[:16], prompt_tokens,
#: generated_tokens) captured on the pre-strategy pipeline.  The default
#: strategy must reproduce these bytes exactly.
_PINNED = {
    ("di", False): ("fe60123283ebbf1b", 336, 147),
    ("di", True): ("020efdfd4be81d83", 48, 27),
    ("vi", False): ("43958172081c4e66", 336, 147),
    ("vi", True): ("020efdfd4be81d83", 48, 27),
    ("vc", False): ("e68f78667638640d", 384, 168),
    ("vc", True): ("32d0aa97777fbe50", 64, 36),
}


def _digest(output) -> str:
    payload = output.values.tobytes() + output.samples.tobytes()
    return hashlib.sha256(payload).hexdigest()[:16]


def _forecast(strategy="default", state_cache=None,
              history=None, horizon=HORIZON, **config_kwargs):
    config = MultiCastConfig(
        num_samples=3, seed=SEED, strategy=strategy, **config_kwargs
    )
    forecaster = MultiCastForecaster(config, state_cache=state_cache)
    spec = ForecastSpec.from_config(
        config,
        series=HISTORY if history is None else history,
        horizon=horizon,
    )
    return forecaster.forecast(spec)


def _seasonal_history(n=96, d=2):
    t = np.arange(n, dtype=float)
    rng = np.random.default_rng(5)
    base = np.sin(2 * np.pi * t / 12.0)
    return np.stack(
        [base * (k + 1) + 0.05 * rng.standard_normal(n) for k in range(d)],
        axis=1,
    )


class TestDefaultBitIdentity:
    """The default strategy reproduces the pre-refactor pipeline exactly."""

    @pytest.mark.parametrize("scheme,use_sax", sorted(_PINNED))
    def test_pinned_digest(self, scheme, use_sax):
        expected_digest, prompt_tokens, generated_tokens = _PINNED[
            (scheme, use_sax)
        ]
        output = _forecast(scheme=scheme, sax=SAX if use_sax else None)
        assert _digest(output) == expected_digest
        assert output.prompt_tokens == prompt_tokens
        assert output.generated_tokens == generated_tokens

    @pytest.mark.parametrize("use_sax", [False, True])
    def test_explicit_name_matches_default(self, use_sax):
        sax = SAX if use_sax else None
        explicit = "sax" if use_sax else "digit"
        baseline = _forecast(strategy="default", sax=sax)
        named = _forecast(strategy=explicit, sax=sax)
        assert _digest(named) == _digest(baseline)

    def test_default_reports_resolved_strategy(self):
        assert _forecast(sax=None).metadata["strategy"] == "digit"
        assert _forecast(sax=SAX).metadata["strategy"] == "sax"


class TestStrategyDeterminism:
    """patch/decompose/auto: one answer across cache states."""

    @pytest.mark.parametrize("strategy", ["patch", "decompose", "auto"])
    def test_modes_and_cache_states_bit_identical(self, strategy):
        history = _seasonal_history()
        baseline = _forecast(strategy=strategy, history=history)
        cache = IngestStateCache()
        for _ in range(2):  # cold, then warm ingest cache
            output = _forecast(
                strategy=strategy, state_cache=cache, history=history
            )
            assert np.array_equal(output.values, baseline.values)
            assert np.array_equal(output.samples, baseline.samples)

    @pytest.mark.parametrize("strategy", ["patch", "decompose"])
    def test_sharded_matches_in_process(self, strategy):
        from repro.serving import ForecastEngine
        from repro.sharding import ShardedEngine

        config = MultiCastConfig(
            num_samples=2, seed=3, strategy=strategy, model="uniform-sim"
        )
        spec = ForecastSpec.from_config(
            config, series=_seasonal_history(n=48), horizon=4
        )
        with ForecastEngine() as engine:
            expected = engine.forecast(spec)
        assert expected.ok
        with ShardedEngine(num_shards=2) as sharded:
            for _ in range(2):  # cold then warm worker caches
                response = sharded.forecast(spec)
                assert response.ok, response.error
                assert np.array_equal(
                    response.output.values, expected.output.values
                )
                assert np.array_equal(
                    response.output.samples, expected.output.samples
                )

    def test_warm_decompose_subrequests_hit_ingest_cache(self):
        cache = IngestStateCache()
        history = _seasonal_history()
        _forecast(strategy="decompose", state_cache=cache, history=history)
        warm = _forecast(strategy="decompose", state_cache=cache,
                         history=history)
        components = warm.metadata["components"]
        ingests = [
            info["ingest"] for info in components.values()
            if not info["skipped"]
        ]
        assert ingests and all(i in ("fork", "extend") for i in ingests)


class TestPatchStrategy:
    def test_cuts_prompt_tokens_at_least_3x(self):
        history = _seasonal_history()
        digit = _forecast(strategy="digit", history=history)
        patch = _forecast(strategy="patch", history=history, patch_length=6)
        assert digit.prompt_tokens >= 3 * patch.prompt_tokens

    def test_metadata_and_shapes(self):
        output = _forecast(strategy="patch", patch_length=5)
        assert output.metadata["strategy"] == "patch"
        assert output.metadata["patch_length"] == 5
        assert output.metadata["history_patches"] == 10  # ceil(48 / 5)
        assert output.metadata["horizon_patches"] == 2  # ceil(7 / 5)
        assert output.values.shape == (HORIZON, 2)
        # each patch forecasts one value, repeated across its patch window
        head = output.values[:5]
        assert np.array_equal(head, np.repeat(head[:1], 5, axis=0))


class TestDecomposeStrategy:
    def test_component_bookkeeping(self):
        output = _forecast(strategy="decompose", history=_seasonal_history())
        assert output.metadata["strategy"] == "decompose"
        assert output.metadata["method"] == "multicast-decompose"
        components = output.metadata["components"]
        assert set(components) == {"trend", "seasonal", "residual"}
        active = [c for c in components.values() if not c["skipped"]]
        assert active
        assert output.prompt_tokens == sum(
            c["prompt_tokens"] for c in active
        )
        assert output.generated_tokens == sum(
            c["generated_tokens"] for c in active
        )
        assert any(p is not None and p >= 2 for p in output.metadata["periods"])

    def test_constant_history_skips_zero_components(self):
        history = np.full((32, 1), 7.5)
        output = _forecast(strategy="decompose", history=history)
        components = output.metadata["components"]
        # a constant decomposes into trend only; the all-zero seasonal and
        # residual components never reach the engine.
        assert not components["trend"]["skipped"]
        assert components["seasonal"]["skipped"]
        assert components["residual"]["skipped"]

    def test_timing_invariant_holds(self):
        output = _forecast(strategy="decompose", history=_seasonal_history())
        assert output.wall_seconds == pytest.approx(
            sum(output.timings.values())
        )
        assert set(output.timings) == {"decompose", "generate", "aggregate"}


class TestAutoStrategy:
    def test_long_history_selects_patch(self):
        history = np.cumsum(
            np.random.default_rng(0).standard_normal((600, 4)), axis=0
        )
        config = MultiCastConfig(strategy="auto", max_context_tokens=512)
        assert select_strategy(history, config) == "patch"

    def test_seasonal_history_selects_decompose(self):
        config = MultiCastConfig(strategy="auto")
        assert select_strategy(_seasonal_history(), config) == "decompose"

    def test_short_aseasonal_history_selects_default(self):
        history = np.cumsum(
            np.random.default_rng(1).standard_normal((24, 1)), axis=0
        )
        config = MultiCastConfig(strategy="auto")
        assert select_strategy(history, config) == "default"

    def test_forecast_records_selection(self):
        output = _forecast(strategy="auto", history=_seasonal_history())
        assert output.metadata["auto_selected"] == "decompose"
        assert output.metadata["strategy"] == "auto:decompose"


class TestRegistry:
    def test_resolve_default_picks_codec_path(self):
        assert isinstance(
            resolve_strategy("default", MultiCastConfig()), DigitStrategy
        )
        assert isinstance(
            resolve_strategy("default", MultiCastConfig(sax=SAX)), SaxStrategy
        )

    def test_get_strategy_covers_every_name(self):
        classes = {
            "digit": DigitStrategy,
            "sax": SaxStrategy,
            "patch": PatchAggregateStrategy,
            "decompose": DecomposeThenForecastStrategy,
            "auto": AutoStrategy,
        }
        for name, cls in classes.items():
            strategy = get_strategy(name)
            assert isinstance(strategy, cls)
            assert isinstance(strategy, PromptStrategy)
            assert strategy.name == name

    def test_unknown_name_raises_config_error(self):
        with pytest.raises(ConfigError, match="strategy"):
            get_strategy("bogus")
        with pytest.raises(ConfigError, match="strategy"):
            MultiCastConfig(strategy="bogus")

    def test_prompt_strategies_constant_is_exhaustive(self):
        assert PROMPT_STRATEGIES == (
            "default", "digit", "sax", "patch", "decompose", "auto"
        )
