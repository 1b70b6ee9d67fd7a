"""Tests for the top-level package surface and remaining figure drivers."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Imports the serving surface and serves one forecast in process; run with
#: ``tools/no_scipy`` on ``PYTHONPATH`` so any SciPy import fails.
_SERVE_WITHOUT_SCIPY = """
import sys

import repro
import repro.gateway
import repro.serving
import repro.sharding
import repro.sharding.worker
from repro import ForecastEngine, ForecastSpec
from repro.data import synthetic_multivariate

history = synthetic_multivariate(n=40, num_dims=2, seed=0).values
with ForecastEngine() as engine:
    response = engine.forecast(ForecastSpec(series=history, horizon=4, num_samples=2))
assert response.ok, response.error
assert response.output.values.shape == (4, 2)
try:
    import scipy
except ImportError:
    pass
else:
    raise AssertionError("tools/no_scipy did not block scipy")
assert "scipy" not in sys.modules
"""

_FIT_ARIMA = """
import sys

import numpy as np

from repro import make_estimator

assert "scipy" not in sys.modules
series = np.cumsum(np.random.default_rng(0).normal(size=(60, 1)), axis=0)
make_estimator("arima").fit(series)
assert "scipy.optimize" in sys.modules
"""


def _run_fresh(code: str, *pythonpath: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter with ``pythonpath`` (repo-relative)."""
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join(str(ROOT / p) for p in pythonpath)
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestTopLevelApi:
    def test_headline_imports(self):
        from repro import (
            ForecastEngine,
            ForecastOutput,
            ForecastSpec,
            MultiCastConfig,
            MultiCastForecaster,
            ReproError,
            SaxConfig,
            Tracer,
            plan_forecast,
        )

        assert callable(plan_forecast)
        assert issubclass(ReproError, Exception)
        del (
            ForecastEngine,
            ForecastOutput,
            ForecastSpec,
            MultiCastConfig,
            MultiCastForecaster,
            SaxConfig,
            Tracer,
        )

    def test_package_docstring_example_runs(self):
        from repro import ForecastSpec, MultiCastForecaster
        from repro.data import gas_rate

        history, future = gas_rate().train_test_split()
        spec = ForecastSpec(
            series=history,
            horizon=len(future),
            scheme="vi",
            num_samples=2,
        )
        output = MultiCastForecaster().forecast(spec)
        assert output.values.shape == future.shape

    def test_bare_array_forecast_call_is_rejected(self):
        from repro import MultiCastForecaster
        from repro.data import gas_rate
        from repro.exceptions import ConfigError

        history, future = gas_rate().train_test_split()
        with pytest.raises(ConfigError, match="ForecastSpec"):
            MultiCastForecaster().forecast(history)
        with pytest.raises(TypeError):
            MultiCastForecaster().forecast(history, len(future))

    def test_version_is_exposed(self):
        import repro

        assert repro.__version__ == "1.3.0"

    def test_all_names_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_all_is_curated(self):
        import repro

        assert sorted(repro.__all__) == sorted(
            [
                "ForecastSpec",
                "Estimator",
                "BaseEstimator",
                "MultiCastEstimator",
                "ForecastingHorizon",
                "make_estimator",
                "available_estimators",
                "SweepSpec",
                "SweepRunner",
                "SweepReport",
                "MultiCastConfig",
                "MultiCastForecaster",
                "SaxConfig",
                "ForecastOutput",
                "PromptStrategy",
                "PROMPT_STRATEGIES",
                "ForecastEngine",
                "ForecastRequest",
                "ForecastResponse",
                "Tracer",
                "RunLedger",
                "plan_forecast",
                "ReproError",
                "ConfigError",
                "DataError",
                "EncodingError",
                "FittingError",
                "GenerationError",
                "ScalingError",
                "__version__",
            ]
        )

    def test_llm_surface_exposes_batching(self):
        from repro.llm import (
            BatchedDecoder,
            filter_distribution,
            mask_for_ids,
        )

        assert callable(filter_distribution)
        assert callable(mask_for_ids)
        del BatchedDecoder

    def test_core_surface_exposes_spec(self):
        import repro.core

        assert "ForecastSpec" in repro.core.__all__

    def test_scheduling_surface(self):
        """One decoder is left: the cross-request scheduler package and
        the ``execution`` knob that selected it are gone."""
        import importlib.util

        import repro.core

        assert importlib.util.find_spec("repro.scheduling") is None
        assert "EXECUTION_MODES" not in repro.core.__all__
        assert not hasattr(repro, "ContinuousScheduler")


class TestColdStart:
    """Serving fits nothing, so it never imports SciPy; the fitted
    baselines import it when they first fit."""

    def test_serving_imports_and_forecasts_with_scipy_blocked(self):
        result = _run_fresh(_SERVE_WITHOUT_SCIPY, "tools/no_scipy", "src")
        assert result.returncode == 0, result.stderr

    def test_baseline_fit_imports_scipy(self):
        result = _run_fresh(_FIT_ARIMA, "src")
        assert result.returncode == 0, result.stderr


class TestRemainingFigures:
    """Figures 4, 5, 7 — the drivers not covered by test_experiments."""

    def test_figure_4_lstm_overlay(self):
        from repro.experiments import figure_4

        figure = figure_4(num_samples=2)
        assert set(figure.forecasts) == {"multicast-vc", "lstm"}
        assert np.isfinite(figure.forecasts["lstm"]).all()

    def test_figure_5_arima_overlay(self):
        from repro.experiments import figure_5

        figure = figure_5(num_samples=2)
        assert set(figure.forecasts) == {"multicast-vi", "arima"}
        assert figure.dimension == "Tlog"

    def test_figure_7_alphabet_levels(self):
        from repro.experiments import figure_7

        # Odd sample count: the median of an odd ensemble is an actual SAX
        # level; an even count would average two levels into a midpoint.
        figure = figure_7(num_samples=3)
        for size in (5, 10, 20):
            levels = np.unique(np.round(figure.forecasts[f"sax-a{size}"], 6))
            assert levels.size <= size


class TestCliTableAndFigureVariants:
    def test_cli_table_iii(self, capsys):
        from repro.cli import main

        assert main(["table", "iii", "--num-samples", "2"]) == 0
        assert "LLaMA2" in capsys.readouterr().out

    def test_cli_figure_6(self, capsys):
        from repro.cli import main

        assert main(["figure", "6", "--num-samples", "2"]) == 0
        assert "sax-w3" in capsys.readouterr().out

    def test_cli_legacy_samples_flag_rejected(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "6", "--samples", "2"])
        assert excinfo.value.code == 2
        assert "--samples" in capsys.readouterr().err
