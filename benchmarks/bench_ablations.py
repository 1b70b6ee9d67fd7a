"""Ablations of the design choices DESIGN.md calls out.

Not paper tables — these quantify the internal decisions of the pipeline:

* structured grammar constraint vs plain vocabulary mask + lenient repair;
* median vs mean vs trimmed-mean sample aggregation;
* PPM context order (the model-capacity knob behind the backend presets);
* fixed dimension order (VI) vs rotating order (BI extension);
* SAX reconstruction level: interval midpoint vs truncated-Gaussian mean;
* digit budget b (2/3/4 digits per value).
"""

import numpy as np

from repro.core import ForecastSpec, MultiCastConfig, MultiCastForecaster, SaxConfig
from repro.data import gas_rate
from repro.evaluation import format_table
from repro.llm import ModelSpec, PPMLanguageModel, TokenCostModel, register_model
from repro.metrics import rmse


def _gas_split():
    return gas_rate().train_test_split()


def _forecast_rmse(config: MultiCastConfig) -> tuple[float, float]:
    history, future = _gas_split()
    output = MultiCastForecaster().forecast(
        ForecastSpec.from_config(config, series=history, horizon=len(future))
    )
    return (
        rmse(future[:, 0], output.values[:, 0]),
        rmse(future[:, 1], output.values[:, 1]),
    )


def test_ablation_constraint(benchmark, emit):
    """Structured grammar vs plain [0-9,] mask with lenient parsing."""

    def run():
        rows = []
        for structured in (True, False):
            errors = _forecast_rmse(
                MultiCastConfig(
                    scheme="di", num_samples=5, structured_constraint=structured
                )
            )
            rows.append([
                "grammar" if structured else "vocabulary-mask + repair",
                *errors,
            ])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_constraint",
        format_table(["Constraint", "GasRate", "CO2"], rows,
                     title="Ablation: structured constraint"),
    )
    # Both must produce usable forecasts; the grammar never hurts structure.
    for row in rows:
        assert row[1] < 3.0 and row[2] < 9.0


def test_ablation_aggregation(benchmark, emit):
    """Median (paper) vs mean vs trimmed mean."""

    def run():
        rows = []
        for method in ("median", "mean", "trimmed_mean"):
            errors = _forecast_rmse(
                MultiCastConfig(scheme="di", num_samples=9, aggregation=method)
            )
            rows.append([method, *errors])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_aggregation",
        format_table(["Aggregation", "GasRate", "CO2"], rows,
                     title="Ablation: sample aggregation"),
    )
    errors = {row[0]: row[1] for row in rows}
    assert max(errors.values()) < 3.0


def test_ablation_ppm_order(benchmark, emit):
    """The model-capacity knob: deeper context helps until it saturates."""

    def run():
        rows = []
        for order in (0, 1, 2, 4, 8, 12, 16):
            name = f"ablation-ppm-{order}"
            register_model(
                ModelSpec(
                    name=name,
                    factory=lambda v, o=order: PPMLanguageModel(v, max_order=o),
                    temperature=1.0,
                    cost=TokenCostModel(0.5),
                ),
                overwrite=True,
            )
            errors = _forecast_rmse(
                MultiCastConfig(scheme="di", num_samples=5, model=name)
            )
            rows.append([order, *errors])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_ppm_order",
        format_table(["PPM order", "GasRate", "CO2"], rows,
                     title="Ablation: in-context model depth"),
    )
    shallow = np.mean([rows[0][1], rows[0][2]])
    deep = np.mean([rows[-1][1], rows[-1][2]])
    assert deep < shallow, "context depth should pay off on patterned data"


def test_ablation_dimension_order(benchmark, emit):
    """Fixed (VI) vs rotating (BI) dimension order in the stream."""

    def run():
        rows = []
        for scheme in ("vi", "bi"):
            errors = _forecast_rmse(MultiCastConfig(scheme=scheme, num_samples=5))
            rows.append([scheme.upper(), *errors])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_dimension_order",
        format_table(["Scheme", "GasRate", "CO2"], rows,
                     title="Ablation: dimension order (VI vs BI extension)"),
    )
    for row in rows:
        assert np.isfinite(row[1]) and np.isfinite(row[2])


def test_ablation_sax_reconstruction(benchmark, emit):
    """Interval midpoint vs truncated-Gaussian conditional mean."""

    def run():
        rows = []
        for mode in ("midpoint", "expected"):
            errors = _forecast_rmse(
                MultiCastConfig(
                    scheme="di",
                    num_samples=5,
                    sax=SaxConfig(reconstruction=mode),
                )
            )
            rows.append([mode, *errors])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_sax_reconstruction",
        format_table(["Reconstruction", "GasRate", "CO2"], rows,
                     title="Ablation: SAX symbol reconstruction level"),
    )
    for row in rows:
        assert row[1] < 4.0 and row[2] < 9.0


def test_ablation_digit_budget(benchmark, emit):
    """Digits per value: resolution vs tokens (and context reach)."""

    def run():
        rows = []
        history, future = _gas_split()
        for digits in (2, 3, 4):
            config = MultiCastConfig(scheme="di", num_samples=5, num_digits=digits)
            output = MultiCastForecaster().forecast(
                ForecastSpec.from_config(config, series=history, horizon=len(future))
            )
            rows.append([
                digits,
                rmse(future[:, 0], output.values[:, 0]),
                rmse(future[:, 1], output.values[:, 1]),
                output.generated_tokens,
            ])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_digit_budget",
        format_table(["Digits", "GasRate", "CO2", "Tokens"], rows,
                     title="Ablation: digit budget per value"),
    )
    tokens = [row[3] for row in rows]
    assert tokens[0] < tokens[1] < tokens[2], "token cost grows with digits"


def test_ablation_deseasonalize(benchmark, emit):
    """The seasonal-stripping extension on the weather dataset.

    Quantifies the Table VI deviation recorded in EXPERIMENTS.md: with the
    deterministic seasonal component handled classically, the in-context
    substrate forecasts weather at paper-comparable levels.
    """
    from repro.data import weather
    from repro.evaluation import evaluate_method

    def run():
        dataset = weather()
        rows = []
        for label, options in (
            ("paper pipeline", {}),
            ("deseasonalize=auto", {"deseasonalize": "auto"}),
        ):
            result = evaluate_method(
                "multicast-di", dataset, seed=0, num_samples=5, **options
            )
            rows.append([label, *(result.rmse_per_dim[n] for n in dataset.dim_names)])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_deseasonalize",
        format_table(
            ["Pipeline", "Tlog", "H2OC", "VPmax", "Tpot"],
            rows,
            title="Ablation: classical seasonal stripping (weather)",
        ),
    )
    plain = np.mean(rows[0][1:])
    adjusted = np.mean(rows[1][1:])
    assert adjusted < 0.7 * plain


def test_ablation_backend_families(benchmark, emit):
    """PPM vs n-gram as the in-context substrate."""

    def run():
        rows = []
        for name in ("llama2-7b-sim", "ngram-sim"):
            errors = _forecast_rmse(
                MultiCastConfig(scheme="di", num_samples=5, model=name)
            )
            rows.append([name, *errors])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_backends",
        format_table(["Backend", "GasRate", "CO2"], rows,
                     title="Ablation: in-context model family"),
    )
    errors = {row[0]: (row[1], row[2]) for row in rows}
    # All principled substrates land in the same accuracy regime.
    for name, (gas, co2) in errors.items():
        assert gas < 3.0 and co2 < 6.0, name
