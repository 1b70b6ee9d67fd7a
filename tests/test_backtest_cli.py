"""Tests for rolling-origin backtesting and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.data import gas_rate, synthetic_multivariate
from repro.evaluation import rolling_origin_evaluation
from repro.exceptions import ConfigError


class TestBacktest:
    def test_windows_and_origins(self):
        dataset = synthetic_multivariate(n=120, num_dims=2, seed=0)
        result = rolling_origin_evaluation("naive", dataset, horizon=10, num_windows=3)
        assert result.num_windows == 3
        assert result.origins == [90, 100, 110]
        assert len(result.window_rmse) == 3

    def test_mean_and_std(self):
        dataset = synthetic_multivariate(n=120, num_dims=1, seed=1)
        result = rolling_origin_evaluation("drift", dataset, horizon=8, num_windows=4)
        mean = result.mean_rmse()
        std = result.std_rmse()
        assert set(mean) == {"x0"}
        assert mean["x0"] >= 0 and std["x0"] >= 0

    def test_custom_stride_overlaps(self):
        dataset = synthetic_multivariate(n=100, num_dims=1, seed=2)
        result = rolling_origin_evaluation(
            "naive", dataset, horizon=10, num_windows=3, stride=5
        )
        assert result.origins == [80, 85, 90]

    def test_llm_method_supported(self):
        from repro.core import ForecastSpec

        dataset = gas_rate(n=120)
        result = rolling_origin_evaluation(
            "multicast-di",
            dataset,
            horizon=8,
            num_windows=2,
            spec=ForecastSpec(num_samples=2),
        )
        assert result.num_windows == 2

    def test_llm_method_loose_options_rejected(self):
        dataset = gas_rate(n=120)
        with pytest.raises(ConfigError, match="spec="):
            rolling_origin_evaluation(
                "multicast-di", dataset, horizon=8, num_windows=2, num_samples=2
            )

    def test_llm_method_without_spec_runs_default_spec(self):
        from repro.core import ForecastSpec

        dataset = gas_rate(n=120)
        implicit = rolling_origin_evaluation(
            "multicast-di", dataset, horizon=8, num_windows=2, seed=3
        )
        explicit = rolling_origin_evaluation(
            "multicast-di", dataset, horizon=8, num_windows=2, seed=3,
            spec=ForecastSpec(),
        )
        assert implicit.window_rmse == explicit.window_rmse

    def test_insufficient_history_rejected(self):
        dataset = synthetic_multivariate(n=60, num_dims=1, seed=3)
        with pytest.raises(ConfigError):
            rolling_origin_evaluation("naive", dataset, horizon=20, num_windows=3)

    def test_invalid_args_rejected(self):
        dataset = synthetic_multivariate(n=100, num_dims=1, seed=4)
        with pytest.raises(ConfigError):
            rolling_origin_evaluation("naive", dataset, horizon=0)
        with pytest.raises(ConfigError):
            rolling_origin_evaluation("naive", dataset, horizon=5, num_windows=0)
        with pytest.raises(ConfigError):
            rolling_origin_evaluation("naive", dataset, horizon=5, stride=0)


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "multicast-di" in out
        assert "llama2-7b-sim" in out

    def test_table_i(self, capsys):
        assert main(["table", "i"]) == 0
        assert "gas_rate" in capsys.readouterr().out

    def test_forecast_holdout_scores(self, capsys):
        code = main(["forecast", "--dataset", "gas_rate", "--num-samples", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "RMSE[GasRate]" in out
        assert "RMSE[CO2]" in out

    def test_forecast_future_with_output(self, tmp_path, capsys):
        out_path = tmp_path / "forecast.csv"
        code = main([
            "forecast", "--dataset", "gas_rate", "--num-samples", "2",
            "--horizon", "5", "--output", str(out_path),
        ])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "GasRate,CO2"
        assert len(lines) == 6

    def test_forecast_from_csv_with_sax_and_plot(self, tmp_path, capsys):
        from repro.data import save_csv

        path = tmp_path / "input.csv"
        save_csv(gas_rate(n=120), path)
        code = main([
            "forecast", "--csv", str(path), "--num-samples", "2",
            "--sax-segment", "6", "--plot",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "RMSE" in out
        assert "actual" in out  # plot legend

    def test_missing_csv_reports_error(self, capsys):
        code = main(["forecast", "--csv", "/nonexistent/file.csv"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_evaluate_command(self, capsys):
        code = main([
            "evaluate", "--dataset", "gas_rate",
            "--methods", "naive", "drift", "theta",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "naive" in out and "theta" in out

    def test_figure_with_csv_out(self, tmp_path, capsys):
        out_path = tmp_path / "fig.csv"
        code = main(
            ["figure", "2", "--num-samples", "2", "--csv-out", str(out_path)]
        )
        assert code == 0
        assert out_path.exists()

    def test_forecast_strategy_flag(self, capsys):
        code = main([
            "forecast", "--dataset", "gas_rate", "--num-samples", "2",
            "--horizon", "4", "--strategy", "patch", "--patch-length", "4",
        ])
        assert code == 0
        assert "tokens:" in capsys.readouterr().out

    def test_batch_strategy_override(self, tmp_path, capsys):
        import json

        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps({"jobs": [
            {"name": "j", "dataset": "gas_rate", "horizon": 2,
             "num_samples": 2, "strategy": "patch", "patch_length": 3},
        ]}))
        ledger = tmp_path / "runs.jsonl"
        code = main([
            "batch", "--manifest", str(manifest),
            "--strategy", "default", "--ledger", str(ledger),
        ])
        assert code == 0
        record = json.loads(ledger.read_text().splitlines()[0])
        # "default" resolves to the concrete digit pipeline; the ledger
        # records the strategy that actually ran.
        assert record["strategy"] == "digit"

    def test_ledger_records_strategy(self, tmp_path):
        import json

        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps({"jobs": [
            {"name": "j", "dataset": "gas_rate", "horizon": 2,
             "num_samples": 2, "strategy": "patch"},
        ]}))
        ledger = tmp_path / "runs.jsonl"
        assert main(["batch", "--manifest", str(manifest),
                     "--ledger", str(ledger)]) == 0
        record = json.loads(ledger.read_text().splitlines()[0])
        assert record["strategy"] == "patch"

    def test_output_to_missing_directory_fails_fast(self, capsys):
        # regression: this used to run the whole forecast, then crash with
        # a raw FileNotFoundError traceback at save time.
        code = main([
            "forecast", "--dataset", "gas_rate", "--num-samples", "2",
            "--horizon", "3", "--output", "/nonexistent_dir_xyz/out.csv",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--output" in err

    def test_output_path_is_directory_rejected(self, tmp_path, capsys):
        code = main([
            "forecast", "--dataset", "gas_rate", "--num-samples", "2",
            "--horizon", "3", "--output", str(tmp_path),
        ])
        assert code == 2
        assert "directory" in capsys.readouterr().err

    def test_metrics_out_missing_directory_fails_fast(self, tmp_path, capsys):
        import json

        manifest = tmp_path / "jobs.json"
        manifest.write_text(json.dumps({"jobs": [
            {"name": "j", "dataset": "gas_rate", "horizon": 2,
             "num_samples": 2},
        ]}))
        code = main([
            "batch", "--manifest", str(manifest),
            "--metrics-out", "/nonexistent_dir_xyz/m.json",
        ])
        assert code == 2
        assert "--metrics-out" in capsys.readouterr().err

    def test_ledger_summarize_on_directory_reports_error(self, tmp_path, capsys):
        # regression: raw IsADirectoryError traceback before OSError was
        # treated as a user error.
        code = main(["ledger", "summarize", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_backtest_strategy_flag(self, capsys):
        code = main([
            "backtest", "--dataset", "gas_rate", "--horizon", "5",
            "--windows", "2", "--num-samples", "2", "--strategy", "patch",
        ])
        assert code == 0
        assert "RMSE" in capsys.readouterr().out

    def test_parser_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["transmogrify"])

    def test_parser_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["forecast", "--dataset", "gas_rate", "--strategy", "bogus"]
            )

    def test_parser_rejects_csv_and_dataset_together(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["forecast", "--dataset", "gas_rate", "--csv", "x.csv"]
            )
