"""The decompose-then-forecast strategy: STL-style split, three sub-requests.

Decomposition-aware prompting (arXiv 2506.12953) forecasts a series'
structural components separately: each dimension is split into
trend + seasonal + residual by classical decomposition
(:mod:`repro.decomposition.classical`), the three component matrices are
forecast as *separate sub-requests* through the parent request's full
machinery — so every sub-request hits the ingest-state cache and the
batched decoder exactly like a top-level request — and
the component forecasts are recombined sample-by-sample with exact token
and sample bookkeeping in the returned
:class:`~repro.core.output.ForecastOutput`.

Dimensions with no usable seasonality (no detected period, or fewer than
two full periods of history) contribute their whole series to the trend
component and zeros to the other two; a component that is identically zero
across all dimensions is skipped outright (its forecast is exactly zero,
no tokens spent) — the bookkeeping records the skip.
"""

from __future__ import annotations

import numpy as np

from repro.core.aggregation import aggregate_samples
from repro.core.output import ForecastOutput
from repro.decomposition import ClassicalDecomposition, estimate_period
from repro.exceptions import FittingError
from repro.llm import child_seeds
from repro.strategies.base import PromptStrategy, StrategyContext

__all__ = ["DecomposeThenForecastStrategy"]

#: Component order; also the sub-request seed derivation order.
_COMPONENTS = ("trend", "seasonal", "residual")


class DecomposeThenForecastStrategy(PromptStrategy):
    """Forecast trend/seasonal/residual separately and recombine exactly."""

    name = "decompose"

    def forecast(
        self,
        values: np.ndarray,
        horizon: int,
        seed: int | None,
        context: StrategyContext,
    ) -> ForecastOutput:
        """Split each dimension, sub-forecast each component, recombine."""
        config = context.config
        clock = context.clock
        n, d = values.shape

        with clock.stage("decompose"):
            components = {
                name: np.zeros_like(values) for name in _COMPONENTS
            }
            periods: list[int | None] = []
            for k in range(d):
                period = self._period_for(values[:, k], config)
                if period is None or n < 2 * period:
                    # No usable seasonality: the whole series is "trend".
                    components["trend"][:, k] = values[:, k]
                    periods.append(None)
                    continue
                split = ClassicalDecomposition.fit(values[:, k], period)
                components["trend"][:, k] = split.trend
                components["seasonal"][:, k] = split.seasonal_at(np.arange(n))
                components["residual"][:, k] = split.residual
                periods.append(period)

        base_seed = config.seed if seed is None else seed
        component_seeds = child_seeds(
            np.random.default_rng(base_seed), len(_COMPONENTS)
        )

        outputs: dict[str, ForecastOutput | None] = {}
        with clock.stage("generate"):
            for name, sub_seed in zip(_COMPONENTS, component_seeds):
                component = components[name]
                if not component.any():
                    # Identically zero everywhere: the forecast is exactly
                    # zero; spending tokens on it would only add noise.
                    outputs[name] = None
                    continue
                outputs[name] = context.subforecast(
                    component, horizon, sub_seed, label=f"component:{name}"
                )

        with clock.stage("aggregate"):
            forecast_outputs = [o for o in outputs.values() if o is not None]
            if forecast_outputs:
                completed = min(o.num_samples for o in forecast_outputs)
            else:  # an all-zero series: every component was skipped
                completed = config.num_samples
            combined = np.zeros((completed, horizon, d))
            for output in forecast_outputs:
                combined += output.samples[:completed]
            point = aggregate_samples(combined, config.aggregation)

        bookkeeping = {
            name: (
                {"skipped": True, "prompt_tokens": 0, "generated_tokens": 0}
                if output is None
                else {
                    "skipped": False,
                    "prompt_tokens": output.prompt_tokens,
                    "generated_tokens": output.generated_tokens,
                    "completed_samples": output.num_samples,
                    "ingest": output.metadata.get("ingest"),
                }
            )
            for name, output in outputs.items()
        }
        metadata = {
            "method": "multicast-decompose",
            "sax": config.sax is not None,
            "strategy": self.name,
            "periods": periods,
            "components": bookkeeping,
            "ingest": "composite",
            "requested_samples": config.num_samples,
            "completed_samples": completed,
        }
        return ForecastOutput(
            values=point,
            samples=combined,
            prompt_tokens=sum(o.prompt_tokens for o in forecast_outputs),
            generated_tokens=sum(o.generated_tokens for o in forecast_outputs),
            simulated_seconds=sum(
                o.simulated_seconds for o in forecast_outputs
            ),
            model_name=config.model,
            metadata=metadata,
        )

    @staticmethod
    def _period_for(series: np.ndarray, config) -> int | None:
        """The seasonality period to decompose one dimension with.

        An integer ``deseasonalize`` setting is honoured directly;
        otherwise the period is detected from the autocorrelation peak.
        Returns ``None`` when there is no usable seasonality.
        """
        if isinstance(config.deseasonalize, int):
            return config.deseasonalize
        try:
            period = estimate_period(series)
        except FittingError:
            return None
        return period if period >= 2 else None
