"""The ``auto`` selector: pick a strategy from the series' shape.

``auto`` is not a serialisation of its own — it inspects the request
(history length, dimensionality, detected seasonality, the config's token
budget) and delegates to the strategy the heuristics favour, recording the
choice in the output's metadata so ledger records and spans stay honest:

1. **patch** when the per-step digit prompt would overflow
   ``config.max_context_tokens`` — patch aggregation divides the token
   count by ``patch_length``, which beats silently truncating history;
2. **decompose** when at least one dimension has a detected seasonal
   period with two full cycles of history — component-wise forecasting is
   exactly the regime where exact-suffix induction struggles;
3. **default** (digit, or SAX when ``config.sax`` is set) otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.core.multiplex import get_multiplexer
from repro.core.output import ForecastOutput
from repro.decomposition import estimate_period
from repro.exceptions import FittingError
from repro.strategies.base import PromptStrategy, StrategyContext

__all__ = ["AutoStrategy", "select_strategy"]


def select_strategy(values: np.ndarray, config) -> str:
    """The strategy name ``auto`` resolves to for this history and config.

    Pure and deterministic in ``(values, config)`` — the same request
    always selects the same strategy, so auto-selected forecasts stay
    reproducible and cacheable.
    """
    n, d = values.shape
    width = 1 if config.sax is not None else config.num_digits
    multiplexer = get_multiplexer(config.scheme)
    prompt_tokens = n * multiplexer.tokens_per_timestamp(d, width)
    if prompt_tokens > config.max_context_tokens:
        return "patch"
    for k in range(d):
        period = _detected_period(values[:, k])
        if period is not None and n >= 2 * period:
            return "decompose"
    return "default"


def _detected_period(series: np.ndarray) -> int | None:
    """The autocorrelation-peak period, or ``None`` when unusable."""
    try:
        period = estimate_period(series)
    except FittingError:
        return None
    return period if period >= 2 else None


class AutoStrategy(PromptStrategy):
    """Delegate to :func:`select_strategy`'s pick and record the choice."""

    name = "auto"

    def forecast(
        self,
        values: np.ndarray,
        horizon: int,
        seed: int | None,
        context: StrategyContext,
    ) -> ForecastOutput:
        """Select per :func:`select_strategy`, delegate, annotate metadata."""
        from repro.strategies.base import resolve_strategy

        config = context.config
        selected = select_strategy(values, config)
        delegate = resolve_strategy(selected, config)
        output = delegate.forecast(values, horizon, seed, context)
        # The ledger records the auto selection, not just the delegate:
        # "auto:patch" says both what ran and why it was chosen.
        output.metadata["auto_selected"] = delegate.name
        output.metadata["strategy"] = f"auto:{delegate.name}"
        return output
