"""Pluggable prompt strategies for the MultiCast pipeline.

A :class:`~repro.strategies.base.PromptStrategy` owns the serialisation
half of a forecast — history → token prompt → generated tokens → values —
while the forecaster keeps the sampling half (ingest cache, lockstep
batched decoding) and hands it to the strategy as a
:class:`~repro.strategies.base.StrategyContext`.  Strategies are selected
by the ``strategy`` field on :class:`~repro.core.spec.ForecastSpec` /
:class:`~repro.core.config.MultiCastConfig`:

- ``"default"`` — the pre-strategy pipeline, bit for bit (digit, or SAX
  when ``config.sax`` is set);
- ``"digit"`` — per-step fixed-digit serialisation (paper Section III-A);
- ``"sax"`` — symbol-per-segment SAX prompting (paper Section III-B);
- ``"patch"`` — per-patch PAA means, ~``patch_length``× fewer tokens;
- ``"decompose"`` — trend/seasonal/residual forecast as separate
  sub-requests and recombined exactly;
- ``"auto"`` — heuristic selection from length, dimensionality, detected
  seasonality and the token budget.
"""

from repro.strategies.auto import AutoStrategy, select_strategy
from repro.strategies.base import (
    PromptStrategy,
    StrategyContext,
    get_strategy,
    resolve_strategy,
)
from repro.strategies.decompose import DecomposeThenForecastStrategy
from repro.strategies.digit import DigitStrategy
from repro.strategies.patch import PatchAggregateStrategy
from repro.strategies.sax import SaxStrategy

__all__ = [
    "PromptStrategy",
    "StrategyContext",
    "get_strategy",
    "resolve_strategy",
    "select_strategy",
    "AutoStrategy",
    "DecomposeThenForecastStrategy",
    "DigitStrategy",
    "PatchAggregateStrategy",
    "SaxStrategy",
]
