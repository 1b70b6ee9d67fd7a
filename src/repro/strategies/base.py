"""The :class:`PromptStrategy` interface and its registry.

A prompt strategy owns the *serialisation half* of a forecast: how the
rescaled history becomes a token prompt, how many tokens the continuation
needs, which grammar constrains generation, and how generated streams are
parsed back into value space.  The sampling half — prompt ingest, the
ingest-state cache, lockstep batched decoding — stays in
:class:`~repro.core.forecaster.MultiCastForecaster` and is handed to the
strategy as a :class:`StrategyContext`, so every strategy (including the
sub-requests a composite strategy issues) flows through the engine,
decoder and cache layers unchanged.

Strategies are stateless: one instance may serve any number of concurrent
forecasts.  They are selected by name through the ``strategy`` field of
:class:`~repro.core.spec.ForecastSpec` /
:class:`~repro.core.config.MultiCastConfig` (see
:data:`~repro.core.config.PROMPT_STRATEGIES`) and resolved per request by
:func:`resolve_strategy` — ``"default"`` reproduces the pre-strategy
pipeline bit for bit (digit path, or SAX when ``config.sax`` is set).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import PROMPT_STRATEGIES
from repro.core.output import ForecastOutput
from repro.exceptions import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import MultiCastConfig

__all__ = ["PromptStrategy", "StrategyContext", "get_strategy", "resolve_strategy"]


class StrategyContext(ABC):
    """The execution services a forecaster hands its strategy.

    The context is implemented by
    :class:`~repro.core.forecaster.MultiCastForecaster` (one per request);
    strategies never talk to the LLM substrate directly, so ingest
    caching, batched decoding and deadline stops apply identically to every strategy — and to every *sub-request* a
    composite strategy issues through :meth:`subforecast`.
    """

    #: The request's pipeline configuration (scheme, digits, SAX, ...).
    config: "MultiCastConfig"

    #: The request's :class:`~repro.core.timing.StageClock`; strategies
    #: wrap each pipeline phase in ``clock.stage(...)`` so the output's
    #: timing invariant (``wall_seconds == sum(timings)``) holds.
    clock = None

    #: The request's multiplexer (resolved from ``config.scheme``).
    multiplexer = None

    @abstractmethod
    def run_samples(
        self, vocabulary, prompt_ids, tokens_needed, constraint, seed
    ):
        """Draw the configured sample ensemble for one prompt.

        Returns ``(streams, generated_tokens, simulated_seconds, info)``
        exactly as the forecaster's generation machinery reports them;
        ``info`` carries decode/ingest metadata merged into the
        output's ``metadata``.
        """

    @abstractmethod
    def constraint(self, vocabulary, value_tokens, num_dims, width):
        """The generation constraint for the request's scheme and codec."""

    @abstractmethod
    def truncate_rows(self, matrix, width):
        """Drop old rows so the serialised prompt fits the token budget."""

    @abstractmethod
    def fit_rows(self, rows, horizon, num_dims, fallback):
        """Truncate or pad a demultiplexed sample to exactly ``horizon`` rows."""

    @abstractmethod
    def subforecast(self, values, horizon, seed, label=""):
        """Run a nested forecast through the full request machinery.

        The sub-request uses the parent's ingest-state cache and stop
        callable — so it hits the ingest cache
        and the batched decoder like any top-level request — but always
        the ``"default"`` strategy (composites never recurse).  Returns
        the sub-request's :class:`~repro.core.output.ForecastOutput`.
        """


class PromptStrategy(ABC):
    """One way of turning a series into tokens and tokens back into values."""

    #: Registry name; recorded in output metadata, spans and the ledger.
    name: str = ""

    @abstractmethod
    def forecast(
        self,
        values: np.ndarray,
        horizon: int,
        seed: int | None,
        context: StrategyContext,
    ) -> ForecastOutput:
        """Produce a forecast for ``values`` using ``context``'s services.

        ``values`` is the validated ``(n, d)`` float history (already
        seasonally adjusted when the config asks for it); ``seed`` is the
        request-level sampling seed (``None`` falls back to the config's).
        Implementations must wrap their work in ``context.clock`` stages
        and set ``metadata["strategy"]`` to their :attr:`name`.
        """


def get_strategy(name: str) -> "PromptStrategy":
    """The strategy registered under ``name`` (a fresh stateless instance).

    ``"default"`` is config-dependent (digit vs. SAX), so it cannot be
    built from a bare name — use :func:`resolve_strategy` with the
    request's config instead.
    """
    from repro.strategies.auto import AutoStrategy
    from repro.strategies.decompose import DecomposeThenForecastStrategy
    from repro.strategies.digit import DigitStrategy
    from repro.strategies.patch import PatchAggregateStrategy
    from repro.strategies.sax import SaxStrategy

    registry = {
        "digit": DigitStrategy,
        "sax": SaxStrategy,
        "patch": PatchAggregateStrategy,
        "decompose": DecomposeThenForecastStrategy,
        "auto": AutoStrategy,
    }
    if name not in registry:
        raise ConfigError(
            f"unknown prompt strategy {name!r}; choose from "
            f"{tuple(registry)} (or 'default' via resolve_strategy)"
        )
    return registry[name]()


def resolve_strategy(name: str, config: "MultiCastConfig") -> "PromptStrategy":
    """Resolve a spec/config strategy name to a concrete strategy.

    ``"default"`` preserves the pre-strategy pipeline selection exactly:
    the SAX path when ``config.sax`` is set, the raw digit path otherwise.
    Every other name maps straight to its registered strategy.
    """
    if name not in PROMPT_STRATEGIES:
        raise ConfigError(
            f"strategy must be one of {PROMPT_STRATEGIES}, got {name!r}"
        )
    if name == "default":
        return get_strategy("sax" if config.sax is not None else "digit")
    return get_strategy(name)
