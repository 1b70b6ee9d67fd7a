"""Request/response envelopes for the forecast service.

A :class:`ForecastRequest` is everything the engine needs to produce one
forecast — the series, the pipeline configuration, the horizon — plus the
serving-level contract: an optional per-request deadline and cache opt-out.
A :class:`ForecastResponse` wraps the resulting
:class:`~repro.core.output.ForecastOutput` with serving outcomes (cache hit,
retry count, error) so batch callers can triage without
exception handling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import MultiCastConfig
from repro.core.output import ForecastOutput
from repro.core.spec import ForecastSpec
from repro.exceptions import ConfigError, ReproError

__all__ = ["ForecastRequest", "ForecastResponse"]


@dataclass
class ForecastRequest:
    """One unit of serving work.

    Attributes
    ----------
    history:
        ``(n,)`` or ``(n, d)`` float array of observed values.
    horizon:
        Steps to forecast past the end of the history.
    config:
        Full pipeline configuration (scheme, samples, SAX, model, ...).
    seed:
        Optional override of ``config.seed`` for this request.
    deadline_seconds:
        Wall-clock budget, polled between decode steps.  A request still
        decoding when it expires is abandoned and answered with an error
        response naming the deadline.
    use_cache:
        Set False to bypass the engine's result cache (both lookup and
        store) for this request.
    name:
        Caller-chosen label, echoed in the response (batch manifests use it).
    tenant:
        Owning tenant for multi-tenant serving (the gateway's quota and
        ledger attribution key).  Deliberately **not** part of the result
        digest: identical specs from different tenants coalesce to one
        computation.  Empty for direct engine calls.
    """

    history: np.ndarray
    horizon: int
    config: MultiCastConfig = field(default_factory=MultiCastConfig)
    seed: int | None = None
    deadline_seconds: float | None = None
    use_cache: bool = True
    name: str = ""
    tenant: str = ""

    def __post_init__(self) -> None:
        self.history = np.asarray(self.history, dtype=float)
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ConfigError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds}"
            )

    @classmethod
    def from_spec(
        cls,
        spec: ForecastSpec,
        *,
        deadline_seconds: float | None = None,
        use_cache: bool = True,
        name: str = "",
        tenant: str = "",
    ) -> "ForecastRequest":
        """Wrap an executable :class:`~repro.core.spec.ForecastSpec`.

        The spec carries the pipeline half (series, horizon, config,
        seed); the keyword arguments add the serving-level contract.
        """
        spec.require_series()
        return cls(
            history=spec.series,
            horizon=spec.horizon,
            config=spec.config,
            seed=spec.seed,
            deadline_seconds=deadline_seconds,
            use_cache=use_cache,
            name=name,
            tenant=tenant,
        )

    @property
    def effective_seed(self) -> int:
        """The per-request seed override, falling back to the config seed."""
        return self.config.seed if self.seed is None else self.seed


@dataclass
class ForecastResponse:
    """Outcome of serving one :class:`ForecastRequest`.

    ``output`` is None exactly when ``error`` is set.  ``partial`` is
    always False: every stream of a request shares one token budget and a
    deadline abandons all live streams together, so a forecast is never
    aggregated from fewer than the requested samples.  The field stays
    only because the end-to-end benchmark's load generator reads it.

    ``trace`` carries the request's finished
    :class:`~repro.observability.Span` tree when the engine was built with
    a real tracer (None otherwise) — render it with
    :func:`~repro.observability.render_span_tree`.
    """

    request: ForecastRequest
    output: ForecastOutput | None = None
    error: str | None = None
    cache_hit: bool = False
    partial: bool = False
    attempts: int = 1
    wall_seconds: float = 0.0
    trace: object | None = None

    @property
    def ok(self) -> bool:
        """True when the request produced a forecast."""
        return self.error is None and self.output is not None

    @property
    def name(self) -> str:
        """The originating request's label."""
        return self.request.name

    @property
    def values(self) -> np.ndarray:
        """The point forecast; raises if the request failed."""
        if self.output is None:
            raise ReproError(
                f"request {self.request.name or '<unnamed>'} failed: {self.error}"
            )
        return self.output.values

    def summary(self) -> str:
        """One status line for logs and the batch CLI."""
        label = self.request.name or "request"
        if not self.ok:
            return f"{label}: ERROR {self.error}"
        flags = []
        if self.cache_hit:
            flags.append("cached")
        if self.attempts > 1:
            flags.append(f"{self.attempts} attempts")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return (
            f"{label}: ok horizon={self.output.horizon} "
            f"dims={self.output.num_dims} wall={self.wall_seconds:.3f}s{suffix}"
        )
