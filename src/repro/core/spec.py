"""ForecastSpec: the one request object every entry point accepts.

Four PRs of growth left the public surface with overlapping-but-different
kwargs: a bare-array ``MultiCastForecaster.forecast(history, horizon)``,
``ForecastEngine.submit(ForecastRequest(...))``, CLI flags, and
``rolling_origin_evaluation(..., **pipeline_options)`` each spelled the
same pipeline settings a little differently.  :class:`ForecastSpec`
consolidates them: one frozen dataclass carrying the series, the horizon,
every pipeline knob of :class:`~repro.core.config.MultiCastConfig` and
the sampling seed.  How the sample ensemble is decoded is not a spec
field: every request runs the one per-request lockstep decoder of
:mod:`repro.llm.batch`.

Migration (see ``docs/API.md``)::

    spec = ForecastSpec(series=history, horizon=12, scheme="di", seed=7)
    output = MultiCastForecaster().forecast(spec)          # (history, 12) is gone
    response = ForecastEngine().forecast(spec)             # was a ForecastRequest
    result = rolling_origin_evaluation("multicast-di", ds, 12, spec=spec)

The remaining legacy spellings (option aliases, the backtest's loose
pipeline options) keep working for one release behind shims that emit
:class:`DeprecationWarning` (the test suite turns those warnings into
errors for first-party call sites, so internal drift cannot reappear).
"""

from __future__ import annotations

import dataclasses
import warnings
from collections.abc import Sequence

import numpy as np

from repro.core.config import PROMPT_STRATEGIES, MultiCastConfig, SaxConfig
from repro.exceptions import ConfigError

__all__ = [
    "ForecastSpec",
    "PROMPT_STRATEGIES",
    "canonicalize_sampling_options",
]

#: Legacy spellings of canonical sampling fields, accepted-and-warned for
#: one release (the kwarg-drift cleanup: ``num_samples`` is canonical).
#: This table is the *only* place aliases live — the CLI, the manifest
#: loader, sweeps and the estimator adapters all route through
#: :func:`canonicalize_sampling_options` instead of re-implementing it.
_FIELD_ALIASES = {"n_samples": "num_samples", "samples": "num_samples"}


def canonicalize_sampling_options(options: dict, *, context: str) -> dict:
    """Rewrite deprecated option aliases (``n_samples``/``samples`` →
    ``num_samples``).

    Emits a :class:`DeprecationWarning` per alias used; raises
    :class:`~repro.exceptions.ConfigError` when an alias and its canonical
    spelling are both present.  ``context`` names the call site in the
    warning message.  Returns a new dict; the input is not mutated.
    """
    resolved = dict(options)
    for alias, canonical in _FIELD_ALIASES.items():
        if alias not in resolved:
            continue
        if canonical in resolved:
            raise ConfigError(
                f"{context} got both {alias!r} and {canonical!r}; "
                f"use only {canonical!r}"
            )
        warnings.warn(
            f"the {alias!r} option of {context} is deprecated; use "
            f"{canonical!r} (the canonical ForecastSpec field name)",
            DeprecationWarning,
            stacklevel=3,
        )
        resolved[canonical] = resolved.pop(alias)
    return resolved


@dataclasses.dataclass(frozen=True, eq=False)
class ForecastSpec:
    """One self-contained forecast request.

    Attributes
    ----------
    series:
        The ``(n, d)`` (or 1-D) history to forecast from.  Coerced to a
        read-only float array.  May be ``None`` for a *template* spec
        (e.g. the ``spec=`` argument of
        :func:`~repro.evaluation.backtest.rolling_origin_evaluation`,
        which fills in each window's history via :meth:`replace`).
    horizon:
        Steps to forecast past the end of the series (``None`` only for
        templates).
    scheme, num_digits, num_samples, model, aggregation, sax,
    structured_constraint, deseasonalize, temperature, max_context_tokens,
    strategy, patch_length:
        The pipeline knobs of :class:`~repro.core.config.MultiCastConfig`,
        with identical names, defaults and validation.  ``sax`` also
        accepts a plain dict (handy in JSON manifests), coerced to a
        :class:`~repro.core.config.SaxConfig`.  ``strategy`` selects the
        prompt strategy (:data:`PROMPT_STRATEGIES`; ``"default"``
        preserves the pre-strategy pipeline bit for bit).
    seed:
        Base RNG seed for the sample ensemble.
    """

    series: np.ndarray | Sequence | None = None
    horizon: int | None = None
    scheme: str = "vi"
    num_digits: int = 3
    num_samples: int = 5
    model: str = "llama2-7b-sim"
    aggregation: str = "median"
    sax: SaxConfig | dict | None = None
    structured_constraint: bool = True
    deseasonalize: int | str | None = None
    temperature: float | None = None
    max_context_tokens: int = 4096
    strategy: str = "default"
    patch_length: int = 6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.series is not None:
            values = np.array(self.series, dtype=float)
            values.setflags(write=False)
            object.__setattr__(self, "series", values)
        if self.horizon is not None:
            object.__setattr__(self, "horizon", int(self.horizon))
        if isinstance(self.sax, dict):
            object.__setattr__(self, "sax", SaxConfig(**self.sax))
        # Building the config validates every pipeline field eagerly.
        object.__setattr__(self, "_config", self._build_config())

    def _build_config(self) -> MultiCastConfig:
        return MultiCastConfig(
            scheme=self.scheme,
            num_digits=self.num_digits,
            num_samples=self.num_samples,
            model=self.model,
            aggregation=self.aggregation,
            sax=self.sax,
            structured_constraint=self.structured_constraint,
            deseasonalize=self.deseasonalize,
            temperature=self.temperature,
            max_context_tokens=self.max_context_tokens,
            strategy=self.strategy,
            patch_length=self.patch_length,
            seed=int(self.seed),
        )

    @property
    def config(self) -> MultiCastConfig:
        """The pipeline settings as a :class:`MultiCastConfig`."""
        return self._config

    def require_series(self) -> None:
        """Raise unless this spec is executable (series and horizon set)."""
        if self.series is None:
            raise ConfigError(
                "this ForecastSpec is a template: set its series "
                "(spec.replace(series=..., horizon=...)) before forecasting"
            )
        if self.horizon is None:
            raise ConfigError("ForecastSpec.horizon must be set to forecast")

    def replace(self, **changes) -> "ForecastSpec":
        """A copy with ``changes`` applied (fields re-validated).

        Deprecated aliases are rewritten exactly as in :meth:`create`;
        anything else that is not a spec field raises
        :class:`~repro.exceptions.ConfigError` naming the offenders, so a
        typo'd knob fails loudly instead of surfacing as a bare
        ``TypeError`` deep inside ``dataclasses.replace``.
        """
        changes = canonicalize_sampling_options(
            changes, context="ForecastSpec.replace"
        )
        valid = {f.name for f in dataclasses.fields(self)}
        unknown = sorted(set(changes) - valid)
        if unknown:
            raise ConfigError(
                f"ForecastSpec.replace got unknown fields {unknown}; "
                f"valid fields are {sorted(valid)}"
            )
        return dataclasses.replace(self, **changes)

    def with_series(
        self, series, horizon: int | None = None
    ) -> "ForecastSpec":
        """A copy bound to ``series`` (and optionally a new horizon)."""
        changes: dict = {"series": series}
        if horizon is not None:
            changes["horizon"] = horizon
        return self.replace(**changes)

    @classmethod
    def create(cls, **options) -> "ForecastSpec":
        """Build a spec from keyword options, accepting deprecated aliases.

        The constructor itself is strict; this factory first routes the
        options through :func:`canonicalize_sampling_options` so manifest
        loaders and CLI paths keep accepting ``n_samples`` (with a
        :class:`DeprecationWarning`) for one release.
        """
        return cls(
            **canonicalize_sampling_options(options, context="ForecastSpec.create")
        )

    @classmethod
    def from_config(
        cls,
        config: MultiCastConfig,
        series=None,
        horizon: int | None = None,
        seed: int | None = None,
    ) -> "ForecastSpec":
        """Flatten an existing :class:`MultiCastConfig` into a spec.

        The mechanical migration path for call sites that already hold a
        config object; ``seed`` defaults to the config's own seed.
        """
        return cls(
            series=series,
            horizon=horizon,
            scheme=config.scheme,
            num_digits=config.num_digits,
            num_samples=config.num_samples,
            model=config.model,
            aggregation=config.aggregation,
            sax=config.sax,
            structured_constraint=config.structured_constraint,
            deseasonalize=config.deseasonalize,
            temperature=config.temperature,
            max_context_tokens=config.max_context_tokens,
            strategy=config.strategy,
            patch_length=config.patch_length,
            seed=config.seed if seed is None else int(seed),
        )

    def __repr__(self) -> str:
        shape = None if self.series is None else tuple(self.series.shape)
        return (
            f"ForecastSpec(series_shape={shape}, horizon={self.horizon}, "
            f"scheme={self.scheme!r}, model={self.model!r}, "
            f"num_samples={self.num_samples}, sax={self.sax is not None}, "
            f"strategy={self.strategy!r}, seed={self.seed})"
        )
