"""The sktime-style MultiCast estimator adapter.

:class:`MultiCastForecaster` (adapter flavour — distinct from the core
pipeline class of the same name in :mod:`repro.core`) exposes the whole
MultiCast pipeline as a ``fit``/``predict`` estimator whose constructor
parameters are exactly the :class:`~repro.core.spec.ForecastSpec` knobs.
``predict`` builds the equivalent spec and runs it either through a
caller-supplied serving engine (``engine=``, a
:class:`~repro.serving.engine.ForecastEngine` or
:class:`~repro.sharding.engine.ShardedEngine`) or through the in-process
core forecaster; both paths are bit-identical under a fixed seed, so the
adapter's output equals a direct ``engine.forecast(spec)`` call on the
equivalent spec.
"""

from __future__ import annotations

import numpy as np

from repro.adapters.horizon import coerce_horizon
from repro.core import MultiCastForecaster as _CoreForecaster
from repro.core.estimator import BaseEstimator
from repro.core.spec import ForecastSpec
from repro.exceptions import DataError, FittingError

__all__ = ["MultiCastForecaster"]


class MultiCastForecaster(BaseEstimator):
    """MultiCast as an sktime-flavoured estimator.

    Constructor parameters mirror :class:`~repro.core.spec.ForecastSpec`
    one to one (plus ``engine``, an optional serving engine the requests
    are routed through).  ``fit`` stores the ``(n, d)`` history and the
    cutoff; ``predict`` accepts an int horizon (steps ``1..h``), an
    iterable of steps, or a (native or sktime) ``ForecastingHorizon``.
    sktime is never imported — the adapter round-trips without it.
    """

    _PARAMS = (
        "scheme",
        "num_digits",
        "num_samples",
        "model",
        "aggregation",
        "sax",
        "structured_constraint",
        "deseasonalize",
        "temperature",
        "max_context_tokens",
        "strategy",
        "patch_length",
        "seed",
        "engine",
    )
    _TEST_PARAMS = (
        {"model": "uniform-sim", "num_samples": 1, "num_digits": 2},
        {"model": "uniform-sim", "num_samples": 2, "scheme": "di"},
    )

    def __init__(
        self,
        *,
        scheme: str = "vi",
        num_digits: int = 3,
        num_samples: int = 5,
        model: str = "llama2-7b-sim",
        aggregation: str = "median",
        sax=None,
        structured_constraint: bool = True,
        deseasonalize=None,
        temperature: float | None = None,
        max_context_tokens: int = 4096,
        strategy: str = "default",
        patch_length: int = 6,
        seed: int = 0,
        engine=None,
    ) -> None:
        self.scheme = scheme
        self.num_digits = num_digits
        self.num_samples = num_samples
        self.model = model
        self.aggregation = aggregation
        self.sax = sax
        self.structured_constraint = structured_constraint
        self.deseasonalize = deseasonalize
        self.temperature = temperature
        self.max_context_tokens = max_context_tokens
        self.strategy = strategy
        self.patch_length = patch_length
        self.seed = seed
        self.engine = engine
        # Validate the pipeline knobs eagerly, sktime-style: a bad
        # parameter should fail at construction, not at predict time.
        self._template()
        self._history: np.ndarray | None = None
        self._cutoff: int | None = None

    def _template(self) -> ForecastSpec:
        """The unbound spec carrying every pipeline knob of this adapter."""
        return ForecastSpec(
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
            seed=self.seed,
        )

    @property
    def cutoff(self) -> int | None:
        """The training length (``None`` before ``fit``)."""
        return self._cutoff

    def fit(self, y, fh=None) -> "MultiCastForecaster":
        """Store the history; zero-shot, so there is nothing to train.

        ``fh`` is accepted for sktime signature compatibility and ignored
        (the horizon is resolved at :meth:`predict` time).
        """
        del fh
        values = np.asarray(y, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] < 1:
            raise DataError(
                f"expected a non-empty (n, d) history, got shape {values.shape}"
            )
        self._history = values
        self._cutoff = values.shape[0]
        return self

    def spec_for(self, fh) -> ForecastSpec:
        """The exact executable :class:`ForecastSpec` ``predict(fh)`` runs.

        Exposed so callers can pin bit-identity against a direct
        ``engine.forecast(spec)`` call.
        """
        steps = self._steps(fh)
        return self._template().with_series(
            self._history, horizon=int(steps.max())
        )

    def _steps(self, fh) -> np.ndarray:
        if self._history is None or self._cutoff is None:
            raise FittingError("MultiCastForecaster used before fit()")
        return coerce_horizon(fh, self._cutoff)

    def predict(self, fh) -> np.ndarray:
        """Point forecast at the requested steps, shape ``(len(fh), d)``.

        An int ``h`` means steps ``1..h`` (the Estimator-protocol
        convention); a ``ForecastingHorizon`` or iterable selects
        arbitrary future steps.  The request runs through ``engine`` when
        one was supplied, otherwise through the in-process core
        forecaster — the outputs are bit-identical.
        """
        steps = self._steps(fh)
        spec = self.spec_for(fh)
        if self.engine is not None:
            values = self.engine.forecast(spec).values
        else:
            values = _CoreForecaster().forecast(spec).values
        return np.asarray(values)[steps - 1]
