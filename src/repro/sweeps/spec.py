"""Declarative sweep specifications and deterministic trial expansion.

A :class:`SweepSpec` names a method (a ``multicast-*`` scheme or a
registered baseline estimator), a search space over its knobs, and the
backtest protocol used to score each candidate.  :func:`expand_trials`
turns it into a deterministic list of :class:`Trial` objects — pure
arithmetic on the spec and its seed, so the same spec always yields the
same trials in the same order, on any host and across any number of
shards.  Each trial carries a content-addressed ``trial_digest`` (method
+ canonical parameter JSON), which is what the crash-tolerant resume
path keys on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np

from repro.baselines import available_estimators, estimator_param_names
from repro.core.spec import ForecastSpec, canonicalize_sampling_options
from repro.exceptions import ConfigError

__all__ = ["SweepSpec", "Trial", "expand_trials", "KNOB_ALIASES"]

#: The paper's single-letter knob names (Table II) mapped to canonical
#: ForecastSpec fields: ``b`` digits of precision, ``w`` SAX segment
#: length, ``a`` SAX alphabet size.
KNOB_ALIASES = {
    "b": "num_digits",
    "w": "sax.segment_length",
    "a": "sax.alphabet_size",
}

#: Supported search strategies.
SEARCH_MODES = ("grid", "random")

#: ForecastSpec fields a multicast sweep may vary or fix.  ``series``,
#: ``horizon`` and ``seed`` are owned by the backtest protocol;
#: ``scheme`` is owned by the method name.
_MULTICAST_KNOBS = frozenset(
    {
        "num_digits",
        "num_samples",
        "model",
        "aggregation",
        "structured_constraint",
        "deseasonalize",
        "temperature",
        "max_context_tokens",
        "strategy",
        "patch_length",
    }
)


def _canonical_json(value) -> str:
    """Deterministic JSON for digests (sorted keys, tuples as lists)."""

    def default(obj):
        if isinstance(obj, (np.integer,)):
            return int(obj)
        if isinstance(obj, (np.floating,)):
            return float(obj)
        raise TypeError(f"not canonicalizable: {obj!r}")

    return json.dumps(value, sort_keys=True, default=default)


def _digest(value) -> str:
    return hashlib.blake2b(
        _canonical_json(value).encode(), digest_size=8
    ).hexdigest()


def trial_digest(method: str, params: dict) -> str:
    """Content address of one trial: method + canonical parameter JSON."""
    return _digest({"method": method, "params": params})


@dataclasses.dataclass(frozen=True)
class Trial:
    """One expanded sweep candidate.

    ``index`` is the position in the deterministic expansion order,
    ``params`` the flat (possibly dotted ``sax.*``) parameter assignment,
    ``seed`` the trial-specific base seed derived from the sweep seed and
    the digest, and ``trial_digest`` the content address used by resume.
    """

    index: int
    params: dict
    seed: int
    trial_digest: str


def _canonicalize_key(key: str) -> str:
    return KNOB_ALIASES.get(key, key)


def _normalize_space(space: dict, *, context: str) -> dict:
    if not isinstance(space, dict) or not space:
        raise ConfigError(f"{context} must be a non-empty dict of candidates")
    normalized = {}
    for raw_key, values in space.items():
        key = _canonicalize_key(str(raw_key))
        if key in normalized:
            raise ConfigError(
                f"{context} names knob {key!r} twice (alias collision)"
            )
        if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__"):
            raise ConfigError(
                f"{context}[{raw_key!r}] must be an iterable of candidate "
                f"values, got {values!r}"
            )
        candidates = tuple(values)
        if not candidates:
            raise ConfigError(f"{context}[{raw_key!r}] has no candidates")
        normalized[key] = candidates
    return normalized


def _validate_knobs(method: str, keys, *, context: str) -> None:
    if method.startswith("multicast-"):
        allowed = _MULTICAST_KNOBS
        for key in keys:
            if key in allowed or key.startswith("sax."):
                continue
            raise ConfigError(
                f"{context}: {key!r} is not a sweepable MultiCast knob; "
                f"allowed: {sorted(allowed)} plus dotted 'sax.*' fields "
                f"and the paper aliases {sorted(KNOB_ALIASES)}"
            )
    else:
        allowed = set(estimator_param_names(method))
        unknown = sorted(set(keys) - allowed)
        if unknown:
            raise ConfigError(
                f"{context}: unknown parameters {unknown} for estimator "
                f"{method!r}; valid parameters are {sorted(allowed)}"
            )


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """A declarative hyperparameter sweep.

    Attributes
    ----------
    method:
        ``"multicast-di/vi/vc/bi"`` (trials fan out through the serving
        engine) or a registered baseline estimator name
        (:func:`repro.baselines.available_estimators`).
    space:
        Knob name → iterable of candidate values.  The paper's single
        letter aliases (:data:`KNOB_ALIASES`) and dotted ``sax.*`` keys
        are accepted for multicast methods; ``n_samples`` is rewritten to
        ``num_samples`` with the standard deprecation warning.
    search:
        ``"grid"`` (full cartesian product) or ``"random"``
        (``num_trials`` seeded draws from the product).
    num_trials:
        Required for random search; must be omitted (or equal the grid
        size) for grid search.
    seed:
        Base seed: drives random-search sampling and derives each
        trial's own seed from its digest.
    horizon, num_windows, stride:
        The rolling-origin backtest protocol each candidate is scored on
        (mean RMSE across windows; ``stride`` defaults to ``horizon``).
    num_rungs, eta:
        Successive-halving early stopping: rung ``r`` of ``R`` scores the
        ``ceil(num_windows / eta**(R-1-r))`` most recent windows and
        keeps the best ``ceil(alive / eta)`` trials.  ``num_rungs=1``
        disables early stopping (every trial scores every window).
    fixed:
        Knob assignments applied to every trial (same key space as
        ``space``; a key may not appear in both).
    """

    method: str
    space: dict
    search: str = "grid"
    num_trials: int | None = None
    seed: int = 0
    horizon: int = 4
    num_windows: int = 2
    stride: int | None = None
    num_rungs: int = 1
    eta: int = 3
    fixed: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.search not in SEARCH_MODES:
            raise ConfigError(
                f"search must be one of {SEARCH_MODES}, got {self.search!r}"
            )
        if not (
            self.method.startswith("multicast-")
            or self.method in available_estimators()
        ):
            known = ", ".join(
                ["multicast-<scheme>"] + available_estimators()
            )
            raise ConfigError(
                f"unknown sweep method {self.method!r}; available: {known}"
            )
        space = _normalize_space(
            canonicalize_sampling_options(
                dict(self.space), context="SweepSpec space"
            ),
            context="SweepSpec.space",
        )
        fixed = canonicalize_sampling_options(
            {_canonicalize_key(str(k)): v for k, v in dict(self.fixed).items()},
            context="SweepSpec fixed",
        )
        overlap = sorted(set(space) & set(fixed))
        if overlap:
            raise ConfigError(
                f"knobs {overlap} appear in both space and fixed"
            )
        _validate_knobs(self.method, space, context="SweepSpec.space")
        _validate_knobs(self.method, fixed, context="SweepSpec.fixed")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "fixed", fixed)
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if self.num_windows < 1:
            raise ConfigError(
                f"num_windows must be >= 1, got {self.num_windows}"
            )
        if self.stride is not None and self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        if self.num_rungs < 1:
            raise ConfigError(f"num_rungs must be >= 1, got {self.num_rungs}")
        if self.eta < 2:
            raise ConfigError(f"eta must be >= 2, got {self.eta}")
        grid_size = self.grid_size
        if self.search == "grid":
            if self.num_trials is not None and self.num_trials != grid_size:
                raise ConfigError(
                    f"grid search over this space has exactly {grid_size} "
                    f"trials; num_trials={self.num_trials} conflicts "
                    f"(omit it, or switch to search='random')"
                )
        else:
            if self.num_trials is None or self.num_trials < 1:
                raise ConfigError(
                    "random search needs num_trials >= 1"
                )

    @property
    def grid_size(self) -> int:
        """The full cartesian-product size of the space."""
        return math.prod(len(v) for v in self.space.values())

    @property
    def total_trials(self) -> int:
        """Trials this spec expands to."""
        return self.grid_size if self.search == "grid" else int(self.num_trials)

    @property
    def sweep_id(self) -> str:
        """Content address of the whole sweep (spec fields + seed)."""
        return _digest(
            {
                "method": self.method,
                "space": {k: list(v) for k, v in self.space.items()},
                "search": self.search,
                "num_trials": self.num_trials,
                "seed": self.seed,
                "horizon": self.horizon,
                "num_windows": self.num_windows,
                "stride": self.stride,
                "num_rungs": self.num_rungs,
                "eta": self.eta,
                "fixed": self.fixed,
            }
        )

    def windows_for_rung(self, rung: int) -> int:
        """Backtest windows scored at ``rung`` (latest-first allocation)."""
        if not 0 <= rung < self.num_rungs:
            raise ConfigError(
                f"rung must be in [0, {self.num_rungs}), got {rung}"
            )
        return max(
            1,
            math.ceil(
                self.num_windows / self.eta ** (self.num_rungs - 1 - rung)
            ),
        )

    def spec_template(self) -> ForecastSpec | None:
        """For multicast methods: the unbound ForecastSpec of ``fixed``.

        Returns ``None`` for baseline estimator sweeps.  Dotted ``sax.*``
        keys are folded into the ``sax`` config dict.
        """
        if not self.method.startswith("multicast-"):
            return None
        scheme = self.method.split("-", 1)[1]
        return ForecastSpec(scheme=scheme, **_fold_sax(self.fixed))


def _fold_sax(params: dict) -> dict:
    """Fold dotted ``sax.*`` keys into a ``sax`` dict kwarg."""
    folded: dict = {}
    sax: dict = {}
    for key, value in params.items():
        if key.startswith("sax."):
            sax[key[len("sax.") :]] = value
        else:
            folded[key] = value
    if sax:
        folded["sax"] = sax
    return folded


def expand_trials(sweep: SweepSpec) -> list[Trial]:
    """The deterministic trial list of a sweep.

    Grid search enumerates the cartesian product with knob names sorted
    and candidate values in their given order; random search draws
    ``num_trials`` assignments from a ``default_rng(seed)`` stream.  Each
    trial's own seed is derived from the sweep seed and the trial digest,
    so it is stable under re-expansion and independent of trial order.
    """
    keys = sorted(sweep.space)
    assignments: list[dict] = []
    if sweep.search == "grid":
        for combo in itertools.product(*(sweep.space[k] for k in keys)):
            assignments.append(dict(zip(keys, combo)))
    else:
        rng = np.random.default_rng(sweep.seed)
        for _ in range(int(sweep.num_trials)):
            assignments.append(
                {
                    k: sweep.space[k][int(rng.integers(len(sweep.space[k])))]
                    for k in keys
                }
            )
    trials = []
    for index, assignment in enumerate(assignments):
        params = {**sweep.fixed, **assignment}
        digest = trial_digest(sweep.method, params)
        seed_material = hashlib.blake2b(
            f"{sweep.seed}:{digest}".encode(), digest_size=8
        ).digest()
        seed = int.from_bytes(seed_material[:4], "big")
        trials.append(
            Trial(index=index, params=params, seed=seed, trial_digest=digest)
        )
    return trials
