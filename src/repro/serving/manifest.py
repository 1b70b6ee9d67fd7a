"""Batch manifests: declarative job lists for the ``batch`` CLI.

A manifest is a JSON file describing many forecasts to run concurrently —
one per series/configuration pair::

    {
      "jobs": [
        {"name": "gas-di", "dataset": "gas_rate", "scheme": "di",
         "num_samples": 3, "horizon": 8},
        {"name": "gas-sax", "dataset": "gas_rate", "horizon": 8,
         "sax": {"segment_length": 6, "alphabet_size": 5}},
        {"csv": "data/mine.csv", "horizon": 24, "deadline": 30.0}
      ]
    }

``num_samples`` is the canonical sample-count key (the legacy ``samples``
spelling is rewritten by the spec layer's shared alias table, with a
deprecation warning).
``strategy`` picks a prompt strategy (``"patch"``, ``"decompose"``,
``"auto"``, ...) and ``patch_length`` sizes the patch strategy's
aggregation window — both validated by ``MultiCastConfig``.
``tenant`` attributes the job to a tenant for gateway quota accounting
and ledger attribution (see ``docs/SERVING.md``).

A bare top-level list is accepted too.  Unknown keys are rejected early so
a typo (``"smaples"``) fails the whole manifest instead of silently running
defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.config import MultiCastConfig, SaxConfig
from repro.core.spec import canonicalize_sampling_options
from repro.exceptions import ConfigError
from repro.serving.request import ForecastRequest

__all__ = ["BatchJob", "load_manifest"]

#: manifest key → MultiCastConfig field for the plain pass-throughs.
#: Only canonical spellings appear here: deprecated aliases (``samples``,
#: ``n_samples``) are rewritten up front by the spec layer's
#: ``canonicalize_sampling_options``, the single source of alias truth.
_CONFIG_KEYS = {
    "scheme": "scheme",
    "digits": "num_digits",
    "num_samples": "num_samples",
    "model": "model",
    "aggregation": "aggregation",
    "structured_constraint": "structured_constraint",
    "deseasonalize": "deseasonalize",
    "temperature": "temperature",
    "max_context_tokens": "max_context_tokens",
    "seed": "seed",
    "strategy": "strategy",
    "patch_length": "patch_length",
}

_JOB_KEYS = frozenset(_CONFIG_KEYS) | {
    "name", "dataset", "csv", "horizon", "sax", "deadline", "use_cache",
    "tenant",
}


@dataclass
class BatchJob:
    """One manifest entry, validated and ready to pair with its series."""

    name: str
    horizon: int
    config: MultiCastConfig
    dataset: str | None = None
    csv: str | None = None
    deadline: float | None = None
    use_cache: bool = True
    tenant: str = ""

    def to_request(self, history: np.ndarray) -> ForecastRequest:
        """Bind this job's settings to a concrete history array.

        The job's seed (if any) already lives in ``config.seed``.
        """
        return ForecastRequest(
            history=history,
            horizon=self.horizon,
            config=self.config,
            deadline_seconds=self.deadline,
            use_cache=self.use_cache,
            name=self.name,
            tenant=self.tenant,
        )


def _parse_job(index: int, raw: dict) -> BatchJob:
    if not isinstance(raw, dict):
        raise ConfigError(f"job {index} must be an object, got {type(raw).__name__}")
    # Rewrite deprecated aliases first (warns once per use, rejects
    # alias + canonical together) so the rest of the parser only ever
    # sees canonical key names.
    raw = canonicalize_sampling_options(raw, context=f"manifest job {index}")
    unknown = set(raw) - _JOB_KEYS
    if unknown:
        raise ConfigError(
            f"job {index} has unknown keys {sorted(unknown)}; "
            f"allowed: {sorted(_JOB_KEYS)}"
        )
    if ("dataset" in raw) == ("csv" in raw):
        raise ConfigError(
            f"job {index} must name exactly one of 'dataset' or 'csv'"
        )
    if "horizon" not in raw:
        raise ConfigError(f"job {index} is missing the required 'horizon'")

    config_kwargs = {
        field_name: raw[key]
        for key, field_name in _CONFIG_KEYS.items()
        if key in raw
    }
    sax_raw = raw.get("sax")
    if sax_raw is not None:
        if not isinstance(sax_raw, dict):
            raise ConfigError(f"job {index}: 'sax' must be an object")
        config_kwargs["sax"] = SaxConfig(**sax_raw)

    return BatchJob(
        name=str(raw.get("name", f"job-{index}")),
        horizon=int(raw["horizon"]),
        config=MultiCastConfig(**config_kwargs),
        dataset=raw.get("dataset"),
        csv=raw.get("csv"),
        deadline=raw.get("deadline"),
        use_cache=bool(raw.get("use_cache", True)),
        tenant=str(raw.get("tenant", "")),
    )


def load_manifest(path: str | Path) -> list[BatchJob]:
    """Parse and validate a manifest file into :class:`BatchJob` entries."""
    path = Path(path)
    try:
        document = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"manifest not found: {path}") from None
    except json.JSONDecodeError as error:
        raise ConfigError(f"manifest {path} is not valid JSON: {error}") from None

    if isinstance(document, dict):
        jobs_raw = document.get("jobs")
        if jobs_raw is None:
            raise ConfigError(f"manifest {path} has no 'jobs' array")
    elif isinstance(document, list):
        jobs_raw = document
    else:
        raise ConfigError(f"manifest {path} must be an object or array")
    if not jobs_raw:
        raise ConfigError(f"manifest {path} contains no jobs")

    return [_parse_job(i, raw) for i, raw in enumerate(jobs_raw)]
