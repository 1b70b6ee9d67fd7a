"""Seed-reproducible adversarial case generation for the fuzz harness.

Every case is a plain-data :class:`FuzzCase` that serialises to JSON, so a
failing draw can be written to disk, replayed bit-for-bit, and pinned as a
regression test.  Generation is driven entirely by a
:class:`numpy.random.Generator` seeded from ``(run_seed, case_index)`` —
the same run seed always yields the same case sequence.

The value generators are deliberately adversarial: the menu leans on the
numeric edges where float64 affine maps break down (constant series at any
magnitude, spans near the subnormal floor, values near ``±1.8e308``,
single-timestamp histories) rather than on well-behaved random walks.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "FAMILIES",
    "SCALERS",
    "CODECS",
    "CORRUPTIONS",
    "FuzzCase",
    "generate_case",
]

#: The seven property families the harness checks (see package docstring).
FAMILIES = (
    "round_trip",
    "mux_identity",
    "constraint_soundness",
    "decode_equivalence",
    "sharded_equivalence",
    "decomposition_roundtrip",
    "strategy_equivalence",
)

#: Scaler kinds fuzzed by the ``round_trip`` family.
SCALERS = ("fixed", "percentile", "zscore", "minmax")

#: Cell codecs: raw digits, and SAX with each alphabet kind.
CODECS = ("digit", "sax-alphabetical", "sax-digital")

#: Stream corruption modes applied before demultiplexing.
CORRUPTIONS = ("none", "truncate", "separator")

_SCHEMES = ("di", "vi", "vc", "bi")

# Constant / magnitude menu: zero, units, tiny, huge, subnormal, near-max.
_MAGNITUDES = (
    0.0,
    1.0,
    -1.0,
    1e-9,
    -273.15,
    1e9,
    -1e12,
    1e300,
    -1e300,
    5e-324,
    1.5e308,
    -1.5e308,
)

_DIM_CHOICES = (1, 1, 2, 3, 8, 12)
_STEP_CHOICES = (1, 2, 4, 5, 16, 40)
_DIGIT_CHOICES = (1, 2, 3, 6)
_SEGMENT_CHOICES = (1, 2, 5)


@dataclass
class FuzzCase:
    """One fully-specified fuzz draw: inputs plus every pipeline knob.

    ``values`` always carries the raw ``(n, d)`` float series; families
    that operate on integer code matrices derive codes from it
    deterministically (see :func:`repro.fuzz.properties.codes_for`).
    """

    family: str
    scheme: str
    codec: str
    scaler: str
    num_digits: int
    alphabet_size: int
    segment_length: int
    corruption: str
    cut: float
    seed: int
    values: list[list[float]]

    @property
    def num_steps(self) -> int:
        """Number of timestamps ``n`` in the input series."""
        return len(self.values)

    @property
    def num_dims(self) -> int:
        """Number of dimensions ``d`` in the input series."""
        return len(self.values[0]) if self.values else 0

    def describe(self) -> str:
        """One-line label used in reports and repro file names."""
        return (
            f"{self.family}/{self.scheme}/{self.codec}/{self.scaler}"
            f" n={self.num_steps} d={self.num_dims} b={self.num_digits}"
            f" a={self.alphabet_size} w={self.segment_length}"
            f" corruption={self.corruption}"
        )

    def to_json(self) -> str:
        """Serialise the case as a JSON document."""
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FuzzCase":
        """Rebuild a case from :meth:`to_json` output."""
        return cls(**json.loads(text))


def _column(rng: np.random.Generator, n: int) -> list[float]:
    """One adversarial length-``n`` series drawn from the generator menu."""
    kind = rng.integers(0, 8)
    if kind == 0:  # constant at an adversarial magnitude
        c = float(rng.choice(_MAGNITUDES))
        return [c] * n
    if kind == 1:  # near-zero span around an adversarial magnitude
        base = float(rng.choice(_MAGNITUDES))
        eps = float(rng.choice((5e-324, 1e-300, 1e-15)))
        return [base + (eps if i % 2 else 0.0) for i in range(n)]
    if kind == 2:  # linear ramp between two menu magnitudes
        a = float(rng.choice(_MAGNITUDES))
        b = float(rng.choice(_MAGNITUDES))
        if n == 1:
            return [a]
        return [a + (b - a) * i / (n - 1) for i in range(n)]
    if kind == 3:  # small random walk
        steps = rng.standard_normal(n)
        return list(np.cumsum(steps).astype(float))
    if kind == 4:  # one extreme spike in an otherwise tame series
        col = list(rng.standard_normal(n).astype(float))
        col[int(rng.integers(0, n))] = float(rng.choice(_MAGNITUDES))
        return col
    if kind == 5:  # alternation between two extremes
        a = float(rng.choice(_MAGNITUDES))
        b = float(rng.choice(_MAGNITUDES))
        return [a if i % 2 == 0 else b for i in range(n)]
    if kind == 6:  # subnormal territory
        return list((rng.standard_normal(n) * 1e-310).astype(float))
    # plain scaled gaussian, magnitude varied over many decades
    scale = 10.0 ** float(rng.integers(-12, 13))
    return list((rng.standard_normal(n) * scale).astype(float))


def generate_case(
    rng: np.random.Generator, family: str | None = None
) -> FuzzCase:
    """Draw one :class:`FuzzCase` from ``rng`` (optionally pinning a family)."""
    if family is None:
        family = str(rng.choice(FAMILIES))
    if family not in FAMILIES:
        raise ValueError(f"unknown fuzz family {family!r}; choose from {FAMILIES}")
    codec = str(rng.choice(CODECS))
    if codec == "sax-alphabetical":
        alphabet_size = int(rng.choice((2, 3, 5, 26)))
    else:
        alphabet_size = int(rng.choice((2, 3, 5, 10)))
    n = int(rng.choice(_STEP_CHOICES))
    d = int(rng.choice(_DIM_CHOICES))
    columns = [_column(rng, n) for _ in range(d)]
    return FuzzCase(
        family=family,
        scheme=str(rng.choice(_SCHEMES)),
        codec=codec,
        scaler=str(rng.choice(SCALERS)),
        num_digits=int(rng.choice(_DIGIT_CHOICES)),
        alphabet_size=alphabet_size,
        segment_length=int(rng.choice(_SEGMENT_CHOICES)),
        corruption=str(rng.choice(CORRUPTIONS)),
        cut=float(rng.uniform(0.0, 1.0)),
        seed=int(rng.integers(0, 2**31)),
        values=[[columns[k][t] for k in range(d)] for t in range(n)],
    )
