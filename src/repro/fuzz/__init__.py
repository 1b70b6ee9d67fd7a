"""Round-trip fuzzing harness for the encode/decode pipeline.

The pipeline's correctness contract — rescale → multiplex → tokenize →
constrained generate → demultiplex → descale must invert exactly — is only
as strong as the inputs it has been tried on.  This package is a
self-contained, seed-reproducible property-based harness (generators plus a
greedy shrinker; no external dependencies) that hunts numeric edge-case
bugs across the full matrix of multiplexing schemes × scalers × codecs
with adversarial inputs: constant series, near-zero spans, huge and
negative magnitudes, subnormals, single-timestamp histories, wide
dimension counts, and truncated or separator-corrupted generated streams.

Seven property families:

* ``round_trip`` — every scaler either raises a clean
  :class:`~repro.exceptions.ScalingError` (permitted only for extreme
  magnitudes) or inverts exactly within its resolution; SAX words are
  idempotent under decode→encode.
* ``mux_identity`` — ``demux(mux(x)) == x`` for every scheme and codec,
  including ``row_offset`` rotation continuation for block interleaving
  and exact-prefix recovery from truncated/corrupted streams.
* ``constraint_soundness`` — every stream the structured-generation
  grammar admits must demultiplex without error into complete rows.
* ``decode_equivalence`` — lockstep batched decoding
  (:class:`~repro.llm.batch.BatchedDecoder`) equals per-stream sequential
  decoding bit for bit — tokens and log-probs — across random prompts,
  constraints, heterogeneous budgets, and every registered model.
* ``sharded_equivalence`` — a multi-process
  :class:`~repro.sharding.ShardedEngine` produces bit-identical forecasts
  (values, samples, and demultiplexed row counts) to the in-process
  engine across shard counts 1, 2 and 4, random schemes and horizons.
* ``decomposition_roundtrip`` — classical decomposition of adversarial
  series recombines to the input at ulp tolerance, or refuses with a
  typed error (never for a tame series).
* ``strategy_equivalence`` — every prompt strategy gives bit-identical
  forecasts against a cold and a warm ingest-state cache.

Failures shrink to a minimal counterexample and are written as JSON repro
case files.  Run from the command line::

    python -m repro.fuzz --cases 500 --seed 0
"""

from repro.fuzz.generators import (
    CODECS,
    CORRUPTIONS,
    FAMILIES,
    SCALERS,
    FuzzCase,
    generate_case,
)
from repro.fuzz.harness import Counterexample, FuzzReport, run_fuzz
from repro.fuzz.properties import check_case
from repro.fuzz.shrinker import shrink_case

__all__ = [
    "FuzzCase",
    "FuzzReport",
    "Counterexample",
    "generate_case",
    "check_case",
    "shrink_case",
    "run_fuzz",
    "FAMILIES",
    "SCALERS",
    "CODECS",
    "CORRUPTIONS",
]
