"""Sampling from a next-token distribution with the usual LLM knobs.

Order of operations mirrors Hugging Face's ``generate``: constrain (logit
mask), temperature, top-k, then top-p (nucleus), renormalising after each
filter.  If masking leaves no probability mass, sampling falls back to a
uniform distribution over the admissible ids — the constrained equivalent of
an untrained model, never an error.

Thread-safety: nothing in this module touches NumPy's legacy global RNG
(``np.random.seed``/``np.random.rand``); every draw goes through an explicit
``numpy.random.Generator`` owned by the caller.  Callers that fan sample
draws out across worker threads must give each worker its *own* generator —
:func:`child_seeds` derives a deterministic, order-independent seed per
worker from one base generator so parallel execution reproduces sequential
execution exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import GenerationError

__all__ = [
    "sample_from_distribution",
    "draw_tokens",
    "filter_distribution",
    "mask_for_ids",
    "child_seeds",
    "child_generators",
]

#: ``Generator.choice``'s tolerance on ``sum(p) - 1`` for float64 ``p``.
_SUM_TOLERANCE = float(np.sqrt(np.finfo(np.float64).eps))


def child_seeds(rng: np.random.Generator, n: int) -> list[int]:
    """Derive ``n`` independent child seeds from one base generator.

    The seeds are drawn sequentially *up front*, so work parameterised by
    them can execute in any order (or concurrently) and still be
    deterministic under the base seed.  This is the same derivation the
    sequential pipeline has always used (one ``integers(2**63)`` per
    sample), just hoisted out of the draw loop.
    """
    if n < 0:
        raise GenerationError(f"cannot derive {n} child seeds")
    return [int(rng.integers(2**63)) for _ in range(n)]


def child_generators(
    rng: np.random.Generator, n: int
) -> list[np.random.Generator]:
    """``n`` independent generators, one per worker/sample (see child_seeds)."""
    return [np.random.default_rng(seed) for seed in child_seeds(rng, n)]


def mask_for_ids(allowed_ids: Iterable[int], size: int) -> np.ndarray:
    """Boolean admissibility mask over a vocabulary of ``size`` ids.

    Precomputing the mask once per constraint position and passing it as
    ``allowed_mask`` lets a batched decoder share one mask across every
    stream of a step instead of rebuilding it per draw; the mask is
    numerically interchangeable with passing ``allowed_ids`` directly.
    """
    mask = np.zeros(size, dtype=bool)
    ids = np.fromiter((int(i) for i in allowed_ids), dtype=int)
    if ids.size == 0:
        raise GenerationError("allowed_ids is empty")
    if ids.min() < 0 or ids.max() >= size:
        raise GenerationError("allowed_ids outside the vocabulary")
    mask[ids] = True
    return mask


def filter_distribution(
    probs: np.ndarray,
    temperature: float = 1.0,
    top_k: int | None = None,
    top_p: float | None = None,
    allowed_ids: Iterable[int] | None = None,
    allowed_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, bool]:
    """The final sampling distribution after constrain/temperature/k/p.

    Returns ``(p, greedy)``: the filtered, renormalised probability vector
    and whether a denormal-or-zero temperature calls for greedy argmax
    decoding (in which case ``p`` is the pre-temperature distribution, as
    in :func:`sample_from_distribution`'s greedy branch).

    This is the deterministic half of :func:`sample_from_distribution` —
    everything except the RNG draw.  The batched decode scheduler computes
    it once per group of identical streams and draws each stream's token
    from the shared result, which consumes every stream's generator
    exactly as the sequential path does.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1:
        raise GenerationError(f"expected a 1-D probability vector, got {p.shape}")
    if temperature < 0:
        raise GenerationError(f"temperature must be >= 0, got {temperature}")
    if top_k is not None and top_k < 1:
        raise GenerationError(f"top_k must be >= 1, got {top_k}")
    if top_p is not None and not 0.0 < top_p <= 1.0:
        raise GenerationError(f"top_p must be in (0, 1], got {top_p}")

    p = np.clip(p, 0.0, None)

    mask = None
    if allowed_mask is not None:
        mask = np.asarray(allowed_mask, dtype=bool)
        if mask.shape != p.shape:
            raise GenerationError(
                f"allowed_mask shape {mask.shape} does not match {p.shape}"
            )
        if not mask.any():
            raise GenerationError("allowed_mask admits no ids")
    elif allowed_ids is not None:
        mask = mask_for_ids(allowed_ids, p.size)
    if mask is not None:
        p = np.where(mask, p, 0.0)
        if p.sum() <= 0.0:
            p = mask.astype(float)  # uniform over the admissible set

    if p.sum() <= 0.0:
        raise GenerationError("distribution has no probability mass")
    p = p / p.sum()

    if temperature < 1e-6:
        # Exactly-zero and denormal temperatures both mean greedy decoding
        # (dividing log-probabilities by a denormal would overflow).
        return p, True
    if temperature != 1.0:
        with np.errstate(divide="ignore"):
            logp = np.where(p > 0.0, np.log(p), -np.inf)
        logp = logp / temperature
        logp -= logp.max()
        p = np.exp(logp)
        p[~np.isfinite(p)] = 0.0
        p = p / p.sum()

    if top_k is not None and top_k < np.count_nonzero(p):
        keep = np.argsort(p)[-top_k:]
        filtered = np.zeros_like(p)
        filtered[keep] = p[keep]
        p = filtered / filtered.sum()

    if top_p is not None and top_p < 1.0:
        order = np.argsort(p)[::-1]
        cumulative = np.cumsum(p[order])
        cutoff = int(np.searchsorted(cumulative, top_p)) + 1
        keep = order[:cutoff]
        filtered = np.zeros_like(p)
        filtered[keep] = p[keep]
        p = filtered / filtered.sum()
    return p, False


def sample_from_distribution(
    probs: np.ndarray,
    rng: np.random.Generator,
    temperature: float = 1.0,
    top_k: int | None = None,
    top_p: float | None = None,
    allowed_ids: Iterable[int] | None = None,
    allowed_mask: np.ndarray | None = None,
) -> tuple[int, float]:
    """Draw one token id; returns ``(token_id, probability_it_was_drawn_with)``.

    ``probs`` is a length-V probability vector.  ``temperature`` rescales in
    log space (``p ** (1/T)``); values below 1 sharpen, above 1 flatten, and
    0 means greedy argmax.  ``top_k``/``top_p`` filter before renormalising.

    ``allowed_mask`` is a precomputed boolean mask (see :func:`mask_for_ids`)
    that takes precedence over ``allowed_ids``; the two spellings of the same
    admissible set produce bit-identical draws.
    """
    p, greedy = filter_distribution(
        probs,
        temperature=temperature,
        top_k=top_k,
        top_p=top_p,
        allowed_ids=allowed_ids,
        allowed_mask=allowed_mask,
    )
    (token,) = draw_tokens(p, [rng], greedy=greedy)
    return token, float(p[token])


def draw_tokens(
    p: np.ndarray,
    rngs: Sequence[np.random.Generator],
    greedy: bool = False,
) -> list[int]:
    """One token per generator from one filtered distribution ``p``.

    Replays ``Generator.choice(p.size, p=p)``'s own algorithm — the same
    validation of ``p`` (no NaN, non-negative, summing to 1 within
    √eps), then ``cdf = p.cumsum(); cdf /= cdf[-1]`` and a right bisect of
    one ``rng.random()`` per generator — but builds the CDF once for every
    stream sharing the row.  Each generator is consumed exactly as its own
    ``choice`` call would consume it, so the tokens match draw for draw.
    ``greedy`` (see :func:`filter_distribution`) returns the argmax for
    every stream without touching the generators.
    """
    if greedy:
        return [int(np.argmax(p))] * len(rngs)
    total = math.fsum(p.tolist())
    if math.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > _SUM_TOLERANCE:
        raise ValueError("Probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    bounds = cdf.tolist()
    return [bisect_right(bounds, rng.random()) for rng in rngs]
