"""Sampling from a next-token distribution with the usual LLM knobs.

Order of operations mirrors Hugging Face's ``generate``: constrain (logit
mask), temperature, top-k, then top-p (nucleus), renormalising after each
filter.  If masking leaves no probability mass, sampling falls back to a
uniform distribution over the admissible ids — the constrained equivalent of
an untrained model, never an error.

:func:`sample_step` is the decode-step kernel both batched decoders run:
it filters a whole ``(G, V)`` score matrix at once and draws every stream
of every row from one CDF per step.  :func:`filter_distribution` and
:func:`draw_tokens` are its one-row case, so the arithmetic of sampling
exists once and every decode path draws the same bits.

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
    "sample_step",
    "forced_draw",
    "draw_tokens",
    "filter_distribution",
    "mask_for_ids",
    "child_seeds",
    "child_generators",
]

#: Temperatures below this decode greedily: dividing log-probabilities by a
#: denormal would overflow, so zero and denormal temperatures take the
#: argmax and draw nothing.
_GREEDY_TEMPERATURE = 1e-6

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
    everything except the RNG draw — and the one-row case of
    :func:`sample_step`'s filter.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1:
        raise GenerationError(f"expected a 1-D probability vector, got {p.shape}")
    if allowed_mask is None and allowed_ids is not None:
        allowed_mask = mask_for_ids(allowed_ids, p.size)
    rows, greedy, empty = _filter(p[None], temperature, top_k, top_p, allowed_mask)
    if empty[0]:
        raise GenerationError("distribution has no probability mass")
    return rows[0], greedy


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
    every stream without touching the generators.  This is the one-row
    case of :func:`sample_step`'s draw.
    """
    rows = np.asarray(p, dtype=float)[None]
    _check_rows(rows.tolist(), greedy, None)
    return _draw_rows(rows, [rngs], greedy)[0]


def sample_step(
    probs: np.ndarray,
    rngs: Sequence[Sequence[np.random.Generator]],
    temperature: float = 1.0,
    top_k: int | None = None,
    top_p: float | None = None,
    allowed_mask: np.ndarray | None = None,
) -> list[list[tuple[int, float, list[int]]]]:
    """One decode step for ``G`` rows at once: filter, validate, draw.

    ``probs`` is the step's ``(G, V)`` score matrix, ``rngs[g]`` the
    generators of the streams drawing from row ``g`` and ``allowed_mask``
    one ``(V,)`` mask for every row or a ``(G, V)`` mask per row.  The
    whole matrix is filtered at once, every row is validated before any
    generator is touched, and one CDF is built per step.  Returns, per
    row, its streams partitioned by drawn token in first-drawn order:
    ``(token, probability, members)``, ``members`` indexing ``rngs[g]``.

    Each row's tokens, probabilities and generator consumption equal
    :func:`filter_distribution` plus :func:`draw_tokens` on that row, and
    a failing matrix raises the error of its first failing row.
    """
    p = np.ascontiguousarray(probs, dtype=float)
    if p.ndim != 2 or p.shape[0] != len(rngs):
        raise GenerationError(
            f"expected a (G, V) score matrix for {len(rngs)} rows, got {p.shape}"
        )
    p, greedy, empty = _filter(p, temperature, top_k, top_p, allowed_mask)
    rows = p.tolist()
    _check_rows(rows, greedy, empty)
    step = []
    for row, tokens in zip(rows, _draw_rows(p, rngs, greedy)):
        parts: dict[int, list[int]] = {}
        for member, token in enumerate(tokens):
            members = parts.get(token)
            if members is None:
                parts[token] = [member]
            else:
                members.append(member)
        step.append([(token, row[token], members) for token, members in parts.items()])
    return step


def forced_draw(
    rngs: Sequence[np.random.Generator],
    temperature: float = 1.0,
    top_k: int | None = None,
    top_p: float | None = None,
) -> None:
    """Spend what sampling at a one-id mask spends, without the scores.

    With one admitted id, filtering leaves it probability exactly 1
    whatever the scores (``x / x`` or the uniform fallback, ``exp(0)``
    under any temperature, kept by top-k/top-p), so the draw returns it
    with log-prob ``0.0``.  What remains is the settings check and one
    ``rng.random()`` per generator — none when greedy.
    """
    _check_settings(temperature, top_k, top_p)
    if temperature >= _GREEDY_TEMPERATURE:
        for rng in rngs:
            rng.random()


def _check_settings(temperature: float, top_k: int | None, top_p: float | None) -> None:
    if temperature < 0:
        raise GenerationError(f"temperature must be >= 0, got {temperature}")
    if top_k is not None and top_k < 1:
        raise GenerationError(f"top_k must be >= 1, got {top_k}")
    if top_p is not None and not 0.0 < top_p <= 1.0:
        raise GenerationError(f"top_p must be in (0, 1], got {top_p}")


def _filter(
    probs: np.ndarray,
    temperature: float,
    top_k: int | None,
    top_p: float | None,
    allowed_mask: np.ndarray | None,
) -> tuple[np.ndarray, bool, np.ndarray]:
    """Constrain/temperature/k/p over a ``(G, V)`` matrix, row by row.

    Returns ``(p, greedy, empty)``, ``empty`` flagging the rows left with
    no mass.  Every operation is elementwise or an axis-1 reduction over
    C-contiguous rows, which numpy computes exactly as it computes the row
    alone, so row ``g`` is bit-identical to filtering ``probs[g]`` alone.
    """
    _check_settings(temperature, top_k, top_p)
    mask = None
    if allowed_mask is not None:
        mask = np.asarray(allowed_mask, dtype=bool)
        if mask.shape not in (probs.shape, probs.shape[1:]):
            raise GenerationError(
                f"allowed_mask shape {mask.shape} does not match {probs.shape}"
            )
    p = np.maximum(probs, 0.0)  # np.clip(probs, 0.0, None) without the wrapper
    if mask is not None:
        p = np.where(mask, p, 0.0)
    sums = p.sum(axis=1, keepdims=True)
    empty = sums[:, 0] <= 0.0
    if empty.any():
        if mask is not None:
            # A row whose mask admits nothing is always empty here, so
            # checking for one costs the common path nothing.
            if not np.broadcast_to(mask, p.shape)[empty].any(axis=1).all():
                raise GenerationError("allowed_mask admits no ids")
            p = np.where(empty[:, None], mask, p)  # uniform over the mask
            sums = p.sum(axis=1, keepdims=True)
            empty = sums[:, 0] <= 0.0
        # Rows still empty raise in _check_rows; make them NaN quietly.
        sums[empty] = np.nan
    p = p / sums
    if temperature < _GREEDY_TEMPERATURE:
        return p, True, empty
    if temperature != 1.0:
        # log(0) is -inf by design; NaN rows (which raise later) stay quiet.
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = np.where(p > 0.0, np.log(p), -np.inf) / temperature
            logp -= logp.max(axis=1, keepdims=True)
            p = np.exp(logp)
            p[~np.isfinite(p)] = 0.0
            p = p / p.sum(axis=1, keepdims=True)
    if top_k is not None:
        cut = top_k < np.count_nonzero(p, axis=1)
        if cut.any():
            keep = np.argsort(p, axis=1)[:, -top_k:]
            filtered = np.zeros_like(p)
            np.put_along_axis(
                filtered, keep, np.take_along_axis(p, keep, axis=1), axis=1
            )
            filtered = filtered / filtered.sum(axis=1, keepdims=True)
            p = np.where(cut[:, None], filtered, p)
    if top_p is not None and top_p < 1.0:
        order = np.argsort(p, axis=1)[:, ::-1]
        cumulative = np.cumsum(np.take_along_axis(p, order, axis=1), axis=1)
        # The cumulative mass never decreases, so counting the entries
        # below top_p is searchsorted's left insertion point.
        cutoff = np.count_nonzero(cumulative < top_p, axis=1) + 1
        keep = np.zeros(p.shape, dtype=bool)
        np.put_along_axis(
            keep, order, np.arange(p.shape[1]) < cutoff[:, None], axis=1
        )
        filtered = np.where(keep, p, 0.0)
        p = filtered / filtered.sum(axis=1, keepdims=True)
    return p, False, empty


def _check_rows(
    rows: list[list[float]], greedy: bool, empty: np.ndarray | None
) -> None:
    """Raise the first failing row's error, in row order: no mass (the
    filter's error), then ``Generator.choice``'s checks for non-greedy
    rows — no NaN, non-negative, summing to 1 within √eps."""
    empty_rows = [False] * len(rows) if empty is None else empty.tolist()
    for row, no_mass in zip(rows, empty_rows):
        if no_mass:
            raise GenerationError("distribution has no probability mass")
        if greedy:
            continue
        total = math.fsum(row)
        if math.isnan(total):
            raise ValueError("Probabilities contain NaN")
        if min(row) < 0:
            raise ValueError("Probabilities are not non-negative")
        if abs(total - 1.0) > _SUM_TOLERANCE:
            raise ValueError("Probabilities do not sum to 1")


def _draw_rows(
    p: np.ndarray, rngs: Sequence[Sequence[np.random.Generator]], greedy: bool
) -> list[list[int]]:
    """One token per generator of each row: ``Generator.choice``'s
    ``cdf = cumsum; cdf /= cdf[-1]`` for the whole matrix, then one
    ``rng.random()`` and a right bisect per generator in row then stream
    order.  Greedy rows take the argmax without touching a generator."""
    if greedy:
        return [
            [token] * len(row_rngs)
            for token, row_rngs in zip(np.argmax(p, axis=1).tolist(), rngs)
        ]
    cdf = np.add.accumulate(p, axis=1)  # p.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return [
        [bisect_right(bounds, rng.random()) for rng in row_rngs]
        for bounds, row_rngs in zip(cdf.tolist(), rngs)
    ]
