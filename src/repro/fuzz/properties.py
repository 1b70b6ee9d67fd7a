"""The seven property families the fuzz harness checks.

Every check takes a :class:`~repro.fuzz.generators.FuzzCase` and returns
``None`` on success or a human-readable failure description.  A property
failure means the *library* broke its contract — adversarial inputs are
expected; NaN codes, silent collapse, crashes, or lossy round-trips are
not.  Scalers may refuse an input with a clean
:class:`~repro.exceptions.ScalingError`, but only when its magnitudes are
genuinely beyond what a float64 affine map can represent; refusing a tame
input is itself a failure.

The ``decode_equivalence`` family pins the batched-decoding contract: for
random prompts, constraints, per-stream budgets, and every registered
simulated model, lockstep :class:`~repro.llm.batch.BatchedDecoder` output
must equal per-stream sequential decoding **bit for bit** — same tokens,
same log-probs, float equality, no tolerance.
``sharded_equivalence`` extends it across *processes*: a
:class:`~repro.sharding.ShardedEngine` with 1, 2 or 4 decode workers must
reproduce the in-process engine's forecast values, samples, and
demultiplexed row counts exactly under a fixed seed.

``decomposition_roundtrip`` pins the classical-decomposition contract on
adversarial series: for finite input either the fit succeeds with finite
components that recombine to the input at ulp tolerance (and a zero-sum
seasonal profile), or it refuses with a typed error — and refusing a tame
input is a failure; ``estimate_period`` must never crash on finite input.
``strategy_equivalence`` pins the prompt-strategy determinism contract:
every registered strategy must produce bit-identical forecasts across
cold vs warm ingest-state caches.
"""

from __future__ import annotations

import numpy as np

from repro.core.multiplex import Multiplexer, SaxSymbolCodec, get_multiplexer
from repro.encoding.tokenizer import SEPARATOR, DigitCodec
from repro.exceptions import ReproError, ScalingError
from repro.fuzz.generators import FuzzCase
from repro.llm.constraints import PeriodicPatternConstraint
from repro.sax.encoder import SaxAlphabet, SaxEncoder
from repro.sax.paa import num_segments
from repro.scaling.scalers import (
    FixedDigitScaler,
    MinMaxScaler,
    PercentileScaler,
    ZScoreScaler,
)

__all__ = ["check_case", "codes_for", "make_codec"]

#: Inputs whose magnitudes stay below this are "tame": a scaler must
#: handle them without refusing (float64 has ample headroom at 1e100).
_TAME_MAGNITUDE = 1e100

#: Center-to-span ratio beyond which SAX decode→encode idempotence is
#: not asserted: reconstructing ``mean + level*std`` and re-centering
#: cancels catastrophically once the offset dwarfs the spread.
_SAX_CANCELLATION_RATIO = 1e12

#: Decode temperatures the ``decode_equivalence`` family draws: greedy,
#: sharpened, neutral and flattened — each a different branch of the filter.
_DECODE_TEMPERATURES = (0.0, 0.5, 1.0, 1.7)


def _sampling_settings(
    rng: np.random.Generator, vocab_size: int
) -> tuple[float, int | None, float | None]:
    """A random ``(temperature, top_k, top_p)`` for one decode case.

    A third of cases also filter: top-k or top-p, on both sides of the
    comparison.
    """
    temperature = float(rng.choice(_DECODE_TEMPERATURES))
    if rng.random() >= 1 / 3:
        return temperature, None, None
    if rng.random() < 0.5:
        return temperature, int(rng.integers(1, vocab_size + 1)), None
    return temperature, None, float(rng.uniform(0.3, 1.0))


def make_codec(case: FuzzCase):
    """The cell codec a case specifies (digit or SAX symbol)."""
    if case.codec == "digit":
        return DigitCodec(case.num_digits)
    kind = case.codec.split("-", 1)[1]
    return SaxSymbolCodec(SaxAlphabet.of_kind(kind, case.alphabet_size))


def codes_for(case: FuzzCase) -> np.ndarray:
    """A deterministic in-range ``(n, d)`` code matrix for a case."""
    codec = make_codec(case)
    rng = np.random.default_rng(case.seed)
    return rng.integers(
        0, codec.max_value + 1, size=(case.num_steps, case.num_dims), dtype=np.int64
    )


def check_case(case: FuzzCase) -> str | None:
    """Run the case's property family; ``None`` on success, else a reason."""
    try:
        if case.family == "round_trip":
            return _check_round_trip(case)
        if case.family == "mux_identity":
            return _check_mux_identity(case)
        if case.family == "constraint_soundness":
            return _check_constraint_soundness(case)
        if case.family == "decode_equivalence":
            return _check_decode_equivalence(case)
        if case.family == "sharded_equivalence":
            return _check_sharded_equivalence(case)
        if case.family == "decomposition_roundtrip":
            return _check_decomposition_roundtrip(case)
        if case.family == "strategy_equivalence":
            return _check_strategy_equivalence(case)
    except ReproError as exc:  # any unexpected library error is a finding
        return f"unexpected {type(exc).__name__}: {exc}"
    except Exception as exc:  # hard crash (numpy/stdlib) is always a finding
        return f"crash {type(exc).__name__}: {exc}"
    return f"unknown fuzz family {case.family!r}"


# -- family 1: scaler / SAX round trips ---------------------------------------


def _fixed_tolerance(
    scaler: FixedDigitScaler, col: np.ndarray, inv: np.ndarray
) -> float:
    """Round-trip bound: half a quantization step plus float rounding.

    The float term scales with the fitted *span* (``resolution * max_int``),
    not just the values: ``inverse_transform`` sums terms of span magnitude,
    so a mathematically-exact half-step error can exceed ``resolution / 2``
    by a few ulp of the span.
    """
    span = scaler.resolution * scaler.max_int
    return 0.5 * scaler.resolution + 8.0 * float(
        np.spacing(max(span, np.abs(col).max(), np.abs(inv).max(), 1e-300))
    )


def _make_scaler(case: FuzzCase):
    if case.scaler == "fixed":
        return FixedDigitScaler(num_digits=case.num_digits)
    if case.scaler == "percentile":
        return PercentileScaler()
    if case.scaler == "zscore":
        return ZScoreScaler()
    return MinMaxScaler()


def _check_fixed_column(case: FuzzCase, col: np.ndarray) -> str | None:
    scaler = FixedDigitScaler(num_digits=case.num_digits)
    tame = float(np.abs(col).max()) <= _TAME_MAGNITUDE
    try:
        codes = scaler.fit(col).transform(col)
    except ScalingError as exc:
        if tame:
            return f"FixedDigitScaler refused a tame series: {exc}"
        return None
    if not np.issubdtype(codes.dtype, np.integer):
        return f"FixedDigitScaler produced non-integer codes ({codes.dtype})"
    if codes.min() < 0 or codes.max() > scaler.max_int:
        return (
            f"FixedDigitScaler codes outside [0, {scaler.max_int}]: "
            f"[{codes.min()}, {codes.max()}]"
        )
    inv = scaler.inverse_transform(codes)
    if not np.isfinite(inv).all():
        return "FixedDigitScaler inverse produced non-finite values"
    tol = _fixed_tolerance(scaler, col, inv)
    err = float(np.abs(col - inv).max())
    if err > tol:
        return (
            f"FixedDigitScaler round-trip error {err:.6g} exceeds "
            f"resolution tolerance {tol:.6g}"
        )
    return None


def _check_float_scaler_column(case: FuzzCase, col: np.ndarray) -> str | None:
    scaler = _make_scaler(case)
    tame = float(np.abs(col).max()) <= _TAME_MAGNITUDE
    try:
        y = scaler.fit_transform(col)
    except ScalingError as exc:
        if tame:
            return f"{type(scaler).__name__} refused a tame series: {exc}"
        return None
    if not np.isfinite(y).all():
        return f"{type(scaler).__name__} produced non-finite transformed values"
    inv = scaler.inverse_transform(y)
    if not np.isfinite(inv).all():
        return f"{type(scaler).__name__} inverse produced non-finite values"
    scale = max(float(np.abs(col).max()), 1.0)
    err = float(np.abs(col - inv).max())
    if err > scale * 1e-9:
        return (
            f"{type(scaler).__name__} round-trip error {err:.6g} "
            f"exceeds rtol 1e-9 at scale {scale:.6g}"
        )
    return None


def _check_sax_column(case: FuzzCase, col: np.ndarray) -> str | None:
    kind = case.codec.split("-", 1)[1]
    alphabet = SaxAlphabet.of_kind(kind, case.alphabet_size)
    encoder = SaxEncoder(case.segment_length, alphabet)
    tame = float(np.abs(col).max()) <= _TAME_MAGNITUDE
    try:
        encoder.fit(col)
        word = encoder.encode(col)
    except ScalingError as exc:
        if tame:
            return f"SaxEncoder refused a tame series: {exc}"
        return None
    n = col.size
    if len(word) != num_segments(n, case.segment_length):
        return (
            f"SAX word length {len(word)} != "
            f"{num_segments(n, case.segment_length)} segments"
        )
    decoded = encoder.decode(word, n)
    if not np.isfinite(decoded).all():
        return "SAX decode produced non-finite values"
    span = float(col.max() - col.min())
    center = float(np.abs(col).max())
    if span == 0.0 or center <= span * _SAX_CANCELLATION_RATIO:
        if encoder.encode(decoded) != word:
            return "SAX decode→encode is not idempotent"
    return None


def _check_round_trip(case: FuzzCase) -> str | None:
    arr = np.asarray(case.values, dtype=float)
    per_column_codes: list[np.ndarray] = []
    scalers: list[FixedDigitScaler] = []
    for k in range(case.num_dims):
        col = arr[:, k]
        if case.codec == "digit":
            failure = (
                _check_fixed_column(case, col)
                if case.scaler == "fixed"
                else _check_float_scaler_column(case, col)
            )
        else:
            failure = _check_sax_column(case, col)
            if failure is None and case.scaler != "fixed":
                failure = _check_float_scaler_column(case, col)
        if failure is not None:
            return f"dim {k}: {failure}"
        if case.scaler == "fixed" and case.codec == "digit":
            scaler = FixedDigitScaler(num_digits=case.num_digits)
            try:
                per_column_codes.append(scaler.fit(col).transform(col))
                scalers.append(scaler)
            except ScalingError:
                per_column_codes = []
                break
    if case.scaler == "fixed" and case.codec == "digit" and per_column_codes:
        # Full chain: scale → mux → demux → descale across all dimensions.
        codes = np.stack(per_column_codes, axis=1)
        codec = DigitCodec(case.num_digits)
        mux = get_multiplexer(case.scheme)
        recovered = mux.demux(mux.mux(codes, codec), case.num_dims, codec)
        if not np.array_equal(recovered, codes):
            return "full-chain mux/demux changed the code matrix"
        for k, scaler in enumerate(scalers):
            inv = scaler.inverse_transform(recovered[:, k])
            tol = _fixed_tolerance(scaler, arr[:, k], inv)
            if float(np.abs(arr[:, k] - inv).max()) > tol:
                return f"dim {k}: full-chain round-trip exceeds resolution"
    return None


# -- family 2: demux ∘ mux identity -------------------------------------------


def _boundary_index(mux: Multiplexer, row: int, num_dims: int, width: int) -> int:
    """Token index where ``row`` starts inside a muxed stream."""
    return row * mux.tokens_per_timestamp(num_dims, width)


def _check_mux_identity(case: FuzzCase) -> str | None:
    codec = make_codec(case)
    codes = codes_for(case)
    d = case.num_dims
    mux = get_multiplexer(case.scheme)
    stream = mux.mux(codes, codec)

    for pad in (False, True):
        recovered = mux.demux(stream, d, codec, pad_incomplete=pad)
        if not np.array_equal(recovered, codes):
            return f"demux(mux(x), pad_incomplete={pad}) != x"

    # Row-offset continuation: parsing the stream's tail from row r must
    # agree with parsing everything and slicing — the contract generated
    # continuations rely on (BI resumes the history's rotation mid-way).
    r = min(case.num_steps, int(round(case.cut * case.num_steps)))
    tail = stream[_boundary_index(mux, r, d, codec.num_digits) :]
    sliced = mux.demux(tail, d, codec, row_offset=r)
    if not np.array_equal(sliced, codes[r:]):
        return f"demux(tail, row_offset={r}) != full demux sliced at {r}"

    if case.corruption == "truncate":
        cut = min(len(stream), int(round(case.cut * len(stream))))
        prefix = mux.demux(stream[:cut], d, codec)
        if prefix.shape[1] != d or prefix.shape[0] > case.num_steps:
            return f"truncated demux shape {prefix.shape} out of bounds"
        if not np.array_equal(prefix, codes[: prefix.shape[0]]):
            return "truncated demux rows are not an exact prefix"
        lenient = mux.demux(stream[:cut], d, codec, pad_incomplete=True)
        if lenient.shape[0] < prefix.shape[0] or (
            prefix.shape[0]
            and not np.array_equal(lenient[: prefix.shape[0]], prefix)
        ):
            return "pad_incomplete=True disagrees with drop mode on full rows"
    elif case.corruption == "separator":
        separators = [i for i, t in enumerate(stream) if t == SEPARATOR]
        if separators:
            at = separators[
                min(len(separators) - 1, int(round(case.cut * (len(separators) - 1))))
            ]
            if case.seed % 2:  # doubled separator: an empty group, skipped
                corrupted = stream[: at + 1] + [SEPARATOR] + stream[at + 1 :]
                if not np.array_equal(mux.demux(corrupted, d, codec), codes):
                    return "doubled separator changed the demuxed matrix"
            else:  # deleted separator: two groups merge; must stay parseable
                corrupted = stream[:at] + stream[at + 1 :]
                merged = mux.demux(corrupted, d, codec)
                if merged.shape[1] != d:
                    return f"separator-deleted demux shape {merged.shape}"
                if merged.size and (
                    merged.min() < 0 or merged.max() > codec.max_value
                ):
                    return "separator-deleted demux left the code range"
    return None


# -- family 3: constraint-pattern soundness -----------------------------------


def _check_constraint_soundness(case: FuzzCase) -> str | None:
    codec = make_codec(case)
    width = codec.num_digits
    d = case.num_dims
    if isinstance(codec, DigitCodec):
        value_tokens = [str(i) for i in range(10)]
    else:
        value_tokens = list(codec.alphabet.symbols)
    sep_id = len(value_tokens)
    mux = get_multiplexer(case.scheme)
    pattern = mux.constraint_pattern(
        d, width, frozenset(range(sep_id)), sep_id
    )
    constraint = PeriodicPatternConstraint(pattern)
    period = constraint.period
    rng = np.random.default_rng(case.seed)

    length = int(rng.integers(0, max(1, case.num_steps) * period + 1))
    ids = [
        int(rng.choice(sorted(constraint.allowed_at(p)))) for p in range(length)
    ]
    if not constraint.admits(ids):
        return "constraint.admits rejects a stream drawn from allowed_at"
    tokens = [SEPARATOR if i == sep_id else value_tokens[i] for i in ids]

    rows = mux.demux(tokens, d, codec)  # must parse without error
    complete_periods = (length + 1) // period
    expected = complete_periods // d if case.scheme == "vc" else complete_periods
    if rows.shape != (expected, d):
        return (
            f"grammar-admitted stream of {length} tokens demuxed to "
            f"{rows.shape}, expected ({expected}, {d})"
        )
    if rows.size and (rows.min() < 0 or rows.max() > codec.max_value):
        return "grammar-admitted stream demuxed outside the code range"

    # The unconstrained ablation: any digits/symbols + separators mix must
    # still demux leniently without raising.
    loose_length = int(rng.integers(0, 4 * period + 1))
    loose_ids = rng.integers(0, sep_id + 1, size=loose_length)
    loose = [SEPARATOR if i == sep_id else value_tokens[i] for i in loose_ids]
    lenient = mux.demux(loose, d, codec, pad_incomplete=True)
    if lenient.shape[1] != d:
        return f"lenient demux shape {lenient.shape} has wrong dimension count"
    if lenient.size and (lenient.min() < 0 or lenient.max() > codec.max_value):
        return "lenient demux left the code range"
    return None


# -- family 4: batched = sequential decoding ----------------------------------


def _check_decode_equivalence(case: FuzzCase) -> str | None:
    """Batched lockstep decoding must match per-stream decoding bit for bit.

    Draws a random prompt of up to 300 tokens over the case's vocabulary,
    a grammar constraint half the time, 2–4 streams with heterogeneous
    token budgets, and one registered simulated model — then decodes the
    ensemble once through
    :meth:`~repro.llm.simulated.SimulatedLLM.generate_batch` and once
    stream-by-stream through :meth:`~repro.llm.simulated.SimulatedLLM.generate`
    with the same seed-derived generators, asserting exact equality of
    tokens *and* log-probs.  Half the cases prefill the batched side
    through an :class:`~repro.llm.state_cache.IngestStateCache` in split
    extends while the sequential side ingests the prompt in one go.  Both
    sides decode at a temperature drawn from {0, 0.5, 1, 1.7}, and a
    third of cases add top-k or top-p; the two sides run
    :class:`~repro.llm.batch.BatchedDecoder` and
    :meth:`~repro.llm.interface.LanguageModel.decode` on the prefilled
    states directly, since the preset wrappers expose no top-k.
    """
    from repro.llm.batch import BatchedDecoder
    from repro.llm.sampling import child_seeds
    from repro.llm.simulated import available_models, get_model
    from repro.llm.state_cache import IngestStateCache

    codec = make_codec(case)
    width = codec.num_digits
    d = case.num_dims
    if isinstance(codec, DigitCodec):
        num_values = 10
    else:
        num_values = len(codec.alphabet.symbols)
    sep_id = num_values
    vocab_size = num_values + 1

    rng = np.random.default_rng(case.seed)
    models = available_models()
    model = get_model(
        models[case.seed % len(models)], vocab_size=vocab_size
    )

    constraint = None
    if case.seed % 2:
        mux = get_multiplexer(case.scheme)
        pattern = mux.constraint_pattern(
            d, width, frozenset(range(num_values)), sep_id
        )
        constraint = PeriodicPatternConstraint(pattern)

    # Up to 300 tokens, so long prompts cross the 16..256 ingest checkpoints.
    prompt_length = int(rng.integers(1, min(300, 8 * max(1, case.num_steps)) + 1))
    prompt = [int(t) for t in rng.integers(0, vocab_size, size=prompt_length)]
    num_streams = 2 + case.seed % 3
    budgets = [int(b) for b in rng.integers(0, 13, size=num_streams)]
    seeds = child_seeds(rng, num_streams)
    temperature, top_k, top_p = _sampling_settings(rng, vocab_size)
    settings = dict(
        constraint=constraint, temperature=temperature, top_k=top_k, top_p=top_p
    )

    session = model.prefill(prompt)
    batched_session = session
    if (case.seed // 2) % 2 and prompt_length > 1:
        # Prefill the batched side through an ingest cache in growing
        # pieces: each prefill extends a fork of the previous cached state
        # (chunked counts on a copy-on-write table) and deposits
        # checkpoints on the way.
        cache = IngestStateCache()
        cuts = sorted({int(c) for c in rng.integers(1, prompt_length, size=3)})
        for cut in cuts:
            model.prefill(prompt[:cut], state_cache=cache)
        batched_session = model.prefill(prompt, state_cache=cache)
        if batched_session.outcome != "extend":
            return f"split prefill resolved as {batched_session.outcome!r}"
    decoder = BatchedDecoder(
        batched_session.model,
        [np.random.default_rng(s) for s in seeds],
        budgets,
        **settings,
    )
    decoder.decode()
    for index, (seed, budget) in enumerate(zip(seeds, budgets)):
        expected = session.model.fork().decode(
            budget, np.random.default_rng(seed), **settings
        )
        got = decoder.results[index]
        if got is None:
            return f"stream {index}: batched decode returned no result"
        if got.tokens != expected.tokens:
            return (
                f"stream {index}: batched tokens {got.tokens[:8]}... "
                f"!= sequential {expected.tokens[:8]}..."
            )
        if got.log_probs != expected.log_probs:
            return f"stream {index}: batched log-probs differ from sequential"
    return None


# -- family 5: multi-process sharded engine equivalence -----------------------

#: Shard counts every ``sharded_equivalence`` case is checked against.
_SHARD_COUNTS = (1, 2, 4)

#: Module-cached engines, keyed by shard count (0 = the in-process
#: baseline).  Worker processes cost hundreds of milliseconds to spawn, so
#: they are shared across fuzz cases and closed once at interpreter exit;
#: every request runs with ``use_cache=False`` so no result state leaks
#: between cases.
_shard_engines: dict = {}


def _close_shard_engines() -> None:
    """atexit hook: shut down every cached fuzz engine."""
    for engine in list(_shard_engines.values()):
        engine.close()
    _shard_engines.clear()


def _shard_engine(num_shards: int):
    """The cached engine for ``num_shards`` (0 = in-process), lazily built."""
    import atexit

    from repro.serving.engine import ForecastEngine
    from repro.sharding import ShardedEngine

    engine = _shard_engines.get(num_shards)
    if engine is None:
        if not _shard_engines:
            atexit.register(_close_shard_engines)
        if num_shards == 0:
            engine = ForecastEngine()
        else:
            engine = ShardedEngine(num_shards=num_shards)
        _shard_engines[num_shards] = engine
    return engine


def _check_sharded_equivalence(case: FuzzCase) -> str | None:
    """Multi-process sharding must not change a single forecast bit.

    Derives a tame request from the case's seed and scheme (adversarial
    magnitudes belong to ``round_trip``; this family pins the *serving*
    contract, so the pipeline itself must succeed), runs it through the
    in-process :class:`~repro.serving.engine.ForecastEngine` and through
    :class:`~repro.sharding.ShardedEngine` instances with 1, 2 and 4
    decode worker processes, and asserts the forecast values, the sample
    ensemble, and the demultiplexed row counts are identical across all
    four — float equality, no tolerance.
    """
    from repro.core.config import MultiCastConfig
    from repro.serving.request import ForecastRequest

    rng = np.random.default_rng(case.seed)
    n = int(rng.integers(8, 24))
    d = int(rng.integers(1, 4))
    history = np.cumsum(rng.standard_normal((n, d)), axis=0)
    request = ForecastRequest(
        history=history,
        horizon=int(rng.integers(2, 6)),
        config=MultiCastConfig(
            scheme=case.scheme,
            num_digits=min(case.num_digits, 3),
            num_samples=int(rng.integers(2, 4)),
            seed=int(rng.integers(0, 2**31)),
        ),
        use_cache=False,
        name=f"fuzz-sharded-{case.seed}",
    )

    baseline = _shard_engine(0).forecast(request)
    if not baseline.ok:
        return f"in-process engine failed: {baseline.error}"
    for num_shards in _SHARD_COUNTS:
        response = _shard_engine(num_shards).forecast(request)
        if not response.ok:
            return f"{num_shards}-shard engine failed: {response.error}"
        if response.output.samples.shape != baseline.output.samples.shape:
            return (
                f"{num_shards}-shard demux row count "
                f"{response.output.samples.shape} != in-process "
                f"{baseline.output.samples.shape}"
            )
        if not np.array_equal(response.output.values, baseline.output.values):
            return f"{num_shards}-shard forecast values differ from in-process"
        if not np.array_equal(response.output.samples, baseline.output.samples):
            return f"{num_shards}-shard sample ensemble differs from in-process"
    return None


# -- family 6: classical decomposition round trip ------------------------------


def _check_decomposition_roundtrip(case: FuzzCase) -> str | None:
    """Decomposition must round-trip at ulp tolerance or refuse cleanly.

    Each dimension of the case's adversarial series is fit with a
    seed-derived period.  Finite input must either decompose into finite
    components whose sum matches the input at ulp-scaled tolerance (with a
    zero-sum seasonal profile), or raise a typed
    :class:`~repro.exceptions.DataError` — and refusing a *tame* series
    (magnitude below 1e100) that is long enough for the period is itself a
    failure.  Non-finite input must always raise the typed error, and
    :func:`~repro.decomposition.estimate_period` must never crash on
    finite input of any magnitude.
    """
    from repro.decomposition import ClassicalDecomposition, estimate_period
    from repro.exceptions import DataError, FittingError

    arr = np.asarray(case.values, dtype=float)
    period = 2 + case.seed % 7
    n = case.num_steps
    for k in range(case.num_dims):
        col = arr[:, k]
        finite = bool(np.isfinite(col).all())
        if finite and n >= 8:
            try:
                detected = estimate_period(col)
            except FittingError:
                return f"dim {k}: estimate_period refused a finite series"
            if not isinstance(detected, int) or detected < 1:
                return f"dim {k}: estimate_period returned {detected!r}"

        try:
            fit = ClassicalDecomposition.fit(col, period)
        except DataError:
            if not finite or n < 2 * period:
                continue  # the typed refusal is the contract here
            if float(np.abs(col).max()) <= _TAME_MAGNITUDE:
                return (
                    f"dim {k}: decomposition refused a tame series "
                    f"(period {period}, n={n})"
                )
            continue  # extreme magnitudes may refuse cleanly
        if not finite:
            return f"dim {k}: decomposition accepted non-finite input"
        if n < 2 * period:
            return f"dim {k}: decomposition accepted n={n} < 2x period {period}"

        seasonal = fit.seasonal_at(np.arange(n))
        components = np.concatenate([fit.trend, seasonal, fit.residual])
        if not np.isfinite(components).all():
            return f"dim {k}: decomposition produced non-finite components"
        scale = max(float(np.abs(col).max()), 1.0)
        profile_sum = abs(float(fit.seasonal_profile.sum()))
        if profile_sum > 64 * np.finfo(float).eps * scale * period:
            return f"dim {k}: seasonal profile sums to {profile_sum:.3g}, not 0"
        with np.errstate(over="ignore", invalid="ignore"):
            recon = fit.trend + seasonal + fit.residual
        err = float(np.abs(recon - col).max())
        if not np.isfinite(err) or err > 64 * np.finfo(float).eps * scale:
            return (
                f"dim {k}: round-trip error {err:.6g} exceeds ulp tolerance "
                f"at scale {scale:.6g}"
            )
    return None


# -- family 7: prompt-strategy determinism -------------------------------------


def _check_strategy_equivalence(case: FuzzCase) -> str | None:
    """Every prompt strategy must be deterministic across ingest-cache
    temperature.

    Derives a tame request from the case's seed (adversarial magnitudes
    belong to ``round_trip``/``decomposition_roundtrip``; this family pins
    the *orchestration* contract, so the pipeline itself must succeed),
    selects a strategy from :data:`~repro.core.config.PROMPT_STRATEGIES`
    by seed, and runs the identical spec against a cold and then a warm
    :class:`~repro.llm.state_cache.IngestStateCache`.  Both forecasts —
    point values and the full sample ensemble — must be bit-identical,
    and each must report the selected strategy in its metadata.
    """
    from repro.core.config import PROMPT_STRATEGIES, MultiCastConfig
    from repro.core.forecaster import MultiCastForecaster
    from repro.core.spec import ForecastSpec
    from repro.llm.state_cache import IngestStateCache

    rng = np.random.default_rng(case.seed)
    n = int(rng.integers(12, 40))
    d = int(rng.integers(1, 4))
    history = np.cumsum(rng.standard_normal((n, d)), axis=0)
    strategy = PROMPT_STRATEGIES[case.seed % len(PROMPT_STRATEGIES)]
    sax = None
    if case.codec.startswith("sax"):
        sax = {
            "segment_length": case.segment_length,
            "alphabet_size": max(2, min(case.alphabet_size, 10)),
        }
    spec_fields = dict(
        horizon=int(rng.integers(2, 8)),
        scheme=case.scheme,
        num_digits=min(case.num_digits, 3),
        num_samples=int(rng.integers(2, 4)),
        seed=int(rng.integers(0, 2**31)),
        strategy=strategy,
        patch_length=int(rng.integers(1, 5)),
        sax=sax,
    )

    cache = IngestStateCache()
    outputs = {}
    for temperature in ("cold", "warm"):
        forecaster = MultiCastForecaster(state_cache=cache)
        output = forecaster.forecast(ForecastSpec(series=history, **spec_fields))
        reported = str(output.metadata.get("strategy", ""))
        if strategy not in ("default", "auto") and reported != strategy:
            return (
                f"{temperature}: metadata reports strategy "
                f"{reported!r}, spec asked for {strategy!r}"
            )
        if strategy == "auto" and not reported.startswith("auto"):
            return (
                f"{temperature}: auto selection not recorded "
                f"(metadata strategy {reported!r})"
            )
        outputs[temperature] = output

    cold, warm = outputs["cold"], outputs["warm"]
    if warm.samples.shape != cold.samples.shape:
        return (
            f"warm: sample shape {warm.samples.shape} "
            f"!= cold {cold.samples.shape}"
        )
    if not np.array_equal(warm.values, cold.values):
        return "warm: forecast values differ from cold"
    if not np.array_equal(warm.samples, cold.samples):
        return "warm: sample ensemble differs from cold"
    return None
