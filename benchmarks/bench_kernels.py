"""Micro-benchmarks of the pipeline kernels (statistical timing).

Unlike the table benches (single-shot full experiments), these measure the
hot inner pieces with pytest-benchmark's statistical machinery: multiplexer
round-trips, the PPM ingest/decode kernels, SAX encoding, and a single
constrained forecast.
"""

import numpy as np
import pytest

from repro.core import ForecastSpec, MultiCastForecaster, get_multiplexer
from repro.data import gas_rate, weather
from repro.encoding import DigitCodec
from repro.llm import PeriodicPatternConstraint, PPMLanguageModel, get_model
from repro.llm.state_cache import IngestStateCache
from repro.sax import SaxAlphabet, SaxEncoder


def test_kernel_mux_roundtrip_di(benchmark):
    codes = np.random.default_rng(0).integers(0, 1000, size=(300, 4))
    codec = DigitCodec(3)
    mux = get_multiplexer("di")

    def run():
        return mux.demux(mux.mux(codes, codec), 4, codec)

    result = benchmark(run)
    assert np.array_equal(result, codes)


def _paper_prompt() -> list[int]:
    """Raw-digit tokens of a 120-row, 4-dim series, value-interleaved.

    Three digits per value, the row's four values back to back, then a
    separator (id 10), as the ``vi`` scheme serialises the paper's
    setting: 1560 tokens.
    """
    values = weather(n=120, seed=15).values
    low, high = values.min(axis=0), values.max(axis=0)
    codes = np.rint((values - low) / (high - low) * 999).astype(int)
    tokens = []
    for row in codes:
        for value in row:
            tokens += [int(digit) for digit in f"{value:03d}"]
        tokens.append(10)
    assert len(tokens) == 1560
    return tokens


@pytest.mark.parametrize("kernel", ["reset", "miss_ingest", "generate_batch"])
def test_kernel_ppm_ingest_and_predict(benchmark, kernel):
    """The PPM-12 kernels a paper-setting request runs, one per case.

    ``reset`` ingests the prompt in one chunk; ``miss_ingest`` is the
    ingest-cache miss path, ``SimulatedLLM.prefill`` through a fresh
    cache (lookup, one-pass ingest, one deposit); ``generate_batch`` is
    one 5-stream, 156-token lockstep decode from a prefilled session under
    the paper's ``vi`` grammar, so it times the masked step and the
    forced separator slots.
    """
    context = _paper_prompt()
    llm = get_model("llama2-7b-sim", vocab_size=11)
    session = llm.prefill(context)
    grammar = PeriodicPatternConstraint(
        get_multiplexer("vi").constraint_pattern(4, 3, frozenset(range(10)), 10)
    )

    def run():
        if kernel == "reset":
            model = PPMLanguageModel(vocab_size=11, max_order=12)
            model.reset(context)
            return model.next_distribution()
        if kernel == "miss_ingest":
            miss = llm.prefill(context, state_cache=IngestStateCache())
            assert miss.outcome == "miss"
            return miss.model.next_distribution()
        decoder = llm.generate_batch(
            context,
            156,
            [np.random.default_rng(seed) for seed in range(5)],
            constraint=grammar,
            session=session,
        )
        return np.array([len(result.tokens) for result in decoder.results])

    result = benchmark(run)
    if kernel == "generate_batch":
        assert result.tolist() == [156] * 5
    else:
        assert result.sum() > 0.99


def test_kernel_ppm_generation_throughput(benchmark):
    rng = np.random.default_rng(2)
    context = (list(range(10)) + [10]) * 60

    def run():
        model = PPMLanguageModel(vocab_size=11, max_order=12)
        return model.generate(context, 200, np.random.default_rng(0))

    result = benchmark(run)
    assert len(result.tokens) == 200


def test_kernel_sax_encode(benchmark):
    x = np.sin(np.linspace(0, 40, 5000))
    encoder = SaxEncoder(6, SaxAlphabet.alphabetical(5)).fit(x)
    word = benchmark(encoder.encode, x)
    assert len(word) == encoder.segments_for(5000)


def test_kernel_single_forecast(benchmark):
    history, future = gas_rate().train_test_split()
    forecaster = MultiCastForecaster()
    spec = ForecastSpec(series=history, horizon=len(future),
                        scheme="di", num_samples=1)

    def run():
        return forecaster.forecast(spec)

    output = benchmark(run)
    assert output.values.shape == future.shape


def test_kernel_sax_forecast(benchmark):
    from repro.core import SaxConfig

    history, future = gas_rate().train_test_split()
    forecaster = MultiCastForecaster()
    spec = ForecastSpec(series=history, horizon=len(future),
                        scheme="di", num_samples=1, sax=SaxConfig())

    def run():
        return forecaster.forecast(spec)

    output = benchmark(run)
    assert output.values.shape == future.shape
