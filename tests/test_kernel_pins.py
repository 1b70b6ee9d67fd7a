"""Byte pins for the paper's setting on every ingest path.

Each pin is ``sha256(values.tobytes() + samples.tobytes())`` of a forecast
in the paper's setting (``llama2-7b-sim``, 5 samples, ``vi``, horizon 12),
captured before the PPM kernel moved to integer suffix ids and bulk
ingest.  Together they cover:

* a 120-row raw-digit request whose 1560-token prompt crosses every
  ingest checkpoint (16 ... 1024);
* growing backtest windows through a :class:`ForecastEngine`, which take
  the ``miss``, ``extend`` and ``fork`` ingest outcomes in turn;
* a SAX request.
"""

import hashlib

from repro.core.forecaster import MultiCastForecaster
from repro.core.spec import ForecastSpec
from repro.data import electricity, gas_rate, weather
from repro.llm.state_cache import IngestStateCache
from repro.serving import ForecastEngine, ForecastRequest

SETTINGS = {
    "model": "llama2-7b-sim",
    "num_samples": 5,
    "scheme": "vi",
    "horizon": 12,
}

ZERO_SHOT = "e5dd5380faf5efef5fd148f8969a319c28252559e1bccfe517426fde076d5d54"
#: (rows, seed, prompt tokens, ingest outcome, digest), served in order.
BACKTEST = [
    (100, 5, 1000, "miss",
     "599d7efd926436e11ccc399271d143e55f0eebbfe87b633280e8891c709ac821"),
    (101, 6, 1010, "extend",
     "8290ba0731f9ee2b698b2fcd1a645d07a4e2cd8d10dd56a22db737ad054e1364"),
    (102, 7, 1020, "extend",
     "63ed0f45566a4bfcaa5b1b605c293ee5b00bb94f7db95879c14ef89d092ff1d5"),
    (103, 8, 1030, "extend",
     "f214fb4c632f533fa247115fae83ea78337b18b9a78c95786e404c6b3d7f6e1b"),
    (103, 9, 1030, "fork",
     "6d2aba9eb96c58e74411e8c1449ffc126bad736c9a61b3fcc668e10807c2c918"),
]
SAX = "e7f0f5afc0bd6c61897152d3b2625c2bc275b4332ee2ace2669462a08dfa01f8"


def _digest(output) -> str:
    return hashlib.sha256(
        output.values.tobytes() + output.samples.tobytes()
    ).hexdigest()


def test_zero_shot_prompt_past_every_checkpoint():
    spec = ForecastSpec(series=weather(n=120, seed=15).values, seed=61, **SETTINGS)
    output = MultiCastForecaster(state_cache=IngestStateCache()).forecast(spec)
    assert output.prompt_tokens == 1560
    assert output.generated_tokens == 780
    assert output.metadata["ingest"] == "miss"
    assert _digest(output) == ZERO_SHOT


def test_backtest_windows_through_every_ingest_outcome():
    full = electricity(n=140, seed=7).values
    with ForecastEngine() as engine:
        for rows, seed, prompt_tokens, outcome, digest in BACKTEST:
            spec = ForecastSpec(series=full[:rows], seed=seed, **SETTINGS)
            output = engine.forecast(
                ForecastRequest.from_spec(spec, use_cache=False)
            ).output
            assert output.prompt_tokens == prompt_tokens
            assert output.metadata["ingest"] == outcome
            assert _digest(output) == digest


def test_sax_request():
    spec = ForecastSpec(
        series=gas_rate(n=120, seed=3).values,
        seed=11,
        sax={"segment_length": 2, "alphabet_size": 10},
        **SETTINGS,
    )
    output = MultiCastForecaster().forecast(spec)
    assert output.prompt_tokens == 180
    assert _digest(output) == SAX
