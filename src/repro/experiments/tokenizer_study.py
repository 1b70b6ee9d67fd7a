"""Tokenizer-adaptation study (paper Section III-A, citing LLMTime).

The paper notes that "depending on the LLM used, its tokenizer must be
adapted accordingly, as discussed in [15]".  The LLMTime discussion it
cites is the GPT-3 BPE problem: byte-pair encoding merges digit runs into
multi-digit tokens *inconsistently* (``1723`` might tokenize as ``17|23``
or ``172|3`` depending on context), which destroys the aligned digit
structure the model needs.  LLaMA-style tokenizers emit one token per
digit, which is why LLMTime (and MultiCast after it) prefer them.

This study reproduces the effect with the simulated substrate: the same
univariate forecasting pipeline is run once with digit-level tokens and
once with a minimal BPE stand-in.  The crucial BPE property is that merges
are *frequency-driven and partial* — only some digit pairs exist as vocab
entries — so how a number splits depends on its digit values: ``172``
tokenizes as ``17|2`` (the ``17`` merge exists) while ``723`` becomes
``7|23`` (no ``72`` merge, but ``23`` exists).  The stand-in merges a pair
exactly when its value is below 50, giving the same value-dependent,
alignment-breaking splits; the in-context model's accuracy degrades,
matching the LLMTime finding.
"""

from __future__ import annotations

import numpy as np

from repro.data import gas_rate
from repro.encoding.vocabulary import Vocabulary
from repro.evaluation import TableResult
from repro.exceptions import EncodingError
from repro.llm import SetConstraint, child_seeds, get_model
from repro.metrics import rmse
from repro.scaling import FixedDigitScaler

__all__ = ["paired_digit_vocabulary", "tokenizer_comparison_table"]


class _MultiTokenVocabulary:
    """A vocabulary whose tokens may be multi-character digit strings."""

    def __init__(self, tokens: list[str]) -> None:
        if len(set(tokens)) != len(tokens):
            raise EncodingError("vocabulary tokens must be unique")
        self.tokens = tuple(tokens)
        self._ids = {token: i for i, token in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        try:
            return self._ids[token]
        except KeyError:
            raise EncodingError(f"token {token!r} not in vocabulary") from None

    def decode(self, ids) -> list[str]:
        return [self.tokens[i] for i in ids]


#: A pair is a vocabulary entry only when its value is below this bound —
#: the "partial merge table" that makes BPE splits value-dependent.
MERGE_BOUND = 50


def paired_digit_vocabulary() -> _MultiTokenVocabulary:
    """Singles ``0-9``, merged pairs ``00-49``, and the comma.

    A minimal BPE caricature: only the (more frequent) low pairs were
    merged during "training", so high pairs must fall back to singles —
    the partial merge table that produces inconsistent splits.
    """
    singles = [str(d) for d in range(10)]
    pairs = [str(v).zfill(2) for v in range(MERGE_BOUND)]
    return _MultiTokenVocabulary(singles + pairs + [","])


def _tokenize_paired(text: str, vocabulary: _MultiTokenVocabulary) -> list[int]:
    """Greedy longest-match tokenization with a partial merge table.

    ``172`` → ``17|2`` but ``723`` → ``7|23``: the split position depends
    on the digit values, so identical digit *positions* land in different
    token positions across timestamps — the alignment breakage GPT-style
    BPE inflicts on numeric streams.
    """
    ids = []
    i = 0
    while i < len(text):
        if text[i] == ",":
            ids.append(vocabulary.id_of(","))
            i += 1
            continue
        pair = text[i : i + 2]
        if len(pair) == 2 and pair.isdigit() and int(pair) < MERGE_BOUND:
            ids.append(vocabulary.id_of(pair))
            i += 2
        else:
            ids.append(vocabulary.id_of(text[i]))
            i += 1
    return ids


def _forecast_univariate(
    series: np.ndarray,
    horizon: int,
    tokenizer: str,
    num_digits: int = 3,
    num_samples: int = 5,
    model_name: str = "llama2-7b-sim",
    seed: int = 0,
) -> np.ndarray:
    """The LLMTime pipeline under either tokenizer, median over samples."""
    scaler = FixedDigitScaler(num_digits=num_digits).fit(series)
    codes = scaler.transform(series)
    text = ",".join(str(c).zfill(num_digits) for c in codes) + ","

    if tokenizer == "digit":
        vocabulary = Vocabulary([str(d) for d in range(10)] + [","])
        prompt = [vocabulary.id_of(ch) for ch in text]
        tokens_needed = horizon * (num_digits + 1)
    elif tokenizer == "paired":
        vocabulary = paired_digit_vocabulary()
        prompt = _tokenize_paired(text, vocabulary)
        # Token count per timestamp is value-dependent under partial
        # merging; request the digit-level worst case and truncate.
        tokens_needed = horizon * (num_digits + 1)
    else:
        raise EncodingError(f"unknown tokenizer {tokenizer!r}")

    model = get_model(model_name, vocab_size=len(vocabulary))
    constraint = SetConstraint(range(len(vocabulary)))
    decoder = model.generate_batch(
        prompt,
        tokens_needed,
        [
            np.random.default_rng(s)
            for s in child_seeds(np.random.default_rng(seed), num_samples)
        ],
        constraint=constraint,
    )
    samples = np.empty((num_samples, horizon))
    for s, result in enumerate(decoder.results):
        generated_text = "".join(vocabulary.decode(result.tokens))
        values = []
        for group in generated_text.split(","):
            if group.isdigit() and group:
                values.append(int(group[:num_digits].ljust(num_digits, "0")))
        decoded = scaler.inverse_transform(np.asarray(values, dtype=float))
        if decoded.size < horizon:
            pad = decoded[-1] if decoded.size else series[-1]
            decoded = np.concatenate([decoded, np.full(horizon - decoded.size, pad)])
        samples[s] = decoded[:horizon]
    return np.median(samples, axis=0)


def tokenizer_comparison_table(
    num_samples: int = 5, seed: int = 0
) -> TableResult:
    """Digit-level vs paired (BPE-style) tokenization on Gas Rate."""
    dataset = gas_rate()
    history, future = dataset.train_test_split()
    table = TableResult(
        table_id="Tokenizer study",
        title="Digit-level vs BPE-style paired tokens (Gas Rate, per dim)",
        header=["Tokenizer", "GasRate", "CO2"],
    )
    for tokenizer in ("digit", "paired"):
        errors = []
        for k in range(2):
            forecast = _forecast_univariate(
                history[:, k], future.shape[0], tokenizer,
                num_samples=num_samples, seed=seed,
            )
            errors.append(rmse(future[:, k], forecast))
        table.add_row(tokenizer, *errors)
    table.notes.append(
        "LLMTime's finding, reproduced in simulation: inconsistent digit "
        "merging breaks the aligned structure in-context learning needs."
    )
    return table
