"""Fast token-count estimation from character counts.

Passage-length checks run millions of times per corpus, so instead of
tokenizing every candidate string the pipeline multiplies the character
count by a ratio calibrated once on a random sample against an exact
tokenizer.  Characters are Unicode code points, never bytes, so the
ratio stays comparable across languages with non-ASCII letters.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

if TYPE_CHECKING:
    from .corpus import Document

log = logging.getLogger(__name__)

# Calibrated ratios are snapped to this grid so that chars * ratio is an
# exact float64 product, keeping estimates exactly additive under string
# concatenation (raw float ratios violate distributivity).
RATIO_QUANTUM = 2.0**-20

# ~4 chars per token, the usual web-text heuristic; used when no
# calibration has run.
DEFAULT_TOKENS_PER_CHAR = 0.25

# Sanity band: natural language with modern tokenizers sits well inside.
RATIO_MAX = 1.5

DEFAULT_SAMPLE_SIZE = 1000


class CalibrationError(ValueError):
    """Raised when an estimator cannot be calibrated from the given corpus."""


def quantize_ratio(ratio: float) -> float:
    """Snap a ratio onto the exactness grid (never below one quantum)."""
    return max(round(ratio / RATIO_QUANTUM) * RATIO_QUANTUM, RATIO_QUANTUM)


@dataclass(frozen=True)
class TokenEstimator:
    """Linear chars -> tokens estimator with optional per-language ratios.

    Immutable after construction and safe to share across workers.
    """

    tokens_per_char: float = DEFAULT_TOKENS_PER_CHAR
    per_language: Mapping[str, float] = field(default_factory=dict)
    sample_size: int = 0
    seed: int = 0
    calibrated: bool = False
    # Why the exact tokenizer failed and the default ratio was used;
    # reported by the stage that calibrates, never saved.
    fallback: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        pairs = [("global", self.tokens_per_char), *self.per_language.items()]
        for lang, ratio in pairs:
            if not 0.0 < ratio < RATIO_MAX:
                raise ValueError(
                    f"tokens_per_char for {lang!r} is {ratio}, outside (0, {RATIO_MAX})"
                )

    def ratio_for(self, lang: str | None = None) -> float:
        if lang is not None:
            ratio = self.per_language.get(lang)
            if ratio is not None:
                return ratio
        return self.tokens_per_char

    def estimate_chars(self, n_chars: int, lang: str | None = None) -> float:
        return n_chars * self.ratio_for(lang)

    def estimate_text(self, text: str, lang: str | None = None) -> float:
        return len(text) * self.ratio_for(lang)

    def char_budget(self, max_tokens: float, lang: str | None = None) -> int:
        """Largest character count whose estimate stays within max_tokens."""
        return int(max_tokens / self.ratio_for(lang))

    def to_obj(self) -> dict:
        return {
            "tokens_per_char": self.tokens_per_char,
            "per_language": dict(sorted(self.per_language.items())),
            "sample_size": self.sample_size,
            "seed": self.seed,
            "calibrated": self.calibrated,
        }

    @staticmethod
    def from_obj(obj: Mapping) -> "TokenEstimator":
        from .corpus import typed_field  # corpus imports this module

        number = (int, float)
        per_language = typed_field(obj, "per_language", dict, default={})
        return TokenEstimator(
            tokens_per_char=float(typed_field(obj, "tokens_per_char", number)),
            per_language={k: float(typed_field(per_language, k, number)) for k in per_language},
            sample_size=typed_field(obj, "sample_size", int, default=0),
            seed=typed_field(obj, "seed", int, default=0),
            calibrated=typed_field(obj, "calibrated", bool, default=False),
        )

    def save(self, path: Path | str) -> None:
        Path(path).write_text(json.dumps(self.to_obj(), indent=2) + "\n", encoding="utf-8")

    @staticmethod
    def load(path: Path | str) -> "TokenEstimator":
        """Read a saved estimator; a file that is not one is a ``CorpusError``."""
        from .corpus import BAD_RECORD, CorpusError  # corpus imports this module

        try:
            return TokenEstimator.from_obj(json.loads(Path(path).read_text(encoding="utf-8")))
        except BAD_RECORD as exc:
            raise CorpusError(f"calibration report {path} is not readable: {exc!r}") from exc


def _reservoir_sample(docs: Iterable["Document"], k: int, seed: int) -> list["Document"]:
    """Deterministic reservoir sample of up to k documents from a stream."""
    rng = random.Random(seed)
    sample: list["Document"] = []
    for i, doc in enumerate(docs):
        if i < k:
            sample.append(doc)
        else:
            j = rng.randrange(i + 1)
            if j < k:
                sample[j] = doc
    return sample


def calibrate(
    docs: Iterable["Document"],
    count_tokens: Callable[[str], int],
    *,
    seed: int = 0,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    per_language: bool = True,
    default_ratio: float = DEFAULT_TOKENS_PER_CHAR,
) -> TokenEstimator:
    """Calibrate tokens-per-char on a seeded random sample of the corpus.

    ``count_tokens`` is the exact external tokenizer handle; only
    calibration needs it.  When it fails, the configured default ratio
    is used, the estimator is marked uncalibrated, and the failure is
    logged as a warning and named in ``fallback``.
    """
    if sample_size < 1:
        raise ValueError("sample_size must be >= 1")

    sample = _reservoir_sample(docs, sample_size, seed)
    if not sample:
        raise CalibrationError("cannot calibrate on an empty corpus")

    chars_total = 0
    tokens_total = 0
    by_lang: dict[str, list[int]] = {}
    try:
        for doc in sample:
            n_tokens = count_tokens(doc.text)
            chars_total += len(doc.text)
            tokens_total += n_tokens
            acc = by_lang.setdefault(doc.lang, [0, 0])
            acc[0] += len(doc.text)
            acc[1] += n_tokens
    except Exception as exc:
        cause = f"{type(exc).__name__}: {exc}"
        log.warning(
            "exact tokenizer failed (%s); using the default ratio %s, uncalibrated",
            cause,
            default_ratio,
        )
        return TokenEstimator(default_ratio, {}, len(sample), seed, calibrated=False, fallback=cause)

    if chars_total == 0:
        raise CalibrationError("sampled documents contain no characters")

    ratio = quantize_ratio(tokens_total / chars_total)
    lang_ratios: dict[str, float] = {}
    if per_language:
        for lang, (n_chars, n_tokens) in sorted(by_lang.items()):
            if n_chars > 0:
                lang_ratios[lang] = quantize_ratio(n_tokens / n_chars)
    return TokenEstimator(ratio, lang_ratios, len(sample), seed, calibrated=True)
