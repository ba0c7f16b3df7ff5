"""Split documents into rephrasable passages.

The splitter is deliberately simple and fast: break on line breaks, drop
blank segments, split oversize segments at sentence-ending punctuation,
then greedily merge consecutive chunks back up to the token budget.
Token lengths are estimates from :mod:`rephrasing.tokens`, never real
tokenizer calls.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from json.decoder import scanstring
from typing import Mapping, Sequence

from .corpus import CorpusError, Document, SizedLine, json_line, typed_field
from .tokens import TokenEstimator

MAX_PASSAGE_TOKENS = 350.0
MIN_PASSAGE_TOKENS = 50.0

# Sentence-ending punctuation followed by whitespace; the terminator
# stays attached to the left chunk.
SENTENCE_END_PATTERN = r"(?<=[.!?])\s+"

# A passage that could not be split below the budget (one long sentence).
OVERSIZE_UNSPLITTABLE = "oversize_unsplittable"
# A passage below the minimum that had no previous passage to merge into,
# or that absorbed an undersize tail.
UNDERSIZE_TAIL = "undersize_tail"


@dataclass(frozen=True)
class SplitConfig:
    max_tokens: float = MAX_PASSAGE_TOKENS
    min_tokens: float = MIN_PASSAGE_TOKENS

    def __post_init__(self) -> None:
        if not 0 < self.min_tokens < self.max_tokens:
            raise ValueError(
                f"need 0 < min_tokens < max_tokens, got {self.min_tokens}/{self.max_tokens}"
            )


@dataclass(frozen=True)
class Passage:
    """A slice of one document, the unit sent to the rephrasing model."""

    doc_id: str
    index: int
    text: str
    est_tokens: float
    split_flags: frozenset[str] = frozenset()
    # Language of the source document; later stages pick per-language
    # templates from it without reopening the input corpus.
    lang: str = ""

    def to_obj(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "index": self.index,
            "text": self.text,
            "est_tokens": self.est_tokens,
            "split_flags": sorted(self.split_flags),
            "lang": self.lang,
        }

    @staticmethod
    def from_obj(obj: Mapping) -> "Passage":
        """Parse one passages-shard record; a missing field raises KeyError,
        and a field of the wrong JSON type ``CorpusError``.

        ``lang`` has no default: guessing it would pick a template for
        the wrong language without a trace.
        """
        flags = typed_field(obj, "split_flags", list, default=[])
        for flag in flags:
            if not isinstance(flag, str):
                raise CorpusError(f"split flag {flag!r} is not a string")
        return Passage(
            doc_id=typed_field(obj, "doc_id"),
            index=typed_field(obj, "index", int),
            text=typed_field(obj, "text"),
            est_tokens=float(typed_field(obj, "est_tokens", (int, float))),
            split_flags=frozenset(flags),
            lang=typed_field(obj, "lang"),
        )


def passage_line(passage: Passage) -> SizedLine:
    """The one encoder of passages-shard lines, as ``write_corpus``
    writes them: the line, the passage's document id and language, its
    text's characters, and whether rephrase takes it (``render`` refuses
    an empty text)."""
    line = json_line(passage.to_obj())
    return SizedLine(line, passage.doc_id, passage.lang, len(passage.text), bool(passage.text))


# A line passage_line wrote starts with its doc_id's JSON string, which
# ends at the first ', "index": ', then the index, up to ', "text": ', and
# the text's JSON string, up to the first ', "est_tokens": ': inside a
# JSON string every '"' follows a backslash.
_DOC_ID_AT = len('{"doc_id": "')
_INDEX_HEAD = ', "index": '
_TEXT_HEAD = b', "text": '
_EST_HEAD = b', "est_tokens": '
_decode_at = json.JSONDecoder().raw_decode


def passage_head(line: bytes) -> tuple[str, int, slice]:
    """The doc_id and the index of a line ``passage_line`` wrote, read
    without parsing its text, and where in the line the text's JSON
    string lies (quotes included)."""
    text_at = line.index(_TEXT_HEAD)
    head = line[:text_at].decode("utf-8")
    doc_id, id_end = scanstring(head, _DOC_ID_AT)
    index = _decode_at(head, id_end + len(_INDEX_HEAD))[0]
    return doc_id, index, slice(text_at + len(_TEXT_HEAD), line.index(_EST_HEAD, text_at))


def normalize_newlines(text: str) -> str:
    """Fold carriage returns into plain newlines (ingestion-time cleanup)."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def split_on_linebreaks(text: str) -> list[str]:
    """Maximal runs between line breaks, blank segments removed, edges trimmed."""
    segments = []
    for raw in text.split("\n"):
        seg = raw.strip()
        if seg:
            segments.append(seg)
    return segments


def split_long_segment(
    segment: str,
    cfg: SplitConfig,
    est: TokenEstimator,
    lang: str | None = None,
) -> list[str]:
    """Split a segment exceeding the budget at sentence-ending punctuation.

    Segments within the budget pass through untouched.  A sentence that
    still exceeds the budget has no interior split point and is returned
    whole; the flag is attached downstream when passages are built.
    """
    if est.estimate_text(segment, lang) <= cfg.max_tokens:
        return [segment]
    return [part for part in re.split(SENTENCE_END_PATTERN, segment) if part]


def merge_chunks(
    chunks: Sequence[str],
    cfg: SplitConfig,
    est: TokenEstimator,
    lang: str | None = None,
) -> list[str]:
    """Greedy left-to-right merge of chunks up to the maximum budget.

    When adding the next chunk would push the running passage over
    ``max_tokens``, the accumulated passage is emitted and a new one
    starts with that chunk.  Chunks inside a passage are joined with a
    single space, and the space is charged against the budget.  A final
    accumulator under ``min_tokens`` is appended to the previously
    emitted passage when one exists.
    """
    ratio = est.ratio_for(lang)
    sep_cost = ratio  # one character's estimate
    merged: list[str] = []
    acc: list[str] = []
    acc_est = 0.0
    for chunk in chunks:
        chunk_est = len(chunk) * ratio
        if not acc:
            acc = [chunk]
            acc_est = chunk_est
        elif acc_est + sep_cost + chunk_est > cfg.max_tokens:
            merged.append(" ".join(acc))
            acc = [chunk]
            acc_est = chunk_est
        else:
            acc.append(chunk)
            acc_est += sep_cost + chunk_est
    if acc:
        tail = " ".join(acc)
        if acc_est < cfg.min_tokens and merged:
            merged[-1] = merged[-1] + " " + tail
        else:
            merged.append(tail)
    return merged


def split_document(
    doc: Document,
    cfg: SplitConfig = SplitConfig(),
    est: TokenEstimator = TokenEstimator(),
) -> list[Passage]:
    """Full split: line breaks, oversize sentence split, greedy merge.

    Every passage either satisfies the token bounds or carries the
    matching exemption flag; the multiset of non-whitespace characters
    is conserved across the split.
    """
    lang = doc.lang
    ratio = est.ratio_for(lang)
    chunks: list[str] = []
    for segment in split_on_linebreaks(normalize_newlines(doc.text)):
        if len(segment) * ratio <= cfg.max_tokens:  # split_long_segment would keep it whole
            chunks.append(segment)
        else:
            chunks.extend(split_long_segment(segment, cfg, est, lang))
    passages = []
    for index, text in enumerate(merge_chunks(chunks, cfg, est, lang)):
        est_tokens = len(text) * ratio
        flags = set()
        if est_tokens > cfg.max_tokens:
            flags.add(OVERSIZE_UNSPLITTABLE)
        if est_tokens < cfg.min_tokens:
            flags.add(UNDERSIZE_TAIL)
        passages.append(Passage(doc.id, index, text, est_tokens, frozenset(flags), lang))
    return passages
