"""Clean raw completions and reassemble passages into documents.

Two cleaning regimes match the two template generations.  The legacy
regime splits multiple paraphrases on marker lines, keeps one chosen by
a seeded RNG, and strips leftover marker strings.  The tagged regime
simply takes everything before the first ``</text>``.  Either way the
survivor passes the same length and truncation filters before accepted
passages are joined back into full documents.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import Document, Provenance
from .prompts import LEGACY, TAGGED, TEXT_CLOSE

MIN_PASSAGE_CHARS = 50
MAX_PASSAGE_CHARS = 5000
MIN_DOCUMENT_CHARS = 100

REJECT_TOO_SHORT = "too_short"
REJECT_TOO_LONG = "too_long"
REJECT_TRUNCATED_ALPHA = "truncated_alpha"
REJECT_EMPTY = "empty_after_clean"

REJECTION_REASONS = (
    REJECT_TOO_SHORT,
    REJECT_TOO_LONG,
    REJECT_TRUNCATED_ALPHA,
    REJECT_EMPTY,
)

# End-of-sequence artifacts models echo into their output.
EOS_ARTIFACTS = ("</s>", "<|im_end|>")

# Marker lines that introduce one paraphrase alternative.  Ordered so
# longer markers strip before their substrings.  A pattern file
# replaces this list when a model invents new headers.
DEFAULT_MARKER_PATTERNS: tuple[str, ...] = (
    r"Toddler-friendly paraphrase\s*:",
    r"Erudite paraphrase\s*:",
    r"Paraphrase\s+\d+\s*:",
    r"(?:Option|Version|Alternative|Rephrasing)\s+\d+\s*:",
    r"Paraphrase\s*:",
)


# A group referred to by number, outside a character class and a
# comment: \1 to \99 (three octal digits make a character instead) or
# the condition of (?(1)...).  Escapes, classes and comments are
# consumed whole; only group 1 is such a reference.
_GROUP_BY_NUMBER = re.compile(
    r"\\[0-7]{3}|(\\[1-9]|\(\?\(\d)|\\.|\(\?#[^)]*\)|\[\^?\]?(?:\\.|[^\]\\])*\]", re.DOTALL
)


def load_marker_patterns(path: Path | str) -> tuple[str, ...]:
    """The marker regexes of a pattern file, used instead of the built-in ones.

    One regex per line; blank lines and ``#`` comments are ignored.  A
    file that is not UTF-8, holds no pattern, or holds a pattern that
    does not compile or matches the empty string raises ``ValueError``.
    So does a pattern after the first that refers to a group by number:
    the patterns are matched as one alternation, where its groups are
    numbered after those of the patterns before it.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8: {exc}") from exc
    patterns = []
    for number, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            compiled = re.compile(line)
        except re.error as exc:
            raise ValueError(f"line {number}: {line!r} does not compile: {exc}") from exc
        if compiled.match(""):
            raise ValueError(f"line {number}: {line!r} matches the empty string")
        if patterns and any(match[1] for match in _GROUP_BY_NUMBER.finditer(line)):
            raise ValueError(
                f"line {number}: {line!r} refers to a group by number, which the patterns before it "
                "renumber; name the group: (?P<name>...) and (?P=name)"
            )
        patterns.append(line)
    if not patterns:
        raise ValueError("no pattern; blank lines and # comments are ignored")
    try:
        _marker_line_re(tuple(patterns))
    except re.error as exc:
        raise ValueError(f"the patterns do not compile as one alternation: {exc}") from exc
    return tuple(patterns)


def extract_tagged(raw: str, completion_prefix: str = "") -> str:
    """Content up to the first closing tag, whitespace trimmed.

    A completion without the closing tag is returned whole; the
    truncation filter adjudicates it afterwards.  ``completion_prefix``
    restores text the assistant prefix already contained.
    """
    pos = raw.find(TEXT_CLOSE)
    body = raw if pos < 0 else raw[:pos]
    body = body.strip()
    if not body:
        return ""
    return completion_prefix + body


@lru_cache(maxsize=32)
def _marker_line_re(patterns: tuple[str, ...]) -> re.Pattern:
    alternatives = "|".join(f"(?:{p})" for p in patterns)
    return re.compile(rf"^[ \t]*(?:{alternatives})", re.MULTILINE)


@lru_cache(maxsize=32)
def _compiled(patterns: tuple[str, ...]) -> tuple[re.Pattern, ...]:
    return tuple(re.compile(p) for p in patterns)


def _line_start_matches(marker: re.Pattern, text: str) -> list[re.Match]:
    r"""``list(marker.finditer(text))`` for a ``^``-anchored MULTILINE marker.

    ``^`` holds only at offset 0 and just after a ``\n``, so the marker
    is tried there alone.  After a match the next try is the first line
    start at or after its end, since a marker's ``\s`` may cross a line
    end.  An empty match, which only a pattern that can match empty
    allows, leaves the whole scan to ``finditer``.
    """
    matches = []
    start = 0
    while True:
        match = marker.match(text, start)
        if match is None:
            end = start + 1
        elif match.end() == start:
            return list(marker.finditer(text))
        else:
            matches.append(match)
            end = match.end()
        start = text.find("\n", end - 1) + 1
        if not start:
            return matches


def _paraphrase_blocks(text: str, patterns: tuple[str, ...]) -> list[str]:
    """Segments following each marker line; the whole text when none match."""
    matches = _line_start_matches(_marker_line_re(patterns), text)
    if not matches:
        return [text]
    blocks = []
    for i, match in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        block = text[match.end():end]
        if block.strip():
            blocks.append(block)
    return blocks or [""]


def clean_legacy(
    raw: str,
    *,
    seed: int = 0,
    doc_id: str = "",
    index: int = 0,
    patterns: Sequence[str] = DEFAULT_MARKER_PATTERNS,
) -> str:
    """Pick one paraphrase and strip unwanted patterns and EOS artifacts.

    When the completion contains several paraphrase blocks, one is
    chosen by an RNG derived from (seed, doc_id, index), so reruns and
    parallel orderings reproduce the same choice.
    """
    patterns = tuple(patterns)
    if not patterns:
        raise ValueError("no marker pattern")
    blocks = _paraphrase_blocks(raw, patterns)
    if len(blocks) == 1:
        survivor = blocks[0]
    else:
        rng = random.Random(f"{seed}|{doc_id}|{index}")
        survivor = blocks[rng.randrange(len(blocks))]
    for pattern in _compiled(patterns):
        survivor = pattern.sub("", survivor)
    for artifact in EOS_ARTIFACTS:
        survivor = survivor.replace(artifact, "")
    return survivor.strip()


def filter_verdict(text: str) -> str | None:
    """Rejection reason for a cleaned passage, or None when accepted.

    Keeps passages between 50 and 5000 characters whose last character
    is not a letter (a trailing letter indicates a truncated output).
    """
    if not text:
        return REJECT_EMPTY
    if len(text) < MIN_PASSAGE_CHARS:
        return REJECT_TOO_SHORT
    if len(text) > MAX_PASSAGE_CHARS:
        return REJECT_TOO_LONG
    if text[-1].isalpha():
        return REJECT_TRUNCATED_ALPHA
    return None


@dataclass(frozen=True)
class CleanedPassage:
    """Verdict for one raw completion: cleaned text or a rejection reason."""

    doc_id: str
    index: int
    text: str
    rejection: str | None = None

    @property
    def accepted(self) -> bool:
        return self.rejection is None


def clean_passage(
    doc_id: str,
    index: int,
    raw: str,
    regime: str,
    *,
    seed: int = 0,
    patterns: Sequence[str] = DEFAULT_MARKER_PATTERNS,
    completion_prefix: str = "",
) -> CleanedPassage:
    """Clean one raw completion under the given regime and filter it."""
    if regime == TAGGED:
        text = extract_tagged(raw, completion_prefix)
    elif regime == LEGACY:
        text = clean_legacy(raw, seed=seed, doc_id=doc_id, index=index, patterns=patterns)
    else:
        raise ValueError(f"unknown postprocessing regime {regime!r}")
    return CleanedPassage(doc_id, index, text, filter_verdict(text))


DOC_DROP_TOO_SHORT = "doc_too_short"
DOC_DROP_NO_PASSAGES = "no_accepted_passages"


def assemble_document(
    passages: Iterable[CleanedPassage],
    *,
    lang: str,
    meta: Mapping[str, str] | None = None,
    provenance: Provenance,
) -> tuple[Document | None, str | None]:
    """Join accepted passages of one document with single newlines.

    Returns (document, None) on success or (None, drop reason) when no
    passage was accepted or the assembled text stays under 100 chars.
    """
    accepted = sorted((p for p in passages if p.accepted), key=lambda p: p.index)
    if not accepted:
        return None, DOC_DROP_NO_PASSAGES
    text = "\n".join(p.text for p in accepted)
    if len(text) < MIN_DOCUMENT_CHARS:
        return None, DOC_DROP_TOO_SHORT
    doc = Document(
        id=accepted[0].doc_id,
        text=text,
        lang=lang,
        meta=dict(meta or {}),
        provenance=provenance,
    )
    return doc, None
