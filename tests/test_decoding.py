"""The one line decoder and the record parsers behind it.

``parse_line`` scans a line with ``json.loads``'s own scanner when it
can, and each hot record parser checks exact JSON types before it falls
back to ``typed_field``.  Neither may change a value or an error: every
test here holds them to the plain route, ``json.loads`` on the decoded
line and the ``typed_field`` parsers as written before the inline checks.
"""

from __future__ import annotations

import functools
import json
import math
import random
import sys

import pytest

from rephrasing.corpus import (
    BAD_RECORD,
    CorpusError,
    Document,
    DocumentHead,
    Provenance,
    ShardReader,
    doc_from_obj,
    head_from_obj,
    parse_line,
    typed_field,
)
from rephrasing.inference import JobKey, LedgerLine, RephraseResult
from rephrasing.quality import QualityError, ScoredDocument, ScoreLine, _score_record


def loads_line(raw: bytes) -> dict:
    """The plain route: ``json.loads`` on the decoded line."""
    obj = json.loads(raw.decode("utf-8"))
    if not isinstance(obj, dict):
        raise CorpusError("line is not a JSON object")
    return obj


def outcome(fn, *args):
    """What a call gives: its value's repr (so NaN equals NaN and 1 is
    not 1.0 or True), or the type and message of what it raises."""
    try:
        value = fn(*args)
    except Exception as exc:  # compared, not handled
        return "raises", type(exc), str(exc)
    return "returns", repr(value)


# -- the decoder ------------------------------------------------------------


def _string(rng: random.Random) -> str:
    pieces = []
    for _ in range(rng.randrange(6)):
        pieces.append(
            rng.choice(
                [
                    "plain words",
                    "äöüß àèìò",
                    "\U0001f600",
                    '\\"',
                    "\\\\",
                    "\\n\\r\\t\\b\\f\\/",
                    "\\u00e9\\u0000\\u001f",
                    "\\ud83d\\ude00",
                    "\\ud800",  # a lone surrogate, which JSON allows
                    "\t",  # a raw control character, which it does not
                ]
            )
        )
    return '"' + "".join(pieces) + '"'


def _number(rng: random.Random) -> str:
    return rng.choice(
        [
            str(rng.randrange(-(10**12), 10**12)),
            repr(rng.uniform(-1e6, 1e6)),
            "-0.0",
            "0",
            "1e400",
            "-1E-400",
            "2.5e+3",
            "01",
            "1.",
            "-",
            "9" * 5000,  # past the digit limit of CPython 3.11 and later
            "NaN",
            "Infinity",
            "-Infinity",
        ]
    )


def _value(rng: random.Random, depth: int) -> str:
    kind = rng.randrange(6 if depth < 3 else 4)
    if kind == 0:
        return _string(rng)
    if kind == 1:
        return _number(rng)
    if kind == 2:
        return rng.choice(["true", "false", "null", "True", "nul"])
    if kind == 3:
        return _string(rng)
    if kind == 4:
        items = [_value(rng, depth + 1) for _ in range(rng.randrange(4))]
        return "[" + rng.choice([", ", ",", " , "]).join(items) + "]"
    return _object(rng, depth + 1)


def _object(rng: random.Random, depth: int = 0) -> str:
    keys = [rng.choice(['"id"', '"text"', '"kind"', '"a"', '"ä"', '"\\u0041"']) for _ in range(4)]
    members = [
        key + rng.choice([": ", ":", " : "]) + _value(rng, depth)
        for key in keys[: rng.randrange(5)]  # keys repeat: duplicate keys
    ]
    return "{" + rng.choice([", ", ","]).join(members) + "}"


_PREFIXES = ["", "", "", " ", "\t", "\r", "\n", "\ufeff", "x"]
_SUFFIXES = ["\n", "\n", "\n", "", "\r\n", " \n", "\t\n", "\n\n", "x\n", "{}\n", "}\n", "]\n", "\x00\n"]
_TOP_LEVEL = ["[1, 2]", '"text"', "12", "-0.5", "null", "true", "NaN", "-Infinity", "[]", ""]


def fuzz_lines(seed: int, n: int) -> list[bytes]:
    """Lines on both sides of every branch of ``parse_line``: objects with
    any prefix and suffix, other top-level values, and lines cut short,
    with a byte flipped or with bytes that are not UTF-8."""
    rng = random.Random(seed)
    lines = []
    for _ in range(n):
        body = _object(rng) if rng.random() < 0.8 else rng.choice(_TOP_LEVEL)
        raw = (rng.choice(_PREFIXES) + body + rng.choice(_SUFFIXES)).encode("utf-8", "surrogatepass")
        damage = rng.randrange(8)
        if damage == 0 and raw:
            raw = raw[: rng.randrange(len(raw))]
        elif damage == 1 and raw:
            at = rng.randrange(len(raw))
            raw = raw[:at] + bytes([raw[at] ^ (1 << rng.randrange(8))]) + raw[at + 1 :]
        elif damage == 2:
            at = rng.randrange(len(raw) + 1)
            raw = raw[:at] + rng.choice([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80"]) + raw[at:]
        lines.append(raw)
    return lines


FUZZ = fuzz_lines(seed=20241, n=4000)


def test_decoder_gives_what_json_loads_gives():
    seen = set()
    for raw in FUZZ:
        expected = outcome(loads_line, raw)
        assert outcome(parse_line, raw) == expected, raw
        seen.add("returns" if expected[0] == "returns" else f"{expected[1].__name__}: {expected[2]}")
    # The fuzz reaches each kind of line it is there for.
    kinds = [
        "returns",
        "CorpusError: line is not a JSON object",
        "JSONDecodeError: Extra data",
        "JSONDecodeError: Expecting",
        "JSONDecodeError: Invalid control character",
        "JSONDecodeError: Unexpected UTF-8 BOM",
        "UnicodeDecodeError: ",
    ]
    if hasattr(sys, "get_int_max_str_digits"):
        kinds.append("ValueError: Exceeds the limit")
    for kind in kinds:
        assert any(message.startswith(kind) for message in seen), kind


@pytest.mark.parametrize(
    "raw",
    [
        b'{"a": 1}\n',
        b'{"a": 1}',
        b'{"a": 1}\r\n',
        b' {"a": 1}\n',
        b'\xef\xbb\xbf{"a": 1}\n',
        b'{"a": 1} x\n',
        b'{"a": 1}{"b": 2}\n',
        b'{"a": 1}\n\n',
        b'{"a": NaN, "b": -Infinity, "c": 1e400}\n',
        b'{"a": 1, "a": 2}\n',
        b'{"a": ' + b"1" * 5000 + b"}\n",
        b'{"a": "\xff"}\n',
        b'{"a": "\\ud800"}\n',
        b"[1, 2]\n",
        b'"text"\n',
        b"NaN\n",
        b"\n",
        b"",
        b'{"a": 1\n',
    ],
)
def test_decoder_on_each_kind_of_line(raw):
    assert outcome(parse_line, raw) == outcome(loads_line, raw)


# -- the record parsers -----------------------------------------------------
# Each reference is the parser as it read every field through
# ``typed_field``, before the inline checks.


def typed_rephrase_result(obj):
    return RephraseResult(
        key=JobKey.from_obj(obj["key"]),
        text=typed_field(obj, "text"),
        finish=typed_field(obj, "finish"),
        model_id=typed_field(obj, "model_id", default=""),
        attempts=typed_field(obj, "attempts", int, default=1),
    )


def typed_ledger_line(obj, offset, length):
    return LedgerLine(
        JobKey.from_obj(obj["key"]),
        typed_field(obj, "finish"),
        len(typed_field(obj, "text")),
        typed_field(obj, "attempts", int),
        offset,
        length,
    )


def typed_scored_document(obj):
    scorer = sys.intern(typed_field(obj, "scorer"))
    score = float(typed_field(obj, "score", (int, float)))
    try:
        return ScoredDocument(typed_field(obj, "doc_id"), score, scorer)
    except QualityError as exc:
        raise CorpusError(str(exc)) from exc


def typed_score_line(obj, offset, length):
    return ScoreLine.of(typed_scored_document(obj), offset, length)


def typed_head(obj):
    return DocumentHead(
        typed_field(obj, "id"), typed_field(obj, "lang"), typed_field(obj, "meta", dict)
    )


def typed_document(obj, languages=None):
    for name in ("id", "text", "lang"):
        typed_field(obj, name)
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise CorpusError(f"field 'meta' is {type(meta).__name__}, not an object")
    doc = Document(
        id=obj["id"],
        text=obj["text"],
        lang=obj["lang"],
        meta=meta,
        provenance=Provenance.from_obj(obj.get("provenance")),
    )
    doc.validate(languages)
    return doc


def plain_score_record(obj):
    doc_id, score = obj["doc_id"], obj["score"]
    if not isinstance(doc_id, str):
        raise CorpusError(f"doc_id is {type(doc_id).__name__}, not a string")
    if type(score) not in (int, float) or not math.isfinite(score):
        raise CorpusError(f"score {score!r} is not a finite number")
    return doc_id, float(score)


RESULT = {"key": ["d", 0, "qa"], "text": "t", "finish": "stop", "model_id": "m", "attempts": 1}
SCORE = {"doc_id": "d", "score": 0.5, "scorer": "ask_llm:m"}
DOC = {"id": "d", "text": "t", "lang": "en", "meta": {"a": 1}, "provenance": {"kind": "original"}}

# Parser, its reference, and a record both take.
PARSERS = {
    "rephrase_result": (RephraseResult.from_obj, typed_rephrase_result, RESULT),
    "ledger_line": (
        functools.partial(LedgerLine.from_obj, offset=7, length=9),
        functools.partial(typed_ledger_line, offset=7, length=9),
        RESULT,
    ),
    "scored_document": (ScoredDocument.from_obj, typed_scored_document, SCORE),
    "score_line": (
        functools.partial(ScoreLine.from_obj, offset=7, length=9),
        functools.partial(typed_score_line, offset=7, length=9),
        SCORE,
    ),
    "score_record": (_score_record, plain_score_record, SCORE),
    "head": (head_from_obj, typed_head, DOC),
    "document": (doc_from_obj, typed_document, DOC),
    "document_langs": (
        functools.partial(doc_from_obj, languages=("de",)),
        functools.partial(typed_document, languages=("de",)),
        DOC,
    ),
}

MISSING = object()
# A bool where an int belongs, a float for an int, an int for a string,
# other wrong types, values out of range, and a missing field.
WRONG_VALUES = [
    True, False, 1.0, 2.5, 1, 0, -1, 10**400, "s", "", None, [], {}, ["x"],
    math.nan, math.inf, -0.5, 2.0, MISSING,
]
# A key of the wrong length or type.
WRONG_KEYS = [
    ["d", 0], ["d", 0, "qa", 1], [1, 0, "qa"], ["d", "0", "qa"], ["d", True, "qa"],
    ["d", 0.0, "qa"], ["d", 0, None], ("d", 0, "qa"), "d", None, MISSING,
]


def variants(record: dict):
    """The record with each field, in turn, given each wrong value."""
    yield record
    for field in list(record) + ["extra"]:
        values = WRONG_KEYS if field == "key" else WRONG_VALUES
        for value in values:
            changed = dict(record)
            if value is MISSING:
                changed.pop(field, None)
            else:
                changed[field] = value
            yield changed
    yield {}


@pytest.mark.parametrize("name", PARSERS)
def test_record_parser_gives_what_typed_field_gives(name):
    parse, reference, record = PARSERS[name]
    refused = 0
    for changed in variants(record):
        expected = outcome(reference, changed)
        assert outcome(parse, changed) == expected, changed
        refused += expected[0] == "raises"
    assert refused > 10


@pytest.mark.parametrize(
    "name, field, value, error, message",
    [
        ("rephrase_result", "attempts", True, CorpusError, "field 'attempts' is bool, not an integer"),
        ("rephrase_result", "attempts", 1.0, CorpusError, "field 'attempts' is float, not an integer"),
        ("rephrase_result", "text", 5, CorpusError, "field 'text' is int, not a string"),
        ("rephrase_result", "key", ["d", 0], CorpusError,
         "field 'key' is ['d', 0], not a [string, integer, string] list"),
        ("ledger_line", "attempts", MISSING, KeyError, "'attempts'"),
        ("ledger_line", "key", ["d", True, "qa"], CorpusError,
         "field 'key' is ['d', True, 'qa'], not a [string, integer, string] list"),
        ("scored_document", "score", True, CorpusError, "field 'score' is bool, not a number"),
        ("scored_document", "doc_id", 3, CorpusError, "field 'doc_id' is int, not a string"),
        ("scored_document", "score", 2.0, CorpusError, "ask-llm score for 'd' outside [0, 1]"),
        ("score_record", "score", math.inf, CorpusError, "score inf is not a finite number"),
        ("score_record", "doc_id", MISSING, KeyError, "'doc_id'"),
        ("head", "meta", [], CorpusError, "field 'meta' is list, not an object"),
        ("document", "id", 7, CorpusError, "field 'id' is int, not a string"),
        ("document", "lang", MISSING, KeyError, "'lang'"),
    ],
)
def test_record_parser_errors(name, field, value, error, message):
    parse, _, record = PARSERS[name]
    changed = dict(record)
    if value is MISSING:
        del changed[field]
    else:
        changed[field] = value
    assert outcome(parse, changed) == ("raises", error, message)


def reference_read(path, parse):
    """The records and bad lines of a file, as ``ShardReader`` read it
    with ``json.loads`` and the ``typed_field`` parsers."""
    records, errors = [], []
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if raw.isspace():
                continue
            try:
                records.append(parse(loads_line(raw)))
            except BAD_RECORD as exc:
                errors.append((lineno, str(exc)))
    return records, errors


@pytest.mark.parametrize("name", ["rephrase_result", "scored_document", "score_record", "head", "document"])
def test_reader_summary_is_what_it_was(tmp_path, name):
    parse, reference, record = PARSERS[name]
    lines = [(json.dumps(changed) + "\n").encode("utf-8") for changed in variants(record)]
    lines += [line.replace(b"\n", b"") + b"\n" for line in FUZZ[:300]]
    path = tmp_path / "records.jsonl"
    path.write_bytes(b"".join(lines))
    records, errors = reference_read(path, reference)
    reader = ShardReader(path, parse)
    read = []
    with pytest.raises(CorpusError) as refused:
        for item in reader:
            read.append(item)
    assert [repr(item) for item in read] == [repr(item) for item in records]
    assert [(error.lineno, error.message) for error in reader.errors] == errors
    first_line, first_message = errors[0]
    assert str(refused.value) == (
        f"{path}: {len(errors)} bad line(s); first at line {first_line}: {first_message}"
    )
