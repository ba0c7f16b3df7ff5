"""JSON Lines corpus shards, manifests, and document/token statistics.

A corpus is a set of shard files with one JSON object per line
(``id``, ``text``, ``lang``, ``meta``, ``provenance``) plus a single
manifest JSON document per pipeline stage.  ``write_corpus`` also
writes a size index beside each shard (``SizeIndex``), with which a
reader routes the lines of a corpus it wrote by their bytes, once the
manifest vouches for them (``vouched_indexes``; ``CorpusLines`` for
documents).  Shards are independent units of work and every type here
is immutable after construction.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import struct
import sys
from array import array
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from json.decoder import scanstring
from json.encoder import c_make_encoder, encode_basestring
from json.scanner import make_scanner
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .tokens import RATIO_QUANTUM, TokenEstimator, quantize_ratio

DEFAULT_LANGUAGES = ("en", "de", "es", "it")

PROVENANCE_ORIGINAL = "original"
PROVENANCE_REPHRASED = "rephrased"


def _make_encode_json() -> Callable[[object], str]:
    encoder = json.JSONEncoder(ensure_ascii=False)
    if c_make_encoder is None:
        return encoder.encode
    chunks = c_make_encoder(
        None,  # no circular-check markers
        encoder.default,
        encode_basestring,
        encoder.indent,
        encoder.key_separator,
        encoder.item_separator,
        encoder.sort_keys,
        encoder.skipkeys,
        encoder.allow_nan,
    )

    def encode_json(obj: object) -> str:
        return "".join(chunks(obj, 0))

    return encode_json


# ``json.dumps(obj, ensure_ascii=False)``, through one C encoder built
# here, where ``JSONEncoder.encode`` builds a new one (and a markers dict)
# on every call.  It holds no state between calls, so threads may share
# it.  Without markers a circular record raises ``RecursionError``, not
# ``ValueError``.  Where CPython has no C encoder, it is
# ``JSONEncoder.encode``.
encode_json = _make_encode_json()

_EMPTY_TEXT = b'"text": ""'
# Each control character other than a line feed, a carriage return and
# a tab, by its byte: the byte and its escape as ``encode_basestring``
# writes it.  In UTF-8 such a byte is always that character.
_RARE_ESCAPES = {
    code: (bytes((code,)), b"\\u%04x" % code) for code in range(0x20) if code not in b"\n\r\t"
} | {0x08: (b"\b", b"\\b"), 0x0C: (b"\f", b"\\f")}
# Every other byte, which ``_json_body`` deletes to find the rare ones.
_NOT_RARE = bytes(range(0x100)).translate(None, bytes(_RARE_ESCAPES))


def _json_body(text: str) -> bytes:
    """The UTF-8 of a text's JSON string without its quotes, as
    ``encode_json`` writes it: '\\', '"', line feeds, carriage returns and
    tabs escaped by ``bytes.replace``, then each other control character
    the text holds.  A lone surrogate raises ``UnicodeEncodeError``."""
    raw = text.encode("utf-8")
    body = (
        raw.replace(b"\\", b"\\\\")
        .replace(b'"', b'\\"')
        .replace(b"\n", b"\\n")
        .replace(b"\r", b"\\r")
        .replace(b"\t", b"\\t")
    )
    rare = raw.translate(None, _NOT_RARE)
    if rare:
        for code in set(rare):
            char, escape = _RARE_ESCAPES[code]
            body = body.replace(char, escape)
    return body


def json_line(obj: Mapping, head: bytes = b"{") -> bytes:
    """The UTF-8 line of a record: ``json.dumps(obj, ensure_ascii=False)``
    and a line feed, with ``head`` in place of its ``{``.

    Every JSON line the pipeline writes is made here.  When the record's
    top-level ``text`` is a string that encodes, the record is encoded
    with that text emptied.  If ``"text": ""`` occurs once in that
    encoding, it is the text's own (only an object member can write it,
    and a nested one would make a second), and the text's ``_json_body``
    is spliced in there.  Any other record is encoded whole.  A value
    JSON cannot hold raises ``TypeError``, a lone surrogate
    ``UnicodeEncodeError`` and a circular record ``RecursionError``
    (``encode_json``), either way.
    """
    text = obj.get("text")
    if type(text) is str:
        try:
            body = _json_body(text)
        except UnicodeEncodeError:  # a lone surrogate; encode_json raises it below
            pass
        else:
            line = encode_json({**obj, "text": ""}).encode("utf-8")
            if line.count(_EMPTY_TEXT) == 1:
                at = line.index(_EMPTY_TEXT) + len(_EMPTY_TEXT) - 1  # the closing quote
                return b"".join((head, line[1:at], body, line[at:], b"\n"))
    return head + (encode_json(obj)[1:] + "\n").encode("utf-8")


def json_head(obj: Mapping) -> bytes:
    """How ``json_line`` starts the line of a record whose first fields
    are ``obj``'s: ``obj``'s encoding up to its closing ``}``, then the
    ``, `` before the next field."""
    return (encode_json(obj)[:-1] + ", ").encode("utf-8")


class CorpusError(Exception):
    """Invariant violation in corpus data (duplicate ids, bad fields, ...)."""


@dataclass(frozen=True)
class Provenance:
    """Where a document came from: the source corpus or a rephrasing run."""

    kind: str = PROVENANCE_ORIGINAL
    template_id: str | None = None
    model_id: str | None = None

    def to_obj(self) -> dict:
        if self.kind == PROVENANCE_ORIGINAL:
            return {"kind": PROVENANCE_ORIGINAL}
        return {
            "kind": self.kind,
            "template_id": self.template_id,
            "model_id": self.model_id,
        }

    @staticmethod
    def from_obj(obj: Mapping | None) -> "Provenance":
        if not obj:
            return ORIGINAL
        kind = obj.get("kind", PROVENANCE_ORIGINAL)
        if kind == PROVENANCE_ORIGINAL:
            return ORIGINAL
        return Provenance(kind, obj.get("template_id"), obj.get("model_id"))

    @staticmethod
    def rephrased(template_id: str, model_id: str) -> "Provenance":
        return Provenance(PROVENANCE_REPHRASED, template_id, model_id)


ORIGINAL = Provenance()


@dataclass(frozen=True)
class Document:
    """One corpus record."""

    id: str
    text: str
    lang: str
    meta: Mapping[str, object] = field(default_factory=dict)
    provenance: Provenance = ORIGINAL

    def validate(self, languages: Sequence[str] | None = DEFAULT_LANGUAGES) -> None:
        if not self.id:
            raise CorpusError("document id is empty")
        if not self.text:
            raise CorpusError(f"document {self.id!r} has empty text")
        if languages is not None and self.lang not in languages:
            raise CorpusError(
                f"document {self.id!r} has lang {self.lang!r}, expected one of {list(languages)}"
            )


_KIND_NAMES = {
    str: "a string",
    int: "an integer",
    bool: "a boolean",
    list: "a list",
    dict: "an object",
    (int, float): "a number",
}
_REQUIRED = object()


def typed_field(obj, key, kind=str, default=_REQUIRED):
    """``obj[key]`` (or ``obj.get(key, default)``), refused unless it is a
    ``kind`` from ``_KIND_NAMES``: a record field is never converted, and
    a bool is neither an integer nor a number, but the only boolean."""
    value = obj[key] if default is _REQUIRED else obj.get(key, default)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise CorpusError(f"field {key!r} is {type(value).__name__}, not {_KIND_NAMES[kind]}")
    return value


def doc_from_obj(obj: Mapping, languages: Sequence[str] | None = None) -> Document:
    doc_id, text, lang = obj.get("id"), obj.get("text"), obj.get("lang")
    if type(doc_id) is not str or type(text) is not str or type(lang) is not str:
        for name in ("id", "text", "lang"):
            typed_field(obj, name)
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise CorpusError(f"field 'meta' is {type(meta).__name__}, not an object")
    doc = Document(doc_id, text, lang, meta, Provenance.from_obj(obj.get("provenance")))
    doc.validate(languages)
    return doc


class DocumentHead(NamedTuple):
    """A document without its text: the id, language and meta that
    postprocess joins with the document's completions."""

    id: str
    lang: str
    meta: dict


def head_line(doc: Document) -> bytes:
    """The line of a document's head in the list preprocess writes
    beside its passages (``head_from_obj`` reads it back)."""
    return json_line({"id": doc.id, "lang": doc.lang, "meta": dict(doc.meta)})


def head_from_obj(obj: Mapping) -> DocumentHead:
    doc_id, lang, meta = obj.get("id"), obj.get("lang"), obj.get("meta")
    if type(doc_id) is str and type(lang) is str and type(meta) is dict:
        return DocumentHead(doc_id, lang, meta)
    return DocumentHead(
        typed_field(obj, "id"), typed_field(obj, "lang"), typed_field(obj, "meta", dict)
    )


# The scanner inside ``json.loads``, built once: ``parse_line`` calls it
# straight, without the wrappers around it.
_scan_object = make_scanner(json.JSONDecoder())


def parse_line(raw: bytes) -> dict:
    """The JSON object on one line; a line that is not UTF-8 or not JSON
    raises ``ValueError``, and one that is not an object ``CorpusError``.

    Every JSON line the pipeline reads goes through here.  A line that
    starts with ``{`` and whose object ends at its line feed (or at its
    end) is scanned by ``json.loads``'s own scanner; any other line, or
    one the scanner refuses, is handed to ``json.loads`` itself, so each
    value and each error is what ``json.loads`` gives."""
    line = raw.decode("utf-8")
    if line[:1] == "{":
        try:
            obj, end = _scan_object(line, 0)
        except (ValueError, StopIteration):  # StopIteration: no value where one belongs
            pass
        else:
            if line[end:] in ("\n", ""):
                return obj
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise CorpusError("line is not a JSON object")
    return obj


# What a record parser raises for a record it refuses.
BAD_RECORD = (ValueError, LookupError, TypeError, AttributeError, OverflowError, CorpusError)


@dataclass(frozen=True)
class LineError:
    """A record file line that failed to parse or validate."""

    lineno: int
    message: str


class ShardReader:
    """Iterate the records of one JSON Lines file, each built by ``parse``
    from the JSON object on its line.

    Every JSON Lines file the pipeline reads, other than a ledger, is
    read here.  It is UTF-8 split at line feeds only; a blank line is
    skipped.  A line that does not decode, parse or pass ``parse`` is
    recorded in ``errors`` with its line number and the stream goes on;
    once the file is read, any bad line raises ``CorpusError`` naming
    the file, the count of bad lines and the first one.  With ``digest``
    (a hashlib object), every line read, blank ones too, is fed to it,
    and ``n_lines`` counts them as ``_hash_lines`` does.
    """

    def __init__(self, path: Path | str, parse: Callable[[dict], object], digest=None):
        self.path = Path(path)
        if not self.path.is_file():
            raise FileNotFoundError(f"not found: {self.path}")
        self.parse = parse
        self.digest = digest
        self.errors: list[LineError] = []
        self.n_lines = 0

    def __iter__(self) -> Iterator:
        return map(itemgetter(2), self.located())

    def located(self) -> Iterator[tuple[int, int, object]]:
        """Each record with the byte offset and length of its line,
        for ``read_document_at``."""
        parse, digest = self.parse, self.digest
        offset = 0
        with self.path.open("rb") as handle:
            for lineno, raw in enumerate(handle, start=1):
                self.n_lines = lineno
                if digest is not None:
                    digest.update(raw)
                if not raw.isspace():
                    try:
                        record = parse(parse_line(raw))
                    except BAD_RECORD as exc:
                        self.errors.append(LineError(lineno, str(exc)))
                    else:
                        yield offset, len(raw), record
                offset += len(raw)
        if self.errors:
            raise CorpusError(self.summary())

    def summary(self) -> str:
        first = self.errors[0]
        return (
            f"{self.path}: {len(self.errors)} bad line(s); "
            f"first at line {first.lineno}: {first.message}"
        )


def load_shard(
    path: Path | str, languages: Sequence[str] | None = DEFAULT_LANGUAGES, digest=None
) -> ShardReader:
    """A reader of the documents of one corpus shard, which feeds every
    line it reads to ``digest`` when one is given (``ShardReader``)."""
    return ShardReader(path, functools.partial(doc_from_obj, languages=languages), digest)


def read_line_at(handle: BinaryIO, offset: int, length: int) -> bytes:
    """The ``length`` bytes at ``offset`` of an open file, read with one
    ``os.pread``, so ``handle`` may be unbuffered (``buffering=0``)."""
    return os.pread(handle.fileno(), length, offset)


def read_document_at(handle: BinaryIO, offset: int, length: int) -> Document:
    """The document on the shard line at ``offset`` of ``length`` bytes,
    both from ``ShardReader.located``, which has already validated it."""
    return doc_from_obj(parse_line(read_line_at(handle, offset, length)))


class SizedLine(NamedTuple):
    """One document as the line ``write_corpus`` writes for it
    (``sized_line``), with its id, language and count of characters, and
    whether every reader takes it back (``_usable``)."""

    line: bytes
    id: str
    lang: str
    chars: int
    usable: bool = True

    def text(self) -> str:
        """The document's text, decoded from its line alone."""
        start = self.line.index(_TEXT_HEAD) + len(_TEXT_HEAD)
        return json_string(self.line[start : self.line.index(_LANG_HEAD, start)])


def sized_line(doc: Document) -> SizedLine:
    """The one encoder of the documents ``write_corpus`` writes, with a
    fixed field order."""
    obj = {
        "id": doc.id,
        "text": doc.text,
        "lang": doc.lang,
        "meta": dict(doc.meta),
        "provenance": doc.provenance.to_obj(),
    }
    return SizedLine(json_line(obj), doc.id, doc.lang, len(doc.text), _usable(doc))


# A line sized_line wrote starts with its id's JSON string, and that
# ends at the first ', "text": ', as the text's ends at the first
# ', "lang": ': inside a JSON string every '"' follows a backslash.
_ID_HEAD = b'{"id": '
_TEXT_HEAD = b', "text": '
_LANG_HEAD = b', "lang": '


def json_string(quoted: bytes) -> str:
    """The string a JSON string literal (UTF-8, quotes included) encodes."""
    if b"\\" in quoted:
        return scanstring(quoted.decode("utf-8"), 1)[0]
    return quoted[1:-1].decode("utf-8")


def _line_id(line: bytes, end: int) -> str:
    return json_string(line[len(_ID_HEAD) : end])


def splice_id(line: bytes, prefix: str, suffix: str, lang: str, chars: int) -> SizedLine:
    """The document of a line ``write_corpus`` wrote, with the id
    ``prefix + id + suffix``: the line with its id's JSON string swapped,
    byte for byte the line ``sized_line`` gives the renamed document."""
    end = line.index(_TEXT_HEAD)
    doc_id = prefix + _line_id(line, end) + suffix
    return SizedLine(json_head({"id": doc_id}) + line[end + 2 :], doc_id, lang, chars)


@dataclass(frozen=True)
class ShardEntry:
    """Manifest record for one shard file (path relative to the manifest)."""

    path: str
    docs: int
    chars: int
    est_tokens: float

    def to_obj(self) -> dict:
        return {
            "path": self.path,
            "docs": self.docs,
            "chars": self.chars,
            "est_tokens": self.est_tokens,
        }

    @staticmethod
    def from_obj(obj: Mapping) -> "ShardEntry":
        return ShardEntry(
            path=typed_field(obj, "path"),
            docs=typed_field(obj, "docs", int),
            chars=typed_field(obj, "chars", int),
            est_tokens=float(typed_field(obj, "est_tokens", (int, float))),
        )


@dataclass(frozen=True)
class CorpusRecord:
    """What ``write_corpus`` wrote: the sha256 of the shards' bytes in
    manifest order, the characters of the texts of each language, and
    the count of documents that not every reader takes (``_usable``)."""

    sha256: str
    lang_chars: Mapping[str, int]
    unusable_docs: int

    def to_obj(self) -> dict:
        return {
            "sha256": self.sha256,
            "lang_chars": dict(sorted(self.lang_chars.items())),
            "unusable_docs": self.unusable_docs,
        }

    @staticmethod
    def from_obj(obj: Mapping) -> "CorpusRecord":
        lang_chars = typed_field(obj, "lang_chars", dict)
        return CorpusRecord(
            sha256=typed_field(obj, "sha256"),
            lang_chars={lang: typed_field(lang_chars, lang, int) for lang in lang_chars},
            unusable_docs=typed_field(obj, "unusable_docs", int),
        )


_RECORD_FIELDS = {"sha256", "lang_chars", "unusable_docs"}


def _usable(doc: Document) -> bool:
    """Whether every reader takes the document back from its line:
    ``doc_from_obj`` refuses an empty or mistyped field, and score a text
    that is only whitespace."""
    return (
        isinstance(doc.id, str)
        and isinstance(doc.text, str)
        and isinstance(doc.lang, str)
        and bool(doc.id)
        and bool(doc.text)
        and not doc.text.isspace()
    )


class _Tally:
    """What ``write_corpus`` learns of its documents as it writes them,
    across all its shards: ``write_shard`` feeds every byte it writes to
    ``digest`` and adds the rest once per shard (``add_shard``);
    ``record`` sums it up."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.lang_chars: dict[str, int] = {}
        self.unusable_docs = 0
        # Each shard's count of lines, as _hash_lines counts them.
        self.lines: list[int] = []
        # The sha256 of the shards' size indexes, None once a shard has none.
        self.index_digest = hashlib.sha256()

    def add_shard(
        self, lang_chars: Mapping[str, int], unusable_docs: int, lines: int, index: bytes | None
    ) -> None:
        for lang, chars in lang_chars.items():
            self.lang_chars[lang] = self.lang_chars.get(lang, 0) + chars
        self.unusable_docs += unusable_docs
        self.lines.append(lines)
        if index is None:
            self.index_digest = None
        elif self.index_digest is not None:
            self.index_digest.update(index)

    def record(self) -> CorpusRecord:
        return CorpusRecord(self.digest.hexdigest(), self.lang_chars, self.unusable_docs)

    def index_sha256(self) -> str | None:
        return None if self.index_digest is None else self.index_digest.hexdigest()


# A size index (``shard-NNNNN.idx``) is little-endian: the magic, the
# count of entries (u32), the count of languages (u8) and each language
# as its UTF-8 length (u8) and bytes; then one fixed-width entry per
# shard line: the line's length in bytes (u32), its text's characters
# (u32) and its language's place in that table (u8).
_INDEX_MAGIC = b"RPHIDX1\n"
_INDEX_COUNTS = struct.Struct("<IB")
# Byte offset and width of each field of an entry, in entry order.
_ENTRY_FIELDS = ((0, 4), (4, 4), (8, 1))
_ENTRY_SIZE = 9
# The array type of a u32 column (4 bytes wherever CPython runs).
_U32 = "I"


def _to_le(column: array) -> bytes:
    if sys.byteorder == "big":
        column = array(column.typecode, column)
        column.byteswap()
    return column.tobytes()


def _from_le(data: bytes) -> array:
    column = array(_U32, data)
    if sys.byteorder == "big":
        column.byteswap()
    return column


@dataclass(frozen=True)
class SizeIndex:
    """The size index of one shard: per line, in line order, its length
    in bytes, its text's characters and its language, as a code into
    ``langs``.  Columns: ``lengths`` and ``chars`` are u32 arrays,
    ``codes`` one byte per line."""

    langs: tuple[str, ...]
    lengths: array
    chars: array
    codes: bytes

    def __len__(self) -> int:
        return len(self.codes)

    def to_bytes(self) -> bytes | None:
        """The index file, or None when a language does not fit its table."""
        try:
            names = [lang.encode("utf-8") for lang in self.langs]
            header = _INDEX_COUNTS.pack(len(self), len(names))
            header += b"".join(struct.pack("<B", len(name)) + name for name in names)
        except (AttributeError, struct.error):  # a language that is no string, or too long
            return None
        entries = bytearray(_ENTRY_SIZE * len(self))
        columns = (_to_le(self.lengths), _to_le(self.chars), self.codes)
        for (start, width), column in zip(_ENTRY_FIELDS, columns):
            for byte in range(width):
                entries[start + byte :: _ENTRY_SIZE] = column[byte::width]
        return _INDEX_MAGIC + header + entries

    @staticmethod
    def from_bytes(data: bytes) -> "SizeIndex | None":
        """The index an index file holds, or None if it is not one."""
        at = len(_INDEX_MAGIC)
        try:
            if data[:at] != _INDEX_MAGIC:
                return None
            count, n_langs = _INDEX_COUNTS.unpack_from(data, at)
            at += _INDEX_COUNTS.size
            langs = []
            for _ in range(n_langs):
                width = data[at]
                langs.append(data[at + 1 : at + 1 + width].decode("utf-8"))
                at += 1 + width
        except (IndexError, struct.error, UnicodeDecodeError):
            return None
        entries = data[at:]
        if len(entries) != _ENTRY_SIZE * count:
            return None
        columns = []
        for start, width in _ENTRY_FIELDS:
            column = bytearray(width * count)
            for byte in range(width):
                column[byte::width] = entries[start + byte :: _ENTRY_SIZE]
            columns.append(column)
        lengths, chars, codes = columns
        if any(code >= n_langs for code in set(codes)):
            return None
        return SizeIndex(tuple(langs), _from_le(lengths), _from_le(chars), bytes(codes))


def _index_path(shard: Path) -> Path:
    return shard.with_suffix(".idx")


# The bytes of lines ``write_shard`` gathers before it writes, hashes
# and counts them as one block.
_WRITE_BLOCK = 64 * 1024


def write_shard(
    docs: Iterable[Document | SizedLine],
    path: Path | str,
    estimator: TokenEstimator | None = None,
    tally: _Tally | None = None,
    unique_ids: bool = True,
) -> ShardEntry:
    """Write one line per document, ``Document``s encoded by
    ``sized_line`` and ``SizedLine``s as they are, and beside the shard
    its ``SizeIndex`` when every number and language fits it; with
    ``unique_ids``, duplicate ids abort the shard, which leaves neither
    file.  Lines go out in blocks of about ``_WRITE_BLOCK`` bytes, each
    fed to ``tally``'s digest and counted by its line feeds; the shard's
    other sums go to ``tally`` once it is written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    idx_path = _index_path(path)
    est = estimator or TokenEstimator()
    update = None if tally is None else tally.digest.update
    seen: set[str] = set()
    n_docs = 0
    n_chars = 0
    est_tokens = 0.0
    lang_chars: dict[str, int] = {}  # of the usable documents
    unusable = 0
    block = bytearray()
    lines = 0  # line feeds written
    last = b"\n"  # the last byte written
    lengths, counts, codes = array(_U32), array(_U32), bytearray()
    lang_codes: dict[str, int] = {}
    ratios: dict[str, float] = {}  # the estimator's, by language
    fits = True
    try:
        with path.open("wb") as handle:

            def flush() -> None:
                nonlocal lines, last
                handle.write(block)
                if update is not None:
                    update(block)
                lines += block.count(b"\n")
                last = block[-1:] or last
                block.clear()

            for item in docs:
                if not isinstance(item, SizedLine):
                    item = sized_line(item)
                line, doc_id, lang, chars, usable = item
                if unique_ids:
                    if doc_id in seen:
                        raise CorpusError(f"duplicate document id {doc_id!r} in {path}")
                    seen.add(doc_id)
                block += line
                if len(block) >= _WRITE_BLOCK:
                    flush()
                if usable:
                    lang_chars[lang] = lang_chars.get(lang, 0) + chars
                else:
                    unusable += 1
                n_docs += 1
                n_chars += chars
                ratio = ratios.get(lang)
                if ratio is None:
                    ratio = ratios[lang] = est.ratio_for(lang)
                est_tokens += chars * ratio
                if fits:
                    code = lang_codes.setdefault(lang, len(lang_codes))
                    try:
                        lengths.append(len(line))
                        counts.append(chars)
                        codes.append(code)
                    except (OverflowError, ValueError):  # a u32 or a code past 255
                        fits = False
            flush()
        lines += last != b"\n"  # a last line without its line feed, as _hash_lines counts it
        index = SizeIndex(tuple(lang_codes), lengths, counts, bytes(codes))
        data = index.to_bytes() if fits else None
        if data is None:
            idx_path.unlink(missing_ok=True)
        else:
            idx_path.write_bytes(data)
    except Exception:
        path.unlink(missing_ok=True)
        idx_path.unlink(missing_ok=True)
        raise
    if tally is not None:
        tally.add_shard(lang_chars, unusable, lines, data)
    return ShardEntry(path.name, n_docs, n_chars, est_tokens)


@dataclass
class ShardManifest:
    """Per-stage record of shard files with counts and a config fingerprint.

    Resumed runs compare the fingerprint against the active config and
    refuse to mix artifacts produced under different parameters.  A
    manifest that ``write_corpus`` saved also holds its ``record`` and,
    when every shard has its size index, the sha256 of those indexes in
    manifest order (``index_sha256``); one written any other way, or by
    an older version, has neither.
    """

    stage: str
    fingerprint: str
    shards: list[ShardEntry] = field(default_factory=list)
    record: CorpusRecord | None = None
    index_sha256: str | None = None

    @property
    def total_docs(self) -> int:
        return sum(s.docs for s in self.shards)

    @property
    def total_est_tokens(self) -> float:
        return sum(s.est_tokens for s in self.shards)

    def to_obj(self) -> dict:
        return {
            "stage": self.stage,
            "fingerprint": self.fingerprint,
            "total_docs": self.total_docs,
            "total_est_tokens": self.total_est_tokens,
            **(self.record.to_obj() if self.record is not None else {}),
            **({"index_sha256": self.index_sha256} if self.index_sha256 is not None else {}),
            "shards": [s.to_obj() for s in self.shards],
        }

    def save(self, path: Path | str) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_obj(), indent=2) + "\n", encoding="utf-8")

    @staticmethod
    def load(path: Path | str) -> "ShardManifest":
        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
            manifest = ShardManifest(
                stage=typed_field(obj, "stage"),
                fingerprint=typed_field(obj, "fingerprint"),
                shards=[ShardEntry.from_obj(s) for s in typed_field(obj, "shards", list, default=[])],
                record=CorpusRecord.from_obj(obj) if obj.keys() & _RECORD_FIELDS else None,
                index_sha256=typed_field(obj, "index_sha256") if "index_sha256" in obj else None,
            )
            total = typed_field(obj, "total_docs", int, default=manifest.total_docs)
        except BAD_RECORD as exc:
            raise CorpusError(f"manifest {path} is not readable: {exc!r}") from exc
        if total != manifest.total_docs:
            raise CorpusError(f"manifest {path}: shard doc counts do not add up to the total")
        return manifest

    def shard_paths(self, base_dir: Path | str) -> list[Path]:
        base = Path(base_dir)
        return [base / s.path for s in self.shards]

    def record_holds(self, languages: Sequence[str] | None = DEFAULT_LANGUAGES) -> bool:
        """Whether the record says that every reader takes the corpus: it
        exists, counts no unusable document and no language outside
        ``languages`` (unless it is None), and its characters are those of
        the shard entries.  The shards' bytes are not looked at."""
        record = self.record
        return not (
            record is None
            or record.unusable_docs
            or (languages is not None and not set(record.lang_chars) <= set(languages))
            or sum(record.lang_chars.values()) != sum(s.chars for s in self.shards)
        )

    def recorded_digest(
        self,
        base_dir: Path | str,
        languages: Sequence[str] | None = DEFAULT_LANGUAGES,
        read: "ReadDigest | None" = None,
    ) -> str | None:
        """The record's sha256 when the shards still hold what
        ``write_corpus`` recorded and every reader takes all of it: the
        record holds (``record_holds``) and the shards' bytes in manifest
        order hash to its sha256, each shard with as many lines as its
        entry has documents.  The bytes are those ``read`` took as
        ``iter_corpus`` read them, or else ``hash_files`` hashes them.
        Otherwise None, and the caller parses the corpus, which raises
        whatever error it holds."""
        if not self.record_holds(languages):
            return None
        if read is None:
            try:
                hashed = hash_files(self.shard_paths(base_dir))
            except OSError:
                return None
        else:
            hashed = read.result()
        if hashed != (self.record.sha256, tuple(s.docs for s in self.shards)):
            return None
        return self.record.sha256

    def verify(self, base_dir: Path | str, languages: Sequence[str] | None = DEFAULT_LANGUAGES) -> str:
        """Check that every listed shard exists, parses and matches its
        count, and that no document's text is only whitespace (unscorable).

        Returns the sha256 of the shards' bytes in manifest order, which
        names the corpus's content.  Shards that match the manifest's
        record (``recorded_digest``) are hashed, not parsed.
        """
        recorded = self.recorded_digest(base_dir, languages)
        if recorded is not None:
            return recorded
        paths = self.shard_paths(base_dir)
        for entry, path in zip(self.shards, paths):
            n = 0
            for doc in load_shard(path, languages):
                n += 1
                if not doc.text.strip():
                    raise CorpusError(f"shard {path}: cannot score empty document {doc.id!r}")
            if n != entry.docs:
                raise CorpusError(f"shard {path}: has {n} docs, manifest says {entry.docs}")
        return hash_files(paths)[0]


def file_sha256(path: Path | str) -> str:
    """The sha256 of a file (``hash_files``)."""
    return hash_files([Path(path)])[0]


# The most of a file ``_hash_lines`` holds at once.
_HASH_BLOCK = 64 * 1024


def _hash_lines(path: Path, digest) -> int:
    """Feed a file to ``digest`` in blocks of at most ``_HASH_BLOCK``
    bytes, all read into one buffer; returns the count of its lines, as
    a reader that splits at line feeds counts them."""
    lines = 0
    last = ord("\n")
    block = bytearray(_HASH_BLOCK)
    with path.open("rb", buffering=0) as handle, memoryview(block) as view:
        while size := handle.readinto(block):
            digest.update(view[:size])
            lines += block.count(b"\n", 0, size)
            last = block[size - 1]
    return lines + (last != ord("\n"))  # a last line without its line feed


# What the files of a corpus are, without reading them (``_identity``):
# a tuple per file, in manifest order.
_Identities = tuple[tuple[int, ...], ...]

# While a ``digest_memo`` scope is open: each sha256 of a sequence of
# files that this process wrote, read or hashed, with each file's count
# of lines, by the files' identities.  None outside the scope.  A
# context variable, so that a scope in one thread is not another's.
_memo: ContextVar[dict[_Identities, tuple[str, tuple[int, ...]]] | None] = ContextVar(
    "digest_memo", default=None
)


@contextmanager
def digest_memo() -> Iterator[None]:
    """A scope in which a digest of files is taken at most once.

    Within it, ``write_corpus`` remembers the digest and line counts of
    the bytes it wrote, ``ReadDigest`` those of the bytes a read took and
    ``hash_files`` those it hashed, each keyed by the identities of the
    files (``_identity``) stat'd after the write or around the read.
    ``hash_files`` then gives what it remembers for files of the same
    identities instead of reading them, and so does everything that
    hashes through it: ``recorded_digest``, ``verify``, ``file_sha256``
    and ``CorpusLines.sha256``.  An entry holds only what this process
    computed from the bytes, never what a manifest claims.  Renaming a
    file keeps its identity.  An edit the identity cannot see keeps the
    size and lands within the clock tick of the write or hash it
    follows, so that ``st_mtime_ns`` and ``st_ctime_ns`` stay the same.
    Outside the scope every digest is hashed; the memo is cleared when
    the scope ends, however it ends.
    """
    token = _memo.set({})
    try:
        yield
    finally:
        _memo.reset(token)


def _identity(path: Path) -> tuple[int, ...]:
    """A file's device, inode, size, and nanosecond times of its last
    write (``st_mtime_ns``) and of the last change of its inode
    (``st_ctime_ns``), which ``os.utime`` cannot set back."""
    st = os.stat(path)
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


def _identities(paths: Sequence[Path]) -> _Identities | None:
    """Each file's ``_identity`` while a ``digest_memo`` scope is open
    and every file is there, else None."""
    if _memo.get() is None:
        return None
    try:
        return tuple(map(_identity, paths))
    except OSError:
        return None


def _remember(identities: _Identities | None, sha256: str, lines: Sequence[int]) -> None:
    memo = _memo.get()
    if identities is not None and memo is not None:
        memo[identities] = (sha256, tuple(lines))


def remember_written(path: Path, sha256: str, lines: int) -> None:
    """Note, in an open ``digest_memo``, the sha256 and count of lines of
    a file the caller has just written and closed."""
    _remember(_identities([path]), sha256, [lines])


def hash_files(paths: Sequence[Path]) -> tuple[str, tuple[int, ...]]:
    """The sha256 of the files' bytes in order and each file's count of
    lines (``_hash_lines``): what an open ``digest_memo`` holds for files
    of these identities, or else hashed, and remembered there when no
    identity changed during the hash.  A file that cannot be read raises
    ``OSError``."""
    before = _identities(paths)
    known = None if before is None else _memo.get().get(before)
    if known is not None:
        return known
    digest = hashlib.sha256()
    lines = tuple(_hash_lines(path, digest) for path in paths)
    if before is not None and _identities(paths) == before:
        _remember(before, digest.hexdigest(), lines)
    return digest.hexdigest(), lines


class ReadDigest:
    """The sha256 and line counts of a corpus's shards, taken as
    ``iter_corpus`` reads them for their documents, in place of a pass
    of their own: every byte, blank lines and a last line without its
    line feed included, as ``hash_files`` takes them."""

    def __init__(self, paths: Sequence[Path]):
        self.paths = list(paths)
        self.digest = hashlib.sha256()
        self.lines: list[int] = []
        self._before = _identities(self.paths)

    def add(self, reader: ShardReader) -> None:
        """Count the lines of a shard ``reader`` has read to its end."""
        self.lines.append(reader.n_lines)

    def result(self) -> tuple[str, tuple[int, ...]] | None:
        """The digest and each shard's lines once every shard is read,
        remembered in an open ``digest_memo`` when no shard's identity
        changed during the read; None before."""
        if len(self.lines) != len(self.paths):
            return None
        hashed = (self.digest.hexdigest(), tuple(self.lines))
        if self._before is not None and _identities(self.paths) == self._before:
            _remember(self._before, *hashed)
        return hashed


def shard_runs(items: Iterable, shard_size: int) -> Iterator[Iterator]:
    """Consecutive runs of ``shard_size`` items, each drawn from the
    stream as it is consumed, which must be before the next is asked for.
    An empty stream gives one empty run."""
    if shard_size < 1:
        raise ValueError(f"shard_size must be at least 1, got {shard_size}")
    stream = iter(items)
    head = next(stream, None)
    if head is None:
        yield iter(())
    while head is not None:
        yield itertools.islice(itertools.chain((head,), stream), shard_size)
        head = next(stream, None)


def write_corpus(
    docs: Iterable[Document | SizedLine],
    out_dir: Path | str,
    *,
    stage: str,
    fingerprint: str,
    estimator: TokenEstimator | None = None,
    shard_size: int = 50_000,
    shard_prefix: str = "shard",
    unique_ids: bool = True,
) -> ShardManifest:
    """Write a document stream as size-bounded shards plus a manifest.

    The stream holds ``Document``s, or ``SizedLine``s whose lines are
    already what ``sized_line`` gives, or, with ``unique_ids`` off, the
    lines of other records (preprocess's passages).  The shards are
    ``shard_runs`` of the stream, ``<shard_prefix>-NNNNN.jsonl``: each
    line goes straight into the open shard's block (``write_shard``), so
    memory holds a block of lines plus the open shard's ids (for its
    duplicate check) and size index, never a shard of documents.  An empty stream still gets one empty
    shard.  The manifest is saved only after the stream is exhausted; an
    exception from the stream deletes the open shard and its index and
    leaves no manifest.  It holds the ``CorpusRecord`` of the bytes
    written, which lets a later reader hash the shards instead of
    parsing them, and the digest of the indexes, with which a reader
    routes their lines by their bytes (``vouched_indexes``).  In an open
    ``digest_memo`` the shards' digest is remembered, keyed by their
    identities stat'd as each shard closed.
    """
    out_dir = Path(out_dir)
    manifest = ShardManifest(stage=stage, fingerprint=fingerprint)
    tally = _Tally()
    identities = []
    for run in shard_runs(docs, shard_size):
        path = out_dir / f"{shard_prefix}-{len(manifest.shards):05d}.jsonl"
        manifest.shards.append(write_shard(run, path, estimator, tally, unique_ids))
        identities.append(_identities([path]))
    manifest.record = tally.record()
    manifest.index_sha256 = tally.index_sha256()
    manifest.save(out_dir / "manifest.json")
    if None not in identities:
        _remember(tuple(i for (i,) in identities), manifest.record.sha256, tally.lines)
    return manifest


def iter_corpus(
    manifest: ShardManifest,
    base_dir: Path | str,
    languages: Sequence[str] | None = DEFAULT_LANGUAGES,
    read: ReadDigest | None = None,
) -> Iterator[Document]:
    """Stream every document of a manifest in shard order; a bad line
    raises ``CorpusError`` once its shard is read.  With ``read``, whose
    shards must be the manifest's, the bytes read are hashed into it."""
    for path in manifest.shard_paths(base_dir):
        if read is None:
            yield from load_shard(path, languages)
        else:
            reader = load_shard(path, languages, read.digest)
            yield from reader
            read.add(reader)


class ShardIndexes:
    """The size indexes of a corpus's shards, which ``vouched_indexes``
    checked, in shard order; each is read from its file when it is asked
    for, so a reader holds one shard's index at a time."""

    def __init__(self, paths: Sequence[Path], counts: Sequence[int]):
        self.paths = paths
        self.counts = counts

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self) -> Iterator[SizeIndex]:
        for shard, count in zip(self.paths, self.counts):
            path = _index_path(shard)
            index = SizeIndex.from_bytes(path.read_bytes())
            if index is None or len(index) != count:
                raise CorpusError(f"size index {path} changed since it was checked")
            yield index


def vouched_indexes(
    manifest: ShardManifest,
    base_dir: Path | str,
    languages: Sequence[str] | None = DEFAULT_LANGUAGES,
) -> tuple[ShardIndexes, str] | None:
    """The shards' size indexes and sha256, when the manifest vouches for
    the bytes of a corpus ``write_corpus`` wrote: every shard has its
    index, with an entry per document of its manifest entry, the indexes
    hash to the manifest's ``index_sha256``, and the record holds
    (``recorded_digest``: the shards are as written, no document is
    unusable and every language is in ``languages``).  Otherwise None.
    Both digests are taken by streaming, one index file at a time."""
    if manifest.record is None or manifest.index_sha256 is None:
        return None
    paths = manifest.shard_paths(base_dir)
    digest = hashlib.sha256()
    for entry, path in zip(manifest.shards, paths):
        try:
            data = _index_path(path).read_bytes()
        except OSError:
            return None
        digest.update(data)
        index = SizeIndex.from_bytes(data)
        if index is None or len(index) != entry.docs:
            return None
    if digest.hexdigest() != manifest.index_sha256:
        return None
    # recorded_digest also holds every shard to its entry's count of lines.
    sha256 = manifest.recorded_digest(base_dir, languages)
    if sha256 is None:
        return None
    return ShardIndexes(paths, [entry.docs for entry in manifest.shards]), sha256


class CorpusLines:
    """Every document of a corpus as its ``SizedLine``, in shard order,
    read one of two ways, chosen once for the corpus.

    The index path reads each shard's bytes and its ``SizeIndex``, and
    decodes only each line's id.  It is taken when the manifest vouches
    for the shards and their indexes (``vouched_indexes``).  Bytes that
    match the record were written by ``write_corpus``, so every line is
    ``sized_line`` output.  Otherwise the parse path reads the corpus
    with ``iter_corpus``, with its checks and errors, and encodes each
    document with ``sized_line``.  ``indexes`` holds the shards' indexes
    on the index path, each read when it is asked for, and is None on
    the parse path.
    """

    def __init__(
        self,
        manifest: ShardManifest,
        base_dir: Path | str,
        languages: Sequence[str] | None = DEFAULT_LANGUAGES,
    ):
        self.manifest = manifest
        self.base_dir = Path(base_dir)
        self.languages = languages
        self.paths = manifest.shard_paths(base_dir)
        vouched = vouched_indexes(manifest, base_dir, languages)
        self.indexes, self._sha256 = vouched if vouched is not None else (None, None)

    def __iter__(self) -> Iterator[SizedLine]:
        if self.indexes is None:
            yield from map(sized_line, iter_corpus(self.manifest, self.base_dir, self.languages))
            return
        for path, index in zip(self.paths, self.indexes):
            langs = index.langs
            with path.open("rb") as handle:
                for line, chars, code in zip(handle, index.chars, index.codes):
                    doc_id = _line_id(line, line.index(_TEXT_HEAD))
                    yield SizedLine(line, doc_id, langs[code], chars)

    def sha256(self) -> str | None:
        """The sha256 of the shards' bytes in manifest order, as
        ``ShardManifest.verify`` names the corpus: the record's when it
        holds, else hashed without a parse; None if a shard is unreadable."""
        if self._sha256 is None:
            self._sha256 = self.manifest.recorded_digest(self.base_dir, self.languages)
        if self._sha256 is None:
            try:
                self._sha256 = hash_files(self.paths)[0]
            except OSError:
                return None
        return self._sha256


METHOD_ESTIMATED = "estimated"
METHOD_EXACT = "exact-external"


@dataclass(frozen=True)
class CorpusStats:
    """Document and token totals for one dataset, reported in the style
    of published corpus overview tables (mio. docs / B tokens)."""

    docs: int
    tokens: float
    method: str = METHOD_ESTIMATED

    def __post_init__(self) -> None:
        if self.docs < 0 or self.tokens < 0:
            raise CorpusError("negative corpus stats")
        if (self.docs == 0) != (self.tokens == 0):
            raise CorpusError("docs and tokens must be zero together")

    @property
    def million_docs(self) -> float:
        return self.docs / 1e6

    @property
    def billion_tokens(self) -> float:
        return self.tokens / 1e9

    def to_obj(self) -> dict:
        return {
            "docs": self.docs,
            "tokens": self.tokens,
            "million_docs": self.million_docs,
            "billion_tokens": self.billion_tokens,
            "method": self.method,
        }


# A sum of estimates on the RATIO_QUANTUM grid is exact, whatever the
# order of its terms, while it stays below this many tokens (2**33).
EXACT_SUM_LIMIT = 2**53 * RATIO_QUANTUM


def _recorded_stats(
    manifest: ShardManifest,
    base_dir: Path | str,
    est: TokenEstimator,
    languages: Sequence[str] | None,
) -> CorpusStats | None:
    """The estimated stats from the manifest's record, or None unless
    they provably equal the parse's running sum: every ratio in use lies
    on the RATIO_QUANTUM grid and the total below EXACT_SUM_LIMIT, so
    each term and partial sum is exact, and the shards still match the
    record."""
    record = manifest.record
    if record is None or any(quantize_ratio(r) != r for r in map(est.ratio_for, record.lang_chars)):
        return None
    tokens = 0.0
    for lang, chars in sorted(record.lang_chars.items()):
        tokens += est.estimate_chars(chars, lang)
    if tokens >= EXACT_SUM_LIMIT or manifest.recorded_digest(base_dir, languages) is None:
        return None
    return CorpusStats(manifest.total_docs, tokens)


def corpus_stats(
    manifest: ShardManifest,
    base_dir: Path | str,
    estimator: TokenEstimator | None = None,
    exact_counter=None,
    languages: Sequence[str] | None = DEFAULT_LANGUAGES,
) -> CorpusStats:
    """Count documents exactly; count tokens via the estimator unless an
    external exact counter is configured.  An estimate that the
    manifest's record gives exactly (``_recorded_stats``) reads no
    document."""
    est = estimator or TokenEstimator()
    if exact_counter is None:
        recorded = _recorded_stats(manifest, base_dir, est, languages)
        if recorded is not None:
            return recorded
    docs = 0
    tokens = 0.0
    for doc in iter_corpus(manifest, base_dir, languages):
        docs += 1
        if exact_counter is not None:
            tokens += exact_counter(doc.text)
        else:
            tokens += est.estimate_text(doc.text, doc.lang)
    method = METHOD_EXACT if exact_counter is not None else METHOD_ESTIMATED
    return CorpusStats(docs, tokens, method)


def _fmt_scaled(value: float) -> str:
    # Published tables print three decimals; desk-scale corpora need
    # more precision to avoid collapsing to 0.000.
    if 0 < value < 0.001:
        return f"{value:.6f}"
    return f"{value:.3f}"


def stats_table(rows: Sequence[tuple[str, CorpusStats]]) -> str:
    """Aligned text table with dataset, mio. docs, and B tokens columns."""
    name_width = max([len("Dataset"), *(len(name) for name, _ in rows)] or [7])
    lines = [f"{'Dataset':<{name_width}}  {'mio. docs':>10}  {'B tokens':>10}"]
    lines.append("-" * (name_width + 24))
    for name, stats in rows:
        lines.append(
            f"{name:<{name_width}}  {_fmt_scaled(stats.million_docs):>10}  "
            f"{_fmt_scaled(stats.billion_tokens):>10}"
        )
    return "\n".join(lines)


def stats_to_obj(rows: Sequence[tuple[str, CorpusStats]]) -> dict:
    """Machine-readable twin of the stats table."""
    return {"datasets": [{"name": name, **stats.to_obj()} for name, stats in rows]}
