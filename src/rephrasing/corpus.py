"""JSON Lines corpus shards, manifests, and document/token statistics.

A corpus is a set of shard files with one JSON object per line
(``id``, ``text``, ``lang``, ``meta``, ``provenance``) plus a single
manifest JSON document per pipeline stage.  Shards are independent
units of work and every type here is immutable after construction.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence

from .tokens import RATIO_QUANTUM, TokenEstimator, quantize_ratio

DEFAULT_LANGUAGES = ("en", "de", "es", "it")

PROVENANCE_ORIGINAL = "original"
PROVENANCE_REPHRASED = "rephrased"


# Serialises every JSON line the pipeline writes.  ``json.dumps`` with a
# non-default option builds a new encoder on each call; this one is built
# once and holds no state between calls, so threads may share it.
encode_json = json.JSONEncoder(ensure_ascii=False).encode


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


def doc_to_json(doc: Document) -> str:
    """Serialize one document with fixed field order (byte-stable)."""
    return encode_json(
        {
            "id": doc.id,
            "text": doc.text,
            "lang": doc.lang,
            "meta": dict(doc.meta),
            "provenance": doc.provenance.to_obj(),
        }
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


def parse_line(raw: bytes) -> dict:
    """The JSON object on one line; a line that is not UTF-8 or not JSON
    raises ``ValueError``, and one that is not an object ``CorpusError``."""
    obj = json.loads(raw.decode("utf-8"))
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
    the file, the count of bad lines and the first one.
    """

    def __init__(self, path: Path | str, parse: Callable[[dict], object]):
        self.path = Path(path)
        if not self.path.is_file():
            raise FileNotFoundError(f"not found: {self.path}")
        self.parse = parse
        self.errors: list[LineError] = []
        self.n_lines = 0

    def __iter__(self) -> Iterator:
        return map(itemgetter(2), self.located())

    def located(self) -> Iterator[tuple[int, int, object]]:
        """Each record with the byte offset and length of its line,
        for ``read_document_at``."""
        parse = self.parse
        offset = 0
        with self.path.open("rb") as handle:
            for lineno, raw in enumerate(handle, start=1):
                self.n_lines = lineno
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


def load_shard(path: Path | str, languages: Sequence[str] | None = DEFAULT_LANGUAGES) -> ShardReader:
    """A reader of the documents of one corpus shard."""
    return ShardReader(path, functools.partial(doc_from_obj, languages=languages))


def read_document_at(handle: BinaryIO, offset: int, length: int) -> Document:
    """The document on the shard line at ``offset`` of ``length`` bytes.

    Both come from ``ShardReader.located``, which has already validated
    the line, so ``handle`` may be unbuffered (``buffering=0``).
    """
    handle.seek(offset)
    return doc_from_obj(parse_line(handle.read(length)))


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
    across all its shards; ``record`` sums it up."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.lang_chars: dict[str, int] = {}
        self.unusable_docs = 0

    def add(self, doc: Document, line: bytes) -> None:
        self.digest.update(line)
        if _usable(doc):
            self.lang_chars[doc.lang] = self.lang_chars.get(doc.lang, 0) + len(doc.text)
        else:
            self.unusable_docs += 1

    def record(self) -> CorpusRecord:
        return CorpusRecord(self.digest.hexdigest(), self.lang_chars, self.unusable_docs)


def write_shard(
    docs: Iterable[Document],
    path: Path | str,
    estimator: TokenEstimator | None = None,
    tally: _Tally | None = None,
) -> ShardEntry:
    """Write one JSON object per line; duplicate ids abort the shard."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    est = estimator or TokenEstimator()
    seen: set[str] = set()
    n_docs = 0
    n_chars = 0
    est_tokens = 0.0
    try:
        with path.open("wb") as handle:
            for doc in docs:
                if doc.id in seen:
                    raise CorpusError(f"duplicate document id {doc.id!r} in {path}")
                seen.add(doc.id)
                line = (doc_to_json(doc) + "\n").encode("utf-8")
                handle.write(line)
                if tally is not None:
                    tally.add(doc, line)
                n_docs += 1
                n_chars += len(doc.text)
                est_tokens += est.estimate_text(doc.text, doc.lang)
    except Exception:
        path.unlink(missing_ok=True)
        raise
    return ShardEntry(path.name, n_docs, n_chars, est_tokens)


@dataclass
class ShardManifest:
    """Per-stage record of shard files with counts and a config fingerprint.

    Resumed runs compare the fingerprint against the active config and
    refuse to mix artifacts produced under different parameters.  A
    manifest that ``write_corpus`` saved also holds its ``record``; one
    written any other way, or by an older version, has none.
    """

    stage: str
    fingerprint: str
    shards: list[ShardEntry] = field(default_factory=list)
    record: CorpusRecord | None = None

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

    def recorded_digest(
        self, base_dir: Path | str, languages: Sequence[str] | None = DEFAULT_LANGUAGES
    ) -> str | None:
        """The record's sha256 when the shards still hold what
        ``write_corpus`` recorded and every reader takes all of it: no
        unusable document, no language outside ``languages`` (unless it is
        None), the record's characters those of the shard entries, and
        every shard, hashed line by line in manifest order, with as many
        lines as its entry has documents.  Otherwise None, and the caller
        parses the corpus, which raises whatever error it holds."""
        record = self.record
        if (
            record is None
            or record.unusable_docs
            or (languages is not None and not set(record.lang_chars) <= set(languages))
            or sum(record.lang_chars.values()) != sum(s.chars for s in self.shards)
        ):
            return None
        digest = hashlib.sha256()
        try:
            for entry, path in zip(self.shards, self.shard_paths(base_dir)):
                if _hash_lines(path, digest) != entry.docs:
                    return None
        except OSError:
            return None
        return record.sha256 if digest.hexdigest() == record.sha256 else None

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
        digest = hashlib.sha256()
        for entry, path in zip(self.shards, self.shard_paths(base_dir)):
            n = 0
            for doc in load_shard(path, languages):
                n += 1
                if not doc.text.strip():
                    raise CorpusError(f"shard {path}: cannot score empty document {doc.id!r}")
            if n != entry.docs:
                raise CorpusError(f"shard {path}: has {n} docs, manifest says {entry.docs}")
            _hash_lines(path, digest)
        return digest.hexdigest()


def _hash_lines(path: Path, digest) -> int:
    """Feed a file to ``digest`` line by line, so the hash holds no more
    than a parse does; returns the count of lines."""
    lines = 0
    with path.open("rb") as handle:
        for lines, line in enumerate(handle, start=1):
            digest.update(line)
    return lines


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
    docs: Iterable[Document],
    out_dir: Path | str,
    *,
    stage: str,
    fingerprint: str,
    estimator: TokenEstimator | None = None,
    shard_size: int = 50_000,
) -> ShardManifest:
    """Write a document stream as size-bounded shards plus a manifest.

    The shards are ``shard_runs`` of the stream: each document goes
    straight into the open shard, so memory holds one document plus the
    open shard's ids (for its duplicate check), never a shard of
    documents.  An empty stream still gets one empty shard.  The manifest
    is saved only after the stream is exhausted; an exception from the
    stream deletes the open shard and leaves no manifest.  It holds the
    ``CorpusRecord`` of the bytes written, which lets a later reader hash
    the shards instead of parsing them.
    """
    out_dir = Path(out_dir)
    manifest = ShardManifest(stage=stage, fingerprint=fingerprint)
    tally = _Tally()
    for run in shard_runs(docs, shard_size):
        path = out_dir / f"shard-{len(manifest.shards):05d}.jsonl"
        manifest.shards.append(write_shard(run, path, estimator, tally))
    manifest.record = tally.record()
    manifest.save(out_dir / "manifest.json")
    return manifest


def iter_corpus(
    manifest: ShardManifest,
    base_dir: Path | str,
    languages: Sequence[str] | None = DEFAULT_LANGUAGES,
) -> Iterator[Document]:
    """Stream every document of a manifest in shard order; a bad line
    raises ``CorpusError`` once its shard is read."""
    for path in manifest.shard_paths(base_dir):
        yield from load_shard(path, languages)


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
