"""JSON Lines corpus shards, manifests, and document/token statistics.

A corpus is a set of shard files with one JSON object per line
(``id``, ``text``, ``lang``, ``meta``, ``provenance``) plus a single
manifest JSON document per pipeline stage.  Shards are independent
units of work and every type here is immutable after construction.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence

from .tokens import TokenEstimator

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
    meta: Mapping[str, str] = field(default_factory=dict)
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


def doc_from_obj(obj: Mapping) -> Document:
    for name in ("id", "text", "lang"):
        if not isinstance(obj[name], str):
            raise CorpusError(f"field {name!r} is {type(obj[name]).__name__}, not a string")
    return Document(
        id=obj["id"],
        text=obj["text"],
        lang=obj["lang"],
        meta={str(k): str(v) for k, v in obj.get("meta", {}).items()},
        provenance=Provenance.from_obj(obj.get("provenance")),
    )


@dataclass(frozen=True)
class LineError:
    """A shard line that failed to parse or validate."""

    lineno: int
    message: str


class ShardReader:
    """Iterate documents in one shard file, collecting line-level errors.

    A shard is UTF-8 JSON Lines split at line feeds only.  A line that does
    not decode, parse or validate is recorded in ``errors`` with its line
    number rather than aborting the stream, so parsed documents plus
    recorded errors always account for every input line.
    """

    def __init__(self, path: Path | str, languages: Sequence[str] | None = DEFAULT_LANGUAGES):
        self.path = Path(path)
        if not self.path.is_file():
            raise FileNotFoundError(f"shard not found: {self.path}")
        self.languages = languages
        self.errors: list[LineError] = []
        self.n_lines = 0

    def __iter__(self) -> Iterator[Document]:
        for _, _, doc in self.located():
            yield doc

    def located(self) -> Iterator[tuple[int, int, Document]]:
        """Each document with the byte offset and length of its line,
        for ``read_document_at``."""
        offset = 0
        with self.path.open("rb") as handle:
            for lineno, raw in enumerate(handle, start=1):
                doc = self._parse(lineno, raw)
                if doc is not None:
                    yield offset, len(raw), doc
                offset += len(raw)

    def _parse(self, lineno: int, raw: bytes) -> Document | None:
        self.n_lines = lineno
        try:
            obj = json.loads(raw.decode("utf-8"))
            if not isinstance(obj, dict):
                raise CorpusError("line is not a JSON object")
            doc = doc_from_obj(obj)
            doc.validate(self.languages)
        # ValueError covers a line that is not UTF-8 and one that is not JSON.
        except (ValueError, KeyError, AttributeError, TypeError, CorpusError) as exc:
            self.errors.append(LineError(lineno, str(exc)))
            return None
        return doc

    def summary(self) -> str:
        if not self.errors:
            return f"{self.path.name}: clean"
        first = self.errors[0]
        return (
            f"{self.path.name}: {len(self.errors)} bad line(s); "
            f"first at line {first.lineno}: {first.message}"
        )


def load_shard(path: Path | str, languages: Sequence[str] | None = DEFAULT_LANGUAGES) -> ShardReader:
    """Open a shard for streaming; parse errors collect on the reader."""
    return ShardReader(path, languages)


def read_document_at(handle: BinaryIO, offset: int, length: int) -> Document:
    """The document on the shard line at ``offset`` of ``length`` bytes.

    Both come from ``ShardReader.located``, which has already validated
    the line, so ``handle`` may be unbuffered (``buffering=0``).
    """
    handle.seek(offset)
    return doc_from_obj(json.loads(handle.read(length).decode("utf-8")))


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
            path=str(obj["path"]),
            docs=int(obj["docs"]),
            chars=int(obj["chars"]),
            est_tokens=float(obj["est_tokens"]),
        )


def write_shard(
    docs: Iterable[Document],
    path: Path | str,
    estimator: TokenEstimator | None = None,
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
        with path.open("w", encoding="utf-8") as handle:
            for doc in docs:
                if doc.id in seen:
                    raise CorpusError(f"duplicate document id {doc.id!r} in {path}")
                seen.add(doc.id)
                handle.write(doc_to_json(doc) + "\n")
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
    refuse to mix artifacts produced under different parameters.
    """

    stage: str
    fingerprint: str
    shards: list[ShardEntry] = field(default_factory=list)

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
            "shards": [s.to_obj() for s in self.shards],
        }

    def save(self, path: Path | str) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_obj(), indent=2) + "\n", encoding="utf-8")

    @staticmethod
    def load(path: Path | str) -> "ShardManifest":
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        manifest = ShardManifest(
            stage=str(obj["stage"]),
            fingerprint=str(obj["fingerprint"]),
            shards=[ShardEntry.from_obj(s) for s in obj.get("shards", [])],
        )
        if int(obj.get("total_docs", manifest.total_docs)) != manifest.total_docs:
            raise CorpusError(f"manifest {path}: shard doc counts do not add up to the total")
        return manifest

    def shard_paths(self, base_dir: Path | str) -> list[Path]:
        base = Path(base_dir)
        return [base / s.path for s in self.shards]

    def verify(self, base_dir: Path | str, languages: Sequence[str] | None = DEFAULT_LANGUAGES) -> str:
        """Check that every listed shard exists, parses and matches its
        count, and that no document's text is only whitespace (unscorable).

        Returns the sha256 of the shards' bytes in manifest order, which
        names the corpus's content.
        """
        digest = hashlib.sha256()
        for entry, path in zip(self.shards, self.shard_paths(base_dir)):
            reader = load_shard(path, languages)
            n = 0
            for doc in reader:
                n += 1
                if not doc.text.strip():
                    raise CorpusError(f"shard {path}: cannot score empty document {doc.id!r}")
            if reader.errors:
                raise CorpusError(f"shard {path}: {reader.summary()}")
            if n != entry.docs:
                raise CorpusError(f"shard {path}: has {n} docs, manifest says {entry.docs}")
            # Line by line, so the hash holds no more than the parse did.
            with path.open("rb") as handle:
                for line in handle:
                    digest.update(line)
        return digest.hexdigest()


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
    stream deletes the open shard and leaves no manifest.
    """
    out_dir = Path(out_dir)
    manifest = ShardManifest(stage=stage, fingerprint=fingerprint)
    for run in shard_runs(docs, shard_size):
        path = out_dir / f"shard-{len(manifest.shards):05d}.jsonl"
        manifest.shards.append(write_shard(run, path, estimator))
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
        reader = load_shard(path, languages)
        yield from reader
        if reader.errors:
            raise CorpusError(reader.summary())


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


def corpus_stats(
    manifest: ShardManifest,
    base_dir: Path | str,
    estimator: TokenEstimator | None = None,
    exact_counter=None,
    languages: Sequence[str] | None = DEFAULT_LANGUAGES,
) -> CorpusStats:
    """Count documents exactly; count tokens via the estimator unless an
    external exact counter is configured."""
    est = estimator or TokenEstimator()
    docs = 0
    tokens = 0.0
    for doc in iter_corpus(manifest, base_dir, languages):
        docs += 1
        if exact_counter is not None:
            tokens += int(exact_counter(doc.text))
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
