"""Compose training corpora from several datasets by weight.

Each source gets a quota proportional to its weight.  Sources larger
than their quota contribute a seeded random subset; smaller ones are
used multiple times (full passes plus a seeded remainder subset).  The
drawn pool is shuffled globally with the same seed, so a (spec, seed)
pair fully determines the output shards.  The pool holds references to
documents, which are read back one at a time as the shards are written.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import operator
import random
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence

from .corpus import (
    CorpusLines,
    Document,
    ShardManifest,
    SizedLine,
    load_shard,
    read_document_at,
    read_line_at,
    splice_id,
    write_corpus,
)
from .tokens import TokenEstimator

UNIT_TOKENS = "tokens"
UNIT_DOCUMENTS = "documents"


class MixError(Exception):
    """Invalid mix spec or unusable source."""


@dataclass(frozen=True)
class MixSource:
    name: str
    manifest_path: Path
    weight: float

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise MixError(f"source {self.name!r} has non-positive weight {self.weight}")


@dataclass(frozen=True)
class MixSpec:
    sources: tuple[MixSource, ...]
    unit: str = UNIT_TOKENS
    # Total output size in `unit`; defaults to the size at which the
    # smallest weighted source is fully used exactly once.
    target: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.sources:
            raise MixError("mix spec needs at least one source")
        if self.unit not in (UNIT_TOKENS, UNIT_DOCUMENTS):
            raise MixError(f"unknown mix unit {self.unit!r}")
        names = [s.name for s in self.sources]
        if len(set(names)) != len(names):
            raise MixError("duplicate source names in mix spec")


@dataclass(frozen=True)
class SourceDraw:
    """How much to take from one source: full passes plus a subset."""

    name: str
    size: float
    quota: float
    full_passes: int
    remainder: float


@dataclass(frozen=True)
class MixPlan:
    unit: str
    seed: int
    target: float
    draws: tuple[SourceDraw, ...]


def plan_mix(spec: MixSpec, sizes: Mapping[str, float] | None = None) -> MixPlan:
    """Compute per-source quotas and repeat counts from source sizes in
    ``spec.unit``; by default, the sizes the sources' manifests record."""
    if sizes is None:
        manifests = {s.name: ShardManifest.load(s.manifest_path) for s in spec.sources}
        sizes = {
            name: float(m.total_docs) if spec.unit == UNIT_DOCUMENTS else m.total_est_tokens
            for name, m in manifests.items()
        }
    for source in spec.sources:
        if sizes[source.name] <= 0:
            raise MixError(f"source {source.name!r} is empty")

    total_weight = sum(s.weight for s in spec.sources)
    shares = {s.name: s.weight / total_weight for s in spec.sources}
    target = spec.target
    if target is None:
        target = min(sizes[s.name] / shares[s.name] for s in spec.sources)

    draws = []
    for source in spec.sources:
        quota = shares[source.name] * target
        size = sizes[source.name]
        if quota <= size:
            full_passes, remainder = 0, quota
        else:
            full_passes = int(quota // size)
            remainder = quota - full_passes * size
        draws.append(SourceDraw(source.name, size, quota, full_passes, remainder))
    return MixPlan(spec.unit, spec.seed, target, tuple(draws))


@dataclass
class MixReport:
    unit: str
    seed: int
    per_source: dict[str, dict] = field(default_factory=dict)

    def realized_ratio(self, a: str, b: str) -> float:
        return self.per_source[a]["tokens"] / self.per_source[b]["tokens"]

    def to_obj(self) -> dict:
        return {"unit": self.unit, "seed": self.seed, "per_source": self.per_source}

    def table(self) -> str:
        width = max([len("source"), *(len(n) for n in self.per_source)])
        lines = [f"{'source':<{width}}  {'docs':>10}  {'est tokens':>14}"]
        lines.append("-" * (width + 28))
        for name, row in self.per_source.items():
            lines.append(f"{name:<{width}}  {row['docs']:>10}  {row['tokens']:>14.1f}")
        return "\n".join(lines)


def _affixes(source_name: str, pass_index: int) -> tuple[str, str]:
    # Sources may share ids (a rephrased corpus keeps its originals'),
    # and repeat passes duplicate them outright, so drawn ids are
    # namespaced as "<source>/<id>" with a "~<pass>" suffix for repeats.
    return f"{source_name}/", f"~{pass_index}" if pass_index > 0 else ""


def _drawn_doc(doc: Document, source_name: str, pass_index: int) -> Document:
    prefix, suffix = _affixes(source_name, pass_index)
    return dataclasses.replace(doc, id=prefix + doc.id + suffix)


# Shard files kept open at once while drawn documents are read back;
# they are unbuffered, so each costs a file descriptor and no memory.
# With more shards than this most reads reopen their shard, which adds
# about 4 us to the 18 us a read and parse of a drawn document takes
# (CPython 3.11, 2-core Xeon); 32 stays far below the per-process file
# descriptor limits in common use (256 on macOS, 1024 on Linux).
MAX_OPEN_SHARDS = 32


class _SourceIndex:
    """Where every source document sits, and what it weighs, in flat arrays.

    Documents are numbered across all sources in spec order.  Per
    document the index keeps the byte offset and length of its shard
    line, its weight, its text's characters and its language's code in
    its shard's ``shard_langs`` (25 bytes); the shard that holds document
    ``i`` is the last one starting at or before ``i``.  A shard of a
    source ``CorpusLines`` reads by its bytes has its size index's
    languages in ``shard_langs``, and its documents' sizes come from that
    index; a shard of any other source is walked and parsed, and has None
    there (its characters and codes are 0, and unread).
    """

    def __init__(self) -> None:
        self.offsets = array("q")
        self.lengths = array("I")
        self.weights = array("d")
        self.chars = array("I")
        self.codes = array("B")
        self.shard_paths: list[Path] = []
        self.shard_sources: list[str] = []
        self.shard_starts: list[int] = []
        self.shard_langs: list[tuple[str, ...] | None] = []

    def __len__(self) -> int:
        return len(self.offsets)

    def add_source(
        self,
        name: str,
        manifest: ShardManifest,
        base_dir: Path,
        weigh: Callable[[int, str], float],
        languages: Sequence[str] | None,
    ) -> float:
        """Index every document of a source; returns their total weight,
        ``weigh(chars, lang)`` summed in document order."""
        total = 0.0
        lines = CorpusLines(manifest, base_dir, languages)
        for path, index in zip(lines.paths, lines.indexes or itertools.repeat(None)):
            start = len(self.offsets)
            self.shard_paths.append(path)
            self.shard_sources.append(name)
            self.shard_starts.append(start)
            if index is None:
                for offset, length, doc in load_shard(path, languages).located():
                    weight = weigh(len(doc.text), doc.lang)
                    self.offsets.append(offset)
                    self.lengths.append(length)
                    self.weights.append(weight)
                    total += weight
                added = len(self.offsets) - start
                self.chars.extend(itertools.repeat(0, added))
                self.codes.extend(itertools.repeat(0, added))
            else:
                self.offsets.extend(itertools.accumulate(index.lengths, initial=0))
                self.offsets.pop()
                self.lengths.extend(index.lengths)
                self.chars.extend(index.chars)
                self.codes.frombytes(index.codes)
                self.weights.extend(map(weigh, index.chars, map(index.langs.__getitem__, index.codes)))
                total = functools.reduce(operator.add, self.weights[start:], total)
            self.shard_langs.append(None if index is None else index.langs)
        return total

    def drawn(self, refs: Iterable[int], passes: int) -> Iterator[Document | SizedLine]:
        """Read each ``index * passes + pass`` reference back as its drawn
        document: a line of an indexed shard with its id spliced in, or
        else the document parsed from its line and renamed."""
        handles: dict[int, BinaryIO] = {}
        try:
            for ref in refs:
                index, pass_index = divmod(ref, passes)
                shard = bisect.bisect_right(self.shard_starts, index) - 1
                handle = handles.get(shard)
                if handle is None:
                    if len(handles) == MAX_OPEN_SHARDS:
                        handles.pop(next(iter(handles))).close()
                    handle = handles[shard] = self.shard_paths[shard].open("rb", buffering=0)
                langs = self.shard_langs[shard]
                if langs is None:
                    doc = read_document_at(handle, self.offsets[index], self.lengths[index])
                    yield _drawn_doc(doc, self.shard_sources[shard], pass_index)
                    continue
                line = read_line_at(handle, self.offsets[index], self.lengths[index])
                prefix, suffix = _affixes(self.shard_sources[shard], pass_index)
                yield splice_id(line, prefix, suffix, langs[self.codes[index]], self.chars[index])
        finally:
            for handle in handles.values():
                handle.close()


def execute_mix(
    spec: MixSpec,
    out_dir: Path | str,
    *,
    fingerprint: str = "",
    estimator: TokenEstimator | None = None,
    shard_size: int = 50_000,
    languages: Sequence[str] | None = None,
) -> tuple[ShardManifest, MixReport]:
    """Draw documents per plan, shuffle globally, write mixed shards.

    The draw and the shuffle work on references, not documents: one walk
    of each source records where its documents sit and what they weigh,
    and the plan sizes each source by the sum of those weights.  A source
    ``CorpusLines`` reads by its bytes is walked through its size
    indexes alone, and its drawn documents are copied from their lines
    with the new id spliced in; any other source is parsed.  Each
    drawn document is one integer, ``index * passes + pass``, in a flat
    array (8 bytes).  ``random.shuffle`` permutes by length and seed
    alone, so shuffling references draws exactly what shuffling the
    documents did.  The mixed shards are then written from the shuffled
    references, each document read back by its offset, so memory holds
    the references and one document at a time.
    """
    out_dir = Path(out_dir)
    for source in spec.sources:
        if Path(source.manifest_path).parent.resolve() == out_dir.resolve():
            raise MixError(f"source {source.name!r} is in the output directory {out_dir}")
    est = estimator or TokenEstimator()

    def doc_weight(chars: int, lang: str) -> float:
        if spec.unit == UNIT_DOCUMENTS:
            return 1.0
        return est.estimate_chars(chars, lang)

    # Sources are sized by the walk, with the run's estimator, not by
    # their manifests, which another estimator may have written.
    catalog = _SourceIndex()
    starts = []
    sizes = {}
    for source in spec.sources:
        starts.append(len(catalog))
        manifest = ShardManifest.load(source.manifest_path)
        base_dir = Path(source.manifest_path).parent
        sizes[source.name] = catalog.add_source(
            source.name, manifest, base_dir, doc_weight, languages
        )
    plan = plan_mix(spec, sizes)
    # Pass indices run up to full_passes (the remainder's pass).
    passes = 1 + max(d.full_passes for d in plan.draws)

    report = MixReport(spec.unit, spec.seed)
    pool = array("q")
    for draw, first, end in zip(plan.draws, starts, [*starts[1:], len(catalog)]):
        taken_from = len(pool)
        for pass_index in range(draw.full_passes):
            pool.extend(i * passes + pass_index for i in range(first, end))
        if draw.remainder > 0:
            shuffled = array("q", range(first, end))
            random.Random(f"{spec.seed}|{draw.name}").shuffle(shuffled)
            realized = 0.0
            for i in shuffled:
                if realized >= draw.remainder:
                    break
                pool.append(i * passes + draw.full_passes)
                realized += catalog.weights[i]
            del shuffled

        report.per_source[draw.name] = {
            "docs": len(pool) - taken_from,
            "tokens": sum(catalog.weights[pool[j] // passes] for j in range(taken_from, len(pool))),
            "quota": draw.quota,
            "full_passes": draw.full_passes,
        }

    random.Random(f"{spec.seed}|shuffle").shuffle(pool)
    manifest = write_corpus(
        catalog.drawn(pool, passes),
        out_dir,
        stage="mixed",
        fingerprint=fingerprint,
        estimator=est,
        shard_size=shard_size,
    )
    return manifest, report
