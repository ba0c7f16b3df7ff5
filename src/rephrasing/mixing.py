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
import random
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence

from .corpus import (
    Document,
    ShardManifest,
    load_shard,
    read_document_at,
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


def _source_size(manifest: ShardManifest, unit: str) -> float:
    if unit == UNIT_DOCUMENTS:
        return float(manifest.total_docs)
    return manifest.total_est_tokens


def plan_mix(spec: MixSpec, manifests: Mapping[str, ShardManifest] | None = None) -> MixPlan:
    """Compute per-source quotas and repeat counts from manifest sizes."""
    manifests = manifests or {
        s.name: ShardManifest.load(s.manifest_path) for s in spec.sources
    }
    sizes = {name: _source_size(m, spec.unit) for name, m in manifests.items()}
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


def _drawn_doc(doc: Document, source_name: str, pass_index: int) -> Document:
    # Sources may share ids (a rephrased corpus keeps its originals'),
    # and repeat passes duplicate them outright, so drawn ids are
    # namespaced as "<source>/<id>" with a "~<pass>" suffix for repeats.
    doc_id = f"{source_name}/{doc.id}"
    if pass_index > 0:
        doc_id = f"{doc_id}~{pass_index}"
    return Document(
        id=doc_id,
        text=doc.text,
        lang=doc.lang,
        meta=doc.meta,
        provenance=doc.provenance,
    )


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
    line and its weight (20 bytes); the shard that holds document ``i``
    is the last one starting at or before ``i``.
    """

    def __init__(self) -> None:
        self.offsets = array("q")
        self.lengths = array("I")
        self.weights = array("d")
        self.shard_paths: list[Path] = []
        self.shard_sources: list[str] = []
        self.shard_starts: list[int] = []

    def __len__(self) -> int:
        return len(self.offsets)

    def add_source(
        self,
        name: str,
        manifest: ShardManifest,
        base_dir: Path,
        weigh: Callable[[Document], float],
        languages: Sequence[str] | None,
    ) -> None:
        for path in manifest.shard_paths(base_dir):
            self.shard_paths.append(path)
            self.shard_sources.append(name)
            self.shard_starts.append(len(self.offsets))
            for offset, length, doc in load_shard(path, languages).located():
                self.offsets.append(offset)
                self.lengths.append(length)
                self.weights.append(weigh(doc))

    def drawn(self, refs: Iterable[int], passes: int) -> Iterator[Document]:
        """Read each ``index * passes + pass`` reference back as its drawn document."""
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
                doc = read_document_at(handle, self.offsets[index], self.lengths[index])
                yield _drawn_doc(doc, self.shard_sources[shard], pass_index)
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
    and each drawn document is one integer, ``index * passes + pass``, in
    a flat array (8 bytes).  ``random.shuffle`` permutes by length and seed
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
    manifests = {s.name: ShardManifest.load(s.manifest_path) for s in spec.sources}
    plan = plan_mix(spec, manifests)
    draws = {d.name: d for d in plan.draws}
    # Pass indices run up to full_passes (the remainder's pass).
    passes = 1 + max(d.full_passes for d in plan.draws)

    def doc_weight(doc: Document) -> float:
        if spec.unit == UNIT_DOCUMENTS:
            return 1.0
        return est.estimate_text(doc.text, doc.lang)

    report = MixReport(spec.unit, spec.seed)
    catalog = _SourceIndex()
    pool = array("q")
    for source in spec.sources:
        first = len(catalog)
        base_dir = Path(source.manifest_path).parent
        catalog.add_source(source.name, manifests[source.name], base_dir, doc_weight, languages)
        draw = draws[source.name]

        taken_from = len(pool)
        for pass_index in range(draw.full_passes):
            pool.extend(i * passes + pass_index for i in range(first, len(catalog)))
        if draw.remainder > 0:
            shuffled = array("q", range(first, len(catalog)))
            random.Random(f"{spec.seed}|{source.name}").shuffle(shuffled)
            realized = 0.0
            for i in shuffled:
                if realized >= draw.remainder:
                    break
                pool.append(i * passes + draw.full_passes)
                realized += catalog.weights[i]
            del shuffled

        report.per_source[source.name] = {
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
