"""Compose training corpora from several datasets by weight.

Each source gets a quota proportional to its weight.  Sources larger
than their quota contribute a seeded random subset; smaller ones are
used multiple times (full passes plus a seeded remainder subset).  The
drawn pool is shuffled globally with the same seed, so a (spec, seed)
pair fully determines the output shards.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import (
    Document,
    ShardManifest,
    iter_corpus,
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

    def to_obj(self) -> dict:
        return {
            "unit": self.unit,
            "seed": self.seed,
            "target": self.target,
            "draws": [
                {
                    "name": d.name,
                    "size": d.size,
                    "quota": d.quota,
                    "full_passes": d.full_passes,
                    "remainder": d.remainder,
                }
                for d in self.draws
            ],
        }


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


def execute_mix(
    spec: MixSpec,
    out_dir: Path | str,
    *,
    fingerprint: str = "",
    estimator: TokenEstimator | None = None,
    shard_size: int = 50_000,
    languages: Sequence[str] | None = None,
) -> tuple[ShardManifest, MixReport]:
    """Draw documents per plan, shuffle globally, write mixed shards."""
    est = estimator or TokenEstimator()
    manifests = {s.name: ShardManifest.load(s.manifest_path) for s in spec.sources}
    plan = plan_mix(spec, manifests)
    draws = {d.name: d for d in plan.draws}

    def doc_weight(doc: Document) -> float:
        if spec.unit == UNIT_DOCUMENTS:
            return 1.0
        return est.estimate_text(doc.text, doc.lang)

    report = MixReport(spec.unit, spec.seed)
    pool: list[Document] = []
    for source in spec.sources:
        manifest = manifests[source.name]
        base_dir = Path(source.manifest_path).parent
        docs = list(iter_corpus(manifest, base_dir, languages))
        draw = draws[source.name]

        taken: list[Document] = []
        for pass_index in range(draw.full_passes):
            taken.extend(_drawn_doc(doc, source.name, pass_index) for doc in docs)
        if draw.remainder > 0:
            shuffled = docs[:]
            random.Random(f"{spec.seed}|{source.name}").shuffle(shuffled)
            realized = 0.0
            for doc in shuffled:
                if realized >= draw.remainder:
                    break
                taken.append(_drawn_doc(doc, source.name, draw.full_passes))
                realized += doc_weight(doc)

        report.per_source[source.name] = {
            "docs": len(taken),
            "tokens": sum(doc_weight(d) for d in taken),
            "quota": draw.quota,
            "full_passes": draw.full_passes,
        }
        pool.extend(taken)

    random.Random(f"{spec.seed}|shuffle").shuffle(pool)
    manifest = write_corpus(
        pool,
        out_dir,
        stage="mixed",
        fingerprint=fingerprint,
        estimator=est,
        shard_size=shard_size,
    )
    return manifest, report
