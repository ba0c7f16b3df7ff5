from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from rephrasing.corpus import Document, ShardManifest, iter_corpus, write_corpus
from rephrasing.mixing import (
    MixError,
    MixSource,
    MixSpec,
    execute_mix,
    plan_mix,
)
from rephrasing.tokens import TokenEstimator

from conftest import make_docs

EST = TokenEstimator(tokens_per_char=0.25, calibrated=True)


def make_source(tmp_path: Path, name: str, n_docs: int, chars_per_doc: int = 400) -> MixSource:
    # chars_per_doc=400 -> exactly 100 est tokens per doc at ratio 0.25.
    docs = [
        Document(f"{name}-{i:05d}", "x" * chars_per_doc, "en", {"src": name})
        for i in range(n_docs)
    ]
    out = tmp_path / name
    write_corpus(docs, out, stage="input", fingerprint="fp", estimator=EST)
    return MixSource(name, out / "manifest.json", 1.0)


def source_doc_id(doc_id: str) -> str:
    """Recover the source document id from a drawn "<source>/<id>[~pass]"."""
    return doc_id.split("/", 1)[1].split("~")[0]


class TestPlanMix:
    def test_equal_sources_default_target_full_use(self, tmp_path):
        # Two 100k-token sources at 1:1 -> take all of both.
        spec = MixSpec(
            sources=(make_source(tmp_path, "a", 1000), make_source(tmp_path, "b", 1000)),
        )
        plan = plan_mix(spec)
        assert plan.target == 200_000.0
        for draw in plan.draws:
            assert draw.quota == 100_000.0
            assert draw.full_passes == 0
            assert draw.remainder == 100_000.0

    def test_uneven_sources_with_target(self, tmp_path):
        # 100k and 40k at 1:1 with target 80k -> 40k sampled from the
        # first, all 40k of the second (a subset that covers the source).
        spec = MixSpec(
            sources=(make_source(tmp_path, "big", 1000), make_source(tmp_path, "small", 400)),
            target=80_000.0,
        )
        plan = plan_mix(spec)
        draws = {d.name: d for d in plan.draws}
        assert draws["big"].quota == 40_000.0
        assert draws["big"].full_passes == 0
        assert draws["small"].quota == 40_000.0
        assert draws["small"].full_passes == 0
        assert draws["small"].remainder == 40_000.0
        _, report = execute_mix(spec, tmp_path / "mixed", estimator=EST)
        assert report.per_source["small"]["docs"] == 400
        assert report.per_source["big"]["docs"] == 400

    def test_repeat_rule(self, tmp_path):
        # 100k and 30k at 1:1 with target 120k -> 60k sampled from the
        # first; the second used exactly twice (60k = 30k x 2).
        spec = MixSpec(
            sources=(make_source(tmp_path, "big", 1000), make_source(tmp_path, "small", 300)),
            target=120_000.0,
        )
        plan = plan_mix(spec)
        draws = {d.name: d for d in plan.draws}
        assert draws["big"].quota == 60_000.0
        assert draws["small"].full_passes == 2
        assert draws["small"].remainder == 0.0

    def test_document_unit(self, tmp_path):
        spec = MixSpec(
            sources=(make_source(tmp_path, "a", 100), make_source(tmp_path, "b", 50)),
            unit="documents",
        )
        plan = plan_mix(spec)
        assert plan.target == 100.0  # smallest weighted source fully used once
        assert {d.quota for d in plan.draws} == {50.0}

    def test_empty_source_rejected(self, tmp_path):
        out = tmp_path / "void"
        write_corpus([], out, stage="input", fingerprint="fp")
        spec = MixSpec(sources=(MixSource("void", out / "manifest.json", 1.0),))
        with pytest.raises(MixError, match="empty"):
            plan_mix(spec)

    def test_spec_validation(self, tmp_path):
        with pytest.raises(MixError):
            MixSpec(sources=())
        with pytest.raises(MixError):
            MixSource("a", tmp_path, weight=0.0)
        with pytest.raises(MixError):
            MixSpec(
                sources=(MixSource("a", tmp_path, 1.0), MixSource("a", tmp_path, 1.0))
            )


class TestExecuteMix:
    def test_source_in_output_directory_refused(self, tmp_path):
        spec = MixSpec(sources=(make_source(tmp_path, "a", 10), make_source(tmp_path, "b", 10)))
        before = (tmp_path / "b" / "shard-00000.jsonl").read_bytes()
        with pytest.raises(MixError, match="'b' is in the output directory"):
            execute_mix(spec, tmp_path / "b", estimator=EST)
        assert (tmp_path / "b" / "shard-00000.jsonl").read_bytes() == before

    def test_one_to_one_ratio_within_one_percent(self, tmp_path):
        # Subset sampling on both sides: target below both sizes.
        spec = MixSpec(
            sources=(make_source(tmp_path, "a", 500), make_source(tmp_path, "b", 500)),
            target=60_000.0,
            seed=5,
        )
        _, report = execute_mix(spec, tmp_path / "mixed", estimator=EST)
        assert abs(report.realized_ratio("a", "b") - 1.0) <= 0.01

    def test_determinism_byte_identical(self, tmp_path):
        sources = (make_source(tmp_path, "a", 200), make_source(tmp_path, "b", 60))
        spec = MixSpec(sources=sources, target=30_000.0, seed=11)
        execute_mix(spec, tmp_path / "m1", estimator=EST)
        execute_mix(spec, tmp_path / "m2", estimator=EST)
        first = sorted((tmp_path / "m1").glob("*.jsonl"))
        second = sorted((tmp_path / "m2").glob("*.jsonl"))
        assert [p.name for p in first] == [p.name for p in second]
        for p1, p2 in zip(first, second):
            assert p1.read_bytes() == p2.read_bytes()

    def test_repeat_counts_floor_or_ceil(self, tmp_path):
        # Source size 30% of quota: quota/size = 10/3, so every document
        # appears floor(10/3)=3 or ceil(10/3)=4 times.
        small = make_source(tmp_path, "small", 30)  # 3k tokens
        spec = MixSpec(sources=(small,), target=10_000.0, seed=3)
        manifest, _ = execute_mix(spec, tmp_path / "mixed", estimator=EST)
        counts = Counter(
            source_doc_id(doc.id)
            for doc in iter_corpus(manifest, tmp_path / "mixed", languages=None)
        )
        assert len(counts) == 30
        assert set(counts.values()) <= {3, 4}

    def test_single_source_is_seeded_shuffle(self, tmp_path):
        source = make_source(tmp_path, "only", 100)
        spec = MixSpec(sources=(source,), seed=9)
        manifest, report = execute_mix(spec, tmp_path / "mixed", estimator=EST)
        ids = [d.id for d in iter_corpus(manifest, tmp_path / "mixed", languages=None)]
        assert sorted(ids) == [f"only/only-{i:05d}" for i in range(100)]
        assert ids != sorted(ids)  # shuffled
        assert report.per_source["only"]["docs"] == 100

    def test_quota_fidelity_within_one_doc(self, tmp_path):
        source = make_source(tmp_path, "s", 1000)
        spec = MixSpec(sources=(source,), target=33_333.0, seed=1)
        _, report = execute_mix(spec, tmp_path / "mixed", estimator=EST)
        realized = report.per_source["s"]["tokens"]
        assert 33_333.0 <= realized <= 33_333.0 + 100.0  # one max-doc overshoot

    @pytest.mark.parametrize("written_at", [0.5, 0.25])
    def test_sources_sized_by_the_run_estimator(self, tmp_path, written_at):
        # The manifests' est_tokens come from the writer's ratio; the mix
        # weighs documents with its own, and must size sources the same
        # way, or the default target no longer uses the smallest source
        # exactly once.
        docs = make_docs(200, seed=3)
        sources = []
        for name, part in (("a", docs[:120]), ("b", docs[120:])):
            write_corpus(
                part, tmp_path / name, stage="input", fingerprint="fp",
                estimator=TokenEstimator(written_at),
            )
            sources.append(MixSource(name, tmp_path / name / "manifest.json", 1.0))
        _, report = execute_mix(
            MixSpec(sources=tuple(sources)), tmp_path / "mixed", estimator=TokenEstimator(0.5)
        )
        assert {name: row["docs"] for name, row in report.per_source.items()} == {"a": 84, "b": 80}
        assert report.per_source["b"]["full_passes"] == 0

    def test_source_with_zero_recorded_tokens_is_walked(self, tmp_path):
        source = make_source(tmp_path, "a", 10)
        obj = json.loads(source.manifest_path.read_text(encoding="utf-8"))
        obj["total_est_tokens"] = 0.0
        for shard in obj["shards"]:
            shard["est_tokens"] = 0.0
        source.manifest_path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(MixError, match="empty"):
            plan_mix(MixSpec(sources=(source,)))
        _, report = execute_mix(MixSpec(sources=(source,)), tmp_path / "mixed", estimator=EST)
        assert report.per_source["a"]["docs"] == 10

    def test_report_table_and_manifest(self, tmp_path):
        sources = (make_source(tmp_path, "a", 50), make_source(tmp_path, "b", 50))
        spec = MixSpec(sources=sources, seed=2)
        manifest, report = execute_mix(spec, tmp_path / "mixed", estimator=EST)
        assert manifest.total_docs == 100
        table = report.table()
        assert "a" in table and "b" in table
        loaded = ShardManifest.load(tmp_path / "mixed" / "manifest.json")
        assert loaded.total_docs == 100
