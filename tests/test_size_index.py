"""The size index beside each shard, and the two paths of ``CorpusLines``.

Filter and mix route the documents of a corpus that ``write_corpus``
wrote by their bytes (the index path) and parse any other corpus (the
parse path).  Every test here runs a case both ways, once as written
and once with the manifest's ``index_sha256`` removed, which forces the
parse path, and compares what comes out: the same bytes, or the same
exception type and message.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from rephrasing.config import load_config
from rephrasing.corpus import (
    CorpusError,
    CorpusLines,
    Document,
    Provenance,
    ShardManifest,
    SizeIndex,
    sized_line,
    splice_id,
    write_corpus,
)
from rephrasing.mixing import UNIT_DOCUMENTS, UNIT_TOKENS, MixSource, MixSpec, execute_mix
from rephrasing.pipeline import stage_filter
from rephrasing.tokens import TokenEstimator

from conftest import LANGS, doc_json, make_docs, write_fixture_config


def edge_docs() -> list[Document]:
    """Documents whose lines stress the id splice and the JSON round trip."""
    meta = {"nested": {"f": 1.5, "nan": float("nan"), "list": [1, 2.25, None, {"z": -0.0}]}, "ü": "ß"}
    return [
        Document('q"uote', "Grüße aus Köln — ☃ 𝄞", "de", meta),
        Document("back\\slash/and/slash", 'texto con ñ y "comillas"\nlínea', "es"),
        Document("ünïcödé ☃ id", "plain text", "en", provenance=Provenance.rephrased("qa_opt_en", None)),
        Document("ctl\u0001\ttab", 'testo, "text": finto', "it", {"big": 1e300, "small": 5e-324}),
        Document('x", "text": ', "an id that looks like the text field", "en"),
        *make_docs(9, seed=4),
    ]


def without_index(manifest_path: Path) -> None:
    """Save a manifest as one written before the size index: no ``index_sha256``."""
    obj = json.loads(manifest_path.read_text(encoding="utf-8"))
    obj.pop("index_sha256", None)
    manifest_path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def files(directory: Path) -> dict[str, bytes]:
    """Every file of an output directory, a report without its timing."""
    out = {}
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            obj = json.loads(data)
            obj.pop("seconds", None)
            data = json.dumps(obj).encode()
        out[path.name] = data
    return out


def outcome(call) -> object:
    """What a call leaves in its output directory, or the type and message it raises."""
    try:
        return files(call())
    except Exception as exc:
        return type(exc), str(exc)


class TestIndexFile:
    def test_index_beside_every_shard(self, tmp_path):
        docs = make_docs(25)
        manifest = write_corpus(docs, tmp_path, stage="input", fingerprint="fp", shard_size=10)
        digest = hashlib.sha256()
        for i, path in enumerate(manifest.shard_paths(tmp_path)):
            data = path.with_suffix(".idx").read_bytes()
            digest.update(data)
            index = SizeIndex.from_bytes(data)
            shard_docs = docs[10 * i : 10 * i + 10]
            assert list(index.lengths) == [len(line) for line in path.read_bytes().splitlines(True)]
            assert list(index.chars) == [len(d.text) for d in shard_docs]
            assert [index.langs[c] for c in index.codes] == [d.lang for d in shard_docs]
            assert SizeIndex.from_bytes(index.to_bytes()) == index
        assert manifest.index_sha256 == digest.hexdigest()
        obj = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert obj["index_sha256"] == manifest.index_sha256
        assert ShardManifest.load(tmp_path / "manifest.json") == manifest

    @pytest.mark.parametrize("case", ["257_languages", "long_language", "chars_past_u32"])
    def test_shard_that_does_not_fit_gets_no_index(self, tmp_path, case):
        if case == "257_languages":
            docs = [Document(f"d{i}", "text", f"l{i}") for i in range(257)]
        elif case == "long_language":
            docs = [Document("d", "text", "x" * 256)]
        else:  # a line that claims more characters than an entry holds
            docs = [sized_line(Document("d", "text", "en"))._replace(chars=2**32)]
        stale = tmp_path / "shard-00000.idx"
        stale.write_bytes(b"left by an earlier write")
        manifest = write_corpus(docs, tmp_path, stage="input", fingerprint="fp")
        assert not stale.exists()
        assert manifest.index_sha256 is None
        assert "index_sha256" not in json.loads((tmp_path / "manifest.json").read_text())
        assert CorpusLines(manifest, tmp_path, None).indexes is None

    def test_aborted_shard_leaves_no_index(self, tmp_path):
        docs = make_docs(3)
        write_corpus(docs, tmp_path, stage="input", fingerprint="fp")
        with pytest.raises(CorpusError, match="duplicate document id"):
            write_corpus(docs + docs[:1], tmp_path / "again", stage="input", fingerprint="fp")
        assert list((tmp_path / "again").iterdir()) == []

    def test_mistyped_index_digest_refused(self, tmp_path):
        write_corpus(make_docs(3), tmp_path, stage="input", fingerprint="fp")
        path = tmp_path / "manifest.json"
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj["index_sha256"] = 5
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(CorpusError, match="manifest .* not readable: .*'index_sha256'"):
            ShardManifest.load(path)

    @pytest.mark.parametrize(
        "data", [b"", b"RPHIDX1\n", b"RPHIDX0\n" + bytes(5), b"RPHIDX1\n\x01\x00\x00\x00\x00" + bytes(9)]
    )
    def test_what_is_not_an_index_reads_as_none(self, data):
        assert SizeIndex.from_bytes(data) is None


class TestReaderPaths:
    def test_paths_agree_on_edge_documents(self, tmp_path):
        docs = edge_docs()
        manifest = write_corpus(docs, tmp_path, stage="input", fingerprint="fp", shard_size=4)
        indexed = CorpusLines(manifest, tmp_path, LANGS)
        parsed = CorpusLines(dataclasses.replace(manifest, index_sha256=None), tmp_path, LANGS)
        assert indexed.indexes is not None and parsed.indexes is None
        lines = list(indexed)
        assert lines == list(parsed) == [sized_line(d) for d in docs]
        assert b"".join(line.line for line in lines) == b"".join(
            p.read_bytes() for p in manifest.shard_paths(tmp_path)
        )
        assert indexed.sha256() == parsed.sha256() == manifest.record.sha256

    @pytest.mark.parametrize("prefix, suffix", [("a/", ""), ('s"rc\\/', "~3"), ("ü ☃/", "~12")])
    def test_splice_gives_the_renamed_documents_line(self, prefix, suffix):
        for doc in edge_docs():
            spliced = splice_id(sized_line(doc).line, prefix, suffix, doc.lang, len(doc.text))
            renamed = dataclasses.replace(doc, id=prefix + doc.id + suffix)
            assert spliced == sized_line(renamed)
            assert spliced.line == (doc_json(renamed) + "\n").encode("utf-8")


def filter_config(tmp_path: Path, docs: list[Document]):
    scores = tmp_path / "scores.jsonl"
    scores.write_text(
        "".join(json.dumps({"doc_id": d.id, "score": i % 3}) + "\n" for i, d in enumerate(docs)),
        encoding="utf-8",
    )
    extra = {"filter": {"scorer": "external", "threshold": 0.5, "external_scores": "scores.jsonl"}}
    cfg = load_config(write_fixture_config(tmp_path, docs, extra={**extra, "shard_size": 4}))
    cfg.work_dir.mkdir(parents=True, exist_ok=True)
    TokenEstimator(0.25).save(cfg.work_dir / "calibration.json")
    return cfg


def run_filter(cfg) -> Path:
    stage_filter(cfg, manifest_path=cfg.input_manifest)
    return cfg.work_dir / "filtered"


def run_mix(tmp_path: Path, sources: list[tuple[str, Path, float]], unit: str, target=None) -> Path:
    out = tmp_path / "mixed"
    spec = MixSpec(
        tuple(MixSource(name, path, weight) for name, path, weight in sources), unit, target, seed=7
    )
    execute_mix(spec, out, estimator=TokenEstimator(0.25), shard_size=5)
    return out


class TestFilterAndMix:
    def test_filter_copies_kept_lines_of_edge_documents(self, tmp_path):
        cfg = filter_config(tmp_path, edge_docs())
        assert CorpusLines(ShardManifest.load(cfg.input_manifest), cfg.input_manifest.parent, LANGS).indexes
        indexed = outcome(lambda: run_filter(cfg))
        without_index(cfg.input_manifest)
        assert outcome(lambda: run_filter(cfg)) == indexed
        assert json.loads(indexed["report.json"])["kept"] == 9

    @pytest.mark.parametrize("unit", [UNIT_TOKENS, UNIT_DOCUMENTS])
    def test_mix_splices_ids_of_edge_documents(self, tmp_path, unit):
        write_corpus(edge_docs(), tmp_path / "a", stage="input", fingerprint="fp", shard_size=4)
        b = write_corpus(make_docs(30, seed=8), tmp_path / "b", stage="input", fingerprint="fp", shard_size=7)
        sources = [("a", tmp_path / "a" / "manifest.json", 3.0), ("b", tmp_path / "b" / "manifest.json", 1.0)]
        # All of b once, and three times its size from a, which is smaller: a repeats.
        target = 4 * (b.total_docs if unit == UNIT_DOCUMENTS else b.total_est_tokens)
        indexed = outcome(lambda: run_mix(tmp_path, sources, unit, target))
        assert isinstance(indexed, dict)
        mixed = b"".join(data for name, data in indexed.items() if name.endswith(".jsonl"))
        assert b'"id": "a/q\\"uote~2"' in mixed and b'"id": "b/doc-000000"' in mixed
        for _, path, _ in sources:
            without_index(path)
        assert outcome(lambda: run_mix(tmp_path, sources, unit, target)) == indexed


DAMAGE = [
    "flipped_letter",
    "flipped_brace",
    "flipped_index_byte",
    "index_missing",
    "manifest_without_record",
    "unusable_document",
    "language_outside",
]


def damaged_corpus(directory: Path, damage: str) -> Path:
    """A corpus ``write_corpus`` wrote, then damaged; returns its manifest."""
    docs = make_docs(12, seed=6)
    if damage == "unusable_document":
        docs[5] = dataclasses.replace(docs[5], text=" \n　")
    elif damage == "language_outside":
        docs[5] = dataclasses.replace(docs[5], lang="fr")
    write_corpus(docs, directory, stage="input", fingerprint="input", shard_size=4)
    shard = directory / "shard-00001.jsonl"
    if damage == "flipped_letter":
        data = bytearray(shard.read_bytes())
        data[data.index(b'"text": "') + 9] ^= 1
        shard.write_bytes(bytes(data))
    elif damage == "flipped_brace":
        shard.write_bytes(b"[" + shard.read_bytes()[1:])
    elif damage == "flipped_index_byte":
        index = shard.with_suffix(".idx")
        data = bytearray(index.read_bytes())
        data[-2] ^= 1
        index.write_bytes(bytes(data))
    elif damage == "index_missing":
        shard.with_suffix(".idx").unlink()
    elif damage == "manifest_without_record":
        manifest = directory / "manifest.json"
        obj = json.loads(manifest.read_text(encoding="utf-8"))
        for key in ("sha256", "lang_chars", "unusable_docs", "index_sha256"):
            del obj[key]
        manifest.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    return directory / "manifest.json"


class TestParsePath:
    """What the record and the index cannot vouch for is parsed, with the
    parse path's output and errors."""

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_filter(self, tmp_path, damage):
        cfg = filter_config(tmp_path, make_docs(12, seed=6))
        manifest_path = damaged_corpus(cfg.input_manifest.parent, damage)
        manifest = ShardManifest.load(manifest_path)
        assert CorpusLines(manifest, manifest_path.parent, cfg.languages).indexes is None
        result = outcome(lambda: run_filter(cfg))
        without_index(manifest_path)
        assert outcome(lambda: run_filter(cfg)) == result

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_mix(self, tmp_path, damage):
        manifest_path = damaged_corpus(tmp_path / "a", damage)
        write_corpus(make_docs(10, seed=9), tmp_path / "b", stage="input", fingerprint="fp")
        if damage != "language_outside":  # mix reads every language
            assert CorpusLines(ShardManifest.load(manifest_path), tmp_path / "a", None).indexes is None
        sources = [("a", manifest_path, 1.0), ("b", tmp_path / "b" / "manifest.json", 1.0)]
        result = outcome(lambda: run_mix(tmp_path, sources, UNIT_TOKENS))
        without_index(manifest_path)
        assert outcome(lambda: run_mix(tmp_path, sources, UNIT_TOKENS)) == result

    @pytest.mark.parametrize("indexed", [("a", "a/b"), ("a",), ()], ids=["both", "one", "none"])
    def test_duplicate_id_in_a_mixed_shard(self, tmp_path, indexed):
        # "a" + "/" + "b/x" and "a/b" + "/" + "x" name the same drawn document.
        sources = []
        for name, doc_id in (("a", "b/x"), ("a/b", "x")):
            directory = tmp_path / name.replace("/", "_")
            write_corpus([Document(doc_id, "some text", "en")], directory, stage="input", fingerprint="fp")
            if name not in indexed:
                without_index(directory / "manifest.json")
            sources.append((name, directory / "manifest.json", 1.0))
        result = outcome(lambda: run_mix(tmp_path, sources, UNIT_DOCUMENTS))
        assert result[0].__name__ == "CorpusError"
        assert "duplicate document id 'a/b/x'" in result[1]
