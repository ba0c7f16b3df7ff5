from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import rephrasing.corpus
from rephrasing.corpus import (
    CorpusError,
    CorpusStats,
    Document,
    Provenance,
    ShardManifest,
    corpus_stats,
    doc_to_json,
    iter_corpus,
    load_shard,
    read_document_at,
    stats_table,
    stats_to_obj,
    write_corpus,
    write_shard,
)
from rephrasing.tokens import TokenEstimator

from conftest import make_docs


def drain(records):
    """Every record a reader yields before it refuses its file's bad lines."""
    parsed = []
    with pytest.raises(CorpusError, match="bad line"):
        for record in records:
            parsed.append(record)
    return parsed


class TestShardRoundTrip:
    def test_three_valid_lines_in_order(self, tmp_path):
        docs = make_docs(3)
        write_shard(docs, tmp_path / "s.jsonl")
        reader = load_shard(tmp_path / "s.jsonl")
        assert [d.id for d in reader] == [d.id for d in docs]
        assert not reader.errors

    def test_empty_file_empty_stream(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        reader = load_shard(path)
        assert list(reader) == []
        assert reader.errors == []

    def test_malformed_line_recorded_with_lineno(self, tmp_path):
        docs = make_docs(2)
        path = tmp_path / "s.jsonl"
        lines = [doc_to_json(docs[0]), "{not json", doc_to_json(docs[1])]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        reader = load_shard(path)
        loaded = drain(reader)
        assert len(loaded) == 2
        assert len(reader.errors) == 1
        assert reader.errors[0].lineno == 2
        # Accounting: loaded docs + recorded errors = input line count.
        assert len(loaded) + len(reader.errors) == reader.n_lines

    def test_round_trip_identity_and_byte_stability(self, tmp_path):
        docs = make_docs(100)
        docs[3] = Document(
            id=docs[3].id,
            text=docs[3].text,
            lang=docs[3].lang,
            meta={"k": "v"},
            provenance=Provenance.rephrased("qa", "model-x"),
        )
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        write_shard(docs, first)
        reloaded = list(load_shard(first))
        assert reloaded == docs
        write_shard(reloaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_duplicate_id_rejected_naming_it(self, tmp_path):
        docs = make_docs(2)
        dupes = [docs[0], Document("doc-000000", "other text", "en")]
        with pytest.raises(CorpusError, match="doc-000000"):
            write_shard(dupes, tmp_path / "dup.jsonl")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_shard(tmp_path / "absent.jsonl")

    def test_unknown_language_recorded_as_error(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(
            json.dumps({"id": "a", "text": "hi", "lang": "fr"}) + "\n", encoding="utf-8"
        )
        reader = load_shard(path)
        assert drain(reader) == []
        assert len(reader.errors) == 1

    def test_manifest_entry_counts_10k(self, tmp_path):
        docs = [Document(f"d{i}", "text " * 10, "en") for i in range(10_000)]
        entry = write_shard(docs, tmp_path / "big.jsonl")
        assert entry.docs == 10_000


class TestManifest:
    def test_write_corpus_and_reload(self, tmp_path):
        docs = make_docs(25)
        manifest = write_corpus(
            docs, tmp_path, stage="input", fingerprint="fp", shard_size=10
        )
        assert len(manifest.shards) == 3
        assert manifest.total_docs == 25
        loaded = ShardManifest.load(tmp_path / "manifest.json")
        assert loaded.total_docs == 25
        assert loaded.fingerprint == "fp"
        assert [d.id for d in iter_corpus(loaded, tmp_path)] == [d.id for d in docs]

    def test_verify_catches_count_mismatch(self, tmp_path):
        docs = make_docs(5)
        manifest = write_corpus(docs, tmp_path, stage="input", fingerprint="fp")
        manifest.verify(tmp_path)
        shard_path = tmp_path / manifest.shards[0].path
        with shard_path.open("a", encoding="utf-8") as handle:
            handle.write(doc_to_json(Document("extra", "x", "en")) + "\n")
        with pytest.raises(CorpusError, match="manifest says"):
            manifest.verify(tmp_path)

    def test_empty_corpus_gets_one_empty_shard(self, tmp_path):
        manifest = write_corpus([], tmp_path, stage="input", fingerprint="fp")
        assert manifest.total_docs == 0
        assert len(manifest.shards) == 1


    def test_write_corpus_streams_into_open_shard(self, tmp_path):
        written = []

        def stream():
            for doc in make_docs(6):
                # Everything pulled before this document is already in a
                # shard file or in the open one, never held back.
                written.append(sum(1 for _ in tmp_path.glob("shard-*.jsonl")))
                yield doc

        manifest = write_corpus(stream(), tmp_path, stage="input", fingerprint="fp", shard_size=3)
        # Six documents at three a shard: two shards, no empty third one.
        assert [s.docs for s in manifest.shards] == [3, 3]
        assert written == [0, 1, 1, 1, 2, 2]

    def test_stream_error_leaves_no_manifest_and_no_open_shard(self, tmp_path):
        def stream():
            yield from make_docs(4)
            raise CorpusError("broken input")

        with pytest.raises(CorpusError, match="broken input"):
            write_corpus(stream(), tmp_path, stage="input", fingerprint="fp", shard_size=3)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["shard-00000.jsonl"]

    def test_duplicate_id_within_shard_aborts(self, tmp_path):
        docs = make_docs(2)
        with pytest.raises(CorpusError, match="duplicate document id"):
            write_corpus(docs + docs, tmp_path, stage="input", fingerprint="fp", shard_size=10)
        assert not (tmp_path / "manifest.json").exists()


class TestReadByOffset:
    def test_offsets_read_back_every_document(self, tmp_path):
        docs = make_docs(5)
        path = tmp_path / "s.jsonl"
        # One Windows line ending in the middle.
        lines = [doc_to_json(d) + "\n" for d in docs]
        lines[2] = lines[2][:-1] + "\r\n"
        path.write_bytes("".join(lines).encode("utf-8"))
        spans = list(load_shard(path).located())
        assert [doc for _, _, doc in spans] == list(load_shard(path)) == docs
        with path.open("rb", buffering=0) as handle:
            for offset, length, doc in reversed(spans):
                assert read_document_at(handle, offset, length) == doc

class TestLineDecoding:
    """A shard is UTF-8 JSON Lines split at "\\n" only, one line at a time."""

    def test_undecodable_byte_is_a_bad_line(self, tmp_path):
        docs = make_docs(8)
        lines = [(doc_to_json(d) + "\n").encode("utf-8") for d in docs]
        lines[5] = lines[5].replace(b'"text": "', b'"text": "\xff', 1)
        path = tmp_path / "s.jsonl"
        path.write_bytes(b"".join(lines))
        reader = load_shard(path)
        parsed = drain(reader)
        assert parsed == docs[:5] + docs[6:]
        assert [error.lineno for error in reader.errors] == [6]
        assert "utf-8" in reader.errors[0].message
        assert len(parsed) + len(reader.errors) == reader.n_lines == 8
        spans = drain(load_shard(path).located())
        assert [doc for _, _, doc in spans] == parsed

    def test_lone_carriage_return_does_not_end_a_line(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_bytes(("\r".join(doc_to_json(d) for d in make_docs(3)) + "\n").encode("utf-8"))
        reader = load_shard(path)
        assert drain(reader) == []
        assert reader.n_lines == len(reader.errors) == 1

    @pytest.mark.parametrize("field", ["meta", "provenance"])
    def test_field_of_wrong_shape_is_a_bad_line(self, tmp_path, field):
        obj = {"id": "a", "text": "hi", "lang": "en", field: ["not", "an", "object"]}
        path = tmp_path / "s.jsonl"
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        reader = load_shard(path)
        assert drain(reader) == []
        assert [error.lineno for error in reader.errors] == [1]

    @pytest.mark.parametrize(
        "field, value", [("text", None), ("text", 12), ("id", 7), ("lang", ["en"])]
    )
    def test_field_not_a_string_is_a_bad_line(self, tmp_path, field, value):
        lines = [doc_to_json(d) for d in make_docs(3)]
        obj = json.loads(lines[1])
        obj[field] = value
        lines[1] = json.dumps(obj)
        path = tmp_path / "s.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        reader = load_shard(path)
        assert [doc.id for doc in drain(reader)] == [json.loads(lines[i])["id"] for i in (0, 2)]
        assert [error.lineno for error in reader.errors] == [2]
        assert f"field {field!r} is" in reader.errors[0].message


def test_only_the_reader_checks_its_errors():
    """A reader raises its file's bad lines itself, so no other module
    reads ``errors`` off it."""
    reads_errors = re.compile(r"\b(?!self\b)\w+\.errors\b")
    sources = Path(rephrasing.corpus.__file__).parent.glob("*.py")
    for path in sources:
        if path.name != "corpus.py":
            assert not reads_errors.findall(path.read_text(encoding="utf-8")), path.name


class TestStats:
    def test_one_doc_400_chars_ratio_quarter(self, tmp_path, quarter_estimator):
        docs = [Document("a", "x" * 400, "en")]
        manifest = write_corpus(docs, tmp_path, stage="input", fingerprint="fp")
        stats = corpus_stats(manifest, tmp_path, quarter_estimator)
        assert stats.docs == 1
        assert stats.tokens == 100.0
        assert stats.method == "estimated"

    def test_empty_corpus_zero_zero(self, tmp_path):
        manifest = write_corpus([], tmp_path, stage="input", fingerprint="fp")
        stats = corpus_stats(manifest, tmp_path)
        assert (stats.docs, stats.tokens) == (0, 0.0)

    def test_exact_counter_changes_method(self, tmp_path, quarter_estimator):
        docs = [Document("a", "x" * 8, "en")]
        manifest = write_corpus(docs, tmp_path, stage="input", fingerprint="fp")
        stats = corpus_stats(manifest, tmp_path, quarter_estimator, exact_counter=lambda t: 3)
        assert stats.tokens == 3
        assert stats.method == "exact-external"

    def test_additivity_over_shards(self, tmp_path, quarter_estimator):
        docs = make_docs(40)
        manifest = write_corpus(
            docs, tmp_path, stage="input", fingerprint="fp", shard_size=7,
            estimator=quarter_estimator,
        )
        whole = corpus_stats(manifest, tmp_path, quarter_estimator)
        per_shard = [
            corpus_stats(ShardManifest("input", "fp", [entry]), tmp_path, quarter_estimator)
            for entry in manifest.shards
        ]
        assert whole.docs == sum(s.docs for s in per_shard)
        assert whole.tokens == sum(s.tokens for s in per_shard)

    def test_report_format_mirrors_published_table(self):
        # Format only; the published C4 row reads 365 mio. docs / 172 B tokens.
        rows = [("C4 (English)", CorpusStats(365_000_000, 172_000_000_000.0))]
        table = stats_table(rows)
        assert "Dataset" in table and "mio. docs" in table and "B tokens" in table
        assert "365.000" in table and "172.000" in table
        obj = stats_to_obj(rows)
        assert obj["datasets"][0]["million_docs"] == 365.0
        assert obj["datasets"][0]["billion_tokens"] == 172.0

    def test_zero_docs_nonzero_tokens_rejected(self):
        with pytest.raises(CorpusError):
            CorpusStats(0, 5.0)


class TestDocumentValidation:
    def test_empty_text_rejected(self):
        with pytest.raises(CorpusError):
            Document("a", "", "en").validate()

    def test_unknown_lang_rejected(self):
        with pytest.raises(CorpusError):
            Document("a", "x", "xx").validate()

    def test_provenance_round_trip(self):
        p = Provenance.rephrased("qa_opt_de", "mistral")
        assert Provenance.from_obj(p.to_obj()) == p
        assert Provenance.from_obj(None).kind == "original"


def test_stats_estimator_default(tmp_path):
    # Uncalibrated default ratio still yields usable numbers.
    docs = [Document("a", "x" * 40, "en")]
    manifest = write_corpus(docs, tmp_path, stage="input", fingerprint="fp")
    stats = corpus_stats(manifest, tmp_path, TokenEstimator())
    assert stats.tokens == 10.0
