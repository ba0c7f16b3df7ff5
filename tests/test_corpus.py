from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
import sys
import threading
from json.encoder import c_make_encoder
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
    encode_json,
    file_sha256,
    head_line,
    iter_corpus,
    json_line,
    load_shard,
    read_document_at,
    sized_line,
    splice_id,
    stats_table,
    stats_to_obj,
    write_corpus,
    write_shard,
)
from rephrasing.inference import CheckpointWriter, JobKey, LedgerLine, RephraseResult, record_line
from rephrasing.quality import ScoredDocument, ScoreLine
from rephrasing.splitting import Passage, passage_line
from rephrasing.tokens import TokenEstimator, quantize_ratio

from conftest import doc_json, make_docs


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
        lines = [doc_json(docs[0]), "{not json", doc_json(docs[1])]
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
            handle.write(doc_json(Document("extra", "x", "en")) + "\n")
        with pytest.raises(CorpusError, match="manifest says"):
            manifest.verify(tmp_path)

    @pytest.mark.parametrize(
        "field, value",
        [("docs", 2.9), ("path", 5), ("est_tokens", True), ("chars", "8")],
        ids=["docs_float", "path_int", "est_tokens_bool", "chars_str"],
    )
    def test_mistyped_shard_field_refused(self, tmp_path, field, value):
        write_corpus(make_docs(5), tmp_path, stage="input", fingerprint="fp")
        path = tmp_path / "manifest.json"
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj["shards"][0][field] = value
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(CorpusError, match=f"manifest {re.escape(str(path))} .*'{field}'"):
            ShardManifest.load(path)

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
        assert sorted(p.name for p in tmp_path.iterdir()) == ["shard-00000.idx", "shard-00000.jsonl"]

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
        lines = [doc_json(d) + "\n" for d in docs]
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
        lines = [(doc_json(d) + "\n").encode("utf-8") for d in docs]
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
        path.write_bytes(("\r".join(doc_json(d) for d in make_docs(3)) + "\n").encode("utf-8"))
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
        lines = [doc_json(d) for d in make_docs(3)]
        obj = json.loads(lines[1])
        obj[field] = value
        lines[1] = json.dumps(obj)
        path = tmp_path / "s.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        reader = load_shard(path)
        assert [doc.id for doc in drain(reader)] == [json.loads(lines[i])["id"] for i in (0, 2)]
        assert [error.lineno for error in reader.errors] == [2]
        assert f"field {field!r} is" in reader.errors[0].message


def test_no_reader_converts_a_parsed_value():
    """Record and config readers take each field as parsed, with its
    type checked, so no module converts a subscript or ``.get(`` of a
    parsed mapping, or of a call's result: ``int(obj["docs"])`` would
    read 2.9 as 2."""
    of_name = r"[\w.]+(\[|\.get\()"
    # A call's result read by a string key; a slice of it is no field.
    of_call = r"[\w.]+\(.*\)(\[[\"']|\.get\()"
    converts = re.compile(rf"\b(str|int|float|bool)\(({of_name}|{of_call})")
    samples = {
        'return int(with_retries(lambda: client.post({"text": text}), cfg.backend)["tokens"])': True,
        'docs = int(obj["docs"])': True,
        'ratio = float(self.obj.get("ratio"))': True,
        '"attempts": {str(k): attempts[k] for k in sorted(attempts)},': False,
        'n_tokens = int(max_tokens / self.ratio_for(lang))': False,
        'u = int(hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:8], 16) / 2**32': False,
    }
    assert {line: bool(converts.search(line)) for line in samples} == samples
    for path in Path(rephrasing.corpus.__file__).parent.glob("*.py"):
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [line for line in lines if converts.search(line)] == [], path.name


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


def without_record(manifest: ShardManifest) -> ShardManifest:
    return dataclasses.replace(manifest, record=None)


def outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        result = call()
    except Exception as exc:
        return type(exc), str(exc)
    return encode_json(result.to_obj()) if isinstance(result, CorpusStats) else result


@pytest.fixture
def parsed(monkeypatch):
    """The shards that ``verify`` and ``corpus_stats`` parse, in order."""
    paths = []
    load = rephrasing.corpus.load_shard

    def counting(path, *args, **kwargs):
        paths.append(Path(path).name)
        return load(path, *args, **kwargs)

    monkeypatch.setattr(rephrasing.corpus, "load_shard", counting)
    return paths


CALIBRATED = TokenEstimator(
    quantize_ratio(0.29), {"en": quantize_ratio(0.26), "de": quantize_ratio(0.31)}, calibrated=True
)


class TestCorpusRecord:
    def test_record_names_the_bytes_written(self, tmp_path):
        docs = make_docs(25)
        manifest = write_corpus(docs, tmp_path, stage="input", fingerprint="fp", shard_size=10)
        written = b"".join(p.read_bytes() for p in manifest.shard_paths(tmp_path))
        assert written == "".join(doc_json(d) + "\n" for d in docs).encode("utf-8")
        chars = {}
        for doc in docs:
            chars[doc.lang] = chars.get(doc.lang, 0) + len(doc.text)
        assert manifest.record == rephrasing.corpus.CorpusRecord(
            hashlib.sha256(written).hexdigest(), chars, 0
        )
        obj = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert obj["sha256"] == manifest.record.sha256
        assert obj["lang_chars"] == dict(sorted(chars.items()))
        assert obj["unusable_docs"] == 0
        assert ShardManifest.load(tmp_path / "manifest.json") == manifest

    @pytest.mark.parametrize("n_docs", [0, 25])
    @pytest.mark.parametrize(
        "estimator", [None, TokenEstimator(), CALIBRATED], ids=["none", "default", "calibrated"]
    )
    def test_record_gives_what_the_parse_gives_without_parsing(
        self, tmp_path, parsed, n_docs, estimator
    ):
        manifest = write_corpus(
            make_docs(n_docs), tmp_path, stage="input", fingerprint="fp", shard_size=10
        )

        def digest_and_stats(m: ShardManifest) -> tuple:
            return (
                outcome(lambda: m.verify(tmp_path)),
                outcome(lambda: corpus_stats(m, tmp_path, estimator)),
            )

        recorded = digest_and_stats(manifest)
        assert parsed == []
        assert recorded == digest_and_stats(without_record(manifest))
        assert recorded[0] == manifest.record.sha256

    @pytest.mark.parametrize(
        "stats_args",
        [
            {"estimator": TokenEstimator(0.3)},
            {"estimator": TokenEstimator(0.25, {"de": 0.3})},
            {"exact_counter": len},
        ],
        ids=["off_grid_default", "off_grid_language", "exact_counter"],
    )
    def test_stats_parse_what_the_record_cannot_give_exactly(self, tmp_path, parsed, stats_args):
        manifest = write_corpus(make_docs(25), tmp_path, stage="input", fingerprint="fp")
        stats = corpus_stats(manifest, tmp_path, **stats_args)
        assert parsed == ["shard-00000.jsonl"]
        assert encode_json(stats.to_obj()) == encode_json(
            corpus_stats(without_record(manifest), tmp_path, **stats_args).to_obj()
        )

    @pytest.mark.parametrize("chars, parses", [(2**35 - 4, False), (2**35, True)])
    def test_record_gives_stats_only_below_the_exact_sum_limit(
        self, tmp_path, parsed, chars, parses
    ):
        # A record edited to claim more characters than the shard holds,
        # with the entry to match, shows which path ran.
        manifest = write_corpus(
            [Document("a", "x" * 8, "en")], tmp_path, stage="input", fingerprint="fp"
        )
        manifest.shards[0] = dataclasses.replace(manifest.shards[0], chars=chars)
        manifest.record = dataclasses.replace(manifest.record, lang_chars={"en": chars})
        stats = corpus_stats(manifest, tmp_path, TokenEstimator(0.25))
        assert bool(parsed) is parses
        assert stats.tokens == (2.0 if parses else chars / 4)

    @pytest.mark.parametrize(
        "damage",
        [
            "flipped_letter",
            "flipped_brace",
            "shard_removed",
            "doc_counts_edited",
            "lang_chars_edited",
            "old_format",
            "shard_missing",
            "lang_outside",
            "whitespace_text",
            "empty_text",
            "empty_id",
            "id_not_a_string",
        ],
    )
    def test_what_the_record_cannot_vouch_for_is_parsed(self, tmp_path, parsed, damage):
        docs = make_docs(12)
        if damage == "lang_outside":
            docs[5] = dataclasses.replace(docs[5], lang="fr")
        elif damage == "whitespace_text":
            docs[5] = dataclasses.replace(docs[5], text=" \n\u3000")
        elif damage == "empty_text":
            docs[5] = dataclasses.replace(docs[5], text="")
        elif damage == "empty_id":
            docs[5] = dataclasses.replace(docs[5], id="")
        elif damage == "id_not_a_string":
            docs[5] = dataclasses.replace(docs[5], id=5)
        write_corpus(docs, tmp_path, stage="input", fingerprint="fp", shard_size=5)
        path = tmp_path / "manifest.json"
        obj = json.loads(path.read_text(encoding="utf-8"))
        shard = tmp_path / "shard-00001.jsonl"
        if damage == "flipped_letter":
            data = bytearray(shard.read_bytes())
            at = data.index(b'"text": "') + 9
            data[at] ^= 1
            shard.write_bytes(bytes(data))
        elif damage == "flipped_brace":
            shard.write_bytes(b"[" + shard.read_bytes()[1:])
        elif damage == "shard_removed":
            removed = obj["shards"].pop(1)
            obj["total_docs"] -= removed["docs"]
        elif damage == "doc_counts_edited":
            obj["shards"][1]["docs"] += 1
            obj["total_docs"] += 1
        elif damage == "lang_chars_edited":
            obj["lang_chars"]["en"] += 1
        elif damage == "old_format":
            for key in ("sha256", "lang_chars", "unusable_docs"):
                del obj[key]
        elif damage == "shard_missing":
            shard.unlink()
        path.write_text(json.dumps(obj), encoding="utf-8")
        manifest = ShardManifest.load(path)
        plain = without_record(manifest)
        for call in (
            lambda m: m.verify(tmp_path),
            lambda m: corpus_stats(m, tmp_path),
            lambda m: corpus_stats(m, tmp_path, languages=None),
        ):
            parsed.clear()
            assert outcome(lambda: call(manifest)) == outcome(lambda: call(plain))
            assert parsed, "the record vouched for a corpus it does not describe"

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("sha256", 5, "sha256"),
            ("sha256", None, "sha256"),
            ("lang_chars", ["en"], "lang_chars"),
            ("lang_chars", {"en": 2.5}, "en"),
            ("unusable_docs", True, "unusable_docs"),
            ("unusable_docs", None, "unusable_docs"),
        ],
        ids=[
            "sha256_int", "sha256_missing", "lang_chars_list", "chars_float",
            "unusable_bool", "unusable_missing",
        ],
    )
    def test_mistyped_record_field_refused(self, tmp_path, field, value, named):
        write_corpus(make_docs(5), tmp_path, stage="input", fingerprint="fp")
        path = tmp_path / "manifest.json"
        obj = json.loads(path.read_text(encoding="utf-8"))
        if value is None:
            del obj[field]
        else:
            obj[field] = value
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(CorpusError, match=f"manifest {re.escape(str(path))} .*'{named}'"):
            ShardManifest.load(path)


BLOCK = rephrasing.corpus._HASH_BLOCK


class TestHashLines:
    """``_hash_lines`` reads blocks, and gives what a loop over the
    file's lines gives: the digest of its bytes and its count of lines."""

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"no final line feed",
            b"a\nb",
            b"\n",
            b"a\r\nb\r\n\r\n",
            b"x" * (2 * BLOCK + 3) + b"\nlonger than a block",
            (b"y" * 63 + b"\n") * (BLOCK // 64),
            (b"z" * 127 + b"\n") * (BLOCK // 64),
            b"w" * BLOCK,
            b"\n" * (BLOCK + 1),
        ],
        ids=[
            "empty", "no_final_line_feed", "two_lines_no_final", "one_line_feed", "crlf",
            "line_longer_than_a_block", "exactly_a_block", "exactly_two_blocks",
            "a_block_without_line_feed", "line_feeds_past_a_block",
        ],
    )
    def test_same_digest_and_count_as_the_line_loop(self, tmp_path, data):
        path = tmp_path / "file"
        path.write_bytes(data)
        reference, count = hashlib.sha256(), 0
        with path.open("rb") as handle:
            for count, line in enumerate(handle, start=1):
                reference.update(line)
        digest = hashlib.sha256()
        assert rephrasing.corpus._hash_lines(path, digest) == count
        assert digest.hexdigest() == reference.hexdigest() == hashlib.sha256(data).hexdigest()
        assert file_sha256(path) == reference.hexdigest()

    def test_recorded_digest_needs_each_shard_count(self, tmp_path):
        """A line moved from one shard to the next keeps the bytes of the
        corpus, and so its digest, but not the count of either shard."""
        manifest = write_corpus(make_docs(6), tmp_path, stage="input", fingerprint="fp", shard_size=3)
        assert manifest.recorded_digest(tmp_path) == manifest.record.sha256
        first, second = manifest.shard_paths(tmp_path)
        lines = [text + b"\n" for text in first.read_bytes().split(b"\n")[:-1]]
        first.write_bytes(b"".join(lines[:2]))
        second.write_bytes(lines[2] + second.read_bytes())
        assert manifest.recorded_digest(tmp_path) is None
        with pytest.raises(CorpusError, match="has 2 docs, manifest says 3"):
            manifest.verify(tmp_path)


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


# Texts with each escape json_line makes on the UTF-8 bytes: the first
# five and the last with the five common ones, the next five with those
# of other control characters (``\u0000``, ``\b``, ``\f``; the fifth holds
# every control character), and the rest with none.
LINE_TEXTS = [
    '"',
    "\\",
    "\n",
    "\r\n",
    "\t",
    "\x00",
    "\x1f",
    "\x08\x0c",
    "a\tb\r\x0b",
    "".join(map(chr, range(0x20))) + '\x7f"\\\x00',
    "\x7f",
    "\u2028",
    "äöüß",
    "\U0001f600",
    "",
    'a "text": "" b',
]
LINE_META = {
    "nested": {"list": [1, [2, None], {"k": "v"}], 7: "int key", "text": ""},
    "numbers": [0.1, 1e16, -0.0, math.nan, math.inf, -math.inf],
    "flags": [True, False, None],
}
RESULT_HEAD = b'{"kind": "result", '


def dumps_line(obj, head=b"{") -> bytes:
    """The reference every line writer must match, byte for byte."""
    return head + (json.dumps(obj, ensure_ascii=False) + "\n").encode("utf-8")[1:]


def line_doc(text: str) -> Document:
    return Document('d"ä\\' + text, text, "de", LINE_META, Provenance.rephrased("qa", "m"))


class TestLineWriters:
    @pytest.mark.parametrize("text", LINE_TEXTS)
    def test_document_lines_are_json_dumps(self, text):
        doc = line_doc(text)
        assert sized_line(doc).line == (doc_json(doc) + "\n").encode("utf-8")
        head = {"id": doc.id, "lang": doc.lang, "meta": LINE_META}
        assert head_line(doc) == dumps_line(head)
        spliced = splice_id(sized_line(doc).line, "p-\n", text, "de", len(text))
        renamed = dataclasses.replace(doc, id="p-\n" + doc.id + text)
        assert spliced.line == (doc_json(renamed) + "\n").encode("utf-8")

    @pytest.mark.parametrize("text", LINE_TEXTS)
    def test_passage_lines_are_json_dumps(self, text):
        passage = Passage(text + "ö", 3, text, 0.1, frozenset({"b", "a"}), "it")
        assert passage_line(passage).line == dumps_line(passage.to_obj())

    @pytest.mark.parametrize("text", LINE_TEXTS)
    def test_ledger_lines_are_json_dumps(self, tmp_path, text):
        result = RephraseResult(JobKey(text, 2, "qa"), text, "stop", "m ", 1)
        scored = ScoredDocument(text, 0.1, "ask_llm")
        with CheckpointWriter(tmp_path / "ledger.jsonl", "fp") as writer:
            writer.append(result)
            writer.append(scored)
        header, result_line, score_line = (tmp_path / "ledger.jsonl").read_bytes().splitlines(True)
        assert header == dumps_line({"kind": "header", "fingerprint": "fp"})
        assert result_line == dumps_line(result.to_obj(), RESULT_HEAD)
        assert score_line == dumps_line(scored.to_obj(), RESULT_HEAD)
        key_head = LedgerLine.head(result.key)
        assert key_head == dumps_line({"key": result.key.to_obj()})[:-2] + b", "
        assert record_line(result_line).startswith(key_head)
        score_head = ScoreLine.head(text)
        assert score_head == dumps_line({"doc_id": text})[:-2] + b", "
        assert record_line(score_line).startswith(score_head)

    @pytest.mark.parametrize("text", LINE_TEXTS)
    def test_other_records_are_json_dumps(self, text):
        records = [
            {"doc_id": text, "index": None, "reason": "inference_failed"},  # an audit line
            {"text": text},
            {"meta": {"text": ""}, "text": text},  # a second "text": "" before the text
            {"text": text, "meta": [{"text": ""}]},  # and after it
            {"meta": {"text": "x"}, "key": [text, [1]], "text": text},  # objects and lists before it
            {"id": 'x"text": ""\\', "text\"": "", "text": text},  # strings that hold its bytes
            {"a": -0.0, "b": math.nan, "text": text, "c": {1: [math.inf, 1e16, True, None]}},
        ]
        for record in records:
            assert json_line(record) == dumps_line(record)
            assert json_line(record, RESULT_HEAD) == dumps_line(record, RESULT_HEAD)

    @pytest.mark.parametrize(
        "record",
        [
            {"id": "a", "text": "x", "meta": {"when": object()}},
            {"id": "a", "text": b"bytes"},
            {"id": {1, 2}, "text": "x"},
        ],
    )
    def test_unsupported_value_raises_type_error(self, record):
        with pytest.raises(TypeError):
            json_line(record)

    @pytest.mark.parametrize("field", ["id", "text", "lang"])
    def test_lone_surrogate_raises_unicode_encode_error(self, field):
        doc = dataclasses.replace(line_doc("x"), **{field: "a\ud800b"})
        with pytest.raises(UnicodeEncodeError):
            sized_line(doc)

    @pytest.mark.skipif(c_make_encoder is None, reason="the C encoder checks for cycles here")
    def test_circular_record_raises_recursion_error(self):
        record = {"id": "a", "meta": {}}
        record["meta"]["self"] = record
        with pytest.raises(RecursionError):
            encode_json(record)


def test_shared_encoder_under_thread_switches(tmp_path):
    """Eight threads share one ledger and the one encoder while the
    interpreter switches threads as often as it can; every line is the
    one a single thread gives."""
    texts = [doc.text[:200] for doc in make_docs(8, seed=11)] + LINE_TEXTS
    n_threads, per_thread = 8, 2000

    def result(thread: int, i: int) -> RephraseResult:
        return RephraseResult(JobKey(f"doc-{thread}", i, "qa"), texts[(thread + i) % len(texts)], "stop")

    reference = sorted(
        dumps_line(result(t, i).to_obj(), RESULT_HEAD) for t in range(n_threads) for i in range(per_thread)
    )
    errors = []

    def write(writer: CheckpointWriter, thread: int) -> None:
        try:
            for i in range(per_thread):
                writer.append(result(thread, i))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with CheckpointWriter(tmp_path / "ledger.jsonl", "fp") as writer:
            threads = [threading.Thread(target=write, args=(writer, t)) for t in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    lines = (tmp_path / "ledger.jsonl").read_bytes().splitlines(True)
    assert sorted(lines[1:]) == reference
