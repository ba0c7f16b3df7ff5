"""Rephrase, postprocess and score read what the pipeline vouched for by
its bytes, and parse everything else.

Preprocess writes its passages through ``write_corpus``, so their
manifest records the shards' bytes and size indexes, and it writes the
input's document heads beside them.  Most tests run a stage on both
routes, the byte route and the parse route forced by removing or
changing what vouches for the bytes, and compare what comes out: the
same bytes, or the same exception type and message.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
from pathlib import Path

import pytest

from rephrasing import pipeline
from rephrasing.config import load_config
from rephrasing.corpus import (
    CorpusError,
    Document,
    ShardManifest,
    SizeIndex,
    encode_json,
    head_line,
    iter_corpus,
    vouched_indexes,
    write_corpus,
)
from rephrasing.inference import BackendError, CompletionBackend
from rephrasing.pipeline import (
    DOCUMENT_HEADS,
    StageError,
    stage_postprocess,
    stage_preprocess,
    stage_rephrase,
    stage_score,
)
from rephrasing.prompts import load_builtin, prompt_length
from rephrasing.splitting import Passage, split_document
from rephrasing.tokens import TokenEstimator

from conftest import make_docs, write_fixture_config

RECORD_FIELDS = ("sha256", "lang_chars", "unusable_docs", "index_sha256")
# A meta value of the conftest documents, and an edit of the same length.
SYNTHETIC, EDITED = b'"source": "synthetic"', b'"source": "edited!!!"'


def edge_docs() -> list[Document]:
    """Documents whose ids, texts and meta stress the byte routes: quotes,
    backslashes, the closing tag a tagged template ends at, and meta
    values JSON round-trips only as written."""
    nested = {"f": 1.5, "nan": float("nan"), "list": [1, 2.25, None, {"z": -0.0}]}
    docs = make_docs(24, seed=12)
    docs[1] = dataclasses.replace(docs[1], id='q"uote\\id', meta={"nested": nested, "ü": "ß"})
    tagged = docs[2].text + ' a "quoted" </text> tag'
    docs[2] = dataclasses.replace(docs[2], text=tagged, meta={"big": 1e300})
    docs[3] = dataclasses.replace(docs[3], id="ünï ☃", meta={"small": 5e-324, "neg": -0.0})
    docs[4] = dataclasses.replace(docs[4], text=docs[4].text + '\n, "est_tokens": 1, "text": \\ ')
    # One passage, whose prompt _Counting fails: a document without any.
    chars = 300 + -(prompt_length(load_builtin("qa_opt_en"), 300)) % 7
    docs[5] = dataclasses.replace(docs[5], text="y" * chars)
    return docs


class _Counting(CompletionBackend):
    """Counts the calls that reach the backend and keeps each prompt, and
    fails for good every prompt whose length is a multiple of 7, so
    postprocess meets failed passages."""

    def __init__(self, inner: CompletionBackend, prompts: list[str]):
        self.inner = inner
        self.prompts = prompts

    def complete(self, prompt, **kwargs):
        self.prompts.append(prompt)
        if len(prompt) % 7 == 0:
            raise BackendError("scripted permanent failure")
        return self.inner.complete(prompt, **kwargs)

    def option_logprobs(self, prompt, options):
        self.prompts.append(prompt)
        return self.inner.option_logprobs(prompt, options)

    def close(self):
        self.inner.close()


@pytest.fixture
def prompts(monkeypatch) -> list[str]:
    sent: list[str] = []
    make = pipeline.make_backend
    monkeypatch.setattr(pipeline, "make_backend", lambda cfg: _Counting(make(cfg), sent))
    return sent


@pytest.fixture
def parses(monkeypatch) -> list[str]:
    """The doc_id of each passage line parsed, and "input" for each parse
    of the input corpus."""
    seen: list[str] = []
    from_obj = Passage.from_obj
    iter_input = pipeline.iter_corpus

    def counting(obj):
        seen.append(obj.get("doc_id"))
        return from_obj(obj)

    def counting_input(manifest, *args, **kwargs):
        if manifest.stage == "input":
            seen.append("input")
        return iter_input(manifest, *args, **kwargs)

    monkeypatch.setattr(Passage, "from_obj", staticmethod(counting))
    monkeypatch.setattr(pipeline, "iter_corpus", counting_input)
    return seen


def config(tmp_path: Path, shard_size: int = 9):
    """A preprocessed run over ``edge_docs`` in shards of ``shard_size``."""
    cfg = load_config(write_fixture_config(tmp_path, edge_docs(), extra={"shard_size": shard_size}))
    stage_preprocess(cfg)
    return cfg


def strip_record(manifest_path: Path) -> None:
    """Save a manifest as an older version wrote it: no record, no index
    digest, and no size index beside any shard."""
    obj = json.loads(manifest_path.read_text(encoding="utf-8"))
    for key in RECORD_FIELDS:
        obj.pop(key, None)
    manifest_path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    for index in manifest_path.parent.glob("*.idx"):
        index.unlink()


def rephrase_files(cfg) -> dict[str, bytes]:
    out = cfg.work_dir / "rephrase"
    return {name: (out / name).read_bytes() for name in ("completions.jsonl", "failed.jsonl")}


def outcome(call) -> object:
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


class TestPassagesAsWritten:
    def test_manifest_vouches_for_shards_written_as_before(self, tmp_path):
        cfg = config(tmp_path)
        out = cfg.work_dir / "passages"
        manifest = ShardManifest.load(out / "manifest.json")
        estimator = TokenEstimator.load(cfg.work_dir / "calibration.json")
        passages = [p for doc in edge_docs() for p in split_document(doc, cfg.split, estimator)]
        written = b"".join(path.read_bytes() for path in manifest.shard_paths(out))
        # The lines preprocess wrote before it went through write_corpus.
        as_before = b"".join((encode_json(p.to_obj()) + "\n").encode("utf-8") for p in passages)
        assert written == as_before
        assert len(manifest.shards) > 2 and manifest.total_docs == len(passages)
        assert manifest.record.sha256 == hashlib.sha256(written).hexdigest()
        assert manifest.record.unusable_docs == 0
        lang_chars: dict[str, int] = {}
        for p in passages:
            lang_chars[p.lang] = lang_chars.get(p.lang, 0) + len(p.text)
        assert manifest.record.lang_chars == lang_chars
        digest = hashlib.sha256()
        for path in manifest.shard_paths(out):
            data = path.with_suffix(".idx").read_bytes()
            digest.update(data)
            index = SizeIndex.from_bytes(data)
            lines = path.read_bytes().splitlines(keepends=True)
            shard = [json.loads(line) for line in lines]
            assert list(index.lengths) == list(map(len, lines))
            assert list(index.chars) == [len(p["text"]) for p in shard]
            assert [index.langs[code] for code in index.codes] == [p["lang"] for p in shard]
        assert manifest.index_sha256 == digest.hexdigest()

    def test_heads_and_digests_beside_the_passages(self, tmp_path):
        cfg = config(tmp_path)
        out = cfg.work_dir / "passages"
        heads = (out / DOCUMENT_HEADS).read_bytes()
        assert heads == b"".join(head_line(doc) for doc in edge_docs())
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["documents_sha256"] == hashlib.sha256(heads).hexdigest()
        assert report["input_sha256"] == ShardManifest.load(cfg.input_manifest).record.sha256

    def test_input_without_record_noted_as_none(self, tmp_path):
        cfg = load_config(write_fixture_config(tmp_path, edge_docs()))
        strip_record(cfg.input_manifest)
        assert stage_preprocess(cfg)["input_sha256"] is None


class TestRephrase:
    def test_older_passages_take_the_parse_route(self, tmp_path, prompts, parses):
        cfg = config(tmp_path)
        parses.clear()
        stage_rephrase(cfg)
        assert parses == []
        by_bytes, sent = rephrase_files(cfg), list(prompts)
        assert b"scripted permanent failure" in by_bytes["failed.jsonl"]
        assert any("</text> tag" in prompt for prompt in sent)
        strip_record(cfg.work_dir / "passages" / "manifest.json")
        shutil.rmtree(cfg.work_dir / "rephrase")
        prompts.clear()
        report = stage_rephrase(cfg)
        # Each passage is parsed when its shard is indexed and again when rendered.
        assert len(parses) == report["jobs"] + report["issued"]
        assert rephrase_files(cfg) == by_bytes
        assert sorted(prompts) == sorted(sent)

    def test_reports_agree(self, tmp_path):
        cfg = config(tmp_path)
        clock = ("busy_s", "latency_max_s", "latency_p50_s", "latency_p95_s", "slot_utilisation",
                 "tokens_per_s", "seconds")

        def report():
            shutil.rmtree(cfg.work_dir / "rephrase", ignore_errors=True)
            return {k: v for k, v in stage_rephrase(cfg).items() if k not in clock}

        by_bytes = report()
        assert by_bytes["tag_collisions"] == 1
        strip_record(cfg.work_dir / "passages" / "manifest.json")
        assert report() == by_bytes

    def test_jobs_agree(self, tmp_path):
        cfg = config(tmp_path)
        manifest, passages = pipeline._passage_manifest(cfg)
        indexes, _ = vouched_indexes(manifest, passages, None)
        registry = cfg.registry()
        for path, index in zip(manifest.shard_paths(passages), indexes):
            by_bytes = pipeline._PassageShard(path, index, cfg, registry)
            parsed = pipeline._PassageShard(path, None, cfg, registry)
            with by_bytes, parsed:
                assert by_bytes.by_bytes and not parsed.by_bytes
                assert by_bytes.tag_collisions == parsed.tag_collisions
                for a, b in zip(by_bytes.jobs, parsed.jobs, strict=True):
                    prompt = a.render()
                    assert (a.key, a.prompt_chars, prompt) == (b.key, b.prompt_chars, b.render())
                    assert a.prompt_chars == len(prompt.text)
                    # The byte route reads back the text's JSON string of the same line.
                    assert b.offset < a.offset and a.offset + a.length < b.offset + b.length

    def test_valid_hand_edit_takes_the_parse_route(self, tmp_path, prompts, parses):
        cfg = config(tmp_path)
        shard = cfg.work_dir / "passages" / "passages-00001.jsonl"
        lines = shard.read_bytes().splitlines(keepends=True)
        obj = json.loads(lines[2])
        obj["text"] = "An edited passage, longer than the one preprocess wrote."
        lines[2] = (encode_json(obj) + "\n").encode("utf-8")
        shard.write_bytes(b"".join(lines))
        parses.clear()
        stage_rephrase(cfg)
        assert parses
        assert sum(obj["text"] in prompt for prompt in prompts) == 1

    def test_same_length_corruption_refused_before_any_call(self, tmp_path, prompts):
        cfg = config(tmp_path)
        passages = cfg.work_dir / "passages"
        shard = passages / "passages-00000.jsonl"
        data = bytearray(shard.read_bytes())
        data[data.index(b"\n") + 1] = ord("[")  # the second line's opening brace
        shard.write_bytes(bytes(data))
        refused = outcome(lambda: stage_rephrase(cfg))
        assert refused[0] is CorpusError
        assert "passages-00000.jsonl: 1 bad line(s); first at line 2: " in refused[1]
        assert prompts == []
        strip_record(passages / "manifest.json")
        assert outcome(lambda: stage_rephrase(cfg)) == refused
        assert prompts == []


def rephrased_files(cfg) -> dict[str, bytes]:
    out = cfg.work_dir / "rephrased"
    return {path.name: path.read_bytes() for path in out.iterdir() if path.name != "report.json"}


def postprocess_report(cfg) -> dict:
    return {k: v for k, v in stage_postprocess(cfg).items() if k != "seconds"}


class TestPostprocess:
    @pytest.fixture
    def cfg(self, tmp_path, prompts):
        cfg = config(tmp_path, shard_size=5)
        stage_rephrase(cfg)
        return cfg

    @pytest.mark.parametrize("walk", ["input_without_record", "heads_removed", "heads_edited"])
    def test_heads_and_walk_agree(self, cfg, parses, walk):
        parses.clear()
        report = postprocess_report(cfg)
        assert parses == []
        by_heads = rephrased_files(cfg)
        audit = by_heads["audit.jsonl"].decode("utf-8")
        assert "inference_failed" in audit and "no_accepted_passages" in audit
        docs = list(iter_corpus(ShardManifest.load(cfg.work_dir / "rephrased" / "manifest.json"),
                                cfg.work_dir / "rephrased"))
        assert {doc.id for doc in docs} >= {'q"uote\\id', "ünï ☃"}
        heads = cfg.work_dir / "passages" / DOCUMENT_HEADS
        if walk == "input_without_record":
            strip_record(cfg.input_manifest)
        elif walk == "heads_removed":
            heads.unlink()
        else:  # a valid edit of a head, which the walk does not read
            heads.write_bytes(heads.read_bytes().replace(SYNTHETIC, EDITED, 1))
        parses.clear()
        assert postprocess_report(cfg) == report
        assert parses == ["input"]
        assert rephrased_files(cfg) == by_heads

    def test_input_edited_in_place_takes_the_walk(self, cfg, parses):
        stage_postprocess(cfg)
        by_heads = rephrased_files(cfg)
        emitted = [
            doc.id
            for doc in iter_corpus(ShardManifest.load(cfg.work_dir / "rephrased" / "manifest.json"),
                                   cfg.work_dir / "rephrased")
            if doc.meta == {"source": "synthetic"}
        ]
        # One emitted document's meta changes; the manifest is left as it was.
        shard = cfg.input_manifest.parent / "shard-00000.jsonl"
        lines = shard.read_bytes().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if json.loads(line)["id"] == emitted[0])
        lines[at] = lines[at].replace(SYNTHETIC, EDITED)
        shard.write_bytes(b"".join(lines))
        parses.clear()
        stage_postprocess(cfg)
        assert parses == ["input"]
        edited = rephrased_files(cfg)
        assert edited != by_heads
        assert EDITED in b"".join(edited.values())
        # Today's output: the walk of the edited input, as with no heads at all.
        (cfg.work_dir / "passages" / DOCUMENT_HEADS).unlink()
        stage_postprocess(cfg)
        assert rephrased_files(cfg) == edited

    def test_input_edited_for_preprocess_only_takes_the_walk(self, tmp_path, prompts, parses):
        # Preprocess splits an input edited in place, and postprocess meets
        # it restored: the heads are the edited input's, so only a digest
        # preprocess took of the bytes it split sends postprocess to the walk.
        docs = edge_docs()
        cfg = load_config(write_fixture_config(tmp_path, docs, extra={"shard_size": 5}))
        shard = cfg.input_manifest.parent / "shard-00000.jsonl"
        written = shard.read_bytes()
        shard.write_bytes(written.replace(SYNTHETIC, EDITED))
        assert stage_preprocess(cfg)["input_sha256"] is None
        stage_rephrase(cfg)
        shard.write_bytes(written)
        parses.clear()
        stage_postprocess(cfg)
        assert parses == ["input"]
        rephrased = b"".join(rephrased_files(cfg).values())
        assert SYNTHETIC in rephrased and EDITED not in rephrased

    def test_replaced_input_refused_as_before(self, cfg, parses, tmp_path):
        docs = edge_docs()
        for path in (tmp_path / "input").iterdir():
            path.unlink()
        write_corpus(docs[::-1], tmp_path / "input", stage="input", fingerprint="input")
        parses.clear()
        with pytest.raises(StageError, match="no longer in the order"):
            stage_postprocess(cfg)
        assert parses[0] == "input"


class TestScore:
    @pytest.mark.parametrize("corpus", ["rephrased", "input"])
    def test_index_and_parse_routes_agree(self, tmp_path, prompts, parses, corpus):
        cfg = config(tmp_path)
        stage_rephrase(cfg)
        stage_postprocess(cfg)
        manifest_path = cfg.input_manifest
        if corpus == "rephrased":
            manifest_path = cfg.work_dir / "rephrased" / "manifest.json"
        scores = cfg.work_dir / "scores"

        def scored() -> tuple[bytes, dict, list[str]]:
            shutil.rmtree(scores, ignore_errors=True)
            prompts.clear()
            report = stage_score(cfg, manifest_path)
            return (scores / "scores.jsonl").read_bytes(), report, sorted(prompts)

        parses.clear()
        by_bytes, report, sent = scored()
        assert parses == []
        assert report["corpus_sha256"] == ShardManifest.load(manifest_path).record.sha256
        obj = json.loads(manifest_path.read_text(encoding="utf-8"))
        del obj["index_sha256"]
        manifest_path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
        parsed, parsed_report, parsed_sent = scored()
        assert parses == (["input"] if corpus == "input" else [])
        assert parsed == by_bytes and parsed_sent == sent
        assert parsed_report["corpus_sha256"] == report["corpus_sha256"]
        assert parsed_report["docs"] == report["docs"] == len(by_bytes.splitlines())
