from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest.mock import ANY

import pytest

from rephrasing import mixing, pipeline
from rephrasing.config import load_config
from rephrasing.corpus import CorpusError, Document, ShardManifest, iter_corpus, write_corpus
from rephrasing.pipeline import (
    StageError,
    run_all,
    stage_filter,
    stage_mix,
    stage_postprocess,
    stage_preprocess,
    stage_rephrase,
    stage_score,
    stage_stats,
)
from rephrasing.inference import (
    BackendError,
    CheckpointWriter,
    CompletionBackend,
    MockBackend,
    MockRule,
)
from rephrasing.quality import MissingScoresError, ingest_external_scores
from rephrasing.tokens import CalibrationError

from conftest import QA_LEGACY_RULES, QA_TAGGED_RULES, make_docs, write_fixture_config


@pytest.fixture
def cfg(tmp_path):
    return load_config(write_fixture_config(tmp_path, make_docs(50, seed=7)))


class _Stop(Exception):
    pass


class _SpyBackend(CompletionBackend):
    """Wraps the configured backend, fails every prompt whose length is a
    multiple of 7 for good, and records its requests and whether it was
    closed."""

    def __init__(self, inner: CompletionBackend):
        self.inner = inner
        self.requests = 0
        self.closed = False

    def complete(self, prompt, **kwargs):
        self.requests += 1
        if len(prompt) % 7 == 0:
            raise BackendError("scripted permanent failure")
        return self.inner.complete(prompt, **kwargs)

    def option_logprobs(self, prompt, options):
        self.requests += 1
        return self.inner.option_logprobs(prompt, options)

    def close(self):
        self.closed = True
        self.inner.close()


@pytest.fixture
def backends(monkeypatch):
    """Every backend the stages build, each wrapped in a _SpyBackend."""
    made = []
    make = pipeline.make_backend

    def spy(cfg):
        made.append(_SpyBackend(make(cfg)))
        return made[-1]

    monkeypatch.setattr(pipeline, "make_backend", spy)
    return made


def rephrase_outputs(cfg) -> dict[str, bytes]:
    return {
        name: (cfg.work_dir / "rephrase" / name).read_bytes()
        for name in ("completions.jsonl", "failed.jsonl")
    }


def read_audit(cfg):
    path = cfg.work_dir / "rephrased" / "audit.jsonl"
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestPreprocess:
    def test_passages_and_calibration(self, cfg):
        report = stage_preprocess(cfg)
        assert report["docs_in"] == 50
        assert report["passages"] > 50
        assert (cfg.work_dir / "calibration.json").is_file()
        manifest = ShardManifest.load(cfg.work_dir / "passages" / "manifest.json")
        assert manifest.total_docs == report["passages"]
        assert manifest.fingerprint == cfg.fingerprint()

    def test_passages_carry_document_lang(self, tmp_path):
        docs = make_docs(12, seed=5)
        cfg = load_config(write_fixture_config(tmp_path, docs))
        stage_preprocess(cfg)
        lang_by_doc = {d.id: d.lang for d in docs}
        passages = list(pipeline.iter_passages(cfg))
        assert {p.lang for p in passages} == set(lang_by_doc.values())
        for passage in passages:
            assert passage.lang == lang_by_doc[passage.doc_id]

    @pytest.mark.parametrize("form", ["directory", "single_shard"])
    def test_input_forms_match_manifest(self, tmp_path, form):
        docs = make_docs(30, seed=3)
        shard_size = 10 if form == "directory" else 1000
        input_dir = tmp_path / "input"
        write_corpus(docs, input_dir, stage="input", fingerprint="input", shard_size=shard_size)
        shards = ShardManifest.load(input_dir / "manifest.json").shards
        assert len(shards) == (3 if form == "directory" else 1)
        source = "input" if form == "directory" else f"input/{shards[0].path}"
        outputs = {}
        for name, input_manifest in (("manifest", "input/manifest.json"), (form, source)):
            extra = {"input_manifest": input_manifest, "work_dir": name}
            cfg = load_config(write_fixture_config(tmp_path, docs, extra=extra, name=f"{name}.yaml"))
            stage_preprocess(cfg)
            passages = cfg.work_dir / "passages"
            written = [cfg.work_dir / "calibration.json", passages / "manifest.json"]
            written += passages.glob("*.jsonl")
            outputs[name] = {path.name: path.read_bytes() for path in written}
        assert "passages-00000.jsonl" in outputs["manifest"]
        assert outputs[form] == outputs["manifest"]

    def test_empty_input_refused_before_anything_is_written(self, tmp_path):
        cfg = load_config(write_fixture_config(tmp_path, []))
        with pytest.raises(CalibrationError, match="empty corpus"):
            stage_preprocess(cfg)
        assert not (cfg.work_dir / "calibration.json").exists()
        assert not (cfg.work_dir / "passages" / "manifest.json").exists()

    def test_calibration_records_the_documents_it_would_sample(self, tmp_path):
        # Without an exact tokenizer no sample is drawn; calibration.json
        # records min(sample_size, documents) as calibrate would.
        for docs, sample_size in ((7, 50), (30, 10)):
            estimator = {"default_ratio": 0.25, "sample_size": sample_size}
            extra = {"estimator": estimator, "work_dir": f"w{docs}"}
            path = write_fixture_config(tmp_path / str(docs), make_docs(docs), extra=extra)
            cfg = load_config(path)
            stage_preprocess(cfg)
            saved = json.loads((cfg.work_dir / "calibration.json").read_text(encoding="utf-8"))
            assert saved == {
                "tokens_per_char": 0.25,
                "per_language": {},
                "sample_size": min(docs, sample_size),
                "seed": 0,
                "calibrated": False,
            }

    def test_missing_input(self, tmp_path):
        path = write_fixture_config(tmp_path, make_docs(1))
        cfg = load_config(path)
        (tmp_path / "input" / "manifest.json").unlink()
        with pytest.raises(StageError):
            stage_preprocess(cfg)


class TestRephrase:
    def test_completions_cover_passages(self, cfg):
        n_passages = stage_preprocess(cfg)["passages"]
        report = stage_rephrase(cfg)
        assert report["jobs"] == n_passages
        assert report["done"] == n_passages
        assert report["failed"] == 0
        lines = (cfg.work_dir / "rephrase" / "completions.jsonl").read_text().splitlines()
        assert len(lines) == n_passages

    def test_throughput_accounting(self, cfg):
        stage_preprocess(cfg)
        report = stage_rephrase(cfg)
        assert report["tokens_per_s"] == pytest.approx(
            report["output_est_tokens"] / report["seconds"], rel=0.01
        )

    def test_requires_preprocess(self, cfg):
        with pytest.raises(StageError, match="calibration"):
            stage_rephrase(cfg)

    def test_report_counts_tag_collisions_and_attempts(self, tmp_path):
        quoting = "This sentence quotes the closing tag </text> of the template. "
        docs = make_docs(8, seed=3) + [Document("doc-quoting", quoting * 12, "en")]
        # Every prompt's first try fails, so every job takes two.
        mock = {"rules": QA_TAGGED_RULES, "fail_first": 1}
        backend = {"kind": "mock", "model": "mock-model", "retry_backoff_s": 0.0, "mock": mock}
        cfg = load_config(write_fixture_config(tmp_path, docs, extra={"backend": backend}))
        stage_preprocess(cfg)
        colliding = sum("</text>" in passage.text for passage in pipeline.iter_passages(cfg))
        assert colliding > 0
        first = stage_rephrase(cfg)
        assert first["tag_collisions"] == colliding
        assert first["attempts"] == {"2": first["jobs"]}
        # A resume replays every result, with the attempts it took.
        second = stage_rephrase(cfg)
        assert second["replayed"] == second["jobs"]
        assert (second["tag_collisions"], second["attempts"]) == (colliding, first["attempts"])

    def test_report_times_issued_requests(self, tmp_path, monkeypatch):
        # Each job's first try fails at once and backs off 20 ms; its
        # second try takes 2 ms.
        backend = {"kind": "mock", "model": "mock-model", "max_in_flight": 4, "retry_backoff_s": 0.02}
        path = write_fixture_config(tmp_path, make_docs(12, seed=3), extra={"backend": backend})
        cfg = load_config(path)
        rules = [MockRule(**rule) for rule in QA_TAGGED_RULES]
        monkeypatch.setattr(
            pipeline, "make_backend", lambda cfg: MockBackend(rules, fail_first=1, latency_s=0.002)
        )
        stage_preprocess(cfg)
        first = stage_rephrase(cfg)
        issued = first["issued"]
        assert first["attempts"] == {"2": issued} and issued > 4
        assert first["latency_max_s"] >= 0.022
        assert 0.002 * issued <= first["busy_s"] < 0.02 * issued
        assert 0 < first["slot_utilisation"] <= 1
        assert first["slot_utilisation"] == pytest.approx(
            first["busy_s"] / (4 * first["seconds"]), rel=1e-3
        )
        # A resume replays every result and times nothing.
        second = stage_rephrase(cfg)
        assert second["issued"] == 0
        assert [second[k] for k in ("busy_s", "latency_max_s", "slot_utilisation")] == [0, 0, 0]

    def test_fingerprint_mismatch_refused(self, tmp_path):
        path = write_fixture_config(tmp_path, make_docs(5))
        cfg = load_config(path)
        stage_preprocess(cfg)
        other = load_config(
            write_fixture_config(
                tmp_path, make_docs(5), extra={"split": {"max_tokens": 200}}, name="o.yaml"
            )
        )
        with pytest.raises(StageError, match="fingerprint"):
            stage_rephrase(other)

    def test_rerun_replays_from_checkpoint(self, cfg):
        stage_preprocess(cfg)
        first = stage_rephrase(cfg)
        completions = (cfg.work_dir / "rephrase" / "completions.jsonl").read_bytes()
        second = stage_rephrase(cfg)
        assert second["replayed"] == first["jobs"]
        assert second["issued"] == 0
        assert (cfg.work_dir / "rephrase" / "completions.jsonl").read_bytes() == completions


class TestStreamingRephrase:
    """Rephrase runs one passages shard at a time."""

    DOCS = make_docs(40, seed=21)

    def cfg_for(self, tmp_path, shard_size, work):
        path = write_fixture_config(
            tmp_path,
            self.DOCS,
            extra={"shard_size": shard_size, "work_dir": work},
            name=f"{work}.yaml",
        )
        return load_config(path)

    def test_shard_size_leaves_outputs_byte_identical(self, tmp_path, backends):
        outputs = []
        for shard_size in (3, 10_000):
            cfg = self.cfg_for(tmp_path, shard_size, f"work_{shard_size}")
            stage_preprocess(cfg)
            report = stage_rephrase(cfg)
            assert report["done"] > 0 and report["failed"] > 0
            outputs.append(rephrase_outputs(cfg))
        assert outputs[0] == outputs[1]

    def test_run_batch_gets_at_most_one_shard(self, tmp_path, monkeypatch):
        sizes = []
        run_batch = pipeline.run_batch

        def spy(jobs, *args, **kwargs):
            sizes.append(len(jobs))
            return run_batch(jobs, *args, **kwargs)

        monkeypatch.setattr(pipeline, "run_batch", spy)
        cfg = self.cfg_for(tmp_path, 3, "work")
        passages = stage_preprocess(cfg)["passages"]
        report = stage_rephrase(cfg)
        manifest = ShardManifest.load(cfg.work_dir / "passages" / "manifest.json")
        assert len(sizes) == len(manifest.shards) > 1
        assert max(sizes) <= 3
        assert sum(sizes) == passages == report["jobs"]

    def test_stop_in_second_shard_then_resume_is_byte_identical(self, tmp_path, backends):
        reference = self.cfg_for(tmp_path, 3, "ref")
        stage_preprocess(reference)
        stage_rephrase(reference)

        cfg = self.cfg_for(tmp_path, 3, "stopped")
        stage_preprocess(cfg)
        seen = []

        def stop_at_5(result):
            seen.append(result)
            if len(seen) == 5:
                raise _Stop()

        with pytest.raises(_Stop):
            stage_rephrase(cfg, on_result=stop_at_5)
        assert not (cfg.work_dir / "rephrase" / "completions.jsonl").exists()
        assert not (cfg.work_dir / "rephrase" / "failed.jsonl").exists()

        resumed = stage_rephrase(cfg)
        assert resumed["replayed"] == sum(not r.failed for r in seen)
        assert resumed["issued"] == resumed["jobs"] - resumed["replayed"]
        assert rephrase_outputs(cfg) == rephrase_outputs(reference)

    def test_retries_leave_outputs_byte_identical(self, tmp_path, monkeypatch):
        """Every first try fails and backs off, in rephrase and in score."""

        class Flaky(MockBackend):
            """Refuses log-probabilities, so every document is scored by a
            vote: a completion sent through ``with_retries`` on a pool thread."""

            def option_logprobs(self, prompt, options):
                raise BackendError("no log-probabilities")

        # Votes yes when the rephrased passage starts with a-m.
        vote = {"pattern": r"###DOCUMENT_START###\n[^\n]*\nAnswer: [a-m]", "response": "yes\n"}
        rules = [MockRule(**rule) for rule in QA_TAGGED_RULES + [vote]]

        def run(shard_size: int, fail_first: int) -> dict[str, bytes]:
            name = f"work_{shard_size}_{fail_first}"
            backend = {"kind": "mock", "model": "mock-model", "max_in_flight": 2, "retry_backoff_s": 0.005}
            path = write_fixture_config(
                tmp_path,
                self.DOCS,
                extra={"shard_size": shard_size, "work_dir": name, "backend": backend},
                name=f"{name}.yaml",
            )
            cfg = load_config(path)
            monkeypatch.setattr(
                pipeline,
                "make_backend",
                lambda cfg: Flaky(rules, default_response="no\n", fail_first=fail_first),
            )
            stage_preprocess(cfg)
            assert stage_rephrase(cfg)["attempts"] == {str(1 + fail_first): ANY}
            stage_postprocess(cfg)
            stage_score(cfg)
            return {
                **rephrase_outputs(cfg),
                "scores.jsonl": (cfg.work_dir / "scores" / "scores.jsonl").read_bytes(),
            }

        retried = run(3, 1)
        assert run(10_000, 1) == retried
        scores = [json.loads(line)["score"] for line in retried["scores.jsonl"].splitlines()]
        assert 0.0 in scores and 1.0 in scores
        # Retrying changes nothing but the attempts each job took.
        plain = run(10_000, 0)
        assert retried["scores.jsonl"] == plain["scores.jsonl"]
        assert retried["failed.jsonl"] == plain["failed.jsonl"] == b""
        assert retried["completions.jsonl"] == plain["completions.jsonl"].replace(
            b'"attempts": 1}', b'"attempts": 2}'
        )

    def test_passages_without_lang_refused(self, cfg):
        stage_preprocess(cfg)
        shard = cfg.work_dir / "passages" / "passages-00000.jsonl"
        rows = [json.loads(line) for line in shard.read_text(encoding="utf-8").splitlines()]
        shard.write_text(
            "".join(json.dumps({k: v for k, v in row.items() if k != "lang"}) + "\n" for row in rows),
            encoding="utf-8",
        )
        with pytest.raises(CorpusError, match=r"passages-00000\.jsonl.*'lang'.*rerun preprocess"):
            stage_rephrase(cfg)


def ledger_results(cfg) -> list[bytes]:
    path = cfg.work_dir / "rephrase" / "checkpoint.jsonl"
    return path.read_bytes().splitlines(keepends=True)[1:]


class TestRephraseLedger:
    """The ledger is rephrase's result store: outputs are built from it."""

    DOCS = make_docs(40, seed=21)

    def cfg_for(self, tmp_path, work, shard_size=3):
        path = write_fixture_config(
            tmp_path,
            self.DOCS,
            extra={"shard_size": shard_size, "work_dir": work},
            name=f"{work}.yaml",
        )
        return load_config(path)

    def test_ledger_line_is_kind_then_output_line(self, tmp_path, backends):
        cfg = self.cfg_for(tmp_path, "work")
        stage_preprocess(cfg)
        report = stage_rephrase(cfg)
        assert report["done"] > 0 and report["failed"] > 0
        outputs = rephrase_outputs(cfg)
        lines = [
            line
            for name in ("completions.jsonl", "failed.jsonl")
            for line in outputs[name].splitlines(keepends=True)
        ]
        assert len(lines) == report["jobs"]
        assert sorted(ledger_results(cfg)) == sorted(b'{"kind": "result", ' + line[1:] for line in lines)

    def test_failed_then_succeeded_key_replays_its_success(self, tmp_path, monkeypatch):
        reference = self.cfg_for(tmp_path, "reference")
        stage_preprocess(reference)
        stage_rephrase(reference)

        cfg = self.cfg_for(tmp_path, "work")
        stage_preprocess(cfg)
        make = pipeline.make_backend
        monkeypatch.setattr(pipeline, "make_backend", lambda cfg: _SpyBackend(make(cfg)))
        failed = stage_rephrase(cfg)["failed"]
        assert failed > 0
        monkeypatch.setattr(pipeline, "make_backend", make)
        retried = stage_rephrase(cfg)
        assert (retried["issued"], retried["failed"]) == (failed, 0)
        assert rephrase_outputs(cfg) == rephrase_outputs(reference)
        # Each failed key now has a failed and then a successful record.
        assert len(ledger_results(cfg)) == retried["jobs"] + failed
        replayed = stage_rephrase(cfg)
        assert replayed["replayed"] == replayed["jobs"]
        assert rephrase_outputs(cfg) == rephrase_outputs(reference)

    def test_resume_after_lost_final_newline(self, tmp_path):
        reference = self.cfg_for(tmp_path, "reference")
        stage_preprocess(reference)
        stage_rephrase(reference)

        cfg = self.cfg_for(tmp_path, "work")
        stage_preprocess(cfg)
        seen = []

        def stop_at_5(result):
            seen.append(result)
            if len(seen) == 5:
                raise _Stop()

        with pytest.raises(_Stop):
            stage_rephrase(cfg, on_result=stop_at_5)
        # Killed after writing the fifth record but before its newline:
        # the writer cuts that record, so it must not be replayed either.
        ledger = cfg.work_dir / "rephrase" / "checkpoint.jsonl"
        data = ledger.read_bytes()
        ledger.write_bytes(data[:-1])
        report = stage_rephrase(cfg)
        assert report["replayed"] == 4
        assert rephrase_outputs(cfg) == rephrase_outputs(reference)

    def test_ledger_of_only_a_torn_header_resumes_afresh(self, tmp_path):
        cfg = self.cfg_for(tmp_path, "work")
        stage_preprocess(cfg)
        first = stage_rephrase(cfg)
        outputs = rephrase_outputs(cfg)
        ledger = cfg.work_dir / "rephrase" / "checkpoint.jsonl"
        ledger.write_bytes(b'{"kind": "hea')  # killed while writing the header
        report = stage_rephrase(cfg)
        assert (report["replayed"], report["issued"]) == (0, first["jobs"])
        assert rephrase_outputs(cfg) == outputs
        assert len(ledger_results(cfg)) == first["jobs"]

    def test_replayed_line_of_another_key_refused(self, tmp_path, monkeypatch):
        cfg = self.cfg_for(tmp_path, "work")
        stage_preprocess(cfg)
        stage_rephrase(cfg)
        load = pipeline.resume

        def swapped(*args, **kwargs):
            replay = load(*args, **kwargs)
            first, second, *_ = replay
            replay[first], replay[second] = replay[second], replay[first]
            return replay

        monkeypatch.setattr(pipeline, "resume", swapped)
        with pytest.raises(StageError, match="checkpoint.jsonl holds .* where .* was recorded"):
            stage_rephrase(cfg)

    @pytest.mark.parametrize("ending", ["finished", "stopped", "bad_second_shard"])
    def test_files_closed_on_every_path(self, tmp_path, ending):
        cfg = self.cfg_for(tmp_path, "work")
        stage_preprocess(cfg)
        if ending == "bad_second_shard":
            shard = cfg.work_dir / "passages" / "passages-00001.jsonl"
            shard.write_text(shard.read_text(encoding="utf-8") + "{}\n", encoding="utf-8")
        script = f"""
import gc, sys
from rephrasing import pipeline
from rephrasing.config import load_config

class Stop(Exception):
    pass

def stop_at_5(result, seen=[]):
    seen.append(result)
    if len(seen) == 5:
        raise Stop

cfg = load_config({str(tmp_path / "work.yaml")!r})
try:
    pipeline.stage_rephrase(cfg, on_result=stop_at_5 if {ending!r} == "stopped" else None)
except Exception as exc:
    print(type(exc).__name__)
else:
    print("finished")
gc.collect()
"""
        env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        expected = {"finished": "finished", "stopped": "Stop", "bad_second_shard": "CorpusError"}
        assert proc.stdout.split() == [expected[ending]], proc.stderr
        assert "ResourceWarning" not in proc.stderr, proc.stderr


def corpus_bytes(out_dir) -> bytes:
    """Every shard of a stage output, concatenated in manifest order."""
    manifest = ShardManifest.load(out_dir / "manifest.json")
    return b"".join(path.read_bytes() for path in manifest.shard_paths(out_dir))


def report_without_seconds(path) -> dict:
    report = json.loads(path.read_text(encoding="utf-8"))
    report.pop("seconds")
    return report


class TestStreamingStages:
    """Preprocess, postprocess, filter and mix write the same records at any shard size."""

    def test_shard_size_leaves_outputs_byte_identical(self, tmp_path, backends):
        docs = make_docs(40, seed=21)
        outputs = []
        for shard_size in (3, 10_000):
            name = f"work_{shard_size}"
            sources = [("original", "input", 1.0), ("rephrased", f"{name}/rephrased", 2.0)]
            sources.append(("filtered", f"{name}/filtered", 1.0))
            mix = {
                "unit": "tokens",
                # Large enough to draw every source more than once.
                "target": 200_000.0,
                "sources": [
                    {"name": source, "manifest": f"{directory}/manifest.json", "weight": weight}
                    for source, directory, weight in sources
                ],
            }
            path = write_fixture_config(
                tmp_path,
                docs,
                extra={"shard_size": shard_size, "work_dir": name, "mix": mix},
                name=f"{name}.yaml",
            )
            reports = run_all(load_config(path))
            assert reports["rephrase"]["failed"] > 0
            assert all(row["full_passes"] > 0 for row in reports["mix"]["per_source"].values())
            work = tmp_path / name
            stages = ("rephrased", "filtered", "mixed")
            if shard_size == 3:
                assert all(len(list((work / stage).glob("shard-*.jsonl"))) > 1 for stage in stages)
            outputs.append(
                {
                    **{stage: corpus_bytes(work / stage) for stage in stages},
                    **{
                        f"{stage} report": report_without_seconds(work / stage / "report.json")
                        for stage in stages
                    },
                    "audit": (work / "rephrased" / "audit.jsonl").read_bytes(),
                    "scores": (work / "scores" / "scores.jsonl").read_bytes(),
                }
            )
        assert outputs[0] == outputs[1]

    def test_passage_shards_are_runs_of_shard_size(self, tmp_path):
        docs = make_docs(12, seed=5)

        def passages_at(shard_size):
            work = f"work_{shard_size}"
            extra = {"shard_size": shard_size, "work_dir": work}
            path = write_fixture_config(tmp_path, docs, extra=extra, name=f"{work}.yaml")
            stage_preprocess(load_config(path))
            manifest = ShardManifest.load(tmp_path / work / "passages" / "manifest.json")
            return [entry.docs for entry in manifest.shards], corpus_bytes(tmp_path / work / "passages")

        (total,), expected = passages_at(10_000)
        # total is an exact multiple of itself and of 1: no trailing empty shard.
        for shard_size in (1, 5, total):
            full, rest = divmod(total, shard_size)
            assert passages_at(shard_size) == ([shard_size] * full + [rest] * (rest > 0), expected)


class TestBackendClosed:
    def test_rephrase_and_score_close_their_backend(self, cfg, backends):
        stage_preprocess(cfg)
        stage_rephrase(cfg)
        stage_postprocess(cfg)
        stage_score(cfg)
        assert [b.closed for b in backends] == [True, True]

    def test_stopped_rephrase_closes_its_backend(self, cfg, backends):
        stage_preprocess(cfg)

        def stop(result):
            raise _Stop()

        with pytest.raises(_Stop):
            stage_rephrase(cfg, on_result=stop)
        assert [b.closed for b in backends] == [True]


class TestPostprocess:
    def test_reconciliation(self, cfg):
        stage_preprocess(cfg)
        stage_rephrase(cfg)
        report = stage_postprocess(cfg)
        dropped = sum(report["dropped_docs"].values())
        assert report["input_docs"] == report["emitted_docs"] + dropped
        assert report["passages_in"] == report["passages_accepted"] + sum(
            report["passage_rejections"].values()
        )
        audit = read_audit(cfg)
        assert len(audit) == sum(report["passage_rejections"].values()) + dropped

    def test_rephrased_docs_carry_provenance(self, cfg):
        stage_preprocess(cfg)
        stage_rephrase(cfg)
        stage_postprocess(cfg)
        manifest = ShardManifest.load(cfg.work_dir / "rephrased" / "manifest.json")
        docs = list(iter_corpus(manifest, cfg.work_dir / "rephrased"))
        assert docs
        for doc in docs:
            assert doc.provenance.kind == "rephrased"
            assert doc.provenance.template_id == "qa_opt_en"
            assert doc.provenance.model_id == "mock-model"
            assert "Question:" in doc.text

    def test_documents_missing_from_input_refused(self, tmp_path):
        docs = make_docs(20, seed=7)
        cfg = load_config(write_fixture_config(tmp_path, docs))
        stage_preprocess(cfg)
        stage_rephrase(cfg)
        # The input loses its German documents after rephrase.
        for path in (tmp_path / "input").iterdir():
            path.unlink()
        kept = [d for d in docs if d.lang != "de"]
        write_corpus(kept, tmp_path / "input", stage="input", fingerprint="input")
        with pytest.raises(StageError, match="input changed since preprocess") as exc_info:
            stage_postprocess(cfg)
        german = sorted(d.id for d in docs if d.lang == "de")
        assert f"{len(german)} document(s)" in str(exc_info.value)
        assert german[0] in str(exc_info.value)
        assert not (cfg.work_dir / "rephrased" / "manifest.json").exists()

    def test_reordered_input_refused_leaving_output(self, tmp_path):
        docs = make_docs(20, seed=7)
        cfg = load_config(write_fixture_config(tmp_path, docs))
        stage_preprocess(cfg)
        stage_rephrase(cfg)
        stage_postprocess(cfg)
        rephrased = cfg.work_dir / "rephrased"
        before = {path.name: path.read_bytes() for path in rephrased.iterdir()}
        # Same documents, reversed: the merge join cannot follow it.
        for path in (tmp_path / "input").iterdir():
            path.unlink()
        write_corpus(docs[::-1], tmp_path / "input", stage="input", fingerprint="input")
        with pytest.raises(StageError, match="no longer in the order"):
            stage_postprocess(cfg)
        assert {path.name: path.read_bytes() for path in rephrased.iterdir()} == before
        assert not (cfg.work_dir / "rephrased.tmp").exists()

    def test_legacy_regime_end_to_end(self, tmp_path):
        path = write_fixture_config(
            tmp_path, make_docs(20, seed=9), template="qa", mock_rules=QA_LEGACY_RULES
        )
        cfg = load_config(path)
        stage_preprocess(cfg)
        stage_rephrase(cfg)
        report = stage_postprocess(cfg)
        assert report["regime"] == "legacy"
        assert report["emitted_docs"] > 0
        manifest = ShardManifest.load(cfg.work_dir / "rephrased" / "manifest.json")
        for doc in iter_corpus(manifest, cfg.work_dir / "rephrased"):
            assert "Paraphrase:" not in doc.text
            assert "</s>" not in doc.text


class TestPerLanguageTemplates:
    TEMPLATE_MAP = {
        "en": "qa_opt_en",
        "de": "qa_opt_de",
        "es": "qa_opt_es",
        "it": "qa_opt_it",
    }

    def test_each_language_uses_its_template(self, tmp_path):
        docs = make_docs(24, seed=15)
        path = write_fixture_config(tmp_path, docs, extra={"template": self.TEMPLATE_MAP})
        cfg = load_config(path)
        stage_preprocess(cfg)
        stage_rephrase(cfg)
        lang_by_doc = {d.id: d.lang for d in docs}
        completions = cfg.work_dir / "rephrase" / "completions.jsonl"
        with completions.open(encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                doc_id, _, template_id = record["key"]
                assert template_id == self.TEMPLATE_MAP[lang_by_doc[doc_id]]

    def test_provenance_carries_per_doc_template(self, tmp_path):
        docs = make_docs(16, seed=16)
        path = write_fixture_config(tmp_path, docs, extra={"template": self.TEMPLATE_MAP})
        cfg = load_config(path)
        stage_preprocess(cfg)
        stage_rephrase(cfg)
        stage_postprocess(cfg)
        lang_by_doc = {d.id: d.lang for d in docs}
        manifest = ShardManifest.load(cfg.work_dir / "rephrased" / "manifest.json")
        emitted = list(iter_corpus(manifest, cfg.work_dir / "rephrased"))
        assert emitted
        for doc in emitted:
            assert doc.provenance.template_id == self.TEMPLATE_MAP[lang_by_doc[doc.id]]

    def test_uncovered_language_rejected_at_load(self, tmp_path):
        from rephrasing.config import ConfigError

        path = write_fixture_config(
            tmp_path, make_docs(4), extra={"template": {"en": "qa_opt_en"}}
        )
        with pytest.raises(ConfigError, match="language"):
            load_config(path)

    def test_mixed_extraction_modes_rejected(self, tmp_path):
        from rephrasing.config import ConfigError

        path = write_fixture_config(
            tmp_path,
            make_docs(4),
            extra={
                "languages": ["en", "de"],
                "template": {"en": "qa", "de": "qa_opt_de"},
            },
        )
        with pytest.raises(ConfigError, match="extraction"):
            load_config(path)


class TestScoreAndFilter:
    def test_report_times_issued_documents(self, tmp_path, monkeypatch):
        # Every document is scored by a vote whose first try fails at once
        # and backs off 20 ms; its second try takes 2 ms.
        class Voting(MockBackend):
            def option_logprobs(self, prompt, options):
                raise BackendError("no log-probabilities")

        backend = {
            "kind": "mock",
            "model": "mock-model",
            "max_in_flight": 4,
            "retry_backoff_s": 0.02,
            "mock": {"rules": QA_TAGGED_RULES},
        }
        path = write_fixture_config(tmp_path, make_docs(12, seed=3), extra={"backend": backend})
        cfg = load_config(path)
        stage_preprocess(cfg)
        stage_rephrase(cfg)
        docs = stage_postprocess(cfg)["emitted_docs"]
        voting = Voting(default_response="yes\n", fail_first=1, latency_s=0.002)
        monkeypatch.setattr(pipeline, "make_backend", lambda cfg: voting)
        first = stage_score(cfg)
        assert first["docs"] == docs > 4
        assert first["latency_max_s"] >= 0.022
        assert 0.002 * docs <= first["busy_s"] < 0.02 * docs
        assert 0 < first["slot_utilisation"] <= 1
        # ``seconds`` is rounded to the millisecond.
        assert first["slot_utilisation"] == pytest.approx(
            first["busy_s"] / (4 * first["seconds"]), rel=0.05
        )
        # A resume replays every score and times nothing.
        second = stage_score(cfg)
        assert [second[k] for k in ("busy_s", "latency_max_s", "slot_utilisation")] == [0, 0, 0]

    def test_scores_cover_corpus(self, cfg):
        stage_preprocess(cfg)
        stage_rephrase(cfg)
        post = stage_postprocess(cfg)
        report = stage_score(cfg)
        assert report["docs"] == post["emitted_docs"]
        assert 0.0 <= report["min_score"] <= report["max_score"] <= 1.0

    def test_filter_keeps_strictly_above(self, cfg):
        stage_preprocess(cfg)
        stage_rephrase(cfg)
        post = stage_postprocess(cfg)
        stage_score(cfg)
        report = stage_filter(cfg)
        assert report["kept"] > 0 and report["dropped"] > 0
        assert report["kept"] + report["dropped"] == post["emitted_docs"]
        manifest = ShardManifest.load(cfg.work_dir / "filtered" / "manifest.json")
        assert manifest.total_docs == report["kept"]
        scores = ingest_external_scores(cfg.work_dir / "scores" / "scores.jsonl")
        kept = list(iter_corpus(manifest, cfg.work_dir / "filtered"))
        assert len(kept) == report["kept"]
        assert all(scores[doc.id] > report["threshold"] for doc in kept)

    def test_filter_without_scores_lists_missing_ids(self, cfg):
        stage_preprocess(cfg)
        stage_rephrase(cfg)
        stage_postprocess(cfg)
        stage_score(cfg)
        stage_filter(cfg)
        filtered = cfg.work_dir / "filtered"
        before = {path.name: path.read_bytes() for path in filtered.iterdir()}
        (cfg.work_dir / "scores" / "scores.jsonl").unlink()
        with pytest.raises(MissingScoresError) as exc_info:
            stage_filter(cfg)
        rephrased = ShardManifest.load(cfg.work_dir / "rephrased" / "manifest.json")
        ids = [doc.id for doc in iter_corpus(rephrased, cfg.work_dir / "rephrased")]
        assert ids and exc_info.value.doc_ids == ids
        # The refused run leaves the earlier output as it was.
        assert {path.name: path.read_bytes() for path in filtered.iterdir()} == before
        assert sorted(path.name for path in cfg.work_dir.iterdir() if "filtered" in path.name) == [
            "filtered"
        ]

    @pytest.mark.parametrize(
        "bad_line",
        ["not json", json.dumps({"id": "late-fr", "text": "Bonjour.", "lang": "fr"})],
        ids=["malformed", "unknown_language"],
    )
    def test_bad_line_in_last_shard_refused_before_any_request(self, tmp_path, backends, bad_line):
        cfg = load_config(
            write_fixture_config(tmp_path, make_docs(20, seed=7), extra={"shard_size": 4})
        )
        stage_preprocess(cfg)
        stage_rephrase(cfg)
        stage_postprocess(cfg)
        rephrased = cfg.work_dir / "rephrased"
        shards = ShardManifest.load(rephrased / "manifest.json").shard_paths(rephrased)
        assert len(shards) > 1
        with shards[-1].open("a", encoding="utf-8") as handle:
            handle.write(bad_line + "\n")
        with pytest.raises(CorpusError, match=shards[-1].name):
            stage_score(cfg)
        assert backends[0].requests > 0
        assert sum(backend.requests for backend in backends[1:]) == 0
        assert not (cfg.work_dir / "scores").exists()

    def test_blank_document_refused_before_any_request(self, tmp_path, backends):
        docs = make_docs(30, seed=7)
        docs[20] = Document(docs[20].id, " \n\t ", docs[20].lang)
        cfg = load_config(write_fixture_config(tmp_path, docs))
        # Preprocess accepts it: it splits into no passages.
        assert stage_preprocess(cfg)["docs_without_passages"] >= 1
        with pytest.raises(CorpusError, match="cannot score empty document 'doc-000020'"):
            stage_score(cfg, cfg.input_manifest)
        assert sum(backend.requests for backend in backends) == 0
        assert not (cfg.work_dir / "scores").exists()

    def test_score_and_filter_restore_output_left_as_old(self, cfg):
        stage_preprocess(cfg)
        stage_rephrase(cfg)
        post = stage_postprocess(cfg)
        stage_score(cfg)
        stage_filter(cfg)
        work = cfg.work_dir
        filtered = {path.name: path.read_bytes() for path in (work / "filtered").iterdir()}
        # A run stopped between the two renames of the directory swap.
        for name in ("rephrased", "filtered"):
            (work / name).rename(work / f"{name}.old")
        # Score puts the rephrased corpus back and reads it, not the input.
        assert stage_score(cfg)["docs"] == post["emitted_docs"]
        assert (work / "rephrased" / "manifest.json").is_file()
        (work / "scores" / "scores.jsonl").unlink()
        with pytest.raises(MissingScoresError):
            stage_filter(cfg)
        assert {path.name: path.read_bytes() for path in (work / "filtered").iterdir()} == filtered
        assert not list(work.glob("*.old")) and not list(work.glob("*.tmp"))

    def test_external_scorer(self, tmp_path):
        docs = make_docs(6, seed=1)
        scores_path = tmp_path / "fwe.jsonl"
        rows = [{"doc_id": d.id, "score": i * 1.0} for i, d in enumerate(docs)]
        scores_path.write_text(
            "\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8"
        )
        path = write_fixture_config(
            tmp_path,
            docs,
            extra={
                "filter": {
                    "scorer": "external",
                    "threshold": 2.5,
                    "external_scores": "fwe.jsonl",
                }
            },
        )
        cfg = load_config(path)
        stage_preprocess(cfg)
        # Filter the input corpus directly (no rephrased output yet).
        report = stage_filter(cfg, manifest_path=cfg.input_manifest)
        assert report["kept"] == 3  # scores 3, 4, 5 are > 2.5


def scored_ids(path) -> list[str]:
    """Doc ids of a score ledger's records, in append order."""
    with path.open(encoding="utf-8") as handle:
        return [obj["doc_id"] for obj in map(json.loads, handle) if obj["kind"] == "result"]


class TestScoreLedger:
    """Score appends each result to scores/checkpoint.jsonl and resumes from it."""

    @pytest.fixture
    def rephrased(self, cfg):
        stage_preprocess(cfg)
        stage_rephrase(cfg)
        stage_postprocess(cfg)
        return cfg

    @pytest.fixture
    def issued(self, monkeypatch):
        """Ids of the documents score sends after fixing its scorer."""
        ids = []
        score = pipeline.askllm_score

        def spy(doc, *args, **kwargs):
            ids.append(doc.id)
            return score(doc, *args, **kwargs)

        monkeypatch.setattr(pipeline, "askllm_score", spy)
        return ids

    @pytest.mark.parametrize("at", ["first", "middle", "last_but_one"])
    def test_stop_at_kth_result_then_resume_is_byte_identical(
        self, rephrased, backends, issued, monkeypatch, at
    ):
        cfg = rephrased
        scores_dir = cfg.work_dir / "scores"
        reference = stage_score(cfg)
        expected = (scores_dir / "scores.jsonl").read_bytes()
        shutil.rmtree(scores_dir)
        n = reference["docs"]
        k = {"first": 1, "middle": n // 2, "last_but_one": n - 1}[at]

        append = CheckpointWriter.append
        appended = []

        def stop_at_k(writer, record):
            append(writer, record)
            appended.append(record)
            if len(appended) == k:
                raise _Stop()

        monkeypatch.setattr(CheckpointWriter, "append", stop_at_k)
        with pytest.raises(_Stop):
            stage_score(cfg)
        monkeypatch.setattr(CheckpointWriter, "append", append)
        recorded = scored_ids(scores_dir / "checkpoint.jsonl")
        assert recorded == [r.doc_id for r in appended]
        assert not (scores_dir / "scores.jsonl").exists()

        issued.clear()
        before = sum(b.requests for b in backends)
        resumed = stage_score(cfg)
        all_ids = list(ingest_external_scores(scores_dir / "scores.jsonl"))
        rephrased_dir = cfg.work_dir / "rephrased"
        corpus = ShardManifest.load(rephrased_dir / "manifest.json")
        assert all_ids == [doc.id for doc in iter_corpus(corpus, rephrased_dir)]
        assert sorted(issued) == sorted(set(all_ids) - set(recorded))
        # The mock backend answers each document with one log-prob request.
        assert sum(b.requests for b in backends) - before == n - k
        assert (scores_dir / "scores.jsonl").read_bytes() == expected
        clocks = dict.fromkeys(("busy_s", "latency_max_s", "slot_utilisation", "seconds"), 0)
        assert {**resumed, **clocks} == {**reference, **clocks}

    def test_second_score_issues_no_request(self, rephrased, backends):
        first = stage_score(rephrased)
        scores = (rephrased.work_dir / "scores" / "scores.jsonl").read_bytes()
        assert backends[-1].requests == first["docs"]
        second = stage_score(rephrased)
        assert backends[-1].requests == 0
        assert (rephrased.work_dir / "scores" / "scores.jsonl").read_bytes() == scores
        clocks = dict.fromkeys(("busy_s", "latency_max_s", "slot_utilisation", "seconds"), 0)
        assert {**second, **clocks} == {**first, **clocks}

    def test_score_input_after_rephrased_replays_nothing(self, rephrased, backends):
        stage_score(rephrased)
        input_report = stage_score(rephrased, manifest_path=rephrased.input_manifest)
        # Same ids, other text: every input document is scored afresh.
        assert backends[-1].requests == input_report["docs"] == 50
        fresh = rephrased.work_dir / "fresh"
        fresh_cfg = load_config(write_fixture_config(fresh, make_docs(50, seed=7)))
        stage_preprocess(fresh_cfg)
        stage_score(fresh_cfg, manifest_path=rephrased.input_manifest)
        assert (rephrased.work_dir / "scores" / "scores.jsonl").read_bytes() == (
            fresh / "work" / "scores" / "scores.jsonl"
        ).read_bytes()

    def test_backend_without_logprobs_scores_every_document_by_vote(self, rephrased, monkeypatch):
        class NoLogprobs(MockBackend):
            logprob_requests = 0

            def option_logprobs(self, prompt, options):
                self.logprob_requests += 1
                raise BackendError("unsupported")

        backend = NoLogprobs(default_response="yes\n")
        monkeypatch.setattr(pipeline, "make_backend", lambda cfg: backend)
        report = stage_score(rephrased)
        scores = [
            json.loads(line)
            for line in (rephrased.work_dir / "scores" / "scores.jsonl").read_text().splitlines()
        ]
        assert report["scorers"] == ["ask_llm_vote:mock-model"]
        assert {s["scorer"] for s in scores} == {"ask_llm_vote:mock-model"}
        assert report["docs"] == len(scores) > 1
        # Only the first document asks for log-probabilities.
        assert backend.logprob_requests == 1
        # One vote request per document: at temperature 0 more would repeat it.
        assert backend.calls == len(scores)

    def test_logprob_failure_fails_stage_and_keeps_ledger(self, rephrased, monkeypatch):
        cfg = rephrased
        rephrased_dir = cfg.work_dir / "rephrased"
        docs = list(iter_corpus(ShardManifest.load(rephrased_dir / "manifest.json"), rephrased_dir))
        refused = docs[len(docs) // 2]

        class OneRefused(MockBackend):
            def option_logprobs(self, prompt, options):
                if refused.text[:200] in prompt:
                    raise BackendError("prompt refused")
                return super().option_logprobs(prompt, options)

        monkeypatch.setattr(pipeline, "make_backend", lambda cfg: OneRefused())
        with pytest.raises(BackendError, match="prompt refused"):
            stage_score(cfg)
        ledger = cfg.work_dir / "scores" / "checkpoint.jsonl"
        recorded = scored_ids(ledger)
        assert recorded and refused.id not in recorded
        assert all(
            obj["scorer"] == "ask_llm:mock-model"
            for obj in map(json.loads, ledger.read_text(encoding="utf-8").splitlines()[1:])
        )

        monkeypatch.setattr(pipeline, "make_backend", lambda cfg: MockBackend())
        report = stage_score(cfg)
        assert report["scorers"] == ["ask_llm:mock-model"]
        assert scored_ids(ledger)[: len(recorded)] == recorded

    def test_http_backend_without_model_labels_scores_http(self, tmp_path, monkeypatch):
        path = write_fixture_config(
            tmp_path,
            make_docs(5, seed=3),
            extra={"backend": {"kind": "http", "endpoint": "http://127.0.0.1:9/v1/completions"}},
        )
        cfg = load_config(path)
        stage_preprocess(cfg)
        monkeypatch.setattr(pipeline, "make_backend", lambda cfg: MockBackend())
        report = stage_score(cfg, manifest_path=cfg.input_manifest)
        assert report["scorers"] == ["ask_llm:http"]


class TestMixAndStats:
    def test_mix_requires_config(self, cfg):
        stage_preprocess(cfg)
        with pytest.raises(StageError, match="mix"):
            stage_mix(cfg)

    def test_one_to_one_mix(self, tmp_path):
        docs = make_docs(30, seed=3)
        path = write_fixture_config(
            tmp_path,
            docs,
            extra={
                "mix": {
                    "unit": "tokens",
                    "sources": [
                        {"name": "original", "manifest": "input/manifest.json", "weight": 1.0},
                        {"name": "rephrased", "manifest": "work/rephrased/manifest.json", "weight": 1.0},
                    ],
                }
            },
        )
        cfg = load_config(path)
        stage_preprocess(cfg)
        stage_rephrase(cfg)
        stage_postprocess(cfg)
        report = stage_mix(cfg)
        assert set(report["per_source"]) == {"original", "rephrased"}
        manifest = ShardManifest.load(cfg.work_dir / "mixed" / "manifest.json")
        assert manifest.total_docs == sum(r["docs"] for r in report["per_source"].values())

    def test_remix_of_earlier_mix_in_place(self, tmp_path):
        def mix_config(name, sources):
            mix = {
                "unit": "tokens",
                "sources": [
                    {"name": source, "manifest": manifest, "weight": 1.0}
                    for source, manifest in sources
                ],
            }
            return load_config(
                write_fixture_config(
                    tmp_path, make_docs(30, seed=3), extra={"shard_size": 4, "mix": mix}, name=name
                )
            )

        cfg = mix_config(
            "first.yaml",
            [("original", "input/manifest.json"), ("rephrased", "work/rephrased/manifest.json")],
        )
        stage_preprocess(cfg)
        stage_rephrase(cfg)
        stage_postprocess(cfg)
        stage_mix(cfg)
        mixed = cfg.work_dir / "mixed"
        shutil.copytree(mixed, tmp_path / "earlier")
        # Mixing the earlier mix from a copy gives the expected shards ...
        from_copy = mix_config(
            "copy.yaml", [("original", "input/manifest.json"), ("earlier", "earlier/manifest.json")]
        )
        expected = stage_mix(from_copy)
        expected_bytes = corpus_bytes(mixed)
        shutil.rmtree(mixed)
        shutil.copytree(tmp_path / "earlier", mixed)
        # ... and mixing it from mixed/, which the output replaces, gives the same.
        in_place = mix_config(
            "in_place.yaml",
            [("original", "input/manifest.json"), ("earlier", "work/mixed/manifest.json")],
        )
        report = stage_mix(in_place)
        assert corpus_bytes(mixed) == expected_bytes
        assert report["per_source"] == expected["per_source"]
        assert len(ShardManifest.load(mixed / "manifest.json").shards) > 1

    def test_failed_mix_leaves_earlier_output(self, tmp_path, monkeypatch):
        mix = {
            "unit": "documents",
            "sources": [
                {"name": "original", "manifest": "input/manifest.json", "weight": 1.0},
                {"name": "rephrased", "manifest": "work/rephrased/manifest.json", "weight": 1.0},
            ],
        }
        cfg = load_config(write_fixture_config(tmp_path, make_docs(20, seed=5), extra={"mix": mix}))
        stage_preprocess(cfg)
        stage_rephrase(cfg)
        stage_postprocess(cfg)
        stage_mix(cfg)
        mixed = cfg.work_dir / "mixed"
        before = {path.name: path.read_bytes() for path in mixed.iterdir()}
        read_document_at = mixing.read_document_at
        reads = 0

        def fail_on_fifth_read(*args):
            nonlocal reads
            reads += 1
            if reads == 5:
                raise OSError("scripted read failure")
            return read_document_at(*args)

        # The mix fails while it writes its shards.
        monkeypatch.setattr(mixing, "read_document_at", fail_on_fifth_read)
        with pytest.raises(OSError, match="scripted"):
            stage_mix(cfg)
        assert {path.name: path.read_bytes() for path in mixed.iterdir()} == before
        assert not (cfg.work_dir / "mixed.tmp").exists()

    def test_stats_table_and_reconciliation(self, cfg):
        stage_preprocess(cfg)
        stage_rephrase(cfg)
        stage_postprocess(cfg)
        report = stage_stats(cfg)
        assert "mio. docs" in report["table"]
        names = [row["name"] for row in report["datasets"]]
        assert names[0] == "input"
        assert "rephrased" in names
        assert report["reconciliation"]["input_docs"] == (
            report["reconciliation"]["emitted_docs"]
            + sum(report["reconciliation"]["dropped_docs"].values())
        )
        assert (cfg.work_dir / "stats" / "stats.txt").is_file()
        assert (cfg.work_dir / "stats" / "stats.json").is_file()

    def test_stats_needs_something(self, tmp_path):
        path = write_fixture_config(tmp_path, make_docs(1))
        cfg = load_config(path)
        (tmp_path / "input" / "manifest.json").unlink()
        with pytest.raises(StageError):
            stage_stats(cfg)


class TestRunAll:
    def test_chains_all_stages(self, cfg):
        reports = run_all(cfg)
        assert list(reports) == ["preprocess", "rephrase", "postprocess", "score", "filter", "stats"]
        assert reports["stats"]["reconciliation"]

    def test_external_scorer_skips_score(self, tmp_path, monkeypatch):
        docs = make_docs(40, seed=7)
        rows = [{"doc_id": d.id, "score": i % 4 * 0.25} for i, d in enumerate(docs)]
        (tmp_path / "fwe.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        scorer = {"scorer": "external", "threshold": 0.3, "external_scores": "fwe.jsonl"}
        cfg = load_config(write_fixture_config(tmp_path, docs, extra={"filter": scorer}))
        scored = []
        option_logprobs = MockBackend.option_logprobs

        def counted(backend, prompt, options):
            scored.append(prompt)
            return option_logprobs(backend, prompt, options)

        monkeypatch.setattr(MockBackend, "option_logprobs", counted)
        reports = run_all(cfg)
        assert list(reports) == ["preprocess", "rephrase", "postprocess", "filter", "stats"]
        assert scored == [] and not (cfg.work_dir / "scores").exists()
        filtered = cfg.work_dir / "filtered"
        outputs = _untimed_files(filtered)
        # The filter reads the external file, so the score stage changes nothing of it.
        stage_score(cfg)
        assert scored
        assert _untimed(stage_filter(cfg)) == _untimed(reports["filter"])
        assert _untimed_files(filtered) == outputs

    def test_meta_values_carried_through_as_parsed_json(self, tmp_path):
        meta = {"url": None, "token_count": 3, "language_score": 0.91, "tags": ["a"], "src": "x"}
        docs = [
            Document(doc.id, doc.text, doc.lang, meta=meta) for doc in make_docs(12, seed=3)
        ]
        rows = [{"doc_id": doc.id, "score": 1.0} for doc in docs]
        (tmp_path / "fwe.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        scorer = {"scorer": "external", "threshold": 0.3, "external_scores": "fwe.jsonl"}
        mix = {
            "unit": "documents",
            "sources": [
                {"name": "rephrased", "manifest": "work/rephrased/manifest.json", "weight": 1.0}
            ],
        }
        cfg = load_config(
            write_fixture_config(tmp_path, docs, extra={"filter": scorer, "mix": mix})
        )
        run_all(cfg)
        for name in ("rephrased", "filtered", "mixed"):
            out = cfg.work_dir / name
            read = list(iter_corpus(ShardManifest.load(out / "manifest.json"), out, None))
            assert read and all(doc.meta == meta for doc in read), name


def _untimed(report: dict) -> dict:
    return {key: value for key, value in report.items() if key != "seconds"}


def _untimed_files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.name != "report.json"}
