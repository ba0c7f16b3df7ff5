from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from rephrasing import pipeline
from rephrasing.cli import main
from rephrasing.inference import BackendError

from conftest import make_docs, write_fixture_config


def run(argv) -> int:
    return main([str(a) for a in argv])


class TestExitCodes:
    def test_preprocess_ok(self, tmp_path, capsys):
        path = write_fixture_config(tmp_path, make_docs(10, seed=2))
        assert run(["preprocess", "-c", path]) == 0
        out = capsys.readouterr().out
        assert '"docs_in": 10' in out
        assert (tmp_path / "work" / "passages" / "manifest.json").is_file()

    def test_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as exc_info:
            run(["preprocess"])  # missing --config
        assert exc_info.value.code == 1

    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as exc_info:
            run(["explode"])
        assert exc_info.value.code == 1

    def test_bad_config_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("nonsense_key: true\n", encoding="utf-8")
        assert run(["preprocess", "-c", bad]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config_text",
        [
            "template: nope\n",
            "template: {en: qa_opt_en, de: nope, es: qa_opt_es, it: qa_opt_it}\n",
        ],
        ids=["single", "per_language"],
    )
    def test_unknown_template_exits_1(self, tmp_path, capsys, config_text):
        config = tmp_path / "config.yaml"
        config.write_text(config_text, encoding="utf-8")
        assert run(["preprocess", "-c", config]) == 1
        assert "config error: " in capsys.readouterr().err

    def test_missing_custom_template_file_exits_1(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text("custom_templates: [{id: c, file: missing.txt}]\n", encoding="utf-8")
        assert run(["preprocess", "-c", config]) == 1
        err = capsys.readouterr().err
        assert "config error: custom template 'c'" in err
        assert "missing.txt" in err

    def test_missing_stage_input_exits_2(self, tmp_path, capsys):
        path = write_fixture_config(tmp_path, make_docs(3))
        assert run(["rephrase", "-c", path]) == 2
        assert "data error" in capsys.readouterr().err

    def test_malformed_line_in_directory_shard_exits_2(self, tmp_path, capsys):
        path = write_fixture_config(tmp_path, make_docs(3), extra={"input_manifest": "input"})
        shard = next((tmp_path / "input").glob("*.jsonl"))
        with shard.open("a", encoding="utf-8") as handle:
            handle.write("{not json\n")
        assert run(["preprocess", "-c", path]) == 2
        err = capsys.readouterr().err
        assert "data error" in err
        assert shard.name in err

    def test_filter_without_scores_exits_2_listing_ids(self, tmp_path, capsys):
        path = write_fixture_config(tmp_path, make_docs(5, seed=4))
        assert run(["preprocess", "-c", path]) == 0
        assert run(["rephrase", "-c", path]) == 0
        assert run(["postprocess", "-c", path]) == 0
        capsys.readouterr()
        assert run(["filter", "-c", path, "--threshold", "0.97"]) == 2
        err = capsys.readouterr().err
        assert "missing scores" in err
        assert "doc-" in err

    @pytest.mark.parametrize(
        "extra, where",
        [
            ({"filter": {"scorer": "externl", "threshold": 0.6}}, "filter.scorer"),
            (
                {
                    "mix": {
                        "unit": "token",
                        "sources": [{"name": "original", "manifest": "input/manifest.json"}],
                    }
                },
                "mix.unit",
            ),
        ],
        ids=["scorer", "mix_unit"],
    )
    def test_run_all_refuses_bad_choice_before_any_work(self, tmp_path, capsys, extra, where):
        path = write_fixture_config(tmp_path, make_docs(5, seed=4), extra=extra)
        assert run(["run-all", "-c", path]) == 1
        assert f"{where}: expected one of" in capsys.readouterr().err
        assert not (tmp_path / "work").exists()

    def test_logprob_failure_in_logprob_run_exits_3(self, tmp_path, capsys, monkeypatch):
        make = pipeline.make_backend
        calls = []

        def make_failing_later(cfg):
            backend = make(cfg)
            option_logprobs = backend.option_logprobs

            def fail_after_first(prompt, options):
                calls.append(prompt)
                if len(calls) > 1:
                    raise BackendError("logprobs no longer served")
                return option_logprobs(prompt, options)

            backend.option_logprobs = fail_after_first
            return backend

        path = write_fixture_config(tmp_path, make_docs(5, seed=4))
        for command in ("preprocess", "rephrase", "postprocess"):
            assert run([command, "-c", path]) == 0
        monkeypatch.setattr(pipeline, "make_backend", make_failing_later)
        assert run(["score", "-c", path]) == 3
        assert "backend error: logprobs no longer served" in capsys.readouterr().err

    def test_auth_failure_exits_3(self, tmp_path, capsys):
        path = write_fixture_config(
            tmp_path,
            make_docs(3, seed=5),
            extra={
                "backend": {
                    "kind": "mock",
                    "model": "mock-model",
                    "mock": {"auth_fail": True},
                }
            },
        )
        assert run(["preprocess", "-c", path]) == 0
        assert run(["rephrase", "-c", path]) == 3
        assert "backend error" in capsys.readouterr().err


def _undecodable_sixth_document(shard: Path) -> None:
    lines = shard.read_bytes().splitlines(keepends=True)
    lines[5] = lines[5].replace(b'"text": "', b'"text": "\xff', 1)
    shard.write_bytes(b"".join(lines))


def _records_split_by_lone_cr(shard: Path) -> None:
    shard.write_bytes(shard.read_bytes().replace(b"\n", b"\r"))


def _sixth_document_text_null(shard: Path) -> None:
    lines = shard.read_bytes().splitlines(keepends=True)
    obj = json.loads(lines[5])
    obj["text"] = None
    lines[5] = (json.dumps(obj) + "\n").encode("utf-8")
    shard.write_bytes(b"".join(lines))


class TestBadShardRefusedByEveryReader:
    """Preprocess, mix and score read a corpus shard the same way, so
    each refuses the same bad line with a data error."""

    @pytest.mark.parametrize(
        "corrupt, where",
        [
            (_undecodable_sixth_document, "line 6"),
            (_records_split_by_lone_cr, "line 1"),
            (_sixth_document_text_null, "line 6"),
        ],
        ids=["undecodable_byte", "lone_cr", "text_null"],
    )
    def test_exits_2_naming_shard_and_line(self, tmp_path, capsys, corrupt, where):
        mix = {
            "unit": "documents",
            "sources": [{"name": "original", "manifest": "input/manifest.json", "weight": 1.0}],
        }
        path = write_fixture_config(tmp_path, make_docs(8, seed=5), extra={"mix": mix})
        assert run(["preprocess", "-c", path]) == 0
        shard = next((tmp_path / "input").glob("*.jsonl"))
        corrupt(shard)
        capsys.readouterr()
        for command in (
            ["preprocess"],
            ["mix"],
            ["score", "--input", tmp_path / "input" / "manifest.json"],
        ):
            assert run([*command, "-c", path]) == 2, command
            err = capsys.readouterr().err
            assert err.startswith("data error: "), command
            assert shard.name in err and f"first at {where}" in err, command
        assert not (tmp_path / "work" / "scores").exists()


def _snapshot(directory: Path) -> dict[str, bytes]:
    """Every file under ``directory`` but a stage's temporary ones."""
    return {
        p.relative_to(directory).as_posix(): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file() and not p.name.endswith(".tmp")
    }


def _insert_line(path: Path, index: int, line: bytes) -> None:
    lines = path.read_bytes().splitlines(keepends=True)
    lines.insert(index, line)
    path.write_bytes(b"".join(lines))


def _external_scores(tmp_path: Path, docs) -> tuple[Path, dict]:
    scores = tmp_path / "fwe.jsonl"
    rows = [{"doc_id": doc.id, "score": i % 4 * 0.25} for i, doc in enumerate(docs)]
    scores.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    return scores, {"scorer": "external", "threshold": 0.3, "external_scores": str(scores)}


class TestRecordFilesReadOneWay:
    """Every JSON Lines file a stage reads refuses a bad line the same
    way, with exit 2 naming the file and its first bad line and the
    stage's output left as it was, and skips a blank line."""

    @pytest.mark.parametrize(
        "name, index, line, command, output",
        [
            ("rephrase/completions.jsonl", 2, b"{not json\n", "postprocess", "rephrased"),
            ("rephrase/failed.jsonl", 0, b'{"key": ["doc-000001", "x", "qa"]}\n', "postprocess",
             "rephrased"),
            ("passages/passages-00000.jsonl", 1, b'{"doc_id": "\xff"}\n', "rephrase", "rephrase"),
        ],
        ids=["completions_not_json", "failed_bad_key", "passages_not_utf8"],
    )
    def test_bad_line_exits_2_naming_file_and_line(
        self, tmp_path, capsys, name, index, line, command, output
    ):
        path = write_fixture_config(tmp_path, make_docs(12, seed=5))
        for stage in ("preprocess", "rephrase", "postprocess"):
            assert run([stage, "-c", path]) == 0
        work = tmp_path / "work"
        before = _snapshot(work / output)
        _insert_line(work / name, index, line)
        capsys.readouterr()
        assert run([command, "-c", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert f"{Path(name).name}: 1 bad line(s); first at line {index + 1}: " in err
        assert _snapshot(work / output) == before

    def test_score_file_not_utf8_exits_2(self, tmp_path, capsys):
        docs = make_docs(12, seed=5)
        scores, scorer = _external_scores(tmp_path, docs)
        path = write_fixture_config(tmp_path, docs, extra={"filter": scorer})
        filter_input = ["filter", "--input", tmp_path / "input" / "manifest.json", "-c", path]
        assert run(["preprocess", "-c", path]) == 0
        assert run(filter_input) == 0
        before = _snapshot(tmp_path / "work" / "filtered")
        _insert_line(scores, 4, b'{"doc_id": "caf\xe9", "score": 0.5}\n')  # Latin-1
        capsys.readouterr()
        assert run(filter_input) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert "fwe.jsonl: 1 bad line(s); first at line 5: " in err and "utf-8" in err
        assert _snapshot(tmp_path / "work" / "filtered") == before

    def test_blank_lines_in_corpus_shard_and_score_file_change_nothing(self, tmp_path):
        docs = make_docs(12, seed=5)
        outputs = []
        for name in ("plain", "blank"):
            root = tmp_path / name
            root.mkdir()
            scores, scorer = _external_scores(root, docs)
            path = write_fixture_config(root, docs, extra={"filter": scorer})
            if name == "blank":
                for record_file in (root / "input" / "shard-00000.jsonl", scores):
                    _insert_line(record_file, 0, b"\n")
                    _insert_line(record_file, 4, b" \t\r\n")
                    _insert_line(record_file, 9, b"\n")
                    record_file.write_bytes(record_file.read_bytes() + b"  ")
            assert run(["run-all", "-c", path]) == 0
            outputs.append(tree_bytes(root / "work"))
        assert outputs[0] == outputs[1]
        assert "filtered/shard-00000.jsonl" in outputs[0]


class TestBadLedgerRecord:
    """A complete ledger line that is JSON but no record stops the stage
    with a data error naming the ledger and the line, and the ledger
    stays as it was."""

    def test_rephrase(self, tmp_path, capsys):
        path = write_fixture_config(tmp_path, make_docs(6, seed=5))
        for stage in ("preprocess", "rephrase"):
            assert run([stage, "-c", path]) == 0
        ledger = tmp_path / "work" / "rephrase" / "checkpoint.jsonl"
        lineno = len(ledger.read_bytes().splitlines()) + 1
        ledger.write_bytes(ledger.read_bytes() + b"[1, 2]\n")
        before = ledger.read_bytes()
        capsys.readouterr()
        assert run(["rephrase", "-c", path]) == 2
        assert f"checkpoint.jsonl: line {lineno}: " in capsys.readouterr().err
        assert ledger.read_bytes() == before

    @pytest.mark.parametrize("score", [b"2.0", b'"x"'], ids=["out_of_range", "not_a_number"])
    def test_score_keeps_the_ledger(self, tmp_path, capsys, score):
        path = write_fixture_config(tmp_path, make_docs(6, seed=5))
        for stage in ("preprocess", "rephrase", "postprocess", "score"):
            assert run([stage, "-c", path]) == 0
        ledger = tmp_path / "work" / "scores" / "checkpoint.jsonl"
        lineno = len(ledger.read_bytes().splitlines()) + 1
        record = b'{"kind": "result", "doc_id": "doc-000001", "score": %s, "scorer": "ask_llm:m"}\n'
        ledger.write_bytes(ledger.read_bytes() + record % score)
        before = ledger.read_bytes()
        capsys.readouterr()
        assert run(["score", "-c", path]) == 2
        assert f"checkpoint.jsonl: line {lineno}: " in capsys.readouterr().err
        assert ledger.read_bytes() == before


class TestInputResolution:
    def test_stats_refuses_a_configured_input_it_cannot_read(self, tmp_path, capsys):
        docs = make_docs(6, seed=5)
        path = write_fixture_config(tmp_path, docs)
        for stage in ("preprocess", "rephrase", "postprocess"):
            assert run([stage, "-c", path]) == 0
        absent = write_fixture_config(
            tmp_path, docs, extra={"input_manifest": "absent/manifest.json"}, name="absent.yaml"
        )
        capsys.readouterr()
        assert run(["stats", "-c", absent]) == 2
        assert "absent" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, name, text",
        [
            ("score", "input/shard-00000.jsonl", None),
            ("filter", "no_fingerprint.json", '{"stage": "input", "shards": []}\n'),
        ],
        ids=["score_shard", "filter_no_fingerprint"],
    )
    def test_input_that_is_no_manifest_exits_2(self, tmp_path, capsys, command, name, text):
        path = write_fixture_config(tmp_path, make_docs(6, seed=5))
        assert run(["preprocess", "-c", path]) == 0
        if text is not None:
            (tmp_path / name).write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert run([command, "--input", tmp_path / name, "-c", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: manifest ") and Path(name).name in err


class TestCommands:
    def test_templates_listing(self, capsys):
        assert run(["templates"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 10
        assert "qa_opt_de" in out

    def test_templates_language_filter(self, capsys):
        assert run(["templates", "--language", "es"]) == 0
        assert capsys.readouterr().out.strip().splitlines() == [
            "qa_opt_es        es   tagged"
        ]

    def test_run_all_emits_stats(self, tmp_path, capsys):
        path = write_fixture_config(tmp_path, make_docs(30, seed=6))
        assert run(["run-all", "-c", path]) == 0
        out = capsys.readouterr().out
        assert "mio. docs" in out
        assert (tmp_path / "work" / "stats" / "stats.json").is_file()

    def test_score_then_filter(self, tmp_path, capsys):
        path = write_fixture_config(tmp_path, make_docs(12, seed=8))
        for command in ("preprocess", "rephrase", "postprocess", "score"):
            assert run([command, "-c", path]) == 0
        assert run(["filter", "-c", path, "--threshold", "0.5"]) == 0
        assert (tmp_path / "work" / "filtered" / "manifest.json").is_file()


def tree_bytes(root: Path) -> dict[str, bytes]:
    """Deterministic output files: shards, manifests, stats, calibration."""
    out = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(root).as_posix()
        if path.name in ("checkpoint.jsonl", "report.json", "throughput.json"):
            continue
        out[rel] = path.read_bytes()
    return out


class TestComposability:
    def test_run_all_equals_stagewise(self, tmp_path):
        docs = make_docs(25, seed=10)
        all_cfg = write_fixture_config(
            tmp_path, docs, extra={"work_dir": "work_all"}, name="all.yaml"
        )
        stage_cfg = write_fixture_config(
            tmp_path, docs, extra={"work_dir": "work_stage"}, name="stage.yaml"
        )
        assert run(["run-all", "-c", all_cfg]) == 0
        for command in ("preprocess", "rephrase", "postprocess", "score", "filter", "stats"):
            assert run([command, "-c", stage_cfg]) == 0
        assert tree_bytes(tmp_path / "work_all") == tree_bytes(tmp_path / "work_stage")


def test_cli_import_loads_no_requests():
    code = "import sys, rephrasing.cli; print('requests' in sys.modules)"
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=src,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "False"
