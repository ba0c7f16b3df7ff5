from __future__ import annotations

import json
import math
import random

import pytest

from rephrasing.corpus import CorpusError, Document
from rephrasing.inference import (
    BackendConfig,
    BackendError,
    CheckpointWriter,
    Completion,
    CompletionBackend,
    MockBackend,
    TransientBackendError,
    load_checkpoint,
)
from rephrasing.quality import (
    MissingScoresError,
    QualityError,
    ScoredDocument,
    askllm_score,
    askllm_score_first,
    ingest_external_scores,
    render_scoring_prompt,
    score_from_logprobs,
    threshold_filter,
    truncate_for_scoring,
)


class TestScoreFromLogprobs:
    def test_certain_affirmative(self):
        assert score_from_logprobs(0.0, -math.inf) == 1.0

    def test_certain_negative(self):
        assert score_from_logprobs(-math.inf, 0.0) == 0.0

    def test_derived_three_to_one(self):
        # p(yes)=0.3, p(no)=0.1 -> 0.3 / 0.4 = 0.75.
        score = score_from_logprobs(math.log(0.3), math.log(0.1))
        assert math.isclose(score, 0.75, rel_tol=1e-12)

    def test_equal_logprobs_half(self):
        assert score_from_logprobs(-2.0, -2.0) == 0.5
        assert score_from_logprobs(-math.inf, -math.inf) == 0.5

    def test_always_in_unit_interval(self):
        rng = random.Random(0)
        for _ in range(5000):
            lp_yes = rng.uniform(-1000, 10)
            lp_no = rng.uniform(-1000, 10)
            if rng.random() < 0.05:
                lp_yes = -math.inf
            if rng.random() < 0.05:
                lp_no = -math.inf
            score = score_from_logprobs(lp_yes, lp_no)
            assert 0.0 <= score <= 1.0

    def test_shift_invariance(self):
        rng = random.Random(1)
        for _ in range(2000):
            lp_yes = rng.uniform(-50, 0)
            lp_no = rng.uniform(-50, 0)
            shift = rng.uniform(-100, 100)
            base = score_from_logprobs(lp_yes, lp_no)
            shifted = score_from_logprobs(lp_yes + shift, lp_no + shift)
            assert math.isclose(base, shifted, rel_tol=1e-9, abs_tol=1e-12)


class TestTruncation:
    def test_15k_token_doc_cut_to_10k(self, quarter_estimator):
        text = "x" * 60_000  # est 15k tokens at 0.25
        cut = truncate_for_scoring(text, quarter_estimator)
        assert len(cut) == 40_000  # est exactly 10k tokens
        prompt = render_scoring_prompt(cut)
        assert "x" * 40_000 in prompt
        assert "x" * 40_001 not in prompt

    def test_short_doc_untouched(self, quarter_estimator):
        assert truncate_for_scoring("short text", quarter_estimator) == "short text"


class TestAskLlmScore:
    def doc(self, text="informative text about the world.", lang="en"):
        return Document("d1", text, lang)

    def test_logprob_path(self, quarter_estimator):
        backend = MockBackend(logprob_rules=[("informative", math.log(0.3), math.log(0.1))])
        scored = askllm_score(self.doc(), backend, quarter_estimator, scorer="ask_llm:m")
        assert math.isclose(scored.score, 0.75, rel_tol=1e-12)
        assert scored.scorer == "ask_llm:m"

    def test_first_document_picks_log_probs_when_given(self, quarter_estimator):
        backend = MockBackend(logprob_rules=[("informative", math.log(0.3), math.log(0.1))])
        scored = askllm_score_first(self.doc(), backend, quarter_estimator, model_id="m")
        assert math.isclose(scored.score, 0.75, rel_tol=1e-12)
        assert scored.scorer == "ask_llm:m"
        assert backend.calls == 0

    def test_voting_fallback_tagged_distinctly(self, quarter_estimator):
        class NoLogprobs(CompletionBackend):
            def complete(self, prompt, *, temperature, stop, max_tokens):
                return Completion("yes\n", "stop_sequence", "m")

            def option_logprobs(self, prompt, options):
                raise BackendError("unsupported")

        scored = askllm_score_first(self.doc(), NoLogprobs(), quarter_estimator, model_id="m")
        assert scored.score == 1.0
        assert scored.scorer == "ask_llm_vote:m"

    def test_permanent_logprob_error_never_switches_to_voting(self, quarter_estimator):
        class NoLogprobs(MockBackend):
            def option_logprobs(self, prompt, options):
                raise BackendError("unsupported")

        backend = NoLogprobs(default_response="yes\n")
        with pytest.raises(BackendError, match="unsupported"):
            askllm_score(self.doc(), backend, quarter_estimator, scorer="ask_llm:m")
        assert backend.calls == 0

    def test_vote_requests_retried(self, quarter_estimator):
        class NoLogprobs(MockBackend):
            def option_logprobs(self, prompt, options):
                raise BackendError("unsupported")

        backend = NoLogprobs(default_response="yes\n", fail_first=1)
        scored = askllm_score(
            self.doc(), backend, quarter_estimator, scorer="ask_llm_vote:m",
            backend_cfg=BackendConfig(retry_backoff_s=0.0),
        )
        assert scored.score == 1.0
        # One vote, sent twice: the scripted failure and its retry.
        assert backend.calls == 2

    def test_transient_logprob_error_does_not_switch_to_voting(self, quarter_estimator):
        class Busy(MockBackend):
            def option_logprobs(self, prompt, options):
                raise TransientBackendError("busy")

        backend = Busy(default_response="yes\n")
        with pytest.raises(TransientBackendError):
            askllm_score_first(self.doc(), backend, quarter_estimator, model_id="m")
        assert backend.calls == 0

    def test_empty_document_rejected(self, quarter_estimator):
        with pytest.raises(QualityError):
            askllm_score(
                Document("d", " ", "en"), MockBackend(), quarter_estimator, scorer="ask_llm:m"
            )
        with pytest.raises(QualityError):
            ScoredDocument("d", 1.5, "ask_llm:m")

    def test_prompt_contains_document_and_options(self, quarter_estimator):
        prompt = render_scoring_prompt("DOCBODY")
        assert "###DOCUMENT_START###\nDOCBODY\n###DOCUMENT_END###" in prompt
        assert "yes\nno" in prompt
        assert prompt.endswith("Choice:")

    def test_document_holding_placeholders_is_scored_as_written(self):
        text = "keep {options} and {document} as they are"
        prompt = render_scoring_prompt(text)
        assert f"###DOCUMENT_START###\n{text}\n###DOCUMENT_END###" in prompt
        assert prompt.count("yes\nno") == 1


class TestThresholdFilter:
    DOCS = [
        Document("a", "text a " * 10, "en"),
        Document("b", "text b " * 10, "en"),
        Document("c", "text c " * 10, "en"),
    ]
    SCORES = {"a": 0.98, "b": 0.7, "c": 0.5}

    def test_point_six_keeps_a_b(self):
        kept, report = threshold_filter(self.DOCS, self.SCORES, 0.6)
        assert [d.id for d in kept] == ["a", "b"]
        assert report.kept == 2
        assert report.dropped == 1

    def test_point_97_keeps_a(self):
        kept, _ = threshold_filter(self.DOCS, self.SCORES, 0.97)
        assert [d.id for d in kept] == ["a"]

    def test_strictly_greater(self):
        kept, _ = threshold_filter(self.DOCS, self.SCORES, 0.7)
        assert [d.id for d in kept] == ["a"]

    def test_monotonicity_on_random_tables(self):
        rng = random.Random(2)
        for _ in range(50):
            docs = [Document(f"d{i}", "t" * 20, "en") for i in range(30)]
            scores = {d.id: rng.random() for d in docs}
            low, _ = threshold_filter(docs, scores, 0.6)
            high, _ = threshold_filter(docs, scores, 0.97)
            assert {d.id for d in high} <= {d.id for d in low}

    def test_missing_scores_abort_listing_ids(self):
        with pytest.raises(MissingScoresError) as exc_info:
            threshold_filter(self.DOCS, {"a": 0.9}, 0.5)
        assert exc_info.value.doc_ids == ["b", "c"]
        assert "b" in str(exc_info.value)

    def test_report_conservation(self, quarter_estimator):
        kept, report = threshold_filter(self.DOCS, self.SCORES, 0.6, quarter_estimator)
        assert report.kept + report.dropped == len(self.DOCS)
        assert report.kept_tokens > 0 and report.dropped_tokens > 0


class TestScoreIO:
    def test_ingest_three_records(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        rows = [{"doc_id": f"d{i}", "score": i / 10} for i in range(3)]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        table = ingest_external_scores(path)
        assert table == {"d0": 0.0, "d1": 0.1, "d2": 0.2}

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text(
            '{"doc_id": "dup", "score": 1}\n{"doc_id": "dup", "score": 2}\n', encoding="utf-8"
        )
        with pytest.raises(QualityError, match="dup"):
            ingest_external_scores(path)

    def test_malformed_record_rejected(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"doc_id": "a"}\n', encoding="utf-8")
        with pytest.raises(CorpusError, match="first at line 1:"):
            ingest_external_scores(path)
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            ingest_external_scores(path)

    @pytest.mark.parametrize(
        "line, accepted",
        [
            ('{"doc_id": "b", "score": -3.5}', True),
            ('{"doc_id": "b", "score": true}', False),
            ('{"doc_id": "b", "score": NaN}', False),
            ('{"doc_id": "b", "score": -Infinity}', False),
            ('{"doc_id": "b", "score": "0.9"}', False),
            ('{"doc_id": 7, "score": 0.9}', False),
            ('{"doc_id": "b", "score": 1' + "0" * 400 + "}", False),
        ],
        ids=["negative", "bool", "nan", "infinity", "string", "int_id", "huge_int"],
    )
    def test_score_values_that_change_a_score_refused(self, tmp_path, line, accepted):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"doc_id": "a", "score": 0.5}\n' + line + "\n", encoding="utf-8")
        if accepted:
            assert ingest_external_scores(path) == {"a": 0.5, "b": -3.5}
            return
        with pytest.raises(CorpusError, match=r"scores\.jsonl: 1 bad line\(s\); first at line 2:"):
            ingest_external_scores(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text(
            '\n{"doc_id": "a", "score": 0.5}\n  \t\n\n{"doc_id": "b", "score": 1}\n \n',
            encoding="utf-8",
        )
        assert ingest_external_scores(path) == {"a": 0.5, "b": 1.0}

    def test_fwe_style_range_with_2p5_threshold(self, tmp_path):
        # External educational-value scores live in [0, 5]; the 2.5
        # threshold keeps strictly-greater documents.
        path = tmp_path / "fwe.jsonl"
        rows = [{"doc_id": f"d{i}", "score": i * 0.5} for i in range(11)]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        table = ingest_external_scores(path)
        docs = [Document(f"d{i}", "x" * 20, "en") for i in range(11)]
        kept, _ = threshold_filter(docs, table, 2.5)
        assert [d.id for d in kept] == [f"d{i}" for i in range(6, 11)]

    def test_write_then_load_round_trip(self, tmp_path):
        scores = [ScoredDocument("a", 0.5, "ask_llm:m"), ScoredDocument("b", 0.25, "ask_llm:m")]
        ledger = tmp_path / "checkpoint.jsonl"
        with CheckpointWriter(ledger, "fp") as writer:
            for score in scores:
                writer.append(score)
        replayed = load_checkpoint(ledger, "fp", lambda obj, *_: ScoredDocument.from_obj(obj))
        assert list(replayed.values()) == scores
        # One scorer string serves every replayed score.
        assert replayed["a"].scorer is replayed["b"].scorer
        path = tmp_path / "scores.jsonl"
        path.write_text("".join(json.dumps(s.to_obj()) + "\n" for s in scores), encoding="utf-8")
        assert ingest_external_scores(path) == {"a": 0.5, "b": 0.25}

    def test_scored_document_has_no_instance_dict(self):
        scored = ScoredDocument("a", 0.5, "ask_llm:m")
        assert not hasattr(scored, "__dict__")
        assert scored.key == "a" and scored.failed is False
