from __future__ import annotations

import gc
import json
import math
import signal
import sys
import threading
import time
import weakref

import pytest

from rephrasing.config import PipelineConfig
from rephrasing.corpus import CorpusError
from rephrasing.inference import (
    AuthError,
    BackendConfig,
    BackendError,
    CheckpointMismatchError,
    CheckpointWriter,
    Completion,
    CompletionBackend,
    JobKey,
    LedgerLine,
    MockBackend,
    MockRule,
    RephraseJob,
    RephraseResult,
    TransientBackendError,
    load_checkpoint,
    pull_map,
    record_line,
    resume,
    run_batch,
    schedule,
)
from rephrasing.prompts import RenderedPrompt
from rephrasing.quality import ScoredDocument

CFG = BackendConfig(max_in_flight=4, max_retries=3, retry_backoff_s=0.0)

ECHO_RULES = [MockRule(r"PROMPT (\d+)", r"OK \1</text>")]


def make_job(i: int, length: int = 0) -> RephraseJob:
    prompt = RenderedPrompt(
        doc_id=f"doc{i:03d}",
        index=0,
        template_id="qa_opt_en",
        text=f"PROMPT {i:03d} " + "x" * length,
        stop=("</text>", "</s>"),
        temperature=0.0,
    )
    return RephraseJob(key=JobKey(prompt.doc_id, 0, prompt.template_id), prompt=prompt)


def make_jobs(n: int) -> list[RephraseJob]:
    return [make_job(i) for i in range(n)]


class TestSchedule:
    def test_sorted_by_length_restored_on_output(self):
        jobs = [make_job(0, 900), make_job(1, 100), make_job(2, 500)]
        plan = schedule(jobs)
        # Longest first.
        assert list(plan.order) == [0, 2, 1]
        results = run_batch(jobs, MockBackend(ECHO_RULES), CFG, plan=plan)
        assert [r.key.doc_id for r in results] == ["doc000", "doc001", "doc002"]

    def test_equal_lengths_stable(self):
        jobs = [make_job(i, 50) for i in range(10)]
        assert list(schedule(jobs).order) == list(range(10))

    def test_single_job_identity(self):
        plan = schedule([make_job(0)])
        assert plan.order == (0,)
        assert plan.buckets == ((0, 1),)

    def test_buckets_cover_all(self):
        jobs = [make_job(i, i) for i in range(150)]
        plan = schedule(jobs, bucket_size=64)
        assert [b for b in plan.buckets] == [(0, 64), (64, 128), (128, 150)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            schedule([])


class TestMockBackend:
    def test_stop_sequence_included_and_marked(self):
        backend = MockBackend(ECHO_RULES)
        completion = backend.complete(
            "PROMPT 007 x", temperature=0.0, stop=("</text>",), max_tokens=100
        )
        assert completion.text == "OK 007</text>"
        assert completion.finish == "stop_sequence"

    def test_no_stop_is_length_cap(self):
        backend = MockBackend(default_response="runs on and on")
        completion = backend.complete("anything", temperature=0.0, stop=("</s>",), max_tokens=10)
        assert completion.finish == "length_cap"

    def test_first_matching_rule_wins(self):
        backend = MockBackend(
            [MockRule("special", "A</s>"), MockRule(".", "B</s>")]
        )
        assert backend.complete("special case", temperature=0, stop=("</s>",), max_tokens=9).text == "A</s>"
        assert backend.complete("other", temperature=0, stop=("</s>",), max_tokens=9).text == "B</s>"

    def test_logprob_rules_and_default_hash(self):
        backend = MockBackend(logprob_rules=[("good", 0.0, -5.0)])
        assert backend.option_logprobs("a good doc", ["yes", "no"]) == [0.0, -5.0]
        first = backend.option_logprobs("some doc", ["yes", "no"])
        second = backend.option_logprobs("some doc", ["yes", "no"])
        assert first == second
        assert all(math.isfinite(v) for v in first)


class TestRunBatch:
    def test_hundred_jobs_all_done(self):
        jobs = make_jobs(100)
        results = run_batch(jobs, MockBackend(ECHO_RULES), CFG)
        assert len(results) == 100
        assert all(not r.failed for r in results)
        assert [r.key for r in results] == [j.key for j in jobs]
        assert results[42].text == "OK 042</text>"

    def test_fail_first_attempt_retried(self):
        jobs = make_jobs(20)
        backend = MockBackend(ECHO_RULES, fail_first=1)
        results = run_batch(jobs, backend, CFG)
        assert all(not r.failed for r in results)
        assert all(r.attempts == 2 for r in results)

    def test_exhausted_retries_mark_failed_run_continues(self):
        jobs = make_jobs(10)
        backend = MockBackend(ECHO_RULES, fail_first=99)
        results = run_batch(jobs, backend, CFG)
        assert all(r.failed for r in results)
        assert all(r.attempts == CFG.max_retries for r in results)

    def test_auth_failure_aborts(self):
        with pytest.raises(AuthError):
            run_batch(make_jobs(5), MockBackend(auth_fail=True), CFG)

    def test_exactly_once_each_key(self):
        jobs = make_jobs(50)
        results = run_batch(jobs, MockBackend(ECHO_RULES, fail_first=2), CFG)
        assert len({r.key for r in results}) == 50

    def test_permanent_backend_error_marks_failed(self):
        class Permanent(CompletionBackend):
            def complete(self, prompt, *, temperature, stop, max_tokens):
                raise BackendError("no such model")

        results = run_batch(make_jobs(3), Permanent(), CFG)
        assert all(r.failed for r in results)
        assert all(r.attempts == 1 for r in results)

    def test_concurrency_bound_and_serialised_on_result(self, tmp_path):
        class Sleepy(MockBackend):
            def __init__(self):
                super().__init__(ECHO_RULES, latency_s=0.002)
                self.active = 0
                self.peak = 0

            def complete(self, prompt, **kwargs):
                with self._lock:
                    self.active += 1
                    self.peak = max(self.peak, self.active)
                try:
                    return super().complete(prompt, **kwargs)
                finally:
                    with self._lock:
                        self.active -= 1

        cfg = BackendConfig(max_in_flight=8, max_retries=1)
        backend = Sleepy()
        path = tmp_path / "cp.jsonl"
        inside = []
        overlaps = []
        seen = set()

        def on_result(result):
            inside.append(result.key)
            overlaps.append(len(inside))
            seen.add(result.key)
            # Appended before it is reported, and nothing else is recorded.
            assert set(load_checkpoint(path, "fp")) == seen
            time.sleep(0.0005)
            inside.remove(result.key)

        threads_before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with CheckpointWriter(path, "fp") as checkpoint:
                returned = run_batch(
                    make_jobs(64), backend, cfg, checkpoint=checkpoint, on_result=on_result
                )
        finally:
            sys.setswitchinterval(interval)
        # The ledger holds the results; run_batch keeps none of them.
        assert returned is None
        assert all(not r.failed for r in load_checkpoint(path, "fp").values())
        assert 1 < backend.peak <= cfg.max_in_flight
        assert max(overlaps) == 1
        assert len(seen) == 64
        assert threading.active_count() == threads_before


class Recording(CompletionBackend):
    """Records each request's job number in the order requests start, and
    the most requests outstanding at once.

    ``failures[i]`` of job i's first tries fail transiently (every job's
    ``fail_first`` when absent), job i's tries take ``latency[i]`` seconds
    (``default_latency`` when absent), and job i raises ``errors[i]``.
    """

    def __init__(self, *, fail_first=0, failures=None, latency=None, default_latency=0.0, errors=None):
        self.fail_first = fail_first
        self.failures = failures or {}
        self.latency = latency or {}
        self.default_latency = default_latency
        self.errors = errors or {}
        self.lock = threading.Lock()
        self.started: list[int] = []
        self.outstanding = 0
        self.peak = 0
        self.peak_threads = 0

    def complete(self, prompt, *, temperature, stop, max_tokens):
        job = int(prompt.split()[1])
        with self.lock:
            tries = self.started.count(job)
            self.started.append(job)
            self.outstanding += 1
            self.peak = max(self.peak, self.outstanding)
            self.peak_threads = max(self.peak_threads, threading.active_count())
        try:
            time.sleep(self.latency.get(job, self.default_latency))
            if job in self.errors:
                raise self.errors[job]
            if tries < self.failures.get(job, self.fail_first):
                raise TransientBackendError("busy")
            return Completion(f"OK {job:03d}</text>", "stop_sequence")
        finally:
            with self.lock:
                self.outstanding -= 1


class TestBackoffFreesSlot:
    """A job waiting out a retry backoff holds no request slot."""

    def test_cap_holds_while_jobs_back_off(self):
        backend = Recording(fail_first=2, default_latency=0.001)
        cfg = BackendConfig(max_in_flight=3, max_retries=3, retry_backoff_s=0.002)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = run_batch(make_jobs(60), backend, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert [r.text for r in results] == [f"OK {i:03d}</text>" for i in range(60)]
        assert all(r.attempts == 3 for r in results)
        assert len(backend.started) == 180
        assert backend.peak == cfg.max_in_flight

    def test_other_job_finishes_during_backoff(self):
        backend = Recording(failures={0: 1})
        cfg = BackendConfig(max_in_flight=1, max_retries=2, retry_backoff_s=0.2)
        done = []
        results = run_batch(make_jobs(3), backend, cfg, on_result=lambda r: done.append(r.key.doc_id))
        assert all(not r.failed for r in results)
        assert done == ["doc001", "doc002", "doc000"]
        assert backend.started == [0, 1, 2, 0]
        assert backend.peak == 1

    def test_woken_retry_takes_next_slot_before_new_job(self):
        # Job 0 wakes while job 1 holds the only slot; job 2 waits for job 0.
        backend = Recording(failures={0: 1}, latency={1: 0.3})
        cfg = BackendConfig(max_in_flight=1, max_retries=2, retry_backoff_s=0.05)
        results = run_batch(make_jobs(5), backend, cfg)
        assert [r.attempts for r in results] == [2, 1, 1, 1, 1]
        assert backend.started == [0, 1, 0, 2, 3, 4]
        assert backend.peak == 1

    @pytest.mark.parametrize("stop_after_s", [0.0, 0.3], ids=["asleep", "awake_waiting"])
    def test_stop_during_backoff_sends_no_further_request(self, stop_after_s):
        # Job 1 aborts the run while job 0 still sleeps, or after job 0
        # has woken and waits for the slot job 1 holds.
        backend = Recording(
            failures={0: 1}, latency={1: stop_after_s}, errors={1: AuthError("revoked")}
        )
        cfg = BackendConfig(max_in_flight=1, max_retries=2, retry_backoff_s=0.1)
        threads_before = threading.active_count()
        with pytest.raises(AuthError, match="revoked"):
            run_batch(make_jobs(5), backend, cfg)
        assert backend.started == [0, 1]
        assert threading.active_count() == threads_before

    def test_at_most_twice_max_in_flight_threads(self):
        backend = Recording(fail_first=1, default_latency=0.001)
        cfg = BackendConfig(max_in_flight=2, max_retries=2, retry_backoff_s=0.003)
        threads_before = threading.active_count()
        results = run_batch(make_jobs(80), backend, cfg)
        assert all(r.attempts == 2 for r in results)
        spawned = backend.peak_threads - threads_before
        assert cfg.max_in_flight < spawned <= 2 * cfg.max_in_flight
        assert backend.peak <= cfg.max_in_flight
        assert threading.active_count() == threads_before


class TestPullMapOverIterator:
    """pull_map pulls from a plain iterator lazily, under its lock."""

    def test_results_in_item_order(self):
        # More workers than cores and a short switch interval, so pulls
        # and result writes interleave as much as they can.
        calls = []

        def fn(i):
            calls.append(i)
            time.sleep(0.0001 * (i % 3))
            return i * 10

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = pull_map(fn, iter(range(2000)), 32)
        finally:
            sys.setswitchinterval(interval)
        assert results == [i * 10 for i in range(2000)]
        assert sorted(calls) == list(range(2000))

    def test_keep_false_holds_no_result(self):
        class Result:
            pass

        refs = []
        returned = pull_map(
            lambda i: Result(), iter(range(50)), 4, lambda r: refs.append(weakref.ref(r)), keep=False
        )
        assert returned is None
        gc.collect()
        assert len(refs) == 50 and all(ref() is None for ref in refs)

    def test_at_most_max_workers_taken_and_unfinished(self):
        lock = threading.Lock()
        unfinished = 0
        peak = 0

        def items():
            nonlocal unfinished, peak
            for i in range(60):
                with lock:
                    unfinished += 1
                    peak = max(peak, unfinished)
                yield i

        def fn(i):
            nonlocal unfinished
            time.sleep(0.001)
            with lock:
                unfinished -= 1
            return i

        assert pull_map(fn, items(), 4) == list(range(60))
        assert 1 < peak <= 4

    def test_nothing_pulled_after_first_error(self):
        pulled = []

        def items():
            for i in range(100):
                pulled.append(i)
                yield i

        def fn(i):
            if i == 2:
                raise ValueError("boom")
            # The other two workers finish well after the error is recorded.
            time.sleep(0.2)
            return i

        threads_before = threading.active_count()
        with pytest.raises(ValueError, match="boom"):
            pull_map(fn, items(), 3)
        assert pulled == [0, 1, 2]
        assert threading.active_count() == threads_before

    def test_iterator_error_stops_pool_and_is_reraised(self):
        class ShardBroken(Exception):
            pass

        done = []

        def items():
            yield from range(5)
            raise ShardBroken("bad line")

        def fn(i):
            done.append(i)
            return i

        threads_before = threading.active_count()
        with pytest.raises(ShardBroken, match="bad line"):
            pull_map(fn, items(), 3, on_done=lambda result: None)
        assert sorted(done) == list(range(5))
        assert threading.active_count() == threads_before


class TestCheckpoint:
    def test_append_and_load(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        result = RephraseResult(JobKey("d", 0, "qa"), "text", "stop_sequence", "mock", 1)
        with CheckpointWriter(path, "fp1") as writer:
            writer.append(result)
        loaded = load_checkpoint(path, "fp1")
        assert loaded[result.key].text == "text"

    def test_fingerprint_mismatch_aborts(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        with CheckpointWriter(path, "fp1"):
            pass
        with pytest.raises(CheckpointMismatchError):
            load_checkpoint(path, "fp2")
        with pytest.raises(CheckpointMismatchError):
            CheckpointWriter(path, "fp2")

    def test_truncated_final_line_tolerated(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        result = RephraseResult(JobKey("d", 0, "qa"), "text", "stop_sequence")
        with CheckpointWriter(path, "fp") as writer:
            writer.append(result)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "result", "key": ["e", 1')  # mid-write crash
        loaded = load_checkpoint(path, "fp")
        assert list(loaded) == [result.key]

    def test_tail_torn_inside_a_character_tolerated(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        with CheckpointWriter(path, "fp") as writer:
            for doc_id in ("a", "b"):
                writer.append(RephraseResult(JobKey(doc_id, 0, "qa"), "größe", "stop_sequence"))
        data = path.read_bytes()
        path.write_bytes(data[: data.rindex("ö".encode("utf-8")) + 1])  # killed mid-"ö"
        assert [key.doc_id for key in load_checkpoint(path, "fp")] == ["a"]

    def test_positions_locate_each_appended_line(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        results = [RephraseResult(JobKey(d, 0, "qa"), "größe " + d, "stop_sequence") for d in "abc"]
        positions = []
        with CheckpointWriter(path, "fp") as writer:
            for result in results:
                writer.append(result)
                positions.append(writer.position)
        data = path.read_bytes()
        lines = [data[offset : offset + length] for offset, length in positions]
        assert lines == data.splitlines(keepends=True)[1:]
        assert [record_line(line) for line in lines] == [
            (json.dumps(r.to_obj(), ensure_ascii=False) + "\n").encode("utf-8") for r in results
        ]
        located = load_checkpoint(path, "fp", LedgerLine.from_obj, located=True)
        assert [(line.offset, line.length) for line in located.values()] == positions
        assert not any(line.failed for line in located.values())

    def test_append_after_torn_tail_starts_a_new_line(self, tmp_path):
        path = tmp_path / "cp.jsonl"

        def result(doc_id):
            return RephraseResult(JobKey(doc_id, 0, "qa"), "text", "stop_sequence")

        with CheckpointWriter(path, "fp") as writer:
            writer.append(result("a"))
            writer.append(result("b"))
        with path.open("rb+") as handle:  # killed while appending b
            handle.truncate(path.stat().st_size - 10)
        with CheckpointWriter(path, "fp") as writer:
            writer.append(result("b"))
            writer.append(result("c"))
        assert [key.doc_id for key in resume(path, "fp")] == ["a", "b", "c"]

    def test_torn_header_newline_rewritten(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        path.write_text('{"kind": "header", "fingerprint": "fp"}', encoding="utf-8")
        with CheckpointWriter(path, "fp") as writer:
            writer.append(RephraseResult(JobKey("a", 0, "qa"), "text", "stop_sequence"))
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2
        assert [key.doc_id for key in resume(path, "fp")] == ["a"]

    def test_torn_header_reads_as_empty_and_is_rewritten(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        path.write_bytes(b'{"kind": "hea')  # killed while writing the header
        assert load_checkpoint(path, "fp") == {}
        assert resume(path, "fp") == {}
        with CheckpointWriter(path, "fp") as writer:
            writer.append(RephraseResult(JobKey("a", 0, "qa"), "text", "stop_sequence"))
        header, *_ = path.read_text(encoding="utf-8").splitlines()
        assert json.loads(header) == {"kind": "header", "fingerprint": "fp"}
        assert [key.doc_id for key in resume(path, "fp")] == ["a"]

    @pytest.mark.parametrize(
        "first",
        [b'{"kind": "header", "fingerprint": "other"}\n', b"[1, 2]\n", b'"header"\n', b"{}\n"],
        ids=["other_fingerprint", "list", "string", "no_kind"],
    )
    def test_complete_first_line_not_this_header_refused(self, tmp_path, first):
        path = tmp_path / "cp.jsonl"
        path.write_bytes(first + b'{"kind": "result", "key": ["a", 0')
        with pytest.raises(CheckpointMismatchError):
            load_checkpoint(path, "fp")
        with pytest.raises(CheckpointMismatchError):
            CheckpointWriter(path, "fp")

    @pytest.mark.parametrize(
        "record, parse",
        [
            ("[1, 2]", "rephrase"),
            ('{"kind": "result", "key": ["b", 0, "qa"], "text": "t", "finish": "stop_sequence"}',
             "rephrase"),
            ('{"kind": "result", "doc_id": "b", "score": "x", "scorer": "ask_llm:m"}', "score"),
            ('{"kind": "result", "doc_id": "b", "score": 2.0, "scorer": "ask_llm:m"}', "score"),
        ],
        ids=["not_an_object", "no_attempts", "score_not_a_number", "score_out_of_range"],
    )
    def test_bad_complete_record_names_ledger_and_line(self, tmp_path, record, parse):
        path = tmp_path / "cp.jsonl"
        good = {
            "rephrase": RephraseResult(JobKey("a", 0, "qa"), "text", "stop_sequence"),
            "score": ScoredDocument("a", 0.5, "ask_llm:m"),
        }[parse]
        with CheckpointWriter(path, "fp") as writer:
            writer.append(good)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(record + "\n")
        parser = {"rephrase": LedgerLine.from_obj, "score": ScoredDocument.from_obj}[parse]
        with pytest.raises(CorpusError, match=r"cp\.jsonl: line 3: "):
            load_checkpoint(path, "fp", parser, located=parse == "rephrase")

    def test_complete_line_not_json_skipped(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        with CheckpointWriter(path, "fp") as writer:
            writer.append(RephraseResult(JobKey("a", 0, "qa"), "text", "stop_sequence"))
        with path.open("ab") as handle:
            handle.write(b'{"kind": "result", "key": ["b"\n\xff\n')
        with CheckpointWriter(path, "fp") as writer:
            writer.append(RephraseResult(JobKey("c", 0, "qa"), "text", "stop_sequence"))
        assert [key.doc_id for key in load_checkpoint(path, "fp")] == ["a", "c"]

    def test_missing_checkpoint_is_empty(self, tmp_path):
        assert load_checkpoint(tmp_path / "absent.jsonl", "fp") == {}

    def test_latency_not_serialized(self):
        result = RephraseResult(JobKey("d", 0, "qa"), "t", "stop_sequence", latency_s=1.23)
        assert "latency" not in json.dumps(result.to_obj())


class TestResume:
    def run_with_kill(self, jobs, path, kill_after):
        class Killed(Exception):
            pass

        seen = 0

        def bomb(result):
            nonlocal seen
            seen += 1
            if seen >= kill_after:
                raise Killed()

        backend = MockBackend(ECHO_RULES)
        with CheckpointWriter(path, "fp") as checkpoint:
            with pytest.raises(Killed):
                run_batch(jobs, backend, CFG, checkpoint=checkpoint, on_result=bomb)
        return backend

    def test_kill_at_50_resume_issues_exactly_50(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        jobs = make_jobs(100)
        self.run_with_kill(jobs, path, kill_after=50)

        fresh_jobs = make_jobs(100)
        replayed = resume(path, "fp")
        assert len(replayed) == 50
        assert sum(job.key not in replayed for job in fresh_jobs) == 50
        resumed_backend = MockBackend(ECHO_RULES)
        todo = [job for job in fresh_jobs if job.key not in replayed]
        with CheckpointWriter(path, "fp") as checkpoint:
            run_batch(todo, resumed_backend, CFG, checkpoint=checkpoint)
        recorded = load_checkpoint(path, "fp")
        results = [recorded[job.key] for job in fresh_jobs]
        assert resumed_backend.calls == 50
        uninterrupted = run_batch(make_jobs(100), MockBackend(ECHO_RULES), CFG)
        assert [r.to_obj() for r in results] == [r.to_obj() for r in uninterrupted]

    def test_kill_at_50_wastes_at_most_in_flight_minus_one(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        backend = self.run_with_kill(make_jobs(100), path, kill_after=50)
        assert len(load_checkpoint(path, "fp")) == 50
        assert backend.calls <= 50 + CFG.max_in_flight - 1

    @pytest.mark.skipif(
        signal.getsignal(signal.SIGINT) is not signal.default_int_handler,
        reason="needs Python's default SIGINT handler",
    )
    def test_interrupt_stops_issuing_and_records_only_reported(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        seen = []

        def interrupt_at_10(result):
            seen.append(result.key)
            if len(seen) == 10:
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

        backend = MockBackend(ECHO_RULES, latency_s=0.001)
        with CheckpointWriter(path, "fp") as checkpoint:
            with pytest.raises(KeyboardInterrupt):
                run_batch(make_jobs(200), backend, CFG, checkpoint=checkpoint, on_result=interrupt_at_10)
        assert list(load_checkpoint(path, "fp")) == seen
        assert backend.calls <= len(seen) + CFG.max_in_flight
        assert backend.calls < 200

    def test_checkpointed_run_keeps_no_result(self, tmp_path):
        refs = []
        with CheckpointWriter(tmp_path / "cp.jsonl", "fp") as checkpoint:
            returned = run_batch(
                make_jobs(40),
                MockBackend(ECHO_RULES),
                CFG,
                checkpoint=checkpoint,
                on_result=lambda r: refs.append(weakref.ref(r)),
            )
        assert returned is None
        gc.collect()
        assert len(refs) == 40 and all(ref() is None for ref in refs)
        assert len(load_checkpoint(tmp_path / "cp.jsonl", "fp")) == 40

    def test_resume_with_empty_checkpoint_runs_all(self, tmp_path):
        assert resume(tmp_path / "cp.jsonl", "fp") == {}

    def test_resume_after_completion_issues_zero(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        jobs = make_jobs(10)
        with CheckpointWriter(path, "fp") as checkpoint:
            run_batch(jobs, MockBackend(ECHO_RULES), CFG, checkpoint=checkpoint)
        replayed = resume(path, "fp")
        assert set(replayed) == {job.key for job in jobs}
        backend = MockBackend(ECHO_RULES)
        todo = [job for job in make_jobs(10) if job.key not in replayed]
        assert run_batch(todo, backend, CFG) == []
        assert backend.calls == 0

    def test_failed_jobs_rerun_on_resume(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        jobs = make_jobs(5)
        with CheckpointWriter(path, "fp") as checkpoint:
            run_batch(jobs, MockBackend(ECHO_RULES, fail_first=99), CFG, checkpoint=checkpoint)
        assert len(load_checkpoint(path, "fp")) == 5
        assert resume(path, "fp") == {}


class TestCompletionDataclasses:
    def test_result_round_trip(self):
        result = RephraseResult(JobKey("d", 2, "qa"), "body", "length_cap", "m", 3)
        assert RephraseResult.from_obj(result.to_obj()) == result

    def test_backend_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            BackendConfig(max_in_flight=0)
        with pytest.raises(ValueError, match="temperature"):
            PipelineConfig(config_dir=tmp_path, work_dir=tmp_path, temperature=-1.0)

    def test_completion_defaults(self):
        assert Completion("x", "stop_sequence").model_id == ""
