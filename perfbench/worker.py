"""One benchmark process: set up a workload, run its steps, report.

Usage: ``python3 worker.py SPEC.json RESULT.json``.  The spec names the
workload, corpus size, seed, directory and the steps to run, and says
whether to set up first, whether to trace, and which endpoint to use.
Each run gets a fresh process so that CPU time and peak RSS belong to
that run alone.  With ``"probe": true`` the process runs the ordering
probe instead.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from rephrasing import (  # noqa: E402
    config,
    corpus,
    inference,
    mixing,
    pipeline,
    postprocess,
    prompts,
    quality,
    splitting,
    tokens,
)
from rephrasing.inference import CompletionBackend, ExecutionPlan, JobKey, RephraseJob  # noqa: E402

from pace import Pacer, probe, scale  # noqa: E402
from stub import CPUS, Stub  # noqa: E402
from tracer import NAME, PARENT, START, END, THREAD, Tracer, rebind  # noqa: E402
from workloads import (  # noqa: E402
    INPUT_SHARD_SIZE,
    WORKLOADS,
    Workload,
    iter_documents,
    scaled,
    stop_fraction,
    write_config,
)

SETUPS = 3


class StopRun(Exception):
    """Raised by resume_legacy's on_result hook to stop the rephrase."""


class Counts:
    """Backend calls seen at the boundary, shared by every backend made."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        # Completion requests that returned a result, and results that
        # reached the checkpoint; the difference is wasted work.
        self.completions = 0
        self.checkpointed = 0

    def add(self, field: str) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + 1)


class CountingBackend(CompletionBackend):
    """Proxy around the backend ``pipeline.make_backend`` returns."""

    def __init__(self, inner: CompletionBackend, counts: Counts, tracer: Tracer | None):
        self._inner = inner
        self._counts = counts
        self._tracer = tracer

    def _call(self, name: str, fn, *args, **kwargs):
        if self._tracer is None:
            return fn(*args, **kwargs)
        return self._tracer.call(name, fn, *args, **kwargs)

    def complete(self, prompt, **kwargs):
        self._counts.add("requests")
        completion = self._call("backend.complete", self._inner.complete, prompt, **kwargs)
        self._counts.add("completions")
        return completion

    def option_logprobs(self, prompt, options):
        self._counts.add("requests")
        return self._call("backend.option_logprobs", self._inner.option_logprobs, prompt, options)


def _set_up_once(root: Path, workload: Workload, seed: int, documents: list, endpoint: str | None):
    started = time.perf_counter()
    corpus.write_corpus(
        documents, root / "input", stage="input", fingerprint="input", shard_size=INPUT_SHARD_SIZE
    )
    seconds = time.perf_counter() - started

    stub = None
    try:
        if workload.http and endpoint is None:
            started = time.perf_counter()
            stub = Stub()
            seconds += time.perf_counter() - started
            endpoint = stub.url
        path = write_config(root, workload, seed, endpoint or "")

        started = time.perf_counter()
        cfg = config.load_config(path)
        seconds += time.perf_counter() - started
    except BaseException:
        if stub is not None:
            stub.stop()
        raise
    return cfg, stub, seconds


def set_up(root: Path, workload: Workload, seed: int, endpoint: str | None):
    """Write the input corpus, start the stub, load the config.

    Returns (config, own stub or None, set-up seconds, set-up seconds
    at the reference pace).  Set-up runs SETUPS times over the same
    files, each between two pace probes, and the median times count;
    the last set-up is the one used.  Generating the documents and
    writing the config file are benchmark work and are left out.
    """
    documents = list(iter_documents(workload, seed))
    times, paced = [], []
    for attempt in range(SETUPS):
        before = probe()
        cfg, stub, seconds = _set_up_once(root, workload, seed, documents, endpoint)
        times.append(seconds)
        paced.append(seconds * scale(before, probe()))
        if stub is not None and attempt < SETUPS - 1:
            stub.stop()
    return cfg, stub, statistics.median(times), statistics.median(paced)


def _stopped_rephrase(cfg, seed: int) -> dict:
    jobs = corpus.ShardManifest.load(cfg.work_dir / "passages" / "manifest.json").total_docs
    stop_at = max(1, int(stop_fraction(seed) * jobs))
    seen = 0

    def hook(result) -> None:
        nonlocal seen
        seen += 1
        if seen >= stop_at:
            raise StopRun

    try:
        pipeline.stage_rephrase(cfg, on_result=hook)
    except StopRun:
        pass
    else:
        raise RuntimeError(f"rephrase finished before the stop at job {stop_at}")
    checkpoint = cfg.work_dir / "rephrase" / "checkpoint.jsonl"
    return {"stage": "rephrase_stopped", "stop_at": stop_at, "checkpoint_bytes": checkpoint.stat().st_size}


def run_step(step: str, cfg, seed: int) -> dict:
    """Run one step; returns {stage name: report}."""
    if step == "run_all":
        return pipeline.run_all(cfg)
    if step == "rephrase_stopped":
        return {step: _stopped_rephrase(cfg, seed)}
    return {step: getattr(pipeline, f"stage_{step}")(cfg)}


def _rusage() -> resource.struct_rusage:
    return resource.getrusage(resource.RUSAGE_SELF)


def _cpu(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


class TraceSession:
    """Spans around each module's public functions plus per-stage counters."""

    def __init__(self, counts: Counts, stub: Stub | None):
        self.tracer = Tracer()
        self.counts = counts
        self.stub = stub
        self.stages: list[dict] = []
        self.results: list = []
        self._install()

    def _requests(self) -> int:
        return self.stub.stats()["requests"] if self.stub else self.counts.requests

    def _stage(self, name: str, fn):
        traced = self.tracer.stage(f"pipeline.{name}", fn)

        def run(*args, **kwargs):
            before = (_rusage(), self._requests(), self.counts.completions)
            try:
                return traced(*args, **kwargs)
            finally:
                after = (_rusage(), self._requests(), self.counts.completions)
                self.stages.append(
                    {
                        "name": name,
                        "cpu_s": _cpu(after[0]) - _cpu(before[0]),
                        "nvcsw": after[0].ru_nvcsw - before[0].ru_nvcsw,
                        "requests": after[1] - before[1],
                        "completions": after[2] - before[2],
                    }
                )

        return run

    def _install(self) -> None:
        t = self.tracer
        for name in pipeline.RUN_ALL_ORDER:
            original = getattr(pipeline, f"stage_{name}")
            rebind(original, self._stage(name, original))

        def corpus_span(manifest, *args, **kwargs) -> str:
            return "corpus.iter_corpus[input]" if manifest.stage == "input" else "corpus.iter_corpus"

        rebind(corpus.iter_corpus, t.generator(corpus_span, corpus.iter_corpus))
        for module, name in (
            (corpus, "write_corpus"),
            (tokens, "calibrate"),
            (splitting, "split_document"),
            (prompts, "render"),
            (inference, "load_checkpoint"),
            (postprocess, "clean_passage"),
            (postprocess, "assemble_document"),
            (quality, "askllm_score"),
            (quality, "threshold_filter"),
            (mixing, "execute_mix"),
        ):
            original = getattr(module, name)
            rebind(original, t.function(f"{module.__name__.split('.')[-1]}.{name}", original))

        original_batch = inference.run_batch

        def run_batch(*args, on_result=None, **kwargs):
            def record(result) -> None:
                self.results.append(result)
                if on_result is not None:
                    on_result(result)

            return original_batch(*args, on_result=record, **kwargs)

        rebind(original_batch, t.function("inference.run_batch", run_batch))

        original_append = inference.CheckpointWriter.append

        def append(writer, result) -> None:
            if not result.failed:
                self.counts.add("checkpointed")
            original_append(writer, result)

        inference.CheckpointWriter.append = t.function("inference.checkpoint_append", append)


def _stage_of(spans: list, index: int) -> str | None:
    while index is not None:
        if spans[index][NAME].startswith("pipeline."):
            return spans[index][NAME].split(".", 1)[1]
        index = spans[index][PARENT]
    return None


def _tail_idle(spans: list, batch: list, slots: int) -> float:
    """Time from the first slot's last completion to the end of the batch."""
    last_end: dict[int, float] = {}
    for span in spans:
        if span[NAME] == "backend.complete" and batch[START] <= span[START] <= batch[END]:
            last_end[span[THREAD]] = max(last_end.get(span[THREAD], 0.0), span[END])
    if len(last_end) < slots:
        return batch[END] - batch[START]
    return batch[END] - min(last_end.values())


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(session: TraceSession, reports: dict, cfg) -> dict:
    spans = session.tracer.spans
    agg = session.tracer.aggregate()

    def self_s(name: str) -> float:
        return agg.get(name, {}).get("self_s", 0.0)

    slots = cfg.backend.max_in_flight
    rephrase_stages = [s for s in session.stages if s["name"] == "rephrase"]
    io_stages = [s for s in session.stages if s["name"] in ("rephrase", "score")]
    score_stages = [s for s in session.stages if s["name"] == "score"]
    rephrase_wall = sum(s[END] - s[START] for s in spans if s[NAME] == "pipeline.rephrase")
    batches = [s for s in spans if s[NAME] == "inference.run_batch"]
    batch_wall = sum(b[END] - b[START] for b in batches)
    complete_s = sum(
        s[END] - s[START]
        for i, s in enumerate(spans)
        if s[NAME] == "backend.complete" and _stage_of(spans, i) == "rephrase"
    )
    issued = len(session.results)
    rephrase_requests = sum(s["requests"] for s in rephrase_stages)
    io_requests = sum(s["requests"] for s in io_stages)
    scored = reports["score"]["docs"]
    post = reports["postprocess"]
    vote_docs = 0
    with (cfg.work_dir / "scores" / "scores.jsonl").open(encoding="utf-8") as handle:
        for line in handle:
            if json.loads(line)["scorer"].startswith(quality.SCORER_ASK_LLM_VOTE):
                vote_docs += 1
    latencies_ms = [r.latency_s * 1000.0 for r in session.results]
    completions = sum(s["completions"] for s in rephrase_stages)
    return {
        "corpus.input_passes": agg.get("corpus.iter_corpus[input]", {}).get("count", 0),
        "corpus.read_s": sum(
            row["self_s"] for name, row in agg.items() if name.startswith("corpus.iter_corpus")
        ),
        "corpus.write_s": self_s("corpus.write_corpus"),
        "tokens.calibrate_s": self_s("tokens.calibrate"),
        "splitting.split_document_s": self_s("splitting.split_document"),
        "splitting.passages": reports["preprocess"]["passages"],
        "prompts.render_s": self_s("prompts.render"),
        "inference.jobs": reports["rephrase"]["jobs"],
        "inference.requests": rephrase_requests,
        "inference.retries": sum(r.attempts - 1 for r in session.results),
        "inference.idle_slot_ms_per_job": 1000.0 * (slots * batch_wall - complete_s) / issued,
        "inference.ctx_switches_per_job": sum(s["nvcsw"] for s in rephrase_stages) / issued,
        "inference.checkpoint_append_s": self_s("inference.checkpoint_append"),
        "inference.slot_utilisation": complete_s / (slots * rephrase_wall),
        "inference.tail_idle_s": sum(_tail_idle(spans, b, slots) for b in batches),
        "inference.job_latency_ms.p50": statistics.median(latencies_ms),
        "inference.job_latency_ms.p99": _percentile(latencies_ms, 0.99),
        "inference.client_cpu_ms_per_request": 1000.0 * sum(s["cpu_s"] for s in io_stages) / io_requests,
        "inference.replayed": reports["rephrase"]["replayed"],
        "inference.checkpoint_load_s": self_s("inference.load_checkpoint"),
        "inference.wasted_requests": completions - session.counts.checkpointed,
        "postprocess.clean_s": self_s("postprocess.clean_passage"),
        "postprocess.assemble_s": self_s("postprocess.assemble_document"),
        "postprocess.accept_ratio": post["passages_accepted"] / post["passages_in"],
        "quality.score_s": agg.get("quality.askllm_score", {}).get("total_s", 0.0),
        "quality.requests_per_doc": sum(s["requests"] for s in score_stages) / scored,
        "quality.vote_fallback_docs": vote_docs,
        "quality.filter_s": self_s("quality.threshold_filter"),
        "mixing.execute_s": self_s("mixing.execute_mix"),
    }


def ordering_probe(root: Path, seed: int, docs: int) -> dict:
    """Makespan and tail idle of endpoint_stub's jobs under three orders.

    Each order gets a fresh stub, so every order meets the same 503s.
    Results must match across orders.
    """
    workload = scaled(WORKLOADS["endpoint_stub"], docs)
    # Preprocessing sends no requests; each order below starts its own stub.
    cfg, _, _, _ = set_up(root, workload, seed, endpoint="http://127.0.0.1:1/unused")
    pipeline.stage_preprocess(cfg)
    manifest, base_dir = pipeline.resolve_input_manifest(cfg)
    langs = {doc.id: doc.lang for doc in corpus.iter_corpus(manifest, base_dir, cfg.languages)}
    registry = cfg.registry()
    jobs = []
    for passage in pipeline.iter_passages(cfg):
        template = registry.get(cfg.template_id_for(langs[passage.doc_id]))
        jobs.append(
            RephraseJob(
                JobKey(passage.doc_id, passage.index, template.template_id),
                prompts.render(passage, template, cfg.temperature),
            )
        )
    ascending = inference.schedule(jobs)
    plans = {
        "ascending": ascending,
        "descending": ExecutionPlan(tuple(reversed(ascending.order)), ascending.buckets),
        "input": ExecutionPlan(tuple(range(len(jobs))), ascending.buckets),
    }
    out = {}
    texts = None
    for order, plan in plans.items():
        tracer = Tracer()
        with Stub() as stub:
            backend_cfg = config.load_config(write_config(root, workload, seed, stub.url)).backend
            backend = CountingBackend(inference.HttpBackend(backend_cfg), Counts(), tracer)
            results = tracer.call(
                "inference.run_batch", inference.run_batch, jobs, backend, backend_cfg, plan=plan
            )
        batch = tracer.spans[0]
        if any(r.failed for r in results):
            raise RuntimeError(f"probe order {order}: failed jobs")
        order_texts = [r.text for r in results]
        if texts is not None and order_texts != texts:
            raise RuntimeError(f"probe order {order}: results differ from the ascending order")
        texts = order_texts
        out[order] = {
            "makespan_s": batch[END] - batch[START],
            "tail_idle_s": _tail_idle(tracer.spans, batch, backend_cfg.max_in_flight),
        }
    return out


def pace_stages(pacer: Pacer) -> None:
    """Close one of the pacer's intervals after every pipeline stage."""
    for name in pipeline.RUN_ALL_ORDER:
        original = getattr(pipeline, f"stage_{name}")

        @functools.wraps(original)
        def paced(*args, _original=original, **kwargs):
            try:
                return _original(*args, **kwargs)
            finally:
                pacer.mark()

        rebind(original, paced)


def run(spec: dict) -> dict:
    root = Path(spec["root"])
    root.mkdir(parents=True, exist_ok=True)
    seed = spec["seed"]
    if spec.get("probe"):
        return {"probe": ordering_probe(root, seed, spec["docs"])}

    workload = scaled(WORKLOADS[spec["workload"]], spec["docs"])
    endpoint = spec.get("endpoint")
    stub = None
    if spec["setup"]:
        cfg, stub, setup_s, paced_setup_s = set_up(root, workload, seed, endpoint)
    else:
        cfg, setup_s, paced_setup_s = config.load_config(root / "config.yaml"), 0.0, 0.0
    try:
        counts = Counts()
        session = TraceSession(counts, stub) if spec["trace"] else None
        original_make = pipeline.make_backend
        rebind(
            original_make,
            lambda c: CountingBackend(original_make(c), counts, session.tracer if session else None),
        )

        reports: dict = {}
        pacer = Pacer()
        pace_stages(pacer)
        for step in spec["steps"]:
            reports.update(run_step(step, cfg, seed))
        pacer.mark()

        result = {
            "setup_s": setup_s,
            "paced_setup_s": paced_setup_s,
            "wall_s": pacer.wall_s,
            "paced_wall_s": pacer.paced_wall_s,
            "cpu_s": pacer.cpu_s,
            "paced_cpu_s": pacer.paced_cpu_s,
            "steal_s": pacer.steal_s,
            "peak_rss_mb": _rusage().ru_maxrss / 1024.0,
            "requests": stub.stats()["requests"] if stub else counts.requests,
            "docs": workload.docs,
            "reports": reports,
        }
        if session is not None:
            result["layers"] = layer_metrics(session, reports, cfg)
            session.tracer.dump(root / "spans.jsonl")
        return result
    finally:
        if stub is not None:
            stub.stop()


def main() -> int:
    spec_path, result_path = Path(sys.argv[1]), Path(sys.argv[2])
    # One CPU for the pipeline's threads: handing the GIL between threads
    # on different virtual CPUs waits on cross-CPU wake-ups, which made
    # wall time swing with the host's load.
    os.sched_setaffinity(0, {CPUS[0]})
    try:
        result = run(json.loads(spec_path.read_text(encoding="utf-8")))
    except Exception:
        result = {"error": traceback.format_exc()}
    result_path.write_text(json.dumps(result, default=str), encoding="utf-8")
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())
