"""Wire the stages into file-to-file pipeline steps.

Every stage reads its input manifest, writes an output manifest plus
shards under the work directory, and returns a report dict.  Stage
outputs are pure functions of (input shards, config, seed), so running
``run-all`` equals running the stages one by one.

Work directory layout::

    work_dir/
      calibration.json          token estimator (ratio, sample, seed)
      passages/                 split passages + manifest
      rephrase/                 checkpoint.jsonl, completions.jsonl, failed.jsonl
      rephrased/                reassembled documents, audit shard, report
      scores/                   checkpoint.jsonl, scores.jsonl, report
      filtered/                 threshold-filtered corpus
      mixed/                    mixed corpus
      stats/                    corpus overview table (text + JSON)

Every paid backend call lands in a ``checkpoint.jsonl`` ledger as it
finishes; rephrase and score write it with one ``CheckpointWriter`` and
replay it with one ``resume``, so a stopped run re-issues only the calls
it had not recorded.  Rephrase's ledger is also its result store: its
output files are written from it.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import shutil
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

from .config import PipelineConfig
from .corpus import (
    CorpusError,
    CorpusStats,
    Document,
    Provenance,
    ShardEntry,
    ShardManifest,
    ShardReader,
    corpus_stats,
    encode_json,
    iter_corpus,
    load_shard,
    parse_line,
    shard_runs,
    stats_table,
    stats_to_obj,
    write_corpus,
)
from .inference import (
    FINISH_LENGTH,
    CheckpointMismatchError,
    CheckpointWriter,
    CompletionBackend,
    HttpBackend,
    JobKey,
    JsonClient,
    LedgerLine,
    MockBackend,
    RephraseResult,
    RequestTimes,
    Stopwatch,
    pull_map,
    record_line,
    resume,
    run_batch,
    with_retries,
)
from .mixing import MixSource, MixSpec, execute_mix
from .postprocess import (
    DEFAULT_MARKER_PATTERNS,
    DOC_DROP_NO_PASSAGES,
    CleanedPassage,
    assemble_document,
    clean_passage,
    load_marker_patterns,
)
from .prompts import (
    PromptTemplate,
    RenderedPrompt,
    TemplateRegistry,
    render,
    rendered_length,
    tag_collision,
)
from .quality import (
    SCORER_EXTERNAL,
    ScoredDocument,
    ThresholdFilter,
    askllm_score,
    askllm_score_first,
    ingest_external_scores,
)
from .splitting import Passage, split_document
from .tokens import CalibrationError, TokenEstimator, calibrate

AUDIT_INFERENCE_FAILED = "inference_failed"


class StageError(Exception):
    """Stage precondition failure: missing inputs, fingerprint mismatch."""


def _write_report(obj: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


def _restore(out_dir: Path) -> None:
    """Put back an output that a run stopped between the two renames of
    ``_replacing`` left only as ``<out_dir>.old``."""
    old = out_dir.with_name(out_dir.name + ".old")
    if old.is_dir() and not out_dir.exists():
        old.rename(out_dir)


@contextmanager
def _replacing(out_dir: Path) -> Iterator[Path]:
    """Yield an empty temporary directory that replaces ``out_dir`` on success.

    A stage that raises leaves ``out_dir`` as it was and no temporary
    directory behind.
    """
    _restore(out_dir)
    tmp = out_dir.with_name(out_dir.name + ".tmp")
    old = out_dir.with_name(out_dir.name + ".old")
    for stale in (tmp, old):
        shutil.rmtree(stale, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        yield tmp
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if out_dir.exists():
        out_dir.rename(old)
    tmp.rename(out_dir)
    shutil.rmtree(old, ignore_errors=True)


def resolve_input_manifest(cfg: PipelineConfig) -> tuple[ShardManifest, Path]:
    """Accept a manifest file, a single shard, or a directory of shards."""
    source = cfg.input_manifest
    if source is None:
        raise StageError("config has no input_manifest")
    source = Path(source)
    if source.is_file() and source.suffix == ".json":
        return ShardManifest.load(source), source.parent
    if source.is_file() and source.suffix == ".jsonl":
        entry = _entry_for_shard(source, cfg)
        return ShardManifest("input", "input", [entry]), source.parent
    if source.is_dir():
        shards = sorted(source.glob("*.jsonl"))
        if not shards:
            raise StageError(f"no .jsonl shards in {source}")
        entries = [_entry_for_shard(p, cfg) for p in shards]
        return ShardManifest("input", "input", entries), source
    raise StageError(f"input manifest not found: {source}")


def _entry_for_shard(path: Path, cfg: PipelineConfig) -> ShardEntry:
    docs = 0
    chars = 0
    for doc in load_shard(path, cfg.languages):
        docs += 1
        chars += len(doc.text)
    return ShardEntry(path.name, docs, chars, 0.0)


def _require_manifest(path: Path, cfg: PipelineConfig, stage: str) -> ShardManifest:
    if not path.is_file():
        raise StageError(f"missing {stage} manifest {path}; run the earlier stage first")
    manifest = ShardManifest.load(path)
    if manifest.fingerprint != cfg.fingerprint():
        raise StageError(
            f"{stage} manifest {path} was produced under config fingerprint "
            f"{manifest.fingerprint}, current config is {cfg.fingerprint()}"
        )
    return manifest


@contextmanager
def _exact_counter(cfg: PipelineConfig) -> Iterator[Callable[[str], int] | None]:
    """Exact token counts from an external tokenizer over a local wire
    interface: POST {"text": ...} -> {"tokens": n}.

    Yields None when no endpoint is configured.  Every count goes over
    one keep-alive client, closed on exit, and transient errors are
    retried like every other backend request.
    """
    if not cfg.estimator.exact_endpoint:
        yield None
        return
    client = JsonClient(cfg.estimator.exact_endpoint, timeout_s=60.0)

    def count(text: str) -> int:
        return int(with_retries(lambda: client.post({"text": text}), cfg.backend)["tokens"])

    try:
        yield count
    finally:
        client.close()


def load_estimator(cfg: PipelineConfig) -> TokenEstimator:
    path = cfg.work_dir / "calibration.json"
    if not path.is_file():
        raise StageError(f"missing calibration report {path}; run preprocess first")
    return TokenEstimator.load(path)


def make_backend(cfg: PipelineConfig) -> CompletionBackend:
    if cfg.backend_kind == "mock":
        return MockBackend.from_config(cfg.mock_backend)
    return HttpBackend(cfg.backend)


def stage_preprocess(cfg: PipelineConfig) -> dict:
    """Calibrate the estimator and split the input corpus into passages.

    With an exact tokenizer configured, calibration samples the input in
    a pass of its own.  Without one nothing would count a sample, so
    none is drawn: the estimator takes the default ratio, and the split
    pass counts the documents whose first ``sample_size`` calibration
    records as sampled.  Each passage goes into the open shard as soon
    as its document is split, so memory holds one document's passages.
    The shards go to a temporary directory that replaces ``passages/``
    only when the whole input split; an empty input changes nothing.
    """
    started = time.monotonic()
    manifest_in, base_dir = resolve_input_manifest(cfg)

    sampled = bool(cfg.estimator.exact_endpoint)
    if sampled:
        with _exact_counter(cfg) as counter:
            estimator = calibrate(
                iter_corpus(manifest_in, base_dir, cfg.languages),
                counter,
                seed=cfg.seed,
                sample_size=cfg.estimator.sample_size,
                per_language=cfg.estimator.per_language,
                default_ratio=cfg.estimator.default_ratio,
            )
    else:
        estimator = TokenEstimator(cfg.estimator.default_ratio, {}, 0, cfg.seed)
    fingerprint = cfg.fingerprint()

    docs_in = 0
    docs_without_passages = 0
    flag_counts: Counter = Counter()
    manifest_out = ShardManifest("passages", fingerprint)

    def passages() -> Iterator[Passage]:
        nonlocal docs_in, docs_without_passages
        for doc in iter_corpus(manifest_in, base_dir, cfg.languages):
            docs_in += 1
            split = split_document(doc, cfg.split, estimator)
            docs_without_passages += not split
            for passage in split:
                flag_counts.update(passage.split_flags)
                yield passage

    with _replacing(cfg.work_dir / "passages") as out_dir:
        for run in shard_runs(passages(), cfg.shard_size):
            path = out_dir / f"passages-{len(manifest_out.shards):05d}.jsonl"
            count = chars = tokens = 0
            with path.open("w", encoding="utf-8") as handle:
                for passage in run:
                    handle.write(encode_json(passage.to_obj()) + "\n")
                    count += 1
                    chars += len(passage.text)
                    tokens += passage.est_tokens
            manifest_out.shards.append(ShardEntry(path.name, count, chars, tokens))
        if not docs_in:
            raise CalibrationError("cannot calibrate on an empty corpus")
        if not sampled:
            estimator = dataclasses.replace(
                estimator, sample_size=min(cfg.estimator.sample_size, docs_in)
            )
        estimator.save(cfg.work_dir / "calibration.json")
        manifest_out.save(out_dir / "manifest.json")

        report = {
            "stage": "preprocess",
            "docs_in": docs_in,
            "docs_without_passages": docs_without_passages,
            "passages": manifest_out.total_docs,
            "passage_est_tokens": manifest_out.total_est_tokens,
            "flag_counts": dict(flag_counts),
            "estimator": estimator.to_obj(),
            "calibration_fallback": estimator.fallback,
            "seconds": round(time.monotonic() - started, 3),
        }
        _write_report(report, out_dir / "report.json")
    return report


def _passage_shard_paths(cfg: PipelineConfig) -> list[Path]:
    out_dir = cfg.work_dir / "passages"
    _restore(out_dir)
    manifest = _require_manifest(out_dir / "manifest.json", cfg, "passages")
    return manifest.shard_paths(out_dir)


def _passage_record(obj: dict) -> Passage:
    if "lang" not in obj:
        raise CorpusError("no 'lang' field: written by an older version; rerun preprocess")
    return Passage.from_obj(obj)


def iter_passages(cfg: PipelineConfig) -> Iterator[Passage]:
    for path in _passage_shard_paths(cfg):
        yield from ShardReader(path, _passage_record)


class _PassageJob:
    """One passage's rephrase job, as ``run_batch`` takes it: its key,
    its prompt's length, and where its line lies in the shard, from which
    ``render`` reads the passage back."""

    __slots__ = ("shard", "key", "prompt_chars", "offset", "length")

    def __init__(
        self, shard: "_PassageShard", key: JobKey, prompt_chars: int, offset: int, length: int
    ):
        self.shard = shard
        self.key = key
        self.prompt_chars = prompt_chars
        self.offset = offset
        self.length = length

    def render(self) -> RenderedPrompt:
        return self.shard.render(self)


class _PassageShard:
    """An index of one passages shard, read in one pass: each passage's
    job in passage order, and how many passages hold the closing tag of
    their tagged template.  Once indexed, the shard stays open until
    ``close``, so that each job reads its passage back with ``os.pread``
    when it is rendered: memory holds the index, never the passages or
    their prompts."""

    def __init__(self, path: Path, cfg: PipelineConfig, registry: TemplateRegistry):
        self.path = path
        self.registry = registry
        self.temperature = cfg.temperature
        self.jobs: list[_PassageJob] = []
        self.tag_collisions = 0
        templates: dict[str, PromptTemplate] = {}
        for offset, length, passage in ShardReader(path, _passage_record).located():
            template = templates.get(passage.lang)
            if template is None:
                template = registry.get(cfg.template_id_for(passage.lang))
                templates[passage.lang] = template
            key = JobKey(passage.doc_id, passage.index, template.template_id)
            chars = rendered_length(passage, template)
            self.jobs.append(_PassageJob(self, key, chars, offset, length))
            self.tag_collisions += tag_collision(passage, template)
        self._file = path.open("rb")

    def render(self, job: _PassageJob) -> RenderedPrompt:
        line = os.pread(self._file.fileno(), job.length, job.offset)
        template = self.registry.get(job.key.template_id)
        return render(Passage.from_obj(parse_line(line)), template, self.temperature)

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "_PassageShard":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def stage_rephrase(cfg: PipelineConfig, *, on_result=None) -> dict:
    """Drive the backend over every passage and store raw completions.

    Works one passages shard at a time.  One read of the shard indexes
    it: each passage's job key, prompt length and line position.  The
    jobs the ledger does not replay are sent longest prompt first, and
    each reads its passage back and renders its prompt (the template
    comes from the passage's ``lang``) only when a request slot pulls it.

    The ledger ``checkpoint.jsonl`` is the result store.  Each result is
    appended to it as it lands, so a killed run resumes without
    re-issuing finished requests, then reported to ``on_result``, and
    only its ``LedgerLine`` is kept.  Once a shard's jobs are done, its
    lines go in passage order to ``completions.jsonl.tmp`` and
    ``failed.jsonl.tmp``, each copied from the ledger by ``record_line``
    whether replayed or issued, and refused unless it starts with its
    passage's key; so a resumed run writes the same bytes as an
    uninterrupted one.  Memory thus holds one shard's index and ledger
    lines, plus those of the ledger's not yet replayed results on a
    resume.  The two files are renamed into place after the last shard,
    so a stopped run never leaves a partial ``completions.jsonl``.

    ``throughput.json`` reports, over the jobs issued in this run (not
    the replayed ones), ``busy_s``, the time spent in requests summed
    over jobs, retry backoffs left out since they hold no request slot;
    ``latency_max_s``, the longest job from first try to result; and
    ``slot_utilisation``, ``busy_s / (max_in_flight * seconds)``.
    """
    started = time.monotonic()
    estimator = load_estimator(cfg)
    registry = cfg.registry()
    fingerprint = cfg.fingerprint()
    shard_paths = _passage_shard_paths(cfg)

    out_dir = cfg.work_dir / "rephrase"
    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoint_path = out_dir / "checkpoint.jsonl"
    replay = resume(checkpoint_path, fingerprint, LedgerLine.from_obj, located=True)
    done_tmp = out_dir / "completions.jsonl.tmp"
    failed_tmp = out_dir / "failed.jsonl.tmp"

    totals: Counter = Counter()
    attempts: Counter = Counter()
    times = RequestTimes()
    backend = make_backend(cfg)
    try:
        with CheckpointWriter(checkpoint_path, fingerprint) as checkpoint, checkpoint_path.open(
            "rb", buffering=0
        ) as ledger, done_tmp.open("wb") as done_out, failed_tmp.open("wb") as failed_out:

            def rephrase_shard(path: Path) -> None:
                """Run one shard's jobs, then copy its lines in passage order."""
                with _PassageShard(path, cfg, registry) as shard:
                    lines = {job.key: replay.pop(job.key) for job in shard.jobs if job.key in replay}
                    totals.update(
                        jobs=len(shard.jobs), replayed=len(lines), tag_collisions=shard.tag_collisions
                    )

                    def record(result: RephraseResult) -> None:
                        offset, length = checkpoint.position
                        lines[result.key] = LedgerLine(
                            result.key, result.finish, len(result.text), result.attempts, offset, length
                        )
                        times.add(result.latency_s, result.busy_s)
                        if on_result is not None:
                            on_result(result)

                    todo = [job for job in shard.jobs if job.key not in lines]
                    run_batch(todo, backend, cfg.backend, checkpoint=checkpoint, on_result=record)
                for job in shard.jobs:
                    line = lines[job.key]
                    out = record_line(os.pread(ledger.fileno(), line.length, line.offset))
                    head = b'{"key": ' + encode_json(job.key.to_obj()).encode("utf-8") + b", "
                    if not out.startswith(head):
                        raise StageError(
                            f"ledger {checkpoint_path} holds {out[: len(head)]!r} at byte "
                            f"{line.offset}, where {job.key} was recorded"
                        )
                    attempts[line.attempts] += 1
                    if line.failed:
                        failed_out.write(out)
                        totals["failed"] += 1
                        continue
                    done_out.write(out)
                    totals["done"] += 1
                    totals["length_capped"] += line.finish == FINISH_LENGTH
                    totals["output_est_tokens"] += estimator.estimate_chars(line.chars)

            # One shard's index at a time: each is freed when its call returns.
            for path in shard_paths:
                rephrase_shard(path)
    finally:
        backend.close()
    done_tmp.replace(out_dir / "completions.jsonl")
    failed_tmp.replace(out_dir / "failed.jsonl")
    wall = time.monotonic() - started

    output_tokens = totals["output_est_tokens"]
    report = {
        "stage": "rephrase",
        "jobs": totals["jobs"],
        "replayed": totals["replayed"],
        "issued": totals["jobs"] - totals["replayed"],
        "done": totals["done"],
        "failed": totals["failed"],
        "length_capped": totals["length_capped"],
        "tag_collisions": totals["tag_collisions"],
        # Tries per result, replayed ones included: {"1": n, "2": m, ...}.
        "attempts": {str(k): attempts[k] for k in sorted(attempts)},
        "output_est_tokens": output_tokens,
        "tokens_per_s": round(output_tokens / wall, 1) if wall > 0 else 0.0,
        **times.report(cfg.backend.max_in_flight, wall),
        "seconds": round(wall, 6),
    }
    _write_report(report, out_dir / "throughput.json")
    return report


def _absent_from_input(cfg: PipelineConfig, doc_ids: set[str]) -> set[str]:
    manifest_in, base_dir = resolve_input_manifest(cfg)
    for doc in iter_corpus(manifest_in, base_dir, cfg.languages):
        doc_ids.discard(doc.id)
    return doc_ids


def stage_postprocess(cfg: PipelineConfig) -> dict:
    """Clean completions, filter passages, and reassemble documents.

    Completions come grouped by document in input order, so one walk of
    the input merge-joins each document with its completions, and each
    reassembled document goes straight into its shard.  Memory holds one
    document's completions plus the ids of documents with a failed
    passage.  Output is written to a temporary directory that replaces
    ``rephrased/`` only when every completed or failed document was found
    in the input and neither ``completions.jsonl`` nor ``failed.jsonl``
    holds a bad line: both are read by ``ShardReader``, which raises
    ``CorpusError`` once it has read a file with one.
    """
    started = time.monotonic()
    estimator = load_estimator(cfg)
    registry = cfg.registry()
    regime = cfg.regime()
    patterns = DEFAULT_MARKER_PATTERNS
    if cfg.postprocess.pattern_file is not None:
        patterns = load_marker_patterns(cfg.postprocess.pattern_file)

    rephrase_dir = cfg.work_dir / "rephrase"
    completions_path = rephrase_dir / "completions.jsonl"
    if not completions_path.is_file():
        raise StageError(f"missing completions {completions_path}; run rephrase first")
    manifest_in, base_dir = resolve_input_manifest(cfg)

    rejection_counts: Counter = Counter()
    doc_drop_counts: Counter = Counter()
    passages_in = 0
    accepted = 0
    docs_in = 0

    def cleaned_stream() -> Iterator[tuple[str, RephraseResult, CleanedPassage]]:
        nonlocal passages_in
        for result in ShardReader(completions_path, RephraseResult.from_obj):
            passages_in += 1
            yield result.key.doc_id, result, clean_passage(
                result.key.doc_id,
                result.key.index,
                result.text,
                regime,
                seed=cfg.seed,
                patterns=patterns,
                completion_prefix=registry.get(result.key.template_id).completion_prefix,
            )

    with _replacing(cfg.work_dir / "rephrased") as out_dir, (out_dir / "audit.jsonl").open(
        "w", encoding="utf-8"
    ) as audit_out:

        def audit(doc_id: str, index: int | None, reason: str) -> None:
            record = {"doc_id": doc_id, "index": index, "reason": reason}
            audit_out.write(encode_json(record) + "\n")

        failed_path = rephrase_dir / "failed.jsonl"
        # Documents with a failed passage not yet met in the input.
        failed_docs: set[str] = set()
        if failed_path.is_file():
            for key in ShardReader(failed_path, lambda obj: JobKey.from_obj(obj["key"])):
                audit(key.doc_id, key.index, AUDIT_INFERENCE_FAILED)
                failed_docs.add(key.doc_id)
        # Failed documents none of whose passages completed.
        without_passages: list[str] = []

        def assembled() -> Iterator[Document]:
            nonlocal accepted, docs_in
            groups = itertools.groupby(cleaned_stream(), key=lambda item: item[0])
            head = next(groups, None)
            for doc in iter_corpus(manifest_in, base_dir, cfg.languages):
                failed = doc.id in failed_docs
                failed_docs.discard(doc.id)
                if head is None or head[0] != doc.id:
                    if failed:
                        without_passages.append(doc.id)
                        docs_in += 1
                    continue
                rows = list(head[1])
                head = next(groups, None)
                docs_in += 1
                cleaned = [c for _, _, c in rows]
                for passage in cleaned:
                    if passage.accepted:
                        accepted += 1
                    else:
                        rejection_counts[passage.rejection] += 1
                        audit(doc.id, passage.index, passage.rejection)
                out, drop_reason = assemble_document(
                    cleaned,
                    lang=doc.lang,
                    meta=doc.meta,
                    provenance=Provenance.rephrased(
                        rows[0][1].key.template_id, cfg.backend.model or rows[0][1].model_id
                    ),
                )
                if out is None:
                    doc_drop_counts[drop_reason] += 1
                    audit(doc.id, None, drop_reason)
                else:
                    yield out
            if head is not None or failed_docs:
                # Error path only: a second walk names exactly the absent ids.
                unjoined = set() if head is None else {head[0], *(doc_id for doc_id, _ in groups)}
                missing = sorted(failed_docs | _absent_from_input(cfg, unjoined))
                if not missing:
                    raise StageError(
                        "input changed since preprocess: its documents are no longer in the "
                        "order rephrase saw them; rerun from preprocess"
                    )
                raise StageError(
                    f"input changed since preprocess: {len(missing)} document(s) from rephrase "
                    f"are not in it, e.g. {missing[:5]}; rerun from preprocess"
                )

        manifest = write_corpus(
            assembled(),
            out_dir,
            stage="rephrased",
            fingerprint=cfg.fingerprint(),
            estimator=estimator,
            shard_size=cfg.shard_size,
        )
        # Documents whose every passage failed inference never met a
        # completion; account for them so input = emitted + dropped.
        for doc_id in sorted(without_passages):
            doc_drop_counts[DOC_DROP_NO_PASSAGES] += 1
            audit(doc_id, None, DOC_DROP_NO_PASSAGES)

        report = {
            "stage": "postprocess",
            "regime": regime,
            "input_docs": docs_in,
            "emitted_docs": manifest.total_docs,
            "dropped_docs": dict(doc_drop_counts),
            "passages_in": passages_in,
            "passages_accepted": accepted,
            "passage_rejections": dict(rejection_counts),
            "emitted_est_tokens": manifest.total_est_tokens,
            "seconds": round(time.monotonic() - started, 3),
        }
        _write_report(report, out_dir / "report.json")
    return report


def stage_score(cfg: PipelineConfig, manifest_path: Path | None = None) -> dict:
    """Score documents with the informative-signal prompt.

    The corpus is checked in full before the first request, so a bad
    line late in it costs no paid request.  Documents then stream into
    the request pool, which pulls each one only when a slot is free, and
    each score is appended to the ledger ``scores/checkpoint.jsonl`` as
    it lands, so a stopped run resumes without re-issuing a scored
    document.  One scorer serves the whole run: the replayed scores', or
    else the one the first document gets before the pool starts.  Memory
    holds the scores, which ``scores.jsonl`` lists in corpus order.

    The report times the documents scored in this run (not the replayed
    ones), in O(1) memory, as rephrase's ``throughput.json`` times its
    jobs: ``busy_s``, ``latency_max_s`` and ``slot_utilisation``.
    """
    started = time.monotonic()
    estimator = load_estimator(cfg)
    manifest, base_dir = _select_corpus(cfg, manifest_path)
    corpus_digest = manifest.verify(base_dir, cfg.languages)

    out_dir = cfg.work_dir / "scores"
    out_dir.mkdir(parents=True, exist_ok=True)
    ledger_path = out_dir / "checkpoint.jsonl"
    # Documents keep their ids through rephrasing, so only the corpus
    # bytes tell whose scores a ledger holds; another corpus starts afresh.
    fingerprint = f"{cfg.fingerprint()}-{corpus_digest[:16]}"
    try:
        replay = resume(ledger_path, fingerprint, ScoredDocument.from_obj)
    except CheckpointMismatchError:
        ledger_path.unlink()
        replay = {}
    docs = iter_corpus(manifest, base_dir, cfg.languages)

    times = RequestTimes()
    backend = make_backend(cfg)
    try:
        with CheckpointWriter(ledger_path, fingerprint) as ledger:
            head = None if replay else next(docs, None)
            if head is not None:
                model_id = cfg.backend.model or cfg.backend_kind
                clock = Stopwatch()
                first = askllm_score_first(
                    head, backend, estimator, model_id=model_id, backend_cfg=cfg.backend
                )
                times.add(*clock.read())
                ledger.append(first)
                replay[first.doc_id] = first
                docs = itertools.chain((head,), docs)
            scorer = next(iter(replay.values())).scorer if replay else ""

            def score(doc: Document) -> ScoredDocument:
                replayed = replay.get(doc.id)
                if replayed is not None:
                    return replayed
                clock = Stopwatch()
                scored = askllm_score(doc, backend, estimator, scorer=scorer, backend_cfg=cfg.backend)
                times.add(*clock.read())
                return scored

            def record(scored: ScoredDocument) -> None:
                if scored.doc_id not in replay:
                    ledger.append(scored)

            scores = pull_map(score, docs, cfg.backend.max_in_flight, record)
    finally:
        backend.close()

    with (out_dir / "scores.jsonl.tmp").open("w", encoding="utf-8") as handle:
        for scored in scores:
            handle.write(encode_json(scored.to_obj()) + "\n")
    (out_dir / "scores.jsonl.tmp").replace(out_dir / "scores.jsonl")
    wall = time.monotonic() - started
    report = {
        "stage": "score",
        "docs": len(scores),
        "scorers": [scorer] if scores else [],
        "mean_score": sum(s.score for s in scores) / len(scores) if scores else 0.0,
        "min_score": min((s.score for s in scores), default=0.0),
        "max_score": max((s.score for s in scores), default=0.0),
        **times.report(cfg.backend.max_in_flight, wall),
        "seconds": round(wall, 3),
    }
    _write_report(report, out_dir / "report.json")
    return report


def _select_corpus(
    cfg: PipelineConfig, manifest_path: Path | None
) -> tuple[ShardManifest, Path]:
    """Pick the corpus a stage operates on: explicit path, else the
    rephrased output when present, else the input corpus."""
    if manifest_path is not None:
        manifest_path = Path(manifest_path)
        if not manifest_path.is_file():
            raise StageError(f"manifest not found: {manifest_path}")
        return ShardManifest.load(manifest_path), manifest_path.parent
    _restore(cfg.work_dir / "rephrased")
    rephrased = cfg.work_dir / "rephrased" / "manifest.json"
    if rephrased.is_file():
        return _require_manifest(rephrased, cfg, "rephrased"), rephrased.parent
    return resolve_input_manifest(cfg)


def stage_filter(
    cfg: PipelineConfig,
    manifest_path: Path | None = None,
    threshold: float | None = None,
) -> dict:
    """Keep documents scoring strictly above the threshold.

    Kept documents stream into a temporary directory that replaces
    ``filtered/`` only when every document had a score, so a refused run
    leaves ``filtered/`` as it was; memory holds the score table.
    """
    started = time.monotonic()
    estimator = load_estimator(cfg)
    manifest, base_dir = _select_corpus(cfg, manifest_path)
    threshold = cfg.filter.threshold if threshold is None else threshold

    if cfg.filter.scorer == SCORER_EXTERNAL:
        scores = ingest_external_scores(cfg.filter.external_scores)
    else:
        scores_path = cfg.work_dir / "scores" / "scores.jsonl"
        # An absent score shard filters against an empty table, so the
        # resulting error names every unscored document.
        scores = ingest_external_scores(scores_path) if scores_path.is_file() else {}

    kept = ThresholdFilter(iter_corpus(manifest, base_dir, cfg.languages), scores, threshold, estimator)
    with _replacing(cfg.work_dir / "filtered") as out_dir:
        out_manifest = write_corpus(
            kept,
            out_dir,
            stage="filtered",
            fingerprint=cfg.fingerprint(),
            estimator=estimator,
            shard_size=cfg.shard_size,
        )
        report = {
            "stage": "filter",
            "scorer": cfg.filter.scorer,
            **kept.report.to_obj(),
            "emitted_est_tokens": out_manifest.total_est_tokens,
            "seconds": round(time.monotonic() - started, 3),
        }
        _write_report(report, out_dir / "report.json")
    return report


def stage_mix(cfg: PipelineConfig) -> dict:
    """Compose the configured mixture into a new corpus."""
    started = time.monotonic()
    if cfg.mix is None or not cfg.mix.sources:
        raise StageError("config has no mix section")
    estimator = load_estimator(cfg)
    spec = MixSpec(
        sources=tuple(
            MixSource(s.name, Path(s.manifest), s.weight) for s in cfg.mix.sources
        ),
        unit=cfg.mix.unit,
        target=cfg.mix.target,
        seed=cfg.seed if cfg.mix.seed is None else cfg.mix.seed,
    )
    # A source may be an earlier mix in mixed/, which is read until the end.
    with _replacing(cfg.work_dir / "mixed") as out_dir:
        manifest, mix_report = execute_mix(
            spec,
            out_dir,
            fingerprint=cfg.fingerprint(),
            estimator=estimator,
            shard_size=cfg.shard_size,
            languages=None,
        )
        report = {
            "stage": "mix",
            **mix_report.to_obj(),
            "docs": manifest.total_docs,
            "est_tokens": manifest.total_est_tokens,
            "seconds": round(time.monotonic() - started, 3),
        }
        _write_report(report, out_dir / "report.json")
    return {**report, "table": mix_report.table()}


def stage_stats(cfg: PipelineConfig) -> dict:
    """Corpus overview table (text + JSON) over every known manifest."""
    started = time.monotonic()
    estimator = None
    calibration = cfg.work_dir / "calibration.json"
    if calibration.is_file():
        estimator = TokenEstimator.load(calibration)

    rows: list[tuple[str, CorpusStats]] = []
    with _exact_counter(cfg) as exact:
        if cfg.input_manifest is not None:
            manifest_in, base_dir = resolve_input_manifest(cfg)
            rows.append(
                (
                    "input",
                    corpus_stats(
                        manifest_in, base_dir, estimator, exact, languages=cfg.languages
                    ),
                )
            )
        for name in ("rephrased", "filtered", "mixed"):
            _restore(cfg.work_dir / name)
            path = cfg.work_dir / name / "manifest.json"
            if path.is_file():
                manifest = ShardManifest.load(path)
                rows.append(
                    (name, corpus_stats(manifest, path.parent, estimator, exact, languages=None))
                )

    if not rows:
        raise StageError("nothing to report: no input manifest and no stage outputs")

    table = stats_table(rows)
    obj = stats_to_obj(rows)
    postprocess_report = cfg.work_dir / "rephrased" / "report.json"
    if postprocess_report.is_file():
        report_obj = json.loads(postprocess_report.read_text(encoding="utf-8"))
        obj["reconciliation"] = {
            "input_docs": report_obj["input_docs"],
            "emitted_docs": report_obj["emitted_docs"],
            "dropped_docs": report_obj["dropped_docs"],
        }

    out_dir = cfg.work_dir / "stats"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "stats.txt").write_text(table + "\n", encoding="utf-8")
    _write_report(obj, out_dir / "stats.json")
    return {
        "stage": "stats",
        "table": table,
        **obj,
        "seconds": round(time.monotonic() - started, 3),
    }


RUN_ALL_ORDER = ("preprocess", "rephrase", "postprocess", "score", "filter", "mix", "stats")


def run_all(cfg: PipelineConfig) -> dict:
    """Chain the stages in pipeline order; score only for an ask_llm
    filter, mix only when configured."""
    reports = {}
    reports["preprocess"] = stage_preprocess(cfg)
    reports["rephrase"] = stage_rephrase(cfg)
    reports["postprocess"] = stage_postprocess(cfg)
    if cfg.filter.scorer != SCORER_EXTERNAL:
        reports["score"] = stage_score(cfg)
    reports["filter"] = stage_filter(cfg)
    if cfg.mix is not None and cfg.mix.sources:
        reports["mix"] = stage_mix(cfg)
    reports["stats"] = stage_stats(cfg)
    return reports
