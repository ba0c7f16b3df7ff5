"""Wire the stages into file-to-file pipeline steps.

Every stage reads its input manifest, writes an output manifest plus
shards under the work directory, and returns a report dict.  Stage
outputs are pure functions of (input shards, config, seed), so running
``run-all`` equals running the stages one by one.

Work directory layout::

    work_dir/
      calibration.json          token estimator (ratio, sample, seed)
      passages/                 split passages, size indexes, document heads, manifest
      rephrase/                 checkpoint.jsonl, completions.jsonl, failed.jsonl
      rephrased/                reassembled documents, audit shard, report
      scores/                   checkpoint.jsonl, scores.jsonl, report
      filtered/                 threshold-filtered corpus
      mixed/                    mixed corpus
      stats/                    corpus overview table (text + JSON)

Every paid backend call lands in a ``checkpoint.jsonl`` ledger as it
finishes.  Rephrase and score load it with one ``resume`` and run
through one runner, ``_run_ledgered``, the only code that appends to a
ledger, so a stopped run re-issues only the calls it had not recorded.
The ledger is also each paid stage's result store: the runner writes
both stages' outputs from it, one chunk at a time (a passages shard, or
a ``shard_size`` run of the scored corpus), copying each line in item
order.

A stage trusts a corpus by its sha256: the one its manifest records,
checked by hashing the shards.  ``run_all`` hashes each corpus at most
once beyond its write: within it a ``digest_memo`` keeps every digest
the run itself wrote, read or hashed, keyed by the identities of the
files (device, inode, size, ``mtime_ns`` and ``ctime_ns``), and a later
stage takes the digest from there while the identities are unchanged.
Stages run one by one, from the command line or by the library, hash
as before.  The one edit within ``run_all`` that the memo cannot see
keeps the size and lands within one clock tick of the write or hash it
follows, so that ``mtime_ns`` and ``ctime_ns`` stay the same too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import os
import shutil
import time
from collections import Counter
from contextlib import closing, contextmanager
from operator import attrgetter
from pathlib import Path
from typing import Callable, Hashable, Iterable, Iterator

from .config import PipelineConfig
from .corpus import (
    CorpusError,
    CorpusLines,
    CorpusStats,
    Document,
    DocumentHead,
    Provenance,
    ReadDigest,
    ShardEntry,
    ShardManifest,
    ShardReader,
    SizedLine,
    SizeIndex,
    corpus_stats,
    digest_memo,
    encode_json,
    file_sha256,
    head_from_obj,
    head_line,
    iter_corpus,
    json_line,
    json_string,
    parse_line,
    remember_written,
    shard_runs,
    stats_table,
    stats_to_obj,
    vouched_indexes,
    write_corpus,
)
from .inference import (
    FINISH_LENGTH,
    BackendError,
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
    prompt_length,
    render,
    render_text,
    rendered_length,
    tag_collision,
    tag_collision_in_json,
)
from .quality import (
    SCORER_EXTERNAL,
    ScoredDocument,
    ScoreLine,
    ThresholdFilter,
    askllm_score,
    askllm_score_first,
    ingest_external_scores,
)
from .splitting import Passage, passage_head, passage_line, split_document
from .tokens import CalibrationError, TokenEstimator, calibrate

AUDIT_INFERENCE_FAILED = "inference_failed"

# Preprocess's list of the input's document heads, beside the passages.
DOCUMENT_HEADS = "documents.jsonl"


class StageError(Exception):
    """Stage precondition failure: missing inputs, fingerprint mismatch."""


def _write_whole(text: str, path: Path) -> None:
    """Write a text file whole or not at all: to a sibling temporary
    file, which then replaces ``path``, so a stop in mid-write leaves the
    previous file as it was."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_report(obj: dict, path: Path) -> None:
    """Write a JSON report whole or not at all (``_write_whole``)."""
    _write_whole(json.dumps(obj, indent=2, ensure_ascii=False) + "\n", path)


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
        entry = _entry_for_shard(source)
        return ShardManifest("input", "input", [entry]), source.parent
    if source.is_dir():
        shards = sorted(source.glob("*.jsonl"))
        if not shards:
            raise StageError(f"no .jsonl shards in {source}")
        entries = [_entry_for_shard(p) for p in shards]
        return ShardManifest("input", "input", entries), source
    raise StageError(f"input manifest not found: {source}")


def _entry_for_shard(path: Path) -> ShardEntry:
    """An entry of a manifest that is never saved: its documents are its
    non-blank lines, counted without a parse, which the stage's own read
    of the shard does; nothing reads its ``chars`` or ``est_tokens``."""
    with path.open("rb") as handle:
        docs = sum(not line.isspace() for line in handle)
    return ShardEntry(path.name, docs, 0, 0.0)


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
    retried like every other backend request.  An answer whose
    ``tokens`` is missing or not a JSON integer raises ``BackendError``.
    """
    if not cfg.estimator.exact_endpoint:
        yield None
        return
    client = JsonClient(cfg.estimator.exact_endpoint, timeout_s=60.0)

    def count(text: str) -> int:
        answer = with_retries(lambda: client.post({"text": text}), cfg.backend)
        tokens = answer.get("tokens")
        if type(tokens) is not int:  # a bool is no count
            raise BackendError(f"tokenizer answered {encode_json(answer)[:60]}: no integer 'tokens'")
        return tokens

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
        return MockBackend(**vars(cfg.mock))
    return HttpBackend(cfg.backend)


def stage_preprocess(cfg: PipelineConfig) -> dict:
    """Calibrate the estimator and split the input corpus into passages.

    With an exact tokenizer configured, calibration samples the input in
    a pass of its own.  Without one nothing would count a sample, so
    none is drawn: the estimator takes the default ratio, and the split
    pass counts the documents whose first ``sample_size`` calibration
    records as sampled.  The passages are written by ``write_corpus``,
    each into the open shard as soon as its document is split, so memory
    holds one document's passages and the open shard's size index; the
    manifest records the shards' bytes and indexes, with which rephrase
    reads them without a parse (``vouched_indexes``).  Beside them goes
    ``documents.jsonl``, each input document's head (``head_line``: id,
    lang and meta) in input order, and the report notes its sha256 and
    the input's, with which postprocess joins completions without
    reading the input.  The input's is hashed by the split's own read
    of it (``ReadDigest``), every byte, blank lines included, and noted
    when its manifest's record vouches for those bytes
    (``recorded_digest``), else None; an input whose record cannot hold
    is not hashed.  Within ``run_all`` both digests go to its
    ``digest_memo``, keyed by the files' identities (the input's stat'd
    before and after the read, and kept only if unchanged), so no later
    stage hashes these files again.  Everything goes to a temporary
    directory that replaces ``passages/`` only when the whole input
    split; an empty input changes nothing.
    """
    started = time.monotonic()
    manifest_in, base_dir = resolve_input_manifest(cfg)
    paths = manifest_in.shard_paths(base_dir)
    read = ReadDigest(paths) if manifest_in.record_holds(cfg.languages) else None

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

    docs_in = 0
    docs_without_passages = 0
    flag_counts: Counter = Counter()
    heads_digest = hashlib.sha256()

    with _replacing(cfg.work_dir / "passages") as out_dir:
        heads_path = out_dir / DOCUMENT_HEADS
        with heads_path.open("wb") as heads_out:

            def passages() -> Iterator[SizedLine]:
                nonlocal docs_in, docs_without_passages
                for doc in iter_corpus(manifest_in, base_dir, cfg.languages, read):
                    docs_in += 1
                    head = head_line(doc)
                    heads_out.write(head)
                    heads_digest.update(head)
                    split = split_document(doc, cfg.split, estimator)
                    docs_without_passages += not split
                    for passage in split:
                        flag_counts.update(passage.split_flags)
                        yield passage_line(passage)

            manifest_out = write_corpus(
                passages(),
                out_dir,
                stage="passages",
                fingerprint=cfg.fingerprint(),
                estimator=estimator,
                shard_size=cfg.shard_size,
                shard_prefix="passages",
                unique_ids=False,
            )
        remember_written(heads_path, heads_digest.hexdigest(), docs_in)
        # None for an input whose record does not hold, which no read hashed.
        input_sha256 = manifest_in.recorded_digest(base_dir, cfg.languages, read)
        if not docs_in:
            raise CalibrationError("cannot calibrate on an empty corpus")
        if not sampled:
            estimator = dataclasses.replace(
                estimator, sample_size=min(cfg.estimator.sample_size, docs_in)
            )
        estimator.save(cfg.work_dir / "calibration.json")

        report = {
            "stage": "preprocess",
            "docs_in": docs_in,
            "docs_without_passages": docs_without_passages,
            "passages": manifest_out.total_docs,
            "passage_est_tokens": manifest_out.total_est_tokens,
            "flag_counts": dict(flag_counts),
            "estimator": estimator.to_obj(),
            "calibration_fallback": estimator.fallback,
            "input_sha256": input_sha256,
            "documents_sha256": heads_digest.hexdigest(),
            "seconds": round(time.monotonic() - started, 3),
        }
        _write_report(report, out_dir / "report.json")
    return report


def _passage_manifest(cfg: PipelineConfig) -> tuple[ShardManifest, Path]:
    out_dir = cfg.work_dir / "passages"
    _restore(out_dir)
    return _require_manifest(out_dir / "manifest.json", cfg, "passages"), out_dir


def _passage_shard_paths(cfg: PipelineConfig) -> list[Path]:
    manifest, out_dir = _passage_manifest(cfg)
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
    its prompt's length, and where ``render`` reads the passage back
    from the shard: its line, or on the byte route its text's JSON
    string."""

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
    their prompts.

    With the shard's ``SizeIndex`` (``index``), which rephrase has when
    the passages manifest vouches for the shards (``vouched_indexes``),
    no line is parsed: a job's key comes from its line's head, its
    prompt's length from the index's characters, the tag from a byte
    search of the text's JSON string, and its rendering reads and
    decodes only that string.  Without it every line is parsed, with ``ShardReader``'s checks
    and errors, when the shard is indexed and again when it is rendered.
    """

    def __init__(
        self, path: Path, index: SizeIndex | None, cfg: PipelineConfig, registry: TemplateRegistry
    ):
        self.path = path
        self.registry = registry
        self.temperature = cfg.temperature
        self.by_bytes = index is not None
        self.jobs: list[_PassageJob] = []
        self.tag_collisions = 0
        templates: dict[str, PromptTemplate] = {}

        def template_for(lang: str) -> PromptTemplate:
            template = templates.get(lang)
            if template is None:
                template = templates[lang] = registry.get(cfg.template_id_for(lang))
            return template

        if index is None:
            for offset, length, passage in ShardReader(path, _passage_record).located():
                template = template_for(passage.lang)
                key = JobKey(passage.doc_id, passage.index, template.template_id)
                chars = rendered_length(passage, template)
                self.jobs.append(_PassageJob(self, key, chars, offset, length))
                self.tag_collisions += tag_collision(passage, template)
        else:
            offset = 0
            with path.open("rb") as handle:
                for line, text_chars, code in zip(handle, index.chars, index.codes):
                    template = template_for(index.langs[code])
                    doc_id, number, text = passage_head(line)
                    key = JobKey(doc_id, number, template.template_id)
                    chars = prompt_length(template, text_chars)
                    at, length = offset + text.start, text.stop - text.start
                    self.jobs.append(_PassageJob(self, key, chars, at, length))
                    self.tag_collisions += tag_collision_in_json(line[text], template)
                    offset += len(line)
        self._file = path.open("rb")

    def render(self, job: _PassageJob) -> RenderedPrompt:
        data = os.pread(self._file.fileno(), job.length, job.offset)
        template = self.registry.get(job.key.template_id)
        if self.by_bytes:
            key = job.key
            return render_text(key.doc_id, key.index, json_string(data), template, self.temperature)
        return render(Passage.from_obj(parse_line(data)), template, self.temperature)

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "_PassageShard":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _run_ledgered(
    chunks: Iterable[Iterable],
    key: Callable[[object], Hashable],
    replay: dict,
    checkpoint: CheckpointWriter,
    line_type: type,
    issue: Callable[[Iterator, Callable], None],
) -> Iterator[tuple]:
    """Run a paid stage's items through its ledger, and yield each item's
    ledger line and output line, chunk by chunk, in item order.

    ``replay`` holds the ledger's replayable lines by key, as ``resume``
    loads them with ``line_type.from_obj``; each is popped when its item
    is met.  A chunk's other items go, as they are drawn, to
    ``issue(todo, record)``, which must run every one and pass each
    result to ``record``, one at a time.  ``record`` is the only place a
    paid result is recorded: it appends the result to ``checkpoint`` and
    notes where its line landed.  Once ``issue`` returns, each item's line
    is copied from the ledger by ``record_line``, replayed or issued
    alike, and refused unless it starts as ``line_type.head`` says the
    line of the item's own key does.  Memory holds one chunk's keys and
    lines, and the lines not replayed yet.
    """
    with checkpoint.path.open("rb", buffering=0) as ledger:
        for chunk in chunks:
            keys: list = []
            lines: dict = {}

            def todo() -> Iterator:
                for item in chunk:
                    item_key = key(item)
                    keys.append(item_key)
                    line = replay.pop(item_key, None)
                    if line is None:
                        yield item
                    else:
                        lines[item_key] = line

            def record(result) -> None:
                checkpoint.append(result)
                lines[result.key] = line_type.of(result, *checkpoint.position)

            issue(todo(), record)
            for item_key in keys:
                line = lines[item_key]
                out = record_line(os.pread(ledger.fileno(), line.length, line.offset))
                head = line_type.head(item_key)
                if not out.startswith(head):
                    raise StageError(
                        f"ledger {checkpoint.path} holds {out[: len(head)]!r} at byte "
                        f"{line.offset}, where {item_key} was recorded"
                    )
                yield line, out
            # Freed before the next chunk is drawn (and a shard indexed).
            keys.clear()
            lines.clear()


def stage_rephrase(cfg: PipelineConfig, *, on_result=None) -> dict:
    """Drive the backend over every passage and store raw completions.

    Works one passages shard at a time.  One read of the shard indexes
    it: each passage's job key, prompt length and line position.  The
    jobs the ledger does not replay are sent longest prompt first, and
    each reads its passage back and renders its prompt (the template
    comes from the passage's ``lang``) only when a request slot pulls it.
    Whether the shards are read by their bytes or parsed
    (``_PassageShard``) is decided once, before the first request, by
    checking the passages manifest's record and indexes.

    The ledger ``checkpoint.jsonl`` is the result store, run by
    ``_run_ledgered`` with one ``run_batch`` per shard: the runner
    appends each result as it lands, then it is reported to
    ``on_result``, and once a shard's jobs are done its lines are copied
    in passage order to ``completions.jsonl.tmp`` and
    ``failed.jsonl.tmp``.  Memory thus holds one shard's index and
    ledger lines, plus those of the ledger's not yet replayed results on
    a resume.  The two files are renamed into place after the last
    shard, so a stopped run never leaves a partial
    ``completions.jsonl``; a stage that raises deletes them and leaves
    earlier outputs as they were.

    ``throughput.json`` reports, over the jobs issued in this run (not
    the replayed ones), ``busy_s``, the time spent in requests summed
    over jobs, retry backoffs left out since they hold no request slot;
    ``latency_max_s``, the longest job from first try to result;
    ``latency_p50_s`` and ``latency_p95_s``, read from a fixed histogram
    of those latencies; and ``slot_utilisation``,
    ``busy_s / (max_in_flight * seconds)``.
    """
    started = time.monotonic()
    estimator = load_estimator(cfg)
    registry = cfg.registry()
    fingerprint = cfg.fingerprint()
    manifest, passages_dir = _passage_manifest(cfg)
    vouched = vouched_indexes(manifest, passages_dir, None)
    indexes = itertools.repeat(None) if vouched is None else vouched[0]

    out_dir = cfg.work_dir / "rephrase"
    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoint_path = out_dir / "checkpoint.jsonl"
    replay = resume(checkpoint_path, fingerprint, LedgerLine.from_obj)
    replayable = len(replay)
    done_tmp = out_dir / "completions.jsonl.tmp"
    failed_tmp = out_dir / "failed.jsonl.tmp"

    totals: Counter = Counter()
    attempts: Counter = Counter()
    times = RequestTimes()

    def shard_jobs() -> Iterator[list[_PassageJob]]:
        """Each shard's jobs; the shard stays open until the next is asked for."""
        for path, index in zip(manifest.shard_paths(passages_dir), indexes):
            with _PassageShard(path, index, cfg, registry) as shard:
                totals.update(jobs=len(shard.jobs), tag_collisions=shard.tag_collisions)
                yield shard.jobs

    backend = make_backend(cfg)
    try:
        with CheckpointWriter(checkpoint_path, fingerprint) as checkpoint, closing(
            shard_jobs()
        ) as shards, done_tmp.open("wb") as done_out, failed_tmp.open("wb") as failed_out:

            def issue(todo: Iterator[_PassageJob], record: Callable) -> None:
                def recorded(result: RephraseResult) -> None:
                    record(result)
                    times.add(result.latency_s, result.busy_s)
                    if on_result is not None:
                        on_result(result)

                run_batch(list(todo), backend, cfg.backend, on_result=recorded)

            for line, out in _run_ledgered(
                shards, attrgetter("key"), replay, checkpoint, LedgerLine, issue
            ):
                attempts[line.attempts] += 1
                if line.failed:
                    failed_out.write(out)
                    totals["failed"] += 1
                    continue
                done_out.write(out)
                totals["done"] += 1
                totals["length_capped"] += line.finish == FINISH_LENGTH
                totals["output_est_tokens"] += estimator.estimate_chars(line.chars)
    except BaseException:
        done_tmp.unlink(missing_ok=True)
        failed_tmp.unlink(missing_ok=True)
        raise
    finally:
        backend.close()
    done_tmp.replace(out_dir / "completions.jsonl")
    failed_tmp.replace(out_dir / "failed.jsonl")
    wall = time.monotonic() - started

    replayed = replayable - len(replay)
    output_tokens = totals["output_est_tokens"]
    report = {
        "stage": "rephrase",
        "jobs": totals["jobs"],
        "replayed": replayed,
        "issued": totals["jobs"] - replayed,
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


def _input_heads(cfg: PipelineConfig) -> Iterable[Document | DocumentHead]:
    """The input's documents in input order, for their id, lang and meta.

    They are the heads preprocess wrote beside the passages when its
    report's digests still name both files: the input's manifest record
    still hashes to its shards (``recorded_digest``, no parse) and gives
    the digest preprocess noted, and ``documents.jsonl`` hashes to its
    own.  Then the heads are what a parse of the input gives.  Otherwise
    the input is parsed.
    """
    manifest_in, base_dir = resolve_input_manifest(cfg)
    passages_dir = cfg.work_dir / "passages"
    heads = passages_dir / DOCUMENT_HEADS
    try:
        noted = json.loads((passages_dir / "report.json").read_text(encoding="utf-8"))
        input_sha256 = noted["input_sha256"]
        vouched = input_sha256 is not None and file_sha256(heads) == noted["documents_sha256"]
    except (OSError, ValueError, LookupError, TypeError):
        vouched = False
    if vouched and manifest_in.recorded_digest(base_dir, cfg.languages) == input_sha256:
        return ShardReader(heads, head_from_obj)
    return iter_corpus(manifest_in, base_dir, cfg.languages)


def stage_postprocess(cfg: PipelineConfig) -> dict:
    """Clean completions, filter passages, and reassemble documents.

    Completions come grouped by document in input order, so one walk of
    the input's documents (``_input_heads``: the heads preprocess wrote,
    or the input parsed) merge-joins each document with its completions,
    and each reassembled document goes straight into its shard.  Memory
    holds one document's completions plus the ids of documents with a
    failed passage.  Output is written to a temporary directory that replaces
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
    documents = _input_heads(cfg)

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
        "wb"
    ) as audit_out:

        def audit(doc_id: str, index: int | None, reason: str) -> None:
            audit_out.write(json_line({"doc_id": doc_id, "index": index, "reason": reason}))

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
            for doc in documents:
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

    The corpus is read through ``CorpusLines``.  It is checked in full
    before the first request, so a bad line late in it costs no paid
    request: a corpus whose manifest vouches for its shards and indexes
    is hashed, and each document is then decoded from its line (id,
    text and language, without ``doc_from_obj``); any other is checked
    by ``ShardManifest.verify`` and parsed.  The ledger
    ``scores/checkpoint.jsonl`` is the result store, run by
    ``_run_ledgered`` over ``shard_size`` runs of the corpus: a run's
    unscored documents stream into the request pool, which pulls each
    one only when a slot is free, the runner appends each score to the
    ledger as it lands, and once the run is scored its lines are copied
    in corpus order to ``scores.jsonl.tmp``, renamed into place at the
    end.  One scorer serves the whole run: the replayed scores', or else
    the one the first document issued gets before any other is sent;
    that document's score is recorded by the runner like every other.
    Memory holds one run's ids and ledger lines, plus those of the
    ledger's not yet replayed scores on a resume.

    The report's count, mean, min and max are taken as the lines are
    copied.  It times the documents scored in this run (not the replayed
    ones), as rephrase's ``throughput.json`` times its jobs: ``busy_s``,
    ``latency_max_s``, ``latency_p50_s``, ``latency_p95_s`` and
    ``slot_utilisation``.
    """
    started = time.monotonic()
    estimator = load_estimator(cfg)
    manifest, base_dir = _select_corpus(cfg, manifest_path)
    lines = CorpusLines(manifest, base_dir, cfg.languages)
    if lines.indexes is None:
        corpus_digest = manifest.verify(base_dir, cfg.languages)
        docs: Iterable[Document] = iter_corpus(manifest, base_dir, cfg.languages)
    else:
        corpus_digest = lines.sha256()
        docs = (Document(line.id, line.text(), line.lang) for line in lines)

    out_dir = cfg.work_dir / "scores"
    out_dir.mkdir(parents=True, exist_ok=True)
    ledger_path = out_dir / "checkpoint.jsonl"
    # Documents keep their ids through rephrasing, so only the corpus
    # bytes tell whose scores a ledger holds; another corpus starts afresh.
    fingerprint = f"{cfg.fingerprint()}-{corpus_digest[:16]}"
    try:
        replay = resume(ledger_path, fingerprint, ScoreLine.from_obj)
    except CheckpointMismatchError:
        ledger_path.unlink()
        replay = {}
    scores_tmp = out_dir / "scores.jsonl.tmp"

    times = RequestTimes()
    count = 0
    low, high = math.inf, -math.inf
    backend = make_backend(cfg)
    try:
        with CheckpointWriter(ledger_path, fingerprint) as ledger, scores_tmp.open("wb") as scores_out:
            scorer = next(iter(replay.values())).scorer if replay else None

            def score(doc: Document) -> ScoredDocument:
                clock = Stopwatch()
                scored = askllm_score(doc, backend, estimator, scorer=scorer, backend_cfg=cfg.backend)
                times.add(*clock.read())
                return scored

            def issue(todo: Iterator[Document], record: Callable) -> None:
                nonlocal scorer
                # Without replayed scores, the first document issued fixes the scorer.
                head = next(todo, None) if scorer is None else None
                if head is not None:
                    model_id = cfg.backend.model or cfg.backend_kind
                    clock = Stopwatch()
                    first = askllm_score_first(
                        head, backend, estimator, model_id=model_id, backend_cfg=cfg.backend
                    )
                    times.add(*clock.read())
                    record(first)
                    scorer = first.scorer
                pull_map(score, todo, cfg.backend.max_in_flight, record)

            def copied() -> Iterator[float]:
                """Each score in corpus order, once its line is in scores.jsonl.tmp."""
                nonlocal count, low, high
                runs = shard_runs(docs, cfg.shard_size)
                for line, out in _run_ledgered(runs, attrgetter("id"), replay, ledger, ScoreLine, issue):
                    scores_out.write(out)
                    count += 1
                    low, high = min(low, line.score), max(high, line.score)
                    yield line.score

            # sum() in corpus order: the mean is the same float however the scores landed.
            total = sum(copied())
    except BaseException:
        scores_tmp.unlink(missing_ok=True)
        raise
    finally:
        backend.close()
    scores_tmp.replace(out_dir / "scores.jsonl")
    wall = time.monotonic() - started
    report = {
        "stage": "score",
        "corpus_sha256": corpus_digest,
        "docs": count,
        "scorers": [scorer] if count else [],
        "mean_score": total / count if count else 0.0,
        "min_score": low if count else 0.0,
        "max_score": high if count else 0.0,
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

    Documents are read by ``CorpusLines``, so each kept line of a corpus
    that ``write_corpus`` wrote is copied as it is, and any other corpus
    is parsed.  Kept documents stream into a temporary directory that
    replaces ``filtered/`` only when every document had a score, so a
    refused run leaves ``filtered/`` as it was; memory holds the score
    table.  With an ask-llm scorer, scores that ``scores/report.json``
    says were paid for another corpus are refused before any is read.
    """
    started = time.monotonic()
    estimator = load_estimator(cfg)
    manifest, base_dir = _select_corpus(cfg, manifest_path)
    threshold = cfg.filter.threshold if threshold is None else threshold
    lines = CorpusLines(manifest, base_dir, cfg.languages)

    if cfg.filter.scorer == SCORER_EXTERNAL:
        scores = ingest_external_scores(cfg.filter.external_scores)
    else:
        _check_scored_corpus(cfg, lines)
        scores_path = cfg.work_dir / "scores" / "scores.jsonl"
        # An absent score shard filters against an empty table, so the
        # resulting error names every unscored document.
        scores = ingest_external_scores(scores_path) if scores_path.is_file() else {}

    kept = ThresholdFilter(
        ((line, line.id, line.lang, line.chars) for line in lines), scores, threshold, estimator
    )
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


def _check_scored_corpus(cfg: PipelineConfig, lines: CorpusLines) -> None:
    """Refuse scores that score wrote for another corpus than the one
    filtered: document ids survive rephrasing, so only the digest that
    score's report names tells.  A report without it passes."""
    report_path = cfg.work_dir / "scores" / "report.json"
    if not report_path.is_file():
        return
    try:
        scored = json.loads(report_path.read_text(encoding="utf-8")).get("corpus_sha256")
    except (ValueError, AttributeError) as exc:
        raise CorpusError(f"score report {report_path} is not readable: {exc!r}") from exc
    if scored is None:
        return
    digest = lines.sha256()
    if digest is not None and digest != scored:
        raise StageError(
            f"scores in {report_path.parent} are for the corpus with sha256 {scored}, "
            f"not for the filter's input, whose sha256 is {digest}; rerun score on this input"
        )


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
    _write_whole(table + "\n", out_dir / "stats.txt")
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
    filter, mix only when configured.  The stages share one
    ``digest_memo``, so each corpus is hashed at most once beyond its
    write; it is cleared when the chain returns or raises."""
    reports = {}
    with digest_memo():
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
