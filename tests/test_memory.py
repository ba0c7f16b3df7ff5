"""Every stage runs in memory that stays flat as the corpus grows.

Each stage runs under ``tracemalloc`` on N and on 4N conftest documents.
Its traced peak may grow by no more than the per-document index the
stage must keep, plus a fixed slack; a stage that holds documents grows
by their text, several kilobytes each, and fails.  Preprocess and
rephrase run with one passages shard that holds every passage:
preprocess keeps only that open shard's size index (9 bytes a passage),
within the fixed slack, and rephrase is held to its per-passage index
within a shard.
"""

from __future__ import annotations

import shutil
import statistics
import tracemalloc

import pytest

from rephrasing import pipeline
from rephrasing.config import load_config
from rephrasing.corpus import ShardManifest
from rephrasing.inference import BackendError, CompletionBackend

from conftest import make_docs, write_fixture_config

N = 150

# Upper bounds, in bytes per input document, of what each stage must
# index (measured on CPython 3.11, rounded up):
# - postprocess: the ids of documents with a failed passage, a set of at
#   most one entry per document (about 165 bytes an entry);
# - score: nothing per document.  Like rephrase it writes its output
#   from the ledger, one shard_size run at a time (25 documents here),
#   and holds that run's ids and the ScoreLines that say where their
#   ledger lines lie; score_resumed, which replays every document from
#   the ledger, holds a ScoreLine per document until its run comes
#   (about 200 bytes with its id and score);
# - filter: the score table, one id -> score entry per document (about
#   105 bytes);
# - mix: offset, length, weight, characters and language code of every
#   source document (25 bytes, two sources here) and one 8-byte reference
#   per drawn document, plus an 8-byte shuffle slot per document of the
#   source being drawn, whether it reads its sources' size indexes or, as
#   mix_parsed does on the same manifests with the record and the index
#   digest removed, parses them;
# - stats: nothing per document, whether it hashes the shards that match
#   their manifest's record or, as stats_parsed does on the same
#   manifests with the record removed, parses them.
INDEX_BYTES_PER_DOC = {
    "postprocess": 170,
    "score": 0,
    "filter": 150,
    "mix": 80,
    "score_resumed": 300,
    "stats": 0,
    "stats_parsed": 0,
    "mix_parsed": 80,
}
# Per-shard manifest entries, dict and list growth steps.
SLACK_BYTES = 64 * 1024
# Score keeps nothing that grows with the corpus.  Its peak swings by
# up to about 17 KB either way with how many documents and prompts the
# request threads hold at that instant, so its slack is 32 KiB: a score
# list of about 110 bytes a document (48 to 57 KB here) exceeds it.
# One peak of it is one draw of that swing, so its peak is the median of
# three fresh runs.
SLACK_BYTES_OF = {"score": 32 * 1024}
RUNS_OF = {"score": 3}

# Upper bound, in bytes per passage, of what rephrase keeps of one shard:
# each passage's job (key, prompt length, line offset and length), the
# ledger position, text length and finish of each issued result, and on
# a resume the ledger position of each replayed one (about 500 bytes in
# all, measured on CPython 3.11).  Holding a shard of prompts or results
# costs several kilobytes per passage.
REPHRASE_BYTES_PER_PASSAGE = 800


class _FailingBackend(CompletionBackend):
    """Fails every prompt whose length is a multiple of 7 for good, so
    postprocess meets failed passages."""

    def __init__(self, inner: CompletionBackend):
        self.inner = inner

    def complete(self, prompt, **kwargs):
        if len(prompt) % 7 == 0:
            raise BackendError("scripted permanent failure")
        return self.inner.complete(prompt, **kwargs)

    def option_logprobs(self, prompt, options):
        return self.inner.option_logprobs(prompt, options)

    def close(self):
        self.inner.close()


def traced_peaks(tmp_path, n_docs: int) -> dict[str, int]:
    mix = {
        "unit": "tokens",
        "sources": [
            {"name": "original", "manifest": "input/manifest.json", "weight": 1.0},
            {"name": "filtered", "manifest": "work/filtered/manifest.json", "weight": 1.0},
        ],
    }
    path = write_fixture_config(
        tmp_path / str(n_docs),
        make_docs(n_docs, seed=3),
        # Threshold 0 keeps nearly every document, so a filter that
        # collected what it keeps would show.
        extra={"shard_size": 25, "mix": mix, "filter": {"scorer": "ask_llm", "threshold": 0.0}},
    )
    cfg = load_config(path)
    pipeline.stage_preprocess(cfg)
    pipeline.stage_rephrase(cfg)
    peaks = {}
    for stage in INDEX_BYTES_PER_DOC:
        if stage == "stats_parsed":  # and mix_parsed after it
            remove_records(cfg)
        runs = []
        for _ in range(RUNS_OF.get(stage, 1)):
            if stage == "score":
                shutil.rmtree(cfg.work_dir / "scores", ignore_errors=True)
            tracemalloc.start()
            try:
                getattr(pipeline, f"stage_{stage.split('_')[0]}")(cfg)
                runs.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        peaks[stage] = statistics.median(runs)
    return peaks


def remove_records(cfg) -> None:
    """Save the manifests stats and mix read without their record and
    index digest, as an older version wrote them, so that both parse
    every shard."""
    for path in (
        cfg.input_manifest,
        *(cfg.work_dir / name / "manifest.json" for name in ("rephrased", "filtered", "mixed")),
    ):
        manifest = ShardManifest.load(path)
        assert manifest.record is not None and manifest.index_sha256 is not None, path
        manifest.record = manifest.index_sha256 = None
        manifest.save(path)


@pytest.fixture(scope="module")
def peaks(tmp_path_factory):
    make = pipeline.make_backend
    pipeline.make_backend = lambda cfg: _FailingBackend(make(cfg))
    try:
        root = tmp_path_factory.mktemp("memory")
        return traced_peaks(root, N), traced_peaks(root, 4 * N)
    finally:
        pipeline.make_backend = make


@pytest.mark.parametrize("stage", list(INDEX_BYTES_PER_DOC))
def test_peak_grows_only_by_index(peaks, stage):
    small, large = peaks
    allowed = 3 * N * INDEX_BYTES_PER_DOC[stage] + SLACK_BYTES_OF.get(stage, SLACK_BYTES)
    growth = large[stage] - small[stage]
    assert growth <= allowed, (
        f"{stage}: traced peak {small[stage]} -> {large[stage]} bytes from {N} to {4 * N} "
        f"documents, growth {growth} > allowed {allowed}"
    )


class _StopHalfway(Exception):
    pass


def one_shard_peaks(tmp_path, n_docs: int) -> dict[str, tuple[int, int]]:
    """(passages, traced peak) of preprocess, of a fresh rephrase and of
    a resume after a stop halfway, each on one shard that holds every
    passage."""
    path = write_fixture_config(
        tmp_path / f"rephrase-{n_docs}", make_docs(n_docs, seed=3), extra={"shard_size": 1_000_000}
    )
    cfg = load_config(path)
    tracemalloc.start()
    try:
        passages = pipeline.stage_preprocess(cfg)["passages"]
        peaks = {"preprocess": (passages, tracemalloc.get_traced_memory()[1])}
    finally:
        tracemalloc.stop()
    assert len(pipeline._passage_shard_paths(cfg)) == 1
    seen = 0

    def stop_halfway(result) -> None:
        nonlocal seen
        seen += 1
        if seen == passages // 2:
            raise _StopHalfway

    for case, on_result in (("rephrase", None), ("rephrase_resumed", stop_halfway)):
        shutil.rmtree(cfg.work_dir / "rephrase", ignore_errors=True)
        if on_result is not None:
            with pytest.raises(_StopHalfway):
                pipeline.stage_rephrase(cfg, on_result=on_result)
        tracemalloc.start()
        try:
            report = pipeline.stage_rephrase(cfg)
            peaks[case] = (passages, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report["jobs"] == passages
        assert report["failed"] > 0
        if on_result is not None:
            assert 0 < report["replayed"] < passages
    return peaks


@pytest.fixture(scope="module")
def one_shard_peak_pairs(tmp_path_factory):
    make = pipeline.make_backend
    pipeline.make_backend = lambda cfg: _FailingBackend(make(cfg))
    try:
        root = tmp_path_factory.mktemp("memory-rephrase")
        return one_shard_peaks(root, N), one_shard_peaks(root, 4 * N)
    finally:
        pipeline.make_backend = make


def test_preprocess_peak_stays_flat_on_one_shard(one_shard_peak_pairs):
    (small_passages, small), (large_passages, large) = (
        pair["preprocess"] for pair in one_shard_peak_pairs
    )
    growth = large - small
    assert growth <= SLACK_BYTES, (
        f"preprocess: traced peak {small} -> {large} bytes from {small_passages} to "
        f"{large_passages} passages in one shard, growth {growth} > allowed {SLACK_BYTES}"
    )


@pytest.mark.parametrize("case", ["rephrase", "rephrase_resumed"])
def test_rephrase_peak_grows_only_by_shard_index(one_shard_peak_pairs, case):
    (small_passages, small), (large_passages, large) = (pair[case] for pair in one_shard_peak_pairs)
    added = large_passages - small_passages
    allowed = added * REPHRASE_BYTES_PER_PASSAGE + SLACK_BYTES
    growth = large - small
    assert growth <= allowed, (
        f"{case}: traced peak {small} -> {large} bytes from {small_passages} to "
        f"{large_passages} passages, growth {growth} > allowed {allowed}"
    )
