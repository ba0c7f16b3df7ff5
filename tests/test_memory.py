"""Every stage after rephrase runs in memory that stays flat as the corpus grows.

Each stage runs under ``tracemalloc`` on N and on 4N conftest documents.
Its traced peak may grow by no more than the per-document index the
stage must keep, plus a fixed slack; a stage that holds documents grows
by their text, several kilobytes each, and fails.
"""

from __future__ import annotations

import tracemalloc

import pytest

from rephrasing import pipeline
from rephrasing.config import load_config
from rephrasing.inference import BackendError, CompletionBackend

from conftest import make_docs, write_fixture_config

N = 150

# Upper bounds, in bytes per input document, of what each stage must
# index (measured on CPython 3.11, rounded up):
# - postprocess: the ids of documents with a failed passage, a set of at
#   most one entry per document (about 165 bytes an entry);
# - score: one ScoredDocument per scored document (about 120 bytes with
#   its id and score); score_resumed, which replays every document from
#   the ledger, adds the replay table (about 145 bytes in all);
# - filter: the score table, one id -> score entry per document (about
#   105 bytes);
# - mix: offset, length and weight of every source document (20 bytes,
#   two sources here) and one 8-byte reference per drawn document, plus
#   an 8-byte shuffle slot per document of the source being drawn.
INDEX_BYTES_PER_DOC = {
    "postprocess": 170,
    "score": 300,
    "filter": 150,
    "mix": 80,
    "score_resumed": 300,
}
# Per-shard manifest entries, dict and list growth steps.
SLACK_BYTES = 64 * 1024


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
        tracemalloc.start()
        try:
            getattr(pipeline, f"stage_{stage.removesuffix('_resumed')}")(cfg)
            peaks[stage] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


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
    allowed = 3 * N * INDEX_BYTES_PER_DOC[stage] + SLACK_BYTES
    growth = large[stage] - small[stage]
    assert growth <= allowed, (
        f"{stage}: traced peak {small[stage]} -> {large[stage]} bytes from {N} to {4 * N} "
        f"documents, growth {growth} > allowed {allowed}"
    )
