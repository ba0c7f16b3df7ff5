"""Workload definitions: seeded corpora, pipeline configs and step lists.

Every input the pipeline sees is made here from the workload's seed, so
the same seed always gives the same corpus and the same config.
"""

from __future__ import annotations

import dataclasses
import random
import string
from pathlib import Path
from typing import Iterator

import yaml

from stub import BUSY_MARKER

LANGS = ("en", "de", "es", "it")
_EXTRA_LETTERS = {"en": "", "de": "äöüß", "es": "áéíñ", "it": "àèìò"}
_VOCABULARY_SIZE = 2000
_SENTENCE_POOL_SIZE = 2000

MAX_IN_FLIGHT = 2
INPUT_SHARD_SIZE = 2000
# Share of an HTTP workload's documents that start with the stub's
# BUSY_MARKER.  The first attempt at each prompt that holds it gets a
# 503: one rephrase retry and one ASK-LLM vote fallback per document.
BUSY_SHARE = 0.05

# Echo the passage back as a tagged QA completion.
TAGGED_RULES = [
    {
        "pattern": r"(?s)<text>\n(.*?)\n</text>\[/INST\]",
        "response": "Question: What does the passage say?\nAnswer: \\1\n</text>",
    }
]
# Two or three "Paraphrase N:" blocks, depending on the passage's first
# letter, so the legacy cleaner's seeded choice has something to choose.
LEGACY_RULES = [
    {
        "pattern": r"(?s)\"Answer\":\n([a-m].*?)\[/INST\]",
        "response": "Paraphrase 1:\n\\1\nParaphrase 2:\nIn other words, \\1\n"
        "Paraphrase 3:\nPut simply, \\1</s>",
    },
    {
        "pattern": r"(?s)\"Answer\":\n(.*?)\[/INST\]",
        "response": "Paraphrase 1:\n\\1\nParaphrase 2:\nIn other words, \\1</s>",
    },
]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    docs: int
    langs: tuple[str, ...]
    # Backend kind: "mock" (in-process) or "http" (the stub endpoint).
    backend: str
    steps: tuple[str, ...]
    why: str

    @property
    def http(self) -> bool:
        return self.backend == "http"


_CHAIN = ("preprocess", "rephrase", "postprocess", "score", "filter")
# The stages pipeline.run_all runs when the config has a mix section.
RUN_ALL_STEPS = _CHAIN + ("mix", "stats")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bulk_mock",
            4000,
            LANGS,
            "mock",
            RUN_ALL_STEPS,
            "full run_all chain on the largest 4-language corpus with the mock backend: "
            "CPU-bound in the pipeline's own Python",
        ),
        Workload(
            "endpoint_stub",
            60,
            LANGS,
            "http",
            _CHAIN,
            "stub HTTP endpoint with length-proportional latency and a fixed share of 503s: "
            "slots, retries, ASK-LLM requests and client HTTP CPU",
        ),
        Workload(
            "resume_legacy",
            1000,
            ("en",),
            "mock",
            ("preprocess", "rephrase_stopped", "rephrase", "postprocess", "score", "filter"),
            "legacy qa template, rephrase stopped at a seeded job and resumed: "
            "checkpoint replay and legacy cleaning",
        ),
    )
}


def scaled(workload: Workload, docs: int) -> Workload:
    """The same workload on another corpus size (for smoke runs)."""
    return dataclasses.replace(workload, docs=docs)


def _shape(index: int) -> int:
    """The document's shape: 0 too short, 1 one giant sentence, else ordinary.

    The shape follows the index, so every seed gets the same mix of
    shapes and corpora differ only in their text.  Consecutive documents
    rotate languages; dividing by 4 gives each language its share of
    every shape.
    """
    return index // 4 % 20


def _sentence(rng: random.Random, vocab: list[str], n_words: int) -> str:
    return " ".join(rng.choices(vocab, k=n_words)) + rng.choice(".!?")


class _Language:
    """Words and a pool of ordinary sentences for one language.

    Paragraphs draw from the pool, which keeps generation fast next to
    the pipeline; sentence lengths follow the same 4-18 word spread.
    """

    def __init__(self, rng: random.Random, lang: str):
        letters = string.ascii_lowercase + _EXTRA_LETTERS[lang]
        self.vocab = [
            "".join(rng.choices(letters, k=rng.randint(2, 10))) for _ in range(_VOCABULARY_SIZE)
        ]
        self.sentences = [
            _sentence(rng, self.vocab, rng.randint(4, 18)) for _ in range(_SENTENCE_POOL_SIZE)
        ]

    def doc_text(self, rng: random.Random, index: int) -> str:
        shape = _shape(index)
        if shape == 0:
            # Below the minimum passage length.
            return _sentence(rng, self.vocab, rng.randint(2, 6))
        if shape == 1:
            # One giant sentence with no interior split point.
            return _sentence(rng, self.vocab, 400 + index * 37 % 301)
        paragraphs = [
            " ".join(rng.choices(self.sentences, k=rng.randint(1, 8)))
            for _ in range(1 + index * 7 % 10)
        ]
        return ("\n" * rng.randint(1, 3)).join(paragraphs)


def iter_documents(workload: Workload, seed: int) -> Iterator:
    """The workload's input documents, generated lazily from the seed."""
    from rephrasing.corpus import Document

    rng = random.Random(f"{workload.name}|{seed}")
    languages = {lang: _Language(rng, lang) for lang in workload.langs}
    busy: set[int] = set()
    if workload.http:
        # A seeded choice of exactly BUSY_SHARE of the ordinary
        # documents, so every seed meets the same number of 503s.
        ordinary = [i for i in range(workload.docs) if _shape(i) >= 2]
        busy = set(rng.sample(ordinary, round(BUSY_SHARE * workload.docs)))
    for i in range(workload.docs):
        lang = workload.langs[i % len(workload.langs)]
        text = languages[lang].doc_text(rng, i)
        yield Document(
            id=f"doc-{i:06d}",
            text=f"{BUSY_MARKER} {text}" if i in busy else text,
            lang=lang,
            meta={"source": "synthetic"},
        )


def stop_fraction(seed: int) -> float:
    """Share of rephrase jobs after which resume_legacy stops the run."""
    return random.Random(f"stop|{seed}").uniform(0.45, 0.55)


def config_obj(workload: Workload, seed: int, endpoint: str = "") -> dict:
    obj = {
        "languages": list(workload.langs),
        "seed": seed,
        "work_dir": "work",
        "input_manifest": "input/manifest.json",
        "estimator": {"default_ratio": 0.25, "sample_size": 200},
        "temperature": 0.7,
        "filter": {"scorer": "ask_llm", "threshold": 0.6},
        "shard_size": INPUT_SHARD_SIZE,
    }
    if workload.name == "resume_legacy":
        obj["template"] = "qa"
    else:
        obj["template"] = {lang: f"qa_opt_{lang}" for lang in workload.langs}
    if workload.http:
        obj["backend"] = {
            "kind": "http",
            "endpoint": endpoint,
            "model": "stub-model",
            "max_in_flight": MAX_IN_FLIGHT,
            "timeout_s": 30.0,
            # With the default 0.5 s backoff the retry waits, not the
            # endpoint or the client, would decide much of the wall time.
            "retry_backoff_s": 0.05,
        }
    else:
        rules = LEGACY_RULES if workload.name == "resume_legacy" else TAGGED_RULES
        obj["backend"] = {
            "kind": "mock",
            "model": "mock-model",
            "max_in_flight": MAX_IN_FLIGHT,
            "mock": {"rules": rules},
        }
    if "mix" in workload.steps:
        obj["mix"] = {
            "sources": [
                {"name": "original", "manifest": "input/manifest.json", "weight": 1.0},
                {"name": "filtered", "manifest": "work/filtered/manifest.json", "weight": 1.0},
            ],
            "unit": "tokens",
        }
    return obj


def write_config(root: Path, workload: Workload, seed: int, endpoint: str = "") -> Path:
    path = root / "config.yaml"
    path.write_text(
        yaml.safe_dump(config_obj(workload, seed, endpoint), sort_keys=False, allow_unicode=True),
        encoding="utf-8",
    )
    return path
