"""Shared fixtures: seeded synthetic multilingual corpora and configs."""

from __future__ import annotations

import json
import random
import string
from pathlib import Path

import pytest
import yaml

from rephrasing.corpus import Document, write_corpus
from rephrasing.tokens import TokenEstimator

LANGS = ("en", "de", "es", "it")

# A few language-flavored letters so multilingual text is not pure ASCII.
_EXTRA_LETTERS = {
    "en": "",
    "de": "äöüß",
    "es": "áéíñ",
    "it": "àèìò",
}


def _below(bits, n: int) -> int:
    """``rng._randbelow(n)``: what ``choice`` and ``randint`` draw, by the
    same ``getrandbits`` calls."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def make_word(rng: random.Random, lang: str = "en") -> str:
    # rng.choice(letters) per letter, for rng.randint(2, 10) letters,
    # drawn inline: the method calls around each draw cost more than it.
    letters = string.ascii_lowercase + _EXTRA_LETTERS[lang]
    bits = rng.getrandbits
    n = len(letters)
    k = n.bit_length()
    out = []
    for _ in range(2 + _below(bits, 9)):
        r = bits(k)
        while r >= n:
            r = bits(k)
        out.append(letters[r])
    return "".join(out)


def make_sentence(rng: random.Random, lang: str = "en", n_words: int | None = None) -> str:
    n = n_words if n_words is not None else rng.randint(4, 18)
    words = [make_word(rng, lang) for _ in range(n)]
    return " ".join(words) + ".!?"[_below(rng.getrandbits, 3)]


def make_paragraph(rng: random.Random, lang: str = "en", n_sentences: int | None = None) -> str:
    n = n_sentences if n_sentences is not None else rng.randint(1, 8)
    return " ".join([make_sentence(rng, lang) for _ in range(n)])


def make_doc_text(rng: random.Random, lang: str = "en") -> str:
    shape = rng.random()
    if shape < 0.05:
        # Tiny document, below the minimum passage length.
        return make_sentence(rng, lang, n_words=rng.randint(2, 6))
    if shape < 0.10:
        # One giant sentence with no interior split point.
        return " ".join([make_word(rng, lang) for _ in range(rng.randint(400, 700))]) + "."
    paragraphs = [make_paragraph(rng, lang) for _ in range(rng.randint(1, 10))]
    sep = "\n" * rng.randint(1, 3)
    return sep.join(paragraphs)


def doc_json(doc: Document) -> str:
    """A document's shard line without its line feed, as ``json.dumps``
    gives it: the reference the pipeline's own encoder must match."""
    obj = {
        "id": doc.id,
        "text": doc.text,
        "lang": doc.lang,
        "meta": dict(doc.meta),
        "provenance": doc.provenance.to_obj(),
    }
    return json.dumps(obj, ensure_ascii=False)


def make_docs(n: int, seed: int = 0, langs=LANGS) -> list[Document]:
    rng = random.Random(seed)
    docs = []
    for i in range(n):
        lang = langs[i % len(langs)]
        docs.append(
            Document(
                id=f"doc-{i:06d}",
                text=make_doc_text(rng, lang),
                lang=lang,
                meta={"source": "synthetic"},
            )
        )
    return docs


@pytest.fixture
def quarter_estimator() -> TokenEstimator:
    """Exactly 0.25 tokens per character, the conventional heuristic."""
    return TokenEstimator(tokens_per_char=0.25, sample_size=0, seed=0, calibrated=True)


@pytest.fixture
def small_corpus() -> list[Document]:
    return make_docs(50, seed=7)


# Mock rules that echo the passage back as a QA-style tagged completion
# (for the optimized templates) or a marker-labeled one (legacy).
QA_TAGGED_RULES = [
    {
        "pattern": r"(?s)<text>\n(.*?)\n</text>\[/INST\]",
        "response": "Question: What does the passage say?\nAnswer: \\1\n</text>",
    }
]
QA_LEGACY_RULES = [
    {
        "pattern": r"(?s)\"Answer\":\n(.*?)\[/INST\]",
        "response": "Paraphrase: \\1</s>",
    }
]


def write_fixture_config(
    tmp_path: Path,
    docs: list[Document],
    *,
    template: str = "qa_opt_en",
    mock_rules: list[dict] | None = None,
    extra: dict | None = None,
    name: str = "config.yaml",
) -> Path:
    """Materialize an input corpus plus a mock-backend config file."""
    input_dir = tmp_path / "input"
    if not (input_dir / "manifest.json").exists():
        write_corpus(docs, input_dir, stage="input", fingerprint="input")
    obj = {
        "languages": ["en", "de", "es", "it"],
        "seed": 0,
        "work_dir": "work",
        "input_manifest": "input/manifest.json",
        "estimator": {"default_ratio": 0.25, "sample_size": 50},
        "template": template,
        "temperature": 0.7,
        "backend": {
            "kind": "mock",
            "model": "mock-model",
            "max_in_flight": 8,
            "mock": {"rules": mock_rules if mock_rules is not None else QA_TAGGED_RULES},
        },
        "filter": {"scorer": "ask_llm", "threshold": 0.6},
        "shard_size": 10_000,
    }
    if extra:
        obj.update(extra)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(obj, sort_keys=False), encoding="utf-8")
    return path
