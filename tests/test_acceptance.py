"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import math
import random
import string
import time
from collections import Counter
from pathlib import Path

import pytest

from rephrasing.cli import main as cli_main
from rephrasing.config import load_config
from rephrasing.corpus import Document, write_corpus
from rephrasing.mixing import MixSource, MixSpec, execute_mix, plan_mix
from rephrasing.pipeline import stage_preprocess, stage_rephrase
from rephrasing.postprocess import clean_passage, extract_tagged
from rephrasing.prompts import BUILTIN_TEMPLATE_IDS
from rephrasing.quality import score_from_logprobs, threshold_filter
from rephrasing.splitting import (
    OVERSIZE_UNSPLITTABLE,
    UNDERSIZE_TAIL,
    SplitConfig,
    merge_chunks,
    split_document,
)
from rephrasing.tokens import TokenEstimator

from conftest import make_docs, write_fixture_config
from test_prompts import GOLDEN_DIR, TEMPLATE_SHA256, golden_prompt

EST = TokenEstimator(tokens_per_char=0.25, calibrated=True)
CFG = SplitConfig()


def ok(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: PASS{suffix}")


@pytest.fixture(scope="module")
def fixture_corpus():
    return make_docs(10_000, seed=20_240)


@pytest.fixture(scope="module")
def fixture_passages(fixture_corpus):
    started = time.monotonic()
    passages = [split_document(doc, CFG, EST) for doc in fixture_corpus]
    return passages, time.monotonic() - started


def test_1_preprocessor_bounds(fixture_passages):
    passages, seconds = fixture_passages
    checked = 0
    for doc_passages in passages:
        for p in doc_passages:
            checked += 1
            assert p.est_tokens <= CFG.max_tokens or OVERSIZE_UNSPLITTABLE in p.split_flags
            assert p.est_tokens >= CFG.min_tokens or UNDERSIZE_TAIL in p.split_flags
    assert checked > 10_000
    assert seconds < 10.0
    ok(1, "preprocessor bounds", f"{checked} passages from 10k docs in {seconds:.2f}s")


def test_2_conservation(fixture_corpus, fixture_passages):
    passages, _ = fixture_passages
    violations = 0
    for doc, doc_passages in zip(fixture_corpus, passages):
        original = "".join(doc.text.split())
        rebuilt = "".join(" ".join(p.text for p in doc_passages).split())
        if original != rebuilt:
            violations += 1
    assert violations == 0
    ok(2, "conservation", f"{len(fixture_corpus)} documents, 0 violations")


def _oracle_groups(char_lens: list[int], ratio: float = 0.25) -> list[list[int]]:
    """Independent simulation of the greedy merge rule on char lengths:
    accumulate until the next chunk (plus the joining space) would push
    the estimate past the maximum, then start over with that chunk; an
    undersize final group is appended to the previous one."""
    groups: list[list[int]] = []
    acc: list[int] = []
    acc_est = 0.0
    for n in char_lens:
        est = n * ratio
        if not acc:
            acc, acc_est = [n], est
        elif acc_est + ratio + est > CFG.max_tokens:
            groups.append(acc)
            acc, acc_est = [n], est
        else:
            acc.append(n)
            acc_est += ratio + est
    if acc:
        if acc_est < CFG.min_tokens and groups:
            groups[-1] = groups[-1] + acc
        else:
            groups.append(acc)
    return groups


def test_3_merge_rule_oracle():
    rng = random.Random(33)
    matched = 0
    for case in range(200):
        n_chunks = rng.randint(1, 25)
        char_lens = [rng.randint(4, 2000) for _ in range(n_chunks)]
        chunks = ["x" * n for n in char_lens]
        expected = [sum(g) + len(g) - 1 for g in _oracle_groups(char_lens)]
        actual = [len(text) for text in merge_chunks(chunks, CFG, EST)]
        assert actual == expected, f"case {case}: {char_lens}"
        matched += 1
    assert matched == 200
    ok(3, "merge-rule oracle", "200/200 groupings match")


def test_4_template_fidelity():
    import hashlib
    from rephrasing.prompts import builtin_body

    for template_id in BUILTIN_TEMPLATE_IDS:
        body = builtin_body(template_id)
        assert hashlib.sha256(body.encode("utf-8")).hexdigest() == TEMPLATE_SHA256[template_id]
        expected = (GOLDEN_DIR / f"{template_id}.txt").read_bytes()
        assert golden_prompt(template_id).encode("utf-8") == expected
    ok(4, "template fidelity", f"{len(BUILTIN_TEMPLATE_IDS)} templates, checksums + goldens")


FUZZ_ALPHABET = string.ascii_letters + string.digits + " .,!?ßñüà"
# Maps each of the 256 byte values onto a letter of FUZZ_ALPHABET (all
# Latin-1), so a fragment of n letters is one draw of n random bytes.
FUZZ_LETTERS = bytes.maketrans(bytes(range(256)), (FUZZ_ALPHABET * 4).encode("latin-1")[:256])


def _fuzz_completion(rng: random.Random) -> str:
    fragments = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.random()
        if kind < 0.12:
            fragments.append(rng.choice(["</text>", "</s>", "<text>", "<|im_end|>"]))
        elif kind < 0.24:
            fragments.append(
                rng.choice(
                    ["Paraphrase:", "Paraphrase 1:", "Toddler-friendly paraphrase:",
                     "Erudite paraphrase:", "Option 2:"]
                )
            )
        elif kind < 0.30:
            fragments.append("\n")
        else:
            n = rng.randint(0, 700) if rng.random() < 0.97 else rng.randint(4500, 6000)
            fragments.append(rng.randbytes(n).translate(FUZZ_LETTERS).decode("latin-1"))
    return "".join(fragments)


def test_5_postprocess_filters_fuzz():
    rng = random.Random(55)
    total = 100_000
    accepted = 0
    rejections: Counter = Counter()
    for i in range(total):
        raw = _fuzz_completion(rng)
        regime = "tagged" if i % 2 else "legacy"
        cleaned = clean_passage("doc", i, raw, regime, seed=7)
        if cleaned.accepted:
            accepted += 1
            assert 50 <= len(cleaned.text) <= 5000
            assert not cleaned.text[-1].isalpha()
        else:
            rejections[cleaned.rejection] += 1
    assert accepted + sum(rejections.values()) == total
    ok(5, "postprocess filters", f"{total} fuzzed, {accepted} accepted, counts conserve")


def test_6_tagged_extraction():
    rng = random.Random(66)
    alphabet = string.ascii_letters + string.digits + " .!?\n<>/"
    checked = 0
    while checked < 10_000:
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 400))).strip()
        if not s or "</text>" in s:
            continue
        junk = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 50)))
        assert extract_tagged(s + "</text>" + junk) == s
        checked += 1
    # Adversarial multi-tag cases: the first closing tag always wins.
    assert extract_tagged("A.</text>B.</text>C.</text>") == "A."
    assert extract_tagged("</text>tail") == ""
    assert extract_tagged("<text>nested.</text></text>") == "<text>nested."
    assert extract_tagged("one.\n</text>\n</text>junk</text>") == "one."
    ok(6, "tagged extraction", "10k round trips + adversarial multi-tag cases")


def test_7_askllm_scorer_properties():
    rng = random.Random(77)
    for _ in range(10_000):
        lp_yes = rng.uniform(-500, 5) if rng.random() > 0.02 else -math.inf
        lp_no = rng.uniform(-500, 5) if rng.random() > 0.02 else -math.inf
        score = score_from_logprobs(lp_yes, lp_no)
        assert 0.0 <= score <= 1.0
    for _ in range(5_000):
        lp_yes, lp_no = rng.uniform(-60, 0), rng.uniform(-60, 0)
        shift = rng.uniform(-200, 200)
        assert math.isclose(
            score_from_logprobs(lp_yes, lp_no),
            score_from_logprobs(lp_yes + shift, lp_no + shift),
            rel_tol=1e-9,
            abs_tol=1e-12,
        )
    for _ in range(100):
        docs = [Document(f"d{i}", "t" * 30, "en") for i in range(50)]
        table = {d.id: rng.random() for d in docs}
        high, _ = threshold_filter(docs, table, 0.97)
        low, _ = threshold_filter(docs, table, 0.6)
        assert {d.id for d in high} <= {d.id for d in low}
    ok(7, "ask-llm scorer", "range, shift-invariance, threshold monotonicity")


def _token_source(tmp_path: Path, name: str, n_docs: int) -> MixSource:
    docs = [Document(f"{name}-{i:06d}", "x" * 400, "en") for i in range(n_docs)]
    out = tmp_path / name
    write_corpus(docs, out, stage="input", fingerprint="fp", estimator=EST)
    return MixSource(name, out / "manifest.json", 1.0)


def test_8_mixer(tmp_path):
    # Two 1M-est-token sources (10k docs x 100 tokens), mixed 1:1 with a
    # 1M-token target so both sides sample subsets.
    sources = (_token_source(tmp_path, "a", 10_000), _token_source(tmp_path, "b", 10_000))
    spec = MixSpec(sources=sources, target=1_000_000.0, seed=88)
    _, report = execute_mix(spec, tmp_path / "m1", estimator=EST)
    ratio = report.realized_ratio("a", "b")
    assert abs(ratio - 1.0) <= 0.01

    execute_mix(spec, tmp_path / "m2", estimator=EST)
    files1 = sorted((tmp_path / "m1").glob("*"))
    files2 = sorted((tmp_path / "m2").glob("*"))
    assert [f.name for f in files1] == [f.name for f in files2]
    assert all(a.read_bytes() == b.read_bytes() for a, b in zip(files1, files2))

    # Repeat rule: source at 30% of its quota runs 3 full passes plus a
    # sampled remainder; every document appears 3 or 4 times.
    small = _token_source(tmp_path, "small", 300)
    repeat_spec = MixSpec(sources=(small,), target=100_000.0, seed=88)
    plan = plan_mix(repeat_spec)
    assert plan.draws[0].full_passes == 3
    manifest, _ = execute_mix(repeat_spec, tmp_path / "m3", estimator=EST)
    from rephrasing.corpus import iter_corpus

    counts = Counter(
        doc.id.split("/", 1)[1].split("~")[0]
        for doc in iter_corpus(manifest, tmp_path / "m3", languages=None)
    )
    assert set(counts.values()) <= {3, 4}
    ok(8, "mixer", f"1:1 ratio {ratio:.4f}, byte-identical rerun, repeat rule 3/4 passes")


class _Kill(Exception):
    pass


def test_9_crash_equivalence(tmp_path):
    docs = make_docs(120, seed=99)
    reference_cfg = load_config(
        write_fixture_config(tmp_path, docs, extra={"work_dir": "ref"}, name="ref.yaml")
    )
    stage_preprocess(reference_cfg)
    report = stage_rephrase(reference_cfg)
    n_jobs = report["jobs"]
    reference = {
        name: (reference_cfg.work_dir / "rephrase" / name).read_bytes()
        for name in ("completions.jsonl", "failed.jsonl")
    }

    rng = random.Random(9)
    kill_points = sorted(rng.sample(range(1, n_jobs), 5))
    for kill_at in kill_points:
        work = f"work_kill_{kill_at}"
        cfg = load_config(
            write_fixture_config(
                tmp_path, docs, extra={"work_dir": work}, name=f"{work}.yaml"
            )
        )
        stage_preprocess(cfg)
        seen = 0

        def bomb(result):
            nonlocal seen
            seen += 1
            if seen >= kill_at:
                raise _Kill()

        with pytest.raises(_Kill):
            stage_rephrase(cfg, on_result=bomb)
        resumed = stage_rephrase(cfg)
        assert resumed["replayed"] >= kill_at
        for name, expected in reference.items():
            assert (cfg.work_dir / "rephrase" / name).read_bytes() == expected, (
                f"kill at {kill_at}: {name} diverged"
            )
    ok(9, "crash equivalence", f"kill points {kill_points} all byte-identical")


def test_10_end_to_end_desk_scale(tmp_path, capsys):
    import json

    docs = make_docs(1000, seed=100)
    config_path = write_fixture_config(tmp_path, docs)
    started = time.monotonic()
    exit_code = cli_main(["run-all", "-c", str(config_path)])
    seconds = time.monotonic() - started
    capsys.readouterr()
    assert exit_code == 0
    assert seconds < 60.0

    stats_path = tmp_path / "work" / "stats" / "stats.json"
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    names = [row["name"] for row in stats["datasets"]]
    assert "input" in names and "rephrased" in names

    table = (tmp_path / "work" / "stats" / "stats.txt").read_text(encoding="utf-8")
    assert "mio. docs" in table and "B tokens" in table

    recon = stats["reconciliation"]
    assert recon["input_docs"] == recon["emitted_docs"] + sum(recon["dropped_docs"].values())

    # The audit shard itself backs the reconciliation numbers.
    audit_path = tmp_path / "work" / "rephrased" / "audit.jsonl"
    doc_level = Counter()
    with audit_path.open(encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["index"] is None:
                doc_level[record["reason"]] += 1
    assert dict(doc_level) == recon["dropped_docs"]

    preprocess_report = json.loads(
        (tmp_path / "work" / "passages" / "report.json").read_text(encoding="utf-8")
    )
    assert preprocess_report["docs_in"] == 1000
    assert (
        preprocess_report["docs_in"] - preprocess_report["docs_without_passages"]
        == recon["input_docs"]
    )
    ok(10, "end-to-end desk scale", f"1k docs via run-all in {seconds:.1f}s, counts reconcile")
