"""``run_all`` hashes each corpus at most once beyond its write.

Preprocess hashes the input as its split reads it (``ReadDigest``), and
within ``run_all`` a ``digest_memo`` hands every digest that was written,
read or hashed to each later stage that would hash the same files again,
keyed by the files' identities.  Outside ``run_all`` every stage hashes
as before.  The tests count the bytes each file gives to a digest: by
``_hash_lines``, and by the split's read.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from rephrasing import corpus, pipeline
from rephrasing.config import load_config
from rephrasing.corpus import (
    CorpusError,
    Document,
    ShardManifest,
    SizedLine,
    digest_memo,
    write_corpus,
    write_shard,
)
from rephrasing.pipeline import StageError, run_all

from conftest import make_docs, write_fixture_config

MIX = {
    "unit": "tokens",
    "sources": [
        {"name": "original", "manifest": "input/manifest.json", "weight": 1.0},
        {"name": "filtered", "manifest": "work/filtered/manifest.json", "weight": 1.0},
    ],
}
# A meta value of the conftest documents, which rephrased documents keep.
SYNTHETIC = b'"source": "synthetic"'
EDITS = {
    "same_size": b'"source": "edited!!!"',
    "same_size_mtime_restored": b'"source": "edited!!!"',
    "size_changed": b'"source": "edited"',
}


def corpus_of(path: Path) -> str:
    return "documents" if path.name == "documents.jsonl" else path.parent.name


@pytest.fixture
def hashed(monkeypatch) -> dict[str, Counter]:
    """Bytes given to a digest per file: ``hash`` by ``_hash_lines``,
    ``read`` by preprocess's split as it read them."""
    counts = {"hash": Counter(), "read": Counter()}
    hash_lines = corpus._hash_lines
    add = corpus.ReadDigest.add

    def counting_hash(path, digest):
        lines = hash_lines(path, digest)
        counts["hash"][Path(path)] += Path(path).stat().st_size
        return lines

    def counting_add(read, reader):
        counts["read"][reader.path] += reader.path.stat().st_size
        return add(read, reader)

    monkeypatch.setattr(corpus, "_hash_lines", counting_hash)
    monkeypatch.setattr(corpus.ReadDigest, "add", counting_add)
    return counts


def times_hashed(counts: Counter) -> dict[str, float]:
    """How many times over each corpus was given to a digest."""
    given, size = Counter(), Counter()
    for path, n_bytes in counts.items():
        given[corpus_of(path)] += n_bytes
        size[corpus_of(path)] += path.stat().st_size
    return {name: given[name] / size[name] for name in given}


def fixture_config(tmp_path: Path, work: str = "work"):
    """The 40-document fixture with a mix of the input and the filtered
    corpus, in shards of 7 documents, working in ``work``."""
    sources = [
        {**source, "manifest": source["manifest"].replace("work/", f"{work}/")}
        for source in MIX["sources"]
    ]
    extra = {"shard_size": 7, "work_dir": work, "mix": {**MIX, "sources": sources}}
    path = write_fixture_config(tmp_path, make_docs(40, seed=3), extra=extra, name=f"{work}.yaml")
    return load_config(path)


def corpus_files(work: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(work)): path.read_bytes()
        for stage in ("passages", "rephrased", "filtered", "mixed")
        for path in sorted((work / stage).iterdir())
        if path.suffix in (".jsonl", ".idx") or path.name == "manifest.json"
    }


def test_run_all_hashes_only_the_input_and_only_in_its_split(tmp_path, hashed):
    cfg = fixture_config(tmp_path)
    reports = run_all(cfg)
    assert corpus._memo.get() is None
    assert times_hashed(hashed["read"]) == {"input": 1}
    assert times_hashed(hashed["hash"]) == {}
    record = ShardManifest.load(cfg.input_manifest).record
    assert reports["preprocess"]["input_sha256"] == record.sha256
    assert set(reports) == set(pipeline.RUN_ALL_ORDER)
    # Every stage still found its corpus vouched for: nothing was parsed
    # that the stages one by one read by its bytes.
    assert reports["score"]["corpus_sha256"] == ShardManifest.load(
        cfg.work_dir / "rephrased" / "manifest.json"
    ).record.sha256


def test_stages_one_by_one_hash_as_before_and_write_the_same(tmp_path, hashed):
    cfg = fixture_config(tmp_path, "stages")
    for stage in pipeline.RUN_ALL_ORDER:
        getattr(pipeline, f"stage_{stage}")(cfg)
    one_by_one = {kind: times_hashed(counts) for kind, counts in hashed.items()}
    # As before the memo, but for preprocess's own pass over the input,
    # which its split's read now takes.
    assert one_by_one == {
        "hash": {
            "input": 3,  # postprocess's heads check, mix and stats
            "documents": 1,
            "passages": 1,
            "rephrased": 3,  # score, filter and stats
            "filtered": 2,  # mix and stats
            "mixed": 1,
        },
        "read": {"input": 1},
    }
    given = sum(sum(counts.values()) for counts in hashed.values())
    for counts in hashed.values():
        counts.clear()
    chained = fixture_config(tmp_path, "chained")
    run_all(chained)
    assert sum(sum(counts.values()) for counts in hashed.values()) * 9 < given
    assert corpus_files(chained.work_dir) == corpus_files(cfg.work_dir)


def edit_in_place(path: Path, case: str) -> None:
    """Edit the first rephrased document's meta in place.  Each edit is
    repeated until the file's identity shows it: an edit within the
    clock tick of the last write can keep both ``st_mtime_ns`` and
    ``st_ctime_ns``, which no digest memo can see."""
    before = os.stat(path)
    data = path.read_bytes().replace(SYNTHETIC, EDITS[case], 1)
    assert EDITS[case] in data
    for _ in range(500):
        with path.open("r+b") as handle:  # the same inode
            handle.write(data)
            handle.truncate()
        if case == "same_size_mtime_restored":
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
            assert os.stat(path).st_mtime_ns == before.st_mtime_ns
        after = os.stat(path)
        if (after.st_mtime_ns, after.st_ctime_ns) != (before.st_mtime_ns, before.st_ctime_ns):
            break
        time.sleep(0.01)
    else:
        pytest.fail(f"{path}: neither its mtime nor its ctime changed in 5 s")
    assert after.st_ino == before.st_ino
    assert (after.st_size == before.st_size) == case.startswith("same_size")


@pytest.mark.parametrize("case", list(EDITS))
def test_edit_between_stages_makes_the_next_hash(tmp_path, hashed, case):
    cfg = fixture_config(tmp_path)
    rephrased = cfg.work_dir / "rephrased"
    with digest_memo():
        for stage in ("preprocess", "rephrase", "postprocess", "score"):
            getattr(pipeline, f"stage_{stage}")(cfg)
        assert times_hashed(hashed["hash"]) == {}
        shard = rephrased / "shard-00000.jsonl"
        edit_in_place(shard, case)
        written = ShardManifest.load(rephrased / "manifest.json")
        edited = hashlib.sha256(b"".join(p.read_bytes() for p in written.shard_paths(rephrased)))
        # Filter hashes the edited corpus and refuses the scores of the
        # written one, in the words it uses outside the memo.
        with pytest.raises(StageError) as refused:
            pipeline.stage_filter(cfg)
        assert hashed["hash"][shard] > 0
        assert str(refused.value) == (
            f"scores in {cfg.work_dir / 'scores'} are for the corpus with sha256 "
            f"{written.record.sha256}, not for the filter's input, whose sha256 is "
            f"{edited.hexdigest()}; rerun score on this input"
        )
        # Score then takes the parse route and names the edited corpus,
        # whose scores filter takes.
        assert pipeline.stage_score(cfg)["corpus_sha256"] == edited.hexdigest()
        kept = pipeline.stage_filter(cfg)["kept"]
    assert kept == pipeline.stage_filter(cfg)["kept"]


def test_memo_is_cleared_when_run_all_raises(tmp_path):
    cfg = fixture_config(tmp_path)
    (tmp_path / "input" / "shard-00000.jsonl").write_bytes(b"not json\n")
    with pytest.raises(CorpusError):
        run_all(cfg)
    assert corpus._memo.get() is None


def test_corpus_written_outside_the_memo_is_hashed_once_inside(tmp_path, hashed):
    manifest = write_corpus(make_docs(9), tmp_path, stage="input", fingerprint="input", shard_size=4)
    paths = manifest.shard_paths(tmp_path)
    with digest_memo():
        assert manifest.recorded_digest(tmp_path) == manifest.record.sha256
        assert manifest.recorded_digest(tmp_path) == manifest.record.sha256
    assert hashed["hash"] == {path: path.stat().st_size for path in paths}
    assert manifest.recorded_digest(tmp_path) == manifest.record.sha256
    assert hashed["hash"] == {path: 2 * path.stat().st_size for path in paths}


def test_memo_holds_what_was_written_not_what_a_manifest_claims(tmp_path, hashed):
    with digest_memo():
        written = write_corpus(make_docs(9), tmp_path, stage="input", fingerprint="input", shard_size=4)
        manifest = ShardManifest.load(tmp_path / "manifest.json")
        assert manifest.recorded_digest(tmp_path) == written.record.sha256
        # A line claimed by the next shard: the counts the write took refuse it.
        moved = list(manifest.shards)
        moved[0] = corpus.ShardEntry(moved[0].path, moved[0].docs - 1, moved[0].chars, 0.0)
        moved[1] = corpus.ShardEntry(moved[1].path, moved[1].docs + 1, moved[1].chars, 0.0)
        assert ShardManifest("input", "input", moved, manifest.record).recorded_digest(tmp_path) is None
        forged = corpus.CorpusRecord("0" * 64, manifest.record.lang_chars, 0)
        assert ShardManifest("input", "input", manifest.shards, forged).recorded_digest(tmp_path) is None
    assert hashed["hash"] == {}


@pytest.mark.parametrize(
    "lines",
    [
        [],
        [b"\n", b"{}\n"],
        [b"a\n", b"no line feed"],
        [b"two\nlines\n", b"x" * (3 * corpus._WRITE_BLOCK) + b"\n", b"tail"],
        [b"y" * (corpus._WRITE_BLOCK - 1), b"\n\n"],
    ],
)
def test_written_line_counts_are_those_a_hash_counts(tmp_path, lines):
    """``write_shard`` counts a shard's lines as ``_hash_lines`` does,
    whatever the lines it is handed hold."""
    tally = corpus._Tally()
    items = [SizedLine(line, f"id-{i}", "en", 1) for i, line in enumerate(lines)]
    path = tmp_path / "s.jsonl"
    write_shard(items, path, tally=tally, unique_ids=False)
    digest = hashlib.sha256()
    assert tally.lines == [corpus._hash_lines(path, digest)]
    assert tally.record().sha256 == digest.hexdigest() == hashlib.sha256(b"".join(lines)).hexdigest()


def test_documents_written_in_blocks_keep_their_record(tmp_path):
    docs = [Document(f"d{i}", "w" * (i * 997 % 20_000 + 1), "en") for i in range(60)]
    manifest = write_corpus(docs, tmp_path, stage="x", fingerprint="x", shard_size=25)
    data = b"".join(path.read_bytes() for path in manifest.shard_paths(tmp_path))
    assert data == b"".join(corpus.sized_line(doc).line for doc in docs)
    assert manifest.record.sha256 == hashlib.sha256(data).hexdigest()
    assert manifest.record.lang_chars == {"en": sum(len(doc.text) for doc in docs)}


def test_memo_scope_is_its_own_threads():
    seen = []
    with digest_memo():
        thread = threading.Thread(target=lambda: seen.append(corpus._memo.get()))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert corpus._memo.get() == {}
    assert seen == [None]


def test_file_changed_during_a_hash_or_read_is_hashed_again(tmp_path, hashed):
    manifest = write_corpus(make_docs(9), tmp_path, stage="input", fingerprint="input", shard_size=4)
    paths = manifest.shard_paths(tmp_path)
    hash_lines = corpus._hash_lines

    def touching(path, digest):
        lines = hash_lines(path, digest)
        os.utime(path, ns=(0, 0))  # its mtime and ctime change once it is hashed
        return lines

    with digest_memo():
        read = corpus.ReadDigest(paths)
        assert len(list(corpus.iter_corpus(manifest, tmp_path, read=read))) == 9
        os.utime(paths[0], ns=(0, 0))
        assert manifest.recorded_digest(tmp_path, read=read) == manifest.record.sha256
        corpus._hash_lines = touching
        try:
            assert manifest.recorded_digest(tmp_path) == manifest.record.sha256
        finally:
            corpus._hash_lines = hash_lines
        assert manifest.recorded_digest(tmp_path) == manifest.record.sha256
    assert hashed["hash"] == {path: 2 * path.stat().st_size for path in paths}
