"""Output checks run on every repetition; a failed check fails the run."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


class CheckError(Exception):
    """A pipeline output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _jsonl(path: Path):
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            yield json.loads(line)


def _shard_ids(stage_dir: Path) -> list[str]:
    manifest = json.loads((stage_dir / "manifest.json").read_text(encoding="utf-8"))
    return [doc["id"] for shard in manifest["shards"] for doc in _jsonl(stage_dir / shard["path"])]


def _checkpoint_results(path: Path, size: int) -> int:
    """Result records in the first ``size`` bytes of a checkpoint."""
    with path.open("rb") as handle:
        head = handle.read(size)
    return sum(1 for line in head.splitlines() if json.loads(line).get("kind") == "result")


def check_reports(reports: dict, work: Path) -> None:
    """Counts reconcile from rephrase to filter; kept scores pass the threshold."""
    rephrase = reports["rephrase"]
    _require(
        rephrase["done"] + rephrase["failed"] == rephrase["jobs"],
        f"rephrase: done {rephrase['done']} + failed {rephrase['failed']} != jobs {rephrase['jobs']}",
    )

    post = reports["postprocess"]
    dropped = sum(post["dropped_docs"].values())
    _require(
        post["input_docs"] == post["emitted_docs"] + dropped,
        f"postprocess: input {post['input_docs']} != emitted {post['emitted_docs']} + dropped {dropped}",
    )

    filtered = reports["filter"]
    _require(
        filtered["kept"] + filtered["dropped"] == post["emitted_docs"],
        f"filter: kept {filtered['kept']} + dropped {filtered['dropped']} "
        f"!= emitted {post['emitted_docs']}",
    )
    scores = {obj["doc_id"]: obj["score"] for obj in _jsonl(work / "scores" / "scores.jsonl")}
    kept = _shard_ids(work / "filtered")
    _require(
        len(kept) == filtered["kept"],
        f"filter: {len(kept)} kept documents on disk, report says {filtered['kept']}",
    )
    low = [doc_id for doc_id in kept if not scores[doc_id] > filtered["threshold"]]
    _require(not low, f"filter: kept {len(low)} document(s) at or below the threshold, e.g. {low[:3]}")

    stopped = reports.get("rephrase_stopped")
    if stopped is not None:
        recorded = _checkpoint_results(work / "rephrase" / "checkpoint.jsonl", stopped["checkpoint_bytes"])
        _require(
            recorded == stopped["stop_at"],
            f"resume: {recorded} results recorded before the stop, hook stopped at {stopped['stop_at']}",
        )
        _require(
            rephrase["replayed"] == recorded,
            f"resume: replayed {rephrase['replayed']} != {recorded} recorded before the stop",
        )
        _require(
            rephrase["issued"] == rephrase["jobs"] - rephrase["replayed"],
            f"resume: issued {rephrase['issued']} != jobs {rephrase['jobs']} "
            f"- replayed {rephrase['replayed']}",
        )


def output_digests(work: Path) -> dict[str, str]:
    """SHA-256 of completions and of every rephrased, filtered and mixed shard."""
    paths = [work / "rephrase" / "completions.jsonl"]
    for stage in ("rephrased", "filtered", "mixed"):
        paths.extend(sorted((work / stage).glob("shard-*.jsonl")))
    return {
        str(path.relative_to(work)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in paths
    }


def check_identical(digests: dict[str, str], reference: dict[str, str]) -> None:
    """Outputs are byte-identical to an uninterrupted run of the same seed."""
    differing = sorted(
        name for name in digests.keys() | reference.keys() if digests.get(name) != reference.get(name)
    )
    _require(not differing, f"outputs differ from the uninterrupted run: {differing}")
