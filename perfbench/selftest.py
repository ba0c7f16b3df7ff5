"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Checks that every output check rejects a corrupted output, that a tiny
run of each workload passes untraced and traced, and that
BENCHMARK.json lists exactly the metrics ``run.py`` reports.  Exits
non-zero on the first failure.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

from checks import CheckError, check_identical, check_reports, output_digests
from run import END_TO_END, PER_LAYER, REPO, Bench, run_workload
from workloads import WORKLOADS, scaled

TINY_DOCS = 40
SEED = 1
WORK = REPO / ".perfbench_work" / "selftest"


def expect_rejected(name: str, check, *args) -> None:
    try:
        check(*args)
    except CheckError as exc:
        print(f"ok   {name}: rejected ({exc})")
        return
    raise SystemExit(f"FAIL {name}: the corrupted output passed the check")


def _corrupt_reports(reports: dict, stage: str, field: str, delta: int) -> dict:
    bad = copy.deepcopy(reports)
    bad[stage][field] += delta
    return bad


def _rewrite_jsonl(path: Path, edit) -> None:
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    rows = edit(rows)
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def test_checks_reject_corruption() -> None:
    workload = scaled(WORKLOADS["resume_legacy"], TINY_DOCS)
    bench = Bench(workload, SEED, WORK / "checks")
    shutil.rmtree(bench.work, ignore_errors=True)
    bench.work.mkdir(parents=True)
    root = bench.work / "run"
    reports = bench.spawn(root, steps=list(workload.steps))["reports"]
    work = root / "work"
    check_reports(reports, work)
    digests = output_digests(work)
    print("ok   checks pass on a clean resume_legacy run")

    for stage, field, delta in (
        ("rephrase", "done", -1),
        ("rephrase", "replayed", -1),
        ("rephrase", "issued", 1),
        ("rephrase_stopped", "stop_at", 1),
        ("postprocess", "emitted_docs", 1),
        ("filter", "dropped", 1),
    ):
        bad_reports = _corrupt_reports(reports, stage, field, delta)
        expect_rejected(f"{stage}.{field} off by {delta}", check_reports, bad_reports, work)

    def corrupted_copy(name: str) -> Path:
        target = bench.work / name
        shutil.copytree(work, target)
        return target

    bad = corrupted_copy("low-score")
    first_line = (bad / "filtered" / "shard-00000.jsonl").read_text(encoding="utf-8").splitlines()[0]
    kept = json.loads(first_line)["id"]
    threshold = reports["filter"]["threshold"]
    _rewrite_jsonl(
        bad / "scores" / "scores.jsonl",
        lambda rows: [{**row, "score": threshold} if row["doc_id"] == kept else row for row in rows],
    )
    expect_rejected("kept document at the threshold", check_reports, reports, bad)

    bad = corrupted_copy("lost-doc")
    _rewrite_jsonl(bad / "filtered" / "shard-00000.jsonl", lambda rows: rows[1:])
    expect_rejected("filtered document missing on disk", check_reports, reports, bad)

    bad = corrupted_copy("flipped-byte")
    path = bad / "rephrase" / "completions.jsonl"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    expect_rejected("completions differ by one byte", check_identical, output_digests(bad), digests)

    bad = corrupted_copy("missing-shard")
    (bad / "rephrased" / "shard-00000.jsonl").unlink()
    expect_rejected("rephrased shard missing", check_identical, output_digests(bad), digests)


def test_smoke_runs() -> None:
    for name, workload in WORKLOADS.items():
        for trace in (False, True):
            result = run_workload(
                scaled(workload, TINY_DOCS), SEED, 0, trace, WORK / name, probe_docs=TINY_DOCS
            )
            expected = PER_LAYER if trace else END_TO_END
            if not result["correct"] or set(result["metrics"]) != set(expected):
                raise SystemExit(f"FAIL smoke run {name} trace={trace}: {json.dumps(result)[:500]}")
            print(f"ok   smoke run {name} trace={int(trace)}: {result['attempted']} operations")


def test_benchmark_json_lists_the_reported_metrics() -> None:
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != END_TO_END:
        raise SystemExit(f"FAIL BENCHMARK.json end_to_end {declared} != reported {END_TO_END}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != PER_LAYER:
        differing = sorted(set(declared.items()) ^ set(PER_LAYER.items()))
        raise SystemExit(f"FAIL BENCHMARK.json per_layer differs from the reported metrics: {differing}")
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        raise SystemExit("FAIL BENCHMARK.json workloads differ from workloads.py")
    print("ok   BENCHMARK.json lists the reported metrics and workloads")


def main() -> int:
    try:
        test_benchmark_json_lists_the_reported_metrics()
        test_checks_reject_corruption()
        test_smoke_runs()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
