"""Benchmark the rephrasing pipeline end to end and module by module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/``.
Each repetition runs in a fresh worker process (``worker.py``) on the
corpus the seed makes; repetitions continue until ``--seconds`` have
passed, at least MIN_REPETITIONS of them, and every figure reported is
the median over repetitions.  Every repetition's outputs are checked
(``checks.py``).  With ``--trace 0`` the end-to-end metrics are
reported, their times at a reference CPU pace (``reported_times``,
``pace.py``), and the raw times are printed too; with ``--trace 1`` the per-module metrics, from traced
repetitions paired with untraced ones, per-stage child processes and
the ordering probe.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent

from checks import CheckError, check_identical, check_reports, output_digests  # noqa: E402
from stub import Stub  # noqa: E402
from workloads import RUN_ALL_STEPS, WORKLOADS, Workload  # noqa: E402

MIN_REPETITIONS = 3
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "docs_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "backend_requests_per_doc": "count",
}

PROBE_ORDERS = ("ascending", "descending", "input")
PER_LAYER = {
    **{f"pipeline.{stage}.wall_s": "s" for stage in RUN_ALL_STEPS},
    **{f"pipeline.{stage}.peak_rss_mb": "MB" for stage in RUN_ALL_STEPS},
    "corpus.input_passes": "count",
    "corpus.read_s": "s",
    "corpus.write_s": "s",
    "tokens.calibrate_s": "s",
    "splitting.split_document_s": "s",
    "splitting.passages": "count",
    "prompts.render_s": "s",
    "inference.jobs": "count",
    "inference.requests": "count",
    "inference.retries": "count",
    "inference.idle_slot_ms_per_job": "ms",
    "inference.ctx_switches_per_job": "count",
    "inference.checkpoint_append_s": "s",
    "inference.slot_utilisation": "share",
    "inference.tail_idle_s": "s",
    "inference.job_latency_ms.p50": "ms",
    "inference.job_latency_ms.p99": "ms",
    "inference.client_cpu_ms_per_request": "ms",
    "inference.replayed": "count",
    "inference.checkpoint_load_s": "s",
    "inference.wasted_requests": "count",
    "postprocess.clean_s": "s",
    "postprocess.assemble_s": "s",
    "postprocess.accept_ratio": "share",
    "quality.score_s": "s",
    "quality.requests_per_doc": "count",
    "quality.vote_fallback_docs": "count",
    "quality.filter_s": "s",
    "mixing.execute_s": "s",
    "trace.overhead_share": "share",
    **{f"probe.{order}.makespan_s": "s" for order in PROBE_ORDERS},
    **{f"probe.{order}.tail_idle_s": "s" for order in PROBE_ORDERS},
}


class WorkerError(Exception):
    """A worker process failed or timed out."""


class Bench:
    """Runs worker processes for one workload under one directory."""

    def __init__(self, workload: Workload, seed: int, work: Path, probe_docs: int = 0):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.probe_docs = probe_docs or WORKLOADS["endpoint_stub"].docs
        self._spawned = 0
        self.attempted = 0
        self.failed = 0

    def spawn(self, root: Path, **spec) -> dict:
        self._spawned += 1
        spec_path = self.work / f"worker-{self._spawned}.spec.json"
        result_path = self.work / f"worker-{self._spawned}.result.json"
        spec = {
            "workload": self.workload.name,
            "docs": self.workload.docs,
            "seed": self.seed,
            "root": str(root),
            "setup": True,
            "trace": False,
            "steps": [],
            **spec,
        }
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        # A session of its own, so a timeout also ends the worker's stub.
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
            start_new_session=True,
        )
        try:
            proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise WorkerError(f"worker timed out after {WORKER_TIMEOUT_S} s: {spec}")
        if not result_path.is_file():
            raise WorkerError(f"worker exited {proc.returncode} without a result: {spec}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if "error" in result:
            raise WorkerError(result["error"])
        return result

    def steps(self) -> list[str]:
        """The workload's steps as one process runs them end to end."""
        if self.workload.steps == RUN_ALL_STEPS:
            return ["run_all"]
        return list(self.workload.steps)

    def reference(self) -> dict[str, str] | None:
        """Output digests of an uninterrupted run, when the workload interrupts one."""
        if "rephrase_stopped" not in self.workload.steps:
            return None
        root = self.work / "reference"
        steps = [s for s in self.workload.steps if s != "rephrase_stopped"]
        result = self.spawn(root, steps=steps)
        check_reports(result["reports"], root / "work")
        digests = output_digests(root / "work")
        shutil.rmtree(root)
        return digests

    def repetition(self, name: str, reference: dict | None, **spec) -> tuple[dict, dict]:
        """One checked repetition; returns (result, output digests)."""
        root = self.work / name
        result = self.spawn(root, steps=self.steps(), **spec)
        self.account(result["reports"])
        check_reports(result["reports"], root / "work")
        digests = output_digests(root / "work")
        if reference is not None:
            check_identical(digests, reference)
        spans = root / "spans.jsonl"
        if spans.is_file():
            spans.rename(self.work / f"{name}.spans.jsonl")
        shutil.rmtree(root)
        return result, digests

    def account(self, reports: dict) -> None:
        """Operations: one per rephrase job and one per scored document."""
        self.attempted += reports["rephrase"]["jobs"] + reports["score"]["docs"]
        self.failed += reports["rephrase"]["failed"]


def _median_of(rows: list[dict], key: str) -> float:
    return statistics.median(row[key] for row in rows)


def reported_times(result: dict, http: bool) -> dict:
    """The times a repetition reports, at the reference pace (``pace.py``).

    Set-up is CPU work everywhere.  The mock workloads run on one pinned
    CPU, so their stages are CPU work too.  On endpoint_stub the stages
    mostly wait on the stub's timers, which keep their pace, so its
    wall and CPU times are reported as measured.
    """
    stages = "" if http else "paced_"
    return {
        "setup_s": result["paced_setup_s"],
        "wall_s": result[f"{stages}wall_s"],
        "cpu_s": result[f"{stages}cpu_s"],
    }


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Medians of the end-to-end metrics, and of the raw measured times."""
    reference = bench.reference()
    rows, measured = [], []
    started = time.monotonic()
    while len(rows) < MIN_REPETITIONS or time.monotonic() - started < seconds:
        result, digests = bench.repetition(f"rep-{len(rows)}", reference)
        reference = reference or digests
        times = reported_times(result, bench.workload.http)
        rows.append(
            {
                **times,
                "peak_rss_mb": result["peak_rss_mb"],
                "docs_per_s": result["docs"] / times["wall_s"],
                "backend_requests_per_doc": result["requests"] / result["docs"],
            }
        )
        measured.append({key: result[key] for key in ("setup_s", "wall_s", "cpu_s", "steal_s")})
    return (
        {name: _median_of(rows, name) for name in END_TO_END},
        {name: _median_of(measured, name) for name in measured[0]},
    )


def stage_children(bench: Bench) -> dict:
    """Each stage in its own process: wall time and peak RSS per stage."""
    root = bench.work / "stages"
    metrics = {}
    for stage in RUN_ALL_STEPS:
        metrics[f"pipeline.{stage}.wall_s"] = 0.0
        metrics[f"pipeline.{stage}.peak_rss_mb"] = 0.0
    stub = Stub() if bench.workload.http else None
    try:
        endpoint = stub.url if stub else None
        bench.spawn(root, endpoint=endpoint)
        reports = {}
        for step in bench.workload.steps:
            result = bench.spawn(root, setup=False, steps=[step], endpoint=endpoint)
            reports.update(result["reports"])
            stage = "rephrase" if step == "rephrase_stopped" else step
            metrics[f"pipeline.{stage}.wall_s"] += result["wall_s"]
            metrics[f"pipeline.{stage}.peak_rss_mb"] = max(
                metrics[f"pipeline.{stage}.peak_rss_mb"], result["peak_rss_mb"]
            )
    finally:
        if stub is not None:
            stub.stop()
    bench.account(reports)
    check_reports(reports, root / "work")
    shutil.rmtree(root)
    return metrics


def per_layer(bench: Bench, seconds: float) -> dict:
    reference = bench.reference()
    untraced, traced = [], []
    started = time.monotonic()
    while not traced or time.monotonic() - started < seconds:
        result, digests = bench.repetition(f"plain-{len(traced)}", reference)
        reference = reference or digests
        untraced.append(result["wall_s"])
        result, _ = bench.repetition(f"traced-{len(traced)}", reference, trace=True)
        traced.append(result)
    metrics = {
        name: statistics.median(row["layers"][name] for row in traced) for name in traced[0]["layers"]
    }
    plain_wall = statistics.median(untraced)
    metrics["trace.overhead_share"] = (_median_of(traced, "wall_s") - plain_wall) / plain_wall
    metrics.update(stage_children(bench))
    probe = bench.spawn(bench.work / "probe", probe=True, docs=bench.probe_docs)["probe"]
    for order in PROBE_ORDERS:
        for key in ("makespan_s", "tail_idle_s"):
            metrics[f"probe.{order}.{key}"] = probe[order][key]
    return metrics


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, work: Path, probe_docs: int = 0
) -> dict:
    """Run and check one workload; returns the result object."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(workload, seed, work, probe_docs)
    units = PER_LAYER if trace else END_TO_END
    measured: dict = {}
    try:
        if trace:
            values = per_layer(bench, seconds)
        else:
            values, measured = end_to_end(bench, seconds)
    except (CheckError, WorkerError) as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return {
            "correct": False,
            "attempted": max(1, bench.attempted),
            "failed": max(1, bench.failed),
            "metrics": {},
        }
    return {
        "correct": True,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "measured": measured,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark the rephrasing pipeline.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (REPO / "src" / "rephrasing" / "__init__.py").is_file():
        print(f"error: no pipeline source under {REPO / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    result = run_workload(
        workload, args.seed, args.seconds, bool(args.trace), REPO / ".perfbench_work" / workload.name
    )
    for name, metric in result["metrics"].items():
        print(f"{workload.name:14s} {name:40s} {metric['value']:14.6f} {metric['unit']}")
    for name, value in result.pop("measured", {}).items():
        print(f"{workload.name:14s} {'measured.' + name:40s} {value:14.6f} s")
    print(f"{workload.name:14s} {'failed_share':40s} {result['failed'] / result['attempted']:14.6f} share")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
