"""The benchmark worker still runs against the current package.

``perfbench/worker.py`` calls and traces package functions by name, so
renaming or deleting one breaks traced benchmark runs without failing
any other test.  Each spec below runs the worker on a tiny corpus in a
subprocess, as ``perfbench/run.py`` does.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"

SPECS = {
    "bulk_mock_traced": {
        "workload": "bulk_mock",
        "docs": 16,
        "setup": True,
        "trace": True,
        "steps": ["run_all"],
    },
    "resume_legacy_traced": {
        "workload": "resume_legacy",
        "docs": 16,
        "setup": True,
        "trace": True,
        "steps": ["preprocess", "rephrase_stopped", "rephrase", "postprocess", "score", "filter"],
    },
    # The only spec where rephrase and score meet the stub's 503 retries:
    # 12 documents are the fewest of which the workload makes one busy.
    "endpoint_stub_traced": {
        "workload": "endpoint_stub",
        "docs": 12,
        "setup": True,
        "trace": True,
        "steps": ["run_all"],
    },
    "endpoint_stub_probe": {"workload": "endpoint_stub", "docs": 8, "probe": True},
}


@pytest.mark.parametrize("name", SPECS)
def test_worker_completes(tmp_path, name):
    spec_path = tmp_path / "spec.json"
    result_path = tmp_path / "result.json"
    spec = {**SPECS[name], "seed": 11, "root": str(tmp_path / "root")}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(WORKER), str(spec_path), str(result_path)], timeout=120, check=False
    )
    result = json.loads(result_path.read_text(encoding="utf-8"))
    assert "error" not in result, result["error"]
    assert ("probe" in result) == bool(spec.get("probe"))
    if name == "endpoint_stub_traced":
        assert result["layers"]["inference.retries"] > 0
