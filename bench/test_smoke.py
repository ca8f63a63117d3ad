"""The benchmark's own test: every workload at 65^2 for one round, untraced and traced.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("mesh-513", "canon-verdict")


def _run(cwd, workload, trace, run=os.path.join(BENCH, "run.py")):
    return subprocess.run([sys.executable, run, "--workload", workload, "--seed", "3",
                           "--seconds", "0", "--trace", str(trace), "--smoke"],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_complete(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == len(details["failures"])
    assert result["correct"] == (result["failed"] == 0)
    assert result["correct"], details["failures"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r") as fh:
        spec = json.load(fh)["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(tmp_path, "canon-verdict", 0, run=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""
