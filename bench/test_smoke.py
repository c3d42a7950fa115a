"""Smoke test of the benchmark: every workload at a tiny size.

Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py

Each workload runs untraced and traced on the first four batches of every
stream, for as few passes as the tail percentile allows. The test checks that the result line names every
metric of BENCHMARK.json with its unit and that no batch failed the output
check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(REPO_DIR, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int) -> tuple[dict, str]:
    # the interpreter running the test stands in for the command's python3
    cmd = [sys.executable] + SPEC["command"][1:] + [
        "--workload", workload,
        "--seed", "5",
        "--seconds", "0.1",
        "--trace", str(trace),
        "--max-batches", "4",
    ]  # fmt: skip
    proc = subprocess.run(
        cmd, cwd=REPO_DIR, capture_output=True, text=True, timeout=180, check=False
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_present_and_nothing_failed(workload, trace):
    result, stdout = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    # the human-readable table names failed_batch_ratio, which the line omits
    ratio = [ln for ln in stdout.splitlines() if ln.split()[:1] == ["failed_batch_ratio"]]
    assert ratio and float(ratio[0].split()[1]) == 0.0
    if trace and workload == "wide_noadapt":
        assert result["metrics"]["autograd.backward.calls_per_batch"]["value"] == 0


def test_fails_without_package_source():
    """In a directory without src/, the benchmark exits non-zero, silently."""
    bare = os.path.join(REPO_DIR, ".bench_out", "bare_checkout")
    bench = os.path.join(bare, "bench")
    os.makedirs(bench, exist_ok=True)
    for name in ("run.py", "harness.py", "tracing.py", "workloads.py"):
        with open(os.path.join(REPO_DIR, "bench", name)) as src:
            with open(os.path.join(bench, name), "w") as dst:
                dst.write(src.read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "default", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60, check=False,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout == ""
