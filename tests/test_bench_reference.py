"""The stored benchmark trajectories, checked in tier-1.

Runs two of the benchmark's workloads for data seed 0 in process, through
the benchmark's own set-up and pass, and checks every batch against
`bench/reference/<workload>.json`: accuracy bit for bit, the batch-mean
intra/inter distances to 1e-9 relative. `default` runs all seven methods;
`wide_cafa` (C=10, batch 128, two cafa steps) is the workload whose class
kernel carries the batch. It only reads `bench/`.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_reference_pass(workload: str):
    cfg = WORKLOADS[workload].config(0)
    pre, streams, _ = harness.set_up(cfg)
    reference = harness.load_reference(workload, 0)
    res = harness.run_pass(cfg, pre, streams, reference)
    assert res.attempted == sum(len(b) for b in streams.values())
    assert res.failed == 0
    return cfg


def test_default_workload_matches_stored_reference():
    cfg = run_reference_pass("default")
    assert len(cfg.methods) == 7


def test_wide_cafa_workload_matches_stored_reference():
    cfg = run_reference_pass("wide_cafa")
    assert [m.method for m in cfg.methods] == ["cafa"]
