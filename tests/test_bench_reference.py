"""The stored benchmark trajectories, checked in tier-1.

Runs the benchmark's `default` workload (all seven methods) for data seed 0
in process, through the benchmark's own set-up and pass, and checks every
batch against `bench/reference/default.json`: accuracy bit for bit, the
batch-mean intra/inter distances to 1e-9 relative. It only reads `bench/`.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_default_workload_matches_stored_reference():
    cfg = WORKLOADS["default"].config(0)
    pre, streams, _ = harness.set_up(cfg)
    reference = harness.load_reference("default", 0)
    res = harness.run_pass(cfg, pre, streams, reference)
    assert len(cfg.methods) == 7
    assert res.attempted == sum(len(b) for b in streams.values())
    assert res.failed == 0
