"""The stored benchmark trajectories, checked in tier-1.

Runs the benchmark's three workloads for data seed 0 in process, through
the benchmark's own set-up and pass, and checks every batch against
`bench/reference/<workload>.json`: accuracy bit for bit, the batch-mean
intra/inter distances to 1e-9 relative. `default` runs all seven methods;
`wide_cafa` (C=10, batch 128, two cafa steps) is the workload whose class
kernel carries the batch; `wide_noadapt` runs `source` and `bn` on the same
scenario, so it reuses the `wide_cafa` set-up. It only reads `bench/`.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def check_pass(workload: str, cfg, pre, streams):
    reference = harness.load_reference(workload, 0)
    res = harness.run_pass(cfg, pre, streams, reference)
    assert res.attempted == sum(len(b) for b in streams.values())
    assert res.failed == 0


@pytest.fixture(scope="module")
def wide_set_up():
    cfg = WORKLOADS["wide_cafa"].config(0)
    pre, streams, _ = harness.set_up(cfg)
    return cfg, pre, streams


def test_default_workload_matches_stored_reference():
    cfg = WORKLOADS["default"].config(0)
    pre, streams, _ = harness.set_up(cfg)
    check_pass("default", cfg, pre, streams)
    assert len(cfg.methods) == 7


def test_wide_cafa_workload_matches_stored_reference(wide_set_up):
    cfg, pre, streams = wide_set_up
    check_pass("wide_cafa", cfg, pre, streams)
    assert [m.method for m in cfg.methods] == ["cafa"]


def test_wide_noadapt_workload_matches_stored_reference(wide_set_up):
    wide_cafa_cfg, pre, streams = wide_set_up
    cfg = WORKLOADS["wide_noadapt"].config(0)
    # the same data, model and statistics: only the methods differ
    assert dataclasses.replace(cfg, methods=wide_cafa_cfg.methods) == wide_cafa_cfg
    assert [m.method for m in cfg.methods] == ["source", "bn"]
    batch_sizes = {m.batch_size for m in cfg.methods + wide_cafa_cfg.methods}
    assert len(batch_sizes) == 1
    check_pass("wide_noadapt", cfg, pre, {m.run_name: streams["cafa"] for m in cfg.methods})
