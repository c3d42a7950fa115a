"""The benchmark's workloads; BENCHMARK.json says why each was chosen.

Every workload is a closed loop in one process: the benchmark hands the
adapter batch i+1 only after the adapter has finished with batch i. The
workload seed goes into `SyntheticSpec.seed` and varies the data sampling
only; class geometry, model initialisation and training order stay fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from tta_align.adapt import TtaConfig
from tta_align.config import ExperimentConfig, ModelConfig, PretrainConfig
from tta_align.data import ShiftSpec, ShiftTransform, SyntheticSpec


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int], ExperimentConfig]  # data seed -> scenario
    # the percentile reported as batch_ms.tail; fixed per workload so that a
    # faster program (more batches in the same seconds) keeps the same metric
    tail_percentile: float


def _wide(seed: int, methods: list[dict]) -> ExperimentConfig:
    """C=10, input_dim 16, hidden [128, 64], batch 128, severity-5 noise."""
    cfg = ExperimentConfig(
        synthetic=SyntheticSpec(n_classes=10, input_dim=16, seed=seed),
        shift=ShiftSpec(transforms=[ShiftTransform(kind="gaussian_noise")], severity=5),
        model=ModelConfig(hidden_dims=[128, 64]),
        pretrain=PretrainConfig(eps_scale=1e-3),
        methods=[TtaConfig(batch_size=128, **m) for m in methods],
    )
    cfg.validate()
    return cfg


WORKLOADS = {
    w.name: w
    for w in (
        # all 7 methods, C=3, d=8, hidden [32, 16], batch 64, 60 batches
        Workload("default", ExperimentConfig.default, 99.0),
        Workload(
            "wide_cafa",
            lambda seed: _wide(seed, [dict(method="cafa", steps_per_batch=2)]),
            90.0,
        ),
        Workload(
            "wide_noadapt",
            lambda seed: _wide(
                seed,
                [dict(method="source", steps_per_batch=0), dict(method="bn", steps_per_batch=0)],
            ),
            90.0,
        ),
    )
}
