"""Class-aware feature alignment for test-time adaptation, at desk scale."""

from .adapt import AdamState, RunRecord, adam_step, adapt_stream
from .config import ExperimentConfig, ModelConfig, PretrainConfig, TtaConfig
from .data import Dataset, ShiftSpec, ShiftTransform, SyntheticSpec, generate_dataset
from .losses import (
    Cafa,
    CrossEntropy,
    DistanceReport,
    Entropy,
    GlobalFA,
    IntraOnly,
    distance_report,
    mahalanobis,
)
from .network import (
    AdaptiveModel,
    BnLayer,
    DenseLayer,
    Forward,
    ParamGroup,
    StatMode,
    forward_features,
    init_model,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from .stats import (
    CovarianceMode,
    SourceStats,
    estimate_source_stats,
    fit_source_stats,
    load_stats,
    save_stats,
)

__version__ = "0.1.0"
