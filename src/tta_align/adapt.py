"""Online test-time adaptation engine.

Streams target batches in order, records pre-update predictions, then runs
the configured number of Adam steps on the selected parameter group.
Batches are never revisited.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import losses, network
from .config import NO_LOSS_METHODS, TtaConfig
from .errors import DimensionMismatch, NonFiniteLoss
from .network import AdaptiveModel, StatMode
from .stats import SourceStats


# -- Adam ----------------------------------------------------------------------


@dataclass
class AdamState:
    """The moments of one flat parameter slice, and the two scratch arrays
    of its shape that each step overwrites."""

    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    t: int = 0
    scratch: tuple = field(default=(), repr=False, compare=False)


# pretraining and every adapting method share these
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> None:
    """One in-place Adam update with bias correction of the flat slice
    `params` (a prefix of `AdaptiveModel.flat`) by its gradient `grad`."""
    if grad.shape != params.shape:
        raise DimensionMismatch(f"grad {grad.shape} vs params {params.shape}")
    if state.t == 0:
        state.m = np.zeros_like(grad)
        state.v = np.zeros_like(grad)
    elif state.m.shape != grad.shape:
        raise DimensionMismatch(f"Adam state holds {state.m.shape}, the step {grad.shape}")
    if state.t == 0 or not state.scratch:  # the pair of this slice's shape
        state.scratch = (np.empty_like(grad), np.empty_like(grad))
    state.t += 1
    t, m, v = state.t, state.m, state.v
    update, denom = state.scratch
    m *= ADAM_BETA1
    m += np.multiply(grad, 1 - ADAM_BETA1, out=update)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(grad, 1 - ADAM_BETA2, out=update), grad, out=update)
    # lr * m_hat / (sqrt(v_hat) + eps)
    np.divide(m, 1 - ADAM_BETA1**t, out=update)
    update *= lr
    np.divide(v, 1 - ADAM_BETA2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    update /= denom
    params -= update


# -- run records -----------------------------------------------------------------


@dataclass
class BatchRow:
    batch_index: int
    accuracy: float
    loss: float
    mean_intra: float
    mean_inter: float


@dataclass
class RunRecord:
    config: TtaConfig
    rows: list[BatchRow] = field(default_factory=list)

    def accuracies(self) -> np.ndarray:
        return np.array([r.accuracy for r in self.rows])


# -- the adaptation loop ----------------------------------------------------------


def _observe(forward: network.Forward, y, stats):
    """Accuracy and report distances of one batch's pre-update forward; the
    report reads the forward's class kernel when its loss built one. Labels
    are refused unless they are one class index of the model per row."""
    y = network.as_labels(y, *forward.logits.shape)
    # the mean as np.mean takes it, without its wrapper: count / n
    accuracy = float(np.count_nonzero(network.argmax_rows(forward.logits) == y) / y.size)
    if stats is None or stats.n_classes < 2:
        return accuracy, float("nan"), float("nan")
    with network.overflow_guard("the distance report"):
        report = losses.distance_report(forward.feats, y, stats, forward.quads)
    return accuracy, report.mean_intra, report.mean_inter


def adapt_stream(
    model: AdaptiveModel,
    stats: SourceStats | None,
    batches,
    config: TtaConfig,
) -> tuple[AdaptiveModel, RunRecord]:
    """Adapt `model` over an ordered stream of (inputs, labels) batches.

    Labels travel with batches strictly for metrics (accuracy and the
    distance report), and `_observe` refuses any that are not one class
    index per row; no loss path reads them. Predictions for each batch
    are recorded before any parameter update driven by that batch. A
    method of `losses.FEATURE_LOSSES` without `stats` is refused
    (ConfigInvalid) by its first step, and `stats` of another class count
    or feature dim than the model's (DimensionMismatch) before the first.
    A NonFiniteLoss carries the record of the batches that finished.
    """
    config.validate()
    if stats is not None and (stats.feature_dim, stats.n_classes) != model.widths[-2:]:
        raise DimensionMismatch(
            f"stats n_classes {stats.n_classes}, feature_dim {stats.feature_dim} vs model "
            f"n_classes {model.n_classes}, feature_dim {model.feature_dim}"
        )
    # source predicts with stored running statistics; every other method
    # normalizes with current-batch statistics
    mode = StatMode.RUNNING_EVAL if config.method == "source" else StatMode.BATCH_ONLY
    record = RunRecord(config=config)
    adam = AdamState()
    params = model.flat[: model.group_size(config.param_group)]

    try:
        for batch_index, (x, y) in enumerate(batches):
            loss_value = float("nan")
            if config.method in NO_LOSS_METHODS:
                observed = _observe(network.forward_features(model, x, mode), y, stats)
            for step in range(config.steps_per_batch):  # none for loss-free methods
                # recomputed forward: pseudo-labels track current parameters
                step_loss, grad, forward = network.loss_and_grad_named(
                    model, x, mode, config.param_group, config.method, stats
                )
                if step == 0:
                    # step 1 runs on this batch's pre-update parameters in the
                    # stat mode a prediction uses: its forward is the prediction's
                    loss_value = step_loss
                    observed = _observe(forward, y, stats)
                adam_step(params, grad, adam, config.learning_rate)
            accuracy, mean_intra, mean_inter = observed
            record.rows.append(
                BatchRow(batch_index, accuracy, loss_value, mean_intra, mean_inter)
            )
    except NonFiniteLoss as exc:  # the batches that finished
        exc.record = record
        raise
    return model, record
