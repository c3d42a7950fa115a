"""Alignment distances and all adaptation/baseline losses.

One batched kernel, a single tape node with an analytic gradient, scores
every sample against every class Gaussian with the stacked regularized
precisions; the losses and the distance report both read it. `mahalanobis`
is the per-vector reference form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor
from .errors import (
    BatchTooSmall,
    DimensionMismatch,
    SingleClass,
    UnknownClass,
)
from .network import argmax_rows
from .stats import ClassGaussian, SourceStats

RATIO_FLOOR = 1e-12  # clamp for the log-ratio numerator and denominator


# -- loss specs ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GlobalFA:
    stats: SourceStats


@dataclass(frozen=True, eq=False)
class IntraOnly:
    stats: SourceStats


@dataclass(frozen=True, eq=False)
class Cafa:
    stats: SourceStats


@dataclass(frozen=True)
class Entropy:
    pass


@dataclass(frozen=True)
class PseudoLabelCE:
    pass


@dataclass(frozen=True, eq=False)
class SupervisedCE:
    labels: np.ndarray


@dataclass
class DistanceReport:
    mean_intra: float
    mean_inter: float


# -- plain-number distance operations -----------------------------------------


def mahalanobis(x_feat: np.ndarray, g: ClassGaussian) -> float:
    x = np.asarray(x_feat, dtype=np.float64)
    if x.shape != g.mu.shape:
        raise DimensionMismatch(f"feature shape {x.shape} vs mean {g.mu.shape}")
    delta = x - g.mu
    return float(delta @ g.precision @ delta)


def distance_report(batch_feats, true_labels, stats: SourceStats) -> DistanceReport:
    """Batch-mean intra/inter distances under ground-truth labels.

    Instrumentation only; no loss ever consumes ground-truth labels. Reads
    the same class kernel as the CAFA loss, so the two cannot drift apart.
    """
    if stats.n_classes < 2:
        raise SingleClass("inter-class distance needs at least 2 classes")
    feats = np.asarray(batch_feats, dtype=np.float64)
    y = np.asarray(true_labels, dtype=np.int64)
    if feats.ndim != 2 or y.shape != feats.shape[:1]:
        raise DimensionMismatch(f"features {feats.shape} vs labels {y.shape}")
    _check_labels(y, stats.n_classes)  # a gather would wrap a label of -1
    quads = _class_quadratics(Tensor(feats), stats).data
    intra = quads[y, np.arange(y.size)]
    inter = (quads.sum(axis=0) - intra) / (stats.n_classes - 1)
    return DistanceReport(
        mean_intra=float(np.mean(intra)), mean_inter=float(np.mean(inter))
    )


# -- differentiable loss graph -------------------------------------------------


def _labels_for(spec, logits: Tensor, pseudo_labels):
    if pseudo_labels is not None:
        return np.asarray(pseudo_labels, dtype=np.int64)
    if isinstance(spec, SupervisedCE):
        return np.asarray(spec.labels, dtype=np.int64)
    return argmax_rows(logits.data)


def _check_labels(labels: np.ndarray, n_classes: int) -> None:
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise UnknownClass(f"labels outside 0..{n_classes - 1}")


def _one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    _check_labels(labels, n_classes)
    eye = np.eye(n_classes)
    return eye[labels]


def _class_quadratics(feats: Tensor, stats: SourceStats) -> Tensor:
    """Mahalanobis quadratic form of every sample to every class, C x N.

    One tape node whose only parent is `feats`. Its gradient is the
    analytic d/dx (x - mu)^T P (x - mu) = 2 P (x - mu), which holds because
    every class precision P is exactly symmetric (`spd_inverse` returns
    0.5 * (p + p^T), and `load_stats` rebuilds precisions the same way).
    """
    mus = stats.class_mus
    if feats.shape[-1] != mus.shape[1]:
        raise DimensionMismatch(f"feature dim {feats.shape[-1]} vs {mus.shape[1]}")
    diff = feats.data - mus[:, None, :]
    pd = diff @ stats.class_precisions
    quads = (pd * diff).sum(axis=2)

    def bw(out):
        feats._accumulate(2.0 * np.einsum("cn,cnd->nd", out.grad, pd))

    return Tensor(quads, parents=(feats,), backward=bw)


def _intra_terms(quads: Tensor, labels: np.ndarray) -> Tensor:
    """Each sample's quadratic form to its labelled class, an N-vector."""
    return (quads * _one_hot(labels, quads.shape[0]).T).sum(axis=0)


def _log_sum_exp(logits: Tensor) -> Tensor:
    """Row-wise log-sum-exp, N x 1, stabilized by the detached row maximum."""
    shift = Tensor(logits.data.max(axis=1, keepdims=True))
    z = logits - shift
    return z.exp().sum(axis=1, keepdims=True).log() + shift


def loss_tensor(spec, feats: Tensor, logits: Tensor, pseudo_labels=None) -> Tensor:
    """Build the scalar loss node for any LossSpec.

    pseudo_labels, when given, overrides the argmax labels (used to freeze
    labels across finite-difference evaluations).
    """
    if isinstance(spec, GlobalFA):
        n = feats.shape[0]
        if n < 2:
            raise BatchTooSmall("batch covariance needs at least 2 samples")
        stats = spec.stats
        mu_t = feats.mean(axis=0)
        centered = feats - mu_t
        sigma_t = (centered.T @ centered) * (1.0 / n)
        mean_gap = ((Tensor(stats.global_mu) - mu_t) ** 2).sum()
        cov_gap = ((Tensor(stats.global_sigma) - sigma_t) ** 2).sum()
        return mean_gap + cov_gap

    if isinstance(spec, IntraOnly):
        labels = _labels_for(spec, logits, pseudo_labels)
        quads = _class_quadratics(feats, spec.stats)
        return _intra_terms(quads, labels).mean()

    if isinstance(spec, Cafa):
        labels = _labels_for(spec, logits, pseudo_labels)
        quads = _class_quadratics(feats, spec.stats)
        intra = _intra_terms(quads, labels)
        denom = quads.sum(axis=0)
        ratio_log = intra.clip_min(RATIO_FLOOR).log() - denom.clip_min(
            RATIO_FLOOR
        ).log()
        return ratio_log.mean()

    if isinstance(spec, Entropy):
        neg_logp = _log_sum_exp(logits) - logits
        p = (-neg_logp).exp()
        return (p * neg_logp).sum(axis=1).mean()

    if isinstance(spec, (PseudoLabelCE, SupervisedCE)):
        labels = _labels_for(spec, logits, pseudo_labels)
        onehot = _one_hot(labels, logits.shape[1])
        picked = (logits * onehot).sum(axis=1, keepdims=True)
        return (_log_sum_exp(logits) - picked).mean()

    raise TypeError(f"unknown loss spec: {spec!r}")

