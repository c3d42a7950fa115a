"""Alignment distances and all adaptation/baseline losses.

One batched kernel scores every sample against every class Gaussian with
the stacked regularized precisions; the class-kernel losses read it, and so
does the distance report of a batch whose loss built it. Any other report
takes its two sums from class moments. `mahalanobis` is the per-vector
reference form. Each loss returns its value and a closed-form gradient
w.r.t. the one input it reads, which `network._backward` carries down the
chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BatchTooSmall,
    ConfigInvalid,
    DimensionMismatch,
    EmptyInput,
    SingleClass,
)
from .network import argmax_rows, as_labels, as_matrix
from .stats import SourceStats

RATIO_FLOOR = 1e-12  # clamp for the log-ratio numerator and denominator
# the losses that read the features and the source statistics; the others
# read the logits
FEATURE_LOSSES = ("global_fa", "intra", "cafa")


@dataclass
class DistanceReport:
    mean_intra: float
    mean_inter: float


# -- plain-number distance operations -----------------------------------------


def mahalanobis(x_feat: np.ndarray, mu: np.ndarray, precision: np.ndarray) -> float:
    x = np.asarray(x_feat, dtype=np.float64)
    if x.shape != mu.shape:
        raise DimensionMismatch(f"feature shape {x.shape} vs mean {mu.shape}")
    delta = x - mu
    return float(delta @ precision @ delta)


def distance_report(
    batch_feats, true_labels, stats: SourceStats, quads=None
) -> DistanceReport:
    """Batch-mean intra/inter distances under ground-truth labels.

    Instrumentation only; no loss ever consumes ground-truth labels. The
    means are two sums over the C x N class kernel q: the intra form
    q_{y_n}(x_n) of each sample and its inter forms q_c(x_n), c != y_n.
    `quads`, when given, is that kernel already computed on `batch_feats`
    (the one an `intra` or `cafa` loss read), and the report reads it.
    Otherwise the report builds no kernel and takes both sums from the
    moments of each label's rows (`_moment_sums`), equal in exact
    arithmetic.
    """
    if stats.n_classes < 2:
        raise SingleClass("inter-class distance needs at least 2 classes")
    feats = as_matrix(batch_feats)
    y = as_labels(true_labels, feats.shape[0], stats.n_classes)
    if feats.shape[1] != stats.feature_dim:
        raise DimensionMismatch(f"feature dim {feats.shape[1]} vs {stats.feature_dim}")
    if y.size == 0:
        raise EmptyInput("distance report needs at least one sample")
    if quads is None:
        intra_sum, inter_sum = _moment_sums(feats, y, stats)
        return DistanceReport(
            mean_intra=float(intra_sum / y.size),
            mean_inter=float(inter_sum / (y.size * (stats.n_classes - 1))),
        )
    if quads.shape != (stats.n_classes, y.size):
        raise DimensionMismatch(
            f"class kernel {quads.shape} vs {stats.n_classes} classes x {y.size} samples"
        )
    labelled = (y, np.arange(y.size))
    intra = quads[labelled]
    # the inter forms added on their own: the column total less the intra
    # form cancels where a near-singular class's intra form dwarfs the rest
    off_label = quads.copy()
    off_label[labelled] = 0.0
    inter = off_label.sum(axis=0) / (stats.n_classes - 1)
    # each mean as np.mean takes it, without its wrapper: sum / n
    return DistanceReport(
        mean_intra=float(intra.sum() / y.size), mean_inter=float(inter.sum() / y.size)
    )


def _moment_sums(x: np.ndarray, y: np.ndarray, stats: SourceStats):
    """The intra sum sum_n q_{y_n}(x_n) and the inter sum sum_n sum_{c != y_n}
    q_c(x_n) of the class kernel q of `x` under labels `y`, built from the
    moments of each label's rows: no C x N x d array, and N d^2 + 2 C K d^2
    multiply-adds for the K labels present, against the kernel's C N d^2.

    With rows grouped by label k (a stable sort), group mean m_k and scatter
    B_k about it, the cross terms of x_n - mu_c = (x_n - m_k) + (m_k - mu_c)
    sum to zero over the group, so

        sum_{n in k} q_c(x_n) = <P_c, B_k> + N_k (m_k - mu_c)^T P_c (m_k - mu_c).

    Every term is >= 0, and each sum adds only its own terms: taking the
    inter sum as the total less the intra sum would lose it to cancellation
    wherever the intra forms dwarf the inter ones.
    """
    mus, precs = stats.class_mus, stats.class_precisions
    n_classes, d = mus.shape
    rows = x[np.argsort(y, kind="stable")]
    counts = np.bincount(y, minlength=n_classes)
    present = np.flatnonzero(counts)
    n_k = counts[present]
    ends = np.cumsum(n_k)
    starts = ends - n_k
    means = np.add.reduceat(rows, starts, axis=0)
    means /= n_k[:, None]
    rows -= np.repeat(means, n_k, axis=0)
    rows_t = rows.T.copy()  # a plain GEMM per group: NumPy's g.T @ g path is slower here
    scatters = np.empty((present.size, d, d))
    for i, (a, b) in enumerate(zip(starts.tolist(), ends.tolist())):
        np.matmul(rows_t[:, a:b], rows[a:b], out=scatters[i])
    # sums[c, k]: the forms to class c of the rows labelled present[k]
    sums = precs.reshape(n_classes, -1) @ scatters.reshape(present.size, -1).T
    gaps = means - mus[:, None, :]
    sums += n_k * np.einsum("ckd,ckd->ck", gaps @ precs, gaps)
    own = (present, np.arange(present.size))
    intra = sums[own].sum()
    sums[own] = 0.0
    return intra, sums.sum()


# -- losses -------------------------------------------------------------------


def _class_quadratics(x: np.ndarray, stats: SourceStats):
    """Mahalanobis quadratic form of every sample to every class, C x N,
    and the C x N x d products P (x - mu) it is built from.

    A loss that weights the forms by w = d loss / d quads has the feature
    gradient 2 sum_c w_cn P_c (x_n - mu_c), since d/dx (x - mu)^T P (x - mu)
    = 2 P (x - mu). That holds because every class precision P is exactly
    symmetric (`stats.regularized_precisions` returns 0.5 * (q + q^T) for
    the fit and for `load_stats`).
    """
    diff = x - stats.class_mus[:, None, :]
    pd = diff @ stats.class_precisions
    return np.einsum("cnd,cnd->cn", pd, diff), pd


# Each builder returns (loss value, grad), where grad is the gradient of the
# loss w.r.t. its input: every loss is a mean over the batch, so both carry 1/N.


def _global_fa(x: np.ndarray, stats: SourceStats):
    n = x.shape[0]
    if n < 2:
        raise BatchTooSmall("batch covariance needs at least 2 samples")
    inv_n = 1.0 / n
    mu_t = x.sum(axis=0) * inv_n
    centered = x - mu_t
    sigma_t = (centered.T @ centered) * inv_n
    mean_gap = stats.global_mu - mu_t
    cov_gap = stats.global_sigma - sigma_t
    value = (mean_gap**2).sum() + (cov_gap**2).sum()
    # the gaps' gradients -2 * gap, pushed through sigma_t =
    # centered^T centered / n and through the centering x - mu_t
    g = centered @ (cov_gap + cov_gap.T) * (-2.0 * inv_n)
    return value, g + (mean_gap * (-2.0 * inv_n) - g.sum(axis=0) * inv_n)


def _class_kernel_loss(method: str, quads: np.ndarray, pd: np.ndarray, labels: np.ndarray):
    """`intra`: the mean intra form. `cafa`: the mean log-ratio of the intra
    form over the summed forms, each clamped at RATIO_FLOOR. Reads the
    kernel `_class_quadratics` returned."""
    inv_n = 1.0 / quads.shape[1]
    cols = np.arange(quads.shape[1])
    intra = quads[labels, cols]
    if method == "intra":
        value = intra.sum() * inv_n
        w = np.zeros_like(quads)
        w[labels, cols] = 1.0
    else:
        denom = quads.sum(axis=0)
        num_c = np.maximum(intra, RATIO_FLOOR)
        den_c = np.maximum(denom, RATIO_FLOOR)
        value = (np.log(num_c) - np.log(den_c)).sum() * inv_n
        # 1/intra at the labelled class minus 1/denom at every class, each
        # zero wherever its clamp is active
        w = np.empty_like(quads)
        w[...] = -((denom > RATIO_FLOOR) / den_c)
        w[labels, cols] += (intra > RATIO_FLOOR) / num_c
    w *= inv_n
    return value, 2.0 * np.einsum("cn,cnd->nd", w, pd)


def _log_sum_exp(z: np.ndarray):
    """Row-wise log-sum-exp (N x 1), stabilized by the row maximum, with the
    shifted exponentials and their row sums."""
    shift = z.max(axis=1, keepdims=True)
    e = np.exp(z - shift)
    total = e.sum(axis=1, keepdims=True)
    return np.log(total) + shift, e, total


def _entropy(z: np.ndarray):
    neg_logp = _log_sum_exp(z)[0] - z
    p = np.exp(-neg_logp)
    h = (p * neg_logp).sum(axis=1)
    inv_n = 1.0 / z.shape[0]
    return h.sum() * inv_n, p * (neg_logp - h[:, None]) * inv_n


def _cross_entropy(z: np.ndarray, labels: np.ndarray):
    lse, e, total = _log_sum_exp(z)
    rows = np.arange(z.shape[0])
    inv_n = 1.0 / z.shape[0]
    value = (lse - z[rows, labels][:, None]).sum() * inv_n
    g = e * (inv_n / total)  # softmax - one-hot
    g[rows, labels] -= inv_n
    return value, g


def loss_tensor(
    method: str,
    feats: np.ndarray,
    logits: np.ndarray,
    stats: SourceStats | None = None,
    labels=None,
):
    """The scalar loss of `method`: (value, grad, reads_logits, quads).

    `pl` is the cross-entropy against `labels`, or against the argmax
    pseudo-labels of the logits when None; `intra` and `cafa` read the same
    labels. The FEATURE_LOSSES read the features and `stats`, and refuse
    features of another dim; `pl` and `entropy` read the logits
    (`reads_logits`), and grad is the array of the loss's gradient w.r.t.
    what it reads, 1/N included. quads is the C x N class kernel an
    `intra` or `cafa` loss read, else None. Values take a mean as
    sum * (1/N), the order the recorded `loss` columns were computed in;
    tests pin every value bit for bit.
    """
    if method in FEATURE_LOSSES:
        if stats is None:
            raise ConfigInvalid(f"method {method!r} requires source statistics")
        if feats.shape[-1] != stats.feature_dim:
            raise DimensionMismatch(f"feature dim {feats.shape[-1]} vs {stats.feature_dim}")
    if method in ("pl", "intra", "cafa"):
        if labels is None:
            labels = argmax_rows(logits)
        else:  # checked against the classes they index: the logits' or the stats'
            shape = logits.shape if method == "pl" else (feats.shape[0], stats.n_classes)
            labels = as_labels(labels, *shape)
    quads = None
    if method == "global_fa":
        value, grad = _global_fa(feats, stats)
    elif method in ("intra", "cafa"):
        quads, pd = _class_quadratics(feats, stats)
        value, grad = _class_kernel_loss(method, quads, pd, labels)
    elif method == "entropy":
        value, grad = _entropy(logits)
    elif method == "pl":
        value, grad = _cross_entropy(logits, labels)
    else:
        raise ConfigInvalid(f"method {method!r} has no loss")
    return value, grad, method not in FEATURE_LOSSES, quads
