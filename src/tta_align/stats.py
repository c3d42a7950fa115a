"""Pre-stage source statistics: class-conditional and global Gaussians.

Per-class mean/covariance use the biased 1/N_c estimator. Precisions are
dense inverses, through a Cholesky factor, of the trace-regularized
covariance (sigma + eps*I with eps = eps_scale * trace(sigma)/d), cached for
the differentiable loss paths. Each precision is exactly symmetric, which the
class kernel's analytic gradient relies on. All arrays are float64, and
reductions keep numpy's fixed summation order, so repeated fits on identical
inputs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import network
from .config import COVARIANCE_MODES, DEFAULT_EPS_SCALE, StatsHeader
from .errors import (
    ConfigInvalid,
    EmptyInput,
    FormatVersionMismatch,
    MissingClass,
    NotPositiveDefinite,
    StatsIoError,
)

STATS_VERSION = 2
SYMMETRY_RTOL = 1e-10


@dataclass
class SourceStats:
    """The source Gaussians, stacked by class for the class kernel: means
    (C x d), covariances and their regularized precisions (C x d x d), and
    sample counts (C)."""

    class_mus: np.ndarray
    class_sigmas: np.ndarray
    class_precisions: np.ndarray
    class_counts: np.ndarray
    global_mu: np.ndarray
    global_sigma: np.ndarray
    covariance_mode: str  # one of COVARIANCE_MODES
    eps_scale: float
    warnings: list[str] = field(default_factory=list)

    @property
    def n_classes(self) -> int:
        return self.class_mus.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.class_mus.shape[1]


def regularized_precisions(sigmas: np.ndarray, eps_scale: float) -> np.ndarray:
    """The inverse of sigma + eps*I, with eps = eps_scale * trace(sigma)/d,
    of each covariance of a C x d x d stack, exactly symmetric.

    A zero covariance would give eps = 0, so the floor falls back to
    eps_scale itself to keep the regularized matrix positive definite. Raises
    NonFiniteInput for a non-finite regularized matrix, ValueError for one
    not symmetric within SYMMETRY_RTOL, and NotPositiveDefinite for one with
    no Cholesky factor or whose inverse overflows (a subnormal one factors).
    Each matrix is inverted on its own into the output, which keeps the peak
    memory below that of a stacked inverse.
    """
    d = sigmas.shape[-1]
    eye = np.eye(d)
    out = np.empty(sigmas.shape)
    # an overflow is refused by the checks below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for sigma, p in zip(sigmas, out):
            trace = float(np.trace(sigma))
            eps = eps_scale * (trace / d if trace > 0.0 else 1.0)
            a = network.as_matrix(sigma + eps * eye)
            if np.max(np.abs(a - a.T)) > SYMMETRY_RTOL * np.max(np.abs(a)):
                raise ValueError("covariance is not symmetric within tolerance")
            try:
                lower = np.linalg.cholesky(a)
            except np.linalg.LinAlgError as exc:
                raise NotPositiveDefinite(str(exc)) from exc
            inv_l = np.linalg.inv(lower)
            q = inv_l.T @ inv_l
            p[:] = 0.5 * (q + q.T)
            if not np.all(np.isfinite(p)):
                raise NotPositiveDefinite("inverse overflows float64")
    return out


def estimate_source_stats(
    model: network.AdaptiveModel,
    inputs: np.ndarray,
    labels: np.ndarray,
    mode: str = "class_wise",
    eps_scale: float = DEFAULT_EPS_SCALE,
) -> SourceStats:
    """Extract features with stored running statistics, then fit Gaussians.
    Features too large to fit, finite as they are, overflow: NonFiniteLoss."""
    # the forward's features are a fresh array (every model has a block), so
    # the fit may centre them in place
    feats = network.forward_features(model, inputs, network.StatMode.RUNNING_EVAL).feats
    with network.overflow_guard("the source statistics"):
        return _fit(feats, labels, mode, eps_scale)


def _fit(feats: np.ndarray, labels, mode: str, eps_scale: float) -> SourceStats:
    """Per-class and global Gaussians of a float64 feature matrix (N x d)
    that the fit owns and its labels (N class indices): the global Gaussian
    comes last and centres `feats` in place."""
    if mode not in COVARIANCE_MODES:
        raise ConfigInvalid(f"covariance_mode {mode!r} must be one of {list(COVARIANCE_MODES)}")
    feats = network.as_matrix(feats)
    n, d = feats.shape
    if n == 0:
        raise EmptyInput("need at least one sample")
    y = network.as_labels(labels, n)
    n_classes = int(y.max()) + 1
    # every class needs 2 rows, so one of the first n // 2 + 1 falls short
    # when there are more: counting those sizes nothing by the largest label
    counts = np.bincount(y[y <= n // 2], minlength=min(n_classes, n // 2 + 1))
    if (counts < 2).any():
        c = int(np.argmax(counts < 2))
        raise MissingClass(f"class {c} has {counts[c]} samples, need >= 2")
    warnings: list[str] = []

    mus = np.empty((n_classes, d))
    sigmas = np.empty((n_classes, d, d))
    for c in range(n_classes):
        x_c = feats[y == c]  # a copy, which _moments centres
        if counts[c] <= d:
            warnings.append(
                f"class {c}: {counts[c]} samples <= feature dim {d}; "
                "covariance is rank-deficient before regularization"
            )
        mus[c], sigmas[c] = _moments(x_c)

    if mode == "tied":
        # pooled within-class covariance, sample-count weighted (LDA convention)
        tied = np.zeros((d, d))
        for n_c, sigma_c in zip(counts, sigmas):
            tied += n_c * sigma_c
        tied /= n
        sigmas[:] = 0.5 * (tied + tied.T)

    global_mu, global_sigma = _moments(feats)
    return SourceStats(
        class_mus=mus,
        class_sigmas=sigmas,
        class_precisions=regularized_precisions(sigmas, eps_scale),
        class_counts=counts,
        global_mu=global_mu,
        global_sigma=global_sigma,
        covariance_mode=mode,
        eps_scale=eps_scale,
        warnings=warnings,
    )


def _moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and biased (1/N) covariance, exactly symmetric, of the rows of
    an N x d matrix (N >= 1) that the caller owns: `x` is centred in place."""
    n = x.shape[0]
    mu = x.sum(axis=0) / n
    x -= mu
    cov = x.T @ x / n
    return mu, 0.5 * (cov + cov.T)


# -- serialization ------------------------------------------------------------

STATS_ARRAYS = ("class_mus", "class_sigmas", "global_mu", "global_sigma")


def save_stats(stats: SourceStats, path) -> None:
    """A StatsHeader and the arrays of STATS_ARRAYS as an archive at exactly
    `path`; round-trips float64 losslessly."""
    fit = (stats.feature_dim, stats.n_classes, stats.covariance_mode, stats.eps_scale)
    header = StatsHeader(STATS_VERSION, *fit, stats.class_counts.tolist(), stats.warnings)
    network.save_archive(path, header, {name: getattr(stats, name) for name in STATS_ARRAYS})


def load_stats(path) -> SourceStats:
    """The statistics of `save_stats`. Beyond `network.load_archive`'s
    checks, StatsIoError unless the arrays are those of STATS_ARRAYS in the
    header's shapes, "tied" covariances are bitwise equal and each class
    kernel is finite. A version-1 file is FormatVersionMismatch."""
    try:
        with open(path, "rb") as fh:  # version 1 was a binary frame, not an archive
            framed = fh.read(9) == b"TTASTATS\x01"
    except OSError as exc:
        raise StatsIoError(f"cannot read stats {path}: {exc}") from exc
    if framed:
        raise FormatVersionMismatch(
            f"{path} is a version-1 stats file: rewrite it with `tta-align stats`"
        )
    header, arrays = network.load_archive(path, StatsHeader, STATS_VERSION, "stats")
    d, n_classes, mode = header.feature_dim, header.n_classes, header.covariance_mode
    shapes = dict(zip(STATS_ARRAYS, [(n_classes, d), (n_classes, d, d), (d,), (d, d)]))
    if {name: a.shape for name, a in arrays.items()} != shapes:
        raise StatsIoError(f"malformed stats {path}: the arrays are not those of {shapes}")
    try:
        if len(header.n_samples) != n_classes:
            raise ValueError(f"{len(header.n_samples)} sample counts for {n_classes} classes")
        counts = np.array(header.n_samples, dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise StatsIoError(f"malformed stats header in {path}: {exc}") from exc
    mus, sigmas = arrays["class_mus"], arrays["class_sigmas"]
    class_bits = sigmas.view(np.uint64)
    if mode == "tied" and not (class_bits == class_bits[0]).all():
        raise StatsIoError(f"tied stats in {path} hold class covariances that differ")
    try:
        precisions = regularized_precisions(sigmas, header.eps_scale)
    except (NotPositiveDefinite, ValueError) as exc:
        raise StatsIoError(f"class covariances in {path} have no precision: {exc}") from exc
    # every loss and distance report reads the class kernel's forms
    # (x - mu_c)^T P_c (x - mu_c): those of the class means and of the origin
    # must be finite, or a finite but absurd mean overflows them all
    points = np.vstack([mus, np.zeros(d)])
    diff = points - mus[:, None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        forms = np.einsum("cnd,cnd->cn", diff @ precisions, diff)
    if not np.all(np.isfinite(forms)):
        raise StatsIoError(f"class means in {path} give non-finite Mahalanobis forms")
    return SourceStats(
        class_mus=mus,
        class_sigmas=sigmas,
        class_precisions=precisions,
        class_counts=counts,
        global_mu=arrays["global_mu"],
        global_sigma=arrays["global_sigma"],
        covariance_mode=mode,
        eps_scale=header.eps_scale,
        warnings=header.warnings,
    )
