"""Pre-stage source statistics: class-conditional and global Gaussians.

Per-class mean/covariance use the biased 1/N_c estimator. Precisions are
dense inverses, through a Cholesky factor, of the trace-regularized
covariance (sigma + eps*I with eps = eps_scale * trace(sigma)/d), cached for
the differentiable loss paths. Each precision is exactly symmetric, which the
class kernel's analytic gradient relies on.
"""

from __future__ import annotations

import enum
import hashlib
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from . import network
from .errors import (
    CorruptChecksum,
    FormatVersionMismatch,
    MissingClass,
    StatsIoError,
)
from .linalg import mean_and_cov, spd_factor, spd_inverse

STATS_MAGIC = b"TTASTATS"
STATS_VERSION = 1
DEFAULT_EPS_SCALE = 1e-6


class CovarianceMode(enum.Enum):
    CLASS_WISE = "class_wise"
    TIED = "tied"


@dataclass
class ClassGaussian:
    class_id: int
    mu: np.ndarray
    sigma: np.ndarray
    precision: np.ndarray  # dense inverse of the regularized sigma
    n_samples: int


@dataclass
class SourceStats:
    classes: list[ClassGaussian]
    global_mu: np.ndarray
    global_sigma: np.ndarray
    covariance_mode: CovarianceMode
    feature_dim: int
    eps_scale: float
    warnings: list[str] = field(default_factory=list)
    # the class means (C x d) and precisions (C x d x d), stacked once here
    # for the class kernel
    class_mus: np.ndarray = field(init=False, repr=False)
    class_precisions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        d = self.feature_dim
        self.class_mus = np.array([g.mu for g in self.classes]).reshape(-1, d)
        self.class_precisions = np.array(
            [g.precision for g in self.classes]
        ).reshape(-1, d, d)
        # each class reads its rows of the stacks, so the arrays exist once
        for g, mu, precision in zip(self.classes, self.class_mus, self.class_precisions):
            g.mu, g.precision = mu, precision

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def regularized_precision(sigma: np.ndarray, eps_scale: float) -> np.ndarray:
    """Inverse of sigma + eps*I with trace-relative eps, through its Cholesky
    factor (raises NotPositiveDefinite if that factor does not exist).

    A zero covariance would give eps = 0, so the floor falls back to
    eps_scale itself to keep the regularized matrix positive definite.
    """
    d = sigma.shape[0]
    trace = float(np.trace(sigma))
    eps = eps_scale * (trace / d if trace > 0.0 else 1.0)
    return spd_inverse(spd_factor(sigma + eps * np.eye(d)))


def fit_source_stats(
    features: np.ndarray,
    labels: np.ndarray,
    mode: CovarianceMode = CovarianceMode.CLASS_WISE,
    eps_scale: float = DEFAULT_EPS_SCALE,
) -> SourceStats:
    """Estimate per-class and global Gaussians from extracted features."""
    feats = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n, d = feats.shape
    n_classes = int(y.max()) + 1 if y.size else 0
    warnings: list[str] = []

    per_class: list[tuple[np.ndarray, np.ndarray, int]] = []
    for c in range(n_classes):
        x_c = feats[y == c]
        if x_c.shape[0] < 2:
            raise MissingClass(f"class {c} has {x_c.shape[0]} samples, need >= 2")
        if x_c.shape[0] <= d:
            warnings.append(
                f"class {c}: {x_c.shape[0]} samples <= feature dim {d}; "
                "covariance is rank-deficient before regularization"
            )
        mu_c, sigma_c = mean_and_cov(x_c)
        per_class.append((mu_c, sigma_c, x_c.shape[0]))

    classes: list[ClassGaussian] = []
    if mode is CovarianceMode.TIED:
        # pooled within-class covariance, sample-count weighted (LDA convention)
        tied = np.zeros((d, d))
        for _, sigma_c, n_c in per_class:
            tied += n_c * sigma_c
        tied /= n
        tied = 0.5 * (tied + tied.T)
        precision = regularized_precision(tied, eps_scale)
        for c, (mu_c, _, n_c) in enumerate(per_class):
            classes.append(ClassGaussian(c, mu_c, tied, precision, n_c))
    else:
        for c, (mu_c, sigma_c, n_c) in enumerate(per_class):
            precision = regularized_precision(sigma_c, eps_scale)
            classes.append(ClassGaussian(c, mu_c, sigma_c, precision, n_c))

    global_mu, global_sigma = mean_and_cov(feats)
    return SourceStats(
        classes=classes,
        global_mu=global_mu,
        global_sigma=global_sigma,
        covariance_mode=mode,
        feature_dim=d,
        eps_scale=eps_scale,
        warnings=warnings,
    )


def estimate_source_stats(
    model: network.AdaptiveModel,
    inputs: np.ndarray,
    labels: np.ndarray,
    mode: CovarianceMode = CovarianceMode.CLASS_WISE,
    eps_scale: float = DEFAULT_EPS_SCALE,
) -> SourceStats:
    """Extract features with stored running statistics, then fit Gaussians."""
    feats = network.forward_features(model, inputs, network.StatMode.RUNNING_EVAL).feats
    return fit_source_stats(feats, labels, mode=mode, eps_scale=eps_scale)


# -- serialization ------------------------------------------------------------
#
# Layout: magic(8) | version(1) | header_len(u32 LE) | header JSON |
#         payload (raw little-endian float64 arrays, fixed order) |
#         sha256(header JSON + payload)


def save_stats(stats: SourceStats, path) -> None:
    header = {
        "feature_dim": stats.feature_dim,
        "n_classes": stats.n_classes,
        "covariance_mode": stats.covariance_mode.value,
        "eps_scale": stats.eps_scale,
        "n_samples": [g.n_samples for g in stats.classes],
        "warnings": stats.warnings,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    chunks = []
    for g in stats.classes:
        chunks.append(np.ascontiguousarray(g.mu, dtype="<f8").tobytes())
        chunks.append(np.ascontiguousarray(g.sigma, dtype="<f8").tobytes())
    chunks.append(np.ascontiguousarray(stats.global_mu, dtype="<f8").tobytes())
    chunks.append(np.ascontiguousarray(stats.global_sigma, dtype="<f8").tobytes())
    payload = b"".join(chunks)
    digest = hashlib.sha256(header_bytes + payload).digest()
    try:
        with open(path, "wb") as fh:
            fh.write(STATS_MAGIC)
            fh.write(struct.pack("<B", STATS_VERSION))
            fh.write(struct.pack("<I", len(header_bytes)))
            fh.write(header_bytes)
            fh.write(payload)
            fh.write(digest)
    except OSError as exc:
        raise StatsIoError(f"cannot write stats file {path}: {exc}") from exc


def load_stats(path) -> SourceStats:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise StatsIoError(f"cannot read stats file {path}: {exc}") from exc
    if len(blob) < len(STATS_MAGIC) + 5 or blob[: len(STATS_MAGIC)] != STATS_MAGIC:
        raise StatsIoError(f"{path} is not a stats file")
    version = blob[len(STATS_MAGIC)]
    if version != STATS_VERSION:
        raise FormatVersionMismatch(f"stats version {version} != {STATS_VERSION}")
    off = len(STATS_MAGIC) + 1
    (header_len,) = struct.unpack_from("<I", blob, off)
    off += 4
    body = blob[off : len(blob) - 32]
    digest = blob[len(blob) - 32 :]
    if len(body) < header_len or len(digest) != 32:
        raise CorruptChecksum(f"{path} is truncated")
    if hashlib.sha256(body).digest() != digest:
        raise CorruptChecksum(f"checksum mismatch in {path}")
    payload = body[header_len:]
    try:
        header = json.loads(body[:header_len].decode())
        d = header["feature_dim"]
        n_classes = header["n_classes"]
        mode = CovarianceMode(header["covariance_mode"])
        eps_scale = header["eps_scale"]
        n_samples = header["n_samples"]
        warnings = list(header["warnings"])
        if not all(type(v) is int for v in (d, n_classes, *n_samples)):
            raise ValueError("feature_dim, n_classes and n_samples must be integers")
        if len(n_samples) != n_classes:
            raise ValueError(f"{len(n_samples)} sample counts for {n_classes} classes")
        if type(eps_scale) not in (int, float) or not all(isinstance(w, str) for w in warnings):
            raise ValueError("eps_scale must be a number and warnings a list of strings")
        expected = (n_classes + 1) * (d + d * d) * 8
    except (KeyError, TypeError, ValueError) as exc:
        raise StatsIoError(f"malformed stats header in {path}: {exc!r}") from exc
    if len(payload) != expected:
        raise CorruptChecksum(f"payload size {len(payload)} != expected {expected}")

    pos = 0

    def take(count):
        nonlocal pos
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=pos).astype(
            np.float64
        )
        pos += count * 8
        return arr

    classes = []
    for c in range(n_classes):
        mu = take(d)
        sigma = take(d * d).reshape(d, d)
        precision = regularized_precision(sigma, eps_scale)
        classes.append(ClassGaussian(c, mu, sigma, precision, n_samples[c]))
    global_mu = take(d)
    global_sigma = take(d * d).reshape(d, d)
    return SourceStats(
        classes=classes,
        global_mu=global_mu,
        global_sigma=global_sigma,
        covariance_mode=mode,
        feature_dim=d,
        eps_scale=eps_scale,
        warnings=warnings,
    )
