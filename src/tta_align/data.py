"""Synthetic Gaussian-mixture datasets with controllable covariate shifts.

The target stream is a fresh draw from the source mixture pushed through
the configured shift transforms; labels are untouched by every shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ShiftSpec, ShiftTransform, SyntheticSpec  # noqa: F401  (re-exported)
from .errors import ConfigInvalid

# severity 1..5 magnitude tables, strictly increasing
NOISE_SIGMA_SCALE = {1: 0.2, 2: 0.4, 3: 0.6, 4: 0.9, 5: 1.3}  # x mean class std
MEAN_SHIFT_SCALE = {1: 0.5, 2: 1.0, 3: 1.5, 4: 2.0, 5: 3.0}  # x mean class std
SCALING_FACTOR = {1: 1.2, 2: 1.5, 3: 2.0, 4: 2.5, 5: 3.0}
ROTATION_DEGREES = {1: 10.0, 2: 20.0, 3: 30.0, 4: 45.0, 5: 60.0}

# lays out the class-mean directions, so every data seed re-draws the same classes
GEOMETRY_SEED = 7


def resolved_means(spec: SyntheticSpec) -> np.ndarray:
    """C x input_dim class means of radius mean_scale, laid out by
    GEOMETRY_SEED."""
    rng = np.random.default_rng(GEOMETRY_SEED)
    raw = rng.normal(size=(spec.n_classes, spec.input_dim))
    raw -= raw.mean(axis=0)
    means = spec.mean_scale * raw / np.linalg.norm(raw, axis=1, keepdims=True)
    if len({tuple(m) for m in means}) != spec.n_classes:
        raise ConfigInvalid("class means must be distinct")
    return means


def resolved_stds(spec: SyntheticSpec) -> np.ndarray:
    """Per-class isotropic stds: |cov_scales| (a class's covariance is its
    scale squared times I), or geomspace(0.2, 1.5, C), tight to wide."""
    if spec.cov_scales is not None:
        return np.abs(np.asarray(spec.cov_scales, dtype=np.float64))
    return np.geomspace(0.2, 1.5, spec.n_classes)


def mean_class_std(spec: SyntheticSpec) -> float:
    return float(np.mean(resolved_stds(spec)))


@dataclass
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray  # held-out unshifted source test data
    test_y: np.ndarray
    target_x: np.ndarray  # shifted target stream, in stream order
    target_y: np.ndarray


def _sample_mixture(spec: SyntheticSpec, n_per_class: int, rng: np.random.Generator):
    """n_per_class draws of each class, in one random order. Each class's
    draw, mean + std * z, is made in its rows of one matrix; the permutation
    is the only copy."""
    means, stds = resolved_means(spec), resolved_stds(spec)
    x = np.empty((spec.n_classes * n_per_class, spec.input_dim))
    for c in range(spec.n_classes):
        rows = rng.standard_normal(out=x[c * n_per_class : (c + 1) * n_per_class])
        rows *= stds[c]
        rows += means[c]
    y = np.repeat(np.arange(spec.n_classes, dtype=np.int64), n_per_class)
    order = rng.permutation(x.shape[0])
    return x[order], y[order]


def apply_shift(
    x: np.ndarray,
    shift: ShiftSpec,
    spec: SyntheticSpec,
    rng: np.random.Generator,
) -> None:
    """Apply the shift transforms in order to the float64 matrix `x`, in
    place; label-preserving by construction."""
    shift.validate(spec.input_dim)
    std = mean_class_std(spec)
    for t in shift.transforms:
        if t.kind == "gaussian_noise":
            sigma = NOISE_SIGMA_SCALE[shift.severity] * std
            x += rng.normal(0.0, sigma, size=x.shape)
        elif t.kind == "mean_shift":
            direction = np.asarray(t.direction, dtype=np.float64)
            # scaled to a largest entry of 1 first, so its norm neither over-
            # nor underflows
            direction = direction / np.abs(direction).max()
            direction = direction / np.linalg.norm(direction)
            x += MEAN_SHIFT_SCALE[shift.severity] * std * direction
        elif t.kind == "scaling":
            x *= SCALING_FACTOR[shift.severity]
        elif t.kind == "rotation":
            theta = np.deg2rad(ROTATION_DEGREES[shift.severity])
            i, j = t.plane or (0, 1)
            xi = np.cos(theta) * x[:, i] - np.sin(theta) * x[:, j]
            x[:, j] = np.sin(theta) * x[:, i] + np.cos(theta) * x[:, j]
            x[:, i] = xi


def generate_dataset(spec: SyntheticSpec, shift: ShiftSpec | None = None) -> Dataset:
    """Source train/test draws plus a (possibly shifted) target stream.

    Deterministic given spec.seed; the target stream is an independent
    source-like draw pushed through the shift transforms.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    train_x, train_y = _sample_mixture(spec, spec.n_train_per_class, rng)
    test_x, test_y = _sample_mixture(spec, spec.n_test_per_class, rng)
    target_x, target_y = _sample_mixture(spec, spec.n_test_per_class, rng)
    if shift is not None:
        apply_shift(target_x, shift, spec, rng)
    if not all(np.all(np.isfinite(x)) for x in (train_x, test_x, target_x)):
        raise ConfigInvalid("the configured mixture and shift draw non-finite samples")
    return Dataset(train_x, train_y, test_x, test_y, target_x, target_y)


def batch_stream(x: np.ndarray, y: np.ndarray, batch_size: int):
    """Chop an ordered target set into full batches (trailing remainder dropped)."""
    if batch_size < 2:
        raise ConfigInvalid("batch_size must be >= 2")
    n_batches = x.shape[0] // batch_size
    return [
        (x[i * batch_size : (i + 1) * batch_size], y[i * batch_size : (i + 1) * batch_size])
        for i in range(n_batches)
    ]
