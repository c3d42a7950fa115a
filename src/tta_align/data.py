"""Synthetic Gaussian-mixture datasets with controllable covariate shifts.

The target stream is a fresh draw from the source mixture pushed through
the configured shift transforms; labels are untouched by every shift.
"""

from __future__ import annotations

import copy

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
    # an overflow is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        means = spec.mean_scale * raw / np.linalg.norm(raw, axis=1, keepdims=True)
    if not np.all(np.isfinite(means)):
        raise ConfigInvalid(f"mean_scale {spec.mean_scale!r} gives non-finite class means")
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
    """Apply the checked shift's transforms in order to the float64 matrix
    `x`, in place; label-preserving by construction."""
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


# a dataset's (x, y) parts, in the order the generator draws them
TRAIN, TEST, TARGET = range(3)


def _array(part: int, index: int, doc: str) -> property:
    return property(lambda self: self._read(part)[index], doc=doc)


class Dataset:
    """Source train/test draws plus a (possibly shifted) target stream, made
    by `generate_dataset`.

    Each (x, y) part is drawn on its first read, from the generator state
    that drawing the parts before it leaves, so every array holds the bits
    of one draw of the parts in order, whatever order they are read in. A
    part read before the parts ahead of it draws them only to learn its
    start state, and keeps none of them. A part that draws a non-finite
    sample is refused (ConfigInvalid) at each read.
    """

    train_x = _array(TRAIN, 0, "source training samples")
    train_y = _array(TRAIN, 1, "source training labels")
    test_x = _array(TEST, 0, "held-out unshifted source test samples")
    test_y = _array(TEST, 1, "held-out source test labels")
    target_x = _array(TARGET, 0, "shifted target stream, in stream order")
    target_y = _array(TARGET, 1, "target stream labels")

    def __init__(self, spec: SyntheticSpec, shift: ShiftSpec | None):
        # copies, so a caller's later edit cannot change a part not yet drawn
        self._spec, self._shift = copy.deepcopy(spec), copy.deepcopy(shift)
        # the generator state after drawing parts 0..k-1, for each k learned
        self._starts = [np.random.default_rng(spec.seed).bit_generator.state]
        self._held: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _read(self, part: int) -> tuple[np.ndarray, np.ndarray]:
        if part not in self._held:
            first = min(part, len(self._starts) - 1)
            rng = np.random.default_rng(self._spec.seed)
            rng.bit_generator.state = self._starts[first]
            for k in range(first, part):
                self._draw(k, rng)  # only to learn where part k + 1 starts
                self._starts.append(rng.bit_generator.state)
            x, y = self._draw(part, rng)
            if len(self._starts) == part + 1:
                self._starts.append(rng.bit_generator.state)
            if not np.all(np.isfinite(x)):
                raise ConfigInvalid("the configured mixture and shift draw non-finite samples")
            self._held[part] = x, y
        return self._held[part]

    def _draw(self, part: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        spec = self._spec
        n_per_class = spec.n_train_per_class if part == TRAIN else spec.n_test_per_class
        # an overflow is refused at the read, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            x, y = _sample_mixture(spec, n_per_class, rng)
            if part == TARGET and self._shift is not None:
                apply_shift(x, self._shift, spec, rng)
        return x, y


def generate_dataset(spec: SyntheticSpec, shift: ShiftSpec | None = None) -> Dataset:
    """Source train/test draws plus a (possibly shifted) target stream.

    Deterministic given spec.seed; the target stream is an independent
    source-like draw pushed through the shift transforms. The spec, the
    shift and the class means are checked here; each part is drawn on its
    first read.
    """
    spec.validate()
    if shift is not None:
        shift.validate(spec.input_dim)
    resolved_means(spec)
    return Dataset(spec, shift)


def batch_stream(x: np.ndarray, y: np.ndarray, batch_size: int):
    """Chop an ordered target set into full batches (trailing remainder dropped)."""
    if batch_size < 2:
        raise ConfigInvalid("batch_size must be >= 2")
    n_batches = x.shape[0] // batch_size
    return [
        (x[i * batch_size : (i + 1) * batch_size], y[i * batch_size : (i + 1) * batch_size])
        for i in range(n_batches)
    ]
