"""Shared oracles and builders for the test suite.

Oracles here are deliberately independent of the package internals:
Gauss-Jordan inversion instead of Cholesky, two-pass statistics instead of
the library accumulators, and explicit finite differences for gradients.
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np

from tta_align import losses, network
from tta_align.errors import DimensionMismatch, UnknownClass
from tta_align.stats import (
    DEFAULT_EPS_SCALE,
    SourceStats,
    _fit,
    regularized_precisions,
)


# kinds of labels that are not one class index per row, each made from the
# valid labels y of a batch of 3 classes, with the error `network.as_labels`
# raises: a column or a short array would broadcast or overrun a gather, and
# a fraction would truncate
BAD_LABELS = {
    "column": (lambda y: y[:, None], DimensionMismatch),
    "one_label": (lambda y: y[:1], DimensionMismatch),
    "one_short": (lambda y: y[:-1], DimensionMismatch),
    "fractional": (lambda y: y + 0.7, UnknownClass),
    "nan": (lambda y: np.where(y == 0, np.nan, y), UnknownClass),
    "above_range": (lambda y: y + 7, UnknownClass),
    "negative": (lambda y: y - 3, UnknownClass),
}


def gauss_jordan_inverse(a: np.ndarray) -> np.ndarray:
    """Dense inverse by Gauss-Jordan elimination with partial pivoting."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    aug = np.concatenate([a.copy(), np.eye(n)], axis=1)
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[pivot, col]) < 1e-300:
            raise ZeroDivisionError("singular matrix in Gauss-Jordan oracle")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


def random_spd(rng: np.random.Generator, d: int, ridge: float = 1.0) -> np.ndarray:
    b = rng.normal(size=(d, d))
    a = b.T @ b + ridge * np.eye(d)
    return 0.5 * (a + a.T)


def exact_precision(sigma) -> np.ndarray:
    """The precision that inverts sigma with no regularization.

    Lets tests compare against closed forms without the eps*I term.
    """
    return regularized_precisions(np.asarray(sigma, dtype=np.float64)[None], 0.0)[0]


def exact_stats(mus, sigmas, global_mu=None, global_sigma=None) -> SourceStats:
    """SourceStats of the class Gaussians N(mus[c], sigmas[c]) with exact
    precisions."""
    mus = np.asarray(mus, dtype=np.float64)
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if global_mu is None:
        global_mu = mus.mean(axis=0)
    if global_sigma is None:
        global_sigma = np.eye(mus.shape[1])
    return SourceStats(
        class_mus=mus,
        class_sigmas=sigmas,
        class_precisions=np.array([exact_precision(s) for s in sigmas]),
        class_counts=np.full(len(mus), 10),
        global_mu=np.asarray(global_mu, dtype=np.float64),
        global_sigma=np.asarray(global_sigma, dtype=np.float64),
        covariance_mode="class_wise",
        eps_scale=0.0,
    )


def fit_source_stats(
    features: np.ndarray,
    labels: np.ndarray,
    mode: str = "class_wise",
    eps_scale: float = DEFAULT_EPS_SCALE,
) -> SourceStats:
    """Per-class and global Gaussians of extracted features (an N x d
    matrix) and their labels (N class indices), by the package's fit on a
    copy: `features` is left as it is."""
    return _fit(np.array(features, dtype=np.float64), labels, mode, eps_scale)


def random_stats(rng: np.random.Generator, n_classes: int, d: int) -> SourceStats:
    pairs = [(rng.normal(size=d), random_spd(rng, d)) for _ in range(n_classes)]
    mus, sigmas = zip(*pairs)
    return exact_stats(mus, sigmas, global_sigma=random_spd(rng, d))


def rewrite_archive(path, edit_header=None, edit_arrays=None) -> None:
    """Rewrite a saved archive (a checkpoint or stats file) with its JSON
    header edited by `edit_header(header)`, in place or by returning a
    header to write instead (a str is written as the header's text), and
    its arrays, a dict by name, edited in place by `edit_arrays(arrays,
    header)`, which gets the edited header. The archive stays a valid one,
    so only what the edits changed is wrong."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    header = json.loads(arrays.pop("__header__").tobytes())
    if edit_header is not None:
        returned = edit_header(header)
        header = header if returned is None else returned
    if edit_arrays is not None:
        edit_arrays(arrays, header)
    text = header if isinstance(header, str) else json.dumps(header)
    with open(path, "wb") as fh:
        np.savez(fh, __header__=np.frombuffer(text.encode(), np.uint8), **arrays)


def key_twice(doc: dict, key: str) -> str:
    """The JSON text of the object `doc` with `key` and its value written
    once more at its end."""
    return json.dumps(doc)[:-1] + f', "{key}": {json.dumps(doc[key])}}}'


def traced_peak_mb(fn) -> float:
    """The peak of memory traced while `fn` runs, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def traced_held_mb(fn) -> float:
    """The memory traced as held when `fn` returns, while its result is
    alive, in MiB."""
    tracemalloc.start()
    try:
        kept = fn()  # noqa: F841  (alive until measured)
        return tracemalloc.get_traced_memory()[0] / 2**20
    finally:
        tracemalloc.stop()


def small_model(
    rng: np.random.Generator,
    input_dim: int = 6,
    hidden_dims=(8, 5),
    n_classes: int = 3,
) -> network.AdaptiveModel:
    return network.init_model(input_dim, list(hidden_dims), n_classes, rng)


def numeric_grad(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences of the scalar `fn` over every entry of `x`."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn(x)
        flat[i] = orig - h
        down = fn(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return g


def loss_fn(method, stats=None, labels=None):
    """The loss of `method` as a function of one forward: (value, grad,
    reads_logits). `labels`, when given, replace the argmax pseudo-labels of
    a `pl`, `intra` or `cafa` loss, so that finite differences never flip
    one."""

    def fn(forward):
        return losses.loss_tensor(method, forward.feats, forward.logits, stats, labels)[:3]

    return fn


def loss_grad(method, x: np.ndarray, stats=None, labels=None) -> tuple[float, np.ndarray]:
    """A loss over `x` and its gradient w.r.t. `x`: `x` stands for the
    features (`losses.FEATURE_LOSSES`) or the logits (the others)."""
    value, grad, _ = loss_fn(method, stats, labels)(network.Forward(x, x))
    return float(value), grad


def chain_grad(model, batch, mode, fn, group) -> tuple[float, np.ndarray]:
    """The value of `fn` (a function of one forward, as `loss_fn` returns)
    and its gradient over `group`'s prefix of the buffer, by the chain."""
    caches = []
    forward = network._forward(model, batch, mode, caches)
    value, grad, at_logits = fn(forward)
    return value, network._backward(model, caches, mode, grad, at_logits, model.group_size(group))


def fd_grad(model, batch, mode, fn, group, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of `fn` over `group`'s prefix of the
    buffer: every named parameter is a view into it."""
    params = model.flat[: model.group_size(group)]
    g = np.zeros_like(params)
    for i in range(params.size):
        orig = params[i]
        params[i] = orig + h
        up = fn(network._forward(model, batch, mode))[0]
        params[i] = orig - h
        down = fn(network._forward(model, batch, mode))[0]
        params[i] = orig
        g[i] = (up - down) / (2.0 * h)
    return g


def named(model, vec) -> dict[str, np.ndarray]:
    """A flat vector in the buffer's layout (a prefix of it, such as a
    group's gradient), split into one view per trainable array it covers;
    `named(model, model.flat)` gives every trainable array of the model.
    The trainable arrays are all but the running statistics, and each must
    be a view into the buffer."""
    base = model.flat.__array_interface__["data"][0]
    out = {}
    for name, p in model.arrays().items():
        if "running" in name:
            continue
        assert np.shares_memory(p, model.flat), f"{name} is not a view into the buffer"
        start = (p.__array_interface__["data"][0] - base) // 8
        if start + p.size <= vec.size:
            out[name] = vec[start : start + p.size].reshape(p.shape)
    return out


def max_rel_error(analytic: np.ndarray, reference: np.ndarray, floor: float = 1e-4) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(reference)), floor)
    return float(np.max(np.abs(analytic - reference) / denom))


def model_state(model) -> dict[str, np.ndarray]:
    """Every numeric array of the model, copied, for bitwise comparisons."""
    return {k: v.copy() for k, v in model.arrays().items()}


def states_equal(a: dict, b: dict, keys=None) -> bool:
    keys = set(a) if keys is None else set(keys)
    return all(np.array_equal(a[k], b[k]) for k in keys)
