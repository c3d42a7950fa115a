"""Shared oracles and builders for the test suite.

Oracles here are deliberately independent of the package internals:
Gauss-Jordan inversion instead of Cholesky, two-pass statistics instead of
the library accumulators, and explicit finite differences for gradients.
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np

from tta_align import adapt, losses, network
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


# -- one optimizing step as plain NumPy expressions --------------------------------
#
# The forward, each loss's value and gradient, the chain's backward and the
# Adam update, written out as expressions in the package's order of
# operations, with no buffer reused. A step of the package must give the
# same bits.


def oracle_forward(model, x, mode):
    """The features, logits and per-block caches (h, x_hat, std, y) of one
    forward of `model`, and the running (mean, var) of each block it leaves.
    The model is not changed."""
    caches, running = [], []
    h = x
    for blk in model.blocks:
        bn = blk.bn
        z = h @ blk.dense.weight.T + blk.dense.bias
        mean, var = bn.running_mean, bn.running_var
        if mode is network.StatMode.RUNNING_EVAL:
            centred = z - mean
            std = np.sqrt(var + network.BN_VAR_EPS)
        else:
            inv_n = 1.0 / z.shape[0]
            mu = z.sum(axis=0) * inv_n
            centred = z - mu
            batch_var = (centred**2).sum(axis=0) * inv_n
            std = np.sqrt(batch_var + network.BN_VAR_EPS)
            if mode is network.StatMode.TRAIN_UPDATE:
                keep = 1 - network.BN_MOMENTUM
                mean = mean * keep + network.BN_MOMENTUM * mu
                var = var * keep + network.BN_MOMENTUM * batch_var
        x_hat = centred / std
        y = np.maximum(x_hat * bn.gamma + bn.beta, 0.0)
        caches.append((h, x_hat, std, y))
        running.append((mean, var))
        h = y
    logits = h @ model.classifier.weight.T + model.classifier.bias
    return h, logits, caches, running


def oracle_loss(method, feats, logits, stats):
    """(value, gradient w.r.t. what the loss reads, reads_logits) of an
    adaptation loss on argmax pseudo-labels."""
    n = feats.shape[0]
    inv_n = 1.0 / n
    rows = np.arange(n)
    labels = np.argmax(logits, axis=1)
    if method in ("pl", "entropy"):
        shift = logits.max(axis=1, keepdims=True)
        e = np.exp(logits - shift)
        total = e.sum(axis=1, keepdims=True)
        lse = np.log(total) + shift
        if method == "pl":
            value = (lse - logits[rows, labels][:, None]).sum() * inv_n
            g = e * (inv_n / total)
            g[rows, labels] -= inv_n
            return value, g, True
        neg_logp = lse - logits
        p = np.exp(-neg_logp)
        ent = (p * neg_logp).sum(axis=1)
        return ent.sum() * inv_n, p * (neg_logp - ent[:, None]) * inv_n, True
    if method == "global_fa":
        mu_t = feats.sum(axis=0) * inv_n
        centred = feats - mu_t
        sigma_t = (centred.T @ centred) * inv_n
        mean_gap = stats.global_mu - mu_t
        cov_gap = stats.global_sigma - sigma_t
        value = (mean_gap**2).sum() + (cov_gap**2).sum()
        g = centred @ (cov_gap + cov_gap.T) * (-2.0 * inv_n)
        return value, g + (mean_gap * (-2.0 * inv_n) - g.sum(axis=0) * inv_n), False
    diff = feats - stats.class_mus[:, None, :]
    pd = diff @ stats.class_precisions
    quads = np.einsum("cnd,cnd->cn", pd, diff)
    intra = quads[labels, rows]
    if method == "intra":
        value = intra.sum() * inv_n
        w = np.zeros_like(quads)
        w[labels, rows] = 1.0
    else:
        floor = losses.RATIO_FLOOR
        denom = quads.sum(axis=0)
        num_c = np.maximum(intra, floor)
        den_c = np.maximum(denom, floor)
        value = (np.log(num_c) - np.log(den_c)).sum() * inv_n
        w = np.tile(-((denom > floor) / den_c), (quads.shape[0], 1))
        w[labels, rows] += (intra > floor) / num_c
    return value, 2.0 * np.einsum("cn,cnd->nd", w * inv_n, pd), False


def oracle_backward(model, caches, mode, g, at_logits, size):
    """The gradient over the first `size` entries of the buffer, in its
    layout: each block's gamma and beta, each block's W and b, then the
    classifier's W and b. What `size` does not cover is not computed."""
    blocks = model.blocks
    clf = model.classifier
    n = g.shape[0]
    bn_grads, dense_grads = [None] * len(blocks), [None] * len(blocks)
    if at_logits:
        clf_grads = [(g.T @ caches[-1][3]).ravel(), g.sum(axis=0)]
        g = g @ clf.weight
    else:
        clf_grads = [np.zeros(clf.weight.size), np.zeros(clf.bias.size)]
    full = size > model.group_size("bn_only")
    for i in reversed(range(len(blocks))):
        h, x_hat, std, y = caches[i]
        gy = g * (y > 0.0)
        bn_grads[i] = [(gy * x_hat).sum(axis=0), gy.sum(axis=0)]
        if i == 0 and not full:
            break
        gx = gy * blocks[i].bn.gamma
        if mode is not network.StatMode.RUNNING_EVAL:
            mean_g = gx.sum(axis=0) / n
            mean_g_xhat = (gx * x_hat).sum(axis=0) / n
            gx = gx - mean_g - x_hat * mean_g_xhat
        gz = gx / std
        dense_grads[i] = [(gz.T @ h).ravel(), gz.sum(axis=0)]
        if i > 0:
            g = gz @ blocks[i].dense.weight
    parts = [p for pair in bn_grads + dense_grads + [clf_grads] if pair for p in pair]
    return np.concatenate(parts)[:size]


def oracle_adam(params, grad, m, v, t, lr):
    """One Adam step at step count `t` (from 1): the new params, m and v."""
    b1, b2 = adapt.ADAM_BETA1, adapt.ADAM_BETA2
    m = m * b1 + (1 - b1) * grad
    v = v * b2 + (1 - b2) * grad * grad
    update = m / (1 - b1**t) * lr
    denom = np.sqrt(v / (1 - b2**t)) + adapt.ADAM_EPS
    return params - update / denom, m, v
