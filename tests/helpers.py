"""Shared oracles and builders for the test suite.

Oracles here are deliberately independent of the package internals:
Gauss-Jordan inversion instead of Cholesky, two-pass statistics instead of
the library accumulators, and explicit finite differences for gradients.
"""

from __future__ import annotations

import numpy as np

from tta_align import losses, network
from tta_align.autograd import Tensor
from tta_align.linalg import spd_factor, spd_inverse
from tta_align.stats import ClassGaussian, CovarianceMode, SourceStats


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


def exact_gaussian(class_id: int, mu, sigma, n_samples: int = 10) -> ClassGaussian:
    """ClassGaussian whose precision inverts sigma with no regularization.

    Lets tests compare against closed forms without the eps*I term.
    """
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    return ClassGaussian(class_id, mu, sigma, spd_inverse(spd_factor(sigma)), n_samples)


def stats_from_gaussians(gaussians, global_mu=None, global_sigma=None) -> SourceStats:
    d = gaussians[0].mu.shape[0]
    if global_mu is None:
        global_mu = np.mean([g.mu for g in gaussians], axis=0)
    if global_sigma is None:
        global_sigma = np.eye(d)
    return SourceStats(
        classes=list(gaussians),
        global_mu=np.asarray(global_mu, dtype=np.float64),
        global_sigma=np.asarray(global_sigma, dtype=np.float64),
        covariance_mode=CovarianceMode.CLASS_WISE,
        feature_dim=d,
        eps_scale=0.0,
    )


def random_stats(rng: np.random.Generator, n_classes: int, d: int) -> SourceStats:
    gaussians = [
        exact_gaussian(c, rng.normal(size=d), random_spd(rng, d))
        for c in range(n_classes)
    ]
    return stats_from_gaussians(gaussians, global_sigma=random_spd(rng, d))


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


def cube_sum(t: Tensor) -> Tensor:
    """sum(t**3) as a hand-built tape node: a smooth scalar to difference a
    node's output through, even where a relu has its kink."""

    def bw(out):
        t._accumulate(out.grad * 3.0 * t.data**2)

    return Tensor((t.data**3).sum(), parents=(t,), backward=bw)


def loss_over(spec, leaf: Tensor, labels=None) -> Tensor:
    """The loss node of `spec` with `leaf` as the one input it reads: the
    features (GlobalFA, IntraOnly, Cafa) or the logits (the others)."""
    if isinstance(spec, (losses.GlobalFA, losses.IntraOnly, losses.Cafa)):
        return losses.loss_tensor(spec, leaf, None, pseudo_labels=labels)[0]
    return losses.loss_tensor(spec, None, leaf, pseudo_labels=labels)[0]


def loss_grad(spec, x: np.ndarray, labels=None) -> tuple[float, np.ndarray]:
    """A loss over `x` and its gradient w.r.t. `x`."""
    leaf = Tensor(x.copy(), requires_grad=True)
    loss = loss_over(spec, leaf, labels)
    loss.backward()
    return float(loss.data), leaf.grad


def evaluate_loss(model, batch, mode, spec, pseudo_labels=None) -> float:
    """Scalar loss of one no-grad forward: what finite differences evaluate."""
    loss, _, _ = network._loss_graph(model, batch, mode, spec, pseudo_labels)
    return float(loss.data)


def fd_grad_named(
    model,
    batch,
    mode,
    spec,
    names,
    pseudo_labels=None,
    h: float = 1e-5,
) -> dict[str, np.ndarray]:
    """Central finite differences over the named parameter entries."""
    params = model.named_parameters()
    out = {}
    for name in names:
        p = params[name]
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = evaluate_loss(model, batch, mode, spec, pseudo_labels)
            flat[i] = orig - h
            down = evaluate_loss(model, batch, mode, spec, pseudo_labels)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        out[name] = g
    return out


def max_rel_error(analytic: dict, reference: dict, floor: float = 1e-4) -> float:
    worst = 0.0
    for name, a in analytic.items():
        f = reference[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), floor)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


def model_state(model) -> dict[str, np.ndarray]:
    """Every numeric array of the model, copied, for bitwise comparisons."""
    state = {k: v.copy() for k, v in model.named_parameters().items()}
    for i, blk in enumerate(model.blocks):
        state[f"block{i}.bn.running_mean"] = blk.bn.running_mean.copy()
        state[f"block{i}.bn.running_var"] = blk.bn.running_var.copy()
    return state


def states_equal(a: dict, b: dict, keys=None) -> bool:
    keys = set(a) if keys is None else set(keys)
    return all(np.array_equal(a[k], b[k]) for k in keys)
