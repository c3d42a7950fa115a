"""Minimal feed-forward network with batch normalization.

Feature extractor = ordered (dense -> BN -> relu) blocks; a frozen linear
classifier sits on top. Forward passes run in one of three BN statistic
modes. Each block and the head is one tape node with a hand-written
backward, and so is each loss (`losses.loss_tensor`). Gradients are restricted
to a parameter group (BN affine parameters only, or the whole feature
extractor). The classifier is never part of any adaptation parameter group.
"""

from __future__ import annotations

import copy
import enum
import json
import zipfile
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .autograd import Tensor
from .errors import (
    BatchTooSmall,
    DimensionMismatch,
    FormatVersionMismatch,
    NonFiniteLoss,
    StatsIoError,
)
from .linalg import as_matrix

BN_VAR_EPS = 1e-5
CHECKPOINT_VERSION = 1


class StatMode(enum.Enum):
    TRAIN_UPDATE = "train_update"  # batch stats, update running stats
    BATCH_ONLY = "batch_only"  # batch stats, running stats untouched
    RUNNING_EVAL = "running_eval"  # stored running stats


class ParamGroup(enum.Enum):
    BN_ONLY = "bn_only"
    FEATURE_FULL = "feature_full"


@dataclass
class DenseLayer:
    weight: np.ndarray  # out x in
    bias: np.ndarray  # out


@dataclass
class BnLayer:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]


@dataclass
class Block:
    dense: DenseLayer
    bn: BnLayer


@dataclass
class AdaptiveModel:
    blocks: list[Block] = field(default_factory=list)
    classifier: DenseLayer = None

    @property
    def input_dim(self) -> int:
        return self.blocks[0].dense.weight.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.blocks[-1].dense.weight.shape[0]

    @property
    def n_classes(self) -> int:
        return self.classifier.weight.shape[0]

    def named_parameters(self) -> dict[str, np.ndarray]:
        """All trainable arrays, keyed by stable names. Arrays are live views."""
        params: dict[str, np.ndarray] = {}
        for i, blk in enumerate(self.blocks):
            params[f"block{i}.dense.weight"] = blk.dense.weight
            params[f"block{i}.dense.bias"] = blk.dense.bias
            params[f"block{i}.bn.gamma"] = blk.bn.gamma
            params[f"block{i}.bn.beta"] = blk.bn.beta
        params["classifier.weight"] = self.classifier.weight
        params["classifier.bias"] = self.classifier.bias
        return params

    def group_param_names(self, group: ParamGroup) -> list[str]:
        names = []
        for i in range(len(self.blocks)):
            if group is ParamGroup.FEATURE_FULL:
                names.append(f"block{i}.dense.weight")
                names.append(f"block{i}.dense.bias")
            names.append(f"block{i}.bn.gamma")
            names.append(f"block{i}.bn.beta")
        return names

    def copy(self) -> "AdaptiveModel":
        return copy.deepcopy(self)


def init_model(
    input_dim: int,
    hidden_dims: list[int],
    n_classes: int,
    rng: np.random.Generator,
    bn_momentum: float = 0.1,
) -> AdaptiveModel:
    """He-initialized dense weights, identity BN affine, unit running variance."""
    blocks = []
    fan_in = input_dim
    for width in hidden_dims:
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(width, fan_in))
        blocks.append(
            Block(
                dense=DenseLayer(weight=w, bias=np.zeros(width)),
                bn=BnLayer(
                    gamma=np.ones(width),
                    beta=np.zeros(width),
                    running_mean=np.zeros(width),
                    running_var=np.ones(width),
                    momentum=bn_momentum,
                ),
            )
        )
        fan_in = width
    clf_w = rng.normal(0.0, np.sqrt(1.0 / fan_in), size=(n_classes, fan_in))
    classifier = DenseLayer(weight=clf_w, bias=np.zeros(n_classes))
    return AdaptiveModel(blocks=blocks, classifier=classifier)


# -- forward graph -----------------------------------------------------------


def _block(
    h: Tensor,
    w: Tensor,
    b: Tensor,
    gamma: Tensor,
    beta: Tensor,
    bn: BnLayer,
    mode: StatMode,
) -> Tensor:
    """One dense -> BN -> relu block as a single tape node.

    The forward runs in place on one buffer: z = h W^T + b becomes
    x_hat = (z - mu) / std, then y = x_hat * gamma + beta is rectified in
    place. The backward is the closed form (Ioffe & Szegedy 2015): with
    batch statistics, gz = (gx - mean(gx) - x_hat * mean(gx * x_hat)) / std
    for gx = d/dx_hat; with running statistics, gz = gx / std. Each parent's
    gradient is computed only if that parent requires one.
    """
    z = h.data @ w.data.T
    z += b.data
    batch_stats = mode is not StatMode.RUNNING_EVAL
    if batch_stats:
        inv_n = 1.0 / z.shape[0]
        mu = z.sum(axis=0) * inv_n
        z -= mu
        var = (z**2).sum(axis=0) * inv_n
        if mode is StatMode.TRAIN_UPDATE:
            m = bn.momentum
            bn.running_mean[:] = (1 - m) * bn.running_mean + m * mu
            bn.running_var[:] = (1 - m) * bn.running_var + m * var
    else:
        z -= bn.running_mean
        var = bn.running_var
    std = np.sqrt(var + BN_VAR_EPS)
    z /= std  # z now holds x_hat
    y = z * gamma.data
    y += beta.data
    np.maximum(y, 0.0, out=y)

    def bw(out):
        gy = out.grad * (out.data > 0.0)
        if gamma.requires_grad:
            gamma._accumulate((gy * z).sum(axis=0))
        if beta.requires_grad:
            beta._accumulate(gy.sum(axis=0))
        if not (h.requires_grad or w.requires_grad or b.requires_grad):
            return
        g = gy * gamma.data  # d/dx_hat, turned into d/dz in place
        if batch_stats:
            mean_g = g.mean(axis=0)
            mean_g_xhat = (g * z).mean(axis=0)
            g -= mean_g
            g -= z * mean_g_xhat
        g /= std
        if b.requires_grad:
            b._accumulate(g.sum(axis=0))
        if w.requires_grad:
            w._accumulate(g.T @ h.data)
        if h.requires_grad:
            h._accumulate(g @ w.data)

    return Tensor(y, parents=(h, w, b, gamma, beta), backward=bw)


def _head(h: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The linear classifier, logits = h W^T + b, as one tape node.

    Its backward is dW = g^T h, db = sum(g) and dh = g W, each computed only
    if that parent requires a gradient.
    """

    def bw(out):
        g = out.grad
        if w.requires_grad:
            w._accumulate(g.T @ h.data)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0))
        if h.requires_grad:
            h._accumulate(g @ w.data)

    return Tensor(h.data @ w.data.T + b.data, parents=(h, w, b), backward=bw)


def _forward_graph(
    model: AdaptiveModel, batch: np.ndarray, mode: StatMode, grad_names=()
):
    """Build the forward graph; returns (features, logits, param tensors).

    Only the parameters in `grad_names` are gradient leaves, so with none
    named the forward records no graph. In batch-statistic modes the
    normalization uses the batch mean/variance, so gradients flow through
    those statistics. TRAIN_UPDATE additionally refreshes the running stats
    in place (numeric side effect only).
    """
    x = as_matrix(batch)
    if x.shape[1] != model.input_dim:
        raise DimensionMismatch(
            f"batch dim {x.shape[1]} vs model input dim {model.input_dim}"
        )
    uses_batch_stats = mode in (StatMode.TRAIN_UPDATE, StatMode.BATCH_ONLY)
    if uses_batch_stats and x.shape[0] < 2:
        raise BatchTooSmall("batch-statistics modes need at least 2 samples")

    grad_names = set(grad_names)
    params = {
        name: Tensor(arr, requires_grad=name in grad_names)
        for name, arr in model.named_parameters().items()
    }
    h = Tensor(x)
    for i, blk in enumerate(model.blocks):
        h = _block(
            h,
            params[f"block{i}.dense.weight"],
            params[f"block{i}.dense.bias"],
            params[f"block{i}.bn.gamma"],
            params[f"block{i}.bn.beta"],
            blk.bn,
            mode,
        )
    logits = _head(h, params["classifier.weight"], params["classifier.bias"])
    return h, logits, params


class Forward(NamedTuple):
    """What one forward pass computed: the features, the logits the head
    built from them and, when a loss read it, the C x N class kernel of the
    features (`losses._class_quadratics`)."""

    feats: np.ndarray
    logits: np.ndarray
    quads: np.ndarray | None = None


def forward_features(model: AdaptiveModel, batch, mode: StatMode) -> Forward:
    """One forward with no graph: the features and their logits."""
    feats, logits, _ = _forward_graph(model, batch, mode)
    return Forward(feats.data, logits.data)


def predict(model: AdaptiveModel, batch, mode: StatMode) -> np.ndarray:
    return argmax_rows(forward_features(model, batch, mode).logits)


def argmax_rows(logits: np.ndarray) -> np.ndarray:
    """Per-row argmax; ties resolve to the lowest class index."""
    return np.argmax(logits, axis=1)


# -- gradients ---------------------------------------------------------------


def _loss_graph(model, batch, mode, loss_spec, pseudo_labels=None, grad_names=()):
    # imported here to keep network <-> losses import acyclic
    from .losses import loss_tensor

    feats, logits, params = _forward_graph(model, batch, mode, grad_names)
    loss, quads = loss_tensor(loss_spec, feats, logits, pseudo_labels=pseudo_labels)
    return loss, Forward(feats.data, logits.data, quads), params


def loss_and_grad_named(
    model: AdaptiveModel,
    batch,
    mode: StatMode,
    loss_spec,
    names: list[str],
    pseudo_labels=None,
) -> tuple[float, dict[str, np.ndarray], Forward]:
    """Loss value, gradients w.r.t. the named parameters only, and the
    forward the loss was built on (with the class kernel, if the loss read
    one).

    A named parameter the loss does not reach gets a zero gradient.
    """
    loss, forward, params = _loss_graph(
        model, batch, mode, loss_spec, pseudo_labels, names
    )
    if not np.isfinite(loss.data):
        raise NonFiniteLoss(f"loss evaluated to {float(loss.data)}")
    loss.backward()
    grads = {}
    for name in names:
        p = params[name]
        grads[name] = np.zeros_like(p.data) if p.grad is None else p.grad
    return float(loss.data), grads, forward


# -- checkpoint i/o -----------------------------------------------------------


def save_checkpoint(model: AdaptiveModel, path) -> None:
    """Flat key/value serialization; round-trips float64 losslessly."""
    arrays: dict[str, np.ndarray] = dict(model.named_parameters())
    layout = []
    for i, blk in enumerate(model.blocks):
        arrays[f"block{i}.bn.running_mean"] = blk.bn.running_mean
        arrays[f"block{i}.bn.running_var"] = blk.bn.running_var
        arrays[f"block{i}.bn.momentum"] = np.asarray(blk.bn.momentum)
    for name, arr in arrays.items():
        layout.append({"name": name, "shape": list(np.asarray(arr).shape)})
    header = {
        "format_version": CHECKPOINT_VERSION,
        "n_blocks": len(model.blocks),
        "layout": layout,
    }
    np.savez(path, __header__=np.frombuffer(json.dumps(header).encode(), np.uint8), **arrays)


def load_checkpoint(path) -> AdaptiveModel:
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise StatsIoError(f"{path} is not a checkpoint archive")
        with data:
            arrays = {k: data[k] for k in data.files}
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        # garbage bytes are refused as a pickle, a cut archive as a zip
        raise StatsIoError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        header = json.loads(bytes(arrays.pop("__header__")).decode())
    except (KeyError, ValueError) as exc:
        raise StatsIoError(f"malformed checkpoint header in {path}") from exc
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise FormatVersionMismatch(
            f"checkpoint version {header.get('format_version')} != {CHECKPOINT_VERSION}"
        )
    try:
        for entry in header["layout"]:
            shape = arrays[entry["name"]].shape
            if shape != tuple(entry["shape"]):
                raise ValueError(f"{entry['name']}: shape {shape} vs layout {entry['shape']}")
        if not all(np.isfinite(a).all() for a in arrays.values()):
            raise ValueError("non-finite entries")
        bn_keys = ("gamma", "beta", "running_mean", "running_var")
        blocks = [
            Block(
                DenseLayer(arrays[f"block{i}.dense.weight"], arrays[f"block{i}.dense.bias"]),
                BnLayer(
                    *(arrays[f"block{i}.bn.{k}"] for k in bn_keys),
                    momentum=float(arrays[f"block{i}.bn.momentum"]),
                ),
            )
            for i in range(header["n_blocks"])
        ]
        classifier = DenseLayer(arrays["classifier.weight"], arrays["classifier.bias"])
        model = AdaptiveModel(blocks=blocks, classifier=classifier)
        _check_runnable(model)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise StatsIoError(f"malformed checkpoint {path}: {exc!r}") from exc
    return model


def _check_runnable(model: AdaptiveModel) -> None:
    """Raise ValueError unless a forward of `model` can run: widths chain from
    block to block and into the head, every bias and BN vector has its
    layer's width, running variances are >= 0 and each momentum is in (0, 1)."""
    width = model.input_dim
    layers = [(b.dense, b.bn) for b in model.blocks] + [(model.classifier, None)]
    for i, (dense, bn) in enumerate(layers):
        if dense.weight.ndim != 2 or dense.weight.shape[1] != width:
            raise ValueError(f"layer {i}: weight {dense.weight.shape} after width {width}")
        width = dense.weight.shape[0]
        bn_vectors = [] if bn is None else [bn.gamma, bn.beta, bn.running_mean, bn.running_var]
        if any(v.shape != (width,) for v in [dense.bias, *bn_vectors]):
            raise ValueError(f"layer {i}: a bias or BN vector is not of width {width}")
        if bn is not None and not (0 < bn.momentum < 1 and (bn.running_var >= 0).all()):
            raise ValueError(f"layer {i}: BN momentum outside (0, 1) or running_var < 0")
