"""Minimal feed-forward network with batch normalization.

Feature extractor = ordered (dense -> BN -> relu) blocks; a frozen linear
classifier sits on top. Forward passes run in one of three BN statistic
modes. The graph of every optimizing step is the same chain, blocks -> head
-> loss, so its backward is one hand-written walk of that chain
(`_backward`). Every trainable array is a view into one flat buffer laid
out as [each block's gamma, beta][each block's W, b][classifier W, b], so a
parameter group is a prefix of it: the BN affine parameters, then the whole
feature extractor. The classifier is never part of any adaptation parameter
group; pretraining uses the whole buffer.
"""

from __future__ import annotations

import contextlib
import enum
import json
import math
import zipfile
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .autograd import Tensor
from .config import PARAM_GROUPS, CheckpointHeader, LayoutEntry, parse_json, plain, read
from .errors import (
    BatchTooSmall,
    ConfigInvalid,
    DimensionMismatch,
    FormatVersionMismatch,
    NonFiniteInput,
    NonFiniteLoss,
    StatsIoError,
    UnknownClass,
)

BN_MOMENTUM = 0.1  # weight of the batch statistics in a running-statistics update
BN_VAR_EPS = 1e-5
CHECKPOINT_VERSION = 1
EVAL_ROWS = 1024  # rows per block of a running-statistics forward without a cache


class StatMode(enum.Enum):
    TRAIN_UPDATE = "train_update"  # batch stats, update running stats
    BATCH_ONLY = "batch_only"  # batch stats, running stats untouched
    RUNNING_EVAL = "running_eval"  # stored running stats


@dataclass(frozen=True)
class DenseLayer:
    weight: np.ndarray  # out x in
    bias: np.ndarray  # out


@dataclass(frozen=True)
class BnLayer:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray


@dataclass(frozen=True)
class Block:
    dense: DenseLayer
    bn: BnLayer


@dataclass(frozen=True, init=False, eq=False)
class AdaptiveModel:
    """The blocks and the classifier of layer widths [input, *hidden,
    n_classes]. Every trainable array is a view into `flat`, and no model or
    layer attribute can be rebound: a parameter is updated in place, in the
    buffer that gradients and Adam address."""

    widths: tuple[int, ...]
    blocks: tuple[Block, ...]
    classifier: DenseLayer
    flat: np.ndarray
    _sizes: dict

    def __init__(self, widths) -> None:
        """The model of `widths`: zero dense weights and biases, identity BN
        affine and unit running variance."""
        widths = tuple(widths)
        # the buffer layout: each block's BN gamma and beta, then each dense
        # layer's weight and bias, the classifier's last
        shapes = [(width,) for width in widths[1:-1] for _ in ("gamma", "beta")]
        n = len(shapes)
        for fan_in, width in zip(widths, widths[1:]):
            shapes += [(width, fan_in), (width,)]
        ends = list(accumulate((math.prod(shape) for shape in shapes), initial=0))
        flat = np.zeros(ends[-1])
        views = [flat[a:b].reshape(shape) for a, b, shape in zip(ends, ends[1:], shapes)]
        gammas, betas = views[:n:2], views[1:n:2]
        weights, biases = views[n::2], views[n + 1 :: 2]
        blocks = tuple(
            Block(DenseLayer(w, b), BnLayer(gamma, beta, np.zeros(b.size), np.ones(b.size)))
            for w, b, gamma, beta in zip(weights, biases, gammas, betas)
        )
        for gamma in gammas:
            gamma[...] = 1.0
        classifier = DenseLayer(weights[-1], biases[-1])
        sizes = {**{g: ends[k * n] for k, g in enumerate(PARAM_GROUPS, 1)}, None: ends[-1]}
        # the one assignment of the frozen fields
        vars(self).update(widths=widths, blocks=blocks, classifier=classifier, flat=flat, _sizes=sizes)

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def feature_dim(self) -> int:
        return self.widths[-2]

    @property
    def n_classes(self) -> int:
        return self.widths[-1]

    def arrays(self) -> dict[str, np.ndarray]:
        """Every array of the model by its checkpoint name, in checkpoint
        order: each block's dense weight and bias and BN gamma and beta, the
        classifier's weight and bias, then each block's running mean and
        variance. The trainable arrays are views into `flat`."""
        blocks = list(enumerate(self.blocks))
        params = ("dense.weight", "dense.bias", "bn.gamma", "bn.beta")
        running = ("bn.running_mean", "bn.running_var")
        return {
            **{f"block{i}.{k}": attrgetter(k)(b) for i, b in blocks for k in params},
            "classifier.weight": self.classifier.weight,
            "classifier.bias": self.classifier.bias,
            **{f"block{i}.{k}": attrgetter(k)(b) for i, b in blocks for k in running},
        }

    def group_size(self, group: str | None) -> int:
        """Length of the prefix of `flat` that holds `group`, one of
        PARAM_GROUPS; None is the whole buffer, classifier included."""
        if group not in self._sizes:
            raise ConfigInvalid(f"group {group!r} must be one of PARAM_GROUPS {list(PARAM_GROUPS)}")
        return self._sizes[group]

    def copy(self) -> "AdaptiveModel":
        """An independent model over a buffer of its own."""
        clone, arrays = AdaptiveModel(self.widths), self.arrays()
        for name, a in clone.arrays().items():
            a[...] = arrays[name]
        return clone


def init_model(
    input_dim: int,
    hidden_dims: list[int],
    n_classes: int,
    rng: np.random.Generator,
) -> AdaptiveModel:
    """He-initialized dense weights, identity BN affine and unit running
    variance."""
    model = AdaptiveModel([input_dim, *hidden_dims, n_classes])
    gains = [(b.dense.weight, 2.0) for b in model.blocks] + [(model.classifier.weight, 1.0)]
    for w, gain in gains:
        w[...] = rng.normal(0.0, np.sqrt(gain / w.shape[1]), size=w.shape)
    return model


# -- the chain: forward --------------------------------------------------------


def _block(h: np.ndarray, blk: Block, mode: StatMode, caches: list | None) -> np.ndarray:
    """One dense -> BN -> relu block.

    The forward runs in place: z = h W^T + b becomes x_hat = (z - mu) / std.
    With `caches`, y = x_hat * gamma + beta is a second buffer, rectified in
    place, and the block appends (h, x_hat, std, y) for the backward;
    without, y overwrites x_hat in the one buffer.
    """
    bn = blk.bn
    z = h @ blk.dense.weight.T
    z += blk.dense.bias
    if mode is not StatMode.RUNNING_EVAL:
        inv_n = 1.0 / z.shape[0]
        mu = np.add.reduce(z, axis=0) * inv_n
        z -= mu
        var = np.add.reduce(z**2, axis=0) * inv_n
        if mode is StatMode.TRAIN_UPDATE:  # in place, through a local name
            for running, batch in ((bn.running_mean, mu), (bn.running_var, var)):
                running *= 1 - BN_MOMENTUM
                running += BN_MOMENTUM * batch
    else:
        z -= bn.running_mean
        var = bn.running_var
    std = np.sqrt(var + BN_VAR_EPS)
    z /= std  # z now holds x_hat
    y = np.multiply(z, bn.gamma, out=z if caches is None else None)
    y += bn.beta
    np.maximum(y, 0.0, out=y)
    if caches is not None:
        caches.append((h, z, std, y))
    return y


def _head(h: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The linear classifier: logits = h W^T + b."""
    return h @ w.T + b


class Forward(NamedTuple):
    """What one forward pass computed: the features, the logits the head
    built from them and, when a loss read it, the C x N class kernel of the
    features (`losses._class_quadratics`)."""

    feats: np.ndarray
    logits: np.ndarray
    quads: np.ndarray | None = None


def as_matrix(x) -> np.ndarray:
    """`x` as a float64 matrix, refused unless 2-D and finite."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteInput("matrix contains non-finite entries")
    return m


def as_labels(labels, n_rows: int, n_classes: int | None = None) -> np.ndarray:
    """`labels` as int64 class indices, refused unless one whole number per
    row in 0..n_classes-1; with `n_classes` None, any index int64 holds."""
    y = np.asarray(labels)
    if y.shape != (n_rows,):
        raise DimensionMismatch(f"labels of shape {y.shape} for {n_rows} rows")
    kind = y.dtype.kind
    if kind not in "biu" and not (kind == "f" and np.array_equal(np.floor(y), y)):  # nan included
        raise UnknownClass(f"labels of dtype {y.dtype} are not whole numbers")
    end = 2**63 if n_classes is None else n_classes
    if y.size and (y.min() < 0 or y.max() >= end):
        raise UnknownClass(f"labels outside 0..{end - 1}")
    return y.astype(np.int64, copy=False)


def _checked(model: AdaptiveModel, batch, mode: StatMode) -> np.ndarray:
    """The batch as a float64 matrix, refused unless a forward of `model`
    in `mode` can run on it."""
    x = as_matrix(batch)
    if x.shape[1] != model.input_dim:
        raise DimensionMismatch(
            f"batch dim {x.shape[1]} vs model input dim {model.input_dim}"
        )
    uses_batch_stats = mode in (StatMode.TRAIN_UPDATE, StatMode.BATCH_ONLY)
    if uses_batch_stats and x.shape[0] < 2:
        raise BatchTooSmall("batch-statistics modes need at least 2 samples")
    return x


def _forward(
    model: AdaptiveModel, x: np.ndarray, mode: StatMode, caches: list | None = None
) -> Forward:
    """The features and logits of one forward over the rows of `x` (as
    `_checked` returns it); with `caches`, each block's (input, x_hat, std,
    output) in block order, for `_backward`.

    In batch-statistic modes the normalization uses the batch mean/variance.
    TRAIN_UPDATE additionally refreshes the running stats in place. Weights
    too large for the batch, finite as they are, overflow: NonFiniteLoss.
    """
    h = x
    with overflow_guard("the forward"):
        for blk in model.blocks:
            h = _block(h, blk, mode, caches)
        clf = model.classifier
        return Forward(h, _head(h, clf.weight, clf.bias))


@contextlib.contextmanager
def overflow_guard(what: str):
    """NonFiniteLoss for a float operation in the block that overflows."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NonFiniteLoss(f"{what} overflowed: {exc}") from None


def _row_blocks(model: AdaptiveModel, batch, mode: StatMode) -> tuple[np.ndarray, list[slice]]:
    """The checked batch and the row blocks a cache-free forward of it runs
    over. Under running statistics each row's forward reads only that row,
    so the blocks are EVAL_ROWS rows each and the forward's memory is
    bounded; batch statistics read every row, so the batch is one block."""
    x = _checked(model, batch, mode)
    n = x.shape[0]
    step = EVAL_ROWS if mode is StatMode.RUNNING_EVAL else n
    return x, [slice(start, start + step) for start in range(0, n, step)]


def forward_features(model: AdaptiveModel, batch, mode: StatMode) -> Forward:
    """A forward that keeps no cache: the features and their logits, bit
    for bit those of one `_forward` over the whole batch."""
    x, blocks = _row_blocks(model, batch, mode)
    if len(blocks) == 1:  # the batch's own forward: a copy would add a buffer
        return _forward(model, x, mode)
    n = x.shape[0]
    out = Forward(np.empty((n, model.feature_dim)), np.empty((n, model.n_classes)))
    for rows in blocks:
        feats, logits, _ = _forward(model, x[rows], mode)
        out.feats[rows] = feats
        out.logits[rows] = logits
    return out


def predict(model: AdaptiveModel, batch, mode: StatMode) -> np.ndarray:
    """The predicted class of each row; no more than one row block's
    features are alive at a time."""
    x, blocks = _row_blocks(model, batch, mode)
    labels = np.empty(x.shape[0], dtype=np.intp)
    for rows in blocks:
        labels[rows] = argmax_rows(_forward(model, x[rows], mode).logits)
    return labels


def argmax_rows(logits: np.ndarray) -> np.ndarray:
    """Per-row argmax; ties resolve to the lowest class index."""
    return np.argmax(logits, axis=1)


# -- the chain: backward -------------------------------------------------------


def _backward(
    model: AdaptiveModel,
    caches: list,
    mode: StatMode,
    g: np.ndarray,
    at_logits: bool,
    size: int,
) -> np.ndarray:
    """The gradient over the first `size` entries of the buffer, from the
    loss gradient `g` w.r.t. the logits (`at_logits`) or the features.

    Walks head -> blocks in reverse and writes each gradient into its slice
    of one flat vector. The head gives dW = g^T h, db = sum(g) (only when
    `size` covers the classifier; a loss that reads the features leaves them
    zero) and dh = g W. Each block's BN backward is the closed form (Ioffe &
    Szegedy 2015): with batch statistics, gz = (gx - mean(gx) - x_hat *
    mean(gx * x_hat)) / std for gx = d/dx_hat; with running statistics,
    gz = gx / std. A block's dW and db are computed only past the BN prefix,
    and no gradient is computed for the input below block 0.
    """
    grad = np.empty(size)
    bn_end = model.group_size("bn_only")
    feature_end = model.group_size("feature_full")
    clf = model.classifier
    if size > feature_end:
        if at_logits:
            w_end = feature_end + clf.weight.size
            np.matmul(g.T, caches[-1][3], out=grad[feature_end:w_end].reshape(clf.weight.shape))
            np.add.reduce(g, axis=0, out=grad[w_end:])
        else:
            grad[feature_end:] = 0.0
    if at_logits:
        g = g @ clf.weight
    full = size > bn_end
    batch_stats = mode is not StatMode.RUNNING_EVAL
    n = g.shape[0]
    bn_at, dense_at = bn_end, feature_end
    for i in reversed(range(len(model.blocks))):
        blk = model.blocks[i]
        h, x_hat, std, y = caches[i]
        d = std.shape[0]
        bn_at -= 2 * d
        gy = _relu_grad(g, y)
        np.add.reduce(gy * x_hat, axis=0, out=grad[bn_at : bn_at + d])
        np.add.reduce(gy, axis=0, out=grad[bn_at + d : bn_at + 2 * d])
        if i == 0 and not full:
            break
        g = gy
        g *= blk.bn.gamma  # d/dx_hat, turned into d/dz in place
        if batch_stats:  # the means as numpy's mean takes them: sum / n
            mean_g = np.add.reduce(g, axis=0) / n
            mean_g_xhat = np.add.reduce(g * x_hat, axis=0) / n
            g -= mean_g
            g -= x_hat * mean_g_xhat
        g /= std
        w = blk.dense.weight
        if full:
            dense_at -= w.size + d
            w_end = dense_at + w.size
            np.matmul(g.T, h, out=grad[dense_at:w_end].reshape(w.shape))
            np.add.reduce(g, axis=0, out=grad[w_end : w_end + d])
        if i > 0:
            g = g @ w
    return grad


def _relu_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """g * (y > 0) bit for bit, the -0.0 of a negative g where y == 0
    included, through a float mask: a float64 x bool product costs more."""
    gy = (y > 0.0).astype(np.float64)
    gy *= g
    return gy


def loss_and_grad_named(
    model: AdaptiveModel,
    batch,
    mode: StatMode,
    group: str | None,
    method: str,
    stats=None,
    labels=None,
) -> tuple[float, np.ndarray, Forward]:
    """The value of `method`'s loss (`losses.loss_tensor`, with `stats` and
    the optional `labels`), its gradient over `group`'s prefix of the buffer
    (None: the whole buffer), and the forward the loss was built on (with
    the class kernel, if the loss read one).

    A parameter of the group that the loss does not reach gets a zero
    gradient.
    """
    # imported here to keep network <-> losses import acyclic
    from . import losses

    caches: list = []
    forward = _forward(model, _checked(model, batch, mode), mode, caches)
    value, grad, at_logits, quads = losses.loss_tensor(
        method, forward.feats, forward.logits, stats, labels
    )
    size = model.group_size(group)
    loss = Tensor(value, lambda: _backward(model, caches, mode, grad, at_logits, size))
    if not np.isfinite(loss.data):
        raise NonFiniteLoss(f"loss evaluated to {float(loss.data)}")
    return float(loss.data), loss.backward(), forward._replace(quads=quads)


# -- archives: the checkpoint and the stats file -----------------------------


def save_archive(path, header, arrays: dict[str, np.ndarray]) -> None:
    """An `.npz` archive at exactly `path`: the JSON of `header` (a schema
    dataclass of `config`) as the uint8 `__header__` entry, then `arrays`
    under their names. The zip container keeps a CRC-32 of every entry."""
    text = json.dumps(plain(header)).encode()
    with open(path, "wb") as fh:  # given a name, np.savez would append ".npz" to it
        np.savez(fh, __header__=np.frombuffer(text, np.uint8), **arrays)


def load_archive(path, header_cls, version: int, what: str):
    """The header (a `header_cls`) and the arrays, by name, of an archive of
    `save_archive`; StatsIoError unless each entry matches its CRC-32, the
    config walk reads the header at `format_version` `version` (another
    version: FormatVersionMismatch) and each array is finite float64."""
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise StatsIoError(f"{path} is not a {what} archive")
        with data:
            arrays = {k: data[k] for k in data.files}
    except (OSError, EOFError, RuntimeError, ValueError, MemoryError, zipfile.BadZipFile) as exc:
        # garbage bytes are refused as a pickle, a cut archive as a zip and an
        # empty file as the end of a file; a damaged entry fails its CRC-32,
        # an entry zipfile cannot read (an encryption flag, an unknown
        # compression method or zip version) is a RuntimeError, and one whose
        # header declares more than memory holds is allocated before it is
        # read
        raise StatsIoError(f"cannot read {what} {path}: {exc}") from exc
    try:
        doc = parse_json(arrays.pop("__header__").tobytes())
        # another version is named as such, whatever else its header holds;
        # a version that is no integer is the walk's to refuse
        found = doc.get("format_version") if isinstance(doc, dict) else None
        if type(found) is int and found != version:
            raise FormatVersionMismatch(f"{what} version {found!r} != {version}")
        header = read(header_cls, doc, f"{what} header")
    except (KeyError, ValueError, ConfigInvalid) as exc:
        raise StatsIoError(f"malformed {what} header in {path}: {exc}") from exc
    for name, a in arrays.items():  # save_archive is handed float64 only
        if a.dtype != np.float64 or not np.isfinite(a).all():
            raise StatsIoError(f"malformed {what} {path}: {name} is not finite float64")
    return header, arrays


def save_checkpoint(model: AdaptiveModel, path) -> None:
    """`model.arrays()` as an archive at exactly `path`; round-trips float64
    losslessly."""
    arrays = model.arrays()
    layout = [LayoutEntry(name, list(a.shape)) for name, a in arrays.items()]
    header = CheckpointHeader(CHECKPOINT_VERSION, len(model.blocks), layout)
    save_archive(path, header, arrays)


def load_checkpoint(path) -> AdaptiveModel:
    """The model a checkpoint holds: the archive must hold exactly the
    arrays of the model its weights' widths give. The scalar
    `block{i}.bn.momentum` entries that older checkpoints carry are not
    read: the momentum is BN_MOMENTUM."""
    header, stored = load_archive(path, CheckpointHeader, CHECKPOINT_VERSION, "checkpoint")
    try:
        shapes = {name: a.shape for name, a in stored.items()}
        # a list, so that a layout naming one array twice is refused
        if sorted((e.name, tuple(e.shape)) for e in header.layout) != sorted(shapes.items()):
            raise ValueError("the layout does not name exactly the archive's arrays and shapes")
        n = header.n_blocks  # a huge n stops at the archive's first missing block
        weights = [shapes[f"block{i}.dense.weight"] for i in range(n)]
        weights.append(shapes["classifier.weight"])
        widths = [weights[0][1], *(w[0] for w in weights)]
        # checked before the model is built, so that it holds no more than the archive
        if weights != list(zip(widths[1:], widths)) or min(widths) < 1:
            raise ValueError(f"dense weights {weights} do not chain widths >= 1")
        model = AdaptiveModel(widths)
        want = {name: a.shape for name, a in model.arrays().items()}
        want |= {k: () for k in (f"block{i}.bn.momentum" for i in range(n)) if shapes.get(k) == ()}
        if want != shapes:
            odd = sorted(set(want.items()) ^ set(shapes.items()))
            raise ValueError(f"the arrays of a model of widths {widths} differ by {odd}")
        for name, a in model.arrays().items():
            a[...] = stored[name]
        if any((b.bn.running_var < 0).any() for b in model.blocks):
            raise ValueError("running_var < 0")
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise StatsIoError(f"malformed checkpoint {path}: {exc!r}") from exc
    return model
