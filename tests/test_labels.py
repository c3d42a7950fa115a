"""One class-label rule: `network.as_labels` accepts one whole class index
per row, and every path that reads labels refuses the rest with its error."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import BAD_LABELS, random_stats, small_model
from tta_align import losses, network
from tta_align.adapt import TtaConfig, adapt_stream
from tta_align.errors import DimensionMismatch, MissingClass, UnknownClass
from tta_align.experiment import evaluate_accuracy
from tta_align.network import StatMode, as_labels
from tta_align.stats import estimate_source_stats

N_ROWS = 10
N_CLASSES = 3
MODEL = small_model(np.random.default_rng(24), n_classes=N_CLASSES)
X = np.random.default_rng(25).normal(size=(N_ROWS, MODEL.input_dim))
Y = np.arange(N_ROWS) % N_CLASSES
STATS = random_stats(np.random.default_rng(26), N_CLASSES, MODEL.feature_dim)
FORWARD = network.forward_features(MODEL, X, StatMode.BATCH_ONLY)


def _loss(method):
    return lambda y: losses.loss_tensor(method, FORWARD.feats, FORWARD.logits, STATS, y)


READERS = {  # every path that takes a caller's labels, as a function of them
    "adapt_stream": lambda y: adapt_stream(
        copy.deepcopy(MODEL), STATS, [(X, y)], TtaConfig(method="cafa", batch_size=N_ROWS)
    ),
    "distance_report": lambda y: losses.distance_report(FORWARD.feats, y, STATS),
    "loss_tensor-pl": _loss("pl"),
    "loss_tensor-intra": _loss("intra"),
    "loss_tensor-cafa": _loss("cafa"),
    "estimate_source_stats": lambda y: estimate_source_stats(MODEL, X, y),
    "evaluate_accuracy": lambda y: evaluate_accuracy(MODEL, X, y),
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("kind", BAD_LABELS)
def test_every_reader_refuses_labels_that_are_not_class_indices(reader, kind):
    bad, error = BAD_LABELS[kind]
    if (reader, kind) == ("estimate_source_stats", "above_range"):
        error = MissingClass  # the fit learns C from the labels: class 0 has no rows
    with pytest.raises(error):
        READERS[reader](bad(Y))


@pytest.mark.parametrize("reader", READERS)
def test_every_reader_takes_whole_numbers_of_any_dtype(reader):
    READERS[reader](Y)
    READERS[reader](Y.astype(np.float32))


def oracle(values, shape, n_classes):
    """The error class for labels `values` of `shape` against N_ROWS rows,
    or None when they are one whole number in 0..n_classes-1 per row (any
    n >= 0 when `n_classes` is None)."""
    if shape != (N_ROWS,):
        return DimensionMismatch
    end = math.inf if n_classes is None else n_classes
    if all(float(v).is_integer() and 0 <= v < end for v in values):
        return None
    return UnknownClass


# the one right shape, or one near it, about half the time each
SHAPES = st.one_of(
    st.just((N_ROWS,)),
    st.sampled_from([(N_ROWS - 1,), (N_ROWS + 1,), (N_ROWS, 1), (1, N_ROWS), ()]),
)
DTYPES = [np.int64, np.int32, np.float64, np.float32]
DAMAGE = {  # a value that may replace a valid label, by dtype kind
    "i": st.integers(-2, N_CLASSES + 1),
    "f": st.one_of(
        st.integers(-2, N_CLASSES + 1).map(float),
        st.floats(-2.0, N_CLASSES + 1.0),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    ),
}


@settings(max_examples=100, deadline=None)
@given(
    shape=SHAPES,
    dtype=st.sampled_from(DTYPES),
    n_classes=st.sampled_from([N_CLASSES, None]),
    data=st.data(),
)
def test_as_labels_accepts_exactly_one_whole_class_index_per_row(shape, dtype, n_classes, data):
    # valid labels with up to two entries damaged, so both sides of the rule show
    size = math.prod(shape)
    values = data.draw(st.lists(st.integers(0, N_CLASSES - 1), min_size=size, max_size=size))
    for _ in range(data.draw(st.integers(0, 2))):
        values[data.draw(st.integers(0, size - 1))] = data.draw(DAMAGE[np.dtype(dtype).kind])
    labels = np.array(values, dtype=dtype).reshape(shape)
    expected = oracle(labels.reshape(-1).tolist(), shape, n_classes)
    if expected is None:
        y = as_labels(labels, N_ROWS, n_classes)
        assert y.dtype == np.int64
        assert y.tolist() == [int(v) for v in labels.tolist()]
    else:
        with pytest.raises(expected):
            as_labels(labels, N_ROWS, n_classes)
    if n_classes is None:
        return
    for name in ("evaluate_accuracy", "distance_report", "loss_tensor-pl"):
        if expected is None:
            READERS[name](labels)
        else:
            with pytest.raises(expected):
                READERS[name](labels)
