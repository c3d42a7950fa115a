"""The tape over hand-built nodes, and the classifier head and loss nodes it
chains."""

import numpy as np
import pytest

from helpers import cube_sum, loss_grad, numeric_grad, random_stats, small_model
from tta_align import losses, network
from tta_align.autograd import Tensor
from tta_align.losses import (
    RATIO_FLOOR,
    Cafa,
    Entropy,
    GlobalFA,
    IntraOnly,
    PseudoLabelCE,
    SupervisedCE,
)
from tta_align.network import StatMode


def node(value_fn, grad_fn, *parents):
    """A hand-built tape node: value_fn(*data) is its value, and
    grad_fn(g, *data) gives one gradient per parent."""
    data = [p.data for p in parents]

    def bw(out):
        for p, g in zip(parents, grad_fn(out.grad, *data)):
            if p.requires_grad:
                p._accumulate(g)

    return Tensor(value_fn(*data), parents=parents, backward=bw)


def add(a, b):
    return node(np.add, lambda g, x, y: (g, g), a, b)


def mul(a, b):
    return node(np.multiply, lambda g, x, y: (g * y, g * x), a, b)


def matmul(a, b):
    return node(np.matmul, lambda g, x, y: (g @ y.T, x.T @ g), a, b)


def total(a):
    return node(np.sum, lambda g, x: (np.broadcast_to(g, x.shape),), a)


def head_case(seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(6, 4)), rng.normal(size=(3, 4)), rng.normal(size=3)]


def check_head_grad(arrays, i):
    """The head's gradient w.r.t. parent i against central differences of
    sum(logits**3)."""
    leaves = [Tensor(a.copy(), requires_grad=j == i) for j, a in enumerate(arrays)]
    cube_sum(network._head(*leaves)).backward()

    def value(arr):
        args = [Tensor(arr if j == i else a) for j, a in enumerate(arrays)]
        return float(cube_sum(network._head(*args)).data)

    fd = numeric_grad(value, arrays[i].copy())
    np.testing.assert_allclose(leaves[i].grad, fd, rtol=1e-6, atol=1e-6)
    # only the parent that asks for a gradient gets one
    assert all(leaf.grad is None for j, leaf in enumerate(leaves) if j != i)


class TestForwardValues:
    def test_matmul_and_transpose(self):
        # the head node's logits are h W^T + b, bit for bit what a
        # graph-free forward (and so prediction) reads
        rng = np.random.default_rng(0)
        model = small_model(rng)
        x = rng.normal(size=(7, 6))
        feats, logits, _ = network._forward_graph(model, x, StatMode.BATCH_ONLY)
        clf = model.classifier
        assert np.array_equal(logits.data, feats.data @ clf.weight.T + clf.bias)
        assert np.array_equal(
            logits.data, network.forward_features(model, x, StatMode.BATCH_ONLY).logits
        )

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).backward()


class TestGradients:
    def test_matmul(self):
        check_head_grad(head_case(3), 0)  # dh = g W

    def test_transpose(self):
        check_head_grad(head_case(4), 1)  # the weight enters transposed: dW = g^T h

    def test_broadcast_row_vector(self):
        check_head_grad(head_case(5), 2)  # the bias row is broadcast: db = sum(g)

    def test_broadcast_keepdims(self):
        # GlobalFA centers on the broadcast batch mean. Shifting every row
        # moves the mean only, so the gradient's rows sum to the mean gap's
        # gradient 2 (mu_t - mu_s)
        rng = np.random.default_rng(6)
        stats = random_stats(rng, 3, 4)
        x = rng.normal(size=(9, 4))
        _, g = loss_grad(GlobalFA(stats), x)
        np.testing.assert_allclose(
            g.sum(axis=0), 2.0 * (x.mean(axis=0) - stats.global_mu), rtol=1e-9, atol=1e-12
        )

    def test_mean_axis(self):
        # every loss is a mean over the batch: the batch stacked twice has
        # the same loss, and each row gets half its gradient
        rng = np.random.default_rng(7)
        stats = random_stats(rng, 4, 4)
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 4, size=8)
        x2, y2 = np.concatenate([x, x]), np.concatenate([y, y])
        for make in (
            lambda y: GlobalFA(stats),
            lambda y: IntraOnly(stats),
            lambda y: Cafa(stats),
            lambda y: Entropy(),
            lambda y: PseudoLabelCE(),
            SupervisedCE,
        ):
            v1, g1 = loss_grad(make(y), x, y)
            v2, g2 = loss_grad(make(y2), x2, y2)
            assert v2 == pytest.approx(v1, rel=1e-12)
            np.testing.assert_allclose(g2, 0.5 * np.concatenate([g1, g1]), rtol=1e-9, atol=1e-14)

    def test_exp_log_sqrt(self):
        # the log-sum-exp is shifted by the row maximum, so logits far
        # outside exp's range give exact values: a softmax that is one-hot
        # has zero entropy and zero entropy gradient, and the cross-entropy
        # gradient is softmax - one-hot over N
        z = np.array([[1000.0, 0.0, -1000.0], [-800.0, 800.0, 0.0]])
        value, g = loss_grad(PseudoLabelCE(), z, np.array([1, 1]))
        assert value == 500.0
        assert np.array_equal(g, [[0.5, -0.5, 0.0], [0.0, 0.0, 0.0]])
        value, g = loss_grad(Entropy(), z)
        assert value == 0.0
        assert np.array_equal(g, np.zeros_like(z))

    def test_clip_min_zero_grad_at_floor(self):
        # a sample within 1e-8 of its class mean has its intra form clamped
        # at RATIO_FLOOR: that term adds nothing to the gradient (unclamped,
        # it would be about 2 P (x - mu) / intra, some 1e8), so only the
        # denominator's -2 sum_c P_c (x - mu_c) / (N denom) is left
        rng = np.random.default_rng(8)
        stats = random_stats(rng, 3, 4)
        x = rng.normal(size=(5, 4))
        x[0] = stats.classes[0].mu + 1e-8 * rng.normal(size=4)
        labels = np.array([0, 1, 2, 0, 1])
        _, g = loss_grad(Cafa(stats), x, labels)
        quads, pd = losses._class_quadratics(x, stats)
        assert quads[0, 0] < RATIO_FLOOR
        denom_only = -2.0 * pd[:, 0].sum(axis=0) / (5 * quads[:, 0].sum())
        np.testing.assert_allclose(g[0], denom_only, rtol=1e-10)

    def test_diamond_graph_accumulates(self):
        # y = x*x + x reuses the same leaf three times
        t = Tensor(np.array([3.0]), requires_grad=True)
        out = total(add(mul(t, t), t))
        out.backward()
        assert np.array_equal(t.grad, [7.0])

    def test_constant_leaf_receives_grad_but_detaches_nothing(self):
        c = Tensor(np.array([2.0]))
        t = Tensor(np.array([3.0]), requires_grad=True)
        out = total(mul(c, t))
        out.backward()
        assert np.array_equal(t.grad, [2.0])
        assert c.grad is None


class TestTape:
    def test_forward_without_grad_leaf_records_no_parents(self):
        a = Tensor(np.array([[1.0, -2.0], [3.0, 4.0]]))
        b = Tensor(np.array([[0.05], [0.2]]))
        out = total(mul(matmul(a, b), matmul(a, b)))
        assert not out.requires_grad
        assert not out._parents and out._backward is None

    def test_output_requires_grad_if_any_parent_does(self):
        c = Tensor(np.array([2.0]))
        t = Tensor(np.array([3.0]), requires_grad=True)
        out = mul(c, t)
        assert out.requires_grad
        assert out._parents == [t]  # the constant parent is not recorded

    def test_backward_skips_constants(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 2))
        c = Tensor(a)
        t = Tensor(w.copy(), requires_grad=True)
        unused = Tensor(np.ones(2), requires_grad=True)
        h = matmul(c, t)
        out = add(total(mul(h, h)), total(c))
        out.backward()
        assert c.grad is None
        assert unused.grad is None
        np.testing.assert_allclose(t.grad, 2.0 * a.T @ (a @ w), rtol=1e-12)
