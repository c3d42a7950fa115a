import numpy as np
import pytest

from helpers import numeric_grad
from tta_align.autograd import Tensor


def check_grad(build, x: np.ndarray, atol: float = 1e-6):
    t = Tensor(x.copy(), requires_grad=True)
    out = build(t)
    out.backward()
    fd = numeric_grad(lambda arr: float(build(Tensor(arr)).data), x.copy())
    np.testing.assert_allclose(t.grad, fd, atol=atol)


class TestForwardValues:
    def test_arithmetic(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        assert np.array_equal((a + b).data, [4.0, 6.0])
        assert np.array_equal((a - b).data, [-2.0, -2.0])
        assert np.array_equal((a * b).data, [3.0, 8.0])
        assert np.array_equal((a**2).data, [1.0, 4.0])

    def test_matmul_and_transpose(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal((a @ b).data, a.data)
        assert np.array_equal(a.T.data, a.data.T)

    def test_reductions(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert float(a.sum().data) == 10.0
        assert np.array_equal(a.sum(axis=0).data, [4.0, 6.0])
        assert float(a.mean().data) == 2.5
        assert np.array_equal(a.mean(axis=1).data, [1.5, 3.5])

    def test_elementwise(self):
        a = Tensor([-1.0, 0.0, 4.0])
        assert np.array_equal(Tensor([0.0, 1.0]).exp().data, [1.0, np.e])
        assert np.array_equal(Tensor([1.0, np.e]).log().data, [0.0, 1.0])
        assert np.array_equal(a.clip_min(0.5).data, [0.5, 0.5, 4.0])

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).backward()


class TestGradients:
    def test_add_mul(self):
        rng = np.random.default_rng(0)
        check_grad(lambda t: ((t * 3.0 + 1.0) * t).sum(), rng.normal(size=(4, 3)))

    def test_power(self):
        rng = np.random.default_rng(2)
        check_grad(lambda t: (t**3).sum(), rng.normal(size=4))

    def test_matmul(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(3, 4))
        check_grad(lambda t: ((t @ w) ** 2).sum(), rng.normal(size=(5, 3)))

    def test_matmul_stack_by_matrix(self):
        # a stack of matrices times one matrix, as in the class kernel
        rng = np.random.default_rng(10)
        a = rng.normal(size=(2, 5, 3))
        w = rng.normal(size=(3, 4))
        check_grad(lambda t: ((t @ w) ** 2).sum(), a.copy())
        check_grad(lambda t: ((Tensor(a) @ t) ** 2).sum(), w.copy())

    def test_matmul_stack_by_stack(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(2, 5, 3))
        b = rng.normal(size=(2, 3, 4))
        check_grad(lambda t: ((t @ b) ** 2).sum(), a.copy())
        check_grad(lambda t: ((Tensor(a) @ t) ** 2).sum(), b.copy())

    def test_transpose(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(3, 2))
        check_grad(lambda t: ((t.T @ w) ** 2).sum(), rng.normal(size=(3, 4)))

    def test_broadcast_row_vector(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 3))
        check_grad(lambda t: ((Tensor(x) + t) ** 2).sum(), rng.normal(size=3))

    def test_broadcast_keepdims(self):
        rng = np.random.default_rng(6)

        def build(t):
            mu = t.mean(axis=0, keepdims=True)
            return ((t - mu) ** 2).sum()

        check_grad(build, rng.normal(size=(5, 3)))

    def test_mean_axis(self):
        rng = np.random.default_rng(7)
        check_grad(lambda t: (t.mean(axis=1) ** 2).sum(), rng.normal(size=(4, 6)))

    def test_exp_log_sqrt(self):
        rng = np.random.default_rng(8)
        x = np.abs(rng.normal(size=5)) + 0.5
        check_grad(lambda t: (t.log() + (t * 0.1).exp()).sum(), x)

    def test_clip_min_zero_grad_at_floor(self):
        t = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        out = t.clip_min(0.0).sum()
        out.backward()
        assert np.array_equal(t.grad, [0.0, 1.0])

    def test_diamond_graph_accumulates(self):
        # y = x*x + x reuses the same leaf twice
        t = Tensor(np.array([3.0]), requires_grad=True)
        out = (t * t + t).sum()
        out.backward()
        assert np.array_equal(t.grad, [7.0])

    def test_neg_and_rsub(self):
        rng = np.random.default_rng(9)
        check_grad(lambda t: (Tensor(np.ones(4)) - (-t)).sum(), rng.normal(size=4))

    def test_constant_leaf_receives_grad_but_detaches_nothing(self):
        c = Tensor(np.array([2.0]))
        t = Tensor(np.array([3.0]), requires_grad=True)
        out = (c * t).sum()
        out.backward()
        assert np.array_equal(t.grad, [2.0])
        assert c.grad is None



class TestTape:
    def test_forward_without_grad_leaf_records_no_parents(self):
        a = Tensor(np.array([[1.0, -2.0], [3.0, 4.0]]))
        b = Tensor(np.array([[0.05], [0.2]]))
        out = (((a @ b).exp() - 1.0) * a.T.sum(axis=1, keepdims=True)).exp().sum()
        assert not out.requires_grad
        assert not out._parents and out._backward is None

    def test_output_requires_grad_if_any_parent_does(self):
        c = Tensor(np.array([2.0]))
        t = Tensor(np.array([3.0]), requires_grad=True)
        out = c * t
        assert out.requires_grad
        assert out._parents == [t]  # the constant parent is not recorded

    def test_backward_skips_constants(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 2))
        c = Tensor(a)
        t = Tensor(w.copy(), requires_grad=True)
        unused = Tensor(np.ones(2), requires_grad=True)
        h = c @ t
        out = (h * h).sum() + (c * 3.0).sum()
        out.backward()
        assert c.grad is None
        assert unused.grad is None
        np.testing.assert_allclose(t.grad, 2.0 * a.T @ (a @ w), rtol=1e-12)
