"""Tiny reverse-mode autodiff over float64 numpy arrays.

Just enough ops for dense layers, batch normalization with batch
statistics, and the alignment/entropy losses. Scalar-output backward only.
Each backward closure is handed its output node instead of capturing it, so
a graph holds no reference cycle and is freed as soon as the loss is dropped.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` back down to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _wrap(other)
        out = Tensor(self.data + other.data, (self, other))

        def bw(out):
            self.grad += _unbroadcast(out.grad, self.data.shape)
            other.grad += _unbroadcast(out.grad, other.data.shape)

        out._backward = bw
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, (self,))

        def bw(out):
            self.grad -= out.grad

        out._backward = bw
        return out

    def __sub__(self, other):
        return self + (-_wrap(other))

    def __rsub__(self, other):
        return _wrap(other) + (-self)

    def __mul__(self, other):
        other = _wrap(other)
        out = Tensor(self.data * other.data, (self, other))

        def bw(out):
            self.grad += _unbroadcast(out.grad * other.data, self.data.shape)
            other.grad += _unbroadcast(out.grad * self.data, other.data.shape)

        out._backward = bw
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _wrap(other)
        out = Tensor(self.data / other.data, (self, other))

        def bw(out):
            self.grad += _unbroadcast(out.grad / other.data, self.data.shape)
            other.grad += _unbroadcast(
                -out.grad * self.data / (other.data * other.data),
                other.data.shape,
            )

        out._backward = bw
        return out

    def __pow__(self, exponent):
        assert isinstance(exponent, (int, float))
        out = Tensor(self.data**exponent, (self,))

        def bw(out):
            self.grad += out.grad * exponent * self.data ** (exponent - 1)

        out._backward = bw
        return out

    def __matmul__(self, other):
        other = _wrap(other)
        out = Tensor(self.data @ other.data, (self, other))

        def bw(out):
            # swapaxes, not .T: operands may be stacks of matrices
            self.grad += _unbroadcast(
                out.grad @ np.swapaxes(other.data, -1, -2), self.data.shape
            )
            other.grad += _unbroadcast(
                np.swapaxes(self.data, -1, -2) @ out.grad, other.data.shape
            )

        out._backward = bw
        return out

    @property
    def T(self):
        out = Tensor(self.data.T, (self,))

        def bw(out):
            self.grad += out.grad.T

        out._backward = bw
        return out

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def bw(out):
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self.grad += np.broadcast_to(g, self.data.shape)

        out._backward = bw
        return out

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- elementwise nonlinear ----------------------------------------------

    def relu(self):
        out = Tensor(np.maximum(self.data, 0.0), (self,))

        def bw(out):
            self.grad += out.grad * (self.data > 0.0)

        out._backward = bw
        return out

    def exp(self):
        out = Tensor(np.exp(self.data), (self,))

        def bw(out):
            self.grad += out.grad * out.data

        out._backward = bw
        return out

    def log(self):
        out = Tensor(np.log(self.data), (self,))

        def bw(out):
            self.grad += out.grad / self.data

        out._backward = bw
        return out

    def sqrt(self):
        out = Tensor(np.sqrt(self.data), (self,))

        def bw(out):
            self.grad += out.grad * 0.5 / out.data

        out._backward = bw
        return out

    def clip_min(self, floor: float):
        """max(x, floor); zero gradient where the floor is active."""
        out = Tensor(np.maximum(self.data, floor), (self,))

        def bw(out):
            self.grad += out.grad * (self.data > floor)

        out._backward = bw
        return out

    # -- backward -----------------------------------------------------------

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward requires a scalar output")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, iter(self._parents))]
        visited.add(id(self))
        while stack:
            node, parents = stack[-1]
            advanced = False
            for p in parents:
                if id(p) not in visited:
                    visited.add(id(p))
                    stack.append((p, iter(p._parents)))
                    advanced = True
                    break
            if not advanced:
                topo.append(node)
                stack.pop()
        for t in topo:
            t.grad = np.zeros_like(t.data)
        self.grad = np.ones_like(self.data)
        for t in reversed(topo):
            if t._backward is not None:
                t._backward(t)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)

