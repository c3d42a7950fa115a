"""Tiny reverse-mode autodiff over float64 numpy arrays.

Just enough ops for the classifier head and the alignment/entropy losses;
the dense -> BN -> relu blocks and the class-distance kernel are single
nodes with hand-written backwards (`network._block`,
`losses._class_quadratics`). Scalar-output backward only.

Gradient need flows from the leaves: a leaf asks for a gradient with
`requires_grad=True`, and an op's output requires one only if a parent
does. An output that needs none records no parents and no closure, so a
forward that names no gradient leaf builds no graph at all. Each backward
closure is handed its output node instead of capturing it, so a graph holds
no reference cycle and is freed as soon as the loss is dropped.
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
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad=False, *, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        parents = [p for p in parents if p.requires_grad]
        self.requires_grad = requires_grad or bool(parents)
        self._parents = parents
        self._backward = backward if parents else None

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, g) -> None:
        """Add one gradient contribution; the first one allocates `grad`."""
        if self.grad is None:
            # a fresh array holding what a sum onto zeros holds (-0.0 -> +0.0)
            self.grad = g + 0.0
        else:
            self.grad += g

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _wrap(other)

        def bw(out):
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad, other.data.shape))

        return Tensor(self.data + other.data, parents=(self, other), backward=bw)

    __radd__ = __add__

    def __neg__(self):
        def bw(out):
            self._accumulate(-out.grad)

        return Tensor(-self.data, parents=(self,), backward=bw)

    def __sub__(self, other):
        return self + (-_wrap(other))

    def __mul__(self, other):
        other = _wrap(other)

        def bw(out):
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data, other.data.shape))

        return Tensor(self.data * other.data, parents=(self, other), backward=bw)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        assert isinstance(exponent, (int, float))

        def bw(out):
            self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

        return Tensor(self.data**exponent, parents=(self,), backward=bw)

    def __matmul__(self, other):
        other = _wrap(other)

        def bw(out):
            # swapaxes, not .T: operands may be stacks of matrices
            if self.requires_grad:
                self._accumulate(
                    _unbroadcast(
                        out.grad @ np.swapaxes(other.data, -1, -2), self.data.shape
                    )
                )
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(
                        np.swapaxes(self.data, -1, -2) @ out.grad, other.data.shape
                    )
                )

        return Tensor(self.data @ other.data, parents=(self, other), backward=bw)

    @property
    def T(self):
        def bw(out):
            self._accumulate(out.grad.T)

        return Tensor(self.data.T, parents=(self,), backward=bw)

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        def bw(out):
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor(
            self.data.sum(axis=axis, keepdims=keepdims), parents=(self,), backward=bw
        )

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- elementwise nonlinear ----------------------------------------------

    def exp(self):
        def bw(out):
            self._accumulate(out.grad * out.data)

        return Tensor(np.exp(self.data), parents=(self,), backward=bw)

    def log(self):
        def bw(out):
            self._accumulate(out.grad / self.data)

        return Tensor(np.log(self.data), parents=(self,), backward=bw)

    def clip_min(self, floor: float):
        """max(x, floor); zero gradient where the floor is active."""

        def bw(out):
            self._accumulate(out.grad * (self.data > floor))

        return Tensor(np.maximum(self.data, floor), parents=(self,), backward=bw)

    # -- backward -----------------------------------------------------------

    def backward(self):
        """Gradients of this scalar w.r.t. every node that requires one.

        Only such nodes are walked: no other node records parents. Each
        node's contributions are summed in reverse topological order of its
        consumers; a leaf the scalar does not reach keeps `grad` None.
        """
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
            t.grad = None
        self.grad = np.ones_like(self.data)
        for t in reversed(topo):
            if t._backward is not None:
                t._backward(t)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)
