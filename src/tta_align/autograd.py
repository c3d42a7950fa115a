"""The reverse-mode tape over fused float64 nodes.

There are no generic ops: every node is one computation with a hand-written,
closed-form backward. They are the dense -> BN -> relu blocks and the
classifier head (`network._block`, `network._head`) and each loss
(`losses.loss_tensor`). Scalar-output backward only.

Gradient need flows from the leaves: a leaf asks for a gradient with
`requires_grad=True`, and a node requires one only if a parent does. A node
that needs none records no parents and no closure, so a forward that names
no gradient leaf builds no graph at all. Each backward closure is handed its
output node instead of capturing it, so a graph holds no reference cycle and
is freed as soon as the loss is dropped.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad=False, *, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        parents = [p for p in parents if p.requires_grad]
        self.requires_grad = requires_grad or bool(parents)
        self._parents = parents
        self._backward = backward if parents else None

    def _accumulate(self, g) -> None:
        """Add one gradient contribution; the first one allocates `grad`."""
        if self.grad is None:
            # a fresh array holding what a sum onto zeros holds (-0.0 -> +0.0)
            self.grad = g + 0.0
        else:
            self.grad += g

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
