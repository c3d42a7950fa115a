"""The scalar loss handle of one optimizing step.

There is no tape. The graph of every step is the same chain, blocks -> head
-> loss, so `network.loss_and_grad_named` runs that chain's backward
directly (`network._backward`). A `Tensor` is the handle it hands out for
the loss: `data` is the loss value, and `backward()` runs the chain and
returns the flat gradient of the step's parameter group.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    __slots__ = ("data", "_backward")

    def __init__(self, data, backward):
        self.data = np.asarray(data, dtype=np.float64)
        self._backward = backward

    def backward(self) -> np.ndarray:
        """The gradient of this loss w.r.t. the parameter group it was built
        for, as one flat vector in the model's buffer layout."""
        return self._backward()
