"""One optimizing step, bit for bit against the plain-expression oracle of
`helpers`: `network.loss_and_grad_named` then `adapt.adam_step` give the
oracle's loss value, gradient, updated buffer and running statistics, for
every adaptation loss, statistic mode and parameter group, at the default
shape and at the wide one."""

import numpy as np
import pytest

from helpers import oracle_adam, oracle_backward, oracle_forward, oracle_loss, random_stats
from tta_align import adapt, network
from tta_align.config import PARAM_GROUPS
from tta_align.network import StatMode

# (input dim, hidden widths, classes, batch rows): the default scenario,
# and the wide one, whose block 0 is 128 x 128 at a batch of 128
SHAPES = {"default": (8, [32, 16], 3, 64), "wide": (16, [128, 64], 10, 128)}
METHODS = ("pl", "entropy", "global_fa", "intra", "cafa")
STEPS = 2  # the second step runs on the first's moments, as cafa's do


def model_and_batch(shape: str, seed: int):
    input_dim, hidden, n_classes, n = SHAPES[shape]
    rng = np.random.default_rng(seed)
    model = network.init_model(input_dim, hidden, n_classes, rng)
    for blk in model.blocks:  # running statistics away from their start
        blk.bn.running_mean[...] = rng.normal(0.0, 0.5, size=blk.bn.running_mean.shape)
        blk.bn.running_var[...] = rng.uniform(0.5, 2.0, size=blk.bn.running_var.shape)
    stats = random_stats(rng, n_classes, hidden[-1])
    return model, rng.normal(size=(n, input_dim)), stats


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("group", [*PARAM_GROUPS, None])
@pytest.mark.parametrize("mode", list(StatMode))
@pytest.mark.parametrize("method", METHODS)
def test_step_matches_oracle_bitwise(shape, group, mode, method):
    model, x, stats = model_and_batch(shape, seed=METHODS.index(method))
    size = model.group_size(group)
    state = adapt.AdamState()
    m = v = np.zeros(size)
    for t in range(1, STEPS + 1):
        feats, logits, caches, running = oracle_forward(model, x, mode)
        value, g, at_logits = oracle_loss(method, feats, logits, stats)
        grad = oracle_backward(model, caches, mode, g, at_logits, size)
        params, m, v = oracle_adam(model.flat[:size], grad, m, v, t, 1e-3)

        got_value, got_grad, forward = network.loss_and_grad_named(
            model, x, mode, group, method, stats
        )
        adapt.adam_step(model.flat[:size], got_grad, state, 1e-3)

        assert np.float64(got_value).tobytes() == np.float64(value).tobytes(), t
        assert got_grad.tobytes() == grad.tobytes(), t
        assert forward.feats.tobytes() == feats.tobytes(), t
        assert forward.logits.tobytes() == logits.tobytes(), t
        assert model.flat[:size].tobytes() == params.tobytes(), t
        assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes(), t
        for blk, (mean, var) in zip(model.blocks, running):
            assert blk.bn.running_mean.tobytes() == mean.tobytes(), t
            assert blk.bn.running_var.tobytes() == var.tobytes(), t
