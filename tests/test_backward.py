"""The fixed chain's backward (blocks -> head -> loss), the loss builders'
gradients it starts from, and the loss handle `Tensor`."""

import numpy as np
import pytest

from helpers import (
    chain_grad,
    fd_grad,
    loss_grad,
    model_state,
    named,
    random_stats,
    small_model,
    states_equal,
)
from tta_align import losses, network
from tta_align.autograd import Tensor
from tta_align.losses import RATIO_FLOOR
from tta_align.network import StatMode


def cube(at_logits):
    """sum(out**3) of the logits (`at_logits`) or the features, as a
    function of one forward: a smooth scalar to difference the chain through,
    even where a relu has its kink. A sum, not a mean, so its gradient
    3 out**2 carries no 1/N."""

    def fn(forward):
        out = forward.logits if at_logits else forward.feats
        return float((out**3).sum()), 3.0 * out**2, at_logits

    return fn


def check_cube_grad(seed, at_logits, group, modes=tuple(StatMode), name=None):
    """The chain's gradient of `cube` against central differences over
    `group`'s prefix of the buffer (or its parameter `name` alone), in every
    mode of `modes`."""
    for mode in modes:
        rng = np.random.default_rng(seed)
        model = small_model(rng, input_dim=4, hidden_dims=(5, 3), n_classes=3)
        for blk in model.blocks:
            blk.bn.running_mean[:] = rng.normal(size=blk.bn.gamma.size)
            blk.bn.running_var[:] = 0.5 + rng.random(blk.bn.gamma.size)
        x = rng.normal(size=(6, 4))
        _, analytic = chain_grad(model, x, mode, cube(at_logits), group)
        fd = fd_grad(model, x, mode, cube(at_logits), group, h=1e-6)
        if name is not None:
            analytic, fd = named(model, analytic)[name], named(model, fd)[name]
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-6)


class TestForwardValues:
    def test_head_logits_match_prediction(self):
        # the head's logits are h W^T + b, bit for bit what a cache-free
        # forward (and so prediction) reads
        rng = np.random.default_rng(0)
        model = small_model(rng)
        x = rng.normal(size=(7, 6))
        feats, logits, _ = network._forward(model, x, StatMode.BATCH_ONLY, [])
        clf = model.classifier
        assert np.array_equal(logits, feats @ clf.weight.T + clf.bias)
        assert np.array_equal(
            logits, network.forward_features(model, x, StatMode.BATCH_ONLY).logits
        )

    def test_step_builds_one_scalar_loss_handle(self, monkeypatch):
        # one step builds one handle: its data is the scalar loss, and its
        # backward returns the flat gradient of the step's group
        rng = np.random.default_rng(1)
        model = small_model(rng)
        handles = []
        init = Tensor.__init__

        def spy(self, data, backward):
            handles.append(self)
            init(self, data, backward)

        monkeypatch.setattr(Tensor, "__init__", spy)
        value, grad, _ = network.loss_and_grad_named(
            model, rng.normal(size=(8, 6)), StatMode.BATCH_ONLY, "bn_only", "entropy"
        )
        assert len(handles) == 1
        assert handles[0].data.shape == () and float(handles[0].data) == value
        assert grad.shape == (model.group_size("bn_only"),)


class TestGradients:
    def test_logit_gradient_reaches_the_blocks(self):
        # dh = g W: the head carries a logits gradient into the blocks, and
        # each block's dh into the block below
        check_cube_grad(3, True, "feature_full")

    def test_classifier_weight_gradient(self):
        # the weight enters transposed: dW = g^T h
        check_cube_grad(4, True, None, name="classifier.weight")

    def test_classifier_bias_gradient(self):
        # the bias row is broadcast: db = sum(g)
        check_cube_grad(5, True, None, name="classifier.bias")

    def test_global_fa_rows_sum_to_the_mean_gap_gradient(self):
        # global_fa centers on the broadcast batch mean. Shifting every row
        # moves the mean only, so the gradient's rows sum to the mean gap's
        # gradient 2 (mu_t - mu_s)
        rng = np.random.default_rng(6)
        stats = random_stats(rng, 3, 4)
        x = rng.normal(size=(9, 4))
        _, g = loss_grad("global_fa", x, stats)
        np.testing.assert_allclose(
            g.sum(axis=0), 2.0 * (x.mean(axis=0) - stats.global_mu), rtol=1e-9, atol=1e-12
        )

    def test_every_loss_is_a_batch_mean(self):
        # every loss is a mean over the batch: the batch stacked twice has
        # the same loss, and each row gets half its gradient
        rng = np.random.default_rng(7)
        stats = random_stats(rng, 4, 4)
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 4, size=8)
        x2, y2 = np.concatenate([x, x]), np.concatenate([y, y])
        for method in ("global_fa", "intra", "cafa", "entropy", "pl"):
            v1, g1 = loss_grad(method, x, stats, y)
            v2, g2 = loss_grad(method, x2, stats, y2)
            assert v2 == pytest.approx(v1, rel=1e-12)
            np.testing.assert_allclose(g2, 0.5 * np.concatenate([g1, g1]), rtol=1e-9, atol=1e-14)

    def test_extreme_logits_give_exact_values(self):
        # the log-sum-exp is shifted by the row maximum, so logits far
        # outside exp's range give exact values: a softmax that is one-hot
        # has zero entropy and zero entropy gradient, and the cross-entropy
        # gradient is softmax - one-hot over N
        z = np.array([[1000.0, 0.0, -1000.0], [-800.0, 800.0, 0.0]])
        value, g = loss_grad("pl", z, labels=np.array([1, 1]))
        assert value == 500.0
        assert np.array_equal(g, [[0.5, -0.5, 0.0], [0.0, 0.0, 0.0]])
        value, g = loss_grad("entropy", z)
        assert value == 0.0
        assert np.array_equal(g, np.zeros_like(z))

    def test_intra_form_at_ratio_floor_adds_no_gradient(self):
        # a sample within 1e-8 of its class mean has its intra form clamped
        # at RATIO_FLOOR: that term adds nothing to the gradient (unclamped,
        # it would be about 2 P (x - mu) / intra, some 1e8), so only the
        # denominator's -2 sum_c P_c (x - mu_c) / (N denom) is left
        rng = np.random.default_rng(8)
        stats = random_stats(rng, 3, 4)
        x = rng.normal(size=(5, 4))
        x[0] = stats.class_mus[0] + 1e-8 * rng.normal(size=4)
        labels = np.array([0, 1, 2, 0, 1])
        _, g = loss_grad("cafa", x, stats, labels)
        quads, pd = losses._class_quadratics(x, stats)
        assert quads[0, 0] < RATIO_FLOOR
        denom_only = -2.0 * pd[:, 0].sum(axis=0) / (5 * quads[:, 0].sum())
        np.testing.assert_allclose(g[0], denom_only, rtol=1e-10)

    def test_batch_statistic_paths_cancel_bias_gradient(self):
        # with batch statistics, z reaches x_hat directly and through the
        # batch mean and variance, and the backward sums the three paths.
        # The batch mean absorbs any dense bias, so the loss does not depend
        # on one: the paths cancel to a zero bias gradient. With running
        # statistics the bias moves the loss, and its gradient is not zero.
        rng = np.random.default_rng(9)
        model = small_model(rng, input_dim=4, hidden_dims=(5, 3))
        x = rng.normal(size=(6, 4))
        for mode in StatMode:
            _, grad = chain_grad(model.copy(), x, mode, cube(True), "feature_full")
            scale = np.max(np.abs(grad))
            db = np.concatenate([named(model, grad)[f"block{i}.dense.bias"] for i in range(2)])
            if mode is StatMode.RUNNING_EVAL:
                assert np.max(np.abs(db)) > 1e-3 * scale
            else:
                assert np.max(np.abs(db)) < 1e-12 * scale
        check_cube_grad(9, True, "feature_full", modes=(StatMode.BATCH_ONLY,))

    def test_step_leaves_batch_and_model_unchanged(self):
        # the batch, the running statistics and the parameters are read by
        # the backward, never written: a step outside TRAIN_UPDATE leaves
        # the batch and the whole model bit for bit as they were
        rng = np.random.default_rng(10)
        model = small_model(rng)
        stats = random_stats(rng, 3, 5)
        x = rng.normal(size=(8, 6))
        x_before, before = x.copy(), model_state(model)
        for mode in (StatMode.BATCH_ONLY, StatMode.RUNNING_EVAL):
            for group in ("bn_only", "feature_full", None):
                network.loss_and_grad_named(model, x, mode, group, "cafa", stats)
                network.loss_and_grad_named(model, x, mode, group, "pl")
        assert np.array_equal(x, x_before)
        assert states_equal(before, model_state(model))


class TestStepCaches:
    """What one step keeps between its forward and its backward: a cache per
    block, and nothing at all when no gradient is taken."""

    def test_blocks_cache_only_when_handed_a_list(self, monkeypatch):
        # with a cache list, each block records (input, x_hat, std, output),
        # its input the previous block's output and the last output the
        # features; without one, no block is handed a list
        rng = np.random.default_rng(11)
        model = small_model(rng)
        x = rng.normal(size=(8, 6))
        caches = []
        forward = network._forward(model, x, StatMode.BATCH_ONLY, caches)
        assert len(caches) == len(model.blocks)
        assert caches[0][0] is not None and np.array_equal(caches[0][0], x)
        assert caches[1][0] is caches[0][3]
        assert caches[-1][3] is forward.feats
        for (_, x_hat, std, y), blk in zip(caches, model.blocks):
            assert x_hat.shape == y.shape and std.shape == (blk.bn.gamma.size,)
        handed = []
        original = network._block

        def spy(h, blk, mode, block_caches):
            handed.append(block_caches)
            return original(h, blk, mode, block_caches)

        monkeypatch.setattr(network, "_block", spy)
        network._forward(model, x, StatMode.BATCH_ONLY)
        assert handed == [None, None]

    def test_gradient_spans_its_group_prefix(self):
        # a gradient holds one entry per parameter of its group and no more:
        # the BN affine parameters, then the dense layers, then (pretraining
        # only) the classifier
        rng = np.random.default_rng(12)
        model = small_model(rng)  # widths 8, 5 from 6 inputs, 3 classes
        bn = 2 * (8 + 5)
        feature = bn + (8 * 6 + 8) + (5 * 8 + 5)
        assert model.group_size("bn_only") == bn
        assert model.group_size("feature_full") == feature
        assert model.group_size(None) == model.flat.size == feature + 3 * 5 + 3
        x = rng.normal(size=(8, 6))
        for group in ("bn_only", "feature_full", None):
            _, grad, _ = network.loss_and_grad_named(
                model, x, StatMode.BATCH_ONLY, group, "pl"
            )
            assert grad.shape == (model.group_size(group),)

    def test_running_statistics_are_constants(self):
        # with running statistics the normalization's mean and variance are
        # constants, so the backward is gz = gx / std alone; it matches
        # central differences there, and in TRAIN_UPDATE, whose refresh of
        # the running statistics is a side effect and not part of the graph
        check_cube_grad(13, False, "feature_full", modes=(StatMode.RUNNING_EVAL,))
        check_cube_grad(14, True, "feature_full", modes=(StatMode.TRAIN_UPDATE,))
