import gc
import tracemalloc
import weakref
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    fd_grad,
    key_twice,
    loss_fn,
    max_rel_error,
    model_state,
    named,
    random_stats,
    rewrite_archive,
    small_model,
    states_equal,
)
from tta_align import losses, network
from tta_align.adapt import TtaConfig, adapt_stream
from tta_align.errors import (
    BatchTooSmall,
    ConfigInvalid,
    DimensionMismatch,
    FormatVersionMismatch,
    NonFiniteLoss,
    StatsIoError,
)
from tta_align.network import (
    BN_MOMENTUM,
    BN_VAR_EPS,
    PARAM_GROUPS,
    AdaptiveModel,
    DenseLayer,
    StatMode,
)


def scalar_block(gamma=1.0, beta=0.0):
    """A d=1 single-block model with identity dense layer."""
    model = AdaptiveModel([1, 1, 1])
    bn = model.blocks[0].bn
    model.blocks[0].dense.weight[...] = 1.0
    bn.gamma[...] = gamma
    bn.beta[...] = beta
    model.classifier.weight[...] = 1.0
    return model


def loop_forward(model, x, mode):
    """Independent step-by-step scalar reimplementation of the forward pass."""
    h = [list(map(float, row)) for row in np.asarray(x, dtype=np.float64)]
    n = len(h)
    for blk in model.blocks:
        w, b = blk.dense.weight, blk.dense.bias
        out_dim, in_dim = w.shape
        pre = [[0.0] * out_dim for _ in range(n)]
        for i in range(n):
            for j in range(out_dim):
                acc = 0.0
                for k in range(in_dim):
                    acc += h[i][k] * w[j, k]
                pre[i][j] = acc + b[j]
        post = [[0.0] * out_dim for _ in range(n)]
        for j in range(out_dim):
            if mode is StatMode.RUNNING_EVAL:
                mu, var = blk.bn.running_mean[j], blk.bn.running_var[j]
            else:
                mu = sum(pre[i][j] for i in range(n)) / n
                var = sum((pre[i][j] - mu) ** 2 for i in range(n)) / n
            for i in range(n):
                z = (pre[i][j] - mu) / np.sqrt(var + BN_VAR_EPS)
                a = blk.bn.gamma[j] * z + blk.bn.beta[j]
                post[i][j] = max(a, 0.0)
        h = post
    return np.array(h)


def reference_order_block(h, blk, mode):
    """One block in the op order of the generic tape it replaced, as plain
    NumPy: `a - b` was `a + (-b)`, a mean was `sum * (1 / n)`."""
    bn = blk.bn
    z = h @ blk.dense.weight.T + blk.dense.bias
    if mode is StatMode.RUNNING_EVAL:
        xhat = (z + (-bn.running_mean)) / np.sqrt(bn.running_var + BN_VAR_EPS)
    else:
        n = z.shape[0]
        mu = z.sum(axis=0) * (1.0 / n)
        var = ((z + (-mu)) ** 2).sum(axis=0) * (1.0 / n)
        if mode is StatMode.TRAIN_UPDATE:
            m = BN_MOMENTUM
            bn.running_mean[:] = (1 - m) * bn.running_mean + m * mu
            bn.running_var[:] = (1 - m) * bn.running_var + m * var
        xhat = (z + (-mu)) / np.sqrt(var + BN_VAR_EPS)
    return np.maximum(xhat * bn.gamma + bn.beta, 0.0)


class TestForwardFeatures:
    def test_bn_affine_scalar_case(self):
        model = scalar_block(gamma=2.0, beta=3.0)
        feats = network.forward_features(
            model, np.array([[-1.0], [1.0]]), StatMode.BATCH_ONLY
        ).feats
        np.testing.assert_allclose(feats, [[1.0], [5.0]], atol=1e-4)

    def test_standardized_batch_passthrough(self):
        # rows (-1), (1) already have mean 0, var 1; BN leaves them ~unchanged
        model = scalar_block(gamma=1.0, beta=3.0)  # +3 keeps relu inactive
        feats = network.forward_features(
            model, np.array([[-1.0], [1.0]]), StatMode.BATCH_ONLY
        ).feats
        np.testing.assert_allclose(feats, [[2.0], [4.0]], atol=1e-4)

    @pytest.mark.parametrize(
        "mode", [StatMode.TRAIN_UPDATE, StatMode.BATCH_ONLY, StatMode.RUNNING_EVAL]
    )
    def test_scalar_loop_oracle(self, mode):
        rng = np.random.default_rng(3)
        model = small_model(rng, input_dim=5, hidden_dims=(6, 4))
        # make running stats non-trivial so RunningEval is a real case
        for blk in model.blocks:
            blk.bn.running_mean[:] = rng.normal(size=blk.bn.gamma.size)
            blk.bn.running_var[:] = 0.5 + rng.random(blk.bn.gamma.size)
        x = rng.normal(size=(8, 5))
        oracle = loop_forward(model, x, mode)
        feats = network.forward_features(model.copy(), x, mode).feats
        assert np.max(np.abs(feats - oracle)) < 1e-10

    def test_train_update_refreshes_running_stats(self):
        rng = np.random.default_rng(4)
        model = small_model(rng, input_dim=5, hidden_dims=(6,))
        blk = model.blocks[0]
        x = rng.normal(size=(8, 5))
        pre = x @ blk.dense.weight.T + blk.dense.bias
        mu = pre.mean(axis=0)
        var = ((pre - mu) ** 2).mean(axis=0)
        m = BN_MOMENTUM
        expected_mean = (1 - m) * blk.bn.running_mean + m * mu
        expected_var = (1 - m) * blk.bn.running_var + m * var
        network.forward_features(model, x, StatMode.TRAIN_UPDATE)
        np.testing.assert_allclose(blk.bn.running_mean, expected_mean, atol=1e-12)
        np.testing.assert_allclose(blk.bn.running_var, expected_var, atol=1e-12)

    def test_batch_only_leaves_running_stats(self):
        rng = np.random.default_rng(5)
        model = small_model(rng)
        before = model_state(model)
        network.forward_features(model, rng.normal(size=(8, 6)), StatMode.BATCH_ONLY)
        assert states_equal(before, model_state(model))

    def test_batch_shift_invariance(self):
        # batch statistics remove any constant offset shared by the batch
        rng = np.random.default_rng(6)
        model = small_model(rng)
        x = rng.normal(size=(10, 6))
        a = network.forward_features(model, x, StatMode.BATCH_ONLY).feats
        b = network.forward_features(model, x + 7.25, StatMode.BATCH_ONLY).feats
        assert np.max(np.abs(a - b)) < 1e-9

    def test_batch_too_small(self):
        rng = np.random.default_rng(7)
        model = small_model(rng)
        with pytest.raises(BatchTooSmall):
            network.forward_features(model, np.zeros((1, 6)), StatMode.BATCH_ONLY)
        # running-stat mode accepts single samples
        out = network.forward_features(model, np.zeros((1, 6)), StatMode.RUNNING_EVAL)
        assert out.feats.shape == (1, 5)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(8)
        model = small_model(rng)
        with pytest.raises(DimensionMismatch):
            network.forward_features(model, np.zeros((4, 9)), StatMode.BATCH_ONLY)
        with pytest.raises(DimensionMismatch):
            network.forward_features(model, np.zeros(6), StatMode.BATCH_ONLY)


class TestBlockForward:
    @pytest.mark.parametrize("mode", list(StatMode))
    def test_forward_bitwise_matches_reference_order(self, mode):
        rng = np.random.default_rng(28)
        model = small_model(rng, input_dim=5, hidden_dims=(7, 4))
        for blk in model.blocks:
            blk.bn.gamma[:] = 1.0 + 0.5 * rng.normal(size=blk.bn.gamma.size)
            blk.bn.beta[:] = 0.5 * rng.normal(size=blk.bn.gamma.size)
            blk.bn.running_mean[:] = rng.normal(size=blk.bn.gamma.size)
            blk.bn.running_var[:] = 0.5 + rng.random(blk.bn.gamma.size)
        before = model_state(model)
        oracle = model.copy()
        x = rng.normal(size=(9, 5))
        h = x
        for blk in oracle.blocks:
            h = reference_order_block(h, blk, mode)
        feats = network.forward_features(model, x, mode).feats
        assert feats.tobytes() == h.tobytes()
        for got, want in zip(model.blocks, oracle.blocks):
            assert got.bn.running_mean.tobytes() == want.bn.running_mean.tobytes()
            assert got.bn.running_var.tobytes() == want.bn.running_var.tobytes()
        refreshed = not states_equal(before, model_state(model))
        assert refreshed == (mode is StatMode.TRAIN_UPDATE)

    @pytest.mark.parametrize("mode", list(StatMode))
    def test_forward_peak_memory(self, mode):
        # the block works in place, so a no-grad forward never holds more
        # than two full-width arrays at once
        rng = np.random.default_rng(29)
        model = network.init_model(16, [128, 64], 10, rng)
        x = rng.normal(size=(12_800, 16))
        tracemalloc.start()
        try:
            network.forward_features(model, x, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (12_800 * 128 * 8) + 2**20


class TestRowBlocks:
    """A cache-free forward under running statistics runs `_forward` over
    blocks of EVAL_ROWS rows; each row's forward reads only that row."""

    @pytest.mark.parametrize(
        "n", [network.EVAL_ROWS - 1, network.EVAL_ROWS, 2 * network.EVAL_ROWS + 3]
    )
    def test_blocks_match_one_forward_bitwise(self, n):
        rng = np.random.default_rng(40)
        model = small_model(rng)
        for blk in model.blocks:
            blk.bn.running_mean[:] = rng.normal(size=blk.bn.gamma.size)
            blk.bn.running_var[:] = 0.5 + rng.random(blk.bn.gamma.size)
        x = rng.normal(size=(n, 6))
        whole = network._forward(model, x, StatMode.RUNNING_EVAL)
        out = network.forward_features(model, x, StatMode.RUNNING_EVAL)
        assert out.feats.tobytes() == whole.feats.tobytes()
        assert out.logits.tobytes() == whole.logits.tobytes()
        labels = network.predict(model, x, StatMode.RUNNING_EVAL)
        assert labels.tobytes() == network.argmax_rows(whole.logits).tobytes()

    def test_one_forward_per_block(self, monkeypatch):
        # running statistics split the rows; batch statistics read them all
        rng = np.random.default_rng(41)
        model = small_model(rng)
        x = rng.normal(size=(2 * network.EVAL_ROWS + 3, 6))
        rows = []
        original = network._forward

        def counting(model, x, mode, caches=None):
            rows.append(x.shape[0])
            return original(model, x, mode, caches)

        monkeypatch.setattr(network, "_forward", counting)
        network.predict(model, x, StatMode.RUNNING_EVAL)
        assert rows == [network.EVAL_ROWS, network.EVAL_ROWS, 3]
        rows.clear()
        network.forward_features(model, x, StatMode.BATCH_ONLY)
        assert rows == [x.shape[0]]

    @pytest.mark.parametrize("mode", [StatMode.RUNNING_EVAL, StatMode.BATCH_ONLY])
    @pytest.mark.parametrize("n", [8, network.EVAL_ROWS + 5])
    def test_cache_free_forward_writes_nothing_it_reads(self, mode, n):
        # the block rewrites x_hat in place, and only in buffers of its own
        rng = np.random.default_rng(42)
        model = small_model(rng)
        x = rng.normal(size=(n, 6))
        batch, state = x.tobytes(), model_state(model)
        out = network.forward_features(model, x, mode)
        network.predict(model, x, mode)
        assert x.tobytes() == batch
        for name, array in model_state(model).items():
            assert array.tobytes() == state[name].tobytes(), name
        assert not np.shares_memory(out.feats, x)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 6),
    d=st.integers(1, 4),
    mode=st.sampled_from(list(StatMode)),
)
def test_normalization_chain_property(seed, n, d, mode):
    # one block's backward in the chain checked by differences w.r.t. its
    # W, b, gamma and beta; relu(y)**3 is smooth across the kink
    rng = np.random.default_rng(seed)
    model = AdaptiveModel([3, d, 1])
    dense, bn = model.blocks[0].dense, model.blocks[0].bn
    dense.weight[...] = rng.normal(size=(d, 3))
    dense.bias[...] = rng.normal(size=d)
    bn.gamma[...] = 1.0 + 0.5 * rng.normal(size=d)
    bn.beta[...] = 0.5 * rng.normal(size=d)
    bn.running_mean[...] = rng.normal(size=d)
    bn.running_var[...] = 0.5 + rng.random(d)
    x = rng.normal(size=(n, 3))

    def cube(forward):
        return float((forward.feats**3).sum()), None, False

    caches = []
    feats = network._forward(model, x, mode, caches).feats
    size = model.group_size("feature_full")
    analytic = network._backward(model, caches, mode, 3.0 * feats**2, False, size)
    fd = fd_grad(model, x, mode, cube, "feature_full", h=1e-6)
    np.testing.assert_allclose(analytic, fd, atol=5e-5)


class TestLogitsAndPredict:
    def test_identity_classifier(self):
        rng = np.random.default_rng(9)
        model = small_model(rng, hidden_dims=(4,), n_classes=4)
        model.classifier.weight[...] = np.eye(4)
        model.classifier.bias[...] = 0.0
        out = network.forward_features(model, rng.normal(size=(5, 6)), StatMode.BATCH_ONLY)
        assert np.array_equal(out.logits, out.feats)

    def test_zero_features_give_bias(self):
        rng = np.random.default_rng(10)
        model = small_model(rng)
        model.blocks[-1].bn.gamma[:] = 0.0  # relu(0 * x_hat + 0) = 0
        model.classifier.bias[:] = [0.5, -1.0, 2.0]
        out = network.forward_features(model, rng.normal(size=(3, 6)), StatMode.BATCH_ONLY)
        assert np.array_equal(out.feats, np.zeros((3, 5)))
        assert np.array_equal(out.logits, np.tile([0.5, -1.0, 2.0], (3, 1)))

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(11)
        model = small_model(rng)
        out = network.forward_features(model, rng.normal(size=(6, 6)), StatMode.BATCH_ONLY)
        feats, logits = out.feats, out.logits
        w, b = model.classifier.weight, model.classifier.bias
        for i in range(6):
            for c in range(3):
                ref = sum(feats[i, k] * w[c, k] for k in range(5)) + b[c]
                assert abs(logits[i, c] - ref) < 1e-12

    @pytest.mark.parametrize("method", ["predict", "source", "bn"])
    def test_one_head_per_forward(self, monkeypatch, method):
        # prediction and a loss-free batch read the logits of the forward
        # that ran: one head node, no second h W^T + b
        rng = np.random.default_rng(12)
        model = small_model(rng)
        stats = random_stats(rng, 3, 5)
        x = rng.normal(size=(16, 6))
        heads = []
        original = network._head

        def counting(h, w, b):
            heads.append(h.shape[0])
            return original(h, w, b)

        monkeypatch.setattr(network, "_head", counting)
        if method == "predict":
            network.predict(model, x, StatMode.BATCH_ONLY)
        else:
            cfg = TtaConfig(method=method, steps_per_batch=0, batch_size=16)
            adapt_stream(model, stats, [(x, rng.integers(0, 3, size=16))], cfg)
        assert heads == [16]
        assert not hasattr(network, "forward_logits")

    def test_argmax_unique_max(self):
        assert network.argmax_rows(np.array([[0.1, 0.9, 0.2]]))[0] == 1

    def test_argmax_tie_breaks_low(self):
        assert network.argmax_rows(np.array([[0.5, 0.5]]))[0] == 0

    def test_argmax_oracle(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(size=(40, 5))
        got = network.argmax_rows(logits)
        for i, row in enumerate(logits):
            best = 0
            for c in range(1, 5):
                if row[c] > row[best]:
                    best = c
            assert got[i] == best

    def test_predict_monotone_invariance(self):
        rng = np.random.default_rng(14)
        model = small_model(rng)
        x = rng.normal(size=(16, 6))
        base = network.predict(model, x, StatMode.BATCH_ONLY)
        scaled = model.copy()
        # strictly increasing transform of every logit: 2*z + 1
        scaled.classifier.weight[...] *= 2.0
        scaled.classifier.bias[:] = 2.0 * model.classifier.bias + 1.0
        assert np.array_equal(base, network.predict(scaled, x, StatMode.BATCH_ONLY))


class TestGradients:
    def test_group_containment(self):
        rng = np.random.default_rng(15)
        model = small_model(rng)
        stats = random_stats(rng, 3, 5)
        x = rng.normal(size=(8, 6))
        _, g_bn, _ = network.loss_and_grad_named(
            model, x, StatMode.BATCH_ONLY, "bn_only", "cafa", stats
        )
        assert set(named(model, g_bn)) == {
            "block0.bn.gamma",
            "block0.bn.beta",
            "block1.bn.gamma",
            "block1.bn.beta",
        }
        _, g_full, _ = network.loss_and_grad_named(
            model, x, StatMode.BATCH_ONLY, "feature_full", "cafa", stats
        )
        assert set(named(model, g_bn)) < set(named(model, g_full))
        assert not any(name.startswith("classifier") for name in named(model, g_full))

    def test_bn_gradient_is_the_feature_prefix(self):
        # the BN group is the first 2 * sum(widths) entries of the buffer, so
        # its gradient is that prefix of the feature group's, bit for bit
        rng = np.random.default_rng(30)
        model = small_model(rng)
        stats = random_stats(rng, 3, 5)
        x = rng.normal(size=(8, 6))
        n_bn = 2 * sum(blk.bn.gamma.size for blk in model.blocks)
        for mode in StatMode:
            for method in ("cafa", "global_fa", "pl"):
                _, g_bn, _ = network.loss_and_grad_named(
                    model.copy(), x, mode, "bn_only", method, stats
                )
                _, g_full, _ = network.loss_and_grad_named(
                    model.copy(), x, mode, "feature_full", method, stats
                )
                assert g_bn.size == n_bn
                assert g_bn.tobytes() == g_full[:n_bn].tobytes()

    def test_caches_freed_without_cycle_collector(self, monkeypatch):
        # the chain holds no reference cycle: with the cyclic collector off,
        # every cached array dies when loss_and_grad_named returns
        rng = np.random.default_rng(24)
        model = small_model(rng)
        stats = random_stats(rng, 3, 5)
        refs = []
        backward = network._backward

        def spy(model, caches, *args):
            refs.extend(weakref.ref(a) for cache in caches for a in cache[1:])
            return backward(model, caches, *args)

        monkeypatch.setattr(network, "_backward", spy)
        gc.disable()
        try:
            x = rng.normal(size=(8, 6))
            network.loss_and_grad_named(
                model, x, StatMode.BATCH_ONLY, "bn_only", "cafa", stats
            )
            alive = sum(ref() is not None for ref in refs)
        finally:
            gc.enable()
        assert refs and alive == 0

    def test_only_loss_steps_hand_blocks_a_cache(self, monkeypatch):
        # a forward that takes no gradient (prediction, a loss-free batch,
        # the source statistics) hands no block a cache; a loss step hands
        # every block the same list
        rng = np.random.default_rng(25)
        model = small_model(rng)
        x = rng.normal(size=(8, 6))
        handed = []
        original = network._block

        def spy(h, blk, mode, caches):
            handed.append(caches)
            return original(h, blk, mode, caches)

        monkeypatch.setattr(network, "_block", spy)
        network.forward_features(model, x, StatMode.BATCH_ONLY)
        network.predict(model, x, StatMode.RUNNING_EVAL)
        assert handed == [None] * 4
        handed.clear()
        network.loss_and_grad_named(model, x, StatMode.BATCH_ONLY, "bn_only", "entropy")
        assert len(handed) == 2 and handed[0] is handed[1] and len(handed[0]) == 2

    def test_relu_mask_keeps_signed_zeros(self):
        # gy = g * (y > 0) bit for bit: where the relu is off, a negative g
        # gives -0.0 and a positive one +0.0
        y = np.array([[0.0, -0.0, 2.0], [0.0, 1e-300, -0.0]])
        g = np.array([[-1.5, -2.0, -3.0], [4.0, -5.0, 6.0]])
        gy = network._relu_grad(g, y)
        assert gy.tobytes() == (g * (y > 0.0)).tobytes()
        assert np.signbit(gy[0, :2]).all() and not np.signbit(gy[1, [0, 2]]).any()
        # and through the chain: the BN gradients of a block whose relu is
        # off for one unit and part of the rows
        rng = np.random.default_rng(32)
        model = small_model(rng, hidden_dims=(4,))
        model.blocks[0].bn.beta[:] = [-100.0, 0.0, 0.0, 0.0]
        caches = []
        x = rng.normal(size=(8, 6))
        feats = network._forward(model, x, StatMode.RUNNING_EVAL, caches).feats
        g = -0.5 - rng.random(feats.shape)
        size = model.group_size("bn_only")
        grad = network._backward(model, caches, StatMode.RUNNING_EVAL, g, False, size)
        _, x_hat, _, y = caches[0]
        assert (y == 0.0).any() and (y > 0.0).any()
        gy = g * (y > 0.0)
        want = np.concatenate([np.add.reduce(gy * x_hat, axis=0), np.add.reduce(gy, axis=0)])
        assert grad.tobytes() == want.tobytes()

    def test_unreached_named_parameter_gets_zero_grad(self):
        # the alignment loss reads features only, never the classifier: its
        # slice of a whole-buffer gradient is zero
        rng = np.random.default_rng(26)
        model = small_model(rng)
        stats = random_stats(rng, 3, 5)
        _, grad, _ = network.loss_and_grad_named(
            model, rng.normal(size=(8, 6)), StatMode.BATCH_ONLY, None, "global_fa", stats
        )
        grads = named(model, grad)
        assert set(grads) == set(named(model, model.flat))
        assert np.any(grads["block1.bn.gamma"] != 0.0)
        for name in ("classifier.weight", "classifier.bias"):
            assert np.array_equal(grads[name], np.zeros_like(named(model, model.flat)[name]))

    def test_returns_the_features_of_its_forward(self):
        rng = np.random.default_rng(27)
        model = small_model(rng)
        x = rng.normal(size=(8, 6))
        _, _, forward = network.loss_and_grad_named(
            model, x, StatMode.BATCH_ONLY, "bn_only", "entropy"
        )
        plain = network.forward_features(model, x, StatMode.BATCH_ONLY)
        assert np.array_equal(forward.feats, plain.feats)
        assert np.array_equal(forward.logits, plain.logits)
        assert forward.quads is None and plain.quads is None  # entropy reads no kernel

    @pytest.mark.parametrize("method", ["intra", "cafa"])
    def test_returns_the_class_kernel_its_loss_read(self, method):
        rng = np.random.default_rng(28)
        model = small_model(rng)
        stats = random_stats(rng, 3, 5)
        x = rng.normal(size=(8, 6))
        _, _, forward = network.loss_and_grad_named(
            model, x, StatMode.BATCH_ONLY, "bn_only", method, stats
        )
        quads, _ = losses._class_quadratics(forward.feats, stats)
        assert np.array_equal(forward.quads, quads)

    def test_constant_loss_zero_grads(self):
        # single-class ratio loss is identically zero, so all gradients vanish
        rng = np.random.default_rng(16)
        model = small_model(rng, n_classes=1)
        stats = random_stats(rng, 1, 5)
        _, grad, _ = network.loss_and_grad_named(
            model,
            rng.normal(size=(8, 6)),
            StatMode.BATCH_ONLY,
            "feature_full",
            "cafa",
            stats,
        )
        assert np.array_equal(grad, np.zeros_like(grad))

    def test_single_logit_entropy_closed_form(self):
        # with one class the softmax is the point mass, H = 0, dH/dparam = 0
        rng = np.random.default_rng(17)
        model = small_model(rng, n_classes=1)
        x = rng.normal(size=(6, 6))
        value, grad, _ = network.loss_and_grad_named(
            model, x, StatMode.BATCH_ONLY, "bn_only", "entropy"
        )
        assert value == 0.0
        np.testing.assert_allclose(grad, 0.0, atol=1e-15)

    def test_fd_supervised_ce_full_group(self):
        rng = np.random.default_rng(18)
        model = small_model(rng)
        x = rng.normal(size=(12, 6))
        y = rng.integers(0, 3, size=12)
        group = "feature_full"
        _, analytic, _ = network.loss_and_grad_named(
            model, x, StatMode.BATCH_ONLY, group, "pl", labels=y
        )
        fd = fd_grad(model, x, StatMode.BATCH_ONLY, loss_fn("pl", labels=y), group)
        assert max_rel_error(analytic, fd) < 1e-4

    def test_fd_global_fa_bn_group(self):
        rng = np.random.default_rng(19)
        model = small_model(rng)
        stats = random_stats(rng, 3, 5)
        group = "bn_only"
        x = rng.normal(size=(10, 6))
        _, analytic, _ = network.loss_and_grad_named(
            model, x, StatMode.BATCH_ONLY, group, "global_fa", stats
        )
        fd = fd_grad(model, x, StatMode.BATCH_ONLY, loss_fn("global_fa", stats), group)
        assert max_rel_error(analytic, fd) < 1e-4

    def test_non_finite_loss_raises(self):
        rng = np.random.default_rng(20)
        model = small_model(rng)
        stats = random_stats(rng, 3, 5)
        stats.global_sigma[:] = 1e200  # alignment gap overflows to inf
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteLoss):
            network.loss_and_grad_named(
                model,
                rng.normal(size=(8, 6)),
                StatMode.BATCH_ONLY,
                "bn_only",
                "global_fa",
                stats,
            )


def _put_array(name, a):
    """An arrays edit of `rewrite_archive` that puts `a` in the archive as
    `name`, in place of any array of that name, and names it in the layout
    at its shape."""

    def edit(arrays, header):
        arrays[name] = a
        layout = [entry for entry in header["layout"] if entry["name"] != name]
        header["layout"] = [*layout, {"name": name, "shape": list(a.shape)}]

    return edit


class TestCheckpoint:
    @pytest.mark.parametrize("name", ["model.npz", "model.ckpt"])
    def test_round_trip_bitwise(self, tmp_path, name):
        rng = np.random.default_rng(21)
        model = small_model(rng)
        model.blocks[0].bn.running_mean[:] = rng.normal(size=8)
        path = tmp_path / name
        network.save_checkpoint(model, str(path))
        # written to exactly the path given, whatever its suffix
        assert [p.name for p in tmp_path.iterdir()] == [name]
        loaded = network.load_checkpoint(str(path))
        assert states_equal(model_state(model), model_state(loaded))
        with np.load(path) as data:  # the momentum is BN_MOMENTUM, not an entry
            assert not [k for k in data.files if k.endswith("momentum")]

    def test_version_mismatch(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(22)
        model = small_model(rng)
        path = tmp_path / "model.npz"
        monkeypatch.setattr(network, "CHECKPOINT_VERSION", 99)
        network.save_checkpoint(model, path)
        monkeypatch.undo()
        with pytest.raises(FormatVersionMismatch):
            network.load_checkpoint(path)
        # another version is named as such before the rest of its header is
        # read, whatever keys that holds
        rewrite_archive(path, lambda header: header.update(note="v99"))
        with pytest.raises(FormatVersionMismatch):
            network.load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(StatsIoError):
            network.load_checkpoint(tmp_path / "absent.npz")

    def test_missing_key(self, tmp_path):
        path = tmp_path / "model.npz"
        network.save_checkpoint(small_model(np.random.default_rng(24)), path)
        rewrite_archive(path, edit_arrays=lambda arrays, header: arrays.pop("block1.bn.gamma"))
        with pytest.raises(StatsIoError):
            network.load_checkpoint(path)

    @pytest.mark.parametrize("damage", ["garbage_bytes", "truncated", "bare_npy", "huge_entry"])
    def test_not_an_archive(self, tmp_path, damage):
        path = tmp_path / "model.npz"
        network.save_checkpoint(small_model(np.random.default_rng(26)), path)
        if damage == "garbage_bytes":
            path.write_bytes(b"\x00garbage" * 16)
        elif damage == "truncated":
            path.write_bytes(path.read_bytes()[:-100])
        elif damage == "huge_entry":
            # an entry whose .npy header declares 8 TB, under a matching
            # CRC-32: it is allocated before a byte of it is read
            with zipfile.ZipFile(path) as archive:
                entries = {name: archive.read(name) for name in archive.namelist()}
            old, new = b"(3,), }", b"(1000000000000,), }"
            npy = entries["classifier.bias.npy"]
            entries["classifier.bias.npy"] = npy.replace(old + b" " * (len(new) - len(old)), new)
            assert entries["classifier.bias.npy"] != npy
            with zipfile.ZipFile(path, "w") as archive:
                for name, data in entries.items():
                    archive.writestr(name, data)
        else:
            np.save(path, np.zeros(3))  # an .npy file under a checkpoint name
            (tmp_path / "model.npz.npy").rename(path)
        with pytest.raises(StatsIoError):
            network.load_checkpoint(path)

    @pytest.mark.parametrize(
        "damage",
        [
            "widths_do_not_chain",
            "head_width",
            "bn_vector_length",
            "nan_weight",
            "negative_running_var",
        ],
    )
    def test_model_that_cannot_run(self, tmp_path, damage):
        # each archive holds a layout that matches its arrays
        model = small_model(np.random.default_rng(27))
        blk0, blk1 = model.blocks
        edit = None
        if damage == "widths_do_not_chain":
            w = blk1.dense.weight
            edit = _put_array("block1.dense.weight", np.zeros((w.shape[0], w.shape[1] + 1)))
        elif damage == "head_width":
            w = model.classifier.weight
            edit = _put_array("classifier.weight", np.zeros((w.shape[0], w.shape[1] - 1)))
        elif damage == "bn_vector_length":
            edit = _put_array("block0.bn.gamma", np.append(blk0.bn.gamma, 1.0))
        elif damage == "nan_weight":
            blk0.dense.weight[0, 0] = np.nan
        else:
            blk1.bn.running_var[0] = -1.0
        path = tmp_path / "model.npz"
        network.save_checkpoint(model, path)
        rewrite_archive(path, edit_arrays=edit)
        with pytest.raises(StatsIoError, match="malformed checkpoint"):
            network.load_checkpoint(path)

    def test_shape_disagrees_with_layout(self, tmp_path):
        path = tmp_path / "model.npz"
        network.save_checkpoint(small_model(np.random.default_rng(25)), path)

        def grow(arrays, header):
            arrays["block0.bn.beta"] = np.append(arrays["block0.bn.beta"], 0.0)

        rewrite_archive(path, edit_arrays=grow)
        with pytest.raises(StatsIoError):
            network.load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit_header, edit_arrays",
        [
            (lambda header: header.update(format_version=True), None),
            (lambda header: header.update(format_version=1.0), None),
            (lambda header: header.update(note="x"), None),
            # an empty layout once skipped every shape check
            (lambda header: header.update(layout=[]), None),
            (None, lambda arrays, header: arrays.update(extra=np.zeros(2))),
            # once an AttributeError traceback
            (lambda header: [header], None),
            # arrays that no model holds, each named in the layout: once
            # loaded and never read
            (None, _put_array("junk", np.zeros(2))),
            (None, _put_array("block9.dense.weight", np.zeros((6, 6)))),
            (None, _put_array("block0.bn.momentum", np.full((2, 2), BN_MOMENTUM))),
            # equal widths: once loaded as a one-block model
            (lambda header: header.update(n_blocks=1), None),
            # refused at the first missing block, before anything of that size is built
            (lambda header: header.update(n_blocks=10**12), None),
            (lambda header: header["layout"].append(header["layout"][0]), None),
            # json would keep the last of the two
            (lambda header: key_twice(header, "n_blocks"), None),
        ],
        ids=[
            "version_true",
            "version_float",
            "unknown_key",
            "empty_layout",
            "unnamed_array",
            "not_an_object",
            "junk_array",
            "array_of_a_tenth_block",
            "non_scalar_momentum",
            "n_blocks_one_short",
            "n_blocks_huge",
            "repeated_layout_entry",
            "repeated_key",
        ],
    )
    def test_header_that_does_not_describe_the_archive(self, tmp_path, edit_header, edit_arrays):
        # the header is read by the config walk, its layout names exactly
        # the archive's arrays, and those are exactly the arrays of the
        # model the header and the weights' widths give
        path = tmp_path / "model.npz"
        model = small_model(np.random.default_rng(28), hidden_dims=(6, 6))
        network.save_checkpoint(model, path)
        rewrite_archive(path, edit_header, edit_arrays)
        with pytest.raises(StatsIoError, match="malformed checkpoint"):
            network.load_checkpoint(path)

    def test_copy_is_independent(self):
        rng = np.random.default_rng(23)
        model = small_model(rng)
        clone = model.copy()
        clone.blocks[0].bn.gamma[...] += 1.0
        clone.classifier.weight[...] += 1.0
        assert not np.array_equal(
            clone.blocks[0].bn.gamma, model.blocks[0].bn.gamma
        )
        assert not np.array_equal(clone.classifier.weight, model.classifier.weight)


def _add_to_gamma(model):
    model.blocks[0].bn.gamma += 1.0  # adds in place, then binds the attribute to the sum


REBINDS = {
    "bn.gamma": lambda model: setattr(model.blocks[0].bn, "gamma", np.ones(8)),
    "dense.weight": lambda model: setattr(model.blocks[1].dense, "weight", np.ones((5, 8))),
    "running_var": lambda model: setattr(model.blocks[0].bn, "running_var", np.ones(8)),
    "block.bn": lambda model: setattr(model.blocks[0], "bn", model.blocks[1].bn),
    "classifier": lambda model: setattr(
        model, "classifier", DenseLayer(np.zeros((3, 5)), np.zeros(3))
    ),
    "classifier.weight": lambda model: setattr(model.classifier, "weight", np.zeros((3, 5))),
    "a_block": lambda model: model.blocks.__setitem__(0, model.blocks[1]),
    "flat": lambda model: setattr(model, "flat", model.flat.copy()),
    "augmented": _add_to_gamma,
}


class TestFlatBuffer:
    @pytest.mark.parametrize("rebind", REBINDS)
    def test_arrays_cannot_be_rebound(self, rebind):
        # a rebound array would no longer be the view into the buffer that
        # gradients and Adam update
        model = small_model(np.random.default_rng(30))
        flat, arrays = model.flat, model.arrays()
        with pytest.raises((AttributeError, TypeError)):
            REBINDS[rebind](model)
        assert model.flat is flat
        assert all(a is b for a, b in zip(arrays.values(), model.arrays().values()))
        assert self._own_views(model, small_model(np.random.default_rng(0)))

    @staticmethod
    def _own_views(model, other):
        trainable = [p for name, p in model.arrays().items() if "running" not in name]
        return all(
            np.shares_memory(p, model.flat) and not np.shares_memory(p, other.flat)
            for p in trainable
        )

    def test_copy_and_load_rebuild_the_views(self, tmp_path):
        # a deep copy would copy every view as an array of its own, so
        # gradients and Adam, which address the buffer, would miss them
        model = small_model(np.random.default_rng(31))
        clone = model.copy()
        assert self._own_views(clone, model)
        path = tmp_path / "model.npz"
        network.save_checkpoint(model, path)
        loaded = network.load_checkpoint(path)
        assert self._own_views(loaded, model)
        assert states_equal(model_state(model), model_state(loaded))

    @pytest.mark.parametrize("group", [*PARAM_GROUPS, "all"])
    def test_adapting_a_copy_leaves_the_source(self, group):
        rng = np.random.default_rng(32)
        model = small_model(rng)
        stats = random_stats(rng, 3, 5)
        before = model_state(model)
        flat = model.flat.copy()
        batches = [(rng.normal(size=(16, 6)), rng.integers(0, 3, size=16)) for _ in range(3)]
        if group not in PARAM_GROUPS:  # a library call names the groups, as a config does
            with pytest.raises(ConfigInvalid, match=r"must be one of PARAM_GROUPS \['bn_only'"):
                network.loss_and_grad_named(
                    model.copy(), batches[0][0], StatMode.BATCH_ONLY, group, "entropy"
                )
            return
        cfg = TtaConfig(method="cafa", steps_per_batch=2, batch_size=16, param_group=group)
        adapted, _ = adapt_stream(model.copy(), stats, batches, cfg)
        assert not states_equal(before, model_state(adapted))
        assert states_equal(before, model_state(model))
        assert model.flat.tobytes() == flat.tobytes()

    def test_loads_a_checkpoint_written_before_the_buffer(self):
        # tests/data/checkpoint_v1.npz was written by the code before the flat
        # buffer (per-array parameters); the format did not change, except
        # that its BN momentum entries, all BN_MOMENTUM, are no longer read
        path = Path(__file__).parent / "data" / "checkpoint_v1.npz"
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "__header__"}
        model = network.load_checkpoint(path)
        state = model_state(model)
        for name, arr in arrays.items():
            if name.endswith("momentum"):
                assert float(arr) == BN_MOMENTUM
            else:
                assert state[name].tobytes() == arr.tobytes() and state[name].shape == arr.shape
        assert set(state) == {k for k in arrays if not k.endswith("momentum")}
        assert self._own_views(model, small_model(np.random.default_rng(0)))
