import numpy as np
import pytest

from helpers import BAD_LABELS, model_state, named, random_stats, small_model, states_equal
from tta_align import data, losses, network
from tta_align.adapt import AdamState, TtaConfig, adam_step, adapt_stream
from tta_align.config import (
    METHODS,
    NO_LOSS_METHODS,
    ExperimentConfig,
    read,
)
from tta_align.errors import (
    ConfigInvalid,
    DimensionMismatch,
    NonFiniteInput,
    NonFiniteLoss,
)
from tta_align.experiment import pretrain_source, read_run_record, write_run_records
from tta_align.network import StatMode


def make_batches(rng, n_batches=6, batch_size=16, input_dim=6, n_classes=3, loc=0.0):
    batches = []
    for _ in range(n_batches):
        x = rng.normal(loc=loc, size=(batch_size, input_dim))
        y = rng.integers(0, n_classes, size=batch_size)
        batches.append((x, y))
    return batches


class TestAdam:
    def test_zero_gradient_no_op(self):
        p = np.array([1.0, -2.0])
        state = AdamState()
        adam_step(p, np.zeros(2), state, lr=0.1)
        assert np.array_equal(p, [1.0, -2.0])
        assert state.t == 1

    def test_first_step_is_signed_lr(self):
        p = np.array([0.0])
        adam_step(p, np.array([3.7]), AdamState(), lr=0.01)
        # bias correction makes the first update -lr * g/|g| up to eps
        assert p[0] == pytest.approx(-0.01, rel=1e-6)

    def test_five_step_hand_trace(self):
        # scalar quadratic f(p) = p^2, traced with explicit plain-float Adam
        # at the shared constants
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        p_ref, m, v = 1.0, 0.0, 0.0
        trace = []
        for t in range(1, 6):
            g = 2.0 * p_ref
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            p_ref -= lr * m_hat / (np.sqrt(v_hat) + eps)
            trace.append(p_ref)

        p = np.array([1.0])
        state = AdamState()
        for t in range(5):
            adam_step(p, 2.0 * p, state, lr)
            assert p[0] == pytest.approx(trace[t], rel=1e-12)
        assert state.t == 5

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            adam_step(np.zeros(2), np.zeros(3), AdamState(), 0.1)

    def test_flat_update_matches_per_array_update(self):
        # reference: one Adam update per parameter array, each op on that
        # array alone, against one update of the buffer the arrays view
        def per_array_step(params, grads, m, v, t, lr, beta1, beta2, eps):
            for name, g in grads.items():
                m[name] = beta1 * m[name] + (1 - beta1) * g
                v[name] = beta2 * v[name] + (1 - beta2) * g * g
                m_hat = m[name] / (1 - beta1**t)
                v_hat = v[name] / (1 - beta2**t)
                params[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)

        rng = np.random.default_rng(3)
        model = small_model(rng)
        params = named(model, model.flat)
        ref = {k: p.copy() for k, p in params.items()}
        m = {k: np.zeros(p.shape) for k, p in params.items()}
        v = {k: np.zeros(p.shape) for k, p in params.items()}
        state = AdamState()
        for t in range(1, 6):
            grad = rng.normal(size=model.flat.size)
            grads = {k: g.copy() for k, g in named(model, grad).items()}
            adam_step(model.flat, grad, state, 0.05)
            per_array_step(ref, grads, m, v, t, 0.05, 0.9, 0.999, 1e-8)
            for k in params:
                assert params[k].tobytes() == ref[k].tobytes()

    def test_size_differs_from_state(self):
        # the moments belong to one slice: a step on a slice of another size
        # is refused, whichever way it differs
        state = AdamState()
        adam_step(np.zeros(2), np.ones(2), state, 0.1)
        with pytest.raises(DimensionMismatch):
            adam_step(np.zeros(3), np.ones(3), state, 0.1)
        with pytest.raises(DimensionMismatch):
            adam_step(np.zeros(1), np.ones(1), state, 0.1)


class TestTtaConfig:
    def test_baselines_require_zero_steps(self):
        with pytest.raises(ConfigInvalid):
            TtaConfig(method="source", steps_per_batch=1).validate()
        with pytest.raises(ConfigInvalid):
            TtaConfig(method="bn", steps_per_batch=2).validate()
        TtaConfig(method="bn", steps_per_batch=0).validate()

    def test_optimizing_methods_need_steps(self):
        with pytest.raises(ConfigInvalid):
            TtaConfig(method="cafa", steps_per_batch=0).validate()

    def test_unknown_method(self):
        with pytest.raises(ConfigInvalid):
            TtaConfig(method="tent").validate()

    def test_dict_round_trip(self):
        cfg = TtaConfig(
            method="cafa",
            name="cafa_fast",
            param_group="feature_full",
            steps_per_batch=3,
            learning_rate=5e-4,
        )
        again = read(TtaConfig, cfg.to_dict(), "methods[]")
        assert again == cfg
        assert again.run_name == "cafa_fast"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigInvalid):
            read(TtaConfig, {"method": "cafa", "momentum": 0.9}, "methods[]")
        # the loop draws no random numbers, so a seed would select nothing
        with pytest.raises(ConfigInvalid):
            read(TtaConfig, {"method": "cafa", "seed": 0}, "methods[]")


    @pytest.mark.parametrize("method", [*METHODS, "tent"])
    def test_method_name_selects_the_loss(self, method):
        # the config's method names are the only loss vocabulary: every
        # optimizing method has a loss, a loss-free or unknown name has none,
        # and a loss that reads the source statistics refuses to run without
        assert set(losses.FEATURE_LOSSES) <= set(METHODS)
        rng = np.random.default_rng(12)
        model = small_model(rng)
        stats = random_stats(rng, 3, 5)
        batches = make_batches(rng, n_batches=2)
        feats, logits, _ = network.forward_features(model, batches[0][0], StatMode.BATCH_ONLY)
        if method not in METHODS or method in NO_LOSS_METHODS:
            with pytest.raises(ConfigInvalid, match="has no loss"):
                losses.loss_tensor(method, feats, logits, stats)
            return
        assert np.isfinite(losses.loss_tensor(method, feats, logits, stats)[0])
        cfg = TtaConfig(method=method, batch_size=16)
        if method in losses.FEATURE_LOSSES:
            with pytest.raises(ConfigInvalid, match="requires source statistics"):
                adapt_stream(model, None, batches, cfg)
        else:
            _, record = adapt_stream(model, None, batches, cfg)
            for r in record.rows:
                assert np.isfinite(r.loss) and np.isnan([r.mean_intra, r.mean_inter]).all()


class TestBaselineRuns:
    def test_source_is_bitwise_noop(self):
        rng = np.random.default_rng(0)
        model = small_model(rng)
        stats = random_stats(rng, 3, 5)
        before = model_state(model)
        _, record = adapt_stream(
            model,
            stats,
            make_batches(rng),
            TtaConfig(method="source", steps_per_batch=0, batch_size=16),
        )
        assert states_equal(before, model_state(model))
        assert len(record.rows) == 6

    def test_bn_keeps_parameters_but_changes_predictions(self):
        rng = np.random.default_rng(1)
        model = small_model(rng)
        stats = random_stats(rng, 3, 5)
        batches = make_batches(rng, loc=3.0)  # shifted vs unit running stats
        before = model_state(model)
        _, rec_bn = adapt_stream(
            model.copy(),
            stats,
            batches,
            TtaConfig(method="bn", steps_per_batch=0, batch_size=16),
        )
        model_bn = model.copy()
        _, _ = adapt_stream(
            model_bn,
            stats,
            batches,
            TtaConfig(method="bn", steps_per_batch=0, batch_size=16),
        )
        assert states_equal(before, model_state(model_bn))
        preds_src = np.concatenate(
            [network.predict(model, x, StatMode.RUNNING_EVAL) for x, _ in batches]
        )
        preds_bn = np.concatenate(
            [network.predict(model, x, StatMode.BATCH_ONLY) for x, _ in batches]
        )
        assert not np.array_equal(preds_src, preds_bn)
        accs = [
            float(np.mean(network.predict(model, x, StatMode.BATCH_ONLY) == y))
            for x, y in batches
        ]
        np.testing.assert_array_equal(rec_bn.accuracies(), accs)


class TestOnlineProtocol:
    def test_param_group_containment_bn_only(self):
        rng = np.random.default_rng(2)
        model = small_model(rng)
        stats = random_stats(rng, 3, 5)
        before = model_state(model)
        adapt_stream(
            model, stats, make_batches(rng), TtaConfig(method="cafa", batch_size=16)
        )
        after = model_state(model)
        frozen = [k for k in before if "bn.gamma" not in k and "bn.beta" not in k]
        assert states_equal(before, after, frozen)
        assert not states_equal(before, after)  # BN affine params did move

    def test_classifier_frozen_under_feature_full(self):
        rng = np.random.default_rng(3)
        model = small_model(rng)
        stats = random_stats(rng, 3, 5)
        before = model_state(model)
        adapt_stream(
            model,
            stats,
            make_batches(rng),
            TtaConfig(method="cafa", param_group="feature_full", batch_size=16),
        )
        after = model_state(model)
        assert states_equal(before, after, ["classifier.weight", "classifier.bias"])
        assert not np.array_equal(
            before["block0.dense.weight"], after["block0.dense.weight"]
        )

    def test_prediction_before_update_by_replay(self):
        # cafa and intra report from their step-1 loss's class kernel,
        # entropy from class moments: each must equal a standalone report
        # on the replayed features, handed the replayed kernel where the
        # loss built one
        rng = np.random.default_rng(4)
        model = small_model(rng)
        stats = random_stats(rng, 3, 5)
        batches = make_batches(rng)
        for method in ("cafa", "intra", "entropy"):
            cfg = TtaConfig(method=method, steps_per_batch=2, batch_size=16)
            _, record = adapt_stream(model.copy(), stats, batches, cfg)
            # batch i's recorded accuracy and distance report must come from
            # the model adapted on < i
            for i in range(len(batches)):
                prefix_model = model.copy()
                adapt_stream(prefix_model, stats, batches[:i], cfg)
                x, y = batches[i]
                preds = network.predict(prefix_model, x, StatMode.BATCH_ONLY)
                assert record.rows[i].accuracy == float(np.mean(preds == y))
                feats = network.forward_features(prefix_model, x, StatMode.BATCH_ONLY).feats
                quads = None if method == "entropy" else losses._class_quadratics(feats, stats)[0]
                report = losses.distance_report(feats, y, stats, quads)
                assert record.rows[i].mean_intra == report.mean_intra
                assert record.rows[i].mean_inter == report.mean_inter

    @pytest.mark.parametrize(
        "method, steps, sweeps_per_batch",
        [
            ("cafa", 1, 1),
            ("cafa", 3, 3),
            ("intra", 2, 2),
            ("pl", 2, 1),
            ("entropy", 1, 1),
            ("global_fa", 2, 1),
            ("source", 0, 1),
            ("bn", 0, 1),
        ],
    )
    def test_one_class_kernel_per_step(self, monkeypatch, method, steps, sweeps_per_batch):
        # a kernel loss builds one class kernel per step and the report
        # reads the step-1 one; any other batch builds no kernel at all and
        # reports from class moments: one class sweep per step or report
        rng = np.random.default_rng(10)
        model = small_model(rng)
        stats = random_stats(rng, 3, 5)
        calls = {"_class_quadratics": [], "_moment_sums": []}

        def counting(name):
            original = getattr(losses, name)

            def wrapped(*args, **kwargs):
                calls[name].append(1)
                return original(*args, **kwargs)

            return wrapped

        for name in calls:
            monkeypatch.setattr(losses, name, counting(name))
        adapt_stream(
            model,
            stats,
            make_batches(rng, n_batches=4),
            TtaConfig(method=method, steps_per_batch=steps, batch_size=16),
        )
        kernel_loss = method in ("cafa", "intra")
        assert len(calls["_class_quadratics"]) == 4 * (steps if kernel_loss else 0)
        assert len(calls["_moment_sums"]) == 4 * (0 if kernel_loss else 1)
        assert sum(map(len, calls.values())) == 4 * sweeps_per_batch

    def test_each_step_executes_once(self, monkeypatch):
        rng = np.random.default_rng(5)
        model = small_model(rng)
        stats = random_stats(rng, 3, 5)
        calls = []
        original = network.loss_and_grad_named

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(network, "loss_and_grad_named", counting)
        adapt_stream(
            model,
            stats,
            make_batches(rng, n_batches=4),
            TtaConfig(method="entropy", steps_per_batch=3, batch_size=16),
        )
        assert len(calls) == 4 * 3

    @pytest.mark.parametrize(
        "method, steps", [("source", 0), ("bn", 0), ("entropy", 1), ("cafa", 2), ("pl", 3)]
    )
    def test_one_forward_graph_per_step(self, monkeypatch, method, steps):
        # an optimizing batch reads its prediction from the step-1 forward;
        # a loss-free batch builds its single forward
        rng = np.random.default_rng(9)
        model = small_model(rng)
        stats = random_stats(rng, 3, 5)
        calls = []
        original = network._forward

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(network, "_forward", counting)
        adapt_stream(
            model,
            stats,
            make_batches(rng, n_batches=4),
            TtaConfig(method=method, steps_per_batch=steps, batch_size=16),
        )
        assert len(calls) == 4 * max(steps, 1)

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(6)
        model = small_model(rng)
        stats = random_stats(rng, 3, 5)
        batches = make_batches(rng)
        cfg = TtaConfig(method="cafa", steps_per_batch=2, batch_size=16)
        _, rec_a = adapt_stream(model.copy(), stats, batches, cfg)
        _, rec_b = adapt_stream(model.copy(), stats, batches, cfg)
        for a, b in zip(rec_a.rows, rec_b.rows):
            assert (a.accuracy, a.loss, a.mean_intra, a.mean_inter) == (
                b.accuracy,
                b.loss,
                b.mean_intra,
                b.mean_inter,
            )

    def test_losses_never_read_true_labels(self):
        rng = np.random.default_rng(7)
        stats = random_stats(rng, 3, 5)
        batches = make_batches(rng)
        scrambled = [(x, np.roll(y, 1)) for x, y in batches]
        for method in ("pl", "entropy", "global_fa", "intra", "cafa"):
            model_a = small_model(np.random.default_rng(8))
            model_b = small_model(np.random.default_rng(8))
            cfg = TtaConfig(method=method, batch_size=16)
            _, rec_a = adapt_stream(model_a, stats, batches, cfg)
            _, rec_b = adapt_stream(model_b, stats, scrambled, cfg)
            assert states_equal(model_state(model_a), model_state(model_b))
            assert [r.loss for r in rec_a.rows] == [r.loss for r in rec_b.rows]

    def test_non_finite_loss_carries_partial_record(self):
        rng = np.random.default_rng(9)
        model = small_model(rng)
        stats = random_stats(rng, 3, 5)
        cfg = TtaConfig(method="global_fa", learning_rate=1e150, batch_size=16)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteLoss) as excinfo:
                adapt_stream(model, stats, make_batches(rng), cfg)
        assert excinfo.value.record is not None
        assert len(excinfo.value.record.rows) >= 1

    @pytest.mark.parametrize(
        "method", [m for m in METHODS if m not in losses.FEATURE_LOSSES]
    )
    @pytest.mark.parametrize("kind", BAD_LABELS)
    def test_labels_that_are_not_class_indices_are_refused(self, method, kind):
        # with no statistics there is no distance report, so the accuracy
        # is the only reader of the labels
        rng = np.random.default_rng(12)
        (x, y), = make_batches(rng, n_batches=1, batch_size=8)
        steps = 0 if method in NO_LOSS_METHODS else 1
        cfg = TtaConfig(method=method, steps_per_batch=steps, batch_size=8)
        bad, error = BAD_LABELS[kind]
        with pytest.raises(error):
            adapt_stream(small_model(rng), None, [(x, bad(y))], cfg)

    @pytest.mark.parametrize("method", ["bn", "cafa"])
    @pytest.mark.parametrize("n_classes, feature_dim", [(4, 5), (3, 4)])
    def test_stats_of_another_model_refused_before_the_first_batch(
        self, method, n_classes, feature_dim
    ):
        # a 3-class model with 4-class stats used to record a cafa loss and
        # distances; the refusal comes before a batch is drawn
        rng = np.random.default_rng(13)
        model = small_model(rng)  # 3 classes, 5 features
        stats = random_stats(rng, n_classes, feature_dim)

        def untouched():
            raise AssertionError("a batch was drawn")
            yield

        steps = 0 if method in NO_LOSS_METHODS else 1
        cfg = TtaConfig(method=method, steps_per_batch=steps, batch_size=16)
        with pytest.raises(DimensionMismatch, match="vs model n_classes 3, feature_dim 5"):
            adapt_stream(model, stats, untouched(), cfg)

    def test_non_finite_input_rejected(self):
        # one NaN row poisons the batch statistics: every logit turns NaN,
        # argmax answers class 0 and an all-zero-label batch would score 1.0
        rng = np.random.default_rng(11)
        model = small_model(rng)
        x = rng.normal(size=(16, 6))
        x[3, 2] = np.nan
        cfg = TtaConfig(method="bn", steps_per_batch=0, batch_size=16)
        with pytest.raises(NonFiniteInput):
            adapt_stream(model, None, [(x, np.zeros(16, dtype=np.int64))], cfg)
        with pytest.raises(NonFiniteInput):
            network.predict(model, x, StatMode.BATCH_ONLY)


class TestRunRecordIo:
    def test_csv_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(10)
        model = small_model(rng)
        stats = random_stats(rng, 3, 5)
        cfg = TtaConfig(method="cafa", batch_size=16)
        _, record = adapt_stream(model, stats, make_batches(rng, n_batches=3), cfg)
        write_run_records([record], str(tmp_path))
        rows = read_run_record(str(tmp_path), "cafa").rows
        assert len(rows) == 3
        for a, b in zip(record.rows, rows):
            assert a.batch_index == b.batch_index
            assert a.accuracy == b.accuracy
            assert a.loss == b.loss
            assert a.mean_intra == b.mean_intra
            assert a.mean_inter == b.mean_inter
        header = (tmp_path / "run_cafa.json").read_text()
        assert '"method": "cafa"' in header


def test_second_half_improves_on_shifted_mixture():
    # seeded end-to-end run: the adapted half of the stream beats the first
    cfg = ExperimentConfig.default(seed=3)
    cfg.shift = data.ShiftSpec(
        transforms=[
            data.ShiftTransform(kind="mean_shift", direction=[1.0] * 8),
            data.ShiftTransform(kind="gaussian_noise"),
        ],
        severity=5,
    )
    pre = pretrain_source(cfg)
    shifted = data.generate_dataset(cfg.synthetic, shift=cfg.shift)
    mcfg = TtaConfig(method="cafa", steps_per_batch=2)
    batches = data.batch_stream(shifted.target_x, shifted.target_y, mcfg.batch_size)
    _, record = adapt_stream(pre.model.copy(), pre.stats, batches, mcfg)
    acc = record.accuracies()
    half = len(acc) // 2
    assert float(np.mean(acc[half:])) > float(np.mean(acc[:half]))
