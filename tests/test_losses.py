import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    exact_precision,
    exact_stats,
    fit_source_stats,
    gauss_jordan_inverse,
    loss_fn,
    loss_grad,
    numeric_grad,
    random_spd,
    random_stats,
    small_model,
)
from tta_align import autograd, losses, network
from tta_align.config import METHODS, NO_LOSS_METHODS
from tta_align.errors import (
    BatchTooSmall,
    DimensionMismatch,
    EmptyInput,
    NonFiniteInput,
    SingleClass,
    UnknownClass,
)
from tta_align.losses import RATIO_FLOOR, distance_report, loss_tensor, mahalanobis
from tta_align.network import PARAM_GROUPS, StatMode

LOSSES = {  # name -> (method, whether the batch labels replace the pseudo-labels)
    "global_fa": ("global_fa", False),
    "intra": ("intra", False),
    "cafa": ("cafa", False),
    "entropy": ("entropy", False),
    "pseudo_label": ("pl", False),
    "supervised": ("pl", True),
}


def loss_value(method, stats=None, feats=None, logits=None, labels=None) -> float:
    """A loss as a plain number, built by `loss_tensor` (`labels`, when
    given, in place of the pseudo-labels)."""
    return float(loss_fn(method, stats, labels)(network.Forward(feats, logits))[0])


def class_quadratics(batch, stats) -> np.ndarray:
    """The batched class kernel as plain numbers, C x N."""
    return losses._class_quadratics(np.atleast_2d(batch), stats)[0]


def form(x, stats, c) -> float:
    """The per-vector Mahalanobis form of `x` to class `c` of `stats`."""
    return mahalanobis(x, stats.class_mus[c], stats.class_precisions[c])


def report_one(x, label, stats):
    return distance_report(np.atleast_2d(x), np.array([label]), stats)


class TestMahalanobis:
    def test_zero_displacement(self):
        rng = np.random.default_rng(0)
        mu = rng.normal(size=3)
        assert abs(mahalanobis(mu, mu, exact_precision(random_spd(rng, 3)))) <= 1e-12

    def test_euclidean_case(self):
        value = mahalanobis(np.array([3.0, 4.0]), np.zeros(2), np.eye(2))
        assert value == pytest.approx(25.0, abs=1e-12)

    def test_gauss_jordan_oracle(self):
        rng = np.random.default_rng(1)
        for d in (2, 3, 6):
            mu = rng.normal(size=d)
            sigma = random_spd(rng, d)
            x = rng.normal(size=d)
            ref = float((x - mu) @ gauss_jordan_inverse(sigma) @ (x - mu))
            assert mahalanobis(x, mu, exact_precision(sigma)) == pytest.approx(ref, rel=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        mu, precision = rng.normal(size=4), exact_precision(random_spd(rng, 4))
        for _ in range(50):
            assert mahalanobis(rng.normal(size=4), mu, precision) >= 0.0

    def test_linear_reparameterization_invariance(self):
        # D(Ax; A mu, A Sigma A^T) == D(x; mu, Sigma) for invertible A
        rng = np.random.default_rng(3)
        d = 4
        mu = rng.normal(size=d)
        sigma = random_spd(rng, d)
        a = rng.normal(size=(d, d)) + 2.0 * np.eye(d)  # well-conditioned
        x = rng.normal(size=d)
        base = mahalanobis(x, mu, exact_precision(sigma))
        mapped_sigma = a @ sigma @ a.T
        mapped = mahalanobis(
            a @ x, a @ mu, exact_precision(0.5 * (mapped_sigma + mapped_sigma.T))
        )
        assert mapped == pytest.approx(base, rel=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mahalanobis(np.zeros(4), np.zeros(3), np.eye(3))


class TestIntraInter:
    """The class kernel and the report's per-sample intra/inter terms."""

    @staticmethod
    def _symmetric_two_class():
        return exact_stats([[-1.0, 0.0], [1.0, 0.0]], [np.eye(2)] * 2)

    def test_intra_at_mean(self):
        stats = self._symmetric_two_class()
        quads = class_quadratics(np.array([[-1.0, 0.0], [1.0, 0.0]]), stats)
        assert quads[0, 0] == pytest.approx(0.0)
        assert quads[1, 1] == pytest.approx(0.0)
        assert quads[0, 1] > 0.0

    def test_intra_is_definitional(self):
        # the report's intra term is the kernel entry of the labelled class
        rng = np.random.default_rng(4)
        stats = random_stats(rng, 3, 4)
        x = rng.normal(size=4)
        quads = class_quadratics(x, stats)
        for c in range(3):
            assert report_one(x, c, stats).mean_intra == quads[c, 0]
            ref = form(x, stats, c)
            assert quads[c, 0] == pytest.approx(ref, rel=1e-12)

    def test_inter_two_class(self):
        stats = self._symmetric_two_class()
        x = np.array([1.0, 0.0])
        assert report_one(x, 1, stats).mean_inter == class_quadratics(x, stats)[0, 0]
        assert report_one(x, 1, stats).mean_inter == pytest.approx(
            form(x, stats, 0), rel=1e-12
        )

    def test_inter_equidistant_average(self):
        # three unit-variance classes at distance 2 from the origin
        mus = [(2.0, 0.0), (0.0, 2.0), (-2.0, 0.0), (0.0, -2.0)]
        stats = exact_stats(mus, [np.eye(2)] * 4)
        assert report_one(np.zeros(2), 0, stats).mean_inter == pytest.approx(4.0)

    def test_inter_brute_force(self):
        rng = np.random.default_rng(5)
        stats = random_stats(rng, 4, 3)
        x = rng.normal(size=3)
        for label in range(4):
            ref = sum(
                form(x, stats, c) for c in range(4) if c != label
            ) / 3.0
            got = report_one(x, label, stats).mean_inter
            assert got == pytest.approx(ref, rel=1e-12)

    def test_single_class_raises(self):
        rng = np.random.default_rng(6)
        stats = random_stats(rng, 1, 3)
        with pytest.raises(SingleClass):
            report_one(np.zeros(3), 0, stats)

    def test_unknown_class(self):
        rng = np.random.default_rng(7)
        stats = random_stats(rng, 3, 3)
        with pytest.raises(UnknownClass):
            report_one(np.zeros(3), 3, stats)
        with pytest.raises(UnknownClass):
            report_one(np.zeros(3), -1, stats)
        with pytest.raises(UnknownClass):
            report_one(np.zeros(3), 0.6, stats)  # used to report class 0

    def test_class_distance_matrix(self):
        rng = np.random.default_rng(8)
        stats = random_stats(rng, 3, 4)
        batch = rng.normal(size=(6, 4))
        mat = class_quadratics(batch, stats)
        assert mat.shape == (3, 6)
        for i in range(6):
            for c in range(3):
                ref = form(batch[i], stats, c)
                assert mat[c, i] == pytest.approx(ref, rel=1e-12)


class TestClassKernel:
    """The kernel's forms and the products P (x - mu) that give its gradient
    2 sum_c w_cn P_c (x_n - mu_c) for weights w = d loss / d quads."""

    @staticmethod
    def _setup(seed):
        rng = np.random.default_rng(seed)
        stats = random_stats(rng, 4, 5)
        return stats, rng.normal(size=(7, 5)), rng.normal(size=(4, 7))

    @staticmethod
    def _grad(x, stats, weights):
        _, pd = losses._class_quadratics(x, stats)
        return 2.0 * np.einsum("cn,cnd->nd", weights, pd)

    def test_gradient_matches_finite_differences(self):
        stats, x, w = self._setup(30)

        def value(arr):
            return float(np.sum(class_quadratics(arr, stats) * w))

        fd = numeric_grad(value, x.copy())
        np.testing.assert_allclose(self._grad(x, stats, w), fd, rtol=1e-6, atol=1e-6)

    def test_gradient_matches_per_sample_loop(self):
        # a plain loop over the general form (P + P^T)(x - mu), which needs
        # no symmetry of P
        stats, x, w = self._setup(31)
        ref = np.zeros_like(x)
        for n in range(x.shape[0]):
            for c, (mu, p) in enumerate(zip(stats.class_mus, stats.class_precisions)):
                ref[n] += w[c, n] * (p + p.T) @ (x[n] - mu)
        np.testing.assert_allclose(self._grad(x, stats, w), ref, rtol=1e-12, atol=0.0)

    def test_loss_builds_no_tensor(self, monkeypatch):
        # a loss is plain numbers and arrays: it builds no graph node,
        # and only the chain's step wraps the value in a loss handle
        stats, x, _ = self._setup(32)
        built = []
        monkeypatch.setattr(autograd.Tensor, "__init__", lambda *a: built.append(a))
        logits = np.eye(4)[np.arange(7) % 4]
        value, grad, reads_logits, quads = loss_tensor("cafa", x, logits, stats)
        assert not built
        assert isinstance(value, float) and not reads_logits
        assert np.array_equal(quads, class_quadratics(x, stats))
        assert grad.shape == x.shape


class TestGlobalFaLoss:
    def test_constructed_match_is_zero(self):
        stats = exact_stats(
            [np.zeros(1)],
            [np.eye(1)],
            global_mu=np.zeros(1),
            global_sigma=np.ones((1, 1)),
        )
        value = loss_value("global_fa", stats, np.array([[-1.0], [1.0]]))
        assert value == pytest.approx(0.0)

    def test_naive_oracle(self):
        rng = np.random.default_rng(9)
        stats = random_stats(rng, 3, 4)
        batch = rng.normal(size=(10, 4))
        mu_t = batch.mean(axis=0)
        centered = batch - mu_t
        sigma_t = centered.T @ centered / 10
        ref = float(
            np.sum((stats.global_mu - mu_t) ** 2)
            + np.sum((stats.global_sigma - sigma_t) ** 2)
        )
        assert loss_value("global_fa", stats, batch) == pytest.approx(ref, rel=1e-12)

    def test_batch_too_small(self):
        rng = np.random.default_rng(10)
        stats = random_stats(rng, 2, 3)
        with pytest.raises(BatchTooSmall):
            loss_value("global_fa", stats, np.zeros((1, 3)))


class TestIntraLoss:
    def test_zero_at_class_means(self):
        rng = np.random.default_rng(11)
        stats = random_stats(rng, 3, 4)
        batch = stats.class_mus[[0, 1, 2, 1]]
        value = loss_value("intra", stats, batch, labels=np.array([0, 1, 2, 1]))
        assert value == pytest.approx(0.0)

    def test_single_sample(self):
        rng = np.random.default_rng(12)
        stats = random_stats(rng, 3, 4)
        x = rng.normal(size=4)
        value = loss_value("intra", stats, x[None, :], labels=np.array([2]))
        assert value == pytest.approx(form(x, stats, 2), rel=1e-12)

    def test_brute_force(self):
        rng = np.random.default_rng(13)
        stats = random_stats(rng, 3, 4)
        batch = rng.normal(size=(8, 4))
        labels = rng.integers(0, 3, size=8)
        ref = np.mean([form(x, stats, c) for x, c in zip(batch, labels)])
        value = loss_value("intra", stats, batch, labels=labels)
        assert value == pytest.approx(ref, rel=1e-12)

    def test_unknown_label(self):
        rng = np.random.default_rng(14)
        stats = random_stats(rng, 3, 4)
        for labels in ([0, 5], [0, 1.5], [0, np.nan]):
            with pytest.raises(UnknownClass):
                loss_value("intra", stats, np.zeros((2, 4)), labels=np.array(labels))


class TestCafaLoss:
    def test_single_class_is_exactly_zero(self):
        rng = np.random.default_rng(15)
        stats = random_stats(rng, 1, 4)
        batch = rng.normal(size=(8, 4))
        assert loss_value("cafa", stats, batch, labels=np.zeros(8, dtype=int)) == 0.0

    def test_clamp_at_class_mean(self):
        # sample exactly at its class mean: numerator clamps at the floor
        rng = np.random.default_rng(16)
        stats = random_stats(rng, 2, 3)
        x = stats.class_mus[0]
        v = form(x, stats, 1)
        expected = np.log(RATIO_FLOOR) - np.log(v)  # denominator = 0 + v
        got = loss_value("cafa", stats, x[None, :], labels=np.array([0]))
        assert got == pytest.approx(expected, rel=1e-9)

    def test_brute_force(self):
        rng = np.random.default_rng(17)
        stats = random_stats(rng, 3, 4)
        batch = rng.normal(size=(8, 4))
        labels = rng.integers(0, 3, size=8)
        terms = []
        for x, label in zip(batch, labels):
            num = max(form(x, stats, label), RATIO_FLOOR)
            den = max(
                sum(form(x, stats, c) for c in range(3)), RATIO_FLOOR
            )
            terms.append(np.log(num / den))
        assert loss_value("cafa", stats, batch, labels=labels) == pytest.approx(
            float(np.mean(terms)), rel=1e-10
        )

    def test_per_sample_term_negative(self):
        rng = np.random.default_rng(18)
        stats = random_stats(rng, 3, 4)
        for _ in range(20):
            x = rng.normal(size=(1, 4))
            label = rng.integers(0, 3, size=1)
            if form(x[0], stats, int(label[0])) > 0:
                assert loss_value("cafa", stats, x, labels=label) < 0.0


class TestBaselineLosses:
    def test_entropy_point_mass(self):
        logits = np.array([[1e6, 0.0, 0.0]])
        assert loss_value("entropy", logits=logits) == pytest.approx(0.0, abs=1e-9)

    def test_entropy_uniform(self):
        value = loss_value("entropy", logits=np.zeros((3, 4)))
        assert value == pytest.approx(np.log(4.0), rel=1e-12)

    def test_entropy_direct_formula(self):
        rng = np.random.default_rng(19)
        logits = rng.normal(size=(10, 5)) * 2.0
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        ref = float(np.mean(-(p * np.log(p)).sum(axis=1)))
        assert loss_value("entropy", logits=logits) == pytest.approx(ref, rel=1e-10)

    def test_pseudo_label_one_hot(self):
        logits = np.array([[50.0, 0.0], [0.0, 50.0]])
        value = loss_value("pl", logits=logits, labels=np.array([0, 1]))
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_pseudo_label_uniform(self):
        labels = np.array([0, 1, 3])
        got = loss_value("pl", logits=np.zeros((3, 4)), labels=labels)
        assert got == pytest.approx(np.log(4.0), rel=1e-12)

    def test_pseudo_label_direct_formula(self):
        rng = np.random.default_rng(20)
        logits = rng.normal(size=(10, 4)) * 3.0
        labels = rng.integers(0, 4, size=10)
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        ref = float(np.mean(-np.log(p[np.arange(10), labels])))
        value = loss_value("pl", logits=logits, labels=labels)
        assert value == pytest.approx(ref, rel=1e-10)

    def test_pseudo_label_unknown_class(self):
        for labels in ([0, 3], [0, 1.5], [0, np.nan]):
            with pytest.raises(UnknownClass):
                loss_value("pl", logits=np.zeros((2, 3)), labels=np.array(labels))


def generic_order_loss(method, stats, feats, logits, labels):
    """A loss in the operation order of a generic op-by-op tape: a - b as
    a + (-b), a mean as sum * (1/n), a label's entry as a one-hot product
    sum. `loss_tensor` must give these values bit for bit."""
    if method == "global_fa":
        inv_n = 1.0 / feats.shape[0]
        mu = feats.sum(axis=0) * inv_n
        centered = feats + (-mu)
        sigma = (centered.T @ centered) * inv_n
        mean_gap = ((stats.global_mu + (-mu)) ** 2).sum()
        return mean_gap + ((stats.global_sigma + (-sigma)) ** 2).sum()
    if method in ("intra", "cafa"):
        quads = class_quadratics(feats, stats)
        intra = (quads * np.eye(quads.shape[0])[labels].T).sum(axis=0)
        if method == "intra":
            return intra.sum() * (1.0 / intra.size)
        floored = np.maximum(quads.sum(axis=0), RATIO_FLOOR)
        terms = np.log(np.maximum(intra, RATIO_FLOOR)) + (-np.log(floored))
        return terms.sum() * (1.0 / terms.size)
    shift = logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(logits + (-shift)).sum(axis=1, keepdims=True)) + shift
    if method == "entropy":
        neg_logp = lse + (-logits)
        h = (np.exp(-neg_logp) * neg_logp).sum(axis=1)
        return h.sum() * (1.0 / h.size)
    picked = (logits * np.eye(logits.shape[1])[labels]).sum(axis=1, keepdims=True)
    terms = lse + (-picked)
    return terms.sum() * (1.0 / terms.size)


class TestLossGradients:
    """Each loss's closed-form gradient w.r.t. the input it reads."""

    @pytest.mark.parametrize("name", LOSSES)
    def test_matches_central_differences(self, name):
        rng = np.random.default_rng(40)
        stats = random_stats(rng, 4, 4)  # 4 classes: labels index logits too
        x = 1.5 * rng.normal(size=(6, 4))
        y = rng.integers(0, 4, size=6)
        method, _ = LOSSES[name]
        _, g = loss_grad(method, x, stats, y)
        fd = numeric_grad(lambda a: loss_grad(method, a, stats, y)[0], x.copy())
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("method", [m for m in METHODS if m not in NO_LOSS_METHODS])
    def test_grad_is_an_array_shaped_like_what_the_loss_reads(self, method):
        # features 7 x 4 and logits 7 x 3: the two inputs differ in shape
        rng = np.random.default_rng(42)
        feats, logits = rng.normal(size=(7, 4)), rng.normal(size=(7, 3))
        _, grad, reads_logits, _ = loss_tensor(method, feats, logits, random_stats(rng, 3, 4))
        assert type(grad) is np.ndarray
        assert grad.shape == (logits if reads_logits else feats).shape

    def test_cafa_floored_term_has_zero_gradient(self):
        # sample 2 sits within 1e-9 of its class mean, so its intra form is
        # clamped at RATIO_FLOOR, and stays clamped under steps of 1e-7: its
        # log-ratio term is flat there, and the backward must agree
        rng = np.random.default_rng(41)
        stats = random_stats(rng, 3, 4)
        x = rng.normal(size=(5, 4))
        x[2] = stats.class_mus[1] + 1e-9 * rng.normal(size=4)
        y = np.array([0, 2, 1, 1, 0])
        assert class_quadratics(x, stats)[1, 2] < RATIO_FLOOR
        _, g = loss_grad("cafa", x, stats, y)
        fd = numeric_grad(lambda a: loss_grad("cafa", a, stats, y)[0], x.copy(), h=1e-7)
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-6)

    def test_values_keep_the_generic_order_bit_for_bit(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            model = small_model(rng)
            stats = random_stats(rng, 3, 5)
            # 12 rows: a 1/N that is a power of two would hide sum / N
            x = rng.normal(size=(12, 6))
            y = rng.integers(0, 3, size=12)
            for mode in StatMode:
                for group in PARAM_GROUPS:
                    for method, supervised in LOSSES.values():
                        given = y if supervised else None
                        m = model.copy()
                        loss, _, (feats, logits, _) = network.loss_and_grad_named(
                            m, x, mode, group, method, stats, given
                        )
                        labels = y if supervised else logits.argmax(axis=1)
                        ref = generic_order_loss(method, stats, feats, logits, labels)
                        assert np.float64(loss).tobytes() == np.float64(ref).tobytes()


class TestPrecisionScale:
    """The exact part of the claim that CAFA needs no scale hyper-parameter:
    scaling every class precision by 2^k (as eps_scale or the feature scale
    would, were they exact powers of two) cancels in the log-ratio."""

    @staticmethod
    def _step(model, x, method, stats):
        loss, grad, _ = network.loss_and_grad_named(
            model.copy(), x, StatMode.BATCH_ONLY, "bn_only", method, stats
        )
        return loss, grad

    @pytest.mark.parametrize("k", [-6, -1, 1, 5, 20])
    def test_cafa_step_is_scale_free_and_intra_scales(self, k):
        scale = 2.0**k
        for seed in range(6):
            rng = np.random.default_rng(seed)
            model = small_model(rng, hidden_dims=(8, 5), n_classes=5)
            stats = random_stats(rng, 5, 5)
            scaled = dataclasses.replace(
                stats, class_precisions=stats.class_precisions * scale
            )
            x = rng.normal(size=(32, 6))
            loss, grad = self._step(model, x, "cafa", stats)
            loss_k, grad_k = self._step(model, x, "cafa", scaled)
            # log(2^k a) = k log 2 + log a on both sides of the ratio: the
            # value moves by rounding only, and the weights 1/intra - 1/denom
            # scale by 2^-k exactly, against 2^k in P (x - mu)
            assert grad_k.tobytes() == grad.tobytes()
            assert abs(loss_k - loss) <= 2 * np.spacing(abs(loss))
            loss, grad = self._step(model, x, "intra", stats)
            loss_k, grad_k = self._step(model, x, "intra", scaled)
            assert loss_k == scale * loss
            assert grad_k.tobytes() == (scale * grad).tobytes()


class TestDistanceReport:
    def test_zero_at_true_means(self):
        rng = np.random.default_rng(21)
        stats = random_stats(rng, 3, 4)
        batch = stats.class_mus
        report = distance_report(batch, np.arange(3), stats)
        assert report.mean_intra == pytest.approx(0.0)
        assert report.mean_inter > 0.0

    def test_brute_force(self):
        rng = np.random.default_rng(22)
        stats = random_stats(rng, 3, 4)
        batch = rng.normal(size=(7, 4))
        labels = rng.integers(0, 3, size=7)
        report = distance_report(batch, labels, stats)
        ref_intra = np.mean(
            [form(x, stats, c) for x, c in zip(batch, labels)]
        )
        ref_inter = np.mean(
            [
                sum(form(x, stats, k) for k in range(3) if k != c)
                / 2.0
                for x, c in zip(batch, labels)
            ]
        )
        assert report.mean_intra == pytest.approx(float(ref_intra), rel=1e-12)
        assert report.mean_inter == pytest.approx(float(ref_inter), rel=1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(23)
        stats = random_stats(rng, 3, 4)
        batch = rng.normal(size=(5, 4))
        labels = rng.integers(0, 3, size=5)
        a = distance_report(batch, labels, stats)
        b = distance_report(batch.copy(), labels.copy(), stats)
        assert a.mean_intra == b.mean_intra
        assert a.mean_inter == b.mean_inter

    def test_label_count_mismatch(self):
        # five feature rows with three labels must not be truncated silently
        rng = np.random.default_rng(24)
        stats = random_stats(rng, 3, 4)
        with pytest.raises(DimensionMismatch):
            distance_report(rng.normal(size=(5, 4)), np.array([0, 1, 2]), stats)

    @pytest.mark.parametrize("method", losses.FEATURE_LOSSES)
    @pytest.mark.parametrize("stats_dim", [1, 2])
    def test_every_feature_loss_refuses_stats_of_another_dim(self, method, stats_dim):
        # global_fa used to return a value for 1-dim stats on 3-dim features
        # and a bare broadcast error for 2-dim ones
        rng = np.random.default_rng(27)
        feats, logits = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        stats = random_stats(rng, 3, stats_dim)
        with pytest.raises(DimensionMismatch, match=f"feature dim 3 vs {stats_dim}"):
            loss_tensor(method, feats, logits, stats)

    def test_feature_dim_mismatch(self):
        rng = np.random.default_rng(25)
        stats = random_stats(rng, 3, 4)
        with pytest.raises(DimensionMismatch):
            distance_report(np.zeros((3, 5)), np.arange(3), stats)
        with pytest.raises(DimensionMismatch):
            loss_value("cafa", stats, np.zeros((3, 5)), labels=np.arange(3))

    def test_given_kernel(self):
        # a kernel handed in is read as an explicit gather reads it; the
        # moment form agrees with it, and one of the wrong shape is refused
        rng = np.random.default_rng(26)
        stats = random_stats(rng, 3, 4)
        batch = rng.normal(size=(5, 4))
        labels = rng.integers(0, 3, size=5)
        quads = class_quadratics(batch, stats)
        given_kernel = distance_report(batch, labels, stats, quads)
        intra = np.array([quads[c, i] for i, c in enumerate(labels)])
        inter = np.array(
            [sum(quads[j, i] for j in range(3) if j != c) / 2.0 for i, c in enumerate(labels)]
        )
        assert given_kernel.mean_intra == float(np.mean(intra))
        assert given_kernel.mean_inter == float(np.mean(inter))
        moments = distance_report(batch, labels, stats)
        assert moments.mean_intra == pytest.approx(given_kernel.mean_intra, rel=1e-12)
        assert moments.mean_inter == pytest.approx(given_kernel.mean_inter, rel=1e-12)
        with pytest.raises(DimensionMismatch):
            distance_report(batch, labels, stats, quads[:, :4])

    def test_given_kernel_adds_inter_forms_on_their_own(self):
        # class 0 fitted on 2 samples in d=8 with a 1e-8 ridge: the intra
        # forms of 16 class-0 samples dwarf their inter forms about 2e7-fold,
        # so a column total less the intra form would lose about 1e-10
        rng = np.random.default_rng(0)
        counts = np.array([2, 20, 20])
        centres = rng.normal(size=(3, 8)) * 3.0
        labels_fit = np.repeat(np.arange(3), counts)
        stats = fit_source_stats(
            centres[labels_fit] + rng.normal(size=(labels_fit.size, 8)),
            labels_fit,
            eps_scale=1e-8,
        )
        labels = np.zeros(16, dtype=np.int64)
        batch = centres[labels] + rng.normal(size=(16, 8))
        report = distance_report(batch, labels, stats, class_quadratics(batch, stats))
        intra = np.mean([form(x, stats, 0) for x in batch])
        inter = np.mean([(form(x, stats, 1) + form(x, stats, 2)) / 2.0 for x in batch])
        assert intra / inter > 1e7
        assert report.mean_intra == pytest.approx(intra, rel=1e-13)
        assert report.mean_inter == pytest.approx(inter, rel=1e-13)

    @pytest.mark.parametrize(
        "n, entry, error",
        [(0, 0.0, EmptyInput), (4, np.nan, NonFiniteInput), (4, np.inf, NonFiniteInput)],
        ids=["empty", "nan", "inf"],
    )
    def test_refused_batch(self, n, entry, error):
        # refused on both paths before any arithmetic, so no mean of an
        # empty slice warns and no non-finite feature returns nan
        stats = random_stats(np.random.default_rng(27), 3, 4)
        batch, labels = np.zeros((n, 4)), np.arange(n) % 3
        batch[n // 2 :, 1] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for quads in (None, np.zeros((3, n))):
                with pytest.raises(error):
                    distance_report(batch, labels, stats, quads)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    c=st.integers(2, 5),
    d=st.integers(1, 6),
    n=st.integers(1, 12),
    present=st.integers(1, 5),
    tied=st.booleans(),
    log_eps=st.integers(-8, -2),
)
def test_moment_report_matches_per_vector_oracle(seed, c, d, n, present, tied, log_eps):
    # class Gaussians fitted on 2..d+1 samples each, so most covariances are
    # rank-deficient and only the eps_scale ridge keeps them invertible; the
    # batch may miss classes, hold one class only, or one row
    rng = np.random.default_rng(seed)
    counts = rng.integers(2, d + 2, size=c)
    centres = rng.normal(size=(c, d)) * 3.0
    labels_fit = np.repeat(np.arange(c), counts)
    stats = fit_source_stats(
        centres[labels_fit] + rng.normal(size=(labels_fit.size, d)),
        labels_fit,
        "tied" if tied else "class_wise",
        eps_scale=10.0**log_eps,
    )
    y = rng.choice(rng.permutation(c)[: min(present, c)], size=n)
    batch = centres[y] + rng.normal(size=(n, d)) + 0.5
    report = distance_report(batch, y, stats)
    intra = [form(x, stats, k) for x, k in zip(batch, y)]
    # each inter form added on its own, as the report must: the total less
    # the intra form cancels where a near-singular class dwarfs the others
    inter = [
        sum(form(x, stats, j) for j in range(c) if j != k) / (c - 1)
        for x, k in zip(batch, y)
    ]
    assert report.mean_intra == pytest.approx(float(np.mean(intra)), rel=1e-12)
    assert report.mean_inter == pytest.approx(float(np.mean(inter)), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 12), c=st.integers(2, 5))
def test_entropy_bounds_property(seed, n, c):
    rng = np.random.default_rng(seed)
    value = loss_value("entropy", logits=rng.normal(size=(n, c)) * 3.0)
    assert -1e-12 <= value <= np.log(c) + 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 10))
def test_intra_mean_identity_property(seed, n):
    rng = np.random.default_rng(seed)
    stats = random_stats(rng, 3, 3)
    batch = rng.normal(size=(n, 3))
    labels = rng.integers(0, 3, size=n)
    ref = np.mean([form(x, stats, k) for x, k in zip(batch, labels)])
    value = loss_value("intra", stats, batch, labels=labels)
    assert value == pytest.approx(float(ref), rel=1e-10)
