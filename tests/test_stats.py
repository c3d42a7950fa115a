import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import small_model
from tta_align import network
from tta_align.errors import (
    CorruptChecksum,
    FormatVersionMismatch,
    MissingClass,
    StatsIoError,
)
from tta_align.stats import (
    STATS_MAGIC,
    CovarianceMode,
    estimate_source_stats,
    fit_source_stats,
    load_stats,
    regularized_precision,
    save_stats,
)


def two_pass_class_stats(feats, labels, c):
    x = feats[labels == c]
    mu = np.zeros(feats.shape[1])
    for row in x:
        mu += row
    mu /= len(x)
    cov = np.zeros((feats.shape[1],) * 2)
    for row in x:
        cov += np.outer(row - mu, row - mu)
    cov /= len(x)
    return mu, cov


class TestFitSourceStats:
    def test_two_point_single_covariance(self):
        feats = np.array([[0.0, 0.0], [2.0, 0.0], [5.0, 1.0], [5.0, -1.0]])
        labels = np.array([0, 0, 1, 1])
        stats = fit_source_stats(feats, labels)
        g0 = stats.classes[0]
        assert np.array_equal(g0.mu, [1.0, 0.0])
        assert np.array_equal(g0.sigma, [[1.0, 0.0], [0.0, 0.0]])
        # regularized precision exists despite the singular direction
        assert np.all(np.isfinite(g0.precision))

    def test_two_pass_oracle_and_pooling(self):
        rng = np.random.default_rng(0)
        feats = np.concatenate(
            [rng.normal(loc=3.0 * c, size=(100, 4)) for c in range(3)]
        )
        labels = np.repeat(np.arange(3), 100)
        stats = fit_source_stats(feats, labels)
        for c in range(3):
            mu, cov = two_pass_class_stats(feats, labels, c)
            assert np.max(np.abs(stats.classes[c].mu - mu)) < 1e-12
            assert np.max(np.abs(stats.classes[c].sigma - cov)) < 1e-12
        pooled_mu = sum(
            g.n_samples * g.mu for g in stats.classes
        ) / sum(g.n_samples for g in stats.classes)
        assert np.max(np.abs(stats.global_mu - pooled_mu)) < 1e-12

    def test_law_of_total_covariance(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(240, 5)) + rng.integers(0, 3, size=(240, 1))
        labels = rng.integers(0, 3, size=240)
        stats = fit_source_stats(feats, labels)
        n = len(labels)
        total = np.zeros((5, 5))
        for g in stats.classes:
            gap = g.mu - stats.global_mu
            total += g.n_samples * (g.sigma + np.outer(gap, gap))
        total /= n
        assert np.max(np.abs(stats.global_sigma - total)) < 1e-8

    def test_tied_of_identical_classes(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 3))
        feats = np.concatenate([x, x])
        labels = np.repeat([0, 1], 50)
        tied = fit_source_stats(feats, labels, mode=CovarianceMode.TIED)
        class_wise = fit_source_stats(feats, labels, mode=CovarianceMode.CLASS_WISE)
        for g_t, g_c in zip(tied.classes, class_wise.classes):
            assert np.array_equal(g_t.sigma, g_c.sigma)
            assert np.array_equal(g_t.precision, g_c.precision)

    def test_tied_shares_one_covariance(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(90, 4))
        labels = rng.integers(0, 3, size=90)
        stats = fit_source_stats(feats, labels, mode=CovarianceMode.TIED)
        for g in stats.classes[1:]:
            assert np.array_equal(g.sigma, stats.classes[0].sigma)
        # pooled within-class covariance, sample-count weighted
        expected = np.zeros((4, 4))
        for c in range(3):
            _, cov = two_pass_class_stats(feats, labels, c)
            expected += np.sum(labels == c) * cov
        expected /= 90
        assert np.max(np.abs(stats.classes[0].sigma - expected)) < 1e-12

    def test_tied_single_class_equals_class_wise(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(40, 3))
        labels = np.zeros(40, dtype=int)
        tied = fit_source_stats(feats, labels, mode=CovarianceMode.TIED)
        cw = fit_source_stats(feats, labels, mode=CovarianceMode.CLASS_WISE)
        assert np.array_equal(tied.classes[0].sigma, cw.classes[0].sigma)

    def test_missing_class(self):
        feats = np.zeros((4, 2))
        with pytest.raises(MissingClass):
            fit_source_stats(feats, np.array([0, 0, 2, 2]))  # class 1 absent
        with pytest.raises(MissingClass):
            fit_source_stats(feats, np.array([0, 0, 0, 1]))  # class 1 has one sample

    def test_rank_deficiency_warning(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(8, 6))
        labels = np.repeat([0, 1], 4)  # 4 samples <= d=6
        stats = fit_source_stats(feats, labels)
        assert len(stats.warnings) == 2
        assert "rank-deficient" in stats.warnings[0]

    def test_estimate_uses_running_eval_features(self):
        rng = np.random.default_rng(6)
        model = small_model(rng)
        x = rng.normal(size=(60, 6))
        y = rng.integers(0, 3, size=60)
        via_model = estimate_source_stats(model, x, y)
        feats = network.forward_features(model, x, network.StatMode.RUNNING_EVAL).feats
        direct = fit_source_stats(feats, y)
        for a, b in zip(via_model.classes, direct.classes):
            assert np.array_equal(a.mu, b.mu)
            assert np.array_equal(a.sigma, b.sigma)


class TestRegularization:
    def test_trace_relative_eps(self):
        sigma = np.diag([2.0, 4.0])
        precision = regularized_precision(sigma, eps_scale=0.5)
        eps = 0.5 * (6.0 / 2.0)  # trace/d scaled
        np.testing.assert_allclose(
            precision, np.diag([1.0 / (2.0 + eps), 1.0 / (4.0 + eps)])
        )
        assert precision.shape == (2, 2)

    def test_zero_trace_fallback(self):
        precision = regularized_precision(np.zeros((3, 3)), eps_scale=1e-3)
        np.testing.assert_allclose(precision, np.eye(3) / 1e-3)
        assert np.all(np.linalg.eigvalsh(precision) > 0)

    def test_psd_input_always_factors(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=4)
        rank_one = np.outer(v, v)  # PSD, singular
        precision = regularized_precision(rank_one, eps_scale=1e-6)
        assert np.all(np.linalg.eigvalsh(precision) > 0)


class TestSerialization:
    @staticmethod
    def _stats(seed=8, mode=CovarianceMode.CLASS_WISE):
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(120, 4))
        labels = rng.integers(0, 3, size=120)
        return fit_source_stats(feats, labels, mode=mode, eps_scale=1e-4)

    def test_round_trip_bitwise(self, tmp_path):
        stats = self._stats()
        path = tmp_path / "stats.bin"
        save_stats(stats, path)
        loaded = load_stats(path)
        assert loaded.covariance_mode == stats.covariance_mode
        assert loaded.eps_scale == stats.eps_scale
        assert loaded.feature_dim == stats.feature_dim
        assert np.array_equal(loaded.global_mu, stats.global_mu)
        assert np.array_equal(loaded.global_sigma, stats.global_sigma)
        for a, b in zip(loaded.classes, stats.classes):
            assert a.class_id == b.class_id
            assert a.n_samples == b.n_samples
            assert np.array_equal(a.mu, b.mu)
            assert np.array_equal(a.sigma, b.sigma)
            assert np.array_equal(a.precision, b.precision)

    @pytest.mark.parametrize("mode", list(CovarianceMode), ids=lambda m: m.value)
    def test_class_stacks_match_classes(self, tmp_path, mode):
        stats = self._stats(mode=mode)
        path = tmp_path / "stats.bin"
        save_stats(stats, path)
        for s in (stats, load_stats(path)):
            assert np.array_equal(s.class_mus, np.stack([g.mu for g in s.classes]))
            assert np.array_equal(
                s.class_precisions, np.stack([g.precision for g in s.classes])
            )
            # the class kernel's analytic gradient assumes exact symmetry
            assert np.array_equal(s.class_precisions, s.class_precisions.mT)

    def test_tied_round_trip(self, tmp_path):
        stats = self._stats(mode=CovarianceMode.TIED)
        path = tmp_path / "stats.bin"
        save_stats(stats, path)
        assert load_stats(path).covariance_mode is CovarianceMode.TIED

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "stats.bin"
        save_stats(self._stats(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 40])
        with pytest.raises(CorruptChecksum):
            load_stats(path)

    def test_flipped_payload_byte(self, tmp_path):
        path = tmp_path / "stats.bin"
        save_stats(self._stats(), path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptChecksum):
            load_stats(path)

    def test_version_bump(self, tmp_path):
        path = tmp_path / "stats.bin"
        save_stats(self._stats(), path)
        blob = bytearray(path.read_bytes())
        blob[len(STATS_MAGIC)] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatVersionMismatch):
            load_stats(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "stats.bin"
        path.write_bytes(b"NOTSTATS" + b"\x00" * 64)
        with pytest.raises(StatsIoError):
            load_stats(path)

    @staticmethod
    def _with_header(path, edit):
        """Rewrite the saved file's JSON header with `edit` applied and a
        checksum that matches, so only the header is wrong."""
        blob = path.read_bytes()
        off = len(STATS_MAGIC) + 1
        (header_len,) = struct.unpack_from("<I", blob, off)
        header = blob[off + 4 : off + 4 + header_len]
        payload = blob[off + 4 + header_len : -32]
        header = edit(header)
        path.write_bytes(
            blob[:off]
            + struct.pack("<I", len(header))
            + header
            + payload
            + hashlib.sha256(header + payload).digest()
        )

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "stats.bin"
        save_stats(self._stats(), path)
        self._with_header(path, lambda h: b"{not json" + h)
        with pytest.raises(StatsIoError):
            load_stats(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_samples", None),  # None drops the field
            ("n_samples", [5]),
            ("n_samples", ["a", "b", "c"]),
            ("feature_dim", 4.0),
            ("eps_scale", "x"),
            ("warnings", 5),
        ],
    )
    def test_header_field_malformed(self, tmp_path, field, value):
        def edit(h):
            header = json.loads(h)
            if value is None:
                del header[field]
            else:
                header[field] = value
            return json.dumps(header).encode()

        path = tmp_path / "stats.bin"
        save_stats(self._stats(), path)
        self._with_header(path, edit)
        with pytest.raises(StatsIoError):
            load_stats(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(StatsIoError):
            load_stats(tmp_path / "absent.bin")


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_classes=st.integers(2, 4),
    per_class=st.integers(3, 30),
    d=st.integers(2, 4),
)
def test_pooling_identity_property(seed, n_classes, per_class, d):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(n_classes * per_class, d))
    labels = np.repeat(np.arange(n_classes), per_class)
    stats = fit_source_stats(feats, labels)
    pooled = sum(g.n_samples * g.mu for g in stats.classes) / len(labels)
    assert np.max(np.abs(stats.global_mu - pooled)) < 1e-10
