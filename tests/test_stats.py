import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import fit_source_stats, rewrite_stats, small_model
from tta_align import network
from tta_align.errors import (
    ConfigInvalid,
    CorruptChecksum,
    DimensionMismatch,
    FormatVersionMismatch,
    MissingClass,
    NonFiniteInput,
    NotPositiveDefinite,
    StatsIoError,
    UnknownClass,
)
from tta_align.stats import (
    COVARIANCE_MODES,
    STATS_MAGIC,
    estimate_source_stats,
    load_stats,
    regularized_precisions,
    save_stats,
)


STATS_V1 = Path(__file__).parent / "data" / "stats_v1.bin"


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
        assert np.array_equal(stats.class_mus[0], [1.0, 0.0])
        assert np.array_equal(stats.class_sigmas[0], [[1.0, 0.0], [0.0, 0.0]])
        # regularized precision exists despite the singular direction
        assert np.all(np.isfinite(stats.class_precisions[0]))

    def test_two_pass_oracle_and_pooling(self):
        rng = np.random.default_rng(0)
        feats = np.concatenate(
            [rng.normal(loc=3.0 * c, size=(100, 4)) for c in range(3)]
        )
        labels = np.repeat(np.arange(3), 100)
        stats = fit_source_stats(feats, labels)
        for c in range(3):
            mu, cov = two_pass_class_stats(feats, labels, c)
            assert np.max(np.abs(stats.class_mus[c] - mu)) < 1e-12
            assert np.max(np.abs(stats.class_sigmas[c] - cov)) < 1e-12
        pooled_mu = sum(
            n_c * mu for n_c, mu in zip(stats.class_counts, stats.class_mus)
        ) / sum(stats.class_counts)
        assert np.max(np.abs(stats.global_mu - pooled_mu)) < 1e-12

    def test_law_of_total_covariance(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(240, 5)) + rng.integers(0, 3, size=(240, 1))
        labels = rng.integers(0, 3, size=240)
        stats = fit_source_stats(feats, labels)
        n = len(labels)
        total = np.zeros((5, 5))
        for n_c, mu, sigma in zip(stats.class_counts, stats.class_mus, stats.class_sigmas):
            gap = mu - stats.global_mu
            total += n_c * (sigma + np.outer(gap, gap))
        total /= n
        assert np.max(np.abs(stats.global_sigma - total)) < 1e-8

    def test_tied_of_identical_classes(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 3))
        feats = np.concatenate([x, x])
        labels = np.repeat([0, 1], 50)
        tied = fit_source_stats(feats, labels, mode="tied")
        class_wise = fit_source_stats(feats, labels, mode="class_wise")
        assert np.array_equal(tied.class_sigmas, class_wise.class_sigmas)
        assert np.array_equal(tied.class_precisions, class_wise.class_precisions)

    def test_tied_shares_one_covariance(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(90, 4))
        labels = rng.integers(0, 3, size=90)
        stats = fit_source_stats(feats, labels, mode="tied")
        for sigma in stats.class_sigmas[1:]:
            assert np.array_equal(sigma, stats.class_sigmas[0])
        # pooled within-class covariance, sample-count weighted
        expected = np.zeros((4, 4))
        for c in range(3):
            _, cov = two_pass_class_stats(feats, labels, c)
            expected += np.sum(labels == c) * cov
        expected /= 90
        assert np.max(np.abs(stats.class_sigmas[0] - expected)) < 1e-12

    def test_tied_single_class_equals_class_wise(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(40, 3))
        labels = np.zeros(40, dtype=int)
        tied = fit_source_stats(feats, labels, mode="tied")
        cw = fit_source_stats(feats, labels, mode="class_wise")
        assert np.array_equal(tied.class_sigmas[0], cw.class_sigmas[0])

    def test_missing_class(self):
        feats = np.zeros((4, 2))
        with pytest.raises(MissingClass):
            fit_source_stats(feats, np.array([0, 0, 2, 2]))  # class 1 absent
        with pytest.raises(MissingClass):
            fit_source_stats(feats, np.array([0, 0, 0, 1]))  # class 1 has one sample

    @pytest.mark.parametrize(
        "labels, error",
        [
            (np.arange(29) % 3, DimensionMismatch),  # one label short
            (np.arange(31) % 3, DimensionMismatch),  # one label over
            ((np.arange(30) % 3)[:, None], DimensionMismatch),  # a column
            (np.where(np.arange(30) < 5, -1, np.arange(30) % 3), UnknownClass),
            (np.arange(30) % 3 + 0.6, UnknownClass),  # used to fit the stats of y
            (np.where(np.arange(30) < 5, np.nan, np.arange(30) % 3), UnknownClass),
            # refused before any array is sized by the label: 10**12 classes
            # of 2 x 2 covariances would ask for 29 TiB
            (np.where(np.arange(30) == 29, 10**12, np.arange(30) % 3), MissingClass),
        ],
        ids=["short", "long", "column", "negative", "fractional", "nan", "huge"],
    )
    def test_labels_must_name_a_class_per_row(self, labels, error):
        feats = np.random.default_rng(4).normal(size=(30, 2))
        with pytest.raises(error):
            fit_source_stats(feats, labels)

    def test_unknown_covariance_mode(self):
        # a misspelt mode is refused, not fitted class-wise
        feats = np.random.default_rng(4).normal(size=(30, 2))
        with pytest.raises(ConfigInvalid, match="covariance_mode 'Tied' must be one of"):
            fit_source_stats(feats, np.arange(30) % 3, mode="Tied")

    @pytest.mark.parametrize("mode", COVARIANCE_MODES)
    def test_features_left_unchanged(self, mode):
        # the global fit centres a matrix in place; it must be the fit's own
        feats = np.random.default_rng(8).normal(loc=3.0, size=(40, 3))
        before = feats.copy()
        fit_source_stats(feats, np.arange(40) % 2, mode=mode)
        assert feats.tobytes() == before.tobytes()

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
        assert np.array_equal(via_model.class_mus, direct.class_mus)
        assert np.array_equal(via_model.class_sigmas, direct.class_sigmas)


class TestRegularization:
    def test_trace_relative_eps(self):
        sigma = np.diag([2.0, 4.0])
        (precision,) = regularized_precisions(sigma[None], eps_scale=0.5)
        eps = 0.5 * (6.0 / 2.0)  # trace/d scaled
        np.testing.assert_allclose(
            precision, np.diag([1.0 / (2.0 + eps), 1.0 / (4.0 + eps)])
        )
        assert precision.shape == (2, 2)

    def test_zero_trace_fallback(self):
        (precision,) = regularized_precisions(np.zeros((1, 3, 3)), eps_scale=1e-3)
        np.testing.assert_allclose(precision, np.eye(3) / 1e-3)
        assert np.all(np.linalg.eigvalsh(precision) > 0)

    def test_non_finite_precision_refused_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefinite):
                regularized_precisions(1e-310 * np.eye(4)[None], 1e-6)
            # finite, but its trace overflows, and so does the ridge
            with pytest.raises(NonFiniteInput):
                regularized_precisions(np.diag([1e308, 1e308])[None], 1e-6)

    def test_psd_input_always_factors(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=4)
        rank_one = np.outer(v, v)  # PSD, singular
        (precision,) = regularized_precisions(rank_one[None], eps_scale=1e-6)
        assert np.all(np.linalg.eigvalsh(precision) > 0)


class TestSerialization:
    @staticmethod
    def _stats(seed=8, mode="class_wise"):
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
        assert loaded.n_classes == stats.n_classes
        assert np.array_equal(loaded.global_mu, stats.global_mu)
        assert np.array_equal(loaded.global_sigma, stats.global_sigma)
        assert np.array_equal(loaded.class_counts, stats.class_counts)
        assert np.array_equal(loaded.class_mus, stats.class_mus)
        assert np.array_equal(loaded.class_sigmas, stats.class_sigmas)
        assert np.array_equal(loaded.class_precisions, stats.class_precisions)

    def test_reads_and_rewrites_format_v1(self, tmp_path):
        # written from the `_stats()` data by the code before the class
        # stacks: the loader reads it, and both the loaded and the freshly
        # fitted stats save it back byte for byte
        v1 = STATS_V1.read_bytes()
        fitted, loaded = self._stats(), load_stats(STATS_V1)
        assert np.array_equal(loaded.class_precisions, fitted.class_precisions)
        for i, stats in enumerate((loaded, fitted)):
            save_stats(stats, tmp_path / f"{i}.bin")
            assert (tmp_path / f"{i}.bin").read_bytes() == v1

    @pytest.mark.parametrize("mode", COVARIANCE_MODES)
    def test_class_stacks_match_classes(self, tmp_path, mode):
        stats = self._stats(mode=mode)
        path = tmp_path / "stats.bin"
        save_stats(stats, path)
        for s in (stats, load_stats(path)):
            # the class kernel's analytic gradient assumes exact symmetry
            assert np.array_equal(s.class_precisions, s.class_precisions.mT)

    def test_tied_round_trip(self, tmp_path):
        stats = self._stats(mode="tied")
        path = tmp_path / "stats.bin"
        save_stats(stats, path)
        assert load_stats(path).covariance_mode == "tied"

    def test_tied_header_over_differing_covariances(self, tmp_path):
        # a tied fit writes one pooled covariance for every class, so a
        # "tied" header over distinct class covariances was never fitted
        path = tmp_path / "stats.bin"
        path.write_bytes(STATS_V1.read_bytes())

        def tied(h):
            header = json.loads(h)
            header["covariance_mode"] = "tied"
            return json.dumps(header).encode()

        rewrite_stats(path, tied)
        with pytest.raises(StatsIoError, match="differ"):
            load_stats(path)

    @pytest.mark.parametrize(
        "mode", ["diagonal", "TIED", ["tied"], None], ids=["diagonal", "TIED", "list", "null"]
    )
    def test_unknown_covariance_mode(self, tmp_path, mode):
        path = tmp_path / "stats.bin"
        path.write_bytes(STATS_V1.read_bytes())

        def unknown(h):
            return json.dumps({**json.loads(h), "covariance_mode": mode}).encode()

        rewrite_stats(path, unknown)
        with pytest.raises(StatsIoError, match=re.escape("must be one of ['class_wise', 'tied']")):
            load_stats(path)

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

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "stats.bin"
        save_stats(self._stats(), path)
        rewrite_stats(path, lambda h: b"{not json" + h)
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
            # the payload is cut to the size these declare (no feature
            # columns, or no class rows), and the sample counts to the classes
            ("feature_dim", 0),
            ("n_classes", 0),
            ("eps_scale", 0.0),
            ("eps_scale", -1e-4),
            ("eps_scale", float("nan")),
            ("eps_scale", float("inf")),
            ("warnings", "abc"),
            # counts no fit writes: it refuses a class of fewer than 2 samples
            ("n_samples", [-5, 0, 1]),
            ("n_samples", [40, 1, 40]),
            # a key no writer writes
            ("note", "x"),
        ],
    )
    def test_header_field_malformed(self, tmp_path, field, value):
        def edit(h):
            header = json.loads(h)
            if value is None:
                del header[field]
            else:
                header[field] = value
            if field == "n_classes":
                header["n_samples"] = header["n_samples"][:value]
            return json.dumps(header).encode()

        path = tmp_path / "stats.bin"
        save_stats(self._stats(), path)
        rewrite_stats(path, edit, sized_to_header)
        with pytest.raises(StatsIoError):
            load_stats(path)

    @pytest.mark.parametrize(
        "offset, value",
        [(0, np.nan), (8 * 5, np.inf), (-8, -np.inf)],
        ids=["class_mean", "class_sigma", "global_sigma"],
    )
    def test_non_finite_payload(self, tmp_path, offset, value):
        # a checksum-valid file whose statistics hold a NaN or an infinity
        def poke(payload, header):
            return payload[:offset] + np.float64(value).tobytes() + payload[offset:][8:]

        path = tmp_path / "stats.bin"
        save_stats(self._stats(), path)
        rewrite_stats(path, lambda h: h, poke)
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
    pooled = sum(n_c * mu for n_c, mu in zip(stats.class_counts, stats.class_mus))
    pooled /= len(labels)
    assert np.max(np.abs(stats.global_mu - pooled)) < 1e-10


def sized_to_header(payload: bytes, header: bytes) -> bytes:
    """`payload` repeated or cut to the size `header` declares, so that a
    header edit reaches the checks past the payload size; unchanged when the
    header declares no size, or one above 64 KiB."""
    try:
        fields = json.loads(header)
        d, n_classes = fields["feature_dim"], fields["n_classes"]
    except (ValueError, KeyError, TypeError):
        return payload
    if type(d) is not int or type(n_classes) is not int:
        return payload
    size = (n_classes + 1) * (d + d * d) * 8
    if not 0 <= size <= 1 << 16:
        return payload
    return (payload * (size // len(payload) + 1))[:size]


HEADER_FIELDS = [
    "feature_dim",
    "n_classes",
    "covariance_mode",
    "eps_scale",
    "n_samples",
    "warnings",
]
DROP = "<drop>"  # an edit that deletes the field
HEADER_VALUES = st.one_of(
    st.just(DROP),
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
    st.sampled_from(list(COVARIANCE_MODES)),
    st.lists(st.integers(-2, 6) | st.text(max_size=2), max_size=5),
)


@settings(max_examples=50, deadline=None)
@given(
    edits=st.dictionaries(
        st.sampled_from(HEADER_FIELDS), HEADER_VALUES, min_size=1, max_size=3
    ),
    fit_payload=st.booleans(),
)
@example(edits={"feature_dim": 0}, fit_payload=True)
@example(edits={"eps_scale": 0.0}, fit_payload=False)
def test_rewritten_header_loads_or_fails_closed(tmp_path_factory, edits, fit_payload):
    # header values rewritten under a matching checksum; with `fit_payload`
    # the payload also takes the size the new header declares, and its
    # repeated rows need not be covariances at all
    def edit(h):
        header = json.loads(h)
        for field, value in edits.items():
            if value == DROP:
                header.pop(field)
            else:
                header[field] = value
        return json.dumps(header).encode()

    path = tmp_path_factory.mktemp("fuzz") / "stats.bin"
    path.write_bytes(STATS_V1.read_bytes())
    rewrite_stats(path, edit, sized_to_header if fit_payload else lambda p, h: p)
    try:
        load_stats(path)
    except StatsIoError:
        pass


@settings(max_examples=50, deadline=None)
@given(
    cut=st.integers(0, STATS_V1.stat().st_size),
    flips=st.lists(
        st.tuples(st.integers(0, STATS_V1.stat().st_size - 1), st.integers(1, 255)),
        max_size=3,
    ),
)
def test_damaged_bytes_fail_closed(tmp_path_factory, cut, flips):
    # a file cut short or with flipped bits never loads
    blob = bytearray(STATS_V1.read_bytes())
    for i, mask in flips:
        blob[i] ^= mask
    del blob[cut:]
    path = tmp_path_factory.mktemp("fuzz") / "stats.bin"
    path.write_bytes(bytes(blob))
    if bytes(blob) == STATS_V1.read_bytes():
        load_stats(path)
    else:
        with pytest.raises(StatsIoError):
            load_stats(path)
