import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import fit_source_stats, key_twice, rewrite_archive, small_model
from tta_align import network
from tta_align.errors import (
    ConfigInvalid,
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
    STATS_ARRAYS,
    estimate_source_stats,
    load_stats,
    regularized_precisions,
    save_stats,
)


STATS_V1 = Path(__file__).parent / "data" / "stats_v1.bin"
TWICE = "<twice>"  # a header edit that names the field twice, with one value


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


def saved_stats(path, seed=8, mode="class_wise"):
    """Stats fitted on random features, saved to `path` and returned."""
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(120, 4))
    labels = rng.integers(0, 3, size=120)
    stats = fit_source_stats(feats, labels, mode=mode, eps_scale=1e-4)
    save_stats(stats, path)
    return stats


def assert_same_stats(loaded, stats):
    """Every field of `loaded` equals that of `stats`, each array bit for bit."""
    for name in ("covariance_mode", "eps_scale", "warnings", "feature_dim", "n_classes"):
        assert getattr(loaded, name) == getattr(stats, name), name
    for name in ("class_counts", "class_precisions", *STATS_ARRAYS):
        a, b = getattr(loaded, name), getattr(stats, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        stats = saved_stats(tmp_path / "stats.bin")
        assert_same_stats(load_stats(tmp_path / "stats.bin"), stats)

    def test_refuses_format_v1(self):
        # written from the `saved_stats()` data by the binary frame of
        # version 1; stats refit from their checkpoint, deterministically
        with pytest.raises(FormatVersionMismatch, match="rewrite it with `tta-align stats`"):
            load_stats(STATS_V1)

    @pytest.mark.parametrize("mode", COVARIANCE_MODES)
    def test_class_stacks_match_classes(self, tmp_path, mode):
        stats = saved_stats(tmp_path / "stats.bin", mode=mode)
        for s in (stats, load_stats(tmp_path / "stats.bin")):
            # the class kernel's analytic gradient assumes exact symmetry
            assert np.array_equal(s.class_precisions, s.class_precisions.mT)

    def test_tied_round_trip(self, tmp_path):
        stats = saved_stats(tmp_path / "stats.bin", mode="tied")
        assert_same_stats(load_stats(tmp_path / "stats.bin"), stats)

    def test_tied_header_over_differing_covariances(self, tmp_path):
        # a tied fit writes one pooled covariance for every class, so a
        # "tied" header over distinct class covariances was never fitted
        path = tmp_path / "stats.bin"
        saved_stats(path)
        rewrite_archive(path, lambda header: header.update(covariance_mode="tied"))
        with pytest.raises(StatsIoError, match="differ"):
            load_stats(path)

    @pytest.mark.parametrize(
        "mode", ["diagonal", "TIED", ["tied"], None], ids=["diagonal", "TIED", "list", "null"]
    )
    def test_unknown_covariance_mode(self, tmp_path, mode):
        path = tmp_path / "stats.bin"
        saved_stats(path)
        rewrite_archive(path, lambda header: header.update(covariance_mode=mode))
        with pytest.raises(StatsIoError, match=re.escape("must be one of ['class_wise', 'tied']")):
            load_stats(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "stats.bin"
        saved_stats(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 40])
        with pytest.raises(StatsIoError):
            load_stats(path)

    def test_flipped_payload_byte(self, tmp_path):
        # a byte of a class mean flipped: the entry fails its CRC-32
        path = tmp_path / "stats.bin"
        stats = saved_stats(path)
        blob = bytearray(path.read_bytes())
        blob[blob.find(stats.class_mus.tobytes()) + 3] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(StatsIoError, match="CRC-32"):
            load_stats(path)

    def test_version_bump(self, tmp_path):
        path = tmp_path / "stats.bin"
        saved_stats(path)
        # named as another version whatever else the header holds
        rewrite_archive(path, lambda header: header.update(format_version=99, note="v99"))
        with pytest.raises(FormatVersionMismatch):
            load_stats(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "stats.bin"
        path.write_bytes(b"NOTSTATS" + b"\x00" * 64)
        with pytest.raises(StatsIoError):
            load_stats(path)

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "stats.bin"
        saved_stats(path)
        rewrite_archive(path, lambda header: "{not json" + json.dumps(header))
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
            # the arrays take the shapes these declare (no feature columns,
            # or no classes), and the sample counts the classes
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
            ("format_version", None),
            ("format_version", True),
            ("n_samples", TWICE),
        ],
    )
    def test_header_field_malformed(self, tmp_path, field, value):
        def edit(header):
            if value is None:
                del header[field]
            elif value == TWICE:
                return key_twice(header, field)
            else:
                header[field] = value
            if field == "n_classes":
                header["n_samples"] = header["n_samples"][:value]

        path = tmp_path / "stats.bin"
        saved_stats(path)
        rewrite_archive(path, edit, sized_to_header)
        with pytest.raises(StatsIoError):
            load_stats(path)

    @pytest.mark.parametrize(
        "name, index, value",
        [
            ("class_mus", (0, 0), np.nan),
            ("class_sigmas", (0, 0, 1), np.inf),
            ("global_sigma", (-1, -1), -np.inf),
        ],
        ids=["class_mean", "class_sigma", "global_sigma"],
    )
    def test_non_finite_payload(self, tmp_path, name, index, value):
        # a valid archive whose statistics hold a NaN or an infinity
        path = tmp_path / "stats.bin"
        saved_stats(path)

        def poke(arrays, header):
            arrays[name][index] = value

        rewrite_archive(path, edit_arrays=poke)
        with pytest.raises(StatsIoError, match=f"{name} is not finite float64"):
            load_stats(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda arrays: arrays.pop("global_mu"),
            lambda arrays: arrays.update(class_precisions=np.eye(4)[None].repeat(3, 0)),
        ],
        ids=["missing", "extra"],
    )
    def test_arrays_not_those_of_the_header(self, tmp_path, edit):
        path = tmp_path / "stats.bin"
        saved_stats(path)
        rewrite_archive(path, edit_arrays=lambda arrays, header: edit(arrays))
        with pytest.raises(StatsIoError, match="the arrays are not those of"):
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


def sized_to_header(arrays: dict, header) -> None:
    """`arrays` repeated or cut in place to the shapes `header` declares, so
    that a header edit reaches the checks past the shapes; unchanged when
    the header declares no shapes, or ones of more than 8192 entries."""
    try:
        d, n_classes = header["feature_dim"], header["n_classes"]
    except (KeyError, TypeError):
        return
    if type(d) is not int or type(n_classes) is not int or min(d, n_classes) < 0:
        return
    shapes = dict(zip(STATS_ARRAYS, [(n_classes, d), (n_classes, d, d), (d,), (d, d)]))
    if sum(math.prod(shape) for shape in shapes.values()) > 1 << 13:
        return
    for name, shape in shapes.items():
        arrays[name] = np.resize(arrays[name], shape)


HEADER_FIELDS = [
    "format_version",
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


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The bytes of a saved stats file and the statistics it holds."""
    path = tmp_path_factory.mktemp("saved") / "stats.bin"
    stats = saved_stats(path)
    return path.read_bytes(), stats


@settings(max_examples=50, deadline=None)
@given(
    edits=st.dictionaries(
        st.sampled_from(HEADER_FIELDS), HEADER_VALUES, min_size=1, max_size=3
    ),
    fit_arrays=st.booleans(),
)
@example(edits={"feature_dim": 0}, fit_arrays=True)
@example(edits={"eps_scale": 0.0}, fit_arrays=False)
def test_rewritten_header_loads_or_fails_closed(saved, tmp_path_factory, edits, fit_arrays):
    # header values rewritten inside a valid archive; with `fit_arrays` the
    # arrays also take the shapes the new header declares, and their
    # repeated entries need not be covariances at all
    def edit(header):
        for field, value in edits.items():
            if value == DROP:
                header.pop(field)
            else:
                header[field] = value

    path = tmp_path_factory.mktemp("fuzz") / "stats.bin"
    path.write_bytes(saved[0])
    rewrite_archive(path, edit, sized_to_header if fit_arrays else None)
    try:
        load_stats(path)
    except StatsIoError:
        pass


@settings(max_examples=50, deadline=None)
@given(
    cut=st.none() | st.integers(0, 1 << 13),
    flips=st.lists(st.tuples(st.integers(0, 1 << 13), st.integers(1, 255)), max_size=3),
)
def test_damaged_bytes_fail_closed(saved, tmp_path_factory, cut, flips):
    # a file with flipped bits, cut short or not, loads the statistics it
    # held (the damage missed every byte that is read) or is refused
    good, stats = saved
    blob = bytearray(good)
    for i, mask in flips:
        blob[i % len(blob)] ^= mask
    if cut is not None:
        del blob[cut % (len(blob) + 1) :]
    path = tmp_path_factory.mktemp("fuzz") / "stats.bin"
    path.write_bytes(bytes(blob))
    try:
        loaded = load_stats(path)
    except StatsIoError:
        return
    assert_same_stats(loaded, stats)
