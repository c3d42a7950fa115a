import itertools
import warnings

import numpy as np
import pytest

from helpers import exact_precision, traced_held_mb, traced_peak_mb
from tta_align import data
from tta_align.config import ExperimentConfig
from tta_align.data import (
    MEAN_SHIFT_SCALE,
    NOISE_SIGMA_SCALE,
    ROTATION_DEGREES,
    SCALING_FACTOR,
    Dataset,
    ShiftSpec,
    ShiftTransform,
    SyntheticSpec,
    batch_stream,
    generate_dataset,
    mean_class_std,
    resolved_means,
    resolved_stds,
)
from tta_align.errors import ConfigInvalid
from tta_align.losses import mahalanobis


class TestSyntheticSpec:
    def test_defaults_validate(self):
        SyntheticSpec().validate()

    def test_single_class_rejected(self):
        with pytest.raises(ConfigInvalid):
            SyntheticSpec(n_classes=1).validate()

    def test_tiny_dims_rejected(self):
        with pytest.raises(ConfigInvalid):
            SyntheticSpec(input_dim=1).validate()
        with pytest.raises(ConfigInvalid):
            SyntheticSpec(n_train_per_class=1).validate()

    def test_cov_scales_length_checked(self):
        with pytest.raises(ConfigInvalid):
            SyntheticSpec(n_classes=3, cov_scales=[0.5, 1.0]).validate()

    def test_means_have_requested_radius(self):
        spec = SyntheticSpec(mean_scale=2.4)
        radii = np.linalg.norm(resolved_means(spec), axis=1)
        np.testing.assert_allclose(radii, 2.4, rtol=1e-12)

    def test_geometry_fixed_across_data_seeds(self):
        a = SyntheticSpec(seed=0)
        b = SyntheticSpec(seed=17)
        assert np.array_equal(resolved_means(a), resolved_means(b))
        assert np.array_equal(resolved_stds(a), resolved_stds(b))

    def test_duplicate_means_rejected(self):
        spec = SyntheticSpec(n_classes=2, input_dim=2, mean_scale=0.0)
        with pytest.raises(ConfigInvalid):
            resolved_means(spec)

    def test_cov_scales_give_isotropic_covs(self):
        # a scale's covariance is its square times I, so a negative scale
        # is the std of its magnitude
        spec = SyntheticSpec(n_classes=3, input_dim=4, cov_scales=[0.2, -0.6, 1.5])
        assert np.array_equal(resolved_stds(spec), [0.2, 0.6, 1.5])
        default = SyntheticSpec(n_classes=4)
        assert np.array_equal(resolved_stds(default), np.geomspace(0.2, 1.5, 4))


ARRAYS = ("train_x", "train_y", "test_x", "test_y", "target_x", "target_y")
PARTS = {"train": ARRAYS[:2], "test": ARRAYS[2:4], "target": ARRAYS[4:]}


def read_all(ds: Dataset) -> dict[str, np.ndarray]:
    """Every array of `ds`, read in order."""
    return {name: getattr(ds, name) for name in ARRAYS}


def eager_draw(spec: SyntheticSpec, shift: ShiftSpec | None) -> dict[str, np.ndarray]:
    """The six arrays of one generator drawing the parts in order."""
    rng = np.random.default_rng(spec.seed)
    sizes = (spec.n_train_per_class, spec.n_test_per_class, spec.n_test_per_class)
    parts = [data._sample_mixture(spec, n, rng) for n in sizes]
    if shift is not None:
        data.apply_shift(parts[2][0], shift, spec, rng)
    return dict(zip(ARRAYS, [a for part in parts for a in part]))


SHIFTS = {
    "gaussian_noise": ShiftTransform(kind="gaussian_noise"),
    "mean_shift": ShiftTransform(kind="mean_shift", direction=[1.0, -2.0, 0.5, 0.0]),
    "scaling": ShiftTransform(kind="scaling"),
    "rotation": ShiftTransform(kind="rotation", plane=(1, 3)),
}


class TestLazyDraw:
    @pytest.mark.parametrize("kind", SHIFTS)
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_any_read_order_gives_the_eager_arrays(self, kind, seed):
        # a part read first draws the parts ahead of it only to learn its
        # start; every array equals the one of an in-order draw
        spec = SyntheticSpec(
            n_classes=3, input_dim=4, n_train_per_class=7, n_test_per_class=5, seed=seed
        )
        shift = ShiftSpec(transforms=[SHIFTS[kind]], severity=3)
        expected = eager_draw(spec, shift)
        for order in itertools.permutations(PARTS):
            ds = generate_dataset(spec, shift)
            for part in order:
                for name in PARTS[part]:
                    assert getattr(ds, name).tobytes() == expected[name].tobytes(), (order, name)

    def test_a_part_is_drawn_once_and_kept(self):
        ds = generate_dataset(SyntheticSpec(n_train_per_class=4, n_test_per_class=4))
        assert ds.target_x is ds.target_x and ds.train_y is ds.train_y
        with pytest.raises(AttributeError):
            ds.train_x = np.zeros((12, 8))

    def test_a_later_edit_of_the_spec_draws_nothing_else(self):
        spec = SyntheticSpec(n_train_per_class=4, n_test_per_class=4, seed=2)
        shift = ShiftSpec(transforms=[ShiftTransform(kind="scaling")])
        expected = eager_draw(spec, shift)
        ds = generate_dataset(spec, shift)
        spec.seed, spec.n_test_per_class, shift.severity = 9, 6, 1
        assert ds.target_x.tobytes() == expected["target_x"].tobytes()

    def test_wide_target_alone_holds_only_the_target(self):
        # the wide benchmark spec: the target's arrays are 1.66 MiB of the
        # 3.97 MiB that the eager draw held
        spec = SyntheticSpec(n_classes=10, input_dim=16)
        read_all(generate_dataset(SyntheticSpec(n_train_per_class=2, n_test_per_class=2)))

        def target_only():
            ds = generate_dataset(spec, shift=None)
            ds.target_x, ds.target_y
            return ds

        assert traced_held_mb(target_only) < 1.8

    def test_source_reads_never_draw_or_shift_the_target(self, monkeypatch):
        drawn, shifted = [], []
        real_sample, real_shift = data._sample_mixture, data.apply_shift

        def sample(spec, n_per_class, rng):
            drawn.append(n_per_class)
            return real_sample(spec, n_per_class, rng)

        def shift_in_place(*args):
            shifted.append(args)
            real_shift(*args)

        monkeypatch.setattr(data, "_sample_mixture", sample)
        monkeypatch.setattr(data, "apply_shift", shift_in_place)
        spec = SyntheticSpec(n_train_per_class=6, n_test_per_class=4)
        ds = generate_dataset(spec, ShiftSpec(transforms=[ShiftTransform(kind="scaling")]))
        ds.train_x, ds.train_y, ds.test_x, ds.test_y
        assert drawn == [6, 4] and shifted == []

    def test_non_finite_part_is_refused_at_each_read(self):
        # class means near 1e307 are finite, four scalings by 3 are not: the
        # target is refused at every read, whether it is read first or after
        # the source, and the source parts still read
        spec = SyntheticSpec(n_train_per_class=4, n_test_per_class=4, mean_scale=1e307)
        shift = ShiftSpec(transforms=[ShiftTransform(kind="scaling")] * 4)
        target_first = generate_dataset(spec, shift)
        source_first = generate_dataset(spec, shift)
        assert np.all(np.isfinite(source_first.train_x))
        for ds in (target_first, source_first):
            for _ in range(2):
                with pytest.raises(ConfigInvalid, match="mixture and shift draw non-finite samples"):
                    ds.target_x
            assert np.all(np.isfinite(ds.train_x)) and np.all(np.isfinite(ds.test_x))

    def test_non_finite_class_means_are_refused_up_front(self):
        with pytest.raises(ConfigInvalid, match="gives non-finite class means"):
            generate_dataset(SyntheticSpec(mean_scale=1.7e308))


class TestGenerateDataset:
    def test_deterministic_given_seed(self):
        spec = SyntheticSpec(n_train_per_class=20, n_test_per_class=20, seed=5)
        shift = ShiftSpec(transforms=[ShiftTransform(kind="gaussian_noise")])
        a = generate_dataset(spec, shift)
        b = generate_dataset(spec, shift)
        for name in ARRAYS:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_shapes_and_label_balance(self):
        spec = SyntheticSpec(n_train_per_class=30, n_test_per_class=10)
        ds = generate_dataset(spec)
        assert ds.train_x.shape == (90, 8)
        assert ds.target_x.shape == (30, 8)
        assert np.array_equal(np.bincount(ds.train_y), [30, 30, 30])

    def test_wide_draw_keeps_one_copy_of_each_array(self):
        # the wide benchmark spec: its six arrays are 3.97 MiB; per-class
        # draws plus a concatenated copy of them peaked at 7.41 MiB. A first
        # draw warms the imports and caches, which a later one does not pay
        read_all(generate_dataset(SyntheticSpec(n_train_per_class=2, n_test_per_class=2)))
        spec = SyntheticSpec(n_classes=10, input_dim=16)
        assert traced_peak_mb(lambda: read_all(generate_dataset(spec, shift=None))) < 6.5

    @pytest.mark.parametrize("seed", range(16))
    def test_draw_is_that_of_the_covariance_matrix(self, monkeypatch, seed):
        # the benchmark's specs, default and wide, give bit for bit the
        # datasets of one multivariate_normal draw over std^2 I per class:
        # its SVD factor of std^2 I is exactly diag(std) for these stds
        def reference(spec, n_per_class, rng):
            means, stds = resolved_means(spec), resolved_stds(spec)
            covs = [s * s * np.eye(spec.input_dim) for s in stds]
            x = np.concatenate(
                [rng.multivariate_normal(m, c, size=n_per_class) for m, c in zip(means, covs)]
            )
            y = np.repeat(np.arange(spec.n_classes, dtype=np.int64), n_per_class)
            order = rng.permutation(x.shape[0])
            return x[order], y[order]

        cfg = ExperimentConfig.default(seed)
        wide = SyntheticSpec(n_classes=10, input_dim=16, seed=seed)
        for spec in (cfg.synthetic, wide):
            for shift in (None, cfg.shift):
                drawn = read_all(generate_dataset(spec, shift))
                with monkeypatch.context() as m:
                    m.setattr(data, "_sample_mixture", reference)
                    expected = read_all(generate_dataset(spec, shift))
                for name in ARRAYS:
                    assert np.array_equal(drawn[name], expected[name]), name

    def test_labels_preserved_by_shift(self):
        spec = SyntheticSpec(n_train_per_class=20, n_test_per_class=20, seed=2)
        clean = generate_dataset(spec, shift=None)
        for kind, extra in [
            ("gaussian_noise", {}),
            ("mean_shift", {"direction": [1.0] * 8}),
            ("scaling", {}),
            ("rotation", {"plane": (0, 3)}),
        ]:
            shifted = generate_dataset(
                spec, ShiftSpec(transforms=[ShiftTransform(kind=kind, **extra)])
            )
            assert np.array_equal(clean.target_y, shifted.target_y)
            assert not np.array_equal(clean.target_x, shifted.target_x)

    def test_zero_shift_matches_source_statistics(self):
        spec = SyntheticSpec(n_train_per_class=400, n_test_per_class=400, seed=3)
        ds = generate_dataset(spec, shift=None)
        n = ds.target_x.shape[0]
        sigma = np.std(ds.train_x, axis=0)
        gap = np.abs(ds.target_x.mean(axis=0) - ds.train_x.mean(axis=0))
        assert np.all(gap < 3.0 * sigma / np.sqrt(n))

    def test_mean_shift_moves_empirical_mean(self):
        spec = SyntheticSpec(n_train_per_class=400, n_test_per_class=400, seed=4)
        direction = np.zeros(8)
        direction[0] = 1.0
        severity = 3
        shift = ShiftSpec(
            transforms=[ShiftTransform(kind="mean_shift", direction=list(direction))],
            severity=severity,
        )
        clean = generate_dataset(spec, shift=None)
        shifted = generate_dataset(spec, shift)
        expected = MEAN_SHIFT_SCALE[severity] * mean_class_std(spec) * direction
        observed = shifted.target_x.mean(axis=0) - clean.target_x.mean(axis=0)
        np.testing.assert_allclose(observed, expected, atol=1e-9)

    @pytest.mark.parametrize("scale", [1e200, 1e-170, 1e-200])
    def test_mean_shift_direction_norm_may_over_or_underflow(self, scale):
        # the direction is taken as a unit vector: one whose norm would over-
        # or underflow is accepted with no warning and shifts the stream
        # exactly as the direction [1, 0, ...] does
        def target(first):
            doc = ExperimentConfig.default().to_dict()
            doc["synthetic"].update(n_train_per_class=30, n_test_per_class=30)
            direction = [first] + [0.0] * 7
            doc["shift"]["transforms"] = [{"kind": "mean_shift", "direction": direction}]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cfg = ExperimentConfig.from_dict(doc)
                return generate_dataset(cfg.synthetic, cfg.shift).target_x

        assert target(scale).tobytes() == target(1.0).tobytes()

    def test_scaling_multiplies(self):
        spec = SyntheticSpec(n_train_per_class=20, n_test_per_class=20, seed=5)
        clean = generate_dataset(spec, shift=None)
        shifted = generate_dataset(
            spec, ShiftSpec(transforms=[ShiftTransform(kind="scaling")], severity=2)
        )
        np.testing.assert_allclose(
            shifted.target_x, SCALING_FACTOR[2] * clean.target_x, atol=1e-12
        )

    def test_rotation_preserves_norms(self):
        spec = SyntheticSpec(n_train_per_class=20, n_test_per_class=20, seed=6)
        clean = generate_dataset(spec, shift=None)
        shifted = generate_dataset(
            spec,
            ShiftSpec(
                transforms=[ShiftTransform(kind="rotation", plane=(1, 4))], severity=4
            ),
        )
        np.testing.assert_allclose(
            np.linalg.norm(shifted.target_x, axis=1),
            np.linalg.norm(clean.target_x, axis=1),
            rtol=1e-12,
        )


class TestSeverity:
    def test_tables_strictly_increasing(self):
        for table in (NOISE_SIGMA_SCALE, MEAN_SHIFT_SCALE, SCALING_FACTOR, ROTATION_DEGREES):
            values = [table[s] for s in range(1, 6)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_severity_out_of_range(self):
        shift = ShiftSpec(transforms=[ShiftTransform(kind="gaussian_noise")], severity=6)
        with pytest.raises(ConfigInvalid):
            shift.validate(8)

    @pytest.mark.parametrize(
        "kind,extra",
        [
            ("gaussian_noise", {}),
            ("mean_shift", {"direction": [1.0] * 8}),
            ("scaling", {}),
            ("rotation", {"plane": (0, 1)}),
        ],
    )
    def test_input_space_distance_monotone_in_severity(self, kind, extra):
        # mean Mahalanobis distance to the true source class grows with
        # severity, averaged over 5 data seeds
        spec = SyntheticSpec(n_train_per_class=20, n_test_per_class=60)
        gaussians = [
            (mu, exact_precision(std * std * np.eye(spec.input_dim)))
            for mu, std in zip(resolved_means(spec), resolved_stds(spec))
        ]
        per_severity = []
        for severity in range(1, 6):
            shift = ShiftSpec(
                transforms=[ShiftTransform(kind=kind, **extra)], severity=severity
            )
            totals = []
            for seed in range(5):
                ds = generate_dataset(
                    SyntheticSpec(n_train_per_class=20, n_test_per_class=60, seed=seed),
                    shift,
                )
                totals.append(
                    np.mean(
                        [
                            mahalanobis(x, *gaussians[y])
                            for x, y in zip(ds.target_x, ds.target_y)
                        ]
                    )
                )
            per_severity.append(float(np.mean(totals)))
        assert all(a < b for a, b in zip(per_severity, per_severity[1:]))


class TestShiftValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigInvalid):
            ShiftTransform(kind="fog").validate(8)

    def test_mean_shift_needs_direction(self):
        with pytest.raises(ConfigInvalid):
            ShiftTransform(kind="mean_shift").validate(8)
        with pytest.raises(ConfigInvalid):
            ShiftTransform(kind="mean_shift", direction=[1.0, 0.0]).validate(8)

    def test_rotation_plane_bounds(self):
        with pytest.raises(ConfigInvalid):
            ShiftTransform(kind="rotation", plane=(0, 8)).validate(8)
        with pytest.raises(ConfigInvalid):
            ShiftTransform(kind="rotation", plane=(2, 2)).validate(8)


class TestBatchStream:
    def test_full_batches_and_remainder_drop(self):
        x = np.arange(50, dtype=np.float64).reshape(25, 2)
        y = np.arange(25)
        batches = batch_stream(x, y, 8)
        assert len(batches) == 3
        assert all(bx.shape == (8, 2) for bx, _ in batches)
        assert np.array_equal(batches[0][1], np.arange(8))

    def test_minimum_batch_size(self):
        with pytest.raises(ConfigInvalid):
            batch_stream(np.zeros((10, 2)), np.zeros(10), 1)
