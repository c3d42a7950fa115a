"""The source Gaussians' algebra: `stats.regularized_precisions` (which
matrices have a precision, and its values against independent oracles) and
the biased moments of `stats._moments`, which every class and the global
pair of a fit take."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fit_source_stats, gauss_jordan_inverse, random_spd
from tta_align.errors import DimensionMismatch, EmptyInput, NonFiniteInput, NotPositiveDefinite
from tta_align.network import as_matrix
from tta_align.stats import _moments, regularized_precisions


def precision(a) -> np.ndarray:
    """The unregularized precision of one matrix, through the stacked routine."""
    return regularized_precisions(np.asarray(a, dtype=np.float64)[None], 0.0)[0]


def moments(x) -> tuple[np.ndarray, np.ndarray]:
    """`_moments` of a copy of `x`, which it centres in place."""
    return _moments(np.array(x, dtype=np.float64))


class TestWhichMatricesHaveAPrecision:
    """Which matrices have a precision: those with a Cholesky factor."""

    def test_identity(self):
        assert np.array_equal(precision(np.eye(3)), np.eye(3))

    def test_diagonal_square_roots(self):
        # the factor is diag(2, 4), so every step is exact
        assert np.array_equal(precision(np.diag([4.0, 16.0])), np.diag([0.25, 0.0625]))

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            precision(np.diag([1.0, -1.0]))

    def test_singular_matrix_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            precision(np.zeros((3, 3)))

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            precision(a)
        # any matrix of the stack, not only the first
        with pytest.raises(ValueError):
            regularized_precisions(np.stack([np.eye(2), a]), 1e-6)


class TestPrecisionSolves:
    """Solving A x = b with the precision, as the Mahalanobis forms do."""

    def test_identity(self):
        inv = precision(np.eye(3))
        assert np.array_equal(inv @ np.array([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_diagonal_division(self):
        inv = precision(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(inv @ np.array([4.0, 9.0]), [1.0, 1.0])

    def test_against_gauss_jordan(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 6)
        b = rng.normal(size=6)
        x = precision(a) @ b
        expected = gauss_jordan_inverse(a) @ b
        np.testing.assert_allclose(x, expected, rtol=0, atol=1e-8 * np.abs(expected).max())

    def test_solve_inverts_multiply(self):
        rng = np.random.default_rng(17)
        a = random_spd(rng, 5)
        inv = precision(a)
        for _ in range(100):
            x = rng.normal(size=5)
            back = inv @ (a @ x)
            assert np.max(np.abs(back - x)) < 1e-8 * max(1.0, np.max(np.abs(x)))


class TestPrecisionAgainstOracles:
    def test_matches_gauss_jordan(self):
        rng = np.random.default_rng(23)
        a = random_spd(rng, 6)
        np.testing.assert_allclose(precision(a), gauss_jordan_inverse(a), atol=1e-10)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(29)
        for inv in regularized_precisions(np.stack([random_spd(rng, 7) for _ in range(3)]), 1e-6):
            assert np.array_equal(inv, inv.T)

    def test_rank_deficient_covariance_with_ridge(self):
        # 20 samples in 64 dimensions: rank 19 before the ridge, condition
        # number near 1e9 after it, as a rank-deficient class covariance is
        rng = np.random.default_rng(43)
        _, cov = moments(rng.normal(size=(20, 64)))
        a = cov + 1e-8 * np.eye(64)
        inv = precision(a)
        expected = gauss_jordan_inverse(a)
        np.testing.assert_allclose(inv, expected, rtol=0, atol=1e-6 * np.abs(expected).max())
        assert np.array_equal(inv, inv.T)

    def test_overflowing_inverse_rejected(self):
        # factors (the pivots are about 1e-155), but the inverse is about 1e310
        with pytest.raises(NotPositiveDefinite, match="overflows"):
            precision(1e-310 * np.eye(4))


class TestMeanAndCov:
    def test_single_sample(self):
        x = np.array([1.5, -2.0, 0.25])
        mu, cov = moments(x[None, :])
        assert np.array_equal(mu, x)
        assert np.array_equal(cov, np.zeros((3, 3)))

    def test_symmetric_pair(self):
        mu, cov = moments(np.array([[-1.0, 0.0], [1.0, 0.0]]))
        assert np.array_equal(mu, [0.0, 0.0])
        assert np.array_equal(cov, [[1.0, 0.0], [0.0, 0.0]])

    def test_two_pass_oracle(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(50, 4))
        centred = x.copy()
        mu, cov = _moments(centred)
        # naive two-pass reference with explicit loops
        ref_mu = np.zeros(4)
        for row in x:
            ref_mu += row
        ref_mu /= 50
        ref_cov = np.zeros((4, 4))
        for row in x:
            delta = row - ref_mu
            ref_cov += np.outer(delta, delta)
        ref_cov /= 50
        assert np.max(np.abs(mu - ref_mu)) < 1e-12
        assert np.max(np.abs(cov - ref_cov)) < 1e-12
        assert np.array_equal(centred, x - mu)

    def test_biased_normalization(self):
        # N in the denominator, not N-1
        x = np.array([[0.0], [2.0]])
        _, cov = moments(x)
        assert cov[0, 0] == 1.0

    def test_exact_symmetry_and_psd(self):
        rng = np.random.default_rng(37)
        x = rng.normal(size=(20, 5))
        _, cov = moments(x)
        assert np.array_equal(cov, cov.T)
        eigvals = np.linalg.eigvalsh(cov)
        assert np.min(eigvals) >= -1e-10 * np.trace(cov)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(30, 3))
        mu_a, cov_a = moments(x)
        perm = rng.permutation(30)
        mu_b, cov_b = moments(x[perm])
        assert np.max(np.abs(mu_a - mu_b)) < 1e-12
        assert np.max(np.abs(cov_a - cov_b)) < 1e-12

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            fit_source_stats(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))

    def test_inconsistent_shapes(self):
        # only an N x d matrix is a sample set
        for samples in ([], np.zeros(3), np.zeros((2, 3, 1))):
            with pytest.raises(DimensionMismatch):
                fit_source_stats(samples, np.zeros(2, dtype=np.int64))

    def test_fit_takes_every_pair_from_the_helper(self):
        rng = np.random.default_rng(47)
        x = rng.normal(size=(40, 3))
        y = np.repeat([0, 1], 20)
        stats = fit_source_stats(x, y)
        for c in range(2):
            mu, cov = moments(x[y == c])
            assert np.array_equal(stats.class_mus[c], mu)
            assert np.array_equal(stats.class_sigmas[c], cov)
        mu, cov = moments(x)
        assert np.array_equal(stats.global_mu, mu)
        assert np.array_equal(stats.global_sigma, cov)


class TestValidators:
    def test_as_matrix(self):
        with pytest.raises(DimensionMismatch):
            as_matrix(np.zeros(3))
        with pytest.raises(NonFiniteInput):
            as_matrix([[np.inf, 0.0], [0.0, 1.0]])
        # NonFiniteInput is also a ValueError
        with pytest.raises(ValueError):
            as_matrix([[np.nan]])
        with pytest.raises(NonFiniteInput):
            precision([[np.inf, 0.0], [0.0, 1.0]])


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(2, 6))
def test_factor_solve_property(seed, d):
    rng = np.random.default_rng(seed)
    a = random_spd(rng, d)
    x = rng.normal(size=d)
    back = precision(a) @ (a @ x)
    assert np.max(np.abs(back - x)) < 1e-8 * max(1.0, np.max(np.abs(x)))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 40), d=st.integers(1, 5))
def test_mean_cov_shift_property(seed, n, d):
    # covariance is invariant to translating every sample by the same vector
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    shift = rng.normal(size=d)
    mu_a, cov_a = moments(x)
    mu_b, cov_b = moments(x + shift)
    assert np.max(np.abs(mu_b - (mu_a + shift))) < 1e-10
    assert np.max(np.abs(cov_a - cov_b)) < 1e-10
