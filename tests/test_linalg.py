import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gauss_jordan_inverse, random_spd
from tta_align.errors import DimensionMismatch, EmptyInput, NotPositiveDefinite
from tta_align.linalg import as_matrix, mean_and_cov, spd_factor, spd_inverse


class TestSpdFactor:
    def test_identity(self):
        lower = spd_factor(np.eye(3))
        assert np.array_equal(lower, np.eye(3))

    def test_diagonal_square_roots(self):
        lower = spd_factor(np.diag([4.0, 9.0]))
        assert np.array_equal(lower, np.diag([2.0, 3.0]))

    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        a = random_spd(rng, 6)
        lower = spd_factor(a)
        err = np.linalg.norm(lower @ lower.T - a) / np.linalg.norm(a)
        assert err < 1e-10

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            spd_factor(np.diag([1.0, -1.0]))

    def test_singular_matrix_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            spd_factor(np.zeros((3, 3)))

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            spd_factor(a)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            spd_factor(np.ones((2, 3)))


class TestSpdSolve:
    """Solving A x = b with the factored inverse, as the Mahalanobis forms do."""

    def test_identity(self):
        inv = spd_inverse(spd_factor(np.eye(3)))
        assert np.array_equal(inv @ np.array([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_diagonal_division(self):
        inv = spd_inverse(spd_factor(np.diag([4.0, 9.0])))
        np.testing.assert_allclose(inv @ np.array([4.0, 9.0]), [1.0, 1.0])

    def test_against_gauss_jordan(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 6)
        b = rng.normal(size=6)
        x = spd_inverse(spd_factor(a)) @ b
        expected = gauss_jordan_inverse(a) @ b
        np.testing.assert_allclose(x, expected, rtol=0, atol=1e-8 * np.abs(expected).max())

    def test_solve_inverts_multiply(self):
        rng = np.random.default_rng(17)
        a = random_spd(rng, 5)
        inv = spd_inverse(spd_factor(a))
        for _ in range(100):
            x = rng.normal(size=5)
            back = inv @ (a @ x)
            assert np.max(np.abs(back - x)) < 1e-8 * max(1.0, np.max(np.abs(x)))


class TestSpdInverse:
    def test_matches_gauss_jordan(self):
        rng = np.random.default_rng(23)
        a = random_spd(rng, 6)
        inv = spd_inverse(spd_factor(a))
        np.testing.assert_allclose(inv, gauss_jordan_inverse(a), atol=1e-10)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(29)
        inv = spd_inverse(spd_factor(random_spd(rng, 7)))
        assert np.array_equal(inv, inv.T)

    def test_rank_deficient_covariance_with_ridge(self):
        # 20 samples in 64 dimensions: rank 19 before the ridge, condition
        # number near 1e9 after it, as a rank-deficient class covariance is
        rng = np.random.default_rng(43)
        _, cov = mean_and_cov(rng.normal(size=(20, 64)))
        a = cov + 1e-8 * np.eye(64)
        inv = spd_inverse(spd_factor(a))
        expected = gauss_jordan_inverse(a)
        np.testing.assert_allclose(inv, expected, rtol=0, atol=1e-6 * np.abs(expected).max())
        assert np.array_equal(inv, inv.T)

    def test_overflowing_inverse_rejected(self):
        # factors (the pivots are about 1e-155), but the inverse is about 1e310
        with pytest.raises(NotPositiveDefinite, match="overflows"):
            spd_inverse(spd_factor(1e-310 * np.eye(4)))


class TestMeanAndCov:
    def test_single_sample(self):
        x = np.array([1.5, -2.0, 0.25])
        mu, cov = mean_and_cov(x[None, :])
        assert np.array_equal(mu, x)
        assert np.array_equal(cov, np.zeros((3, 3)))

    def test_symmetric_pair(self):
        mu, cov = mean_and_cov(np.array([[-1.0, 0.0], [1.0, 0.0]]))
        assert np.array_equal(mu, [0.0, 0.0])
        assert np.array_equal(cov, [[1.0, 0.0], [0.0, 0.0]])

    def test_two_pass_oracle(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(50, 4))
        mu, cov = mean_and_cov(x)
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

    def test_biased_normalization(self):
        # N in the denominator, not N-1
        x = np.array([[0.0], [2.0]])
        _, cov = mean_and_cov(x)
        assert cov[0, 0] == 1.0

    def test_exact_symmetry_and_psd(self):
        rng = np.random.default_rng(37)
        x = rng.normal(size=(20, 5))
        _, cov = mean_and_cov(x)
        assert np.array_equal(cov, cov.T)
        eigvals = np.linalg.eigvalsh(cov)
        assert np.min(eigvals) >= -1e-10 * np.trace(cov)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(30, 3))
        mu_a, cov_a = mean_and_cov(x)
        perm = rng.permutation(30)
        mu_b, cov_b = mean_and_cov(x[perm])
        assert np.max(np.abs(mu_a - mu_b)) < 1e-12
        assert np.max(np.abs(cov_a - cov_b)) < 1e-12

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            mean_and_cov(np.zeros((0, 3)))

    def test_inconsistent_shapes(self):
        # only an N x d matrix is a sample set
        for samples in ([], np.zeros(3), np.zeros((2, 3, 1))):
            with pytest.raises(DimensionMismatch):
                mean_and_cov(samples)


class TestValidators:
    def test_as_matrix(self):
        with pytest.raises(DimensionMismatch):
            as_matrix(np.zeros(3))
        with pytest.raises(ValueError):
            as_matrix([[np.inf, 0.0], [0.0, 1.0]])


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(2, 6))
def test_factor_solve_property(seed, d):
    rng = np.random.default_rng(seed)
    a = random_spd(rng, d)
    lower = spd_factor(a)
    x = rng.normal(size=d)
    back = spd_inverse(lower) @ (a @ x)
    assert np.max(np.abs(back - x)) < 1e-8 * max(1.0, np.max(np.abs(x)))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 40), d=st.integers(1, 5))
def test_mean_cov_shift_property(seed, n, d):
    # covariance is invariant to translating every sample by the same vector
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    shift = rng.normal(size=d)
    mu_a, cov_a = mean_and_cov(x)
    mu_b, cov_b = mean_and_cov(x + shift)
    assert np.max(np.abs(mu_b - (mu_a + shift))) < 1e-10
    assert np.max(np.abs(cov_a - cov_b)) < 1e-10
