import numpy as np
import pytest

from lramimo.lattice import (
    ReductionError,
    integer_determinant,
    lll_reduce,
    matrix_to_float,
    orthogonality_defect,
    unimodular_inverse,
    z_covariance,
)


def gauss_reduce_2d(basis):
    """Greedy two-dimensional reduction; provably reaches the minimal basis."""
    b = [basis[:, 0].copy(), basis[:, 1].copy()]
    if np.dot(b[0], b[0]) > np.dot(b[1], b[1]):
        b.reverse()
    while True:
        q = round(np.dot(b[0], b[1]) / np.dot(b[0], b[0]))
        b[1] = b[1] - q * b[0]
        if np.dot(b[1], b[1]) >= np.dot(b[0], b[0]):
            return np.column_stack(b)
        b.reverse()


class TestWorkedExample:
    # Nearly parallel columns (1, 0) and (0.99, 0.01).  The minimal
    # orthogonality defect over unimodular transforms with entries in
    # [-60, 60] is 1.0 (exhaustive elementary-operation search, 70504
    # candidates); the reduction must reach it.
    H = np.array([[1.0, 0.99], [0.0, 0.01]])

    def test_reduced_basis_and_transform(self):
        rb = lll_reduce(self.H)
        np.testing.assert_allclose(
            rb.reduced, [[-0.01, 0.5], [0.01, 0.5]], atol=1e-12
        )
        assert rb.unimodular.tolist() == [[-50, -49], [1, 1]]
        assert integer_determinant(rb.unimodular) == -1

    def test_defect_is_search_minimum(self):
        rb = lll_reduce(self.H)
        assert orthogonality_defect(rb.reduced) <= 1.0 + 1e-9

    def test_matches_two_dimensional_greedy_oracle(self):
        rb = lll_reduce(self.H)
        oracle = gauss_reduce_2d(self.H)
        assert orthogonality_defect(rb.reduced) <= orthogonality_defect(oracle) + 1e-9
        lengths = sorted(np.linalg.norm(rb.reduced, axis=0))
        oracle_lengths = sorted(np.linalg.norm(oracle, axis=0))
        np.testing.assert_allclose(lengths, oracle_lengths, atol=1e-12)


class TestTrivialBases:
    def test_identity_unchanged(self):
        rb = lll_reduce(np.eye(3))
        np.testing.assert_array_equal(rb.reduced, np.eye(3))
        assert rb.unimodular.tolist() == np.eye(3, dtype=int).tolist()

    def test_scaled_orthogonal_unchanged(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))
        basis = 2.5 * q
        rb = lll_reduce(basis)
        np.testing.assert_allclose(rb.reduced, basis, atol=1e-12)
        assert rb.unimodular.tolist() == np.eye(4, dtype=int).tolist()

    def test_rejects_rank_deficient(self):
        with pytest.raises(ReductionError):
            lll_reduce(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            lll_reduce(np.eye(2), delta=0.2)
        lll_reduce(np.eye(2), delta=1.0)  # boundary allowed


def assert_reduced(h, rb, delta=0.75):
    """Postconditions of ``rb`` as an LLL reduction of ``h`` with ``delta``."""
    zf = matrix_to_float(rb.unimodular)
    resid = np.linalg.norm(rb.reduced @ zf - h) / np.linalg.norm(h)
    assert resid <= 1e-12, f"reconstruction residual {resid}"
    assert integer_determinant(rb.unimodular) in (1, -1)
    prod = rb.unimodular @ rb.unimodular_inv
    assert all(
        prod[i, j] == (1 if i == j else 0)
        for i in range(prod.shape[0])
        for j in range(prod.shape[1])
    )
    r = np.linalg.qr(rb.reduced, mode="r")
    n = r.shape[1]
    for i in range(n):
        for j in range(i):
            mu = r[j, i] / r[j, j]
            assert abs(mu) <= 0.5 + 1e-9, f"size reduction violated: mu={mu}"
    for k in range(1, n):
        mu = r[k - 1, k] / r[k - 1, k - 1]
        lhs = r[k, k] ** 2 + 1e-9 * r[k - 1, k - 1] ** 2
        assert lhs >= (delta - mu**2) * r[k - 1, k - 1] ** 2, f"Lovasz violated at {k}"


class TestPostconditions:
    def test_random_sweep(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            m = n + int(rng.integers(0, 3))
            h = rng.normal(size=(m, n))
            rb = lll_reduce(h)
            assert_reduced(h, rb)
            assert orthogonality_defect(rb.reduced) <= orthogonality_defect(h) * (1 + 1e-12)

    def test_deterministic(self):
        h = np.random.default_rng(5).normal(size=(6, 6))
        rb1 = lll_reduce(h)
        rb2 = lll_reduce(h)
        np.testing.assert_array_equal(rb1.reduced, rb2.reduced)
        assert rb1.unimodular.tolist() == rb2.unimodular.tolist()

    def test_near_dependent_columns_large_multipliers(self):
        # Column operations with multipliers ~1e3 must stay exact in Z.
        h = np.array([[1.0, 1000.001], [0.0, 0.001]])
        rb = lll_reduce(h)
        assert_reduced(h, rb)


class TestIntegerDeterminant:
    def test_against_permutation_expansion(self):
        from itertools import permutations

        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            a = rng.integers(-6, 7, size=(n, n))
            expected = 0
            for perm in permutations(range(n)):
                sign = 1
                seen = list(perm)
                for i in range(n):
                    for j in range(i + 1, n):
                        if seen[i] > seen[j]:
                            sign = -sign
                term = sign
                for i in range(n):
                    term *= int(a[i, perm[i]])
                expected += term
            assert integer_determinant(a) == expected

    def test_large_entries_stay_exact(self):
        a = np.array([[10**12, 1], [1, 10**12]], dtype=object)
        assert integer_determinant(a) == 10**24 - 1


class TestUnimodularInverse:
    def test_shear(self):
        z = np.array([[1, 1], [0, 1]])
        assert unimodular_inverse(z).tolist() == [[1, -1], [0, 1]]

    def test_swap_with_negative_determinant(self):
        z = np.array([[0, 1], [1, 0]])
        assert unimodular_inverse(z).tolist() == [[0, 1], [1, 0]]

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            unimodular_inverse(np.diag([1, 2]))
        with pytest.raises(ValueError):
            unimodular_inverse(np.array([[1.5, 0.0], [0.0, 1.0]]))

    def test_random_products_invert_exactly(self):
        from lramimo.checks import random_unimodular

        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            z = random_unimodular(rng, n)
            zi = unimodular_inverse(z)
            prod = z @ zi
            assert all(
                prod[i, j] == (1 if i == j else 0) for i in range(n) for j in range(n)
            ), f"Z Zinv != I for\n{z}"


class TestZCovariance:
    def test_identity(self):
        np.testing.assert_array_equal(z_covariance(np.eye(2, dtype=int), 0.25), 0.25 * np.eye(2))

    def test_shear(self):
        cov = z_covariance(np.array([[1, 1], [0, 1]]), 1.0)
        np.testing.assert_array_equal(cov, [[2.0, 1.0], [1.0, 1.0]])

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError):
            z_covariance(np.eye(2, dtype=int), 0.0)

    def test_sample_covariance(self):
        z = np.array([[1, 1], [0, 1]])
        cov = z_covariance(z, 0.25)
        rng = np.random.default_rng(31)
        n = 100_000
        symbols = rng.choice([-0.5, 0.5], size=(2, n))
        transformed = matrix_to_float(z) @ symbols
        sample = (transformed @ transformed.T) / n
        for i in range(2):
            for j in range(2):
                se = np.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / n)
                assert abs(sample[i, j] - cov[i, j]) <= 3 * se
