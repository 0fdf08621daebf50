import numpy as np
import pytest

from lramimo import lattice
from lramimo.checks import integer_determinant, random_unimodular
from lramimo.lattice import (
    ReductionError,
    lll_reduce,
    matrix_to_float,
    unimodular_inverse,
)
from lramimo.model import augment


def orthogonality_defect(basis):
    """Product of column norms over the lattice volume; 1 iff orthogonal."""
    b = np.asarray(basis, dtype=float)
    sign, logdet = np.linalg.slogdet(b.T @ b)
    assert sign > 0, "basis is rank deficient"
    return float(np.exp(np.sum(np.log(np.linalg.norm(b, axis=0))) - 0.5 * logdet))


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

    def test_sweep_cap_hit_raises(self, monkeypatch):
        # Consecutive Fibonacci columns: every Gauss step swaps, 6 sweeps.
        basis = np.array([[89.0, 55.0], [55.0, 34.0]])
        lll_reduce(basis, delta=1.0)
        monkeypatch.setattr(lattice, "_MAX_SWEEPS_PER_DIM", 1)  # 4 sweeps at n = 2
        with pytest.raises(ReductionError, match="did not converge within 4 sweeps"):
            lll_reduce(basis, delta=1.0)


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


class TestRandomUnimodular:
    def test_entries_are_python_ints_with_unit_determinant(self):
        # Python ints keep the products exact at any size; n_ops = 0 checks
        # the identity the operations start from.
        rng = np.random.default_rng(29)
        for n in range(1, 9):
            for n_ops in (0, None, 40):
                z = random_unimodular(rng, n, n_ops, int(rng.integers(1, 4)))
                assert z.dtype == object and z.shape == (n, n)
                assert all(type(v) is int for v in z.flat), z
                assert abs(integer_determinant(z)) == 1


class TestUnimodularInverse:
    def test_shear(self):
        z = np.array([[1, 1], [0, 1]])
        assert unimodular_inverse(z).tolist() == [[1, -1], [0, 1]]

    def test_swap_with_negative_determinant(self):
        z = np.array([[0, 1], [1, 0]])
        assert unimodular_inverse(z).tolist() == [[0, 1], [1, 0]]

    def test_rejects_non_unimodular(self):
        for matrix in (
            np.diag([1, 2]),
            np.diag([-2, 1]),
            np.array([[4, 2], [1, 1]]),  # det 2
            np.array([[1, 0], [0, -3]]),  # det -3
            np.array([[2, 1], [1, -1]]),  # det -3
            np.array([[1, 0, 0], [0, 0, 3], [0, -1, 0]]),  # det 3
            np.array([[1, 2], [2, 4]]),  # singular
            np.array([[1, 0, 0], [0, 0, 0], [1, 0, 1]]),  # zero column
            np.array([[1.5, 0.0], [0.0, 1.0]]),  # non-integer entry
        ):
            with pytest.raises(ValueError):
                unimodular_inverse(matrix)

    def test_random_products_invert_exactly(self):
        rng = np.random.default_rng(23)
        bases = [
            random_unimodular(
                rng, int(rng.integers(1, 17)), int(rng.integers(0, 61)), int(rng.integers(1, 4))
            )
            for _ in range(200)
        ]
        for _ in range(20):
            h = rng.normal(size=(16, 16))
            bases.append(lll_reduce(augment(h, 10.0 ** -rng.uniform(0, 3))).unimodular)
        # Entries near 10^12: the products in Z Zinv reach 10^24.
        bases.append(np.array([[10**12, 10**12 - 1], [10**12 + 1, 10**12]], dtype=object))
        for z in bases:
            zi = unimodular_inverse(z)
            n = z.shape[0]
            rows = z.tolist()
            cols = list(zip(*zi.tolist()))
            assert all(type(v) is int for v in zi.flat)
            assert [[sum(a * b for a, b in zip(r, c)) for c in cols] for r in rows] == [
                [int(i == j) for j in range(n)] for i in range(n)
            ], f"Z Zinv != I for\n{z}"
