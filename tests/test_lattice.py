import gc

import numpy as np
import pytest

from lramimo import lattice
from lramimo.checks import integer_determinant, random_unimodular
from lramimo.lattice import ReductionError, lll_reduce, unimodular_inverse
from lramimo.model import RankDeficientError, augment


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
        assert rb.unimodular.tolist() == [[-50, -49], [1, 1]]
        assert rb.unimodular_inv.tolist() == [[-1, -49], [1, 50]]
        assert integer_determinant(rb.unimodular) == -1
        np.testing.assert_allclose(
            reduced_basis(self.H, rb.unimodular), [[-0.01, 0.5], [0.01, 0.5]], atol=1e-12
        )

    def test_defect_is_search_minimum(self):
        rb = lll_reduce(self.H)
        assert orthogonality_defect(reduced_basis(self.H, rb.unimodular)) <= 1.0 + 1e-9

    def test_matches_two_dimensional_greedy_oracle(self):
        c = reduced_basis(self.H, lll_reduce(self.H).unimodular)
        oracle = gauss_reduce_2d(self.H)
        assert orthogonality_defect(c) <= orthogonality_defect(oracle) + 1e-9
        lengths = sorted(np.linalg.norm(c, axis=0))
        oracle_lengths = sorted(np.linalg.norm(oracle, axis=0))
        np.testing.assert_allclose(lengths, oracle_lengths, atol=1e-12)


class TestTrivialBases:
    def test_identity_unchanged(self):
        rb = lll_reduce(np.eye(3))
        assert rb.unimodular_inv.tolist() == np.eye(3, dtype=int).tolist()
        assert rb.unimodular.tolist() == np.eye(3, dtype=int).tolist()

    def test_scaled_orthogonal_unchanged(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(4, 4)))
        basis = 2.5 * q
        rb = lll_reduce(basis)
        assert rb.unimodular_inv.tolist() == np.eye(4, dtype=int).tolist()
        assert rb.unimodular.tolist() == np.eye(4, dtype=int).tolist()

    def test_rejects_rank_deficient(self):
        with pytest.raises(RankDeficientError, match="basis is rank deficient"):
            lll_reduce(np.array([[1.0, 2.0], [2.0, 4.0]]))
        # Non-finite entries are a plain ValueError, before the SVD or the sweeps.
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="basis has non-finite entries") as info:
                lll_reduce(np.array([[1.0, 0.0], [0.0, bad]]))
            assert not isinstance(info.value, (ReductionError, RankDeficientError))

    # (3, 2, 3) is a stack of wide matrices; a stack of tall ones is reduced.
    @pytest.mark.parametrize("shape", [(2, 3), (4,), (3, 2, 3)])
    def test_wrong_shape_is_a_value_error_not_a_reduction_error(self, shape):
        with pytest.raises(ValueError, match="receive") as info:
            lll_reduce(np.ones(shape))
        assert not isinstance(info.value, (ReductionError, RankDeficientError))

    def test_bookkeeping_fault_is_a_runtime_error(self, monkeypatch):
        monkeypatch.setattr(lattice, "_is_identity", lambda arr: False)
        with pytest.raises(RuntimeError, match="bookkeeping") as info:
            lll_reduce(np.eye(2))
        assert not isinstance(info.value, ValueError)

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


def qr_per_visit_lll(basis: np.ndarray, delta: float):
    """LLL with a fresh orthogonalization on every visit (earlier algorithm).

    Returns (Z as nested lists of ints, reduced basis C): C is tracked in
    floats by the same column operations that build Z, so H = C Z up to
    the rounding of those operations alone.
    """
    c = np.array(basis, dtype=float)
    n = c.shape[1]
    z = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    k = 1
    while k < n:
        # R is the upper triangle of the raw geqrf output, read without a
        # triu copy; the strict lower triangle holds Householder vectors, so
        # a size reduction updates only the rows of column k down to j.
        r = np.linalg.qr(c, mode="raw")[0].T
        for j in range(k - 1, -1, -1):
            mu = r[j, k] / r[j, j]
            if abs(mu) > 0.5:
                q = int(round(mu))
                c[:, k] -= q * c[:, j]
                r[: j + 1, k] -= q * r[: j + 1, j]
                zk = z[k]
                zj = z[j]
                for t in range(n):
                    zj[t] += q * zk[t]
        mu_adj = r[k - 1, k] / r[k - 1, k - 1]
        if r[k, k] ** 2 >= (delta - mu_adj**2) * r[k - 1, k - 1] ** 2:
            k += 1
        else:
            c[:, [k - 1, k]] = c[:, [k, k - 1]]
            z[k - 1], z[k] = z[k], z[k - 1]
            k = max(k - 1, 1)
    return z, c


def reduced_basis(h, unimodular, delta=0.75):
    """The reduced basis C of the reduction of ``h`` to Z ``unimodular``, from the oracle.

    The oracle must find the same Z, so that its C comes from the same
    column operations as the reduction's.
    """
    z, c = qr_per_visit_lll(h, delta)
    assert z == unimodular.tolist(), "the oracle's Z differs from the reduction's"
    return c


def assert_reduced(h, rb, delta=0.75, reduced=None):
    """Postconditions of ``rb`` as an LLL reduction of ``h`` with ``delta``.

    ``reduced`` is the reduced basis C, by default the oracle's.
    """
    c = reduced_basis(h, rb.unimodular, delta) if reduced is None else reduced
    resid = np.linalg.norm(c @ rb.unimodular - h) / np.linalg.norm(h)
    assert resid <= 1e-12, f"reconstruction residual {resid}"
    assert integer_determinant(rb.unimodular) in (1, -1)
    assert rb.unimodular.dtype == np.int64 and rb.unimodular_inv.dtype == np.int64
    assert np.array_equal(rb.unimodular @ rb.unimodular_inv, np.eye(h.shape[1], dtype=np.int64))
    r = np.linalg.qr(c, mode="r")
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
            c = reduced_basis(h, rb.unimodular)
            assert_reduced(h, rb, reduced=c)
            assert orthogonality_defect(c) <= orthogonality_defect(h) * (1 + 1e-12)

    def test_deterministic(self):
        h = np.random.default_rng(5).normal(size=(6, 6))
        rb1 = lll_reduce(h)
        rb2 = lll_reduce(h)
        assert same_bits(rb1.unimodular_inv, rb2.unimodular_inv)
        assert rb1.unimodular.tolist() == rb2.unimodular.tolist()

    def test_near_dependent_columns_large_multipliers(self):
        # Column operations with multipliers ~1e3 must stay exact in Z.
        h = np.array([[1.0, 1000.001], [0.0, 0.001]])
        rb = lll_reduce(h)
        assert_reduced(h, rb)


def stacked_draws(shape, seed):
    """Gaussian bases of ``shape`` (..., m, n), each slice augmented by its own zeta."""
    rng = np.random.default_rng(seed)
    h = rng.normal(size=shape[:-2] + (shape[-2] - shape[-1], shape[-1]))
    zetas = 10.0 ** -rng.uniform(0, 3, size=shape[:-2])
    return np.stack([augment(hk, z) for hk, z in zip(h.reshape(-1, *h.shape[-2:]), zetas.ravel())]).reshape(shape)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStacks:
    @pytest.mark.parametrize("shape", [(10, 16, 8), (2, 3, 8, 4)])
    def test_each_slice_equals_its_own_reduction_bit_for_bit(self, shape):
        stack = stacked_draws(shape, seed=sum(shape))
        rb = lll_reduce(stack)
        assert rb.unimodular.shape == rb.unimodular_inv.shape == shape[:-2] + (shape[-1],) * 2
        for index in np.ndindex(shape[:-2]):
            alone = lll_reduce(stack[index])
            assert_reduced(stack[index], alone)
            for name in ("unimodular", "unimodular_inv"):
                want = getattr(alone, name)
                assert same_bits(getattr(rb, name)[index], want), (index, name)

    def test_one_rank_deficient_slice_fails_the_stack(self):
        stack = stacked_draws((5, 6, 3), seed=3)
        stack[2, :, 2] = stack[2, :, 0] - 2.0 * stack[2, :, 1]
        with pytest.raises(RankDeficientError, match="basis is rank deficient"):
            lll_reduce(stack)

    def test_a_non_finite_entry_fails_the_stack(self):
        stack = stacked_draws((2, 2, 6, 3), seed=4)
        stack[1, 0, 4, 2] = np.nan
        with pytest.raises(ValueError, match="basis has non-finite entries") as info:
            lll_reduce(stack)
        assert not isinstance(info.value, (ReductionError, RankDeficientError))

    def test_a_reduction_retains_only_its_two_integer_matrices(self):
        stack = stacked_draws((3, 2, 8, 4), seed=6)
        want = lll_reduce(stack)
        rb = lll_reduce(stack)
        stack[:] = 0.0
        for name in ("unimodular", "unimodular_inv"):
            assert same_bits(getattr(rb, name), getattr(want, name)), name
        # Walk what the result refers to, short of classes: besides its
        # instance dict and the dict's keys, only arrays, and those only the
        # two int64 fields and the buffers they view, no larger than they.
        arrays, seen, todo = [], set(), [rb]
        while todo:
            obj = todo.pop()
            if id(obj) in seen or isinstance(obj, type):
                continue
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                arrays.append(obj)
                todo.extend([] if obj.base is None else [obj.base])
            else:
                assert obj is rb or isinstance(obj, (dict, str)), obj
                todo.extend(gc.get_referents(obj))
        assert all(a.dtype == np.int64 for a in arrays), [a.dtype for a in arrays]
        assert any(a is rb.unimodular for a in arrays) and any(a is rb.unimodular_inv for a in arrays)
        owners = [a for a in arrays if a.base is None]
        assert sum(a.nbytes for a in owners) == rb.unimodular.nbytes + rb.unimodular_inv.nbytes


class _Proxy:
    """A module as one caller sees it, with some attributes replaced."""

    def __init__(self, module, **replaced):
        self.__dict__.update(replaced)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


def patch_lattice_inv(monkeypatch, fake):
    """Replace ``np.linalg.inv`` as ``lattice`` sees it, and nowhere else."""
    monkeypatch.setattr(lattice, "np", _Proxy(np, linalg=_Proxy(np.linalg, inv=fake)))


def _raises(a):
    raise np.linalg.LinAlgError("Singular matrix")


def _non_finite(a):
    out = np.linalg.inv(a)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0] = np.nan, np.inf, -np.inf
    return out


def _near_2_to_70(a):
    return np.linalg.inv(a) + 2.0**70


def _one_entry_off(a):
    out = np.linalg.inv(a)
    out.reshape(-1, *a.shape[-2:])[-1, 0, -1] += 1.0
    return out


class TestInverseAfterTheLoop:
    """Z^-1 comes from one float inverse of the Z stack, or else from ``unimodular_inverse``."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "fake, fallbacks",
        [(_raises, "all"), (_non_finite, "all"), (_near_2_to_70, "all"), (_one_entry_off, "one")],
    )
    @pytest.mark.parametrize("shape", [(16, 8), (3, 4, 16, 8)])
    def test_a_failed_float_inverse_falls_back_to_the_exact_one(self, monkeypatch, fake, fallbacks, shape):
        stack = stacked_draws(shape, seed=41)
        want = lll_reduce(stack)
        calls = []
        real = lattice.unimodular_inverse

        def counting(z):
            calls.append(z)
            return real(z)

        monkeypatch.setattr(lattice, "unimodular_inverse", counting)
        patch_lattice_inv(monkeypatch, fake)
        rb = lll_reduce(stack)
        slices = int(np.prod(shape[:-2]))
        assert len(calls) == (slices if fallbacks == "all" else 1)
        for name in ("unimodular", "unimodular_inv"):
            assert same_bits(getattr(rb, name), getattr(want, name)), name
        z, zinv = (a.reshape(-1, 8, 8) for a in (rb.unimodular, rb.unimodular_inv))
        for zk, zinvk in zip(z, zinv):
            assert zinvk.tolist() == real(zk).tolist()

    def test_a_non_unimodular_z_is_a_bookkeeping_error(self, monkeypatch):
        monkeypatch.setattr(lattice, "_reduce_columns", lambda r, delta: [[2, 0], [0, 1]])
        with pytest.raises(RuntimeError, match="bookkeeping") as info:
            lll_reduce(np.eye(2))
        assert not isinstance(info.value, ValueError)

    @pytest.mark.filterwarnings("error")
    def test_large_entries_take_the_exact_route_and_overflow_beyond_int64(self, monkeypatch):
        def reduce_to(z):
            monkeypatch.setattr(lattice, "_reduce_columns", lambda r, delta: z)
            return lll_reduce(np.eye(len(z)))

        # n max|Z| max|Z^-1| = 2^125: past the bound, so the exact inverse.
        assert reduce_to([[1, 2**62], [0, 1]]).unimodular_inv.tolist() == [[1, -(2**62)], [0, 1]]
        # Z fits in int64, but its inverse holds 2^80.
        shears = [[1, 2**40, 0], [0, 1, 2**40], [0, 0, 1]]
        with pytest.raises(OverflowError):
            reduce_to(shears)
        # That inverse modulo 2^64 gives Z Z^-1 = I in wrapping int64
        # arithmetic; the bound on n max|Z| max|Z^-1| rejects it.
        wrapped = np.array([[1.0, -(2.0**40), 0.0], [0.0, 1.0, -(2.0**40)], [0.0, 0.0, 1.0]])
        patch_lattice_inv(monkeypatch, lambda a: np.broadcast_to(wrapped, a.shape).copy())
        with pytest.raises(OverflowError):
            reduce_to(shears)


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

    def test_rejects_non_integer_entries(self):
        for bad in (0.5, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="is not an integer"):
                integer_determinant(np.array([[1.0, 0.0], [0.0, bad]]))


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
            np.array([[np.inf, 0.0], [0.0, 1.0]]),  # infinite entry
            np.array([[1.0, 0.0], [0.0, np.nan]]),  # NaN entry
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
