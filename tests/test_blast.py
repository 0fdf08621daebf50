import numpy as np
import pytest

from lramimo.blast import (
    FactorizationError,
    classic_dfe_filters,
    fast_vblast_correlated,
    vblast_sorted_factorization,
)
from lramimo.checks import random_unimodular, sorted_factorization_oracle
from lramimo.lattice import lll_reduce, unimodular_inverse


def naive_sorted_factorization(matrix):
    """Reference with explicit Gram inverses; independent of the QR route."""
    m = np.asarray(matrix, dtype=float)
    n = m.shape[1]
    remaining = list(range(n))
    order, rows = [], []
    for _ in range(n):
        sub = m[:, remaining]
        gram_inv = np.linalg.inv(sub.T @ sub)
        k = int(np.argmin(np.diag(gram_inv)))
        rows.append((gram_inv @ sub.T)[k])
        order.append(remaining.pop(k))
    return np.vstack(rows), np.array(order)


class TestFrozenExamples:
    def test_orthogonal_equal_norm_ties_break_to_first_index(self):
        fs = vblast_sorted_factorization(2.0 * np.eye(3))
        np.testing.assert_array_equal(fs.perm, [0, 1, 2])
        np.testing.assert_allclose(fs.feedback, np.eye(3), atol=1e-12)

    def test_diagonal_picks_strongest_column_first(self):
        fs = vblast_sorted_factorization(np.diag([1.0, 2.0]))
        np.testing.assert_array_equal(fs.perm, [1, 0])

    def test_lower_triangular_channel(self):
        # Hand oracle: inv Gram diag (1, 2) picks stream 0 first, leaving
        # the unit column; both feedforward rows are unit vectors.
        m = np.array([[1.0, 0.0], [1.0, 1.0]])
        fs = vblast_sorted_factorization(m)
        np.testing.assert_array_equal(fs.perm, [0, 1])
        np.testing.assert_allclose(fs.feedforward, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(fs.feedback, m, atol=1e-12)

    def test_rejects_wide_and_rank_deficient(self):
        # A wrong shape is the caller's error, not a breakdown to redraw;
        # the kernel and its oracle agree on both.
        for factorize in (vblast_sorted_factorization, sorted_factorization_oracle):
            for wrong in (np.ones((2, 3)), np.ones(3)):
                with pytest.raises(ValueError, match="m >= n") as info:
                    factorize(wrong)
                assert not isinstance(info.value, (FactorizationError, np.linalg.LinAlgError))
            with pytest.raises(FactorizationError):
                factorize(np.array([[1.0, 2.0], [2.0, 4.0]]))


class TestAgainstNaiveOracle:
    def test_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            m_rows = n + int(rng.integers(0, 3))
            m = rng.normal(size=(m_rows, n))
            fs = vblast_sorted_factorization(m)
            ref_f, ref_order = naive_sorted_factorization(m)
            np.testing.assert_array_equal(fs.perm, ref_order)
            np.testing.assert_allclose(fs.feedforward, ref_f, atol=1e-9)


class TestInvariants:
    @staticmethod
    def _instances():
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            yield rng.normal(size=(n + int(rng.integers(0, 3)), n))

    def test_feedback_is_unit_lower_triangular(self):
        for m in self._instances():
            fs = vblast_sorted_factorization(m)
            raw = fs.feedforward @ m[:, fs.perm]
            n = raw.shape[0]
            upper = raw[np.triu_indices(n, k=1)]
            assert np.abs(upper).max(initial=0.0) < 1e-10, f"upper leakage {upper}"
            np.testing.assert_allclose(np.diag(raw), 1.0, atol=1e-10)

    def test_feedforward_rows_orthogonal(self):
        for m in self._instances():
            fs = vblast_sorted_factorization(m)
            gram = fs.feedforward @ fs.feedforward.T
            off = gram - np.diag(np.diag(gram))
            scale = np.abs(np.diag(gram)).max()
            assert np.abs(off).max() <= 1e-9 * scale

    def test_ql_reconstruction_orthonormal(self):
        # Row l of the feedforward filter is q_l / L_ll, so its norm is
        # 1 / |L_ll|, and the feedback rows divided by it give L up to signs.
        for m in self._instances():
            fs = vblast_sorted_factorization(m)
            low = fs.feedback / np.linalg.norm(fs.feedforward, axis=1)[:, None]
            q = m[:, fs.perm] @ np.linalg.inv(low)
            np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-9)

    def test_order_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            m = rng.normal(size=(5, 4))
            p1 = vblast_sorted_factorization(m).perm
            p2 = vblast_sorted_factorization(7.3 * m).perm
            np.testing.assert_array_equal(p1, p2)


class TestClassicDfeFilters:
    def test_zf_equals_plain_factorization(self):
        m = np.random.default_rng(3).normal(size=(4, 3))
        zf = classic_dfe_filters(m, "zf")
        ref = vblast_sorted_factorization(m)
        np.testing.assert_array_equal(zf.feedforward, ref.feedforward)
        np.testing.assert_array_equal(zf.perm, ref.perm)

    def test_mmse_identity_channel_halves(self):
        fs = classic_dfe_filters(np.eye(2), "mmse", 1.0)
        np.testing.assert_allclose(fs.feedforward, 0.5 * np.eye(2), atol=1e-12)
        assert fs.feedforward.shape == (2, 2)  # augmented columns dropped

    def test_mmse_zero_ratio_equals_zf(self):
        m = np.random.default_rng(9).normal(size=(4, 4))
        mmse = classic_dfe_filters(m, "mmse", 0.0)
        zf = classic_dfe_filters(m, "zf")
        np.testing.assert_allclose(mmse.feedforward, zf.feedforward, atol=1e-10)
        np.testing.assert_array_equal(mmse.perm, zf.perm)

    def test_rejects_unknown_criterion(self):
        with pytest.raises(ValueError):
            classic_dfe_filters(np.eye(2), "map")
        with pytest.raises(ValueError):
            classic_dfe_filters(np.eye(2), "mmse", -0.5)


class TestFastCorrelated:
    def test_scalar_frozen_value(self):
        fs = fast_vblast_correlated(np.array([[2.0]]), np.array([[1]]), 0.25)
        np.testing.assert_allclose(fs.feedforward, [[2.0 / 4.25, 0.5 / 4.25]], atol=1e-14)
        np.testing.assert_array_equal(fs.perm, [0])

    def test_identity_transform_matches_classic_mmse(self):
        rng = np.random.default_rng(21)
        m = rng.normal(size=(4, 4))
        zeta = 0.1
        fast = fast_vblast_correlated(m, np.eye(4, dtype=int), zeta)
        classic = classic_dfe_filters(m, "mmse", zeta)
        np.testing.assert_array_equal(fast.perm, classic.perm)
        np.testing.assert_allclose(fast.feedforward[:, :4], classic.feedforward, atol=1e-10)
        np.testing.assert_allclose(fast.feedback, classic.feedback, atol=1e-10)

    def test_matches_reference_on_reduced_bases(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            h = rng.normal(size=(n + int(rng.integers(0, 2)), n))
            zeta = 10.0 ** (-rng.uniform(0, 30) / 10.0)
            rb = lll_reduce(np.vstack([h, np.sqrt(zeta) * np.eye(n)]))
            zi = rb.unimodular_inv
            stacked = np.vstack([h @ zi, np.sqrt(zeta) * zi])
            ref = sorted_factorization_oracle(stacked)
            fast = fast_vblast_correlated(h, rb.unimodular, zeta)
            np.testing.assert_array_equal(fast.perm, ref.perm)
            np.testing.assert_allclose(fast.feedforward, ref.feedforward, rtol=0, atol=1e-9)
            np.testing.assert_allclose(fast.feedback, ref.feedback, rtol=0, atol=1e-9)

    def test_general_unimodular_transform(self):
        rng = np.random.default_rng(41)
        z = random_unimodular(rng, 3)
        h = rng.normal(size=(4, 3))
        zeta = 0.05
        zi = np.asarray(unimodular_inverse(z), dtype=float)
        stacked = np.vstack([h @ zi, np.sqrt(zeta) * zi])
        ref = sorted_factorization_oracle(stacked)
        fast = fast_vblast_correlated(h, z, zeta)
        np.testing.assert_array_equal(fast.perm, ref.perm)
        np.testing.assert_allclose(fast.feedforward, ref.feedforward, atol=1e-9)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            fast_vblast_correlated(np.eye(2), np.eye(2, dtype=int), 0.0)
