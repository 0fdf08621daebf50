import numpy as np
import pytest

from lramimo.model import (
    MimoChannel,
    RankDeficientError,
    _require_full_column_rank,
    augment,
    complex_matrix_to_real,
    make_ask_constellation,
)


def complex_to_real_vector(vector):
    """Real parts stacked over imaginary parts, the vector form paired with
    ``complex_matrix_to_real``."""
    v = np.asarray(vector, dtype=complex)
    return np.concatenate([v.real, v.imag])


class TestConstellation:
    def test_binary_points_and_variance(self):
        c = make_ask_constellation(2)
        np.testing.assert_array_equal(c.points, [-0.5, 0.5])
        assert c.variance == 0.25
        assert c.amplitude_limit == 0.5

    def test_quaternary_variance_matches_enumeration(self):
        c = make_ask_constellation(4)
        expected = [-1.5, -0.5, 0.5, 1.5]
        np.testing.assert_array_equal(c.points, expected)
        # frozen from the explicit average of squared points
        assert c.variance == np.mean(np.square(expected)) == 1.25

    @pytest.mark.parametrize("order", [8, 16])
    def test_structure(self, order):
        c = make_ask_constellation(order)
        assert len(c.points) == order
        assert abs(c.points.mean()) == 0.0
        np.testing.assert_allclose(np.diff(c.points), 1.0)
        np.testing.assert_array_equal(c.points, -c.points[::-1])

    @pytest.mark.parametrize("order", [3, 5, 0, 1, -2, 2.0, True])
    def test_rejects_non_even_orders(self, order):
        with pytest.raises(ValueError):
            make_ask_constellation(order)

    def test_sample_variance_within_three_standard_errors(self):
        c = make_ask_constellation(4)
        rng = np.random.default_rng(101)
        n = 200_000
        draws = rng.choice(c.points, size=n)
        sample_var = np.mean(draws**2)
        fourth = np.mean(c.points**4)
        se = np.sqrt((fourth - c.variance**2) / n)
        assert abs(sample_var - c.variance) <= 3 * se, (
            f"sample variance {sample_var} vs {c.variance}, se {se}"
        )


class TestComplexToReal:
    def test_real_scalar(self):
        np.testing.assert_array_equal(complex_matrix_to_real(np.array([[1.0]])), np.eye(2))

    def test_imaginary_unit(self):
        h = complex_matrix_to_real(np.array([[1j]]))
        np.testing.assert_array_equal(h, [[0.0, -1.0], [1.0, 0.0]])

    def test_identity(self):
        np.testing.assert_array_equal(complex_matrix_to_real(np.eye(2, dtype=complex)), np.eye(4))

    def test_product_equivalence(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m, n = rng.integers(1, 5, size=2)
            hc = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
            xc = rng.normal(size=n) + 1j * rng.normal(size=n)
            hr = complex_matrix_to_real(hc)
            assert hr.shape == (2 * m, 2 * n)
            np.testing.assert_allclose(
                hr @ complex_to_real_vector(xc), complex_to_real_vector(hc @ xc), atol=1e-13
            )

    def test_dimension_mismatch(self):
        for bad in (np.zeros(2, dtype=complex), np.zeros((2, 2, 2), dtype=complex)):
            with pytest.raises(ValueError):
                complex_matrix_to_real(bad)

    def test_matrix_only_helper(self):
        hc = np.array([[2.0 + 3.0j]])
        np.testing.assert_array_equal(complex_matrix_to_real(hc), [[2.0, -3.0], [3.0, 2.0]])


class TestChannelAndAugmentation:
    def test_rejects_rank_deficient(self):
        with pytest.raises(ValueError):
            MimoChannel(np.array([[1.0, 2.0], [2.0, 4.0]]), noise_var=0.1, symbol_var=1.0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="channel matrix has non-finite entries") as info:
                MimoChannel(np.array([[1.0, 0.0], [0.0, bad]]), noise_var=0.1, symbol_var=1.0)
            assert not isinstance(info.value, RankDeficientError)

    def test_an_accepted_channel_can_give_a_rank_deficient_augmented_basis(self):
        """The rank rule's threshold grows with the row count, so near zeta = 0
        [H; sqrt(zeta) I] is not rank deficient only where H is.  An 8x8 H of
        condition number 8.3e8 passes as a channel; by the same rule its
        augmented basis fails at zeta = 0 and 1e-20 and passes at 1e-17, where
        sqrt(zeta) clears the threshold."""
        rng = np.random.default_rng(0)
        u, v = (np.linalg.qr(rng.normal(size=(8, 8)))[0] for _ in range(2))
        h = u @ np.diag(np.geomspace(1.0, 1 / 8.3e8, 8)) @ v.T
        MimoChannel(h, noise_var=1.0, symbol_var=1.0)
        for zeta in (0.0, 1e-20):
            with pytest.raises(RankDeficientError, match="basis is rank deficient"):
                _require_full_column_rank(augment(h, zeta), "basis")
        _require_full_column_rank(augment(h, 1e-17), "basis")

    def test_rejects_wide_matrix(self):
        with pytest.raises(ValueError):
            MimoChannel(np.ones((1, 2)), noise_var=0.1, symbol_var=1.0)

    def test_rejects_a_stack_of_matrices(self):
        # The rank check takes stacks of bases; a channel is one matrix.
        with pytest.raises(ValueError, match="2-D") as info:
            MimoChannel(np.stack([np.eye(2)] * 3), noise_var=0.1, symbol_var=1.0)
        assert not isinstance(info.value, RankDeficientError)

    def test_rejects_bad_variances(self):
        for noise_var in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="noise_var"):
                MimoChannel(np.eye(2), noise_var=noise_var, symbol_var=1.0)
        with pytest.raises(ValueError):
            MimoChannel(np.eye(2), noise_var=0.1, symbol_var=0.0)

    def test_keeps_its_own_read_only_copy_of_the_matrix(self):
        h = np.eye(2)
        ch = MimoChannel(h, noise_var=0.1, symbol_var=1.0)
        assert h.flags.writeable
        assert not ch.matrix.flags.writeable
        assert not np.shares_memory(ch.matrix, h)
        h[0, 0] = 5.0
        assert ch.matrix[0, 0] == 1.0

    def test_augment_identity_unit_ratio(self):
        ch = MimoChannel(np.eye(2), noise_var=1.0, symbol_var=1.0)
        bar = augment(ch.matrix, ch.inv_snr)
        np.testing.assert_array_equal(bar, np.vstack([np.eye(2), np.eye(2)]))
        assert bar.shape == (4, 2)

    def test_augment_quarter_ratio(self):
        h = np.array([[1.0, 2.0], [3.0, 4.0]])
        ch = MimoChannel(h, noise_var=0.25, symbol_var=1.0)
        bar = augment(ch.matrix, ch.inv_snr)
        np.testing.assert_allclose(bar[2:], 0.5 * np.eye(2))

    def test_augment_noiseless_gives_zero_block(self):
        ch = MimoChannel(np.eye(3), noise_var=0.0, symbol_var=1.0)
        bar = augment(ch.matrix, ch.inv_snr)
        np.testing.assert_array_equal(bar[3:], np.zeros((3, 3)))

    def test_augment_stack_equals_each_slice_augmented_alone(self):
        rng = np.random.default_rng(4)
        hs = rng.normal(size=(3, 5, 4))
        zetas = [0.0, 1e-3, 0.37, 1e3]
        got = augment(hs[:, None], zetas)
        alone = np.array([[augment(h, zeta) for zeta in zetas] for h in hs])
        # The matrix stacked on sqrt(zeta) I as the definition reads.
        want = np.array([[np.vstack([h, np.sqrt(zeta) * np.eye(4)]) for zeta in zetas] for h in hs])
        assert got.shape == alone.shape == want.shape == (3, 4, 9, 4)
        assert got.tobytes() == alone.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="inv_snr"):
            augment(hs, [[0.1], [-1.0], [0.1]])

    def test_augmented_pseudo_inverse_ignores_appended_zeros(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(4, 3))
        ch = MimoChannel(h, noise_var=0.2, symbol_var=1.0)
        bar = augment(ch.matrix, ch.inv_snr)
        y = rng.normal(size=4)
        ybar = np.concatenate([y, np.zeros(3)])
        pinv = np.linalg.pinv(bar)
        np.testing.assert_allclose(pinv @ ybar, pinv[:, :4] @ y, atol=1e-13)

