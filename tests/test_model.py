import numpy as np
import pytest

from lramimo.model import (
    MimoChannel,
    apply_channel,
    augment,
    augment_observation,
    complex_matrix_to_real,
    complex_to_real_model,
    make_ask_constellation,
)


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
        h, v = complex_to_real_model(np.array([[1.0]]), np.array([1.0]))
        np.testing.assert_array_equal(h, np.eye(2))
        np.testing.assert_array_equal(v, [1.0, 0.0])

    def test_imaginary_unit(self):
        h, _ = complex_to_real_model(np.array([[1j]]), np.array([0j]))
        np.testing.assert_array_equal(h, [[0.0, -1.0], [1.0, 0.0]])

    def test_identity(self):
        h, _ = complex_to_real_model(np.eye(2, dtype=complex), np.zeros(2, dtype=complex))
        np.testing.assert_array_equal(h, np.eye(4))

    def test_product_equivalence(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m, n = rng.integers(1, 5, size=2)
            hc = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
            xc = rng.normal(size=n) + 1j * rng.normal(size=n)
            hr, xr = complex_to_real_model(hc, xc)
            yc = hc @ xc
            yr = np.concatenate([yc.real, yc.imag])
            np.testing.assert_allclose(hr @ xr, yr, atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            complex_to_real_model(np.eye(2, dtype=complex), np.zeros(3, dtype=complex))

    def test_matrix_only_helper(self):
        hc = np.array([[2.0 + 3.0j]])
        np.testing.assert_array_equal(complex_matrix_to_real(hc), [[2.0, -3.0], [3.0, 2.0]])


class TestChannelAndAugmentation:
    def test_rejects_rank_deficient(self):
        with pytest.raises(ValueError):
            MimoChannel(np.array([[1.0, 2.0], [2.0, 4.0]]), noise_var=0.1, symbol_var=1.0)

    def test_rejects_wide_matrix(self):
        with pytest.raises(ValueError):
            MimoChannel(np.ones((1, 2)), noise_var=0.1, symbol_var=1.0)

    def test_rejects_bad_variances(self):
        with pytest.raises(ValueError):
            MimoChannel(np.eye(2), noise_var=-0.1, symbol_var=1.0)
        with pytest.raises(ValueError):
            MimoChannel(np.eye(2), noise_var=0.1, symbol_var=0.0)

    def test_with_noise_var_changes_only_the_noise(self):
        ch = MimoChannel(np.array([[1.0, 0.5], [0.0, 2.0]]), noise_var=0.1, symbol_var=1.25)
        other = ch.with_noise_var(0.4)
        assert other.noise_var == 0.4 and ch.noise_var == 0.1
        assert other.matrix is ch.matrix and not other.matrix.flags.writeable
        assert other.symbol_var == 1.25 and other.inv_snr == 0.4 / 1.25

    @pytest.mark.parametrize("noise_var", [-0.1, float("nan")])
    def test_with_noise_var_rejects_negative_and_nan(self, noise_var):
        with pytest.raises(ValueError, match="noise_var"):
            MimoChannel(np.eye(2), noise_var=0.1, symbol_var=1.0).with_noise_var(noise_var)

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

    def test_augmented_pseudo_inverse_ignores_appended_zeros(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(4, 3))
        ch = MimoChannel(h, noise_var=0.2, symbol_var=1.0)
        bar = augment(ch.matrix, ch.inv_snr)
        y = rng.normal(size=4)
        ybar = augment_observation(y, ch.n_tx)
        pinv = np.linalg.pinv(bar)
        np.testing.assert_allclose(pinv @ ybar, pinv[:, :4] @ y, atol=1e-13)

    def test_augment_observation(self):
        np.testing.assert_array_equal(
            augment_observation(np.array([1.0, 2.0]), 2), [1.0, 2.0, 0.0, 0.0]
        )


class TestApplyChannel:
    def test_noiseless_product(self):
        ch = MimoChannel(np.array([[1.0, 0.0], [1.0, 1.0]]), noise_var=0.5, symbol_var=1.0)
        y = apply_channel(ch, np.array([0.5, -0.5]))
        np.testing.assert_array_equal(y, [0.5, 0.0])

    def test_explicit_noise_is_deterministic(self):
        ch = MimoChannel(np.eye(2), noise_var=0.5, symbol_var=1.0)
        noise = np.array([0.1, -0.2])
        y1 = apply_channel(ch, np.array([0.5, 0.5]), noise=noise)
        y2 = apply_channel(ch, np.array([0.5, 0.5]), noise=noise)
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_allclose(y1, [0.6, 0.3])

    def test_rng_noise_has_right_scale(self):
        ch = MimoChannel(np.eye(2), noise_var=4.0, symbol_var=1.0)
        rng = np.random.default_rng(11)
        draws = np.array(
            [apply_channel(ch, np.zeros(2), rng=rng) for _ in range(20_000)]
        )
        assert abs(draws.var() - 4.0) < 0.15

    def test_shape_errors(self):
        ch = MimoChannel(np.eye(2), noise_var=0.1, symbol_var=1.0)
        with pytest.raises(ValueError):
            apply_channel(ch, np.zeros(3))
        with pytest.raises(ValueError):
            apply_channel(ch, np.zeros(2), noise=np.zeros(3))
