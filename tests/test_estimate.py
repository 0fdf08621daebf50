import numpy as np
import pytest

from lramimo.blast import vblast_sorted_factorization
from lramimo.checks import SCHUR_TOL, equivalence_suite, random_unimodular
from lramimo.equalize import le_mmse_matrix
from lramimo.estimate import (
    GaussianPrior,
    PartitionedGramian,
    PartitionedStats,
    conditional_stats,
    correlated_fb_matrix,
    correlated_ff_matrix,
    error_covariance,
    linear_mmse_estimate,
    partition_stats,
    partitioned_gramian,
    schur_gramian_identity,
    sorting_metric,
)
from lramimo.lattice import matrix_to_float, unimodular_inverse, z_covariance


def _white_prior(n, var=1.0):
    return GaussianPrior(np.zeros(n), var * np.eye(n))


class TestLinearMmseEstimate:
    def test_scalar_frozen(self):
        # x ~ N(1, 1), y = 2x + n with unit noise, y = 5:
        # gain = 2/5, xhat = 1 + 0.4*(5 - 2) = 2.2.
        prior = GaussianPrior(np.array([1.0]), np.array([[1.0]]))
        xhat = linear_mmse_estimate(np.array([5.0]), np.array([[2.0]]), np.eye(1), prior)
        np.testing.assert_allclose(xhat, [2.2], atol=1e-14)

    def test_zero_observation_matrix_returns_prior_mean(self):
        prior = GaussianPrior(np.array([3.0, -1.0]), np.diag([2.0, 5.0]))
        xhat = linear_mmse_estimate(np.zeros(2), np.zeros((2, 2)), np.eye(2), prior)
        np.testing.assert_allclose(xhat, prior.mean, atol=1e-12)

    def test_matches_joint_covariance_route(self):
        # Estimate via cross/observation covariances built from the model.
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            m_rows = n + int(rng.integers(0, 2))
            h = rng.normal(size=(m_rows, n))
            a = rng.normal(size=(n, n))
            prior = GaussianPrior(rng.normal(size=n), a @ a.T + 0.5 * np.eye(n))
            noise = np.diag(rng.uniform(0.2, 2.0, size=m_rows))
            y = rng.normal(size=m_rows)
            got = linear_mmse_estimate(y, h, noise, prior)
            cov_xy = prior.cov @ h.T
            cov_yy = h @ prior.cov @ h.T + noise
            want = prior.mean + cov_xy @ np.linalg.solve(cov_yy, y - h @ prior.mean)
            np.testing.assert_allclose(got, want, atol=1e-10)


class TestErrorCovariance:
    def test_identity_channel_halves(self):
        got = error_covariance(np.eye(2), np.eye(2), np.eye(2))
        np.testing.assert_allclose(got, 0.5 * np.eye(2), atol=1e-14)

    def test_zero_channel_returns_prior_cov(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        got = error_covariance(np.zeros((2, 2)), np.eye(2), cov)
        np.testing.assert_allclose(got, cov, atol=1e-12)

    def test_empirical_error_covariance(self):
        rng = np.random.default_rng(11)
        h = np.array([[1.0, 0.5], [0.0, 1.0], [0.3, -0.2]])
        prior = _white_prior(2, 1.0)
        noise_var = 0.5
        pred = error_covariance(h, noise_var * np.eye(3), prior.cov)
        n_draws = 200_000
        x = rng.normal(size=(n_draws, 2))
        y = x @ h.T + rng.normal(scale=np.sqrt(noise_var), size=(n_draws, 3))
        gain = prior.cov @ h.T @ np.linalg.inv(h @ prior.cov @ h.T + noise_var * np.eye(3))
        err = x - y @ gain.T
        emp = err.T @ err / n_draws
        se = 3.0 / np.sqrt(n_draws)
        assert np.abs(emp - pred).max() < 3 * se


class TestConditionalStats:
    def test_frozen_bivariate(self):
        # means (0, 1), cov [[2,1],[1,2]], observe block 1 at -1:
        # gain 1/2, conditional mean 1 + 0.5*(-1) = 0.5, variance 2 - 0.5.
        stats = PartitionedStats(
            mean1=np.array([0.0]),
            mean2=np.array([1.0]),
            cov11=np.array([[2.0]]),
            cov12=np.array([[1.0]]),
            cov21=np.array([[1.0]]),
            cov22=np.array([[2.0]]),
        )
        mean, cov = conditional_stats(stats, np.array([-1.0]))
        np.testing.assert_allclose(mean, [0.5], atol=1e-14)
        np.testing.assert_allclose(cov, [[1.5]], atol=1e-14)

    def test_empty_known_block_passthrough(self):
        full = np.array([[2.0, 0.5], [0.5, 1.0]])
        stats = partition_stats(np.array([1.0, -2.0]), full, 0)
        mean, cov = conditional_stats(stats, np.zeros(0))
        np.testing.assert_allclose(mean, [1.0, -2.0])
        np.testing.assert_allclose(cov, full)

    def test_sequential_equals_joint(self):
        # Conditioning on two variables one at a time matches doing it jointly.
        rng = np.random.default_rng(23)
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + np.eye(3)
        mean = rng.normal(size=3)
        known = rng.normal(size=2)

        joint_mean, joint_cov = conditional_stats(partition_stats(mean, cov, 2), known)

        m1, c1 = conditional_stats(partition_stats(mean, cov, 1), known[:1])
        step = PartitionedStats(
            mean1=m1[:1], mean2=m1[1:],
            cov11=c1[:1, :1], cov12=c1[:1, 1:],
            cov21=c1[1:, :1], cov22=c1[1:, 1:],
        )
        m2, c2 = conditional_stats(step, known[1:])
        np.testing.assert_allclose(m2, joint_mean, atol=1e-12)
        np.testing.assert_allclose(c2, joint_cov, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionedStats(
                mean1=np.zeros(1), mean2=np.zeros(1),
                cov11=np.eye(1), cov12=np.array([[1.0]]),
                cov21=np.array([[2.0]]), cov22=np.eye(1),
            )
        with pytest.raises(ValueError):
            GaussianPrior(np.zeros(2), np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            GaussianPrior(np.zeros(2), np.diag([1.0, -0.5]))


class TestCorrelatedFeedforward:
    def test_identity_blocks_frozen(self):
        # Unit channel and regularizer with one decided stream: the open
        # stream sees gain 1/(1 + 1) on its own observation entry.
        ff = correlated_ff_matrix(np.eye(2), np.eye(2), 1)
        np.testing.assert_allclose(ff, [[0.0, 0.5]], atol=1e-14)

    def test_no_known_streams_equals_mmse_le(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            h = rng.normal(size=(n + 1, n))
            zeta = 10.0 ** (-rng.uniform(0, 20) / 10.0)
            ff = correlated_ff_matrix(h, np.sqrt(zeta) * np.eye(n), 0)
            np.testing.assert_allclose(ff, le_mmse_matrix(h, zeta), atol=1e-10)

    def test_agrees_on_reduced_bases(self):
        # Both internal routes must agree; exercised over LLL-style inputs.
        rng = np.random.default_rng(43)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            z = random_unimodular(rng, n)
            zi = matrix_to_float(unimodular_inverse(z))
            h = rng.normal(size=(n + 1, n))
            zeta = 10.0 ** (-rng.uniform(0, 25) / 10.0)
            l = int(rng.integers(0, n))
            ff = correlated_ff_matrix(h @ zi, np.sqrt(zeta) * zi, l)
            assert ff.shape == (n - l, n + 1)
            assert np.isfinite(ff).all()


class TestCorrelatedFeedback:
    def test_scalar_frozen(self):
        # Shear transform [[1,1],[0,1]] on a unit channel, zeta = 1, first
        # stream decided.  Hand trace: columns of Z^-1 give the Gramian 4
        # and cross term -2, so the single weight is -1/2; the conditional
        # route (shrink -1/2, prediction gain 1/2, cancellation -1/4) lands
        # on the same value.
        z = np.array([[1, 1], [0, 1]], dtype=object)
        zi = matrix_to_float(unimodular_inverse(z))
        fb = correlated_fb_matrix(np.eye(2) @ zi, 1.0 * zi, np.array([0, 1]), 1)
        np.testing.assert_allclose(fb, [[-0.5]], atol=1e-12)

    def test_identity_transform_is_pure_cancellation(self):
        # With uncorrelated streams the conditional-mean path reduces to
        # interference cancellation; compare against the direct product.
        rng = np.random.default_rng(51)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            h = rng.normal(size=(n + 1, n))
            zeta = 0.3
            reg = np.sqrt(zeta) * np.eye(n)
            perm = rng.permutation(n)
            l = int(rng.integers(1, n))
            fb = correlated_fb_matrix(h, reg, perm, l)
            ff = correlated_ff_matrix(h[:, perm], reg[:, perm], l)
            want = ff @ h[:, perm[:l]]
            np.testing.assert_allclose(fb, want, atol=1e-10)

    def test_no_known_streams_empty(self):
        fb = correlated_fb_matrix(np.eye(2), 0.5 * np.eye(2), np.array([0, 1]), 0)
        assert fb.shape == (2, 0)

    def test_matches_vblast_weights(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            z = random_unimodular(rng, n)
            zi = matrix_to_float(unimodular_inverse(z))
            h = rng.normal(size=(n + 1, n)) @ zi
            zeta = 10.0 ** (-rng.uniform(3, 20) / 10.0)
            reg = np.sqrt(zeta) * zi
            fs = vblast_sorted_factorization(np.vstack([h, reg]))
            for l in range(1, n):
                fb = correlated_fb_matrix(h, reg, fs.perm, l)
                # row l of the successive factorization carries the same
                # weights for the decided block
                np.testing.assert_allclose(fb[0], fs.feedback[l, :l], atol=1e-8)


class TestSchurGramianIdentity:
    def test_identity_transform(self):
        res = schur_gramian_identity(np.eye(3, dtype=int), 0.25, 1.0, 0.25, 1)
        assert res < 1e-12

    def test_shear_frozen(self):
        z = np.array([[1, 1], [0, 1]], dtype=object)
        res = schur_gramian_identity(z, 1.0, 1.0, 1.0, 1)
        assert res < 1e-12

    def test_random_sweep(self):
        rng = np.random.default_rng(71)
        worst = 0.0
        for _ in range(60):
            n = int(rng.integers(2, 7))
            z = random_unimodular(rng, n)
            zeta = 10.0 ** (-rng.uniform(0, 30) / 10.0)
            sv = rng.uniform(0.25, 2.0)
            l = int(rng.integers(0, n))
            worst = max(worst, schur_gramian_identity(z, zeta, sv, zeta * sv, l))
        assert worst < 1e-9

    def test_equivalence_suite_reproducer_within_tolerance(self):
        # `equiv-suite --instances 40 --seed 2117771765` draws an
        # ill-conditioned Z Z^T; inverting it directly left a Schur
        # residual of 1.4e-10, over SCHUR_TOL.
        report = equivalence_suite(40, seed=2117771765)
        assert report.schur <= SCHUR_TOL
        assert report.within()


class TestSortingMetric:
    def test_identity_channel_frozen(self):
        # Gram = (1 + zeta) I with zeta = 1: every stream scores 1/2... the
        # implementation returns noise_var-scaled MSEs; frozen at 0.5 each.
        metric = sorting_metric(np.eye(2), np.eye(2), 0)
        np.testing.assert_allclose(metric, [0.5, 0.5], atol=1e-14)

    def test_diagonal_orders_strongest_first(self):
        metric = sorting_metric(np.diag([1.0, 2.0]), 0.0 * np.eye(2), 0)
        np.testing.assert_allclose(metric, [1.0, 0.25], atol=1e-12)
        assert np.argmin(metric) == 1

    def test_noise_var_scales_linearly(self):
        rng = np.random.default_rng(81)
        h = rng.normal(size=(3, 3))
        reg = 0.5 * np.eye(3)
        base = sorting_metric(h, reg, 0, noise_var=1.0)
        scaled = sorting_metric(h, reg, 0, noise_var=2.5)
        np.testing.assert_allclose(scaled, 2.5 * base, atol=1e-12)


class TestPartitionedGramian:
    def test_assemble_matches_scaled_gram(self):
        rng = np.random.default_rng(91)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            z = random_unimodular(rng, n)
            zeta = 10.0 ** (-rng.uniform(0, 20) / 10.0)
            sv = rng.uniform(0.5, 2.0)
            nv = zeta * sv
            zi = matrix_to_float(unimodular_inverse(z))
            reg = np.sqrt(zeta) * zi
            l = int(rng.integers(0, n + 1))
            pg = partitioned_gramian(reg, l, noise_var=nv)
            assert isinstance(pg, PartitionedGramian)
            np.testing.assert_allclose(pg.assemble(), reg.T @ reg / nv, atol=1e-12)
            # equals the inverse of the lattice-transformed prior covariance
            prior = z_covariance(z, sv)
            tol = 1e-12 * max(1.0, np.abs(prior).max()) ** 2
            np.testing.assert_allclose(pg.assemble() @ prior, np.eye(n), atol=tol)

    def test_block_shapes(self):
        pg = partitioned_gramian(0.5 * np.eye(4), 1, noise_var=1.0)
        assert pg.known_block.shape == (1, 1)
        assert pg.cross_block.shape == (1, 3)
        assert pg.residual_block.shape == (3, 3)
