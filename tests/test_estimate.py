import numpy as np

from lramimo.blast import vblast_sorted_factorization
from lramimo.checks import SCHUR_TOL, equivalence_suite, lra_le_mmse_matrix, random_unimodular
from lramimo.estimate import (
    correlated_fb_matrix,
    correlated_ff_matrix,
    schur_gramian_identity,
    sorting_metric,
)
from lramimo.lattice import unimodular_inverse


# The linear MMSE estimator of z = Z a from y = H a + n, with zero-mean
# white data of variance symbol_var and white noise of variance noise_var,
# is Z (H^T H + zeta I)^-1 H^T with zeta = noise_var / symbol_var: this is
# ``lra_le_mmse_matrix``.


class TestLinearMmseEstimate:
    def test_scalar_frozen(self):
        # x ~ N(0, 1), y = 2x + n with unit noise, y = 5:
        # gain 2/5, xhat = 2.0; with Z = -1 the estimate of -x is -2.0.
        for z, want in (([[1]], 2.0), ([[-1]], -2.0)):
            xhat = lra_le_mmse_matrix(np.array([[2.0]]), np.array(z, dtype=object), 1.0) @ [5.0]
            np.testing.assert_allclose(xhat, [want], atol=1e-14)

    def test_zero_observation_matrix_returns_prior_mean(self):
        z = np.array([[1, 1], [0, 1]], dtype=object)
        xhat = lra_le_mmse_matrix(np.zeros((2, 2)), z, 0.5) @ np.array([3.0, -1.0])
        np.testing.assert_allclose(xhat, np.zeros(2), atol=1e-12)

    def test_matches_joint_covariance_route(self):
        # Estimate via cross/observation covariances built from the model:
        # prior Px = symbol_var Z Z^T of z, observation y = (H Z^-1) z + n.
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            m_rows = n + int(rng.integers(0, 2))
            h = rng.normal(size=(m_rows, n))
            z = random_unimodular(rng, n)
            zf = np.asarray(z, dtype=float)
            symbol_var = rng.uniform(0.25, 2.0)
            noise_var = rng.uniform(0.2, 2.0)
            y = rng.normal(size=m_rows)
            got = lra_le_mmse_matrix(h, z, noise_var / symbol_var) @ y
            c = h @ np.linalg.inv(zf)
            prior = symbol_var * (zf @ zf.T)
            cov_zy = prior @ c.T
            cov_yy = c @ prior @ c.T + noise_var * np.eye(m_rows)
            want = cov_zy @ np.linalg.solve(cov_yy, y)
            np.testing.assert_allclose(got, want, atol=1e-10)


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
            np.testing.assert_allclose(ff, np.linalg.solve(h.T @ h + zeta * np.eye(n), h.T), atol=1e-10)

    def test_agrees_on_reduced_bases(self):
        # Both internal routes must agree; exercised over LLL-style inputs.
        rng = np.random.default_rng(43)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            z = random_unimodular(rng, n)
            zi = np.asarray(unimodular_inverse(z), dtype=float)
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
        zi = np.asarray(unimodular_inverse(z), dtype=float)
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
            zi = np.asarray(unimodular_inverse(z), dtype=float)
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
        # Gram = (1 + zeta) I with zeta = 1: every stream's error variance
        # per unit noise variance is 1/2.
        metric = sorting_metric(np.eye(2), np.eye(2), 0)
        np.testing.assert_allclose(metric, [0.5, 0.5], atol=1e-14)

    def test_diagonal_orders_strongest_first(self):
        metric = sorting_metric(np.diag([1.0, 2.0]), 0.0 * np.eye(2), 0)
        np.testing.assert_allclose(metric, [1.0, 0.25], atol=1e-12)
        assert np.argmin(metric) == 1


class TestPartitionedGramian:
    def test_assemble_matches_scaled_gram(self):
        # With no stream decided, the Gramian of the regularizer over the
        # noise variance is the inverse of the transformed prior
        # symbol_var Z Z^T: the conditional-precision identity at n_known 0.
        rng = np.random.default_rng(91)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            z = random_unimodular(rng, n)
            zeta = 10.0 ** (-rng.uniform(0, 20) / 10.0)
            sv = rng.uniform(0.5, 2.0)
            assert schur_gramian_identity(z, zeta, sv, zeta * sv, 0) < 1e-10
