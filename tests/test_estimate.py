import numpy as np
import pytest

from lramimo import estimate
from lramimo.blast import le_zf_matrix, vblast_sorted_factorization
from lramimo.checks import FF_TOL, SCHUR_TOL, equivalence_suite, lra_le_mmse_matrix, random_unimodular
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
# ``lra_le_mmse_matrix``.  The successive estimator in ``estimate`` sees the
# reduced channel C = H Z^-1 and the noise-normalized data covariance
# Phi = Z Z^T / zeta of z.


def reduced_model(z, zeta):
    """Z^-1 and Phi = Z Z^T / zeta for an integer basis change Z."""
    zf = np.asarray(z, dtype=float)
    return np.asarray(unimodular_inverse(z), dtype=float), zf @ zf.T / zeta


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
        # Unit channel and unit covariance with one decided stream: the open
        # stream sees gain 1/(1 + 1) on its own observation entry.
        ff = correlated_ff_matrix(np.eye(2), np.eye(2), 1)
        np.testing.assert_allclose(ff, [[0.0, 0.5]], atol=1e-14)

    def test_no_known_streams_equals_mmse_le(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            h = rng.normal(size=(n + 1, n))
            zeta = 10.0 ** (-rng.uniform(0, 20) / 10.0)
            ff = correlated_ff_matrix(h, np.eye(n) / zeta, 0)
            np.testing.assert_allclose(ff, np.linalg.solve(h.T @ h + zeta * np.eye(n), h.T), atol=1e-10)

    def test_agrees_on_reduced_bases(self):
        # The estimator's feedforward is the observation columns of the
        # pseudo-inverse of the augmented matrix's open columns.
        rng = np.random.default_rng(43)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            z = random_unimodular(rng, n)
            zeta = 10.0 ** (-rng.uniform(0, 25) / 10.0)
            zi, phi = reduced_model(z, zeta)
            h = rng.normal(size=(n + 1, n))
            l = int(rng.integers(0, n))
            ff = correlated_ff_matrix(h @ zi, phi, l)
            assert ff.shape == (n - l, n + 1)
            want = le_zf_matrix(np.vstack([h, np.sqrt(zeta) * np.eye(n)]) @ zi[:, l:])[:, : n + 1]
            np.testing.assert_allclose(ff, want, rtol=1e-8, atol=1e-10)


class TestCorrelatedFeedback:
    def test_scalar_frozen(self):
        # Shear transform [[1,1],[0,1]] on a unit channel, zeta = 1, first
        # stream decided.  Hand trace: Phi = Z Z^T = [[2, 1], [1, 1]] gives
        # prediction gain 1/2 and S = 1/2; with C2 = [-1, 1]^T, K = C2^T / 4,
        # so cancellation K C1 = -1/4 and shrink K C2 - 1 = -1/2 give the
        # single weight -1/4 + (-1/2)(1/2) = -1/2.  The Gramian 4 and cross
        # term -2 of the augmented matrix's columns give the same.
        z = np.array([[1, 1], [0, 1]], dtype=object)
        zi, phi = reduced_model(z, 1.0)
        fb = correlated_fb_matrix(np.eye(2) @ zi, phi, 1)
        np.testing.assert_allclose(fb, [[-0.5]], atol=1e-12)

    def test_identity_transform_is_pure_cancellation(self):
        # With uncorrelated streams the conditional-mean path reduces to
        # interference cancellation; compare against the direct product.
        rng = np.random.default_rng(51)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            h = rng.normal(size=(n + 1, n))
            phi = np.eye(n) / 0.3
            c = h[:, rng.permutation(n)]
            l = int(rng.integers(1, n))
            fb = correlated_fb_matrix(c, phi, l)
            ff = correlated_ff_matrix(c, phi, l)
            want = ff @ c[:, :l]
            np.testing.assert_allclose(fb, want, atol=1e-10)

    def test_no_known_streams_empty(self):
        fb = correlated_fb_matrix(np.eye(2), 4.0 * np.eye(2), 0)
        assert fb.shape == (2, 0)

    def test_matches_vblast_weights(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            z = random_unimodular(rng, n)
            zeta = 10.0 ** (-rng.uniform(3, 20) / 10.0)
            zi, phi = reduced_model(z, zeta)
            h = rng.normal(size=(n + 1, n)) @ zi
            fs = vblast_sorted_factorization(np.vstack([h, np.sqrt(zeta) * zi]))
            for l in range(1, n):
                fb = correlated_fb_matrix(h[:, fs.perm], phi[np.ix_(fs.perm, fs.perm)], l)
                # row l of the successive factorization carries the same
                # weights for the decided block
                np.testing.assert_allclose(fb[0], fs.feedback[l, :l], atol=1e-8)


class TestSchurGramianIdentity:
    def test_identity_transform(self):
        res = schur_gramian_identity(np.eye(3, dtype=int))
        assert res < 1e-12

    def test_shear_frozen(self):
        z = np.array([[1, 1], [0, 1]], dtype=object)
        res = schur_gramian_identity(z)
        assert res < 1e-12

    def test_random_sweep(self):
        rng = np.random.default_rng(71)
        worst = 0.0
        for _ in range(60):
            n = int(rng.integers(2, 7))
            z = random_unimodular(rng, n)
            worst = max(worst, schur_gramian_identity(z))
        assert worst < 1e-9

    def test_ill_conditioned_reproducer_within_tolerance(self):
        # cond(Z Z^T) is about 5.2e6.  The trailing blocks of inv(Z Z^T)
        # leave a residual of 4.5e-11 against the Gramians of Z^-1's
        # columns; R22^-1 R22^-T from the QR of Z^T stays near 1e-14.
        z = np.array(
            [[0, -28, -12, -1, 2], [1, 0, 0, 0, 0], [0, 14, 6, 0, -1], [0, 5, 2, 0, -2], [0, 26, 11, 0, -3]]
        )
        zf = z.astype(float)
        assert 5e6 < np.linalg.cond(zf @ zf.T) < 5.3e6
        assert schur_gramian_identity(z) <= SCHUR_TOL

    def test_equivalence_suite_reproducer_within_tolerance(self):
        # CI certifies this seed as well; the whole report must stay within
        # its tolerances.
        report = equivalence_suite(40, seed=2117771765)
        assert report.schur <= SCHUR_TOL
        assert report.within()

    def test_suite_fails_when_the_gramian_reads_the_wrong_columns(self, monkeypatch):
        # Mutant: Z^-1 with its columns reversed, so each split compares the
        # conditional precision with the Gramian of the decided columns.
        real = estimate.unimodular_inverse
        monkeypatch.setattr(estimate, "unimodular_inverse", lambda z: real(z)[:, ::-1])
        report = equivalence_suite(20)
        assert report.schur > SCHUR_TOL
        assert report.within() is False


class TestSortingMetric:
    def test_identity_channel_frozen(self):
        # C^T C + Phi^-1 = (1 + zeta) I with zeta = 1: every stream's error
        # variance per unit noise variance is 1/2.
        metric = sorting_metric(np.eye(2), np.eye(2), 0)
        np.testing.assert_allclose(metric, [0.5, 0.5], atol=1e-14)

    def test_diagonal_orders_strongest_first(self):
        # Phi = I / zeta with zeta = 1/4: error variances 1/(g^2 + zeta) for
        # gains g = 1, 2, so 1/1.25 = 0.8 and 1/4.25 = 4/17.
        metric = sorting_metric(np.diag([1.0, 2.0]), 4.0 * np.eye(2), 0)
        np.testing.assert_allclose(metric, [0.8, 4.0 / 17.0], atol=1e-12)
        assert np.argmin(metric) == 1

    def test_conditions_on_the_decided_streams(self):
        # Phi = [[1, 1/2], [1/2, 1]], unit channel, stream 0 decided: S = 3/4,
        # so the open stream's error variance is 1/(1 + 4/3) = 3/7, where the
        # unconditioned prior variance 1 would give 1/2.
        metric = sorting_metric(np.eye(2), [[1.0, 0.5], [0.5, 1.0]], 1)
        np.testing.assert_allclose(metric, [3.0 / 7.0], atol=1e-14)


class TestInputChecks:
    @pytest.mark.parametrize("fn", [correlated_ff_matrix, correlated_fb_matrix, sorting_metric])
    @pytest.mark.parametrize("covariance", [np.eye(2), np.eye(4), np.ones((3, 2)), np.ones(3)])
    def test_covariance_must_match_the_channel_columns(self, fn, covariance):
        with pytest.raises(ValueError, match="covariance must be n x n"):
            fn(np.ones((4, 3)), covariance, 0)

    @pytest.mark.parametrize("fn", [correlated_ff_matrix, correlated_fb_matrix, sorting_metric])
    @pytest.mark.parametrize("n_known", [-1, 4])
    def test_n_known_must_lie_in_0_to_n(self, fn, n_known):
        with pytest.raises(ValueError, match=f"n_known {n_known} outside 0..3"):
            fn(np.ones((4, 3)), np.eye(3), n_known)

    def test_every_stream_decided_leaves_empty_matrices(self):
        c, phi = np.arange(12.0).reshape(4, 3), np.eye(3)
        assert correlated_ff_matrix(c, phi, 3).shape == (0, 4)
        assert correlated_fb_matrix(c, phi, 3).shape == (0, 3)
        assert sorting_metric(c, phi, 3).shape == (0,)


def test_suite_fails_when_the_estimator_drops_the_conditioning(monkeypatch):
    # Mutant: the open streams' prior covariance Phi22 in place of the
    # conditional covariance S.  The feedforward and the order then leave
    # ZF-BLAST, and the suite reports it instead of raising.
    real = estimate._condition

    def unconditioned(covariance, n_known):
        gain, _ = real(covariance, n_known)
        return gain, covariance[n_known:, n_known:]

    monkeypatch.setattr(estimate, "_condition", unconditioned)
    report = equivalence_suite(20)
    assert report.within() is False
    assert report.feedforward > FF_TOL
    assert report.order_mismatches > 0


class TestPartitionedGramian:
    def test_assemble_matches_scaled_gram(self):
        # With no stream decided, the Gramian of Z^-1 is the inverse of
        # Z Z^T, the transformed prior over the symbol variance: the
        # conditional-precision identity at its first split, which the
        # residual covers along with every later one.
        rng = np.random.default_rng(91)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            z = random_unimodular(rng, n)
            assert schur_gramian_identity(z) < 1e-10
