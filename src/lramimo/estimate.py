"""Successive linear MMSE estimation of correlated data.

Data x with noise-normalized covariance Phi (the data covariance over the
noise variance) is observed as y = C x + n in white noise.  At a detection
step the first ``n_known`` streams, in detection order, are decided; given
them the open streams have conditional mean Phi21 Phi11^-1 x1 and
conditional covariance S = Phi22 - Phi21 Phi11^-1 Phi12.  The per-step
feedforward and feedback matrices and the sorting metric of the optimum
successive estimator are built here from C and Phi alone.  For white data
a of variance symbol_var and an integer basis change z = Z a, Phi = Z Z^T /
zeta and C = H Z^-1 with zeta = noise_var / symbol_var; ``checks`` compares
these matrices with ZF-BLAST on the augmented matrix [H; sqrt(zeta) I] Z^-1,
whose lower block sqrt(zeta) Z^-1 has S^-1 for the Gramian of its open
columns.  zeta scales both sides, so this conditional-precision identity
is a property of Z alone: ``schur_gramian_identity`` checks it at every
split from one QR of Z^T and one exact inverse of Z.
"""

import numpy as np

from .lattice import unimodular_inverse


def correlated_ff_matrix(channel: np.ndarray, covariance: np.ndarray, n_known: int) -> np.ndarray:
    """Feedforward matrix K = (C2^T C2 + S^-1)^-1 C2^T of the open streams.

    ``channel`` C and ``covariance`` Phi have their streams in detection
    order, and the first ``n_known`` are decided.  K estimates the open
    streams from the observation once the decided streams' contribution is
    removed; returns the (n - n_known) x m matrix.
    """
    c, _, error = _open_streams(channel, covariance, n_known)
    return error @ c[:, n_known:].T


def correlated_fb_matrix(channel: np.ndarray, covariance: np.ndarray, n_known: int) -> np.ndarray:
    """Feedback matrix K C1 + (K C2 - I) Phi21 Phi11^-1 on the decided streams.

    Arguments as for :func:`correlated_ff_matrix`.  The first term cancels
    the decided streams' interference, the second predicts the open
    streams from them through the conditional mean.  Returns the
    (n - n_known) x n_known matrix applied to the decided symbols.
    """
    c, gain, error = _open_streams(channel, covariance, n_known)
    c1, c2 = c[:, :n_known], c[:, n_known:]
    k = error @ c2.T
    return k @ c1 + (k @ c2 - np.eye(c2.shape[1])) @ gain


def sorting_metric(channel: np.ndarray, covariance: np.ndarray, n_known: int) -> np.ndarray:
    """Error variances diag((C2^T C2 + S^-1)^-1) of the open streams.

    Arguments as for :func:`correlated_ff_matrix`.  The variances are per
    unit noise variance; the open stream with the smallest entry (ties:
    lowest index) is the most reliable next decision.
    """
    return np.diag(_open_streams(channel, covariance, n_known)[2]).copy()


def schur_gramian_identity(unimodular: np.ndarray) -> float:
    """Largest relative residual of the conditional-precision identity.

    With the first k streams of z = Z a decided, the inverse of the open
    streams' conditional covariance, in units of Z Z^T, is the trailing
    block of (Z Z^T)^-1; the identity says it equals the Gramian of
    Z^-1[:, k:], the open columns of the augmented matrix's lower block
    over sqrt(zeta).  With Z^T = Q R the trailing block is
    R22^-1 R22^-T, so Z Z^T is never inverted.  Returns the largest
    ||lhs - rhs||_F / ||rhs||_F over the splits k = 0 .. n-1.
    """
    r_inv = np.linalg.inv(np.linalg.qr(np.asarray(unimodular, dtype=float).T, mode="r"))
    zi = np.asarray(unimodular_inverse(unimodular), dtype=float)
    worst = 0.0
    for k in range(len(zi)):
        lhs = r_inv[k:, k:] @ r_inv[k:, k:].T
        rhs = zi[:, k:].T @ zi[:, k:]
        worst = max(worst, float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)))
    return worst


def _open_streams(channel, covariance, n_known: int):
    """C, the gain Phi21 Phi11^-1 and the error covariance (C2^T C2 + S^-1)^-1."""
    c, phi = _check_blocks(channel, covariance, n_known)
    gain, schur = _condition(phi, n_known)
    c2 = c[:, n_known:]
    return c, gain, np.linalg.inv(c2.T @ c2 + np.linalg.inv(schur))


def _condition(covariance: np.ndarray, n_known: int):
    """Gain Phi21 Phi11^-1 and conditional covariance S of the open streams."""
    k = n_known
    gain = np.linalg.solve(covariance[:k, :k], covariance[:k, k:]).T
    return gain, covariance[k:, k:] - gain @ covariance[:k, k:]


def _check_blocks(channel, covariance, n_known: int):
    """C (m x n) and Phi as floats; Phi must be n x n and 0 <= n_known <= n."""
    c = np.asarray(channel, dtype=float)
    phi = np.asarray(covariance, dtype=float)
    if c.ndim != 2 or phi.shape != (c.shape[1], c.shape[1]):
        raise ValueError(
            f"covariance must be n x n for an m x n channel, got {phi.shape} and {c.shape}"
        )
    if not 0 <= n_known <= c.shape[1]:
        raise ValueError(f"n_known {n_known} outside 0..{c.shape[1]}")
    return c, phi
