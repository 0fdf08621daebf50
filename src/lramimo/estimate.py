"""Linear MMSE estimation of correlated Gaussian data.

Covers the textbook optimum linear estimator, conditional Gaussian
statistics, and the per-step feedforward/feedback matrices of successive
estimation when the data correlation is induced by an integer basis
change.  The per-step operations evaluate both the covariance
(Schur-complement) form and the Gramian form of each matrix and insist
they agree, which is the numerical content of the equivalence between
augmented-matrix processing and optimum successive estimation.
"""

from dataclasses import dataclass

import numpy as np

from .lattice import matrix_to_float, unimodular_inverse

DUAL_FORM_TOL = 1e-10


@dataclass(frozen=True)
class GaussianPrior:
    """Mean and covariance of a Gaussian data vector."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"incompatible shapes: mean {mean.shape}, covariance {cov.shape}"
            )
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(cov).max())):
            raise ValueError("covariance must be symmetric")
        if cov.size and np.linalg.eigvalsh(cov).min() <= 0.0:
            raise ValueError("covariance must be positive definite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True)
class PartitionedStats:
    """Mean and covariance of a jointly Gaussian vector split in two blocks."""

    mean1: np.ndarray
    mean2: np.ndarray
    cov11: np.ndarray
    cov12: np.ndarray
    cov21: np.ndarray
    cov22: np.ndarray

    def __post_init__(self):
        if not np.allclose(self.cov21, self.cov12.T, rtol=0.0, atol=1e-12):
            raise ValueError("cov21 must equal cov12 transposed")


@dataclass(frozen=True)
class PartitionedGramian:
    """Blocks of the inverse data covariance split at a detection step.

    ``known_block`` (l x l), ``cross_block`` (l x (n-l)) and
    ``residual_block`` ((n-l) x (n-l)) assemble to the full matrix
    A^T A / noise_var, which equals the inverse covariance of the
    transformed data.
    """

    known_block: np.ndarray
    cross_block: np.ndarray
    residual_block: np.ndarray

    def assemble(self) -> np.ndarray:
        return np.block(
            [
                [self.known_block, self.cross_block],
                [self.cross_block.T, self.residual_block],
            ]
        )


def partition_stats(mean: np.ndarray, cov: np.ndarray, split: int) -> PartitionedStats:
    """Split a Gaussian description into leading/trailing blocks at ``split``."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if not 0 <= split <= mean.size:
        raise ValueError(f"split {split} outside 0..{mean.size}")
    return PartitionedStats(
        mean1=mean[:split],
        mean2=mean[split:],
        cov11=cov[:split, :split],
        cov12=cov[:split, split:],
        cov21=cov[split:, :split],
        cov22=cov[split:, split:],
    )


def partitioned_gramian(regularizer: np.ndarray, split: int, noise_var: float = 1.0) -> PartitionedGramian:
    """Blocks of regularizer^T regularizer / noise_var split at ``split``."""
    a = np.asarray(regularizer, dtype=float)
    gram = (a.T @ a) / noise_var
    return PartitionedGramian(
        known_block=gram[:split, :split],
        cross_block=gram[:split, split:],
        residual_block=gram[split:, split:],
    )


def linear_mmse_estimate(
    observation: np.ndarray,
    obs_matrix: np.ndarray,
    noise_cov: np.ndarray,
    prior: GaussianPrior,
) -> np.ndarray:
    """Optimum linear (conditional-mean) estimate of Gaussian data.

    Computes (H^T Pn^-1 H + Px^-1)^-1 H^T Pn^-1 (y - H mu) + mu for
    observation matrix H, noise covariance Pn and prior (mu, Px).
    """
    y = np.asarray(observation, dtype=float)
    h = np.asarray(obs_matrix, dtype=float)
    pn = np.asarray(noise_cov, dtype=float)
    whitened = np.linalg.solve(pn, h)
    info = h.T @ whitened + np.linalg.inv(prior.cov)
    rhs = whitened.T @ (y - h @ prior.mean)
    return np.linalg.solve(info, rhs) + prior.mean


def error_covariance(
    obs_matrix: np.ndarray, noise_cov: np.ndarray, prior_cov: np.ndarray
) -> np.ndarray:
    """Error covariance (Px^-1 + H^T Pn^-1 H)^-1 of the optimum estimator."""
    h = np.asarray(obs_matrix, dtype=float)
    pn = np.asarray(noise_cov, dtype=float)
    px = np.asarray(prior_cov, dtype=float)
    info = np.linalg.inv(px) + h.T @ np.linalg.solve(pn, h)
    cov = np.linalg.inv(info)
    return 0.5 * (cov + cov.T)


def conditional_stats(stats: PartitionedStats, known: np.ndarray):
    """Gaussian conditional mean and covariance of block 2 given block 1.

    The covariance is the Schur complement of the block-1 covariance and
    does not depend on the observed value.
    """
    known = np.asarray(known, dtype=float)
    if stats.cov11.shape[0] == 0:
        return stats.mean2.copy(), 0.5 * (stats.cov22 + stats.cov22.T)
    gain = np.linalg.solve(stats.cov11, stats.cov12).T
    mean = stats.mean2 + gain @ (known - stats.mean1)
    cov = stats.cov22 - gain @ stats.cov12
    return mean, 0.5 * (cov + cov.T)


def correlated_ff_matrix(channel: np.ndarray, regularizer: np.ndarray, n_known: int) -> np.ndarray:
    """Feedforward matrix for the streams still open at a detection step.

    ``channel`` and ``regularizer`` are the observation and regularization
    blocks of the augmented matrix, columns already in detection order;
    the first ``n_known`` streams are treated as decided.  Evaluates the
    Gramian form (C2^T C2 + A2^T A2)^-1 C2^T and the conditional-
    covariance form obtained through the Schur complement of the prior and
    requires agreement.
    """
    c = np.asarray(channel, dtype=float)
    a = np.asarray(regularizer, dtype=float)
    _check_blocks(c, a, n_known)
    c2 = c[:, n_known:]
    a2 = a[:, n_known:]
    gram_form = np.linalg.solve(c2.T @ c2 + a2.T @ a2, c2.T)

    cond_prec = _conditional_precision(a, n_known)
    cov_form = np.linalg.solve(c2.T @ c2 + cond_prec, c2.T)
    _require_agreement(cov_form, gram_form, "feedforward")
    return gram_form


def correlated_fb_matrix(
    channel: np.ndarray, regularizer: np.ndarray, perm: np.ndarray, n_known: int
) -> np.ndarray:
    """Feedback (interference weight) matrix for the decided streams.

    Columns of ``channel``/``regularizer`` are given in original order and
    rearranged by ``perm`` into detection order.  Returns the
    (n - n_known) x n_known matrix applied to already decided symbols.
    Evaluates both the conditional-mean form, which combines cancellation
    with prediction from the conditional prior, and the plain Gramian form
    (C2^T C2 + A2^T A2)^-1 (C2^T C1 + A2^T A1), and requires agreement.
    """
    c = np.asarray(channel, dtype=float)[:, np.asarray(perm, dtype=int)]
    a = np.asarray(regularizer, dtype=float)[:, np.asarray(perm, dtype=int)]
    _check_blocks(c, a, n_known)
    n = c.shape[1]
    c1, c2 = c[:, :n_known], c[:, n_known:]
    a1, a2 = a[:, :n_known], a[:, n_known:]
    if n_known == 0:
        return np.zeros((n, 0))
    gram = c2.T @ c2 + a2.T @ a2
    gram_form = np.linalg.solve(gram, c2.T @ c1 + a2.T @ a1)

    # Conditional-mean route: cancellation of the decided symbols plus
    # prediction of the open ones from the conditional prior.
    prior = np.linalg.inv(a.T @ a)
    gain = np.linalg.solve(prior[:n_known, :n_known], prior[:n_known, n_known:]).T
    cancel = np.linalg.solve(gram, c2.T @ c1)
    shrink = np.linalg.solve(gram, c2.T @ c2) - np.eye(n - n_known)
    cov_form = shrink @ gain + cancel
    _require_agreement(cov_form, gram_form, "feedback")
    return gram_form


def schur_gramian_identity(
    unimodular: np.ndarray,
    inv_snr: float,
    symbol_var: float,
    noise_var: float,
    n_known: int,
) -> float:
    """Relative residual of the conditional-precision identity.

    For data covariance symbol_var * Z Z^T and regularizer
    sqrt(inv_snr) * Z^-1, the noise-scaled inverse of the conditional
    covariance of the open streams equals the Gramian of the trailing
    regularizer columns.  Returns ||lhs - rhs||_F / ||rhs||_F.
    """
    zf = matrix_to_float(unimodular)
    zi = matrix_to_float(unimodular_inverse(unimodular))
    n = zf.shape[0]
    if not 0 <= n_known < n:
        raise ValueError(f"n_known {n_known} outside 0..{n - 1}")
    # The conditional covariance symbol_var * Z2 (I - P1) Z2^T, with P1 the
    # projector onto the rows of Z1 = Z[:n_known], is symbol_var * V^T V for
    # V = Q_perp^T Z2^T, where Q_perp completes an orthonormal basis of those
    # rows.  With V = Q R its inverse is R^-1 R^-T / symbol_var, which
    # avoids inverting the possibly ill-conditioned Z Z^T.
    q_full = np.linalg.qr(zf[:n_known].T, mode="complete")[0]
    v = q_full[:, n_known:].T @ zf[n_known:].T
    r_inv = np.linalg.inv(np.linalg.qr(v, mode="r"))
    lhs = (noise_var / symbol_var) * (r_inv @ r_inv.T)
    a2 = np.sqrt(inv_snr) * zi[:, n_known:]
    rhs = a2.T @ a2
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))


def sorting_metric(
    channel: np.ndarray, regularizer: np.ndarray, n_known: int, noise_var: float = 1.0
) -> np.ndarray:
    """Per-stream error variances used to pick the next detected stream.

    Diagonal of noise_var * (C2^T C2 + A2^T A2)^-1 over the streams still
    open; the stream with the smallest entry (ties: lowest index) is the
    most reliable next decision.
    """
    c = np.asarray(channel, dtype=float)
    a = np.asarray(regularizer, dtype=float)
    _check_blocks(c, a, n_known)
    c2 = c[:, n_known:]
    a2 = a[:, n_known:]
    inv = np.linalg.inv(c2.T @ c2 + a2.T @ a2)
    return noise_var * np.diag(inv).copy()


def _conditional_precision(regularizer: np.ndarray, n_known: int) -> np.ndarray:
    """Noise-scaled inverse conditional covariance of the open streams."""
    a = np.asarray(regularizer, dtype=float)
    prior = np.linalg.inv(a.T @ a)
    if n_known == 0:
        schur = prior
    else:
        p11 = prior[:n_known, :n_known]
        p12 = prior[:n_known, n_known:]
        schur = prior[n_known:, n_known:] - p12.T @ np.linalg.solve(p11, p12)
    return np.linalg.inv(schur)


def _check_blocks(channel: np.ndarray, regularizer: np.ndarray, n_known: int) -> None:
    if channel.ndim != 2 or regularizer.ndim != 2:
        raise ValueError("channel and regularizer must be 2-D")
    if channel.shape[1] != regularizer.shape[1]:
        raise ValueError(
            f"column mismatch: channel {channel.shape[1]}, regularizer {regularizer.shape[1]}"
        )
    if not 0 <= n_known <= channel.shape[1]:
        raise ValueError(f"n_known {n_known} outside 0..{channel.shape[1]}")


def _require_agreement(first: np.ndarray, second: np.ndarray, what: str) -> None:
    scale = np.linalg.norm(second)
    resid = np.linalg.norm(first - second)
    if scale == 0.0:
        if resid > DUAL_FORM_TOL:
            raise ArithmeticError(f"{what} dual forms disagree: {resid:.3e} vs zero")
        return
    if resid / scale > DUAL_FORM_TOL:
        raise ArithmeticError(
            f"{what} dual forms disagree: relative residual {resid / scale:.3e}"
        )
