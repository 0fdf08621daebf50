"""Successive linear MMSE estimation of correlated data.

Covers the per-step feedforward/feedback matrices and the sorting metric
of successive estimation when the data correlation is induced by an
integer basis change, and the conditional-precision (Schur-complement)
identity behind them.  The per-step operations evaluate both the
covariance (Schur-complement) form and the Gramian form of each matrix
and insist they agree, which is the numerical content of the equivalence
between augmented-matrix processing and optimum successive estimation.
"""

import numpy as np

from .lattice import matrix_to_float, unimodular_inverse

DUAL_FORM_TOL = 1e-10


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


def sorting_metric(channel: np.ndarray, regularizer: np.ndarray, n_known: int) -> np.ndarray:
    """Per-stream error variances used to pick the next detected stream.

    Diagonal of (C2^T C2 + A2^T A2)^-1 over the streams still open: the
    error variances per unit noise variance.  The stream with the smallest
    entry (ties: lowest index) is the most reliable next decision.
    """
    c = np.asarray(channel, dtype=float)
    a = np.asarray(regularizer, dtype=float)
    _check_blocks(c, a, n_known)
    c2 = c[:, n_known:]
    a2 = a[:, n_known:]
    inv = np.linalg.inv(c2.T @ c2 + a2.T @ a2)
    return np.diag(inv).copy()


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
