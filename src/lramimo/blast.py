"""Sorted successive-cancellation (V-BLAST) matrix factorizations.

The reference routine recomputes a pseudo-inverse per detection step and
is the ground truth for the filter set.  The fast variant reproduces the
same filters for correlated data through rank-one downdates of a single
Gram inverse, without ever forming the row-augmented matrix.
"""

from dataclasses import dataclass, replace

import numpy as np

from .lattice import matrix_to_float, unimodular_inverse
from .model import augment


class FactorizationError(ValueError):
    """Raised when the successive factorization breaks down numerically."""


@dataclass(frozen=True)
class DfeFilterSet:
    """Feedforward/feedback filter pair with its detection order.

    ``feedforward`` rows are arranged in detection order; ``feedback`` is
    unit lower triangular; ``perm[l]`` is the original column index of the
    symbol detected at step l; ``gains`` are the feedforward row norms
    (the diagonal scaling of the underlying sorted QL factorization).
    """

    feedforward: np.ndarray
    feedback: np.ndarray
    perm: np.ndarray
    gains: np.ndarray

    @property
    def order(self) -> np.ndarray:
        """Detection order; alias for ``perm``."""
        return self.perm

    @property
    def n_streams(self) -> int:
        return self.perm.shape[0]

    def permutation_matrix(self) -> np.ndarray:
        """Matrix P with (M @ P) equal to M with columns in detection order."""
        n = self.n_streams
        p = np.zeros((n, n))
        p[self.perm, np.arange(n)] = 1.0
        return p

    def lower_triangular(self) -> np.ndarray:
        """Triangular factor L of the sorted QL factorization M P = Q L."""
        return self.feedback / self.gains[:, None]


def vblast_sorted_factorization(matrix: np.ndarray) -> DfeFilterSet:
    """Sorted successive factorization of a tall full-rank matrix.

    Per step the remaining columns are pseudo-inverted and the stream with
    the smallest diagonal of the inverse Gram matrix (best post-equalization
    error) is detected next; ties go to the lowest original column index.

    The returned set satisfies feedforward @ matrix[:, perm] == feedback,
    a unit lower triangular matrix, and the feedforward rows are mutually
    orthogonal.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] < m.shape[1]:
        raise FactorizationError(f"matrix must be m x n with m >= n, got shape {m.shape}")
    n = m.shape[1]
    remaining = list(range(n))
    rows = []
    order = []
    for _ in range(n):
        sub = m[:, remaining]
        q, r = np.linalg.qr(sub, mode="reduced")
        diag = np.abs(np.diag(r))
        if diag.min() <= 1e-12 * max(m.shape) * diag.max():
            raise FactorizationError("matrix lost full column rank during factorization")
        rinv = np.linalg.inv(r)
        # diag of (sub^T sub)^-1 = squared row norms of R^-1
        metric = np.sum(rinv**2, axis=1)
        k = int(np.argmin(metric))
        pinv = rinv @ q.T
        rows.append(pinv[k])
        order.append(remaining.pop(k))
    feedforward = np.vstack(rows)
    perm = np.array(order)
    feedback = _clean_feedback(feedforward @ m[:, perm])
    gains = np.linalg.norm(feedforward, axis=1)
    return DfeFilterSet(feedforward=feedforward, feedback=feedback, perm=perm, gains=gains)


def classic_dfe_filters(matrix: np.ndarray, criterion: str, inv_snr: float = 0.0) -> DfeFilterSet:
    """Decision-feedback filters for white data under "zf" or "mmse".

    Zero forcing factorizes the channel matrix directly.  MMSE factorizes
    the noise-regularized augmented matrix and keeps only the feedforward
    columns acting on the physical observation; the feedback matrix is the
    one of the augmented factorization.
    """
    m = np.asarray(matrix, dtype=float)
    crit = str(criterion).lower()
    if crit == "zf":
        return vblast_sorted_factorization(m)
    if crit != "mmse":
        raise ValueError(f"criterion must be 'zf' or 'mmse', got {criterion!r}")
    full = vblast_sorted_factorization(augment(m, inv_snr))
    return replace(full, feedforward=full.feedforward[:, : m.shape[0]])


def fast_vblast_correlated(matrix: np.ndarray, unimodular: np.ndarray, alpha: float) -> DfeFilterSet:
    """Sorted factorization for data correlated through an integer basis change.

    Equivalent to ``vblast_sorted_factorization`` applied to the
    row-augmented matrix [H Z^-1; sqrt(alpha) Z^-1], but the successive
    inverse Gram matrices are obtained by rank-one downdates of
    Z (H^T H + alpha I)^-1 Z^T, so no pseudo-inverse of the doubled-row
    matrix is ever formed.

    Parameters
    ----------
    matrix : channel matrix H, m x n with m >= n, full column rank.
    unimodular : integer basis change Z (determinant +-1).
    alpha : noise-to-signal variance ratio, > 0.
    """
    h = np.asarray(matrix, dtype=float)
    if h.ndim != 2 or h.shape[0] < h.shape[1]:
        raise FactorizationError(f"matrix must be m x n with m >= n, got shape {h.shape}")
    if not (alpha > 0.0):
        raise ValueError(f"alpha must be > 0, got {alpha}")
    n = h.shape[1]
    zf = matrix_to_float(unimodular)
    zi = matrix_to_float(unimodular_inverse(unimodular))
    stacked_cols = augment(h @ zi, alpha, zi)

    gram0 = h.T @ h + alpha * np.eye(n)
    q = zf @ np.linalg.solve(gram0, zf.T)
    q = 0.5 * (q + q.T)

    remaining = list(range(n))
    rows = []
    order = []
    for _ in range(n):
        d = np.diag(q)
        k = int(np.argmin(d))
        if not (d[k] > 0.0):
            raise FactorizationError("inverse Gram lost positive definiteness")
        rows.append(q[k] @ stacked_cols[:, remaining].T)
        order.append(remaining.pop(k))
        keep = np.arange(q.shape[0]) != k
        q = q[np.ix_(keep, keep)] - np.outer(q[keep, k], q[k, keep]) / q[k, k]
        q = 0.5 * (q + q.T)
    feedforward = np.vstack(rows)
    perm = np.array(order)
    feedback = _clean_feedback(feedforward @ stacked_cols[:, perm])
    gains = np.linalg.norm(feedforward, axis=1)
    return DfeFilterSet(feedforward=feedforward, feedback=feedback, perm=perm, gains=gains)


def _clean_feedback(raw: np.ndarray) -> np.ndarray:
    # The exact product is unit lower triangular; drop rounding noise above
    # the diagonal and pin the diagonal so feedback loops subtract nothing
    # from the current stream.
    b = np.tril(raw)
    np.fill_diagonal(b, 1.0)
    return b
