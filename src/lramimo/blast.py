"""Sorted successive-cancellation (V-BLAST) matrix factorizations.

One kernel serves every caller.  The detection order is picked greedily
from the diagonal of an inverse Gram matrix, removing each detected
stream by a rank-one downdate; the filters of all steps then come from
one QL factorization of the matrix with its columns in detection order.
``vblast_sorted_factorization`` takes the inverse Gram matrix from one QR
of the matrix, ``fast_vblast_correlated`` from the channel and the basis
change of a correlated problem.  The per-step pseudo-inverse route is
kept in ``checks`` as the oracle.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .lattice import matrix_to_float, unimodular_inverse
from .model import augment


# Streams whose sorting metric lies within this relative margin of the
# minimum count as tied, and ties go to the lowest column index.  The real
# form of a complex channel has twin columns whose metrics are equal in
# exact arithmetic; without the margin, rounding noise would pick the twin.
TIE_RTOL = 1e-10


class FactorizationError(ValueError):
    """Raised when the successive factorization breaks down numerically."""


def pick_stream(metric: np.ndarray) -> int:
    """Lowest index whose metric is at most min(metric) * (1 + TIE_RTOL).

    The metric is a diagonal of an inverse Gram matrix, so a minimum that
    is not positive (or is NaN) means the factorization broke down.
    """
    lo = metric.min()
    if not (lo > 0.0):
        raise FactorizationError("sorting metric is not positive; the inverse Gram lost definiteness")
    return int((metric <= lo * (1.0 + TIE_RTOL)).argmax())


@dataclass(frozen=True)
class DfeFilterSet:
    """Feedforward/feedback filter pair with its detection order.

    ``feedforward`` rows are arranged in detection order; ``feedback`` is
    unit lower triangular; ``perm[l]`` is the original column index of the
    symbol detected at step l.
    """

    feedforward: np.ndarray
    feedback: np.ndarray
    perm: np.ndarray


def vblast_sorted_factorization(matrix: np.ndarray) -> DfeFilterSet:
    """Sorted successive factorization of a tall full-rank matrix.

    At each step the stream with the smallest diagonal entry of the
    inverse Gram matrix of the remaining columns (best post-equalization
    error) is detected next; ties go to the lowest original column index
    (see ``pick_stream``).  The order comes from one QR and rank-one
    downdates of P = R^-1 R^-T, the filters from one QL factorization of
    the sorted matrix.

    The returned set satisfies feedforward @ matrix[:, perm] == feedback,
    a unit lower triangular matrix, and the feedforward rows are mutually
    orthogonal.
    """
    m = _tall(matrix)
    r = np.linalg.qr(m, mode="r")
    _require_full_rank(np.diag(r), m.shape)
    rinv = np.linalg.inv(r)
    return _sorted_ql_filters(m, _greedy_order(rinv @ rinv.T))


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

    Equivalent to ``vblast_sorted_factorization`` applied to the augmented
    matrix of the transformed symbols, [H; sqrt(alpha) I] Z^-1.  The order
    comes from rank-one downdates of Z (H^T H + alpha I)^-1 Z^T, so only
    the filters need a factorization of the doubled-row matrix.

    Parameters
    ----------
    matrix : channel matrix H, m x n with m >= n, full column rank.
    unimodular : integer basis change Z (determinant +-1).
    alpha : noise-to-signal variance ratio, > 0.
    """
    h = _tall(matrix)
    if not (alpha > 0.0):
        raise ValueError(f"alpha must be > 0, got {alpha}")
    zf = matrix_to_float(unimodular)
    zi = matrix_to_float(unimodular_inverse(unimodular))
    gram = h.T @ h + alpha * np.eye(h.shape[1])
    perm = _greedy_order(zf @ np.linalg.solve(gram, zf.T))
    basis = augment(h, alpha) @ zi
    return _sorted_ql_filters(basis, perm)


def _tall(matrix: np.ndarray) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] < m.shape[1]:
        raise FactorizationError(f"matrix must be m x n with m >= n, got shape {m.shape}")
    return m


def _require_full_rank(diag: np.ndarray, shape) -> None:
    diag = np.abs(diag)
    if not (diag.min() > 1e-12 * max(shape) * diag.max()):
        raise FactorizationError("matrix lost full column rank during factorization")


def _greedy_order(gram_inv: np.ndarray) -> np.ndarray:
    """Detection order from the inverse Gram matrix of all streams.

    Picks the stream with the smallest diagonal entry, then removes it by
    the rank-one downdate P - p_k p_k^T / P_kk, which leaves the inverse
    Gram matrix of the remaining streams in the other rows and columns.
    The picked streams' diagonal entries are masked with +inf.
    """
    p = 0.5 * (gram_inv + gram_inv.T)
    n = p.shape[0]
    metric = p.diagonal().copy()
    order = np.empty(n, dtype=np.intp)
    for step in range(n):
        k = pick_stream(metric)
        order[step] = k
        v = p[k] / math.sqrt(metric[k])
        p -= v[:, None] * v
        metric -= v * v
        metric[k] = np.inf
    return order


def _sorted_ql_filters(matrix: np.ndarray, perm: np.ndarray) -> DfeFilterSet:
    """Filters of every detection step from one QL factorization.

    With matrix[:, perm] = Q L, the remaining columns at step l are
    Q[:, l:] L[l:, l:], so the step's pseudo-inverse row for the detected
    stream is q_l / L_ll.  The QL factors come from the QR of the
    column-reversed matrix.
    """
    q, r = np.linalg.qr(matrix[:, perm[::-1]], mode="reduced")
    low = r[::-1, ::-1]
    diag = np.diag(low)
    _require_full_rank(diag, matrix.shape)
    feedforward = np.ascontiguousarray(q[:, ::-1].T)
    feedforward /= diag[:, None]
    return DfeFilterSet(feedforward=feedforward, feedback=low / diag[:, None], perm=perm)
