"""Zero-forcing factorizations: the pseudo-inverse and sorted V-BLAST.

``le_zf_matrix`` is the left pseudo-inverse of linear detectors.  The
sorted successive-cancellation (V-BLAST) factorization has one kernel:
the detection order is picked greedily from the diagonal of an inverse
Gram matrix, removing each detected stream by a rank-one downdate; the
filters of all steps then come from one QL factorization of the matrix
with its columns in detection order.  ``vblast_sorted_factorization``
takes the inverse Gram matrix from one QR of the matrix,
``fast_vblast_correlated`` from the channel and the reduction (Z and
Z^-1, neither recomputed) of a correlated problem.  ``le_zf_matrix``
and ``vblast_sorted_factorization`` take a stack of equal-shaped
matrices as well as one matrix and treat every slice exactly as that
slice alone.  The per-step pseudo-inverse
route is kept in ``checks`` as the oracle.
"""

from dataclasses import dataclass, replace

import numpy as np

from .lattice import ReducedBasis
from .lattice import unimodular_inverse  # unused here, but the benchmark tracer (perfbench/spans.py) wraps it
from .model import augment


# Streams whose sorting metric lies within this relative margin of the
# minimum count as tied, and ties go to the lowest column index.  The real
# form of a complex channel has twin columns whose metrics are equal in
# exact arithmetic; without the margin, rounding noise would pick the twin.
TIE_RTOL = 1e-10


class FactorizationError(ValueError):
    """Raised when the successive factorization breaks down numerically."""


def pick_stream(metric: np.ndarray):
    """Lowest index whose metric is at most min(metric) * (1 + TIE_RTOL).

    The rule applies along the last axis, and the result is ``argmax``'s:
    one np.intp for one metric vector, an index array for a stack of them.
    The metric is a diagonal of an inverse Gram matrix, so a minimum that
    is not positive (or is NaN) means the factorization broke down.
    """
    lo = metric.min(axis=-1, keepdims=True)
    if not (lo > 0.0).all():
        raise FactorizationError("sorting metric is not positive; the inverse Gram lost definiteness")
    return (metric <= lo * (1.0 + TIE_RTOL)).argmax(axis=-1)


@dataclass(frozen=True)
class DfeFilterSet:
    """Feedforward/feedback filter pair with its detection order.

    ``feedforward`` rows are arranged in detection order; ``feedback`` is
    unit lower triangular; ``perm[l]`` is the original column index of the
    symbol detected at step l.  A factorization of a stack of matrices
    holds the same fields with the stack's leading axes in front.
    """

    feedforward: np.ndarray
    feedback: np.ndarray
    perm: np.ndarray


def vblast_sorted_factorization(matrix: np.ndarray) -> DfeFilterSet:
    """Sorted successive factorization of a tall full-rank matrix or stack.

    At each step the stream with the smallest diagonal entry of the
    inverse Gram matrix of the remaining columns (best post-equalization
    error) is detected next; ties go to the lowest original column index
    (see ``pick_stream``).  The order comes from one QR and rank-one
    downdates of P = R^-1 R^-T, the filters from one QL factorization of
    the sorted matrix.

    The returned set satisfies feedforward @ matrix[:, perm] == feedback,
    a unit lower triangular matrix, and the feedforward rows are mutually
    orthogonal.  A stack of shape (..., m, n) is factorized slice by slice
    in the same calls, and each slice's filters equal those of the slice
    factorized alone; any slice that is rank deficient fails the call.
    """
    m = _tall(matrix)
    r = np.linalg.qr(m, mode="r")
    _require_full_rank(_diagonal(r), m.shape[-2:])
    rinv = np.linalg.inv(r)
    return _sorted_ql_filters(m, _greedy_order(rinv @ _transpose(rinv)))


def le_zf_matrix(matrix: np.ndarray) -> np.ndarray:
    """Left pseudo-inverse (zero-forcing receive matrix).

    Takes one tall matrix or a stack (..., m, n) of them, inverting each
    slice as it would alone.  Raises ValueError on a wrong shape and
    FactorizationError when a slice is rank deficient.
    """
    m = _tall(matrix)
    q, r = np.linalg.qr(m, mode="reduced")
    _require_full_rank(_diagonal(r), m.shape[-2:])
    return np.linalg.solve(r, _transpose(q))


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


def fast_vblast_correlated(matrix: np.ndarray, reduction: ReducedBasis, alpha: float) -> DfeFilterSet:
    """Sorted factorization for data correlated through an integer basis change.

    Equivalent to ``vblast_sorted_factorization`` applied to the augmented
    matrix of the transformed symbols, [H; sqrt(alpha) I] Z^-1.  The order
    comes from rank-one downdates of Z (H^T H + alpha I)^-1 Z^T, so only
    the filters need a factorization of the doubled-row matrix.

    Parameters
    ----------
    matrix : channel matrix H, m x n with m >= n, full column rank.
    reduction : the basis change, whose Z and Z^-1 are both read; Z is
        never inverted here.
    alpha : noise-to-signal variance ratio, > 0.
    """
    h = _tall(matrix)
    if not (alpha > 0.0):
        raise ValueError(f"alpha must be > 0, got {alpha}")
    zf = reduction.unimodular.astype(float)
    gram = h.T @ h + alpha * np.eye(h.shape[1])
    perm = _greedy_order(zf @ np.linalg.solve(gram, zf.T))
    basis = augment(h, alpha) @ reduction.unimodular_inv
    return _sorted_ql_filters(basis, perm)


def _tall(matrix: np.ndarray) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim < 2 or m.shape[-2] < m.shape[-1]:
        raise ValueError(f"matrix must be m x n with m >= n, got shape {m.shape}")
    return m


def _diagonal(matrix: np.ndarray) -> np.ndarray:
    return np.diagonal(matrix, axis1=-2, axis2=-1)


def _transpose(matrix: np.ndarray) -> np.ndarray:
    return np.swapaxes(matrix, -1, -2)


def _require_full_rank(diag: np.ndarray, shape) -> None:
    """Fail unless every triangular diagonal (last axis) is far from singular."""
    diag = np.abs(diag)
    if not (diag.min(axis=-1) > 1e-12 * max(shape) * diag.max(axis=-1)).all():
        raise FactorizationError("matrix lost full column rank during factorization")


def _greedy_order(gram_inv: np.ndarray) -> np.ndarray:
    """Detection order from the inverse Gram matrix of all streams.

    Picks the stream with the smallest diagonal entry, then removes it by
    the rank-one downdate P - p_k p_k^T / P_kk, which leaves the inverse
    Gram matrix of the remaining streams in the other rows and columns.
    The picked streams' diagonal entries are masked with +inf.  A stack of
    matrices is ordered row-wise, each slice by the same arithmetic.
    """
    n = gram_inv.shape[-1]
    p = (0.5 * (gram_inv + _transpose(gram_inv))).reshape(-1, n, n)
    rows = np.arange(len(p))
    metric = _diagonal(p).copy()
    order = np.empty(metric.shape, dtype=np.intp)
    for step in range(n):
        k = pick_stream(metric)
        order[:, step] = k
        if step == n - 1:
            break  # nothing reads the downdate after the last pick
        v = p[rows, k] / np.sqrt(metric[rows, k])[:, None]
        p -= v[:, :, None] * v[:, None, :]
        metric -= v * v
        metric[rows, k] = np.inf
    return order.reshape(gram_inv.shape[:-1])


def _sorted_ql_filters(matrix: np.ndarray, perm: np.ndarray) -> DfeFilterSet:
    """Filters of every detection step from one QL factorization.

    With matrix[:, perm] = Q L, the remaining columns at step l are
    Q[:, l:] L[l:, l:], so the step's pseudo-inverse row for the detected
    stream is q_l / L_ll.  The QL factors come from the QR of the
    column-reversed matrix.
    """
    sorted_cols = np.take_along_axis(matrix, perm[..., None, ::-1], axis=-1)
    q, r = np.linalg.qr(sorted_cols, mode="reduced")
    low = r[..., ::-1, ::-1]
    diag = _diagonal(low)
    _require_full_rank(diag, matrix.shape[-2:])
    feedforward = np.ascontiguousarray(_transpose(q[..., ::-1]))
    feedforward /= diag[..., None]
    return DfeFilterSet(feedforward=feedforward, feedback=low / diag[..., None], perm=perm)
