"""Lattice basis reduction with exact integer change-of-basis bookkeeping.

The reduction operates on the columns of a real matrix.  ``lll_reduce``
is the textbook LLL on the triangular factor: one QR up front, size
reduction on the columns of R, and one Givens rotation of two rows of R
per column swap, so no loop visit re-orthogonalizes the basis.  All
column operations are mirrored on the basis C and on an integer matrix Z
(and its inverse) kept in arbitrary-precision Python integers, so the
factorization H = C Z is exact up to the floating-point column arithmetic
on C alone.  ``unimodular_inverse`` inverts, exactly and without
fractions, a unimodular matrix that does not come from a reduction.
"""

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_DELTA = 0.75

# Sweep bound: reduction of a full-rank basis terminates long before this
# for delta < 1; the cap turns a pathological non-terminating input
# (possible only at delta == 1) into an error instead of a hang.
_MAX_SWEEPS_PER_DIM = 20000


class ReductionError(ValueError):
    """Raised when a basis cannot be reduced (rank loss, no convergence)."""


@dataclass(frozen=True)
class ReducedBasis:
    """Result of a reduction: original = reduced @ unimodular.

    ``reduced`` holds the near-orthogonal basis columns in floats;
    ``unimodular`` and ``unimodular_inv`` are exact integer matrices
    (object arrays of Python ints) with determinant +-1.
    """

    reduced: np.ndarray
    unimodular: np.ndarray
    unimodular_inv: np.ndarray


def lll_reduce(basis: np.ndarray, delta: float = DEFAULT_DELTA) -> ReducedBasis:
    """Reduce the columns of ``basis`` with the Lovasz condition ``delta``.

    The returned factors satisfy reduced @ unimodular == basis up to
    floating-point rounding, with the integer matrices exact.  The reduced
    basis is size reduced (all Gram-Schmidt coefficients at most 1/2 in
    magnitude) and satisfies the Lovasz condition for ``delta``.

    Parameters
    ----------
    basis : array, shape (m, n) with m >= n, full column rank.
    delta : Lovasz parameter in (1/4, 1]; termination is guaranteed for
        delta < 1.
    """
    h = np.asarray(basis, dtype=float)
    if h.ndim != 2 or h.shape[0] < h.shape[1]:
        raise ReductionError(f"basis must be m x n with m >= n, got shape {h.shape}")
    if not (0.25 < delta <= 1.0):
        raise ValueError(f"delta must lie in (1/4, 1], got {delta}")
    n = h.shape[1]
    s = np.linalg.svd(h, compute_uv=False)
    if s.size == 0 or s[-1] <= 1e-10 * max(h.shape) * s[0]:
        raise ReductionError("basis is rank deficient")

    # Column operations act on the basis columns, on the columns of the
    # triangular factor R, on the rows of z and on the columns of zinv
    # alike; R and zinv are stored column by column as Python lists.  R
    # comes from a single QR; a swap breaks its triangularity in one entry,
    # which one Givens rotation of rows k-1 and k restores.  r[i] holds
    # column i of R, so mu_{i,j} = r[i][j] / r[j][j] and |c*_i| = |r[i][i]|.
    cols = [h[:, j].copy() for j in range(n)]
    r = np.linalg.qr(h, mode="r").T.tolist()
    z = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    zinv_cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]

    sweeps = 0
    limit = _MAX_SWEEPS_PER_DIM * n * n
    k = 1
    while k < n:
        sweeps += 1
        if sweeps > limit:
            raise ReductionError(f"reduction did not converge within {limit} sweeps")
        rk = r[k]
        for j in range(k - 1, -1, -1):
            rj = r[j]
            mu = rk[j] / rj[j]
            if abs(mu) > 0.5:
                q = int(round(mu))
                rk[: j + 1] = [a - q * b for a, b in zip(rk, rj[: j + 1])]
                cols[k] -= q * cols[j]
                z[j] = [a + q * b for a, b in zip(z[j], z[k])]
                zinv_cols[k] = [a - q * b for a, b in zip(zinv_cols[k], zinv_cols[j])]
        r_prev = r[k - 1][k - 1]
        mu_adj = rk[k - 1] / r_prev
        if rk[k] ** 2 >= (delta - mu_adj**2) * r_prev**2:
            k += 1
        else:
            cols[k - 1], cols[k] = cols[k], cols[k - 1]
            r[k - 1], r[k] = rk, r[k - 1]
            z[k - 1], z[k] = z[k], z[k - 1]
            zinv_cols[k - 1], zinv_cols[k] = zinv_cols[k], zinv_cols[k - 1]
            a, b = rk[k - 1], rk[k]
            rho = math.hypot(a, b)
            cs, sn = a / rho, b / rho
            for col in r[k - 1 :]:
                x, y = col[k - 1], col[k]
                col[k - 1] = cs * x + sn * y
                col[k] = cs * y - sn * x
            rk[k] = 0.0
            k = max(k - 1, 1)

    z_arr = np.array(z, dtype=object)
    zinv_arr = np.array([list(row) for row in zip(*zinv_cols)], dtype=object)
    if not _is_identity(z_arr @ zinv_arr):
        raise ReductionError("internal bookkeeping error: Z @ Zinv != I")
    return ReducedBasis(reduced=np.column_stack(cols), unimodular=z_arr, unimodular_inv=zinv_arr)


def unimodular_inverse(matrix: np.ndarray) -> np.ndarray:
    """Exact integer inverse of a unimodular matrix.

    Integer row reduction on Python ints, with every row operation applied
    to the identity as well: Euclid's algorithm leaves one nonzero entry in
    each column on and below the diagonal, and back substitution clears
    the entries above the unit pivots.  Raises ValueError when a column
    has no pivot or a pivot is not +-1, that is, when the determinant is
    not +-1.
    """
    a = _as_int_rows(matrix)
    n = len(a)
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        while True:
            rows = [i for i in range(col, n) if a[i][col]]
            if not rows:
                raise ValueError(f"matrix is singular: column {col} has no pivot")
            p = min(rows, key=lambda i: abs(a[i][col]))
            if len(rows) == 1:
                break
            for i in rows:
                if i != p:
                    q = a[i][col] // a[p][col]
                    a[i] = [x - q * y for x, y in zip(a[i], a[p])]
                    inv[i] = [x - q * y for x, y in zip(inv[i], inv[p])]
        a[col], a[p] = a[p], a[col]
        inv[col], inv[p] = inv[p], inv[col]
        pivot = a[col][col]
        if pivot not in (1, -1):
            raise ValueError(f"matrix is not unimodular: pivot {pivot} in column {col}, expected +-1")
        if pivot == -1:
            a[col] = [-x for x in a[col]]
            inv[col] = [-x for x in inv[col]]
    # a is now unit upper triangular.  Clearing its columns from the last
    # one down, row col of a is e_col by the time it is used, so only the
    # rows of the inverse change.
    for col in range(n - 1, 0, -1):
        for i in range(col):
            f = a[i][col]
            if f:
                inv[i] = [x - f * y for x, y in zip(inv[i], inv[col])]
    return np.array(inv, dtype=object)


def matrix_to_float(matrix: np.ndarray) -> np.ndarray:
    """View an exact integer (object) matrix as float64."""
    return np.asarray(matrix, dtype=object).astype(float)


def _as_int_rows(matrix: np.ndarray):
    arr = np.asarray(matrix, dtype=object)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    rows = []
    for row in arr.tolist():
        out = []
        for v in row:
            iv = int(v)
            if iv != v:
                raise ValueError(f"matrix entry {v!r} is not an integer")
            out.append(iv)
        rows.append(out)
    return rows


def _is_identity(arr: np.ndarray) -> bool:
    n = arr.shape[0]
    return all(arr[i, j] == (1 if i == j else 0) for i in range(n) for j in range(n))
