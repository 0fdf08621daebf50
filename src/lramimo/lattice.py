"""Lattice basis reduction with exact integer change-of-basis bookkeeping.

The reduction operates on the columns of a real matrix, or of every matrix
of a stack (..., m, n).  ``lll_reduce`` is the textbook LLL on the
triangular factor: one QR up front, size reduction on the columns of R,
and one Givens rotation of two rows of R per column swap, so no loop visit
re-orthogonalizes the basis.  A stack takes one rank check, one QR and one
Z^-1 step for all its slices, then one loop per slice.  The loop mirrors
every column operation on the integer matrix Z alone, kept in Python
integers and returned as int64; an entry beyond int64 raises
OverflowError.  Z^-1 is computed after the loop, for the whole stack at
once: one float inverse, rounded, kept for each slice whose exact int64
product with Z is I.  The result is Z and Z^-1 alone: the reduced basis is
H Z^-1, which a caller forms when it needs it.  ``unimodular_inverse``
inverts a unimodular matrix exactly and without fractions, in Python
integers, at any size.  It gives Z^-1 for any slice whose float inverse
fails that check, and the Schur-identity check in ``estimate`` calls it
once per drawn Z.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import _require_full_column_rank

DEFAULT_DELTA = 0.75

# Sweep bound, about 100x the most seen on seeded draws (9.2 n^2 at 16
# dimensions, condition number 10^6, delta = 1): turns a pathological
# non-terminating input (possible only at delta == 1) into an error.
_MAX_SWEEPS_PER_DIM = 1000


class ReductionError(ValueError):
    """Raised when the reduction does not converge within its sweep cap."""


@dataclass(frozen=True, eq=False)
class ReducedBasis:
    """Result of the reduction of a basis B: B = C Z for the reduced basis C = B Z^-1.

    ``unimodular`` (Z) and ``unimodular_inv`` are exact int64 matrices with
    determinant +-1, which multiply float arrays directly; the reduction of
    a stack holds both stacked the same way.  Reductions compare by identity.
    """

    unimodular: np.ndarray
    unimodular_inv: np.ndarray


def lll_reduce(basis: np.ndarray, delta: float = DEFAULT_DELTA) -> ReducedBasis:
    """Reduce the columns of ``basis`` with the Lovasz condition ``delta``.

    Returns the exact integer matrices Z and Z^-1 of the reduction; one
    whose entries do not fit in int64 raises OverflowError.  The loop
    tracks Z alone; Z^-1 comes after it, for the whole stack, from one
    float inverse checked exactly slice by slice, or from
    ``unimodular_inverse`` for a slice that fails the check.  The reduced
    basis C = basis @ Z^-1 is size reduced (all Gram-Schmidt coefficients
    at most 1/2 in magnitude) and satisfies the Lovasz condition for
    ``delta``.  A stack (..., m, n) is reduced slice by slice in one call,
    each slice bit for bit as it would be alone, and the result's fields
    are stacked the same way; any slice that is rank deficient or does not
    converge fails the call.

    Parameters
    ----------
    basis : array, shape (m, n) or (..., m, n) with m >= n, finite and of
        full column rank (every slice) by the channel's rule.
    delta : Lovasz parameter in (1/4, 1]; termination is guaranteed for
        delta < 1.
    """
    h = np.asarray(basis, dtype=float)
    _require_full_column_rank(h, "basis")
    if not (0.25 < delta <= 1.0):
        raise ValueError(f"delta must lie in (1/4, 1], got {delta}")
    n = h.shape[-1]
    r = np.swapaxes(np.linalg.qr(h, mode="r"), -1, -2).reshape(-1, n, n)
    z = np.array([_reduce_columns(cols, delta) for cols in r.tolist()], dtype=np.int64)
    zinv, product = _inverse(z)
    if not _is_identity(product):
        raise RuntimeError("internal bookkeeping error: Z @ Zinv != I")
    shape = h.shape[:-2] + (n, n)
    return ReducedBasis(z.reshape(shape), zinv.reshape(shape))


def _reduce_columns(r: list, delta: float) -> list:
    """Rows of Z for the reduction of one triangular factor.

    ``r[i]`` holds column i of R as a list, changed in place.  Column
    operations act on the columns of R and on the rows of z alike; Z^-1 is
    not tracked here.  A swap breaks the triangularity of R in one entry,
    which one Givens rotation of rows k-1 and k restores.
    mu_{i,j} = r[i][j] / r[j][j] and |c*_i| = |r[i][i]|.
    """
    n = len(r)
    z = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
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
                z[j] = [a + q * b for a, b in zip(z[j], z[k])]
        r_prev = r[k - 1][k - 1]
        mu_adj = rk[k - 1] / r_prev
        if rk[k] ** 2 >= (delta - mu_adj**2) * r_prev**2:
            k += 1
        else:
            r[k - 1], r[k] = rk, r[k - 1]
            z[k - 1], z[k] = z[k], z[k - 1]
            a, b = rk[k - 1], rk[k]
            rho = math.hypot(a, b)
            cs, sn = a / rho, b / rho
            for col in r[k - 1 :]:
                x, y = col[k - 1], col[k]
                col[k - 1] = cs * x + sn * y
                col[k] = cs * y - sn * x
            rk[k] = 0.0
            k = max(k - 1, 1)
    return z


def _inverse(z: np.ndarray):
    """(Z^-1, Z Z^-1) for the int64 stack ``z`` of unimodular matrices (slices, n, n).

    One float inverse of the whole stack, rounded to integers, is kept for
    each slice whose int64 product with Z is I, and that product is exact
    because n max|Z| max|Z^-1| < 2^62 is required first.  Any other slice,
    and every slice when the float inverse raises, gets ``unimodular_inverse``.
    No value that is not finite or not below 2^62 is cast to int64.
    """
    n = z.shape[-1]
    zf = z.astype(float)
    try:
        inv = np.rint(np.linalg.inv(zf))
    except np.linalg.LinAlgError:
        inv = np.zeros_like(zf)  # a zero Z^-1 fails the check below
    bound = n * np.abs(zf).max(axis=(1, 2)) * np.abs(inv).max(axis=(1, 2))
    zinv = np.where((bound < 2.0**62)[:, None, None], inv, 0.0).astype(np.int64)
    product = z @ zinv
    for i in np.flatnonzero(~(product == np.eye(n, dtype=np.int64)).all(axis=(1, 2))):
        try:
            zinv[i] = unimodular_inverse(z[i])
        except ValueError as exc:
            raise RuntimeError("internal bookkeeping error: Z is not unimodular") from exc
        product[i] = z[i] @ zinv[i]
    return zinv, product


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


def _as_int_rows(matrix: np.ndarray):
    arr = np.asarray(matrix, dtype=object)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    rows = []
    for row in arr.tolist():
        out = []
        for v in row:
            try:
                iv = int(v)
            except (OverflowError, ValueError):  # an infinite or NaN float
                iv = None
            if iv != v:
                raise ValueError(f"matrix entry {v!r} is not an integer")
            out.append(iv)
        rows.append(out)
    return rows


def _is_identity(arr: np.ndarray) -> bool:
    """True when every matrix of the stack ``arr`` is the identity."""
    return bool((arr == np.eye(arr.shape[-1], dtype=np.int64)).all())
