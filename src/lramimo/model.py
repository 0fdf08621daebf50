"""Transmission model for real-valued MIMO equalization.

Provides the ASK symbol alphabet, the real-valued representation of a
complex flat-fading channel, and the noise-regularized (augmented) channel
matrix on which zero-forcing processing coincides with MMSE processing.
"""

from dataclasses import dataclass

import numpy as np

_RANK_TOL_FACTOR = 1e-10

# The ASK alphabet is the integers shifted by this offset; the detectors
# slice onto that translate.
ALPHABET_OFFSET = 0.5


@dataclass(frozen=True)
class Constellation:
    """Zero-mean amplitude-shift-keying alphabet with unit spacing.

    The points are the half-integers +-1/2, +-3/2, ..., +-(order-1)/2, so
    the alphabet is a translate of the integers restricted to a symmetric
    window.  ``variance`` is the average symbol energy under a uniform
    prior.
    """

    order: int
    points: np.ndarray
    variance: float

    @property
    def amplitude_limit(self) -> float:
        """Magnitude of the outermost constellation point."""
        return (self.order - 1) / 2.0


def make_ask_constellation(order: int) -> Constellation:
    """Build the M-ary ASK alphabet {+-1/2, +-3/2, ..., +-(M-1)/2}.

    Only even orders are supported: the half-integer translate used by the
    lattice detectors assumes the alphabet is symmetric about zero with no
    point at the origin.
    """
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ValueError(f"constellation order must be an integer, got {order!r}")
    if order < 2 or order % 2 != 0:
        raise ValueError(f"constellation order must be an even integer >= 2, got {order}")
    points = np.arange(-(order - 1), order, 2) / 2.0
    points.setflags(write=False)
    variance = float(np.mean(points**2))
    return Constellation(order=int(order), points=points, variance=variance)


@dataclass(frozen=True)
class MimoChannel:
    """Real-valued flat-fading relation y = H a + n.

    ``matrix`` is finite, with at least as many rows as columns and full column rank.
    ``noise_var`` and ``symbol_var`` are per-component variances of the
    white noise and of the data symbols.  A zero ``noise_var`` describes
    noiseless operation, in which case MMSE processing degenerates to
    zero forcing.
    """

    matrix: np.ndarray
    noise_var: float
    symbol_var: float

    def __post_init__(self):
        # A copy: freezing the caller's own array would freeze it for the caller too.
        h = np.array(self.matrix, dtype=float)
        if not (self.noise_var >= 0.0):
            raise ValueError(f"noise_var must be >= 0, got {self.noise_var}")
        if not (self.symbol_var > 0.0):
            raise ValueError(f"symbol_var must be > 0, got {self.symbol_var}")
        if h.ndim != 2:
            raise ValueError(f"channel matrix must be 2-D, got shape {h.shape}")
        _require_full_column_rank(h, "channel matrix")
        h.setflags(write=False)
        object.__setattr__(self, "matrix", h)

    @property
    def inv_snr(self) -> float:
        """Noise-to-signal variance ratio; the MMSE regularization weight."""
        return self.noise_var / self.symbol_var


class RankDeficientError(ValueError):
    """Raised when a matrix that must have full column rank does not."""


def _require_full_column_rank(matrix: np.ndarray, what: str) -> None:
    """ValueError unless tall and finite, RankDeficientError unless of full column rank.

    A stack (..., m, n) passes when every slice does, each by its own
    singular values.  [H; sqrt(zeta) I], with singular values
    sqrt(s_i^2 + zeta), passes once sqrt(zeta) clears its threshold, which
    grows with the row count: near zeta = 0 an H that passes can make it fail.
    """
    if matrix.ndim < 2 or matrix.shape[-2] < matrix.shape[-1]:
        raise ValueError(f"{what} needs at least as many receive as transmit dimensions, got {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ValueError(f"{what} has non-finite entries")
    s = np.linalg.svd(matrix, compute_uv=False)
    if s.size == 0 or (s[..., -1] <= _RANK_TOL_FACTOR * max(matrix.shape[-2:]) * s[..., 0]).any():
        raise RankDeficientError(f"{what} is rank deficient")


def complex_matrix_to_real(matrix: np.ndarray) -> np.ndarray:
    """Real block representation [[Re, -Im], [Im, Re]] of a complex matrix."""
    hc = np.asarray(matrix, dtype=complex)
    if hc.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {hc.shape}")
    return np.block([[hc.real, -hc.imag], [hc.imag, hc.real]])


def augment(matrix: np.ndarray, inv_snr) -> np.ndarray:
    """Stack ``matrix`` on sqrt(inv_snr) I.

    The left pseudo-inverse of [H; sqrt(inv_snr) I], restricted to the
    observation rows, is the MMSE receive filter of H; a zero ratio
    reproduces plain zero forcing.  A basis change Z acts on the result
    from the right: [H; sqrt(inv_snr) I] Z^-1 is the augmented matrix of
    the transformed symbols Z a.  A stack (..., m, n) and ratios that
    broadcast against its leading axes give every [H; sqrt(zeta) I] in one array.
    """
    m = np.asarray(matrix, dtype=float)
    zeta = np.asarray(inv_snr, dtype=float)
    if not (zeta >= 0).all():
        raise ValueError(f"inv_snr must be >= 0, got {inv_snr}")
    rows, n = m.shape[-2:]
    out = np.zeros(np.broadcast_shapes(m.shape[:-2], zeta.shape) + (rows + n, n))
    out[..., :rows, :] = m
    out[..., rows + np.arange(n), np.arange(n)] = np.sqrt(zeta)[..., None]
    return out
