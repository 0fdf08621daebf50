"""Transmission model for real-valued MIMO equalization.

Provides the ASK symbol alphabet, the real-valued representation of a
complex flat-fading channel, and the noise-regularized (augmented) channel
matrix on which zero-forcing processing coincides with MMSE processing.
"""

import copy
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

    ``matrix`` has at least as many rows as columns and full column rank.
    ``noise_var`` and ``symbol_var`` are per-component variances of the
    white noise and of the data symbols.  A zero ``noise_var`` describes
    noiseless operation, in which case MMSE processing degenerates to
    zero forcing.
    """

    matrix: np.ndarray
    noise_var: float
    symbol_var: float

    def __post_init__(self):
        h = np.asarray(self.matrix, dtype=float)
        if h.ndim != 2:
            raise ValueError(f"channel matrix must be 2-D, got shape {h.shape}")
        if h.shape[0] < h.shape[1]:
            raise ValueError(
                f"channel needs at least as many receive as transmit dimensions, got {h.shape}"
            )
        _require_noise_var(self.noise_var)
        if not (self.symbol_var > 0.0):
            raise ValueError(f"symbol_var must be > 0, got {self.symbol_var}")
        _require_full_column_rank(h, "channel matrix")
        h.setflags(write=False)
        object.__setattr__(self, "matrix", h)

    def with_noise_var(self, noise_var: float) -> "MimoChannel":
        """The same channel at another noise variance.

        Only ``noise_var`` is validated; the matrix, already checked, is
        shared rather than put through the rank check again.
        """
        _require_noise_var(noise_var)
        other = copy.copy(self)
        object.__setattr__(other, "noise_var", noise_var)
        return other

    @property
    def n_rx(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_tx(self) -> int:
        return self.matrix.shape[1]

    @property
    def inv_snr(self) -> float:
        """Noise-to-signal variance ratio; the MMSE regularization weight."""
        return self.noise_var / self.symbol_var


class RankDeficientError(ValueError):
    """Raised when a matrix that must have full column rank does not."""


def _require_noise_var(noise_var: float) -> None:
    if not (noise_var >= 0.0):
        raise ValueError(f"noise_var must be >= 0, got {noise_var}")


def _require_full_column_rank(matrix: np.ndarray, what: str) -> None:
    s = np.linalg.svd(matrix, compute_uv=False)
    if s.size == 0 or s[-1] <= _RANK_TOL_FACTOR * max(matrix.shape) * s[0]:
        raise RankDeficientError(f"{what} is rank deficient")


def complex_to_real_model(matrix: np.ndarray, vector: np.ndarray):
    """Map a complex channel matrix and vector to the real-valued model.

    The matrix becomes [[Re, -Im], [Im, Re]] and the vector stacks real
    parts over imaginary parts, so complex multiplication is reproduced
    exactly by the real representation.

    Returns the pair (real matrix, real vector).
    """
    hc = np.asarray(matrix, dtype=complex)
    vc = np.asarray(vector, dtype=complex)
    if hc.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {hc.shape}")
    if vc.ndim != 1:
        raise ValueError(f"vector must be 1-D, got shape {vc.shape}")
    if vc.shape[0] != hc.shape[1]:
        raise ValueError(
            f"vector length {vc.shape[0]} does not match matrix columns {hc.shape[1]}"
        )
    hr = np.block([[hc.real, -hc.imag], [hc.imag, hc.real]])
    vr = np.concatenate([vc.real, vc.imag])
    return hr, vr


def complex_matrix_to_real(matrix: np.ndarray) -> np.ndarray:
    """Real block representation [[Re, -Im], [Im, Re]] of a complex matrix."""
    hc = np.asarray(matrix, dtype=complex)
    if hc.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {hc.shape}")
    return np.block([[hc.real, -hc.imag], [hc.imag, hc.real]])


def augment(matrix: np.ndarray, inv_snr: float, regularizer: np.ndarray = None) -> np.ndarray:
    """Stack ``matrix`` on sqrt(inv_snr) times ``regularizer`` (default I).

    With the identity, the left pseudo-inverse of [H; sqrt(inv_snr) I],
    restricted to the observation rows, is the MMSE receive filter of H; a
    zero ratio reproduces plain zero forcing.  A reduced basis H Z^-1 is
    augmented with ``regularizer`` Z^-1, giving [H; sqrt(inv_snr) I] Z^-1.
    """
    m = np.asarray(matrix, dtype=float)
    if not (inv_snr >= 0):
        raise ValueError(f"inv_snr must be >= 0, got {inv_snr}")
    lower = np.eye(m.shape[1]) if regularizer is None else regularizer
    return np.vstack([m, np.sqrt(inv_snr) * lower])


def apply_channel(
    channel: MimoChannel,
    symbols: np.ndarray,
    noise: np.ndarray = None,
    rng: np.random.Generator = None,
) -> np.ndarray:
    """Propagate a symbol vector, adding explicit or freshly drawn noise.

    With ``noise`` given the result is deterministic; otherwise ``rng``
    draws white Gaussian noise with the channel's per-component variance.
    With neither, the noiseless product is returned.
    """
    a = np.asarray(symbols, dtype=float)
    if a.shape != (channel.n_tx,):
        raise ValueError(f"symbols must have shape ({channel.n_tx},), got {a.shape}")
    y = channel.matrix @ a
    if noise is not None:
        n = np.asarray(noise, dtype=float)
        if n.shape != y.shape:
            raise ValueError(f"noise must have shape {y.shape}, got {n.shape}")
        return y + n
    if rng is not None:
        return y + rng.normal(0.0, np.sqrt(channel.noise_var), size=y.shape)
    return y


def augment_observation(observation: np.ndarray, n_tx: int) -> np.ndarray:
    """Append the zero vector that pairs with the augmented channel rows."""
    y = np.asarray(observation, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"observation must be 1-D, got shape {y.shape}")
    return np.concatenate([y, np.zeros(n_tx)])
