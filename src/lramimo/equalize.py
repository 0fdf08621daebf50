"""Equalizer taxonomy, receive-filter construction, and symbol detection.

An :class:`EqualizerSpec` names one point in the design space
(linear or decision-feedback) x (ZF or MMSE) x (lattice-reduction-aided
or not); for reduction-aided MMSE the reduction may target the plain or
the noise-regularized channel matrix.  :func:`build_detector` freezes all
filters for a given channel, and :func:`detect` applies them to
observations.
"""

import enum
from dataclasses import dataclass

import numpy as np

from . import blast
from .lattice import ReducedBasis, lll_reduce, matrix_to_float, unimodular_inverse
from .model import Constellation, MimoChannel


class Structure(enum.Enum):
    LINEAR = "le"
    DFE = "dfe"


class Criterion(enum.Enum):
    ZF = "zf"
    MMSE = "mmse"


class ReductionTarget(enum.Enum):
    ORIGINAL = "orig"
    AUGMENTED = "aug"


@dataclass(frozen=True)
class EqualizerSpec:
    """One equalizer configuration.

    ``reduction_target`` is meaningful only for reduction-aided MMSE; it
    defaults to the augmented matrix there (reducing the regularized
    matrix is the better-performing choice) and must be left unset or
    ORIGINAL otherwise.
    """

    structure: Structure
    criterion: Criterion
    lra: bool = False
    reduction_target: ReductionTarget = None

    def __post_init__(self):
        target = self.reduction_target
        if self.lra and self.criterion is Criterion.MMSE:
            if target is None:
                target = ReductionTarget.AUGMENTED
        else:
            if target is ReductionTarget.AUGMENTED:
                raise ValueError(
                    "reducing the augmented matrix requires the MMSE criterion"
                )
            target = ReductionTarget.ORIGINAL if self.lra else None
        object.__setattr__(self, "reduction_target", target)

    @property
    def spec_id(self) -> str:
        parts = [self.structure.value, self.criterion.value]
        if self.lra:
            parts.append("lra")
            parts.append(self.reduction_target.value)
        return "-".join(parts)

    @classmethod
    def from_dict(cls, data: dict) -> "EqualizerSpec":
        known = {"structure", "criterion", "lra", "reduction_target"}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown equalizer spec keys: {sorted(extra)}")
        target = data.get("reduction_target")
        return cls(
            structure=_parse_enum(Structure, data["structure"]),
            criterion=_parse_enum(Criterion, data["criterion"]),
            lra=bool(data.get("lra", False)),
            reduction_target=_parse_enum(ReductionTarget, target) if target is not None else None,
        )


def _parse_enum(kind, value):
    if isinstance(value, kind):
        return value
    text = str(value).lower()
    aliases = {
        "linear": "le",
        "original": "orig",
        "augmented": "aug",
    }
    text = aliases.get(text, text)
    for member in kind:
        if member.value == text:
            return member
    raise ValueError(f"{value!r} is not a valid {kind.__name__}")


ALL_SPECS = tuple(
    [EqualizerSpec(s, c) for s in Structure for c in Criterion]
    + [EqualizerSpec(s, Criterion.ZF, lra=True) for s in Structure]
    + [
        EqualizerSpec(s, Criterion.MMSE, lra=True, reduction_target=t)
        for s in Structure
        for t in ReductionTarget
    ]
)


@dataclass(frozen=True)
class DetectionResult:
    """Hard decisions plus bookkeeping from one detection.

    ``z_hat`` (transformed-domain decisions) and ``order`` are present only
    for reduction-aided and decision-feedback detectors respectively;
    ``clipped`` counts decisions that fell outside the alphabet after the
    back transformation and were remapped.
    """

    a_hat: np.ndarray
    z_hat: np.ndarray = None
    order: np.ndarray = None
    clipped: int = 0


@dataclass(frozen=True)
class Detector:
    """Frozen filters for one (spec, channel) pair; treat fields read-only."""

    spec: EqualizerSpec
    channel: MimoChannel
    receive: np.ndarray = None
    feedforward: np.ndarray = None
    feedback: np.ndarray = None
    perm: np.ndarray = None
    reduction: ReducedBasis = None
    unimodular_f: np.ndarray = None
    unimodular_inv_f: np.ndarray = None
    z_offset: np.ndarray = None


def le_zf_matrix(matrix: np.ndarray) -> np.ndarray:
    """Left pseudo-inverse (zero-forcing receive matrix)."""
    m = np.asarray(matrix, dtype=float)
    q, r = np.linalg.qr(m, mode="reduced")
    return np.linalg.solve(r, q.T)


def le_mmse_matrix(matrix: np.ndarray, inv_snr: float) -> np.ndarray:
    """MMSE receive matrix via the augmented matrix.

    Pseudo-inverts [H; sqrt(inv_snr) I] and keeps the columns acting on
    the physical observation, which equals (H^T H + inv_snr I)^-1 H^T.
    """
    m = np.asarray(matrix, dtype=float)
    if inv_snr < 0:
        raise ValueError(f"inv_snr must be >= 0, got {inv_snr}")
    n_rx, n_tx = m.shape
    stacked = np.vstack([m, np.sqrt(inv_snr) * np.eye(n_tx)])
    return le_zf_matrix(stacked)[:, :n_rx]


def lra_le_zf_matrix(reduced: np.ndarray) -> np.ndarray:
    """Zero-forcing receive matrix of the reduced basis."""
    return le_zf_matrix(reduced)


def lra_le_mmse_matrix(matrix: np.ndarray, unimodular: np.ndarray, inv_snr: float) -> np.ndarray:
    """Reduction-aided MMSE receive matrix Z (H^T H + inv_snr I)^-1 H^T.

    Estimates the transformed symbols from the physical observation; valid
    for any unimodular basis change, whichever matrix it was derived from.
    """
    m = np.asarray(matrix, dtype=float)
    if not (inv_snr >= 0):
        raise ValueError(f"inv_snr must be >= 0, got {inv_snr}")
    zf = matrix_to_float(unimodular)
    gram = m.T @ m + inv_snr * np.eye(m.shape[1])
    return zf @ np.linalg.solve(gram, m.T)


def lra_le_error_covariance(
    reduced: np.ndarray, unimodular: np.ndarray, inv_snr: float, noise_var: float
) -> np.ndarray:
    """Error covariance of the reduction-aided MMSE linear estimator.

    noise_var * (C^T C + inv_snr Z^-T Z^-1)^-1 for reduced basis C and
    basis change Z.
    """
    c = np.asarray(reduced, dtype=float)
    zi = matrix_to_float(unimodular_inverse(unimodular))
    gram = c.T @ c + inv_snr * (zi.T @ zi)
    cov = noise_var * np.linalg.inv(gram)
    return 0.5 * (cov + cov.T)


def build_detector(
    spec: EqualizerSpec, channel: MimoChannel, reduction: ReducedBasis = None
) -> Detector:
    """Precompute every filter needed to run ``spec`` on ``channel``.

    ``reduction`` lets a spec that reduces the original matrix reuse an
    LLL reduction of ``channel.matrix`` computed earlier; a reduction of
    any other matrix raises ValueError.  Without it the matrix is reduced
    here.
    """
    if reduction is not None and spec.reduction_target is not ReductionTarget.ORIGINAL:
        raise ValueError(f"{spec.spec_id} does not reduce the original matrix")
    h = channel.matrix
    zeta = channel.inv_snr
    n_rx, n_tx = h.shape

    if not spec.lra:
        if spec.structure is Structure.LINEAR:
            if spec.criterion is Criterion.ZF:
                receive = le_zf_matrix(h)
            else:
                receive = le_mmse_matrix(h, zeta)
            return Detector(spec=spec, channel=channel, receive=receive)
        crit = "zf" if spec.criterion is Criterion.ZF else "mmse"
        fs = blast.classic_dfe_filters(h, crit, zeta)
        return Detector(
            spec=spec,
            channel=channel,
            feedforward=fs.feedforward,
            feedback=fs.feedback,
            perm=fs.perm,
        )

    if spec.reduction_target is ReductionTarget.AUGMENTED:
        stacked = np.vstack([h, np.sqrt(zeta) * np.eye(n_tx)])
        rb = lll_reduce(stacked)
    elif reduction is None:
        rb = lll_reduce(h)
    else:
        rb = reduction
    zf = matrix_to_float(rb.unimodular)
    if reduction is not None and not (
        rb.reduced.shape == h.shape and np.allclose(rb.reduced @ zf, h)
    ):
        raise ValueError("reduction does not factor the channel matrix")
    zif = matrix_to_float(rb.unimodular_inv)
    # The alphabet is a half-integer translate of the integers, so the
    # transformed symbols live on Z * (1/2 * ones) plus the integers.
    z_offset = zf @ np.full(n_tx, 0.5)
    common = dict(
        spec=spec,
        channel=channel,
        reduction=rb,
        unimodular_f=zf,
        unimodular_inv_f=zif,
        z_offset=z_offset,
    )

    if spec.structure is Structure.LINEAR:
        if spec.criterion is Criterion.ZF:
            receive = lra_le_zf_matrix(rb.reduced)
        else:
            receive = lra_le_mmse_matrix(h, rb.unimodular, zeta)
        return Detector(receive=receive, **common)

    if spec.criterion is Criterion.ZF:
        fs = blast.vblast_sorted_factorization(rb.reduced)
        feedforward = fs.feedforward
    else:
        if spec.reduction_target is ReductionTarget.AUGMENTED:
            stacked_reduced = rb.reduced
        else:
            stacked_reduced = np.vstack([rb.reduced, np.sqrt(zeta) * zif])
        fs = blast.vblast_sorted_factorization(stacked_reduced)
        feedforward = fs.feedforward[:, :n_rx]
    return Detector(
        feedforward=feedforward,
        feedback=fs.feedback,
        perm=fs.perm,
        **common,
    )


def detect(detector: Detector, observation: np.ndarray, constellation: Constellation) -> DetectionResult:
    """Detect one received vector; see :func:`detect_block` for batches."""
    y = np.asarray(observation, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"observation must be 1-D, got shape {y.shape}")
    a_hat, z_hat, clipped = detect_block(detector, y[:, None], constellation)
    return DetectionResult(
        a_hat=a_hat[:, 0],
        z_hat=None if z_hat is None else z_hat[:, 0],
        order=None if detector.perm is None else detector.perm,
        clipped=clipped,
    )


def detect_block(detector: Detector, observations: np.ndarray, constellation: Constellation):
    """Detect a block of received vectors, one per column.

    Returns (decisions, transformed decisions or None, clip count).  The
    constellation's variance should match the symbol variance the detector
    was built with, otherwise the MMSE filters are mismatched.
    """
    ys = np.asarray(observations, dtype=float)
    if ys.ndim != 2 or ys.shape[0] != detector.channel.n_rx:
        raise ValueError(
            f"observations must be ({detector.channel.n_rx}, frames), got {ys.shape}"
        )
    spec = detector.spec
    n_tx = detector.channel.n_tx
    limit = constellation.amplitude_limit

    if spec.structure is Structure.LINEAR:
        soft = detector.receive @ ys
        if not spec.lra:
            a_hat, _ = _slice_alphabet(soft, limit)
            return a_hat, None, 0
        z_hat = _slice_translate(soft, detector.z_offset[:, None])
        return _back_transform(detector, z_hat, limit)

    soft = detector.feedforward @ ys
    decided = np.empty_like(soft)
    if spec.lra:
        offsets = detector.z_offset[detector.perm]
        for l in range(n_tx):
            resid = soft[l] - detector.feedback[l, :l] @ decided[:l]
            decided[l] = np.round(resid - offsets[l]) + offsets[l]
        z_hat = np.empty_like(decided)
        z_hat[detector.perm] = decided
        return _back_transform(detector, z_hat, limit)
    for l in range(n_tx):
        resid = soft[l] - detector.feedback[l, :l] @ decided[:l]
        decided[l], _ = _slice_alphabet(resid, limit)
    a_hat = np.empty_like(decided)
    a_hat[detector.perm] = decided
    return a_hat, None, 0


def _slice_translate(soft: np.ndarray, offset) -> np.ndarray:
    """Round onto the unbounded half-integer translate lattice."""
    return np.round(soft - offset) + offset


def _slice_alphabet(soft: np.ndarray, limit: float):
    snapped = np.round(soft - 0.5) + 0.5
    clipped_mask = np.abs(snapped) > limit
    return np.clip(snapped, -limit, limit), clipped_mask


def _back_transform(detector: Detector, z_hat: np.ndarray, limit: float):
    raw = detector.unimodular_inv_f @ z_hat
    a_hat, clipped_mask = _slice_alphabet(raw, limit)
    return a_hat, z_hat, int(np.count_nonzero(clipped_mask))
