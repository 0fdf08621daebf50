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
from .model import ALPHABET_OFFSET, Constellation, MimoChannel, augment


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
    """Frozen filters for one (spec, channel) pair; treat fields read-only.

    Every spec compiles to the same normal form: ``feedforward`` (the
    observation columns of the zero-forcing filters of the basis matrix),
    ``feedback`` and ``perm`` (None for linear detectors), and, for
    reduction-aided specs, the ``reduction`` with Z^-1 in floating point.
    ``z_offset`` is the translate onto which the estimates are sliced:
    ALPHABET_OFFSET * 1 without reduction, Z (ALPHABET_OFFSET * 1) with it.
    """

    spec: EqualizerSpec
    channel: MimoChannel
    feedforward: np.ndarray
    z_offset: np.ndarray
    feedback: np.ndarray = None
    perm: np.ndarray = None
    reduction: ReducedBasis = None
    unimodular_inv_f: np.ndarray = None


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
    return le_zf_matrix(augment(m, inv_snr))[:, : m.shape[0]]


def lra_le_mmse_matrix(matrix: np.ndarray, unimodular: np.ndarray, inv_snr: float) -> np.ndarray:
    """Reduction-aided MMSE receive matrix Z (H^T H + inv_snr I)^-1 H^T.

    Estimates the transformed symbols from the physical observation; valid
    for any unimodular basis change, whichever matrix it was derived from.
    Detectors use the equal pseudo-inverse of the reduced augmented basis;
    this closed form is the oracle the equivalence checks compare against.
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

    Every spec is zero-forcing processing of one basis matrix: H for ZF,
    [H; sqrt(zeta) I] for MMSE, and under reduction the reduced basis of
    whichever of the two was reduced, which for MMSE is [H; sqrt(zeta) I]
    Z^-1 in both targets.  Linear filters are its pseudo-inverse, DFE
    filters its sorted successive factorization; either way only the
    columns acting on the observation are kept.

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
    mmse = spec.criterion is Criterion.MMSE

    basis = augment(h, zeta) if mmse else h
    rb = zif = None
    z_offset = np.full(n_tx, ALPHABET_OFFSET)
    if spec.lra:
        if spec.reduction_target is ReductionTarget.AUGMENTED:
            rb = lll_reduce(basis)
        elif reduction is None:
            rb = lll_reduce(h)
        else:
            rb = reduction
        zf = matrix_to_float(rb.unimodular)
        # np.allclose's test (rtol 1e-5, atol 1e-8) as one reduction.
        if reduction is not None and not (
            rb.reduced.shape == h.shape
            and (np.abs(rb.reduced @ zf - h) <= 1e-8 + 1e-5 * np.abs(h)).all()
        ):
            raise ValueError("reduction does not factor the channel matrix")
        zif = matrix_to_float(rb.unimodular_inv)
        # The transformed symbols live on Z * (ALPHABET_OFFSET * ones) plus
        # the integers.
        z_offset = zf @ z_offset
        basis = rb.reduced
        if mmse and spec.reduction_target is ReductionTarget.ORIGINAL:
            basis = augment(basis, zeta, zif)

    if spec.structure is Structure.LINEAR:
        feedforward, feedback, perm = le_zf_matrix(basis), None, None
    else:
        fs = blast.vblast_sorted_factorization(basis)
        feedforward, feedback, perm = fs.feedforward, fs.feedback, fs.perm
    return Detector(
        spec=spec,
        channel=channel,
        feedforward=feedforward[:, :n_rx],
        z_offset=z_offset,
        feedback=feedback,
        perm=perm,
        reduction=rb,
        unimodular_inv_f=zif,
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
        order=detector.perm,
        clipped=clipped,
    )


def detect_block(detector: Detector, observations: np.ndarray, constellation: Constellation):
    """Detect a block of received vectors, one per column.

    Returns (decisions, transformed decisions or None, clip count).  The
    estimates are rounded onto the detector's translate lattice, one
    stream at a time with feedback cancellation for DFE detectors.
    Without reduction that lattice is the alphabet's and decisions are
    clipped to it as they are made; with reduction the transformed
    decisions are mapped back through Z^-1, and those outside the alphabet
    are clipped and counted.  The constellation's variance should match
    the symbol variance the detector was built with, otherwise the MMSE
    filters are mismatched.
    """
    ys = np.asarray(observations, dtype=float)
    if ys.ndim != 2 or ys.shape[0] != detector.channel.n_rx:
        raise ValueError(
            f"observations must be ({detector.channel.n_rx}, frames), got {ys.shape}"
        )
    reduced = detector.reduction is not None
    limit = constellation.amplitude_limit
    loop_limit = None if reduced else limit
    soft = detector.feedforward @ ys
    if detector.feedback is None:
        decided = _slice(soft, detector.z_offset[:, None], loop_limit)
    else:
        offsets = detector.z_offset[detector.perm]
        in_order = np.empty_like(soft)
        for l in range(soft.shape[0]):
            resid = soft[l] - detector.feedback[l, :l] @ in_order[:l]
            in_order[l] = _slice(resid, offsets[l], loop_limit)
        decided = np.empty_like(in_order)
        decided[detector.perm] = in_order
    if not reduced:
        return decided, None, 0
    a_hat = _slice(detector.unimodular_inv_f @ decided, ALPHABET_OFFSET, None)
    clipped = int(np.count_nonzero(np.abs(a_hat) > limit))
    return np.clip(a_hat, -limit, limit), decided, clipped


def _slice(soft: np.ndarray, offset, limit):
    """Round onto offset + integers, then clip to +-limit unless it is None."""
    snapped = soft - offset
    np.rint(snapped, out=snapped)
    snapped += offset
    return snapped if limit is None else np.clip(snapped, -limit, limit, out=snapped)
