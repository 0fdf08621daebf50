"""Equalizer taxonomy, receive-filter construction, and symbol detection.

An :class:`EqualizerSpec` names one point in the design space
(linear or decision-feedback) x (ZF or MMSE) x (lattice-reduction-aided
or not); for reduction-aided MMSE the reduction may target the plain or
the noise-regularized channel matrix.  :func:`build_detectors` freezes all
filters of one channel draw, for every spec and SNR point, doing each
piece of work the specs and SNRs share once; :func:`build_detector` is its
one-spec, one-SNR case, and :func:`detect_block` applies the filters to
blocks of observations, in place in the buffers of a :class:`Workspace`.
"""

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import blast
from .lattice import ReducedBasis, lll_reduce, matrix_to_float
from .lattice import unimodular_inverse  # unused here, but the benchmark tracer (perfbench/spans.py) wraps it
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

    ``reduction_target`` names the matrix that is lattice reduced: None
    for no reduction, ORIGINAL for the channel matrix, AUGMENTED for the
    noise-regularized one, which only the MMSE criterion has.
    """

    structure: Structure
    criterion: Criterion
    reduction_target: ReductionTarget = None

    def __post_init__(self):
        mmse = self.criterion is Criterion.MMSE
        if self.reduction_target is ReductionTarget.AUGMENTED and not mmse:
            raise ValueError("reducing the augmented matrix requires the MMSE criterion")

    @property
    def spec_id(self) -> str:
        parts = [self.structure.value, self.criterion.value]
        if self.reduction_target is not None:
            parts += ["lra", self.reduction_target.value]
        return "-".join(parts)

    @classmethod
    def from_dict(cls, data: dict) -> "EqualizerSpec":
        """Parse a config entry; ``lra`` switches reduction on.

        The target defaults to the augmented matrix for MMSE (the
        better-performing choice) and to the original one for ZF.
        """
        _check_keys(data, {"structure", "criterion"}, {"lra", "reduction_target"}, "equalizer spec")
        criterion = _parse_enum(Criterion, data["criterion"])
        lra = _parse_bool(data.get("lra", False), "lra")
        target = data.get("reduction_target")
        if target is not None:
            if not lra:
                raise ValueError(f'reduction_target {target!r} needs "lra": true')
            target = _parse_enum(ReductionTarget, target)
        elif lra:
            mmse = criterion is Criterion.MMSE
            target = ReductionTarget.AUGMENTED if mmse else ReductionTarget.ORIGINAL
        return cls(_parse_enum(Structure, data["structure"]), criterion, target)


def _check_keys(data: dict, required: set, optional: set, what: str) -> None:
    """Raise ValueError unless ``data`` is a dict; name its unknown and missing keys."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object, got {data!r}")
    extra = set(data) - required - optional
    if extra:
        raise ValueError(f"unknown {what} keys: {sorted(extra)}")
    missing = required - set(data)
    if missing:
        raise ValueError(f"missing {what} keys: {sorted(missing)}")


def _parse_bool(value, key: str) -> bool:
    """``value`` itself if it is a bool; anything else, "false" included, is an error."""
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


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
    + [EqualizerSpec(s, Criterion.ZF, ReductionTarget.ORIGINAL) for s in Structure]
    + [EqualizerSpec(s, Criterion.MMSE, t) for s in Structure for t in ReductionTarget]
)


@dataclass(frozen=True)
class Detector:
    """Frozen filters for one (spec, channel) pair; treat fields read-only.

    Every spec compiles to the same normal form: ``feedforward`` (the
    observation columns of the zero-forcing filters of B Z^-1), ``feedback``
    and ``perm`` (None for linear detectors), and, for reduction-aided
    specs, the ``reduction`` that supplied Z, with Z^-1 in floating point.
    ``z_offset`` is the translate onto which the estimates are sliced:
    ALPHABET_OFFSET * 1 without reduction, Z (ALPHABET_OFFSET * 1) with it.
    """

    spec: EqualizerSpec
    feedforward: np.ndarray
    z_offset: np.ndarray
    feedback: np.ndarray = None
    perm: np.ndarray = None
    reduction: ReducedBasis = None
    unimodular_inv_f: np.ndarray = None


def le_zf_matrix(matrix: np.ndarray) -> np.ndarray:
    """Left pseudo-inverse (zero-forcing receive matrix).

    Takes one tall matrix or a stack (..., m, n) of them, inverting each
    slice as it would alone.  Raises ValueError on a wrong shape and
    FactorizationError when a slice is rank deficient.
    """
    m = blast._tall(matrix)
    q, r = np.linalg.qr(m, mode="reduced")
    blast._require_full_rank(np.diagonal(r, axis1=-2, axis2=-1), m.shape[-2:])
    return np.linalg.solve(r, np.swapaxes(q, -1, -2))


def lra_le_mmse_matrix(matrix: np.ndarray, unimodular: np.ndarray, inv_snr: float) -> np.ndarray:
    """Reduction-aided MMSE receive matrix Z (H^T H + inv_snr I)^-1 H^T.

    Estimates the transformed symbols from the physical observation; valid
    for any unimodular basis change, whichever matrix it was derived from.
    Detectors use the equal pseudo-inverse of [H; sqrt(inv_snr) I] Z^-1,
    restricted to the observation columns; this closed form is the oracle
    the equivalence checks compare against.
    """
    m = np.asarray(matrix, dtype=float)
    if not (inv_snr >= 0):
        raise ValueError(f"inv_snr must be >= 0, got {inv_snr}")
    zf = matrix_to_float(unimodular)
    gram = m.T @ m + inv_snr * np.eye(m.shape[1])
    return zf @ np.linalg.solve(gram, m.T)


def build_detector(spec: EqualizerSpec, channel: MimoChannel) -> Detector:
    """Precompute every filter needed to run ``spec`` on ``channel``.

    The one-spec, one-SNR case of :func:`build_detectors`.
    """
    return build_detectors([spec], channel.matrix, [channel.inv_snr])[0][0]


def build_detectors(specs, matrix: np.ndarray, inv_snrs) -> list:
    """Detectors of one channel draw for every SNR (outer list) and spec (inner list).

    Every spec is zero-forcing processing of one basis matrix B Z^-1, with
    B = H for ZF, B = [H; sqrt(zeta) I] for MMSE and Z = I without
    reduction.  A reduction contributes only Z; its target decides which
    matrix Z reduces, H or B.  Linear filters are the pseudo-inverse of
    B Z^-1, DFE filters its sorted successive factorization; either way
    only the columns acting on the observation are kept.

    ``matrix`` is H and ``inv_snrs`` holds zeta per SNR point.  Only B of
    an MMSE spec depends on zeta, so a ZF detector is built once and
    repeated at every SNR; H, each [H; sqrt(zeta) I] and their reductions
    are made at most once, on first use.  Each spec factorizes its bases
    in one kernel call on their stack, slice by slice as each alone.
    """
    inv_snrs = list(inv_snrs)
    if not inv_snrs or not all(r >= 0 for r in inv_snrs):
        raise ValueError(f"inv_snrs must be a non-empty list of values >= 0, got {inv_snrs}")
    h = np.asarray(matrix, dtype=float)
    offset = np.full(h.shape[1], ALPHABET_OFFSET)
    augmented = functools.cache(lambda: [augment(h, r) for r in inv_snrs])
    h_change = functools.cache(lambda: [_basis_change(lll_reduce(h), offset)])
    b_changes = functools.cache(lambda: [_basis_change(lll_reduce(b), offset) for b in augmented()])
    per_spec = []
    for spec in specs:
        mmse = spec.criterion is Criterion.MMSE
        bases = augmented() if mmse else [h]
        if spec.reduction_target is ReductionTarget.ORIGINAL:
            changes = h_change() * len(bases)
        elif spec.reduction_target is ReductionTarget.AUGMENTED:
            changes = b_changes()
        else:
            changes = [(None, None, offset)] * len(bases)
        built = _factorize(spec, bases, changes, h.shape[0])
        per_spec.append(built if mmse else built * len(inv_snrs))
    return [[column[j] for column in per_spec] for j in range(len(inv_snrs))]


def _basis_change(rb: ReducedBasis, offset: np.ndarray):
    """(rb, Z^-1 in floats, Z offset): the transformed symbols lie on Z offset + integers."""
    return rb, matrix_to_float(rb.unimodular_inv), matrix_to_float(rb.unimodular) @ offset


def _factorize(spec: EqualizerSpec, bases: list, changes: list, n_rx: int) -> list:
    """One detector per basis B, from one kernel call on the stack of B Z^-1."""
    n = len(bases)
    stack = np.stack([b if zif is None else b @ zif for b, (_, zif, _) in zip(bases, changes)])
    if spec.structure is Structure.LINEAR:
        feedforward, feedbacks, perms = le_zf_matrix(stack), [None] * n, [None] * n
    else:
        fs = blast.vblast_sorted_factorization(stack)
        feedforward, feedbacks, perms = fs.feedforward, fs.feedback, fs.perm
    return [
        Detector(spec, feedforward[i, :, :n_rx], z_offset, feedbacks[i], perms[i], rb, zif)
        for i, (rb, zif, z_offset) in enumerate(changes)
    ]


class Workspace:
    """Named scratch arrays that successive detection calls reuse.

    ``take`` hands out an array of the asked shape and dtype with undefined
    contents: the array last taken under that name when shape and dtype
    match, a fresh one otherwise.  An array taken under a name is
    overwritten by the next call that takes the same name, so a result
    computed in a workspace stays valid only until the next call that uses
    the workspace.

    Every array starts on a cache line.  malloc aligns to 16 bytes only,
    and a vectorized pass that reads one array and writes another slows
    down when the two start at different offsets within a cache line.
    """

    ALIGN = 64

    def __init__(self):
        self._arrays = {}

    def take(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        arr = self._arrays.get(name)
        if arr is None or arr.shape != shape or arr.dtype != dtype:
            dtype = np.dtype(dtype)
            nbytes = math.prod(shape) * dtype.itemsize
            raw = np.empty(nbytes + self.ALIGN, np.uint8)
            start = -raw.ctypes.data % self.ALIGN
            arr = self._arrays[name] = raw[start : start + nbytes].view(dtype).reshape(shape)
        return arr


def detect_block(
    detector: Detector, observations: np.ndarray, constellation: Constellation, workspace=None
):
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

    All work is done in place in the arrays of ``workspace`` (a fresh
    :class:`Workspace` when None), and the returned arrays are among them:
    the next call with the same workspace overwrites them.
    """
    ys = np.asarray(observations, dtype=float)
    n_rx = detector.feedforward.shape[1]
    if ys.ndim != 2 or ys.shape[0] != n_rx:
        raise ValueError(f"observations must be ({n_rx}, frames), got {ys.shape}")
    ws = Workspace() if workspace is None else workspace
    reduced = detector.reduction is not None
    limit = constellation.amplitude_limit
    loop_limit = None if reduced else limit
    shape = (detector.feedforward.shape[0], ys.shape[1])
    soft = np.matmul(detector.feedforward, ys, out=ws.take("soft", shape))
    if detector.feedback is None:
        decided = _slice(soft, detector.z_offset[:, None], loop_limit)
    else:
        # Row l of soft becomes the l-th decision in detection order once
        # the decisions of the rows above it are cancelled from it.
        offsets = detector.z_offset[detector.perm]
        cancel = ws.take("cancel", shape[1:])
        for l in range(shape[0]):
            np.matmul(detector.feedback[l, :l], soft[:l], out=cancel)
            np.subtract(soft[l], cancel, out=soft[l])
            _slice(soft[l], offsets[l], loop_limit)
        decided = ws.take("decided", shape)
        decided[detector.perm] = soft
    if not reduced:
        return decided, None, 0
    a_hat = np.matmul(detector.unimodular_inv_f, decided, out=ws.take("a_hat", shape))
    _slice(a_hat, ALPHABET_OFFSET, None)
    outside = ws.take("outside", shape, bool)
    clipped = int(np.count_nonzero(np.greater(a_hat, limit, out=outside)))
    clipped += int(np.count_nonzero(np.less(a_hat, -limit, out=outside)))
    return np.clip(a_hat, -limit, limit, out=a_hat), decided, clipped


def _slice(soft: np.ndarray, offset, limit):
    """Round ``soft`` in place onto offset + integers, then clip to +-limit unless it is None."""
    soft -= offset
    np.rint(soft, out=soft)
    soft += offset
    return soft if limit is None else np.clip(soft, -limit, limit, out=soft)
