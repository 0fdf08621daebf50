"""Equalizer taxonomy, receive-filter construction, and symbol detection.

An :class:`EqualizerSpec` names one point in the design space
(linear or decision-feedback) x (ZF or MMSE) x (lattice-reduction-aided
or not); for reduction-aided MMSE the reduction may target the plain or
the noise-regularized channel matrix.  :func:`build_detectors` freezes all
filters of one channel draw, for every spec and SNR point, doing each
piece of work the specs and SNRs share once; :func:`build_detector` is its
one-spec, one-SNR case, and :func:`detect_block` applies the filters to
blocks of observations, in place in the buffers of a :class:`Workspace`.
The filters come from the factorizations in ``blast``; the closed-form
receive matrices they are certified against live in ``checks``.
"""

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import blast
from .lattice import ReducedBasis, lll_reduce
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


@dataclass(frozen=True, eq=False)
class Detector:
    """Frozen filters for one (spec, channel) pair; treat fields read-only.

    Every spec compiles to the same normal form: ``feedforward`` (the
    observation columns of the zero-forcing filters of B Z^-1), ``feedback``
    and ``perm`` (None for linear detectors), and, for reduction-aided
    specs, the ``reduction`` that supplied the int64 Z and Z^-1.
    ``z_offset`` is the translate onto which the estimates are sliced:
    ALPHABET_OFFSET * 1 without reduction, Z (ALPHABET_OFFSET * 1) with it.
    Detectors compare by identity: ``==`` of two is ``is``.
    """

    spec: EqualizerSpec
    feedforward: np.ndarray
    z_offset: np.ndarray
    feedback: np.ndarray = None
    perm: np.ndarray = None
    reduction: ReducedBasis = None


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

    ``matrix`` is H, or a stack (draws, m, n) of channel draws, which
    gives one such list per draw; ``inv_snrs`` holds zeta per SNR point.
    Only B of an MMSE spec depends on zeta, so a ZF detector is built once
    per draw and repeated at every SNR.  The stack of every draw's H, the
    stack of every [H; sqrt(zeta) I] and their reductions are made at most
    once, on first use, so a call takes at most two ``lll_reduce`` calls,
    however many draws it holds: one on the H stack, one on the other.
    Each spec forms its stack of B Z^-1 in one matmul and factorizes it in
    one kernel call, slice by slice as each alone, so every detector of a
    stacked call equals that of its draw built alone bit for bit.  Any
    draw that fails construction fails the whole call.
    """
    inv_snrs = list(inv_snrs)
    if not inv_snrs or not all(r >= 0 for r in inv_snrs):
        raise ValueError(f"inv_snrs must be a non-empty list of values >= 0, got {inv_snrs}")
    h = np.asarray(matrix, dtype=float)
    if h.ndim not in (2, 3):
        raise ValueError(f"matrix must be one channel (m, n) or a stack (draws, m, n), got shape {h.shape}")
    hs = h if h.ndim == 3 else h[None]
    n_draws, n_snrs = len(hs), len(inv_snrs)
    offset = np.full(h.shape[-1], ALPHABET_OFFSET)
    # Bases are (draws, SNRs or 1, rows, n): every [H; sqrt(zeta) I], or H.
    augmented = functools.cache(lambda: np.array([[augment(x, r) for r in inv_snrs] for x in hs]))
    h_change = functools.cache(lambda: _basis_change(lll_reduce(hs), offset))
    b_change = functools.cache(lambda: _basis_change(lll_reduce(augmented()), offset))
    per_spec = []
    for spec in specs:
        bases = augmented() if spec.criterion is Criterion.MMSE else hs[:, None]
        reps = bases.shape[1]
        if spec.reduction_target is ReductionTarget.ORIGINAL:
            zinv, changes = h_change()
            zinv, changes = zinv[:, None], [c for c in changes for _ in range(reps)]
        elif spec.reduction_target is ReductionTarget.AUGMENTED:
            zinv, changes = b_change()
        else:
            zinv, changes = None, [(None, offset)] * (n_draws * reps)
        stack = bases if zinv is None else np.matmul(bases, zinv)
        built = _factorize(spec, stack.reshape(-1, *stack.shape[-2:]), changes, h.shape[-2])
        per_spec.append([built[d * reps : (d + 1) * reps] * (n_snrs // reps) for d in range(n_draws)])
    grids = [[[column[d][j] for column in per_spec] for j in range(n_snrs)] for d in range(n_draws)]
    return grids if h.ndim == 3 else grids[0]


def _basis_change(rb: ReducedBasis, offset: np.ndarray):
    """(Z^-1, [(rb, Z offset)] per slice in C order) of a stack of reductions.

    The transformed symbols of a slice lie on Z offset + integers.
    """
    z_offsets = rb.unimodular @ offset
    return rb.unimodular_inv, [(rb[i], z_offsets[i]) for i in np.ndindex(z_offsets.shape[:-1])]


def _factorize(spec: EqualizerSpec, stack: np.ndarray, changes: list, n_rx: int) -> list:
    """One detector per slice of the stack of B Z^-1, from one kernel call."""
    n = len(stack)
    if spec.structure is Structure.LINEAR:
        feedforward, feedbacks, perms = blast.le_zf_matrix(stack), [None] * n, [None] * n
    else:
        fs = blast.vblast_sorted_factorization(stack)
        feedforward, feedbacks, perms = fs.feedforward, fs.feedback, fs.perm
    return [
        Detector(spec, feedforward[i, :, :n_rx], z_offset, feedbacks[i], perms[i], rb)
        for i, (rb, z_offset) in enumerate(changes)
    ]


class Workspace:
    """Named scratch arrays that successive detection calls reuse.

    ``take`` hands out a C-contiguous array of the asked shape and dtype
    with undefined contents: the leading part of the storage last made
    under that name when the dtype matches and it is large enough, fresh
    storage otherwise.  So a shorter block (the last frame slice of a
    trial) reuses the buffers of the longer ones.  An array taken under a
    name is overwritten by the next call that takes the same name, so a
    result computed in a workspace stays valid only until the next call
    that uses the workspace.

    Every array starts on a cache line.  malloc aligns to 16 bytes only,
    and a vectorized pass that reads one array and writes another slows
    down when the two start at different offsets within a cache line.
    """

    ALIGN = 64

    def __init__(self):
        self._arrays = {}

    def take(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        # Keeps (storage, last array handed out), so a repeated request
        # costs what a dict lookup and two comparisons cost.
        flat, arr = self._arrays.get(name, (None, None))
        if arr is None or arr.shape != shape or arr.dtype != dtype:
            size = math.prod(shape)
            if flat is None or flat.dtype != dtype or flat.size < size:
                dtype = np.dtype(dtype)
                raw = np.empty(size * dtype.itemsize + self.ALIGN, np.uint8)
                start = -raw.ctypes.data % self.ALIGN
                flat = raw[start : start + size * dtype.itemsize].view(dtype)
            arr = flat[:size].reshape(shape)
            self._arrays[name] = flat, arr
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
        _slice(soft[0], offsets[0], loop_limit)
        for l in range(1, shape[0]):
            np.matmul(detector.feedback[l, :l], soft[:l], out=cancel)
            np.subtract(soft[l], cancel, out=soft[l])
            _slice(soft[l], offsets[l], loop_limit)
        decided = ws.take("decided", shape)
        decided[detector.perm] = soft
    if not reduced:
        return decided, None, 0
    a_hat = np.matmul(detector.reduction.unimodular_inv, decided, out=ws.take("a_hat", shape))
    _slice(a_hat, ALPHABET_OFFSET, None)
    outside = ws.take("outside", shape, bool)
    clipped = int(np.count_nonzero(np.greater(a_hat, limit, out=outside)))
    clipped += int(np.count_nonzero(np.less(a_hat, -limit, out=outside)))
    return _clip(a_hat, limit), decided, clipped


def _slice(soft: np.ndarray, offset, limit):
    """Round ``soft`` in place onto offset + integers, then clip to +-limit unless it is None."""
    soft -= offset
    np.rint(soft, out=soft)
    soft += offset
    return soft if limit is None else _clip(soft, limit)


def _clip(values: np.ndarray, limit: float) -> np.ndarray:
    """``values`` clipped to +-limit in place; ``np.clip``'s bits without its Python wrapper."""
    np.maximum(values, -limit, out=values)
    return np.minimum(values, limit, out=values)
