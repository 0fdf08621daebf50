"""Equalizer taxonomy, receive-filter construction, and symbol detection.

An :class:`EqualizerSpec` names one point in the design space
(linear or decision-feedback) x (ZF or MMSE) x (lattice-reduction-aided
or not); for reduction-aided MMSE the reduction may target the plain or
the noise-regularized channel matrix.  :func:`build_detectors` freezes all
filters of a stack of channel draws, per draw one :class:`Detector` per
spec holding every SNR point, doing each piece of work the draws, specs
and SNRs share once; :func:`build_detector` is its one-draw, one-spec,
one-SNR case.  :func:`detect_block` applies a detector's filters at all of
its SNR points in one pass over blocks of observations, in place in the
buffers of a :class:`Workspace`, and counts the clipped decisions of each
point.  A detector is a record of arrays: of a reduction it keeps only the
integer Z^-1 that maps its decisions back.  The filters come from the
factorizations in ``blast``; the closed-form receive matrices they are
certified against live in ``checks``.
"""

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import blast
from .lattice import lll_reduce
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
    """Frozen filters of one spec on one channel draw at S SNR points; treat fields read-only.

    Every spec compiles to the same normal form, each field with a leading
    axis of the S points: ``feedforward`` (S, n, m), a contiguous copy of
    the observation columns of the zero-forcing filters of B Z^-1,
    ``feedback`` (S, n, n) and ``perm`` (S, n), None for linear detectors,
    and ``unimodular_inv`` (S, n, n), the int64 Z^-1 that maps the
    decisions back, None without reduction.  ``z_offset`` (S, n) is the
    translate onto which the estimates are sliced: ALPHABET_OFFSET * 1
    without reduction, Z (ALPHABET_OFFSET * 1) with it; Z enters detection
    nowhere else.  A field that does not depend on the SNR, such as every
    filter of a ZF spec, repeats one array over the S points as a broadcast
    view.  Indexing a detector with a slice gives the detector of those
    points.  Detectors compare by identity: ``==`` of two is ``is``.
    """

    spec: EqualizerSpec
    feedforward: np.ndarray
    z_offset: np.ndarray
    feedback: np.ndarray = None
    perm: np.ndarray = None
    unimodular_inv: np.ndarray = None

    def __getitem__(self, points: slice) -> "Detector":
        fields = (self.feedforward, self.z_offset, self.feedback, self.perm, self.unimodular_inv)
        return Detector(self.spec, *(None if a is None else a[points] for a in fields))

    @functools.cached_property
    def _plan(self):
        """What detection reads: (feedforward, offsets, feedback, targets, Z^-1).

        ``offsets`` are the Z offsets in detection order, (n, S, 1).  A DFE
        detector's ``feedback[l]`` is feedback[:, l, :l] as (S, 1, l), and
        row l S + s of its (n S, f) decisions in detection order goes to
        row ``targets[l S + s]`` = perm[s, l] S + s in stream order; both
        are None for a linear detector.  Z^-1 is ``unimodular_inv`` as
        floats, or None.  Detectors of every S, one included, have this
        one plan, and their passes run one path.
        """
        n_snrs, n = self.z_offset.shape
        linear = self.perm is None
        offsets = self.z_offset if linear else self.z_offset[np.arange(n_snrs)[:, None], self.perm]
        zinv = None if self.unimodular_inv is None else self.unimodular_inv.astype(float)
        return (
            self.feedforward,
            offsets.T[:, :, None],
            None if linear else [self.feedback[:, l : l + 1, :l] for l in range(n)],
            None if linear else (self.perm.T * n_snrs + np.arange(n_snrs)).ravel(),
            zinv,
        )


def build_detector(spec: EqualizerSpec, channel: MimoChannel) -> Detector:
    """Precompute every filter needed to run ``spec`` on ``channel``.

    The one-draw, one-spec, one-SNR case of :func:`build_detectors`: a
    detector of one SNR point.
    """
    return build_detectors([spec], channel.matrix[None], [channel.inv_snr])[0][0]


def build_detectors(specs, matrix: np.ndarray, inv_snrs) -> list:
    """Detectors of a stack of channel draws: per draw, one per spec holding every SNR point.

    Every spec is zero-forcing processing of one basis matrix B Z^-1, with
    B = H for ZF, B = [H; sqrt(zeta) I] for MMSE and Z = I without
    reduction.  A reduction contributes only Z; its target decides which
    matrix Z reduces, H or B.  Linear filters are the pseudo-inverse of
    B Z^-1, DFE filters its sorted successive factorization; either way
    only the columns acting on the observation are kept, as a copy.

    ``matrix`` is a stack (draws, m, n) of channel draws H, and the result
    holds one list of detectors per draw, in the order of ``specs``;
    ``inv_snrs`` holds zeta per SNR point, and point s of every detector
    is built at inv_snrs[s].  Only B of an MMSE spec depends on zeta, so a
    ZF detector is built once per draw and repeated over the points as
    broadcast views, as is the Z^-1 of H's reduction.  The stack of every
    draw's H, the stack of every [H; sqrt(zeta) I] and their reductions are
    made at most once, on first use, so a call takes at most two
    ``lll_reduce`` calls, however many draws it holds: one on the H stack,
    one on the other.  Detectors keep only a reduction's Z^-1 and Z
    offsets, not the reduction.  Each spec forms its stack of B Z^-1 in one
    matmul and factorizes it in one kernel call, slice by slice as each
    alone, so every point of a detector equals the one-draw, one-SNR
    detector of its draw and zeta bit for bit.  Any draw that fails
    construction fails the whole call.
    """
    inv_snrs = list(inv_snrs)
    if not inv_snrs or not all(r >= 0 for r in inv_snrs):
        raise ValueError(f"inv_snrs must be a non-empty list of values >= 0, got {inv_snrs}")
    hs = np.asarray(matrix, dtype=float)
    if hs.ndim != 3:
        raise ValueError(f"matrix must be a stack (draws, m, n), got shape {hs.shape}")
    n_snrs = len(inv_snrs)
    offset = np.full(hs.shape[-1], ALPHABET_OFFSET)

    def basis_change(bases):
        # (Z^-1, Z offsets) of the reduction of every basis, stacked like the bases.
        rb = lll_reduce(bases)
        return rb.unimodular_inv, rb.unimodular @ offset

    # Bases are (draws, SNRs or 1, rows, n): every [H; sqrt(zeta) I], or H.
    augmented = functools.cache(lambda: augment(hs[:, None], inv_snrs))
    h_change = functools.cache(lambda: basis_change(hs[:, None]))
    b_change = functools.cache(lambda: basis_change(augmented()))
    per_spec = []
    for spec in specs:
        bases = augmented() if spec.criterion is Criterion.MMSE else hs[:, None]
        if spec.reduction_target is ReductionTarget.ORIGINAL:
            zinv, z_offsets = h_change()
        elif spec.reduction_target is ReductionTarget.AUGMENTED:
            zinv, z_offsets = b_change()
        else:
            zinv, z_offsets = None, offset[None, None]
        stack = bases if zinv is None else np.matmul(bases, zinv)
        per_spec.append(_factorize(spec, stack, z_offsets, zinv, n_snrs, hs.shape[-2]))
    return [list(detectors) for detectors in zip(*per_spec)]


def _factorize(spec, stack, z_offsets, zinv, n_snrs, n_rx) -> list:
    """Each draw's detector, from one kernel call on the stack (draws, SNRs or 1, rows, n) of B Z^-1.

    The filters, the Z offsets (draws or 1, SNRs or 1, n) and Z^-1 (draws,
    SNRs or 1, n, n) or None are repeated where their points' axis has
    length 1, as broadcast views.
    """
    if spec.structure is Structure.LINEAR:
        feedforward, feedback, perm = blast.le_zf_matrix(stack), None, None
    else:
        fs = blast.vblast_sorted_factorization(stack)
        feedforward, feedback, perm = fs.feedforward, fs.feedback, fs.perm

    def spread(a):
        if a is None:
            return [None] * len(stack)
        return np.broadcast_to(a, (len(stack), n_snrs) + a.shape[2:])

    arrays = (np.ascontiguousarray(feedforward[..., :n_rx]), z_offsets, feedback, perm, zinv)
    return [Detector(spec, *fields) for fields in zip(*map(spread, arrays))]


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
    """Detect a block of received vectors, one per column, at the detector's S SNR points.

    ``observations`` is (m, S f): columns s f to (s + 1) f - 1 are the f
    frames observed at point s, and the decisions are laid out the same
    way.  Returns (decisions, transformed decisions or None, clip count).
    The estimates are rounded onto the detector's translate lattice, one
    stream at a time with feedback cancellation for DFE detectors.
    Without reduction that lattice is the alphabet's and decisions are
    clipped to it as they are made; with reduction the transformed
    decisions are mapped back through Z^-1, and those outside the alphabet
    are clipped and counted.  The clip count is a list of S ints, one per
    point, zeros without reduction.  The constellation's variance should
    match the symbol variance the detector was built with, otherwise the
    MMSE filters are mismatched.

    Each point's products are those of a detector of that point alone, so
    a pass over S points equals S one-point calls bit for bit.  All work is
    done in place in two (n, S, f) float arrays of ``workspace`` (a fresh
    :class:`Workspace` when None), and the returned arrays are among them:
    the next call with the same workspace overwrites them.
    """
    ys = np.asarray(observations, dtype=float)
    n_snrs, n, n_rx = detector.feedforward.shape
    if ys.ndim != 2 or ys.shape[0] != n_rx or ys.shape[1] % n_snrs:
        raise ValueError(f"observations must be ({n_rx}, {n_snrs} x frames), got {ys.shape}")
    ws = Workspace() if workspace is None else workspace
    feedforward, offsets, feedback, targets, zinv = detector._plan
    limit = constellation.amplitude_limit
    loop_limit = limit if zinv is None else None
    frames = ys.shape[1] // n_snrs
    # Rows outermost, so that a DFE row step reads and writes one block.
    shape = (n, n_snrs, frames)
    soft = ws.take("soft", shape)
    np.matmul(feedforward, _points(ys.reshape(n_rx, n_snrs, frames)), out=_points(soft))
    if feedback is None:
        decided = _slice(soft, offsets, loop_limit)
    else:
        # Row l of soft becomes the l-th decision in detection order once
        # the decisions of the rows above it are cancelled from it.
        cancel = ws.take("cancel", (n_snrs, 1, frames))
        cancelled = cancel.reshape(n_snrs, frames)
        _slice(soft[0], offsets[0], loop_limit)
        for l in range(1, n):
            if l == 1:
                # One term: a multiply, whose one rounding gives the matmul's values.
                np.multiply(feedback[1][:, 0], soft[0], out=cancelled)
            else:
                np.matmul(feedback[l], _points(soft[:l]), out=cancel)
            np.subtract(soft[l], cancelled, out=soft[l])
            _slice(soft[l], offsets[l], loop_limit)
        decided = ws.take("decided", shape)
        decided.reshape(n * n_snrs, -1)[targets] = soft.reshape(n * n_snrs, -1)
    if zinv is None:
        return decided.reshape(n, -1), None, [0] * n_snrs
    # A pass holds two float buffers: a_hat takes whichever one is free.
    a_hat = ws.take("decided", shape) if decided is soft else soft
    np.matmul(zinv, _points(decided), out=_points(a_hat))
    _slice(a_hat, ALPHABET_OFFSET, None)
    outside = np.greater(a_hat, limit, out=ws.take("outside", shape, bool))
    outside |= np.less(a_hat, -limit, out=ws.take("below", shape, bool))
    clipped = [int(np.count_nonzero(point)) for point in _points(outside)]
    return _clip(a_hat, limit).reshape(n, -1), decided.reshape(n, -1), clipped


def _points(block: np.ndarray) -> np.ndarray:
    """The (S, rows, f) view of a (rows, S, f) block."""
    return block.transpose(1, 0, 2)


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
