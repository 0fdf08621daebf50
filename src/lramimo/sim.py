"""Monte-Carlo symbol-error-rate simulation over random MIMO channels.

Every trial consumes its own counter-based random stream keyed by (seed,
trial index), so serial and parallel executions produce bit-identical
results and trials can be merged in any order.  Trials run in chunks of
consecutive trials, one or more per worker process.  One function makes
every draw and detector of a chunk: it draws each trial's channel from
the trial's stream and builds all their detectors in one stacked call,
and on a redraw starts each trial over from its own stream, so no draw,
cause or count depends on the chunking.  Each trial's detection then
runs in one workspace that the chunk's trials share.  The
stream gives, in order, the trial's channel draw(s), one block of symbol
indices and one block of unit-variance noise N; every SNR point j sees
the same symbols under the noise sigma_j N (common random numbers), so a
cell's counts do not depend on the other SNR points of the grid.  The two
blocks are a trial's only frame-length arrays, the indices at one byte
per symbol up to 256-ary, so N is its only frame-length float array; the
rest, the symbols included, works on one cache-sized frame slice at a
time.  A slice detects its SNR points in
groups that fit the same budget, each detector and the oracle running
once over a group's stacked observations, and the group size changes no
count.  A detector whose arrays hold the same bits as an earlier
detector's in the group, its twin, decides alike, so it runs no pass and
takes its twin's counts; a -orig and an -aug MMSE spec are twins where
H and [H; sqrt(zeta) I] reduce to the same Z.  An exact ML search serves
as the performance oracle: each call tabulates ||H s||^2 over two
half-grids for its channel and evaluates per frame only the rows of that
table that a projection bound, from the reduced QR of the second half's
columns, cannot rule out, each against every column; the bound starts
from the table value of the required hint, the decision of the last
detector pass that ran.  Each frame's products with the half-grids are a
matmul of their own, so an oracle decision does not depend on the frames
beside it, nor on the detector that gave the hint.
"""

import concurrent.futures
import csv
import math
import numbers
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .blast import FactorizationError
from .equalize import (
    Criterion,
    EqualizerSpec,
    ReductionTarget,
    Structure,
    Workspace,
    _check_keys,
    _parse_bool,
    build_detector,  # unused here, but the benchmark tracer (perfbench/spans.py) wraps it
    build_detectors,
    detect_block,
)
from .lattice import ReductionError
from .model import (
    MimoChannel,
    RankDeficientError,
    complex_matrix_to_real,
    make_ask_constellation,
)

ML_ORACLE_ID = "ml"
_ML_SEARCH_LIMIT = 10**6
# The oracle bounds max(1, _ML_CHUNK_ENTRIES // M^(n // 2)) frames at a time,
# M^(n // 2) being the rows of its table (64 frames at 256 rows).  A chunk's
# products are a matmul per frame, so the chunk size changes no decision; it
# sizes the chunk's four (frames, rows or columns) buffers.  Kept rows are
# listed at most _ML_PAIR_ENTRIES at a time (or one frame's) and evaluated in
# pieces of at most _ML_PIECE_ENTRIES values (or one row).
_ML_CHUNK_ENTRIES = 1 << 14
_ML_PIECE_ENTRIES = 1 << 14
_ML_PAIR_ENTRIES = 1 << 10
# The entry budget of a trial's cache-sized frame slices and SNR groups (see _passes).
_SLICE_ENTRIES = 1 << 15
# A chunk of trials builds its detectors in one stacked call, whose per-call
# overhead shrinks as the stack deepens; it holds at most _CHUNK_TRIALS
# trials and at most _CHUNK_ENTRIES entries in its stack of augmented
# matrices, so that a wide receive side keeps a small stack.  Neither
# changes a count.  On the A9 shape (4x4, ten SNRs) construction per trial
# stops falling at about eight trials a chunk, while the memory a chunk
# holds grows with its trials.  On a 1x16385 channel with ten SNRs and
# eight trials, the entry cap's one trial a chunk peaks at 71 MB RSS, where
# one chunk of all eight peaks at 287 MB.
_CHUNK_TRIALS = 8
_CHUNK_ENTRIES = 1 << 20

# A trial redraws its channel when the draw is rank deficient or detector
# construction fails for one of these reasons; anything else is a bug and
# propagates.  The cap on all draws of a trial turns a failure that recurs
# on every draw into an error instead of a hang.
_REDRAW_CAUSES = (RankDeficientError, ReductionError, FactorizationError, np.linalg.LinAlgError)
_MAX_REDRAWS = 100

# SNR convention: snr_db = 10 log10(symbol_var * n_tx / noise_var) with
# n_tx counting complex transmit antennas and the variances per real
# component.  Total transmit energy over one complex symbol vector is
# then snr * noise_var referred to one complex noise component.
SNR_DEFINITION = "snr_db = 10*log10(symbol_var * n_tx / noise_var)"

# SimConfig fields that must be integral numbers, however the config is made;
# snr_db, oracle and specs are checked as strictly.
_INT_KEYS = ("n_tx", "n_rx", "order", "trials", "frames_per_channel", "seed")


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings; dimensions count complex antennas."""

    n_tx: int
    n_rx: int
    order: int
    snr_db: tuple
    trials: int
    frames_per_channel: int
    seed: int
    specs: tuple
    oracle: bool = False

    def __post_init__(self):
        for key in _INT_KEYS:
            object.__setattr__(self, key, _parse_int(getattr(self, key), key))
        if self.n_tx < 1 or self.n_rx < self.n_tx:
            raise ValueError(
                f"need 1 <= n_tx <= n_rx, got n_tx={self.n_tx}, n_rx={self.n_rx}"
            )
        snrs = tuple(float(s) for s in _parse_snrs(self.snr_db))
        if len(snrs) == 0 or any(b <= a for a, b in zip(snrs, snrs[1:])):
            raise ValueError("snr_db must be a non-empty strictly ascending sequence")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.trials < 1 or self.frames_per_channel < 1:
            raise ValueError("trials and frames_per_channel must be >= 1")
        specs = self.specs
        if not isinstance(specs, (list, tuple)) or not all(isinstance(s, EqualizerSpec) for s in specs):
            raise ValueError(f"specs must be a list of EqualizerSpec, got {specs!r}")
        specs = tuple(specs)
        if not specs:
            raise ValueError("at least one equalizer spec is required")
        ids = [s.spec_id for s in specs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate equalizer specs: {ids}")
        sv = make_ask_constellation(self.order).variance  # validates the order
        for snr in snrs:
            try:
                noise_var = _noise_var(self, sv, snr)
            except (OverflowError, ZeroDivisionError):
                noise_var = math.nan
            if not (0.0 < noise_var < math.inf or snr == math.inf):
                raise ValueError(f"snr_db {snr} gives no finite noise variance > 0 (+inf is noiseless)")
        if _parse_bool(self.oracle, "oracle") and self.order ** (2 * self.n_tx) > _ML_SEARCH_LIMIT:
            raise ValueError(f"oracle: {self.order}^{2 * self.n_tx} ML candidates exceed {_ML_SEARCH_LIMIT}")
        object.__setattr__(self, "snr_db", snrs)
        object.__setattr__(self, "specs", specs)

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        _check_keys(data, {*_INT_KEYS, "snr_db", "specs"}, {"oracle"}, "config")
        if not isinstance(data["specs"], list):
            raise ValueError(f"specs must be a list of objects, got {data['specs']!r}")
        return cls(
            **{key: data[key] for key in (*_INT_KEYS, "snr_db")},
            specs=tuple(EqualizerSpec.from_dict(d) for d in data["specs"]),
            oracle=data.get("oracle", False),
        )


def _parse_int(value, key: str) -> int:
    """``value`` as an int if it is an integral number; 1.9, "2" and true are errors."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    ):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _parse_snrs(value) -> tuple:
    """``value`` as a tuple if it is a list of numbers; a string such as "15" is an error."""
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(s, numbers.Real) and not isinstance(s, bool) for s in value
    ):
        raise ValueError(f"snr_db must be a list of numbers, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class SimPoint:
    """Error counts for one (detector, SNR) cell."""

    spec_id: str
    snr_db: float
    symbols: int
    errors: int
    frames: int
    vector_errors: int

    @property
    def ser(self) -> float:
        return self.errors / self.symbols

    @property
    def ci95(self) -> float:
        """The per-symbol binomial 95% half-width of ``ser``, 1.96 sqrt(p (1 - p) / symbols).

        It treats every symbol as independent, although the frames of a
        trial share one channel, so it understates the spread of a cell;
        ROADMAP item 3 tracks a trial-clustered interval.
        """
        p = self.ser
        return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / self.symbols)


@dataclass
class SimResult:
    """All cells of a finished run plus per-detector clip counts."""

    points: list
    clipped: dict
    meta: dict = field(default_factory=dict)

    def point(self, spec_id: str, snr_db: float) -> SimPoint:
        for p in self.points:
            if p.spec_id == spec_id and p.snr_db == snr_db:
                return p
        raise KeyError(f"no cell for ({spec_id!r}, {snr_db})")


class RedrawLimitError(RuntimeError):
    """Raised when a trial fails on every one of its channel draws."""


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based stream for one trial; independent of worker layout."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, trial))))


def draw_channel(rng: np.random.Generator, n_rx: int, n_tx: int) -> MimoChannel:
    """Draw an iid circularly-symmetric complex channel in real form.

    Entries have unit complex variance (1/2 per real part); the returned
    real model has dimensions (2 n_rx, 2 n_tx) and unit noise and symbol
    variances.  A rank-deficient draw (probability zero) raises
    RankDeficientError.
    """
    hc = (rng.normal(size=(n_rx, n_tx)) + 1j * rng.normal(size=(n_rx, n_tx))) / np.sqrt(2.0)
    matrix = complex_matrix_to_real(hc)
    return MimoChannel(matrix=matrix, noise_var=1.0, symbol_var=1.0)


def _ml_detect_block(matrix, observations, constellation, workspace=None, *, hint) -> np.ndarray:
    """Exact ML search over every frame (column) of ``observations``.

    Splits each candidate s into its leading n // 2 components s_hi and the
    rest s_lo, so that H s = A_i + B_j with A = grid(n // 2) H_hi^T and
    B = grid(n - n // 2) H_lo^T.  Up to the frame-constant ||y||^2 the
    distance is T[i, j] + u[i] + v[j]: T = ||A_i + B_j||^2 depends on H
    alone, u = -2 A y and v = -2 B y are formed per frame.  Row-major (i, j)
    is the lexicographic candidate index; ties go to the smallest candidate
    (points ascending, first component most significant).

    Each frame evaluates only the rows of T that a projection bound cannot
    rule out, each against every column (see ``_bounded_minima``): row i's
    bound is the distance from y - A_i to range(Q), Q the reduced QR factor
    of H_lo, formed from u and the products Q^T y and Q^T A_i.  The
    decisions equal those of an argmin over the whole table bit for bit.
    ``hint``, a required (n, frames) array such as a detector's decisions,
    names one candidate per frame: each component goes to the nearest
    alphabet point, clipped into the alphabet, so any finite array names
    candidates.  The hint's table value tightens the frame's bound; it
    changes no decision.  Observations, hint and channel must be finite.

    A, B, T, Q and the products Q^T A_i depend on H and the order alone;
    every call builds them.  Memory is M^n floats for T plus buffers linear
    in the receive rows, whatever the frame count; T and the frame-sized
    buffers are taken from ``workspace`` when one is given.
    """
    h = np.asarray(matrix, dtype=float)
    ys = np.asarray(observations, dtype=float)
    order = constellation.order
    n = h.shape[1]
    total = order**n
    if total > _ML_SEARCH_LIMIT:
        raise ValueError(
            f"ML search space {order}^{n} = {total} exceeds {_ML_SEARCH_LIMIT}"
        )
    hint = np.asarray(hint, dtype=float)
    if hint.shape != (n, ys.shape[1]):
        raise ValueError(f"hint must have shape {(n, ys.shape[1])}, got {hint.shape}")
    if not (np.isfinite(h).all() and np.isfinite(ys).all() and np.isfinite(hint).all()):
        raise ValueError("ML search needs a finite channel, finite observations and a finite hint")
    # Alphabet indices (the points are one apart), then each frame's
    # candidate index, split into its table row and column.
    k = np.clip(np.rint(hint - constellation.points[0]), 0, order - 1).astype(np.intp)
    hint = np.divmod(order ** np.arange(n - 1, -1, -1) @ k, order ** (n - n // 2))
    ws = Workspace() if workspace is None else workspace
    best = _bounded_minima(h, constellation, ys, hint, ws)
    return constellation.points[np.stack(np.unravel_index(best, (order,) * n))]


def _bounded_minima(h, constellation, ys, hint, ws) -> np.ndarray:
    """Each frame's first minimum over every column of the rows its bound keeps.

    Builds A, B, T (in ``ws``'s storage), Q, Q^T A_i and the row bounds'
    c = ||A_i||^2 - ||Q^T A_i||^2 first; ``hint`` is each frame's (row,
    column).  A chunk's (frames, rows) and (frames, columns) arrays live in
    four buffers of ``ws``: u, v, the row bounds and a work buffer, which
    holds c for each frame and then U's row.  Once the bounds are compared,
    the last two serve ``_kept_minima``, so a call's peak memory stays
    below that of a full split-table search.
    """
    n_hi = h.shape[1] // 2
    a = _grid(constellation.points, n_hi) @ h[:, :n_hi].T
    b = _grid(constellation.points, h.shape[1] - n_hi) @ h[:, n_hi:].T
    norms_a, norms_b = (a**2).sum(axis=1), (b**2).sum(axis=1)
    # T = (||A_i||^2 + ||B_j||^2) + 2 A_i^T B_j, added a few rows at a time
    # so that no second M^n array is needed.
    table = ws.take("ml_table", (len(a), len(b)))
    np.matmul(a, b.T, out=table)
    table *= 2.0
    step = max(1, _ML_PIECE_ENTRIES // len(b))
    for r in range(0, len(a), step):
        table[r : r + step] += norms_a[r : r + step, None] + norms_b
    q = np.linalg.qr(h[:, n_hi:])[0]
    proj_a = a @ q
    c = norms_a - (proj_a**2).sum(axis=1)
    image_scale = 4.0 * (norms_a.max() + norms_b.max())
    # Every candidate in row i lies at least ||y - A_i||^2 - ||Q^T (y - A_i)||^2
    # from y, its squared distance to range(Q) for Q the reduced QR factor of
    # H_lo, since range(Q) holds range(H_lo) and so every B_j, also when H_lo
    # is rank deficient.  Less the frame constant ||y||^2 - ||Q^T y||^2 this
    # is the row bound 2 (Q^T y)^T (Q^T A_i) + u[i] + c[i]; the projection
    # ||W^T (y - A_i)||^2, W an orthonormal basis of range(Q)^perp, differs
    # from it by that constant alone, so the row r0 with the smallest bound
    # is that projection's smallest up to rounding.  Let U be any table value
    # (T + u) + v of the frame, so the float minimum is <= U.  A candidate
    # whose float value is that minimum has exact distance at most U +
    # ||y||^2 plus rounding, so its row bound is at most U + ||Q^T y||^2 plus
    # rounding.  The rounding of T, u, v and the bound, and that of the images
    # A_i and B_j, which the bound takes as exact, stays within a small
    # multiple of m eps (||y||^2 + max||A_i||^2 + max||B_j||^2) for m receive
    # rows, the cancellation of the frame constant included.  The margin
    # below exceeds it by four orders of magnitude or more for m up to a few
    # dozen, and about tenfold at 10^5.  So every row that can hold a tie of
    # the float minimum stays, and the first minimum of the kept rows,
    # ascending and each over all columns, is the full table's.  U is the
    # smallest T + v along row r0 plus u[r0] or, if smaller, the value at the
    # hint's (row, column), formed in the kept rows' float order; either lies
    # within rounding of a candidate's value, whose row therefore stays:
    # every frame keeps a row.
    chunk = max(1, _ML_CHUNK_ENTRIES // len(a))
    best = np.empty(ys.shape[1], dtype=np.intp)
    for start in range(0, ys.shape[1], chunk):
        part = slice(start, start + chunk)
        yt = ys[:, part].T
        f = len(yt)
        idx = np.arange(f)
        u = _frame_products(yt, a, ws.take("ml_u", (f, len(a))))
        v = _frame_products(yt, b, ws.take("ml_v", (f, len(b))))
        py = yt @ q
        rows_lb = np.matmul(py, proj_a.T, out=ws.take("ml_rows_lb", u.shape))
        rows_lb *= 2.0
        rows_lb += u
        rows_lb += _spread(c, ws.take("ml_work", rows_lb.shape))
        r0 = rows_lb.argmin(axis=1)
        along = np.take(table, r0, axis=0, out=ws.take("ml_work", v.shape), mode="clip")
        along += v
        limit = along.min(axis=1)
        limit += u[idx, r0]
        hr, hc = hint[0][part], hint[1][part]
        np.minimum(limit, (table[hr, hc] + u[idx, hr]) + v[idx, hc], out=limit)
        limit += (py**2).sum(axis=1)
        limit += 1e-9 * ((yt**2).sum(axis=1) + image_scale)
        keep = rows_lb <= _spread(limit[:, None], ws.take("ml_work", rows_lb.shape))
        best[part] = _kept_minima(table, u, v, keep, ws)
    return best


def _kept_minima(table, u, v, keep, ws) -> np.ndarray:
    """Each frame's first minimum over every column of its rows in ``keep``.

    Every frame keeps a row.  The kept (frame, row) pairs, frame-major with
    rows ascending, each take their first column minimum, evaluated a few
    pairs at a time as (T + u) + v in the buffers of the bounds and U's row.
    Frames with more than _ML_PAIR_ENTRIES pairs are halved until each part
    has fewer or a single frame, so the pair lists stay small.
    """
    if len(keep) > 1 and np.count_nonzero(keep) > _ML_PAIR_ENTRIES:
        half = len(keep) // 2
        return np.concatenate(
            [_kept_minima(table, u[part], v[part], keep[part], ws) for part in (slice(half), slice(half, None))]
        )
    n_cols = table.shape[1]
    step = max(1, _ML_PIECE_ENTRIES // n_cols)
    fr, rows = np.nonzero(keep)
    vals = np.empty(len(fr))
    cols = np.empty(len(fr), dtype=np.intp)
    for p in range(0, len(fr), step):
        pf, pr = fr[p : p + step], rows[p : p + step]
        d = np.take(table, pr, axis=0, out=ws.take("ml_rows_lb", (len(pr), n_cols)), mode="clip")
        d += _spread(u[pf, pr][:, None], ws.take("ml_work", d.shape))
        d += np.take(v, pf, axis=0, out=ws.take("ml_work", d.shape), mode="clip")
        cols[p : p + step] = k = d.argmin(axis=1)
        vals[p : p + step] = d[np.arange(len(d)), k]
    # The first pair of each frame that reaches the frame's minimum.
    seg = np.searchsorted(fr, np.arange(len(keep)))
    hits = np.flatnonzero(vals == np.minimum.reduceat(vals, seg)[fr])
    first = hits[np.searchsorted(hits, seg)]
    return rows[first] * n_cols + cols[first]


def _spread(values, out) -> np.ndarray:
    """``out`` filled with ``values`` broadcast to its shape.

    An operation with the result costs what the broadcasting one costs,
    without the ufunc buffer of up to 64 KB that broadcasting allocates.
    """
    out[...] = values
    return out


def _frame_products(yt, images, out) -> np.ndarray:
    """-2 y^T x for each frame y (row of ``yt``) and image x (row of ``images``).

    Each frame's products are a (1, m) by (m, K) matmul of their own, so
    their bits, and the oracle's decisions, do not depend on which frames
    share the call; a single (F, m) by (m, K) matmul's bits depend on F.
    """
    np.matmul(yt[:, None, :], images.T, out=out[:, None, :])
    out *= -2.0
    return out


def _grid(points, k) -> np.ndarray:
    """Every k-vector over ``points`` in lexicographic order, one per row.

    k = 0 gives a single zero-width row.
    """
    m = len(points)
    return points[np.arange(m**k)[:, None] // m ** np.arange(k - 1, -1, -1) % m]


def run_monte_carlo(config: SimConfig, workers: int = 1) -> SimResult:
    """Run the full trial grid and add up the trials' count arrays.

    Trials run on ``meta["workers"] = min(workers, trials)`` processes, in
    balanced chunks of consecutive trials, a multiple of the process count
    of them (see ``_chunks``); every trial owns a (seed, trial)-keyed stream
    and counts add up commutatively, so the result is bit-identical for any
    worker count and any chunking.  ``meta["redraw_causes"]`` counts the
    channel draws that were rank deficient or on which detector
    construction failed, by exception class name; ``meta["channel_redraws"]``
    is their total.
    """
    start = time.perf_counter()
    workers = _parse_int(workers, "workers")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(workers, config.trials)
    ids = _result_ids(config)
    chunks = _chunks(config, workers)
    args = ([config] * len(chunks), chunks)
    if workers == 1:
        outcomes = list(map(_run_chunk, *args))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_chunk, *args))
    chunk_counts, chunk_causes = zip(*outcomes)
    errors, vec_errors, clips = np.sum(chunk_counts, axis=0)
    causes = sum(chunk_causes, Counter())
    frames = config.trials * config.frames_per_channel
    points = [
        SimPoint(
            spec_id=spec_id,
            snr_db=snr,
            symbols=frames * 2 * config.n_tx,
            errors=int(errors[i, j]),
            frames=frames,
            vector_errors=int(vec_errors[i, j]),
        )
        for i, spec_id in enumerate(ids)
        for j, snr in enumerate(config.snr_db)
    ]
    meta = {
        "seed": config.seed,
        "snr_definition": SNR_DEFINITION,
        "channel_redraws": causes.total(),
        "redraw_causes": dict(sorted(causes.items())),
        "wall_clock_s": time.perf_counter() - start,
        "workers": workers,
    }
    return SimResult(
        points=points,
        clipped={spec_id: int(n) for spec_id, n in zip(ids, clips.sum(axis=1))},
        meta=meta,
    )


def _result_ids(config: SimConfig):
    ids = [s.spec_id for s in config.specs]
    if config.oracle:
        ids.append(ML_ORACLE_ID)
    return ids


def _chunks(config: SimConfig, workers: int) -> list:
    """Consecutive trial ranges, as equal as can be, a multiple of ``workers`` of them.

    The fewest such chunks within the caps: at most ``_CHUNK_TRIALS``
    trials, and at most ``_CHUNK_ENTRIES`` entries in the stack of every
    trial's [H; sqrt(zeta) I] at every SNR point (one trial at least).
    Never more chunks than trials.
    """
    bases = len(config.snr_db) * 2 * (config.n_rx + config.n_tx) * 2 * config.n_tx
    cap = max(1, min(_CHUNK_TRIALS, _CHUNK_ENTRIES // bases))
    n = min(config.trials, workers * -(-config.trials // (workers * cap)))
    bounds = [config.trials * k // n for k in range(n + 1)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _run_chunk(config: SimConfig, trials: range):
    """The summed ``(counts, causes)`` of ``trials``.

    ``_draw_and_build`` makes every draw and detector of the chunk; each
    trial's detection then runs through ``_run_trial`` (looked up at call
    time) in one :class:`Workspace`.  ``causes`` counts redrawn draws by
    exception class name.
    """
    causes, ws = Counter(), Workspace()
    drawn = _draw_and_build(config, trials, causes)
    counts = sum(_run_trial(config, trial, *d, ws) for trial, d in zip(trials, drawn))
    return counts, causes


def _draw_and_build(config: SimConfig, trials: range, causes: Counter) -> list:
    """Each trial's (stream, H, detectors), its stream past its usable draw.

    Each pass draws every trial's next channel from the trial's own stream
    and builds all their detectors in one stacked ``build_detectors`` call.
    A stacked call fails whole, so when a draw or the build of several
    trials raises a redraw cause, each trial starts over from the
    beginning of its stream in a call of its own, which gives the draws,
    causes and detectors it would give alone.  A lone trial counts the
    cause in ``causes`` and draws again, at most ``_MAX_REDRAWS`` times.
    """
    rngs = [trial_rng(config.seed, trial) for trial in trials]
    inv_snrs = _inv_snrs(config)
    for _ in range(_MAX_REDRAWS):
        try:
            hs = np.stack([draw_channel(rng, config.n_rx, config.n_tx).matrix for rng in rngs])
            return list(zip(rngs, hs, build_detectors(config.specs, hs, inv_snrs)))
        except _REDRAW_CAUSES as exc:
            if len(trials) > 1:
                return [d for trial in trials for d in _draw_and_build(config, range(trial, trial + 1), causes)]
            causes[type(exc).__name__] += 1
            cause = exc
    raise RedrawLimitError(
        f"trial {trials[0]}: no usable channel in {_MAX_REDRAWS} draws; last cause: {cause!r}"
    ) from cause


def _run_trial(config: SimConfig, trial: int, rng, h, detectors, ws) -> np.ndarray:
    """One trial's counts, an int64 array of shape (3, detectors, SNRs).

    They are the symbol errors, vector errors and clipped decisions of each
    detector (ML oracle last) at each SNR.  ``rng`` is the trial's stream
    past its usable channel draw ``h``, whose ``detectors``, one per spec
    holding every SNR point, come from ``_draw_and_build``; with the
    oracle on, each oracle call builds the ML tables for ``h``.

    The stream then gives the symbol indices and one standard-normal
    block N.  SNR point j observes H s + sigma_j N, so its counts are those
    of a grid holding that point alone.  Only the indices, in the smallest
    unsigned dtype that holds order - 1, and N are frame-length,
    2 n_tx + 8 (2 n_rx) bytes per frame up to 256-ary: the symbols s, H s,
    the observations, every detector and the oracle work on one slice of
    frames at a time, in the slice-sized buffers of the :class:`Workspace`
    ``ws`` (views of them for a shorter last slice).  ``_passes(config)``
    gives the slice width and the SNR groups, and ``_twins`` each group's
    twin detectors, once per trial.  Within a slice, each group is
    observed as one (2 n_rx, S f) stack and decided in one pass per
    decider that has no twin: a ``detect_block`` call per such spec, whose
    decisions at each point equal those of a call on that point alone,
    then one ``_ml_detect_block`` call hinted with the decisions of the
    last pass that ran, which clips nothing.  Every pass is counted by the
    same lines, and a twin copies the group's counts of the detector it
    is a twin of, which are the counts its own pass would give.  A
    slice's feedforward product is one matmul per point whose bits can
    depend on the slice width, so the counts are those of this fixed
    slicing: equal to one full-length pass unless a soft value lies within
    rounding of a decision boundary.  The oracle's decisions depend on
    neither slicing nor grouping.
    """
    constellation = make_ask_constellation(config.order)
    sv = constellation.variance
    sigmas = np.sqrt([_noise_var(config, sv, snr) for snr in config.snr_db])
    counts = np.zeros((3, len(_result_ids(config)), len(config.snr_db)), dtype=np.int64)
    part = np.empty_like(counts)  # one slice's counts; assigning is cheaper than +=
    frames, (step, snr_groups) = config.frames_per_channel, _passes(config)
    n_tx, n_rx = 2 * config.n_tx, 2 * config.n_rx
    # The symbol indices are drawn _SLICE_ENTRIES at a time in C order, which
    # takes the same stream as one draw of the whole block, and kept in the
    # smallest unsigned dtype that holds them (one byte up to 256-ary).
    indices = ws.take("indices", (n_tx, frames), np.min_scalar_type(config.order - 1))
    flat = indices.reshape(-1)
    for a in range(0, flat.size, _SLICE_ENTRIES):
        piece = flat[a : a + _SLICE_ENTRIES]
        piece[...] = rng.integers(0, config.order, size=piece.size)
    unit_noise = rng.standard_normal(out=ws.take("unit_noise", (n_rx, frames)))
    # Each group's detectors, and each decider's twin among them (None for the oracle).
    groups = [(g, [det[g] for det in detectors]) for g in snr_groups]
    groups = [(g, dets, _twins(dets) + [None] * config.oracle) for g, dets in groups]
    for start in range(0, frames, step):
        index_part, noise_part = indices[:, start : start + step], unit_noise[:, start : start + step]
        f = index_part.shape[1]
        # points[k] = points[0] + k exactly (half-integers), so this is the
        # table lookup s = points[indices] bit for bit.
        sent_part = np.add(index_part, constellation.points[0], out=ws.take("sent", (n_tx, f)))
        clean = np.matmul(h, sent_part, out=ws.take("clean", (n_rx, f)))
        for g, group_detectors, twins in groups:
            shape = (g.stop - g.start, f)
            # sigma_j N + H s at each point j of the group, bit for bit what a
            # grid of that one point observes.
            received = np.multiply(noise_part[:, None], sigmas[g, None], out=ws.take("received", (n_rx, *shape)))
            received += clean[:, None]
            observations = received.reshape(n_rx, -1)
            wrong, wrong_frame = ws.take("wrong", (n_tx, *shape), bool), ws.take("wrong_frame", shape, bool)
            # Each point's column, its (n, f) view of wrong and its row of wrong_frame.
            cells = list(zip(range(g.start, g.stop), wrong.transpose(1, 0, 2), wrong_frame))
            sent_points = sent_part[:, None]
            for i, twin in enumerate(twins):
                if twin is not None:  # no pass: it decides as its twin did
                    part[:, i, g] = part[:, twin, g]
                    continue
                if i < len(group_detectors):
                    a_hat, _, clipped = detect_block(group_detectors[i], observations, constellation, ws)
                else:  # the ML oracle, hinted with the decisions of the last pass that ran
                    a_hat = _ml_detect_block(h, observations, constellation, ws, hint=a_hat)
                    clipped = 0
                np.not_equal(a_hat.reshape(wrong.shape), sent_points, out=wrong)
                np.logical_or.reduce(wrong, axis=0, out=wrong_frame)
                part[2, i, g] = clipped
                for j, symbols, vectors in cells:
                    part[:2, i, j] = np.count_nonzero(symbols), np.count_nonzero(vectors)
        counts += part
    return counts


def _twins(detectors) -> list:
    """For each detector of a group, the index of the first earlier one that is its twin, or None.

    Twins hold the same bits in each of the five arrays that
    ``detect_block`` reads of a detector, a None field matching only None,
    so they decide every observation alike.  A field has one shape and
    dtype in every detector of a group that holds it, so its bytes are its
    bits.  A ``-orig`` and an ``-aug`` MMSE spec are twins where H and
    [H; sqrt(zeta) I] reduce to the same Z at every point of the group.
    """
    keys = []
    for d in detectors:
        arrays = (d.feedforward, d.z_offset, d.feedback, d.perm, d.unimodular_inv)
        keys.append(tuple(None if a is None else a.tobytes() for a in arrays))
    return [next((j for j in range(i) if keys[j] == keys[i]), None) for i in range(len(keys))]


def _inv_snrs(config: SimConfig) -> list:
    """zeta = noise_var / symbol_var at each SNR point, the MMSE regularization weights."""
    sv = make_ask_constellation(config.order).variance
    return [_noise_var(config, sv, snr) / sv for snr in config.snr_db]


def _passes(config: SimConfig) -> tuple:
    """A trial's (frames per slice, SNR groups), the passes of its detection.

    A slice holds min(max(1, _SLICE_ENTRIES // (2 n_rx)), frames_per_channel)
    frames and a group max(1, _SLICE_ENTRIES // (2 n_rx slice)) consecutive
    SNR points, the last group possibly fewer, so that a pass's observations
    hold about as many entries as a slice of one point may.  The group size
    changes no count.
    """
    rows, n_snrs = 2 * config.n_rx, len(config.snr_db)
    step = min(max(1, _SLICE_ENTRIES // rows), config.frames_per_channel)
    size = max(1, _SLICE_ENTRIES // (rows * step))
    return step, [slice(a, min(a + size, n_snrs)) for a in range(0, n_snrs, size)]


def _noise_var(config: SimConfig, symbol_var: float, snr_db: float) -> float:
    return symbol_var * config.n_tx / (10.0 ** (snr_db / 10.0))


def emit_results(result: SimResult, path: str) -> None:
    """Write one CSV row per (detector, SNR) cell.

    Floats are written in repr form so a parse-back reproduces the
    in-memory values exactly.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["spec_id", "snr_db", "symbols", "errors", "ser", "ci95"])
        for p in result.points:
            writer.writerow(
                [p.spec_id, repr(p.snr_db), p.symbols, p.errors, repr(p.ser), repr(p.ci95)]
            )


@dataclass(frozen=True)
class ReductionDelta:
    """Paired SER difference (original minus augmented target) at one SNR."""

    snr_db: float
    ser_original: float
    ser_augmented: float
    delta: float
    ci95: float


@dataclass
class ReductionComparison:
    result: SimResult
    deltas: list


def compare_reduction_targets(config: SimConfig, workers: int = 1) -> ReductionComparison:
    """Reduction-aided MMSE DFE with original- vs augmented-matrix reduction.

    Both detectors run on identical channel and noise realizations (common
    random numbers).  The delta's ci95 is sqrt(ci_orig^2 + ci_aug^2) of the
    two cells' ``SimPoint.ci95``: it treats every symbol as independent,
    although all frames of a trial share one channel, so it is no bound and
    can be several times too narrow.  ROADMAP item 3 replaces it with a
    paired interval from per-trial differences.
    """
    pair = tuple(EqualizerSpec(Structure.DFE, Criterion.MMSE, t) for t in ReductionTarget)
    config = replace(config, specs=pair)
    result = run_monte_carlo(config, workers=workers)
    deltas = []
    for snr in config.snr_db:
        p_orig = result.point(pair[0].spec_id, snr)
        p_aug = result.point(pair[1].spec_id, snr)
        ci = math.sqrt(p_orig.ci95**2 + p_aug.ci95**2)
        deltas.append(
            ReductionDelta(
                snr_db=snr,
                ser_original=p_orig.ser,
                ser_augmented=p_aug.ser,
                delta=p_orig.ser - p_aug.ser,
                ci95=ci,
            )
        )
    return ReductionComparison(result=result, deltas=deltas)
