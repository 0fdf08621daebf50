"""Monte-Carlo symbol-error-rate simulation over random MIMO channels.

Channels are drawn per trial, noise per frame.  Every trial consumes its
own counter-based random stream keyed by (seed, trial index), so serial
and parallel executions produce bit-identical results and trials can be
merged in any order.  An exact ML search serves as the performance
oracle: it tabulates ||H s||^2 over two half-grids and evaluates per
frame only the part of that table that projection bounds cannot rule out.
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
# The oracle correlates frames with the half-grid images in blocks of
# max(1, _ML_BLOCK_ENTRIES // M^n) frames, and bounds _ML_CHUNK_FRAMES
# frames (or one block) at a time.  Subgrids of up to _ML_SUBGRID_ENTRIES
# candidates are searched together, larger ones alone, in pieces of that
# size.
_ML_BLOCK_ENTRIES = 1 << 16
_ML_CHUNK_FRAMES = 16
_ML_SUBGRID_ENTRIES = 1 << 11

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

# SimConfig fields that a config file must give as integral numbers.
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
        if self.n_tx < 1 or self.n_rx < self.n_tx:
            raise ValueError(
                f"need 1 <= n_tx <= n_rx, got n_tx={self.n_tx}, n_rx={self.n_rx}"
            )
        snrs = tuple(float(s) for s in self.snr_db)
        if len(snrs) == 0 or any(b <= a for a, b in zip(snrs, snrs[1:])):
            raise ValueError("snr_db must be a non-empty strictly ascending sequence")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.trials < 1 or self.frames_per_channel < 1:
            raise ValueError("trials and frames_per_channel must be >= 1")
        specs = tuple(self.specs)
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
        if self.oracle and self.order ** (2 * self.n_tx) > _ML_SEARCH_LIMIT:
            raise ValueError(f"oracle: {self.order}^{2 * self.n_tx} ML candidates exceed {_ML_SEARCH_LIMIT}")
        object.__setattr__(self, "snr_db", snrs)
        object.__setattr__(self, "specs", specs)

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        _check_keys(data, {*_INT_KEYS, "snr_db", "specs"}, {"oracle"}, "config")
        if not isinstance(data["specs"], list):
            raise ValueError(f"specs must be a list of objects, got {data['specs']!r}")
        return cls(
            **{key: _parse_int(data[key], key) for key in _INT_KEYS},
            snr_db=_parse_snrs(data["snr_db"]),
            specs=tuple(EqualizerSpec.from_dict(d) for d in data["specs"]),
            oracle=_parse_bool(data.get("oracle", False), "oracle"),
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


def _ml_detect_block(matrix, observations, constellation, workspace=None) -> np.ndarray:
    """Exact ML search over every frame (column) of ``observations``.

    Splits each candidate s into its leading n // 2 components s_hi and the
    rest s_lo, so that H s = A_i + B_j with A = grid(n // 2) H_hi^T and
    B = grid(n - n // 2) H_lo^T.  Up to the frame-constant ||y||^2 the
    distance is T[i, j] + u[i] + v[j]: T = ||A_i + B_j||^2 is formed once
    per call, u = -2 A y and v = -2 B y per frame.  Row-major (i, j) is the
    lexicographic candidate index; ties go to the smallest candidate
    (points ascending, first component most significant).

    Each frame evaluates only the rows and columns of T that per-half
    projection bounds cannot rule out (see ``_bounded_minima``); the
    decisions equal those of an argmin over the whole table bit for bit.
    Observations and the channel must be finite.  Memory is M^n floats for
    T plus buffers of bounded size, whatever the frame count; all are taken
    from ``workspace`` when one is given.
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
    if not (np.isfinite(h).all() and np.isfinite(ys).all()):
        raise ValueError("ML search needs a finite channel and finite observations")
    n_hi = n // 2
    a = _grid(constellation.points, n_hi) @ h[:, :n_hi].T
    b = _grid(constellation.points, n - n_hi) @ h[:, n_hi:].T
    ws = Workspace() if workspace is None else workspace
    norms_a, norms_b = (a**2).sum(axis=1), (b**2).sum(axis=1)
    # T = (||A_i||^2 + ||B_j||^2) + 2 A_i^T B_j, added a few rows at a time
    # so that no second M^n array is needed.
    table = ws.take("ml_table", (len(a), len(b)))
    np.matmul(a, b.T, out=table)
    table *= 2.0
    step = max(1, _ML_SUBGRID_ENTRIES // len(b))
    for r in range(0, len(a), step):
        table[r : r + step] += norms_a[r : r + step, None] + norms_b
    image_scale = 4.0 * (norms_a.max() + norms_b.max())
    block = max(1, _ML_BLOCK_ENTRIES // total)
    best = _bounded_minima(table, a, b, h[:, :n_hi], h[:, n_hi:], image_scale, ys, block, ws)
    return constellation.points[np.stack(np.unravel_index(best, (order,) * n))]


def _bounded_minima(table, a, b, h_hi, h_lo, image_scale, ys, block, ws) -> np.ndarray:
    """Each frame's first minimum over the rows and columns its bounds keep."""
    # Every candidate in row i lies at least ||W_lo^T (y - A_i)||^2 from y,
    # with W_lo an orthonormal basis of range(H_lo)^perp, since B_j lies in
    # range(H_lo); likewise for column j with W_hi.  Let U be any table
    # value (T + u) + v of the frame, so the float minimum is <= U.  A
    # candidate whose float value is that minimum has exact distance at
    # most U + ||y||^2 plus rounding, so its row bound and its column bound
    # are at most U + ||y||^2 plus rounding.  The rounding of T, u, v, the
    # bounds and W, and that of the images A_i and B_j, which the bounds
    # take as exact, stays within a small multiple of m eps (||y||^2 +
    # max||A_i||^2 + max||B_j||^2) for m receive rows; the margin below
    # exceeds it by four orders of magnitude or more for m up to a few
    # dozen.  So every candidate that can tie the float minimum stays, and
    # the first minimum of the kept rows and columns, both ascending, is
    # the full table's.  ``image_scale`` is 4 (max||A_i||^2 + max||B_j||^2).
    w_lo, w_hi = _complement(h_lo), _complement(h_hi)
    proj_a, proj_b = a @ w_lo, b @ w_hi
    n_frames = ys.shape[1]
    chunk = block * max(1, _ML_CHUNK_FRAMES // block)
    best = np.empty(n_frames, dtype=np.intp)
    for start in range(0, n_frames, chunk):
        yt = ys[:, start : start + chunk].T
        f = len(yt)
        # Buffers of a whole chunk, so that a shorter last chunk reuses them.
        u = _frame_products(yt, a, block, ws.take("ml_u", (chunk, len(a)))[:f])
        v = _frame_products(yt, b, block, ws.take("ml_v", (chunk, len(b)))[:f])
        rows_lb = _projected_distances(yt, w_lo, proj_a, ws.take("ml_rows_lb", (chunk, len(a)))[:f])
        cols_lb = _projected_distances(yt, w_hi, proj_b, ws.take("ml_cols_lb", (chunk, len(b)))[:f])
        # U: the smallest table value along the row with the smallest row
        # bound and along the column with the smallest column bound.
        idx = np.arange(f)
        r0, c0 = rows_lb.argmin(axis=1), cols_lb.argmin(axis=1)
        along = table[r0]
        along += u[idx, r0][:, None]
        along += v
        limit = along.min(axis=1)
        along = table[:, c0].T
        along += u
        along += v[idx, c0][:, None]
        np.minimum(limit, along.min(axis=1), out=limit)
        del along
        y_norms = (yt**2).sum(axis=1)
        limit += y_norms
        limit += 1e-9 * (y_norms + image_scale)
        keep_rows = rows_lb <= limit[:, None]
        keep_cols = cols_lb <= limit[:, None]
        sizes = keep_rows.sum(axis=1) * keep_cols.sum(axis=1)
        large = sizes > _ML_SUBGRID_ENTRIES
        for g in np.flatnonzero(large):
            best[start + g] = _search_alone(
                table, u[g], v[g], np.flatnonzero(keep_rows[g]), np.flatnonzero(keep_cols[g])
            )
        small = np.flatnonzero(~large)
        if len(small):
            # Groups of consecutive frames, at most 2 * _ML_SUBGRID_ENTRIES
            # candidates each.
            ends = np.cumsum(sizes[small])
            cuts = np.searchsorted(
                ends, np.arange(_ML_SUBGRID_ENTRIES, ends[-1], _ML_SUBGRID_ENTRIES), side="right"
            )
            for group in np.split(small, cuts):
                best[start + group] = _search_together(
                    table, u, v, keep_rows[group], keep_cols[group], group
                )
    return best


def _complement(h) -> np.ndarray:
    """Orthonormal basis, one vector per column, of range(h)^perp."""
    if h.shape[1] == 0:
        return np.eye(len(h))
    return np.linalg.qr(h, mode="complete")[0][:, h.shape[1] :]


def _frame_products(yt, images, block, out) -> np.ndarray:
    """-2 y^T x for each frame y (row of ``yt``) and image x (row of ``images``).

    The products are formed in frame blocks of ``block`` rows, one matmul
    of that shape per block (the last block may be partial), because a
    matmul's bits depend on its shape.
    """
    full = len(yt) // block * block
    np.matmul(
        yt[:full].reshape(-1, block, yt.shape[1]),
        images.T,
        out=out[:full].reshape(-1, block, len(images)),
    )
    if full < len(yt):
        np.matmul(yt[full:], images.T, out=out[full:])
    out *= -2.0
    return out


def _projected_distances(yt, w, projected, out) -> np.ndarray:
    """||W^T y - p||^2 for each frame y (row of ``yt``) and row p of ``projected``."""
    py = yt @ w
    np.matmul(py, projected.T, out=out)
    out *= -2.0
    out += (py**2).sum(axis=1)[:, None]
    out += (projected**2).sum(axis=1)
    return out


def _search_alone(table, u, v, rows, cols) -> int:
    """Row-major index into ``table`` of one frame's first minimum over rows x cols.

    Evaluated a few rows at a time, at most _ML_SUBGRID_ENTRIES values at once.
    """
    step = max(1, _ML_SUBGRID_ENTRIES // len(cols))
    best_val, best_idx = np.inf, -1
    for p in range(0, len(rows), step):
        r = rows[p : p + step]
        d = table[np.ix_(r, cols)]
        d += u[r][:, None]
        d += v[cols]
        k = d.argmin()
        if d.flat[k] < best_val:  # strict: earlier pieces win ties
            best_val = d.flat[k]
            best_idx = r[k // len(cols)] * table.shape[1] + cols[k % len(cols)]
    return best_idx


def _search_together(table, u, v, keep_rows, keep_cols, frames) -> np.ndarray:
    """Each frame's first minimum over its kept rows x kept columns, flat-indexed.

    ``keep_rows`` and ``keep_cols`` hold one mask row per entry of ``frames``,
    the frames' rows in ``u`` and ``v``.  The candidates of all frames are
    listed together, frame by frame in row-major order.
    """
    ncols = keep_cols.sum(axis=1)
    fr, rows = np.nonzero(keep_rows)
    cols = np.nonzero(keep_cols)[1]
    reps = ncols[fr]
    # Candidate k of kept row e takes kept column col_start[fr[e]] + k.
    col_start = np.cumsum(ncols) - ncols
    pair_start = np.cumsum(reps) - reps
    at = np.repeat(col_start[fr] - pair_start, reps)
    at += np.arange(len(at))
    col = cols[at]
    row = np.repeat(rows, reps)
    frame = np.repeat(frames[fr], reps)
    vals = table[row, col]
    vals += u[frame, row]
    vals += v[frame, col]
    sizes = keep_rows.sum(axis=1) * ncols
    seg = np.cumsum(sizes) - sizes
    hits = np.flatnonzero(vals == np.repeat(np.minimum.reduceat(vals, seg), sizes))
    first = hits[np.searchsorted(hits, seg)]
    return row[first] * table.shape[1] + col[first]


def _grid(points, k) -> np.ndarray:
    """Every k-vector over ``points`` in lexicographic order, one per row.

    k = 0 gives a single zero-width row.
    """
    m = len(points)
    return points[np.arange(m**k)[:, None] // m ** np.arange(k - 1, -1, -1) % m]


def run_monte_carlo(config: SimConfig, workers: int = 1) -> SimResult:
    """Run the full trial grid and add up the trials' count arrays.

    Trials run on ``meta["workers"] = min(workers, trials)`` processes, one
    trial per task; every trial owns a (seed, trial)-keyed stream and counts
    add up commutatively, so the result is bit-identical for any worker count.
    ``meta["redraw_causes"]`` counts the channel draws that were rank
    deficient or on which detector construction failed, by exception class
    name; ``meta["channel_redraws"]`` is their total.
    """
    start = time.perf_counter()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(workers, config.trials)
    ids = _result_ids(config)
    args = ([config] * config.trials, range(config.trials))
    if workers == 1:
        outcomes = list(map(_run_trial, *args))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_trial, *args))
    trial_counts, trial_causes = zip(*outcomes)
    errors, vec_errors, clips = np.sum(trial_counts, axis=0)
    causes = sum(trial_causes, Counter())
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


def _run_trial(config: SimConfig, trial: int):
    """One trial's ``(counts, causes)``.

    ``counts`` is an int64 array of shape (3, detectors, SNRs): the symbol
    errors, vector errors and clipped decisions of each detector (ML oracle
    last) at each SNR.  ``causes`` counts redrawn draws by exception class
    name.  A draw's detectors come from one ``build_detectors`` call and all
    work in one :class:`Workspace`, so frame arrays are allocated once.
    """
    rng = trial_rng(config.seed, trial)
    constellation = make_ask_constellation(config.order)
    sv = constellation.variance
    noise_vars = [_noise_var(config, sv, snr) for snr in config.snr_db]
    inv_snrs = [noise_var / sv for noise_var in noise_vars]
    causes = Counter()
    for _ in range(_MAX_REDRAWS):
        try:
            h = draw_channel(rng, config.n_rx, config.n_tx).matrix
            detectors = build_detectors(config.specs, h, inv_snrs)
            break
        except _REDRAW_CAUSES as exc:
            causes[type(exc).__name__] += 1
            cause = exc
    else:
        raise RedrawLimitError(
            f"trial {trial}: no usable channel in {_MAX_REDRAWS} draws; last cause: {cause!r}"
        ) from cause

    counts = np.zeros((3, len(_result_ids(config)), len(config.snr_db)), dtype=np.int64)
    frames = config.frames_per_channel
    ws = Workspace()
    tx_shape, rx_shape = (2 * config.n_tx, frames), (2 * config.n_rx, frames)
    sent, wrong = ws.take("sent", tx_shape), ws.take("wrong", tx_shape, bool)
    noise, received = ws.take("noise", rx_shape), ws.take("received", rx_shape)
    wrong_frame = ws.take("wrong_frame", (frames,), bool)
    for j, noise_var in enumerate(noise_vars):
        idx = rng.integers(0, config.order, size=tx_shape)
        # The indices are in range; mode="raise" would copy through a temporary.
        np.take(constellation.points, idx, out=sent, mode="clip")
        # Equal to rng.normal(0.0, sigma, rx_shape), drawing the same stream.
        rng.standard_normal(out=noise)
        noise *= np.sqrt(noise_var)
        np.matmul(h, sent, out=received)
        received += noise
        decisions = _decisions(detectors[j], config.oracle, h, received, constellation, ws)
        for i, (a_hat, nclip) in enumerate(decisions):
            np.not_equal(a_hat, sent, out=wrong)
            np.any(wrong, axis=0, out=wrong_frame)
            counts[:, i, j] = np.count_nonzero(wrong), np.count_nonzero(wrong_frame), nclip
    return counts, causes


def _decisions(detectors, oracle: bool, h, received, constellation, workspace):
    """(decisions, clip count) of each detector, then of the ML oracle.

    A generator, so each detector's decisions are counted before the next
    one runs and overwrites them in ``workspace``.
    """
    for det in detectors:
        a_hat, _, nclip = detect_block(det, received, constellation, workspace)
        yield a_hat, nclip
    if oracle:
        yield _ml_detect_block(h, received, constellation, workspace), 0


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
