"""Monte-Carlo symbol-error-rate simulation over random MIMO channels.

Channels are drawn per trial, noise per frame.  Every trial consumes its
own counter-based random stream keyed by (seed, trial index), so serial
and parallel executions produce bit-identical results and trials can be
merged in any order.  The exhaustive ML search, split into two half-grid
tables, serves as the performance oracle.
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
# The oracle processes frames in blocks of about this many distances.
_ML_BLOCK_ENTRIES = 1 << 16

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
        if not all(s > -math.inf for s in snrs):
            raise ValueError(f"snr_db must hold numbers above -inf (+inf is noiseless), got {snrs}")
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
        make_ask_constellation(self.order)  # validates the order
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
    """Exhaustive ML search over every frame (column) of ``observations``.

    Splits each candidate s into its leading n // 2 components s_hi and the
    rest s_lo, so that H s = A_i + B_j with A = grid(n // 2) H_hi^T and
    B = grid(n - n // 2) H_lo^T.  Up to the frame-constant ||y||^2 the
    distance is T[i, j] + u[i] + v[j]: T = ||A_i + B_j||^2 is formed once
    per call, u = -2 A y and v = -2 B y per frame.  Row-major (i, j) is the
    lexicographic candidate index, so argmin's first occurrence gives ties
    to the smallest candidate (points ascending, first component most
    significant).  Memory is about M^n floats, whatever the frame count; T
    and the distance block are taken from ``workspace`` when one is given.
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
    n_hi = n // 2
    a = _grid(constellation.points, n_hi) @ h[:, :n_hi].T
    b = _grid(constellation.points, n - n_hi) @ h[:, n_hi:].T
    ws = Workspace() if workspace is None else workspace
    n_frames = ys.shape[1]
    block = max(1, _ML_BLOCK_ENTRIES // total)
    dist = ws.take("ml_dist", (max(1, min(block, n_frames)), len(a), len(b)))
    # T = (||A_i||^2 + ||B_j||^2) + 2 A_i^T B_j, with 2 A B^T formed in dist[0].
    cross = np.matmul(a, b.T, out=dist[0])
    cross *= 2.0
    table = ws.take("ml_table", cross.shape)
    np.add((a**2).sum(axis=1)[:, None], (b**2).sum(axis=1)[None, :], out=table)
    table += cross
    best = np.empty(n_frames, dtype=np.intp)
    for start in range(0, n_frames, block):
        y = ys[:, start : start + block]
        d = dist[: y.shape[1]]
        np.add(table, (-2.0 * (y.T @ a.T))[:, :, None], out=d)
        d += (-2.0 * (y.T @ b.T))[:, None, :]
        best[start : start + block] = d.reshape(len(d), -1).argmin(axis=1)
    return constellation.points[np.stack(np.unravel_index(best, (order,) * n))]


def _grid(points, k) -> np.ndarray:
    """Every k-vector over ``points`` in lexicographic order, one per row.

    k = 0 gives a single zero-width row.
    """
    m = len(points)
    return points[np.arange(m**k)[:, None] // m ** np.arange(k - 1, -1, -1) % m]


def run_monte_carlo(config: SimConfig, workers: int = 1) -> SimResult:
    """Run the full trial grid and add up the trials' count arrays.

    ``workers`` > 1 distributes trials over processes; because every trial
    owns a (seed, trial)-keyed stream and integer counts add up
    commutatively, the result is bit-identical for any worker count.
    ``meta["redraw_causes"]`` counts the channel draws that were rank
    deficient or on which detector construction failed, by exception class
    name; ``meta["channel_redraws"]`` is their total.
    """
    start = time.perf_counter()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    ids = _result_ids(config)
    args = ([config] * config.trials, range(config.trials))
    if workers == 1:
        outcomes = list(map(_run_trial, *args))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_trial, *args, chunksize=8))
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
