"""The bounded ML search against two references.

``sim._ml_detect_block`` forms the distance of every candidate from two
half-grids and evaluates, per frame, only the rows of that split table
which a projection bound cannot rule out, each against every column.
``split_table_ml_block`` evaluates the whole split table for every frame;
the bounded search must return its decisions exactly, on every case, frame
count and noise level below, also when every kept row is a piece of its
own.  ``reference_ml_block`` is the direct search: it builds every
candidate, its image and the K x F distance matrix, and scans candidates
in chunks.  All must agree on exact ties, where the lexicographically
smallest candidate wins.  The search always takes a hint (any candidate,
or any finite array the search rounds and clips onto one), which only
tightens the bound, so every hint must leave the decisions unchanged; the
comparisons with the references hint the alphabet's first point.  A
simulated trial hands the oracle a whole SNR group's stacked observations
at once, which must decide each point as a call on that point alone does.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lramimo import sim
from lramimo.equalize import ALL_SPECS, Workspace, build_detectors, detect_block
from lramimo.model import make_ask_constellation

_REFERENCE_CHUNK = 1 << 17
# The split-table reference evaluates max(1, _SPLIT_TABLE_ENTRIES // M^n)
# frames at a time.
_SPLIT_TABLE_ENTRIES = 1 << 16


def reference_ml_block(matrix, observations, constellation) -> np.ndarray:
    h = np.asarray(matrix, dtype=float)
    ys = np.asarray(observations, dtype=float)
    n = h.shape[1]
    total = constellation.order**n
    assert total <= sim._ML_SEARCH_LIMIT
    grids = np.meshgrid(*([constellation.points] * n), indexing="ij")
    cands = np.stack(grids, axis=-1).reshape(-1, n)
    n_frames = ys.shape[1]
    best_val = np.full(n_frames, np.inf)
    best_idx = np.zeros(n_frames, dtype=np.int64)
    for start in range(0, total, _REFERENCE_CHUNK):
        chunk = cands[start : start + _REFERENCE_CHUNK]
        images = chunk @ h.T
        # ||y - s||^2 up to the frame-constant ||y||^2
        d = (images**2).sum(axis=1)[:, None] - 2.0 * (images @ ys)
        k = np.argmin(d, axis=0)
        val = d[k, np.arange(n_frames)]
        better = val < best_val  # strict: earlier (lexicographic) candidate wins ties
        best_val[better] = val[better]
        best_idx[better] = k[better] + start
    return cands[best_idx].T.copy()


def split_table_ml_block(matrix, observations, constellation, farthest=False) -> np.ndarray:
    """Full split-table search: T + u + v over all M^n entries for every frame.

    u and v are formed per frame, each frame's products a matmul of their
    own as in ``sim``, and the first argmin in row-major order gives ties
    to the smallest candidate.  ``farthest`` takes the argmax instead: the
    candidate whose image lies farthest from the frame.
    """
    h = np.asarray(matrix, dtype=float)
    ys = np.asarray(observations, dtype=float)
    order = constellation.order
    n = h.shape[1]
    total = order**n
    assert total <= sim._ML_SEARCH_LIMIT
    n_hi = n // 2
    a = sim._grid(constellation.points, n_hi) @ h[:, :n_hi].T
    b = sim._grid(constellation.points, n - n_hi) @ h[:, n_hi:].T
    ws = Workspace()
    n_frames = ys.shape[1]
    block = max(1, _SPLIT_TABLE_ENTRIES // total)
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
        np.add(table, (-2.0 * np.matmul(y.T[:, None, :], a.T))[:, 0, :, None], out=d)
        d += -2.0 * np.matmul(y.T[:, None, :], b.T)
        flat = d.reshape(len(d), -1)
        best[start : start + block] = flat.argmax(axis=1) if farthest else flat.argmin(axis=1)
    return constellation.points[np.stack(np.unravel_index(best, (order,) * n))]


def uninformed_hint(matrix, observations, constellation) -> np.ndarray:
    """A hint that carries no information: every component at the alphabet's first point."""
    return np.full((np.shape(matrix)[1], np.shape(observations)[1]), constellation.points[0])


def uninformed_ml_block(matrix, observations, constellation, workspace=None) -> np.ndarray:
    """``sim._ml_detect_block`` under ``uninformed_hint``."""
    hint = uninformed_hint(matrix, observations, constellation)
    return sim._ml_detect_block(matrix, observations, constellation, workspace, hint=hint)


# The tests that straddle chunk boundaries pin the oracle's chunk at
# _CHUNK_FRAMES frames, so that their frame counts do not grow with
# sim._ML_CHUNK_ENTRIES.
_CHUNK_FRAMES = 16
_FRAME_COUNTS = (1, _CHUNK_FRAMES - 1, _CHUNK_FRAMES + 1, 3 * _CHUNK_FRAMES + 2)


def _pin_chunk(monkeypatch, n, order):
    """Make the oracle bound _CHUNK_FRAMES frames at a time on a table of M^(n // 2) rows."""
    monkeypatch.setattr(sim, "_ML_CHUNK_ENTRIES", _CHUNK_FRAMES * order ** (n // 2))


# (real streams, receive rows, order): square and tall, within the 10^6 limit.
CASES = [
    (1, 1, 2), (1, 3, 4), (1, 2, 8),
    (2, 2, 2), (2, 4, 4), (2, 2, 8), (2, 64, 4),
    (3, 3, 2), (3, 5, 4), (3, 4, 8),
    (5, 5, 2), (5, 7, 4), (5, 5, 8),
    (8, 8, 2), (8, 10, 2), (8, 8, 4),
    (16, 16, 2), (16, 18, 2),
]


def _draw(n, m, order, frames, seed, std=0.6):
    h, _, ys, constellation = _draw_sent(n, m, order, frames, seed, std)
    return h, ys, constellation


def _draw_sent(n, m, order, frames, seed, std=0.6):
    """A Gaussian channel, the sent symbols, the observations and the alphabet."""
    constellation = make_ask_constellation(order)
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(m, n))
    sent = rng.choice(constellation.points, size=(n, frames))
    ys = h @ sent + std * rng.normal(size=(m, frames))
    return h, sent, ys, constellation


@pytest.mark.parametrize("n, m, order", CASES)
def test_matches_reference_on_gaussian_draws(n, m, order, monkeypatch):
    _pin_chunk(monkeypatch, n, order)
    for frames in _FRAME_COUNTS:
        h, ys, constellation = _draw(n, m, order, frames, seed=1000 * n + 10 * m + order + frames)
        got = uninformed_ml_block(h, ys, constellation)
        want = reference_ml_block(h, ys, constellation)
        assert got.shape == (n, frames)
        np.testing.assert_array_equal(got, want, err_msg=f"{frames} frames")


def _one_row_per_piece(monkeypatch):
    """Evaluate every kept (frame, row) pair as a piece of its own, so that each
    frame's first minimum is always merged across pieces."""
    monkeypatch.setattr(sim, "_ML_PIECE_ENTRIES", 1)


def _assert_split_table(n, m, order, monkeypatch):
    """At std 30 the bound rules out almost nothing, so most rows are kept."""
    _pin_chunk(monkeypatch, n, order)
    for frames in _FRAME_COUNTS:
        for std in (0.0, 0.1, 0.6, 3.0, 30.0):
            h, ys, constellation = _draw(n, m, order, frames, seed=100 * n + m + frames, std=std)
            want = split_table_ml_block(h, ys, constellation)
            got = uninformed_ml_block(h, ys, constellation)
            np.testing.assert_array_equal(got, want, err_msg=f"{frames} frames, std {std}")


@pytest.mark.parametrize("n, m, order", CASES)
def test_bit_identical_to_the_split_table(n, m, order, monkeypatch):
    _assert_split_table(n, m, order, monkeypatch)


@pytest.mark.parametrize("n, m, order", CASES)
def test_bit_identical_to_the_split_table_one_row_per_piece(n, m, order, monkeypatch):
    """Each kept row is a loop step of its own; the largest frame count is
    three 16-frame chunks and a tail."""
    _one_row_per_piece(monkeypatch)
    _assert_split_table(n, m, order, monkeypatch)


@pytest.mark.parametrize("one_row_per_piece", [False, True])
@pytest.mark.parametrize("snr_db", [8.0, 12.0])
def test_bit_identical_to_the_split_table_at_the_wide_oracle_shape(snr_db, one_row_per_piece, monkeypatch):
    """8x8 complex BPSK (16 real streams) on 200 frames, 13 bounded chunks,
    with the noise of the benchmark's wide-oracle sweep."""
    if one_row_per_piece:
        _one_row_per_piece(monkeypatch)
    constellation = make_ask_constellation(2)
    rng = sim.trial_rng(17, int(snr_db))
    h = sim.draw_channel(rng, 8, 8).matrix
    sent = rng.choice(constellation.points, size=(16, 200))
    std = math.sqrt(constellation.variance * 8 / 10.0 ** (snr_db / 10.0))
    ys = h @ sent + std * rng.standard_normal((16, 200))
    want = split_table_ml_block(h, ys, constellation)
    np.testing.assert_array_equal(uninformed_ml_block(h, ys, constellation), want)


@pytest.mark.parametrize("seed", range(16))
def test_frame_products_do_not_depend_on_neighbouring_frames(seed):
    """Split at points that are no multiple of a chunk, on a strided view like
    a slice of a trial's observations, every frame keeps its products' bits;
    one (F, m) by (m, K) matmul over all frames would not."""
    rng = np.random.default_rng(seed)
    m, k, frames = int(rng.integers(1, 21)), int(rng.integers(1, 1025)), int(rng.integers(2, 300))
    images = rng.normal(size=(k, m))
    yt = rng.normal(size=(m + 3, frames + 5))[1 : m + 1, 2 : frames + 2].T
    whole = sim._frame_products(yt, images, np.empty((frames, k)))
    chunk = max(1, sim._ML_CHUNK_ENTRIES // k)
    splits = {1, frames - 1, *rng.integers(1, frames, size=4).tolist()}
    for split in sorted(s for s in splits if s % chunk):
        parts = [sim._frame_products(p, images, np.empty((len(p), k))) for p in (yt[:split], yt[split:])]
        np.testing.assert_array_equal(
            np.concatenate(parts).view(np.uint64), whole.view(np.uint64), err_msg=f"split at {split}"
        )


@pytest.mark.parametrize("n, m, order", CASES)
def test_decisions_do_not_depend_on_neighbouring_frames(n, m, order):
    """Split calls, sharing one workspace, decide each frame as one call does."""
    frames = 37
    h, ys, constellation = _draw(n, m, order, frames, seed=10 * n + m + order, std=0.6)
    ws = Workspace()
    whole = uninformed_ml_block(h, ys, constellation, ws)
    for split in (1, 13, 36):
        parts = [uninformed_ml_block(h, y, constellation, ws) for y in (ys[:, :split], ys[:, split:])]
        np.testing.assert_array_equal(np.concatenate(parts, axis=1), whole, err_msg=f"split at {split}")


@st.composite
def _scaled_draws(draw):
    n = draw(st.integers(1, 8))
    m = n + draw(st.integers(0, 2))
    order = draw(st.sampled_from([2, 4]))
    frames = draw(st.integers(1, 40))
    std = 10.0 ** draw(st.floats(-3.0, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    constellation = make_ask_constellation(order)
    h = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=n)
    sent = rng.choice(constellation.points, size=(n, frames))
    return h, h @ sent + std * rng.normal(size=(m, frames)), constellation


@settings(max_examples=60, deadline=None, derandomize=True)
@given(drawn=_scaled_draws())
def test_bit_identical_on_scaled_columns_and_any_noise(drawn):
    h, ys, constellation = drawn
    want = split_table_ml_block(h, ys, constellation)
    np.testing.assert_array_equal(uninformed_ml_block(h, ys, constellation), want)


@st.composite
def _stacked_groups(draw):
    """(H, constellation, (m, S f) observations, (n, S f) detector decisions, S).

    Laid out as a trial lays out one SNR group of a frame slice: every point
    sees the same symbols under its own multiple of one noise block, the
    (m, S, f) stack read as (m, S f), and a detector's decisions on it.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 6))
    m = n + draw(st.sampled_from([0, 2]))
    constellation = make_ask_constellation(draw(st.sampled_from([2, 4])))
    n_points, frames = draw(st.integers(1, 5)), draw(st.integers(1, 300))
    h = rng.normal(size=(m, n))
    sent = rng.choice(constellation.points, size=(n, frames))
    sigmas = 10.0 ** rng.uniform(-2.0, 0.5, size=n_points)
    received = rng.normal(size=(m, frames))[:, None] * sigmas[:, None] + (h @ sent)[:, None]
    observations = received.reshape(m, -1)
    spec = draw(st.sampled_from(ALL_SPECS))
    detector = build_detectors([spec], h[None], list(sigmas**2 / constellation.variance))[0][0]
    decisions = detect_block(detector, observations, constellation)[0]
    return h, constellation, observations, decisions, n_points


@settings(max_examples=60, deadline=None, derandomize=True)
@given(drawn=_stacked_groups())
def test_one_call_on_a_stacked_group_equals_one_call_per_point(drawn):
    h, constellation, ys, hint, n_points = drawn
    frames = ys.shape[1] // n_points
    ws = Workspace()
    whole = sim._ml_detect_block(h, ys, constellation, ws, hint=hint)
    for s in range(n_points):
        point = slice(s * frames, (s + 1) * frames)
        want = sim._ml_detect_block(h, np.ascontiguousarray(ys[:, point]), constellation, ws, hint=hint[:, point])
        np.testing.assert_array_equal(whole[:, point], want, err_msg=f"point {s} of {n_points}, {frames} frames")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_input(bad):
    h, ys, constellation = _draw(3, 3, 2, 4, seed=2)
    ys[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        uninformed_ml_block(h, ys, constellation)
    h[0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        uninformed_ml_block(h, np.zeros((3, 4)), constellation)


def _exact_first_minimum(h, ys, constellation):
    """Lexicographically first minimizer per frame, in exact integer arithmetic."""
    n = h.shape[1]
    cands2 = np.array(list(itertools.product(constellation.points, repeat=n))) * 2
    cands2 = cands2.astype(np.int64)
    ys2 = np.rint(2 * ys).astype(np.int64)
    images2 = cands2 @ h.astype(np.int64).T
    dist = ((ys2.T[:, None, :] - images2[None, :, :]) ** 2).sum(axis=2)
    return (cands2[dist.argmin(axis=1)] / 2).T


def _tie_draw(n, m, order, spread, seed):
    """Integer channel with twin columns, half-integer noise in [-spread/2, spread/2].

    Returns the channel, the sent symbols, the observations and the alphabet.
    """
    constellation = make_ask_constellation(order)
    rng = np.random.default_rng(seed)
    frames = _CHUNK_FRAMES + 1
    h = rng.integers(-1, 2, size=(m, n)).astype(float)
    h[:, -1] = h[:, 0]  # twin columns: swapping their symbols never changes H s
    sent = rng.choice(constellation.points, size=(n, frames))
    ys = h @ sent + rng.integers(-spread, spread + 1, size=(m, frames)) / 2.0
    return h, sent, ys, constellation


def _assert_exact_ties(n, m, order, spread, seed, monkeypatch):
    _pin_chunk(monkeypatch, n, order)
    h, sent, ys, constellation = _tie_draw(n, m, order, spread, seed)
    got = uninformed_ml_block(h, ys, constellation)
    want = _exact_first_minimum(h, ys, constellation)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got, reference_ml_block(h, ys, constellation))
    np.testing.assert_array_equal(got, split_table_ml_block(h, ys, constellation))
    if n > 1:
        # Swapping the twin symbols gives a tied candidate whenever they differ;
        # the winner is the one with the smaller first symbol.
        assert np.any(got[0] != got[-1])
        assert np.all(got[0] <= got[-1])


TIE_CASES = [(1, 2, 4), (2, 2, 2), (3, 4, 4), (5, 5, 2), (8, 8, 2), (12, 12, 2)]


@pytest.mark.parametrize("n, m, order", TIE_CASES)
def test_exact_ties_go_to_lexicographically_smallest(n, m, order, monkeypatch):
    _assert_exact_ties(n, m, order, spread=1, seed=7 * n + order, monkeypatch=monkeypatch)


def test_exact_ties_across_the_pieces_of_a_large_subgrid(monkeypatch):
    """Wide noise keeps many rows per frame, so that some frames span two
    pieces of ``_ML_PIECE_ENTRIES`` values; twin candidates lie in different rows."""
    _assert_exact_ties(12, 12, 2, spread=8, seed=94, monkeypatch=monkeypatch)


@pytest.mark.parametrize("n, m, order", TIE_CASES)
def test_exact_ties_with_one_row_per_piece(n, m, order, monkeypatch):
    _one_row_per_piece(monkeypatch)
    _assert_exact_ties(n, m, order, spread=1, seed=7 * n + order, monkeypatch=monkeypatch)
    _assert_exact_ties(n, m, order, spread=8, seed=94 + n, monkeypatch=monkeypatch)


def _hints(h, sent, ys, constellation, seed):
    """Hints by name: the sent symbols, a random candidate, the candidate
    whose image lies farthest from the frame, and floats off the alphabet,
    many beyond its ends, which the search rounds and clips onto candidates."""
    rng = np.random.default_rng(seed)
    limit = 2.0 * constellation.order
    return {
        "sent": sent,
        "random": rng.choice(constellation.points, size=sent.shape),
        "farthest": split_table_ml_block(h, ys, constellation, farthest=True),
        "off-alphabet": rng.uniform(-limit, limit, size=sent.shape),
    }


@pytest.mark.parametrize("small_chunks", [False, True])
@pytest.mark.parametrize("n, m, order", CASES)
def test_hints_change_no_decision(n, m, order, small_chunks, monkeypatch):
    """Under every hint the decisions are the split table's, with no, low and
    high noise; with chunks of three frames each hint is cut across 33 chunks."""
    if small_chunks:
        monkeypatch.setattr(sim, "_ML_CHUNK_ENTRIES", 3 * order ** (n // 2))
    for std in (0.0, 0.3, 3.0):
        h, sent, ys, constellation = _draw_sent(n, m, order, 97, seed=10 * n + m + order, std=std)
        want = split_table_ml_block(h, ys, constellation)
        for name, hint in _hints(h, sent, ys, constellation, seed=n).items():
            got = sim._ml_detect_block(h, ys, constellation, hint=hint)
            np.testing.assert_array_equal(got, want, err_msg=f"{name} hint, std {std}")


@pytest.mark.parametrize("n, m, order", TIE_CASES)
def test_hints_change_no_decision_on_exact_ties(n, m, order, monkeypatch):
    """Exact ties under every hint, and under the tied twin of the winner, the
    candidate at the very minimum that must lose the tie."""
    _pin_chunk(monkeypatch, n, order)
    for spread in (1, 8):
        h, sent, ys, constellation = _tie_draw(n, m, order, spread, seed=7 * n + order + spread)
        want = _exact_first_minimum(h, ys, constellation)
        hints = _hints(h, sent, ys, constellation, seed=n)
        if n > 1:
            hints["tied twin"] = want[[-1, *range(1, n - 1), 0]]
        for name, hint in hints.items():
            got = sim._ml_detect_block(h, ys, constellation, hint=hint)
            np.testing.assert_array_equal(got, want, err_msg=f"{name} hint, spread {spread}")


def test_rejects_a_hint_of_another_shape_or_not_finite():
    h, ys, constellation = _draw(3, 3, 2, 4, seed=2)
    with pytest.raises(ValueError, match="hint must have shape"):
        sim._ml_detect_block(h, ys, constellation, hint=np.zeros((3, 5)))
    hint = np.zeros((3, 4))
    hint[2, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        sim._ml_detect_block(h, ys, constellation, hint=hint)


def _traced_peak(search, *args, **kwargs):
    """Peak traced memory of one call; the hint, like the observations, is made outside it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        search(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_frames():
    """One 16-stream BPSK call on 200 frames stays far below K x F floats (105 MB)."""
    h, ys, constellation = _draw(16, 16, 2, 200, seed=5)
    hint = uninformed_hint(h, ys, constellation)
    peak = _traced_peak(sim._ml_detect_block, h, ys, constellation, hint=hint)
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("std", [3.0, 0.3])
def test_memory_stays_within_the_split_table(std):
    """Many kept rows per frame (std 3) or few (std 0.3), 16-stream BPSK."""
    h, ys, constellation = _draw(16, 16, 2, 200, seed=5, std=std)
    for search in (split_table_ml_block, uninformed_ml_block):
        search(h, ys, constellation)  # first calls may import modules lazily
    want = _traced_peak(split_table_ml_block, h, ys, constellation)
    hint = uninformed_hint(h, ys, constellation)
    got = _traced_peak(sim._ml_detect_block, h, ys, constellation, hint=hint)
    assert got <= want, f"peak {got / 2**10:.0f} KB > split table {want / 2**10:.0f} KB"


def test_memory_does_not_grow_with_receive_rows():
    """A (4096, 2) channel, 3 frames at order 4: the search keeps no m x m
    array, so the call peaks far below one (128 MB)."""
    h, ys, constellation = _draw(2, 4096, 4, 3, seed=11)
    want = split_table_ml_block(h, ys, constellation)
    hint = uninformed_hint(h, ys, constellation)
    np.testing.assert_array_equal(sim._ml_detect_block(h, ys, constellation, hint=hint), want)
    peak = _traced_peak(sim._ml_detect_block, h, ys, constellation, hint=hint)
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"
