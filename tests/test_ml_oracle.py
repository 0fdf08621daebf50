"""The bounded ML search against two references.

``sim._ml_detect_block`` forms the distance of every candidate from two
half-grids and evaluates, per frame, only the rows and columns of that
split table which per-half projection bounds cannot rule out.
``split_table_ml_block`` evaluates the whole split table for every frame;
the bounded search must return its decisions exactly, on every case, frame
count and noise level below.  ``reference_ml_block`` is the direct
search: it builds every candidate, its image and the K x F distance
matrix, and scans candidates in chunks.  All must agree on exact ties,
where the lexicographically smallest candidate wins.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lramimo import sim
from lramimo.equalize import Workspace
from lramimo.model import make_ask_constellation

_REFERENCE_CHUNK = 1 << 17


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


def split_table_ml_block(matrix, observations, constellation) -> np.ndarray:
    """Full split-table search: T + u + v over all M^n entries for every frame.

    u and v are formed in the same frame blocks as in ``sim``, and the
    first argmin in row-major order gives ties to the smallest candidate.
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
    block = max(1, sim._ML_BLOCK_ENTRIES // total)
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


def _block(n, order):
    return max(1, sim._ML_BLOCK_ENTRIES // order**n)


def _frame_counts(n, order):
    block = _block(n, order)
    return sorted({1, max(1, block - 1), block + 1, 3 * block + 2})


# (real streams, receive rows, order): square and tall, within the 10^6 limit.
CASES = [
    (1, 1, 2), (1, 3, 4), (1, 2, 8),
    (2, 2, 2), (2, 4, 4), (2, 2, 8),
    (3, 3, 2), (3, 5, 4), (3, 4, 8),
    (5, 5, 2), (5, 7, 4), (5, 5, 8),
    (8, 8, 2), (8, 10, 2), (8, 8, 4),
    (16, 16, 2), (16, 18, 2),
]


def _draw(n, m, order, frames, seed, std=0.6):
    constellation = make_ask_constellation(order)
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(m, n))
    sent = rng.choice(constellation.points, size=(n, frames))
    ys = h @ sent + std * rng.normal(size=(m, frames))
    return h, ys, constellation


@pytest.mark.parametrize("n, m, order", CASES)
def test_matches_reference_on_gaussian_draws(n, m, order):
    for frames in _frame_counts(n, order):
        h, ys, constellation = _draw(n, m, order, frames, seed=1000 * n + 10 * m + order + frames)
        got = sim._ml_detect_block(h, ys, constellation)
        want = reference_ml_block(h, ys, constellation)
        assert got.shape == (n, frames)
        np.testing.assert_array_equal(got, want, err_msg=f"{frames} frames")


@pytest.mark.parametrize("n, m, order", CASES)
def test_bit_identical_to_the_split_table(n, m, order):
    """At std 30 the bounds rule out almost nothing, so large subgrids are searched alone."""
    for frames in _frame_counts(n, order):
        for std in (0.0, 0.1, 0.6, 3.0, 30.0):
            h, ys, constellation = _draw(n, m, order, frames, seed=100 * n + m + frames, std=std)
            want = split_table_ml_block(h, ys, constellation)
            got = sim._ml_detect_block(h, ys, constellation)
            np.testing.assert_array_equal(got, want, err_msg=f"{frames} frames, std {std}")


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
    np.testing.assert_array_equal(sim._ml_detect_block(h, ys, constellation), want)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_input(bad):
    h, ys, constellation = _draw(3, 3, 2, 4, seed=2)
    ys[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        sim._ml_detect_block(h, ys, constellation)
    h[0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        sim._ml_detect_block(h, np.zeros((3, 4)), constellation)


def _exact_first_minimum(h, ys, constellation):
    """Lexicographically first minimizer per frame, in exact integer arithmetic."""
    n = h.shape[1]
    cands2 = np.array(list(itertools.product(constellation.points, repeat=n))) * 2
    cands2 = cands2.astype(np.int64)
    ys2 = np.rint(2 * ys).astype(np.int64)
    images2 = cands2 @ h.astype(np.int64).T
    dist = ((ys2.T[:, None, :] - images2[None, :, :]) ** 2).sum(axis=2)
    return (cands2[dist.argmin(axis=1)] / 2).T


def _assert_exact_ties(n, m, order, spread, seed):
    """Integer channel with twin columns, half-integer noise in [-spread/2, spread/2]."""
    constellation = make_ask_constellation(order)
    rng = np.random.default_rng(seed)
    frames = _block(n, order) + 1
    h = rng.integers(-1, 2, size=(m, n)).astype(float)
    h[:, -1] = h[:, 0]  # twin columns: swapping their symbols never changes H s
    sent = rng.choice(constellation.points, size=(n, frames))
    ys = h @ sent + rng.integers(-spread, spread + 1, size=(m, frames)) / 2.0
    got = sim._ml_detect_block(h, ys, constellation)
    want = _exact_first_minimum(h, ys, constellation)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got, reference_ml_block(h, ys, constellation))
    np.testing.assert_array_equal(got, split_table_ml_block(h, ys, constellation))
    if n > 1:
        # Swapping the twin symbols gives a tied candidate whenever they differ;
        # the winner is the one with the smaller first symbol.
        assert np.any(got[0] != got[-1])
        assert np.all(got[0] <= got[-1])


@pytest.mark.parametrize("n, m, order", [(1, 2, 4), (2, 2, 2), (3, 4, 4), (5, 5, 2), (8, 8, 2), (12, 12, 2)])
def test_exact_ties_go_to_lexicographically_smallest(n, m, order):
    _assert_exact_ties(n, m, order, spread=1, seed=7 * n + order)


def test_exact_ties_across_the_pieces_of_a_large_subgrid():
    """About half the frames keep more than ``_ML_SUBGRID_ENTRIES`` candidates
    and are searched in pieces of rows; twin candidates lie in different pieces."""
    _assert_exact_ties(12, 12, 2, spread=8, seed=94)


def _traced_peak(search, h, ys, constellation):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        search(h, ys, constellation)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_frames():
    """One 16-stream BPSK call on 200 frames stays far below K x F floats (105 MB)."""
    h, ys, constellation = _draw(16, 16, 2, 200, seed=5)
    peak = _traced_peak(sim._ml_detect_block, h, ys, constellation)
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("std", [3.0, 0.3])
def test_memory_stays_within_the_split_table(std):
    """Mostly large subgrids (std 3) or mostly small ones (std 0.3), 16-stream BPSK."""
    h, ys, constellation = _draw(16, 16, 2, 200, seed=5, std=std)
    for search in (split_table_ml_block, sim._ml_detect_block):
        search(h, ys, constellation)  # first calls may import modules lazily
    want = _traced_peak(split_table_ml_block, h, ys, constellation)
    got = _traced_peak(sim._ml_detect_block, h, ys, constellation)
    assert got <= want, f"peak {got / 2**10:.0f} KB > split table {want / 2**10:.0f} KB"
