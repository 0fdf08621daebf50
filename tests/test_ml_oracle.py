"""The split-table ML search against the full-distance-matrix reference.

``sim._ml_detect_block`` forms the distance of every candidate from two
half-grids.  The reference below is the direct search it replaced: it
builds every candidate, its image and the K x F distance matrix, and
scans candidates in chunks.  Both must return the same decisions,
including on exact ties, where the lexicographically smallest candidate
wins.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from lramimo import sim
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


def _draw(n, m, order, frames, seed):
    constellation = make_ask_constellation(order)
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(m, n))
    sent = rng.choice(constellation.points, size=(n, frames))
    ys = h @ sent + 0.6 * rng.normal(size=(m, frames))
    return h, ys, constellation


@pytest.mark.parametrize("n, m, order", CASES)
def test_matches_reference_on_gaussian_draws(n, m, order):
    for frames in _frame_counts(n, order):
        h, ys, constellation = _draw(n, m, order, frames, seed=1000 * n + 10 * m + order + frames)
        got = sim._ml_detect_block(h, ys, constellation)
        want = reference_ml_block(h, ys, constellation)
        assert got.shape == (n, frames)
        np.testing.assert_array_equal(got, want, err_msg=f"{frames} frames")


def _exact_first_minimum(h, ys, constellation):
    """Lexicographically first minimizer per frame, in exact integer arithmetic."""
    n = h.shape[1]
    cands2 = np.array(list(itertools.product(constellation.points, repeat=n))) * 2
    cands2 = cands2.astype(np.int64)
    ys2 = np.rint(2 * ys).astype(np.int64)
    images2 = cands2 @ h.astype(np.int64).T
    dist = ((ys2.T[:, None, :] - images2[None, :, :]) ** 2).sum(axis=2)
    return (cands2[dist.argmin(axis=1)] / 2).T


@pytest.mark.parametrize("n, m, order", [(1, 2, 4), (2, 2, 2), (3, 4, 4), (5, 5, 2), (8, 8, 2)])
def test_exact_ties_go_to_lexicographically_smallest(n, m, order):
    constellation = make_ask_constellation(order)
    rng = np.random.default_rng(7 * n + order)
    frames = _block(n, order) + 1
    h = rng.integers(-1, 2, size=(m, n)).astype(float)
    h[:, -1] = h[:, 0]  # twin columns: swapping their symbols never changes H s
    sent = rng.choice(constellation.points, size=(n, frames))
    ys = h @ sent + rng.integers(-1, 2, size=(m, frames)) / 2.0
    got = sim._ml_detect_block(h, ys, constellation)
    want = _exact_first_minimum(h, ys, constellation)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got, reference_ml_block(h, ys, constellation))
    if n > 1:
        # Swapping the twin symbols gives a tied candidate whenever they differ;
        # the winner is the one with the smaller first symbol.
        assert np.any(got[0] != got[-1])
        assert np.all(got[0] <= got[-1])


def test_memory_does_not_grow_with_frames():
    """One 16-stream BPSK call on 200 frames stays far below K x F floats (105 MB)."""
    h, ys, constellation = _draw(16, 16, 2, 200, seed=5)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        sim._ml_detect_block(h, ys, constellation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"
