"""Detection into reused buffers against fresh calls.

A simulation trial runs every detector, and the ML oracle, in one
``Workspace``.  Each result must equal the result of a call that makes its
own buffers, whatever ran in the workspace before it; a warm call must not
allocate frame-sized arrays; and the trial's noise draw into a buffer must
reproduce ``Generator.normal`` bit for bit, since every count rests on it.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lramimo import sim
from lramimo.equalize import ALL_SPECS, Workspace, build_detector, detect_block
from lramimo.model import make_ask_constellation
from test_ml_oracle import uninformed_ml_block

# (complex antennas, order): the detect-long shape and a wider BPSK one.
CHANNELS = [(2, 4), (4, 2)]
FRAME_COUNTS = (300, 7, 1, 1000, 64)


def _channel(n, order, seed, snr_db=8.0):
    """A drawn n x n channel at ``snr_db``, its constellation and the stream that drew it."""
    constellation = make_ask_constellation(order)
    rng = sim.trial_rng(seed, 0)
    sv = constellation.variance
    noise_var = sv * n / 10.0 ** (snr_db / 10.0)
    channel = replace(sim.draw_channel(rng, n, n), noise_var=noise_var, symbol_var=sv)
    return channel, constellation, rng


def _observations(channel, constellation, rng, frames):
    n_rx, n_tx = channel.matrix.shape
    sent = rng.choice(constellation.points, size=(n_tx, frames))
    noise = rng.normal(0.0, np.sqrt(channel.noise_var), size=(n_rx, frames))
    return channel.matrix @ sent + noise


def test_shared_workspace_equals_fresh_calls():
    """One workspace across specs, channel sizes and frame counts, oracle included."""
    ws = Workspace()
    clipped_total = 0
    for seed, (n, order) in enumerate(CHANNELS):
        channel, constellation, rng = _channel(n, order, seed)
        detectors = [build_detector(spec, channel) for spec in ALL_SPECS]
        for k, det in enumerate(detectors * 2):
            ys = _observations(channel, constellation, rng, FRAME_COUNTS[k % len(FRAME_COUNTS)])
            want = detect_block(det, ys, constellation)
            got = detect_block(det, ys, constellation, ws)
            where = f"{det.spec.spec_id} on {ys.shape}"
            assert np.array_equal(got[0], want[0]), where
            assert (got[1] is None) == (want[1] is None), where
            if want[1] is not None:
                assert np.array_equal(got[1], want[1]), where
            assert got[2] == want[2], where
            clipped_total += sum(got[2])
        for frames in (1, 255, 257, 600):
            ys = _observations(channel, constellation, rng, frames)
            want = uninformed_ml_block(channel.matrix, ys, constellation)
            got = uninformed_ml_block(channel.matrix, ys, constellation, ws)
            assert np.array_equal(got, want), f"ML on {ys.shape}"
    assert clipped_total > 0, "no call exercised the clip count"


def _retained_by_workspace(calls, ys):
    """Bytes a workspace still holds after the oracle ``calls`` (channel, alphabet)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ws = Workspace()
        for h, constellation in calls:
            uninformed_ml_block(h, ys, constellation, ws)
        return tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def test_ml_setup_is_rebuilt_in_the_workspace_storage():
    """One workspace alternates H, H with one entry moved by one ulp, and H at
    another order (8 real streams, orders 4 and 2).  Every call builds the
    table T of its own channel and order, so it equals a fresh call, and every
    table is built into one storage (512 KB at order 4), not one per channel.
    T is read from the workspace's ``ml_table`` storage after each call."""
    channel, order4, rng = _channel(4, 4, seed=8)
    order2 = make_ask_constellation(2)
    h = channel.matrix
    h_ulp = h.copy()
    h_ulp[1, 2] = np.nextafter(h_ulp[1, 2], np.inf)
    ys = _observations(channel, order4, rng, 300)
    calls = [(h, order4), (h_ulp, order4), (h, order2), (h, order4), (h, order4), (h_ulp, order4), (h_ulp, order2)]
    tables, storage = {}, set()
    ws = Workspace()
    for k, (hk, constellation) in enumerate(calls):
        shape = (constellation.order**4,) * 2
        got = uninformed_ml_block(hk, ys, constellation, ws)
        table = ws.take("ml_table", shape)
        fresh_ws = Workspace()
        assert np.array_equal(got, uninformed_ml_block(hk, ys, constellation, fresh_ws)), f"call {k}"
        fresh = fresh_ws.take("ml_table", shape)
        assert np.array_equal(table.view(np.uint64), fresh.view(np.uint64)), f"call {k}"
        tables[hk is h, constellation.order] = fresh
        storage.add(table.ctypes.data)
    # The ulp moves the table, so a setup carried over between the two would be seen above.
    assert not np.array_equal(tables[True, 4], tables[False, 4])
    assert len(storage) == 1, "every table is built into the workspace's one storage"
    alone = _retained_by_workspace(calls[:1], ys)
    alternating = _retained_by_workspace(calls, ys)
    assert alternating < alone + 64 * 2**10, f"{alternating} B against {alone} B for one channel"


def test_result_is_overwritten_by_the_next_call():
    """The aliasing rule: a workspace result lives until the workspace is used again."""
    channel, constellation, rng = _channel(2, 4, seed=3)
    det = build_detector(ALL_SPECS[0], channel)
    ws = Workspace()
    first = detect_block(det, _observations(channel, constellation, rng, 50), constellation, ws)[0]
    kept = first.copy()
    second = detect_block(det, _observations(channel, constellation, rng, 50), constellation, ws)[0]
    assert np.shares_memory(first, second)
    assert not np.array_equal(first, kept)


def test_arrays_start_on_a_cache_line_and_keep_their_storage():
    """A name keeps its storage while the dtype matches and it is large enough, and gets fresh storage otherwise."""
    ws = Workspace()
    for shape, dtype in [((4, 1001), float), ((3, 7), bool), ((5,), np.intp), ((0, 3), float)]:
        arr = ws.take("x", shape, dtype)
        assert arr.shape == shape and arr.dtype == dtype and arr.flags.c_contiguous
        if arr.size:
            assert arr.ctypes.data % Workspace.ALIGN == 0
    first = ws.take("x", (4, 1001))
    assert np.shares_memory(ws.take("x", (4, 1001)), first)
    retyped = ws.take("x", (4, 1001), np.int64)
    assert not np.shares_memory(retyped, first)
    floats = ws.take("x", (4, 1000))
    assert not np.shares_memory(floats, retyped)
    # A smaller block (a trial's last frame slice) is a contiguous view of the same storage.
    shorter = ws.take("x", (4, 999))
    assert shorter.flags.c_contiguous and shorter.ctypes.data == floats.ctypes.data
    assert not np.shares_memory(ws.take("x", (4, 1001)), floats)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.spec_id)
def test_warm_call_allocates_less_than_one_frame_array(spec):
    """On (4, 40 000) observations a warm call peaks below one such float64 array."""
    channel, constellation, rng = _channel(2, 4, seed=5, snr_db=18.0)
    ys = _observations(channel, constellation, rng, 40_000)
    det = build_detector(spec, channel)
    ws = Workspace()
    detect_block(det, ys, constellation, ws)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        detect_block(det, ys, constellation, ws)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < ys.nbytes, f"{spec.spec_id}: peak {peak} B"


@pytest.mark.parametrize("noise_var", [1e-4, 0.05, 1.0, 7.3])
def test_noise_drawn_into_a_buffer_equals_normal(noise_var):
    """standard_normal(out=) scaled by sigma is Generator.normal(0, sigma), same stream use.

    normal computes 0.0 + sigma * g, which differs from sigma * g only when g
    is an exact zero: -0.0 there against +0.0.  No draw below is zero.
    """
    sigma = np.sqrt(noise_var)
    shape = (4, 40_000)
    ours, theirs = sim.trial_rng(11, 2), sim.trial_rng(11, 2)
    for _ in range(2):
        assert np.array_equal(ours.integers(0, 4, size=(4, 9)), theirs.integers(0, 4, size=(4, 9)))
        buf = np.empty(shape)
        ours.standard_normal(out=buf)
        buf *= sigma
        ref = theirs.normal(0.0, sigma, size=shape)
        assert np.array_equal(buf.view(np.int64), ref.view(np.int64))
    assert ours.integers(0, 2**62) == theirs.integers(0, 2**62)


@pytest.mark.parametrize("order", [2, 4, 6, 10, 16])
def test_indices_drawn_in_pieces_equal_one_draw(order):
    """Symbol indices drawn a piece at a time, in C order, take the stream of one draw.

    A trial draws its symbol block sim._SLICE_ENTRIES indices at a time into
    an array of the smallest unsigned dtype that holds them, then its noise
    block; its counts rest on both equalling one whole-block draw.  The
    block has an odd frame count and spans two sim._SLICE_ENTRIES pieces,
    the second short.
    """
    shape = (4, sim._SLICE_ENTRIES // 4 + 7)
    dtype = np.min_scalar_type(order - 1)
    for piece in (1, 3, 4096, sim._SLICE_ENTRIES, math.prod(shape)):
        ours, theirs = sim.trial_rng(13, order), sim.trial_rng(13, order)
        flat = np.empty(math.prod(shape), dtype=dtype)
        for a in range(0, flat.size, piece):
            flat[a : a + piece] = ours.integers(0, order, size=len(flat[a : a + piece]))
        assert np.array_equal(flat.reshape(shape), theirs.integers(0, order, size=shape)), piece
        noise = ours.standard_normal(shape)
        assert np.array_equal(noise.view(np.int64), theirs.standard_normal(shape).view(np.int64)), piece


def _traced_peak(config):
    """Bytes that ``run_monte_carlo(config)`` holds at its traced peak."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sim.run_monte_carlo(config)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_a_trial_holds_one_byte_per_symbol_beside_its_noise():
    """The traced peak grows by at most 8 (2 n_rx) + 2 n_tx + 4 bytes per frame.

    That is a float64 noise entry per receive row and a one-byte symbol
    index per transmit stream, plus slack; a float64 symbol block would add
    8 bytes per stream.  Both frame counts take several 8192-frame slices,
    so the slice-sized buffers are equal and only frame-length arrays differ.
    """
    config = sim.SimConfig(n_tx=2, n_rx=2, order=4, snr_db=(12.0,), trials=1, frames_per_channel=20_000,
                           seed=5, specs=ALL_SPECS[1:2])
    peaks = [_traced_peak(config), _traced_peak(replace(config, frames_per_channel=60_000))]
    per_frame = (peaks[1] - peaks[0]) / 40_000
    assert per_frame <= 8 * 2 * config.n_rx + 2 * config.n_tx + 4, f"{per_frame:.1f} B per frame ({peaks} B)"
