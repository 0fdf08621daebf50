"""Property tests of one detection pass over a detector's SNR stack.

A detector from ``build_detectors`` holds every SNR point of its draw,
and ``detect_block`` runs all of them in one pass over observations laid
out point after point.  The pass must equal one call per point on that
point's one-SNR detector (``build_detector``) and its own (m, f)
observations bit for bit: decisions and transformed decisions compared
as int64 views, so that -0 against +0 counts, and the clip counts too.
Both sides of that comparison run the same code, so the pass is also
checked against an independent reference: a per-frame
successive-cancellation loop written from the detector's public fields
alone.  All ten specs, 1 to 8 real streams, orders 2, 4 and 8, 1 to 10
SNR points and 1 to 700 frames.  The first DFE feedback row is one
multiply, and a last test pins its values to those of the (S, 1, 1) by
(S, 1, f) matmul that the other rows use.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lramimo.equalize import ALL_SPECS, Structure, Workspace, build_detector, build_detectors, detect_block
from lramimo.model import ALPHABET_OFFSET, MimoChannel, make_ask_constellation

INV_SNRS = st.one_of(st.just(0.0), st.floats(-4.0, 1.0).map(lambda e: 10.0**e))


@st.composite
def stacks(draw):
    """(H, inv_snrs, constellation, (m, S f) observations) with frames 1 to 700."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    h = rng.normal(size=(n + draw(st.integers(0, 3)), n))
    assume(np.linalg.cond(h) < 1e6)
    constellation = make_ask_constellation(draw(st.sampled_from((2, 4, 8))))
    inv_snrs = draw(st.lists(INV_SNRS, min_size=1, max_size=10))
    frames = draw(st.one_of(st.just(1), st.integers(1, 700)))
    sent = rng.choice(constellation.points, size=(n, frames))
    # Every point observes the same symbols under its own noise level, and
    # a few frames far outside the alphabet, so that reduced specs clip.
    noise = rng.normal(size=(len(inv_snrs), h.shape[0], frames)) * np.sqrt(inv_snrs)[:, None, None]
    ys = h @ sent + noise
    ys[:, :, ::7] *= 3.0
    return h, inv_snrs, constellation, np.concatenate(list(ys), axis=1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(drawn=stacks())
def test_one_pass_equals_one_call_per_point(drawn):
    h, inv_snrs, constellation, ys = drawn
    frames = ys.shape[1] // len(inv_snrs)
    ws = Workspace()
    for det in build_detectors(ALL_SPECS, h[None], inv_snrs)[0]:
        a_hat, z_hat, clipped = detect_block(det, ys, constellation, ws)
        a_hat, z_hat = a_hat.copy(), None if z_hat is None else z_hat.copy()
        assert a_hat.shape == (h.shape[1], ys.shape[1])
        assert isinstance(clipped, list) and len(clipped) == len(inv_snrs), det.spec.spec_id
        assert all(isinstance(c, int) for c in clipped), det.spec.spec_id
        for s, zeta in enumerate(inv_snrs):
            one = build_detector(det.spec, MimoChannel(h, noise_var=zeta, symbol_var=1.0))
            point = slice(s * frames, (s + 1) * frames)
            want = detect_block(one, np.ascontiguousarray(ys[:, point]), constellation)
            where = f"{det.spec.spec_id} at point {s} of {len(inv_snrs)}, {frames} frames"
            np.testing.assert_array_equal(a_hat[:, point].view(np.int64), want[0].view(np.int64), err_msg=where)
            assert (z_hat is None) == (want[1] is None), where
            if z_hat is not None:
                np.testing.assert_array_equal(z_hat[:, point].view(np.int64), want[1].view(np.int64), err_msg=where)
            assert [clipped[s]] == want[2], where


def reference_detect(det, ys, constellation):
    """(decisions, transformed decisions or None, clip counts), one frame at a time.

    Reads only the detector's public fields.  Row l of the filtered frame
    is the l-th stream in detection order (stream ``perm[s, l]``, or l for
    a linear detector): the decisions of rows 0 to l - 1 are cancelled
    from it through ``feedback[s, l, :l]``, and it is rounded onto the
    translate z_offset + integers, then clipped to the alphabet's range
    unless the detector reduces.  With reduction the decisions are mapped
    back through Z^-1, and those outside the alphabet are counted and
    clipped.
    """
    n_snrs, n, _ = det.feedforward.shape
    frames = ys.shape[1] // n_snrs
    limit = constellation.amplitude_limit
    decisions, transformed, clipped = np.empty((n, ys.shape[1])), np.empty((n, ys.shape[1])), [0] * n_snrs
    for s in range(n_snrs):
        order = np.arange(n) if det.perm is None else det.perm[s]
        for col in range(s * frames, (s + 1) * frames):
            soft = det.feedforward[s] @ ys[:, col]
            z = np.empty(n)
            for l in range(n):
                if det.feedback is not None:
                    soft[l] -= det.feedback[s, l, :l] @ z[order[:l]]
                offset = det.z_offset[s, order[l]]
                z[order[l]] = np.rint(soft[l] - offset) + offset
                if det.unimodular_inv is None:
                    z[order[l]] = min(max(z[order[l]], -limit), limit)
            transformed[:, col] = z
            if det.unimodular_inv is None:
                decisions[:, col] = z
                continue
            a = np.rint(det.unimodular_inv[s] @ z - ALPHABET_OFFSET) + ALPHABET_OFFSET
            clipped[s] += int(np.count_nonzero(np.abs(a) > limit))
            decisions[:, col] = np.clip(a, -limit, limit)
    return decisions, None if det.unimodular_inv is None else transformed, clipped


@settings(max_examples=40, deadline=None, derandomize=True)
@given(drawn=stacks())
def test_pass_equals_a_per_frame_reference(drawn):
    h, inv_snrs, constellation, ys = drawn
    ws = Workspace()
    for det in build_detectors(ALL_SPECS, h[None], inv_snrs)[0]:
        a_hat, z_hat, clipped = detect_block(det, ys, constellation, ws)
        want = reference_detect(det, ys, constellation)
        where = f"{det.spec.spec_id} at {len(inv_snrs)} points, {ys.shape[1] // len(inv_snrs)} frames"
        np.testing.assert_array_equal(a_hat, want[0], err_msg=where)
        assert (z_hat is None) == (want[1] is None), where
        if z_hat is not None:
            np.testing.assert_array_equal(z_hat, want[1], err_msg=where)
        assert clipped == want[2], where


DFE_SPECS = [spec for spec in ALL_SPECS if spec.structure is Structure.DFE]


@pytest.mark.parametrize("n_snrs", [1, 3])
@pytest.mark.parametrize("spec", DFE_SPECS, ids=lambda spec: spec.spec_id)
def test_first_feedback_row_multiply_equals_its_matmul(spec, n_snrs):
    # Row l = 1 cancels one term.  A one-term product is rounded once, so
    # the multiply gives the matmul's values; only the sign of a zero
    # product may differ, which == does not see.
    rng = np.random.default_rng(sum(map(ord, spec.spec_id)) + n_snrs)
    inv_snrs = list(10.0 ** rng.uniform(-4.0, 0.0, size=n_snrs))
    for n in (2, 4, 8):
        det = build_detectors([spec], rng.normal(size=(1, n, n)), inv_snrs)[0][0]
        for frames in (1, 37, 8192):
            rows = rng.normal(size=(n_snrs, n, frames)) * rng.uniform(0.1, 10.0)
            rows[:, :, ::5] = np.rint(rows[:, :, ::5]) + ALPHABET_OFFSET
            rows[:, :, ::11] = 0.0
            product = np.multiply(det.feedback[:, 1, :1], rows[:, 0])
            want = np.matmul(det.feedback[:, 1:2, :1], rows[:, :1])[:, 0]
            assert (product == want).all(), f"{spec.spec_id}, n {n}, {n_snrs} points, {frames} frames"
