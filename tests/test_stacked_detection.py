"""Property test of one detection pass over a detector's SNR stack.

A detector from ``build_detectors`` holds every SNR point of its draw,
and ``detect_block`` runs all of them in one pass over observations laid
out point after point.  The pass must equal one call per point on that
point's one-SNR detector (``build_detector``) and its own (m, f)
observations bit for bit: decisions and transformed decisions compared
as int64 views, so that -0 against +0 counts, and the clip counts too.
This pins the batched feedforward, (S, 1, l) @ (S, l, f) feedback and
Z^-1 products against the one-point ones.  All ten specs, 1 to 8 real
streams, orders 2, 4 and 8, 1 to 10 SNR points and 1 to 700 frames.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lramimo.equalize import ALL_SPECS, Workspace, build_detector, build_detectors, detect_block
from lramimo.model import MimoChannel, make_ask_constellation

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
    for det in build_detectors(ALL_SPECS, h, inv_snrs):
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
