"""Property-based tests of ``build_detector`` and detection over every spec.

Dimensions run from 2 to 16 real streams, square and tall, at a zero, a
vanishing and a large noise-to-signal ratio.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lramimo.equalize import ALL_SPECS, Structure, build_detector, detect_block
from lramimo.model import MimoChannel, make_ask_constellation


@st.composite
def channels(draw):
    """A Gaussian m x n channel, n in 2..16, with inv_snr in {0, 1e-12, 1e3}."""
    n = draw(st.integers(2, 16))
    m = n + draw(st.sampled_from((0, 0, 1, 2, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = rng.normal(size=(m, n))
    assume(np.linalg.cond(h) < 1e6)
    zeta = draw(st.sampled_from((0.0, 1e-12, 1e3)))
    order = draw(st.sampled_from((2, 4)))
    symbol_var = make_ask_constellation(order).variance
    return MimoChannel(h, noise_var=zeta * symbol_var, symbol_var=symbol_var), order, rng


@settings(max_examples=60, deadline=None, derandomize=True)
@given(drawn=channels())
def test_normal_form_and_noiseless_recovery(drawn):
    channel, order, rng = drawn
    constellation = make_ask_constellation(order)
    m, n = channel.matrix.shape
    sent = rng.choice(constellation.points, size=(n, 6))
    received = channel.matrix @ sent
    for spec in ALL_SPECS:
        det = build_detector(spec, channel)
        assert det.feedforward.shape == (1, n, m), spec.spec_id
        assert (det.unimodular_inv is None) == (spec.reduction_target is None), spec.spec_id
        if spec.structure is Structure.DFE:
            b = det.feedback[0]
            np.testing.assert_array_equal(b, np.tril(b), err_msg=spec.spec_id)
            np.testing.assert_array_equal(np.diag(b), np.ones(n), err_msg=spec.spec_id)
            np.testing.assert_array_equal(np.sort(det.perm[0]), np.arange(n), err_msg=spec.spec_id)
        else:
            assert det.feedback is None and det.perm is None, spec.spec_id
        if channel.noise_var == 0.0:
            a_hat, _, clipped = detect_block(det, received, constellation)
            np.testing.assert_array_equal(a_hat, sent, err_msg=spec.spec_id)
            assert clipped == [0], spec.spec_id
