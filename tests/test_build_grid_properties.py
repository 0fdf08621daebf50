"""Property test of the per-draw detector grid against one build per cell.

``build_detectors(specs, matrix, inv_snrs)`` shares reductions, augmented
matrices and ZF detectors across specs and SNR points and factorizes each
spec's bases as one stack.  Every cell of the grid must equal the
one-spec, one-SNR ``build_detector`` bit for bit, at 1 to 4 complex
transmit antennas, at noiseless operation (inv_snr 0, +inf dB) and at
inv_snr from 1e-8 to 1e4, for any ordered subset of the specs.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_equalize import assert_same_detector

from lramimo.equalize import ALL_SPECS, build_detector, build_detectors
from lramimo.model import MimoChannel, complex_matrix_to_real

INV_SNRS = st.one_of(st.just(0.0), st.floats(-8.0, 4.0).map(lambda e: 10.0**e))


@st.composite
def draws(draw):
    """(H in real form, inv_snrs, an ordered subset of ALL_SPECS)."""
    n_tx = draw(st.integers(1, 4))
    n_rx = n_tx + draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = complex_matrix_to_real(rng.normal(size=(n_rx, n_tx)) + 1j * rng.normal(size=(n_rx, n_tx)))
    assume(np.linalg.cond(h) < 1e6)
    inv_snrs = draw(st.lists(INV_SNRS, min_size=1, max_size=6))
    specs = draw(st.permutations(ALL_SPECS))[: draw(st.integers(1, len(ALL_SPECS)))]
    return h, inv_snrs, specs


@settings(max_examples=80, deadline=None, derandomize=True)
@given(drawn=draws())
def test_every_cell_equals_its_own_build(drawn):
    h, inv_snrs, specs = drawn
    grid = build_detectors(specs, h, inv_snrs)
    assert len(grid) == len(inv_snrs)
    for row, zeta in zip(grid, inv_snrs):
        assert [det.spec for det in row] == list(specs)
        channel = MimoChannel(h, noise_var=zeta, symbol_var=1.0)
        for det, spec in zip(row, specs):
            assert_same_detector(det, build_detector(spec, channel))
