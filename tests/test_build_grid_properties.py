"""Property test of the per-draw detectors against one build per (spec, SNR) cell.

``build_detectors(specs, matrix, inv_snrs)`` shares reductions, augmented
matrices and ZF detectors across specs and SNR points and factorizes each
spec's bases as one stack, giving one detector per spec that holds every
SNR point.  Each point of a detector, as the one-point detector its
slice gives, must equal the one-spec, one-SNR ``build_detector`` bit for
bit, at 1 to 4 complex transmit antennas, at noiseless operation
(inv_snr 0, +inf dB) and at inv_snr from 1e-8 to 1e4, for any ordered
subset of the specs.  A stack of draws (draws, m, n) builds each draw's
detectors in the same calls, and they must equal the call on a stack of
that draw alone bit for bit.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_equalize import assert_same_detector

from lramimo.equalize import ALL_SPECS, build_detector, build_detectors
from lramimo.model import MimoChannel, complex_matrix_to_real
from lramimo.sim import _REDRAW_CAUSES

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
    detectors = build_detectors(specs, h[None], inv_snrs)[0]
    assert [det.spec for det in detectors] == list(specs)
    for j, zeta in enumerate(inv_snrs):
        channel = MimoChannel(h, noise_var=zeta, symbol_var=1.0)
        for det, spec in zip(detectors, specs):
            assert len(det.feedforward) == len(det.z_offset) == len(inv_snrs)
            assert_same_detector(det[j : j + 1], build_detector(spec, channel))


@st.composite
def draw_stacks(draws_):
    """(a stack of 1 to 20 draws with 1 to 8 real streams, 1 to 10 inv_snrs).

    Draws are real forms of complex channels (twin columns that tie in the
    sorting metric) or real Gaussian matrices; both may be ill conditioned.
    """
    rng = np.random.default_rng(draws_(st.integers(0, 2**32 - 1)))
    k = draws_(st.integers(1, 20))
    if draws_(st.booleans()):
        n_tx = draws_(st.integers(1, 4))
        n_rx = n_tx + draws_(st.integers(0, 2))
        shape = (k, n_rx, n_tx)
        stack = np.stack([complex_matrix_to_real(h) for h in rng.normal(size=shape) + 1j * rng.normal(size=shape)])
    else:
        n = draws_(st.integers(1, 8))
        stack = rng.normal(size=(k, n + draws_(st.integers(0, 3)), n))
    return stack, draws_(st.lists(INV_SNRS, min_size=1, max_size=10))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(drawn=draw_stacks())
def test_a_stack_of_draws_equals_one_call_per_draw(drawn):
    stack, inv_snrs = drawn
    alone = []
    for h in stack:
        try:
            alone.append(build_detectors(ALL_SPECS, h[None], inv_snrs)[0])
        except _REDRAW_CAUSES:
            alone.append(None)
    if None in alone:  # one failing draw fails the whole stacked call
        with pytest.raises(_REDRAW_CAUSES):
            build_detectors(ALL_SPECS, stack, inv_snrs)
        return
    built = build_detectors(ALL_SPECS, stack, inv_snrs)
    assert len(built) == len(stack)
    for detectors, want in zip(built, alone):
        assert len(detectors) == len(ALL_SPECS)
        for det, one in zip(detectors, want):
            assert len(det.feedforward) == len(inv_snrs)
            if _fields(det) != _fields(one):
                assert_same_detector(det, one)  # names the field that differs
                raise AssertionError(det.spec.spec_id)


def _fields(det):
    """Spec, then shape, dtype and bytes of each array field, Z^-1 included."""
    arrays = [det.feedforward, det.z_offset, det.feedback, det.perm, det.unimodular_inv]
    return [det.spec] + [None if a is None else (a.shape, a.dtype, a.tobytes()) for a in arrays]
