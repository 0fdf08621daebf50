"""Property-based tests of ``lll_reduce`` over dimension, shape and delta."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lramimo.checks import random_unimodular
from lramimo.lattice import lll_reduce
from test_lattice import assert_reduced


@st.composite
def bases(draw):
    """A full-rank m x n basis, n in 1..16, square or tall, optionally skewed.

    Entries are Gaussian with per-column scales spanning two decades; the
    skew multiplies by a random unimodular matrix, which makes the columns
    long and nearly dependent without changing the lattice.
    """
    n = draw(st.integers(1, 16))
    m = n + draw(st.sampled_from((0, 0, 1, 2, n)))
    seed = draw(st.integers(0, 2**32 - 1))
    skew_ops = draw(st.integers(0, 2 * n))
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-1.0, 1.0, size=n)
    if skew_ops:
        h = h @ random_unimodular(rng, n, n_ops=skew_ops, max_shear=1).astype(float)
    return h


deltas = st.floats(0.26, 1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(h=bases(), delta=deltas)
def test_postconditions(h, delta):
    rb = lll_reduce(h, delta)
    assert_reduced(h, rb, delta)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(h=bases(), delta=deltas)
def test_second_reduction_is_signed_permutation(h, delta):
    rb = lll_reduce(h, delta)
    again = lll_reduce(rb.reduced, delta)
    z = np.abs(np.array(again.unimodular.tolist()))
    assert (z.sum(axis=0) == 1).all() and (z.sum(axis=1) == 1).all(), z
    perm = z.argmax(axis=1)
    np.testing.assert_array_equal(np.abs(again.reduced), np.abs(rb.reduced[:, perm]))
