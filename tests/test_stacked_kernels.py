"""Stacked kernel calls against one call per matrix.

``vblast_sorted_factorization`` and ``le_zf_matrix`` take a stack
(k, m, n) as well as one matrix; every slice of a stacked call must equal
the single-matrix call on that slice bit for bit.  Stacks hold 1 to 12
matrices of 1 to 16 real columns: the augmented matrices of one channel
at several noise levels, as detector construction builds them, or
unrelated matrices.  Real forms of complex channels have twin columns
that tie in the sorting metric, so the tie rule is exercised row-wise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lramimo.blast import FactorizationError, le_zf_matrix, vblast_sorted_factorization
from lramimo.model import augment, complex_matrix_to_real


@st.composite
def stacks(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 12))
    if draw(st.booleans()):
        nc = draw(st.integers(1, 8))
        mc = nc + draw(st.sampled_from((0, 1, nc)))

        def channel():
            return complex_matrix_to_real(rng.normal(size=(mc, nc)) + 1j * rng.normal(size=(mc, nc)))

    else:
        n = draw(st.integers(1, 16))
        m = n + draw(st.sampled_from((0, 1, 2, n)))

        def channel():
            return rng.normal(size=(m, n))

    if draw(st.booleans()):
        h = channel()
        return np.stack([augment(h, z) for z in 10.0 ** -rng.uniform(-3.0, 4.0, size=k)])
    return np.stack([channel() for _ in range(k)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(stack=stacks())
def test_stacked_sorted_factorization_equals_single_calls(stack):
    fs = vblast_sorted_factorization(stack)
    k, m, n = stack.shape
    assert fs.perm.shape == (k, n) and fs.feedforward.shape == (k, n, m) and fs.feedback.shape == (k, n, n)
    for i, matrix in enumerate(stack):
        one = vblast_sorted_factorization(matrix)
        np.testing.assert_array_equal(fs.perm[i], one.perm)
        np.testing.assert_array_equal(fs.feedforward[i], one.feedforward)
        np.testing.assert_array_equal(fs.feedback[i], one.feedback)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(stack=stacks())
def test_stacked_zf_matrix_equals_single_calls(stack):
    got = le_zf_matrix(stack)
    for i, matrix in enumerate(stack):
        np.testing.assert_array_equal(got[i], le_zf_matrix(matrix))


def test_one_rank_deficient_slice_fails_the_stacked_factorization():
    stack = np.random.default_rng(8).normal(size=(5, 6, 4))
    vblast_sorted_factorization(stack)
    stack[3, :, 2] = stack[3, :, 0] - stack[3, :, 1]
    with pytest.raises(FactorizationError):
        vblast_sorted_factorization(stack)


def test_leading_axes_are_kept():
    stack = np.random.default_rng(4).normal(size=(2, 3, 5, 4))
    flat = stack.reshape(6, 5, 4)
    fs, fs_flat = vblast_sorted_factorization(stack), vblast_sorted_factorization(flat)
    assert fs.perm.shape == (2, 3, 4) and fs.feedforward.shape == (2, 3, 4, 5)
    np.testing.assert_array_equal(fs.perm.reshape(6, 4), fs_flat.perm)
    np.testing.assert_array_equal(fs.feedforward.reshape(6, 4, 5), fs_flat.feedforward)
    np.testing.assert_array_equal(fs.feedback.reshape(6, 4, 4), fs_flat.feedback)
    np.testing.assert_array_equal(le_zf_matrix(stack).reshape(6, 4, 5), le_zf_matrix(flat))
