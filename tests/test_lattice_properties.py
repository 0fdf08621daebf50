"""Property-based tests of ``lll_reduce`` over dimension, shape, SNR and delta."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lramimo.checks import random_unimodular
from lramimo.lattice import lll_reduce, unimodular_inverse
from lramimo.model import MimoChannel, RankDeficientError, augment
from test_lattice import assert_reduced, reduced_basis, stacked_draws


@st.composite
def bases(draw):
    """A full-rank basis, n in 1..16 columns: an m x n H or an augmented [H; sqrt(zeta) I].

    H is square or tall, with Gaussian entries whose per-column scales
    span two decades, optionally skewed by a random unimodular matrix,
    which makes the columns long and nearly dependent without changing
    the lattice.  The augmented kind stacks sqrt(zeta) I under H with
    zeta = 1/SNR log-uniform in [1e-12, 1e8], as the MMSE detectors
    reduce it at extreme SNRs.
    """
    n = draw(st.integers(1, 16))
    m = n + draw(st.sampled_from((0, 0, 1, 2, n)))
    seed = draw(st.integers(0, 2**32 - 1))
    skew_ops = draw(st.integers(0, 2 * n))
    log_zeta = draw(st.none() | st.floats(-12.0, 8.0))
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-1.0, 1.0, size=n)
    if skew_ops:
        h = h @ random_unimodular(rng, n, n_ops=skew_ops, max_shear=1).astype(float)
    return h if log_zeta is None else augment(h, 10.0**log_zeta)


deltas = st.floats(0.26, 1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(h=bases(), delta=deltas)
def test_postconditions(h, delta):
    rb = lll_reduce(h, delta)
    assert_reduced(h, rb, delta)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(h=bases(), delta=deltas)
def test_second_reduction_is_signed_permutation(h, delta):
    c = reduced_basis(h, lll_reduce(h, delta).unimodular, delta)
    again = lll_reduce(c, delta)
    z = np.abs(np.array(again.unimodular.tolist()))
    assert (z.sum(axis=0) == 1).all() and (z.sum(axis=1) == 1).all(), z
    perm = z.argmax(axis=1)
    np.testing.assert_array_equal(np.abs(reduced_basis(c, again.unimodular, delta)), np.abs(c[:, perm]))


def assert_exact_inverses(rb):
    """Each slice's Z^-1 is the exact inverse of its Z, as ``unimodular_inverse`` finds it."""
    n = rb.unimodular.shape[-1]
    assert rb.unimodular_inv.dtype == np.int64
    for z, zinv in zip(rb.unimodular.reshape(-1, n, n), rb.unimodular_inv.reshape(-1, n, n)):
        assert zinv.tolist() == unimodular_inverse(z).tolist(), z


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_the_inverse_after_the_loop_is_exact(n, seed):
    rng = np.random.default_rng(1000 * n + seed)
    skew = random_unimodular(rng, n, n_ops=2 * n, max_shear=1).astype(float)
    h = rng.normal(size=(3, n, n)) @ skew
    for basis in (h[0], augment(h[0], 10.0 ** -rng.uniform(0, 3)), h, stacked_draws((2, 3, 2 * n, n), seed)):
        assert_exact_inverses(lll_reduce(basis))


def test_the_inverse_after_the_loop_is_exact_on_an_a9_chunk():
    """A9's construction shape: 8 draws of [H; sqrt(zeta) I] at 10 SNRs, 4x4 complex."""
    assert_exact_inverses(lll_reduce(stacked_draws((8, 10, 16, 8), seed=9)))


def near_dependent(n, rows, k, seed):
    """Gaussian rows x n matrix whose column j is column i plus 10^-k times a Gaussian column.

    The smallest singular value falls as about 10^-k, across the rank
    tolerance of 1e-10 max(rows, n) relative to the largest.
    """
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(rows, n))
    i, j = rng.choice(n, 2, replace=False)
    h[:, j] = h[:, i] + 10.0**-k * h[:, j]
    return h


def verdict(build):
    """The class of the error ``build()`` raises, or None."""
    try:
        build()
    except ValueError as exc:
        return type(exc)
    return None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 8),
    extra=st.sampled_from((-1, 0, 0, 1, 2)),
    k=st.integers(4, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_channel_and_reduction_reject_the_same_matrices(n, extra, k, seed):
    """One rule for shape and rank: the channel accepts exactly the bases LLL accepts."""
    h = near_dependent(n, n + extra, k, seed)
    expected = verdict(lambda: MimoChannel(h, noise_var=1.0, symbol_var=1.0))
    assert verdict(lambda: lll_reduce(h)) is expected


def test_dependence_sweep_crosses_the_rank_threshold():
    """The k range above holds accepted and rejected matrices alike."""
    verdicts = {verdict(lambda: lll_reduce(near_dependent(4, 4, k, seed=0))) for k in range(4, 17)}
    assert verdicts == {None, RankDeficientError}
