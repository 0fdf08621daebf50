"""The single-QR sorted factorization against the per-step pseudo-inverse oracle.

Inputs run from 1 to 16 real dimensions, square and tall, at zeta in
{0, 1e-3, 1e3}, in three kinds: real forms of complex channels (whose twin
columns tie exactly in the sorting metric), LLL-reduced bases, and
matrices with prescribed singular spectra up to condition number 1e7.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lramimo.blast import vblast_sorted_factorization
from lramimo.checks import FB_TOL, FF_TOL, _rel, sorted_factorization_oracle
from lramimo.lattice import lll_reduce
from lramimo.model import augment, complex_matrix_to_real
from test_lattice import reduced_basis


@st.composite
def bases(draw):
    """A full-rank matrix; zeta = 0 leaves it as drawn, else it is augmented."""
    kind = draw(st.sampled_from(("complex", "reduced", "spectrum")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeta = draw(st.sampled_from((0.0, 1e-3, 1e3)))

    def regularized(h):
        return h if zeta == 0.0 else augment(h, zeta)

    if kind == "complex":
        n = draw(st.integers(1, 8))
        m = n + draw(st.sampled_from((0, 0, 1, n)))
        return regularized(complex_matrix_to_real(rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))))
    n = draw(st.integers(1, 16))
    m = n + draw(st.sampled_from((0, 0, 1, 2, n)))
    if kind == "reduced":
        b = regularized(rng.normal(size=(m, n)))
        return reduced_basis(b, lll_reduce(b).unimodular)
    u, _ = np.linalg.qr(rng.normal(size=(m, n)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)))
    spectrum = np.logspace(0.0, -rng.uniform(0.0, 7.0), n)
    return regularized((u * spectrum) @ v)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrix=bases())
def test_kernel_matches_per_step_oracle(matrix):
    fs = vblast_sorted_factorization(matrix)
    ref = sorted_factorization_oracle(matrix)
    np.testing.assert_array_equal(fs.perm, ref.perm)
    assert _rel(fs.feedforward, ref.feedforward) <= FF_TOL
    assert _rel(fs.feedback, ref.feedback) <= FB_TOL


def test_complex_twin_tie_goes_to_lower_index():
    # Real form of a 2x2 complex channel: columns j and j + 2 have equal
    # sorting metrics in exact arithmetic.  Here the best pair is (1, 3),
    # and rounding makes column 3's computed metric the smaller one.
    hc = np.array([[-0.8 + 0.2j, 0.1 + 2.6j], [-0.1 + 1.5j, 0.5 + 1.5j]])
    h = complex_matrix_to_real(hc)
    metric = np.diag(np.linalg.inv(h.T @ h))
    assert np.argmin(metric) == 3 and np.isclose(metric[1], metric[3], rtol=1e-14)
    for fs in (vblast_sorted_factorization(h), sorted_factorization_oracle(h)):
        np.testing.assert_array_equal(fs.perm, [1, 3, 0, 2])
