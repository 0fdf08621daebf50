"""The R-updating LLL against the QR-per-visit LLL it replaced.

``qr_per_visit_lll`` (in ``test_lattice``) is the earlier implementation,
kept as an oracle: it recomputes a full QR of the working basis on every
loop visit.  The production routine factorizes once and updates R with one
Givens rotation per swap, so its R differs from a fresh QR in the last
bits and a near-tie in a size-reduction rounding or a Lovasz test can
resolve the other way.  Both outputs are then valid reductions; the test
requires the postconditions of every output (on the oracle's reduced
basis where the two Z agree, on H Z^-1 where they differ), reports how
often Z differs and fails if it differs on more than 1% of draws (0.21%
when the test was written), so a drift of R away from the oracle's cannot
pass as long as the outputs stay reduced.
"""

import numpy as np

from lramimo.lattice import lll_reduce
from test_lattice import assert_reduced, qr_per_visit_lll

DRAWS_PER_CELL = 1112  # 3 dimensions x 3 deltas x 1112 = 10 008 draws
MAX_MISMATCH_RATE = 0.01
DELTAS = (0.51, 0.75, 0.99)
REAL_DIMS = (4, 8, 16)


def frozen_draws(real_dim: int, count: int, rng: np.random.Generator):
    """Channels as the simulator draws them, alternating the two reduction targets.

    Even draws are the real form of an iid complex Gaussian channel; odd
    draws stack it on sqrt(zeta) I for an SNR uniform in [0, 30] dB.
    """
    n = real_dim // 2
    for i in range(count):
        hc = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / np.sqrt(2.0)
        h = np.block([[hc.real, -hc.imag], [hc.imag, hc.real]])
        if i % 2:
            zeta = 10.0 ** (-rng.uniform(0.0, 30.0) / 10.0)
            h = np.vstack([h, np.sqrt(zeta) * np.eye(real_dim)])
        yield h


def test_postconditions_and_mismatch_rate_against_oracle():
    rng = np.random.default_rng(20101008)
    draws = 0
    mismatches = {}
    for real_dim in REAL_DIMS:
        for delta in DELTAS:
            differ = 0
            for h in frozen_draws(real_dim, DRAWS_PER_CELL, rng):
                rb = lll_reduce(h, delta)
                z, c = qr_per_visit_lll(h, delta)
                same = rb.unimodular.tolist() == z
                assert_reduced(h, rb, delta, c if same else h @ rb.unimodular_inv)
                differ += not same
                draws += 1
            mismatches[(real_dim, delta)] = differ
    total = sum(mismatches.values())
    print(f"\nZ differs from the QR-per-visit oracle on {total} of {draws} draws", end="")
    print(f" ({total / draws:.2%})")
    for (real_dim, delta), differ in mismatches.items():
        print(f"  {real_dim:2d} real dims, delta {delta}: {differ} of {DRAWS_PER_CELL}")
    assert draws >= 10_000
    assert total / draws <= MAX_MISMATCH_RATE
