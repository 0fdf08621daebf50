"""The R-updating LLL against the QR-per-visit LLL it replaced.

``qr_per_visit_lll`` is the earlier implementation, kept here as an
oracle: it recomputes a full QR of the working basis on every loop visit.
The production routine factorizes once and updates R with one Givens
rotation per swap, so its R differs from a fresh QR in the last bits and
a near-tie in a size-reduction rounding or a Lovasz test can resolve the
other way.  Both outputs are then valid reductions; the test requires the
postconditions of every output, reports how often Z differs and fails if
it differs on more than 1% of draws (0.21% when the test was written), so
a drift of R away from the oracle's cannot pass as long as the outputs
stay reduced.
"""

import numpy as np

from lramimo.lattice import lll_reduce
from test_lattice import assert_reduced

DRAWS_PER_CELL = 1112  # 3 dimensions x 3 deltas x 1112 = 10 008 draws
MAX_MISMATCH_RATE = 0.01
DELTAS = (0.51, 0.75, 0.99)
REAL_DIMS = (4, 8, 16)


def qr_per_visit_lll(basis: np.ndarray, delta: float) -> list:
    """LLL with a fresh orthogonalization on every visit (earlier algorithm).

    Returns the unimodular Z as nested lists of ints.
    """
    c = np.asarray(basis, dtype=float).copy()
    n = c.shape[1]
    z = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    k = 1
    while k < n:
        # R is the upper triangle of the raw geqrf output, read without a
        # triu copy; the strict lower triangle holds Householder vectors, so
        # a size reduction updates only the rows of column k down to j.
        r = np.linalg.qr(c, mode="raw")[0].T
        for j in range(k - 1, -1, -1):
            mu = r[j, k] / r[j, j]
            if abs(mu) > 0.5:
                q = int(round(mu))
                c[:, k] -= q * c[:, j]
                r[: j + 1, k] -= q * r[: j + 1, j]
                zk = z[k]
                zj = z[j]
                for t in range(n):
                    zj[t] += q * zk[t]
        mu_adj = r[k - 1, k] / r[k - 1, k - 1]
        if r[k, k] ** 2 >= (delta - mu_adj**2) * r[k - 1, k - 1] ** 2:
            k += 1
        else:
            c[:, [k - 1, k]] = c[:, [k, k - 1]]
            z[k - 1], z[k] = z[k], z[k - 1]
            k = max(k - 1, 1)
    return z


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
                assert_reduced(h, rb, delta)
                differ += rb.unimodular.tolist() != qr_per_visit_lll(h, delta)
                draws += 1
            mismatches[(real_dim, delta)] = differ
    total = sum(mismatches.values())
    print(f"\nZ differs from the QR-per-visit oracle on {total} of {draws} draws", end="")
    print(f" ({total / draws:.2%})")
    for (real_dim, delta), differ in mismatches.items():
        print(f"  {real_dim:2d} real dims, delta {delta}: {differ} of {DRAWS_PER_CELL}")
    assert draws >= 10_000
    assert total / draws <= MAX_MISMATCH_RATE
