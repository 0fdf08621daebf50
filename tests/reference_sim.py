"""An independent reference for a sweep's counts, from the textbook definitions.

``reference_counts(config)`` rebuilds the count array of a sweep, symbol
errors, vector errors and clipped decisions per (decider, SNR) cell, and
shares no kernel with the program.  It draws each trial's stream itself
(the channel, then the symbol indices, then the unit noise) and forms the
real channel itself.  Each spec at each SNR point is built alone: Z from
the QR-per-visit LLL of ``test_lattice`` (of H for ``-orig``, of
[H; sqrt(zeta) I] for ``-aug``), Z^-1 from ``lattice.unimodular_inverse``,
LE filters from ``np.linalg.pinv`` and DFE filters from the per-step
oracle ``checks.sorted_factorization_oracle``, then a per-row cancellation
loop.  Decisions are sliced onto Z (1/2) 1 + Z^n, mapped back through
Z^-1, counted where they leave the alphabet and clipped; a detector
without reduction clips as it slices.  The ML decision is an exhaustive
argmin over all M^n candidates, ties to the lexicographically first.
Every trial must use its first channel draw: the reference cannot follow
a redraw.
"""

import itertools

import numpy as np
from test_lattice import qr_per_visit_lll

from lramimo.checks import sorted_factorization_oracle
from lramimo.equalize import Criterion, ReductionTarget, Structure
from lramimo.lattice import unimodular_inverse

OFFSET = 0.5  # the alphabet is the integers shifted by one half
DELTA = 0.75  # the Lovasz parameter


def reference_counts(config) -> np.ndarray:
    """(3, deciders, SNRs) int64: symbol errors, vector errors and clips, the ML oracle last."""
    points = np.arange(config.order) - (config.order - 1) / 2
    symbol_var = np.mean(points**2)
    n, m, frames = 2 * config.n_tx, 2 * config.n_rx, config.frames_per_channel
    counts = np.zeros((3, len(config.specs) + config.oracle, len(config.snr_db)), dtype=np.int64)
    # Columns in lexicographic order: points ascending, first component most significant.
    candidates = np.array(list(itertools.product(points, repeat=n))).T if config.oracle else None
    for trial in range(config.trials):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((config.seed, trial))))
        shape = (config.n_rx, config.n_tx)
        hc = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2.0)
        h = np.block([[hc.real, -hc.imag], [hc.imag, hc.real]])
        assert np.linalg.matrix_rank(h) == n, f"trial {trial} would redraw its channel"
        sent = points[rng.integers(0, config.order, size=(n, frames))]
        noise = rng.standard_normal(size=(m, frames))
        for j, snr in enumerate(config.snr_db):
            noise_var = symbol_var * config.n_tx / 10.0 ** (snr / 10.0)
            y = h @ sent + np.sqrt(noise_var) * noise
            decided = [detect(spec, h, noise_var / symbol_var, y, points[-1]) for spec in config.specs]
            if config.oracle:
                distances = ((y[:, None, :] - (h @ candidates)[:, :, None]) ** 2).sum(axis=0)
                decided.append((candidates[:, distances.argmin(axis=0)], 0))
            for i, (a_hat, clipped) in enumerate(decided):
                wrong = a_hat != sent
                counts[:, i, j] += wrong.sum(), wrong.any(axis=0).sum(), clipped
    return counts


def detect(spec, h, zeta, y, limit):
    """(decisions, clip count) of ``spec`` on the observations ``y`` (m, frames)."""
    m, n = h.shape
    basis = np.vstack([h, np.sqrt(zeta) * np.eye(n)]) if spec.criterion is Criterion.MMSE else h
    reduced = spec.reduction_target is not None
    if reduced:
        target = h if spec.reduction_target is ReductionTarget.ORIGINAL else basis
        z = np.array(qr_per_visit_lll(target, DELTA)[0], dtype=float)
        z_inv = unimodular_inverse(z).astype(float)
    else:
        z = z_inv = np.eye(n)
    c = basis @ z_inv
    if spec.structure is Structure.LINEAR:
        feedforward, feedback, perm = np.linalg.pinv(c), np.eye(n), np.arange(n)
    else:
        filters = sorted_factorization_oracle(c)
        feedforward, feedback, perm = filters.feedforward, filters.feedback, filters.perm
    soft = feedforward[:, :m] @ y  # rows in detection order
    offset = z @ np.full(n, OFFSET)
    z_hat = np.empty_like(soft)
    for l, k in enumerate(perm):
        v = soft[l] - feedback[l, :l] @ z_hat[perm[:l]]
        v = np.rint(v - offset[k]) + offset[k]
        z_hat[k] = v if reduced else np.clip(v, -limit, limit)
    if not reduced:
        return z_hat, 0
    a_hat = z_inv @ z_hat
    return np.clip(a_hat, -limit, limit), int(np.count_nonzero(np.abs(a_hat) > limit))
