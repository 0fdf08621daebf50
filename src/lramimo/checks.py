"""Randomized residual sweeps certifying the detector equivalences.

Each check draws random channel instances and compares two independently
computed routes to the same mathematical object.  The central one puts
ZF-BLAST, the successive pseudo-inverse filters of the augmented reduced
matrix, against the optimum successive MMSE estimator that ``estimate``
builds from the reduced channel and the data covariance Z Z^T / zeta
alone; the conditional-precision identity behind it is checked on random
unimodular Z at every split, one call per Z.  The per-step
pseudo-inverse sorted factorization lives here as the oracle of the
single-QR kernel in ``blast``, ``lra_le_mmse_matrix`` as the MMSE closed
form that the detectors' receive filters are compared with, and
``integer_determinant`` as the exact determinant oracle of reductions.
The sweep maxima are the certification artifact, and ``TOLERANCES``
holds their thresholds.
``zf_error_probabilities`` gives the closed-form error rates that
simulated zero-forcing cells are checked against.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import blast, estimate
from .lattice import _as_int_rows, lll_reduce
from .model import augment

FF_TOL = 1e-9
FB_TOL = 1e-9
SCHUR_TOL = 1e-10
FAST_TOL = 1e-9
MMSE_FORMS_TOL = 1e-12

# Each EquivalenceReport field, its name in reports, and its largest passing value.
TOLERANCES = (
    ("feedforward", "estimator feedforward residual", FF_TOL),
    ("feedback", "estimator feedback residual", FB_TOL),
    ("order_mismatches", "estimator order mismatches", 0),
    ("schur", "conditional-precision residual", SCHUR_TOL),
    ("fast_filters", "fast factorization residual", FAST_TOL),
    ("fast_order_mismatches", "fast order mismatches", 0),
    ("mmse_le_forms", "MMSE receive-form residual", MMSE_FORMS_TOL),
)

# Instance draws: real streams, extra receive dimensions, SNR window in dB.
_DIMS = (2, 3, 4)
_EXTRA_RX = (0, 1, 2)
_SNR_DB_RANGE = (0.0, 30.0)
# Largest dimension of the Schur-identity instances.
_SCHUR_MAX_DIM = 8


@dataclass(frozen=True)
class EquivalenceReport:
    """Worst-case residuals of one full sweep."""

    feedforward: float
    feedback: float
    order_mismatches: int
    schur: float
    fast_filters: float
    fast_order_mismatches: int
    mmse_le_forms: float

    def within(self) -> bool:
        return all(getattr(self, key) <= tol for key, _, tol in TOLERANCES)


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.linalg.norm(b)
    if scale == 0.0:
        return float(np.linalg.norm(a - b))
    return float(np.linalg.norm(a - b) / scale)


def sorted_factorization_oracle(matrix: np.ndarray) -> blast.DfeFilterSet:
    """Per-step pseudo-inverse route to ``blast.vblast_sorted_factorization``.

    At each step a fresh QR of the remaining columns gives their
    pseudo-inverse and the sorting metric, and the row of the stream
    detected next is kept.  Slow (n QRs and inverses) but independent of
    the production kernel's Gram downdates and single QL.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] < m.shape[1]:
        raise ValueError(f"matrix must be m x n with m >= n, got shape {m.shape}")
    n = m.shape[1]
    remaining = list(range(n))
    rows = []
    order = []
    for _ in range(n):
        sub = m[:, remaining]
        q, r = np.linalg.qr(sub, mode="reduced")
        diag = np.abs(np.diag(r))
        if diag.min() <= 1e-12 * max(m.shape) * diag.max():
            raise blast.FactorizationError("matrix lost full column rank during factorization")
        rinv = np.linalg.inv(r)
        # diag of (sub^T sub)^-1 = squared row norms of R^-1
        metric = np.sum(rinv**2, axis=1)
        k = blast.pick_stream(metric)
        pinv = rinv @ q.T
        rows.append(pinv[k])
        order.append(remaining.pop(k))
    feedforward = np.vstack(rows)
    perm = np.array(order)
    # The exact product is unit lower triangular; drop the rounding noise.
    feedback = np.tril(feedforward @ m[:, perm])
    np.fill_diagonal(feedback, 1.0)
    return blast.DfeFilterSet(feedforward=feedforward, feedback=feedback, perm=perm)


def zf_error_probabilities(matrix: np.ndarray, noise_var: float, constellation):
    """Closed-form error probabilities of the unreduced ZF detectors on ``matrix``.

    Returns ``(le, dfe)``: ``le[k]`` is the probability that LE-ZF decides
    stream k wrongly, so ``le.sum()`` is its expected symbol errors per
    frame, and ``dfe`` is the probability that sorted ZF-DFE decides a
    frame wrongly.  ``noise_var`` (> 0) is the per-component noise variance.

    One stream of the unit-spaced M-ASK alphabet under Gaussian noise of
    standard deviation s errs with probability P(s) = 2 (1 - 1/M) Q(1/(2 s)),
    Q(x) = erfc(x / sqrt(2)) / 2.  LE-ZF stream k sees sigma ||w_k||, with
    w_k row k of the pseudo-inverse.  The sorted ZF-DFE feedforward rows f_k
    are orthogonal, so its stream noises are independent, and given correct
    feedback a frame is right only if every stream is: the frame errs with
    probability 1 - prod_k (1 - P(sigma ||f_k||)), error propagation
    included.  The filters come from numpy's pseudo-inverse and
    :func:`sorted_factorization_oracle`, not from the production kernels.
    """
    h = np.asarray(matrix, dtype=float)
    sigma = math.sqrt(noise_var)
    scale = 1.0 - 1.0 / constellation.order

    def stream_error(row):
        return scale * math.erfc(1.0 / (2.0 * math.sqrt(2.0) * sigma * np.linalg.norm(row)))

    le = np.array([stream_error(w) for w in np.linalg.pinv(h)])
    dfe = 1.0 - math.prod(1.0 - stream_error(f) for f in sorted_factorization_oracle(h).feedforward)
    return le, dfe


def _draw_instance(rng, max_cond=None):
    """Random real channel and inverse-SNR weight; ``max_cond`` caps cond(H)."""
    n_tx = int(rng.choice(_DIMS))
    n_rx = n_tx + int(rng.choice(_EXTRA_RX))
    while True:
        h = rng.normal(size=(n_rx, n_tx))
        if max_cond is None or np.linalg.cond(h) <= max_cond:
            break
    snr_db = rng.uniform(*_SNR_DB_RANGE)
    zeta = 10.0 ** (-snr_db / 10.0)
    return h, zeta


def _augmented_reduction(h: np.ndarray, zeta: float):
    """LLL reduction of B = [H; sqrt(zeta) I] and B Z^-1, the matrix -aug detectors factorize."""
    b = augment(h, zeta)
    rb = lll_reduce(b)
    return rb, b @ rb.unimodular_inv


def check_dfe_equivalence(n_instances: int = 1000, seed: int = 20260823):
    """ZF-BLAST on the augmented matrix vs the optimum successive estimator.

    Per instance the estimator sees the reduced observation block C = H Z^-1
    and the noise-normalized data covariance Phi = Z Z^T / zeta of z = Z a,
    built once from the reduction's integer Z.  For every detection step the
    step feedforward matrix (pseudo-inverse of the augmented matrix's open
    columns, observation columns only) and the step feedback weights are
    compared with ``estimate``'s, and the detection order is re-derived
    greedily from the estimator's conditional error variances.

    Returns (max feedforward residual, max feedback residual,
    order mismatch count).
    """
    rng = np.random.default_rng(seed)
    worst_ff = 0.0
    worst_fb = 0.0
    mismatches = 0
    for _ in range(n_instances):
        h, zeta = _draw_instance(rng)
        n_rx, n_tx = h.shape
        rb, stacked = _augmented_reduction(h, zeta)
        zf = rb.unimodular.astype(float)
        obs, phi = stacked[:n_rx], zf @ zf.T / zeta
        perm = blast.vblast_sorted_factorization(stacked).perm
        obs_sorted, phi_sorted = obs[:, perm], phi[np.ix_(perm, perm)]
        for level in range(n_tx):
            step_pinv = blast.le_zf_matrix(stacked[:, perm[level:]])
            ff_est = estimate.correlated_ff_matrix(obs_sorted, phi_sorted, level)
            worst_ff = max(worst_ff, _rel(ff_est, step_pinv[:, :n_rx]))
            if level > 0:
                fb_blast = step_pinv @ stacked[:, perm[:level]]
                fb_est = estimate.correlated_fb_matrix(obs_sorted, phi_sorted, level)
                worst_fb = max(worst_fb, _rel(fb_est, fb_blast))
        if not np.array_equal(_greedy_order(obs, phi), perm):
            mismatches += 1
    return worst_ff, worst_fb, mismatches


def _greedy_order(channel: np.ndarray, covariance: np.ndarray) -> np.ndarray:
    """Detection order of the successive estimator.

    Each step decides the open stream of least conditional error variance,
    given the streams already decided.
    """
    remaining = list(range(channel.shape[1]))
    order = []
    while remaining:
        cols = order + remaining
        sub_cov = covariance[np.ix_(cols, cols)]
        metric = estimate.sorting_metric(channel[:, cols], sub_cov, len(order))
        k = blast.pick_stream(metric)  # remaining ascending: ties pick lowest index
        order.append(remaining.pop(k))
    return np.array(order)


def random_unimodular(rng, n: int, n_ops: int = None, max_shear: int = 2) -> np.ndarray:
    """Product of random elementary integer operations; determinant +-1."""
    z = np.eye(n, dtype=object)  # Python ints, which the row operations keep exact
    if n_ops is None:
        n_ops = 3 * n
    for _ in range(n_ops):
        kind = rng.integers(0, 3)
        i, j = rng.choice(n, size=2, replace=False) if n > 1 else (0, 0)
        if kind == 0 and n > 1:
            c = int(rng.integers(1, max_shear + 1)) * (1 if rng.random() < 0.5 else -1)
            z[i, :] = z[i, :] + c * z[j, :]
        elif kind == 1 and n > 1:
            tmp = z[i, :].copy()
            z[i, :] = z[j, :]
            z[j, :] = tmp
        else:
            z[i, :] = -z[i, :]
    return z


def integer_determinant(matrix: np.ndarray) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    a = _as_int_rows(matrix)
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for piv in range(n - 1):
        if a[piv][piv] == 0:
            for i in range(piv + 1, n):
                if a[i][piv] != 0:
                    a[piv], a[i] = a[i], a[piv]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(piv + 1, n):
            for j in range(piv + 1, n):
                a[i][j] = (a[i][j] * a[piv][piv] - a[i][piv] * a[piv][j]) // prev
            a[i][piv] = 0
        prev = a[piv][piv]
    return sign * a[n - 1][n - 1]


def check_schur_identity(n_instances: int = 1000, seed: int = 20260823) -> float:
    """Max residual of the conditional-precision identity over random bases, every split."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        z = random_unimodular(rng, int(rng.integers(1, _SCHUR_MAX_DIM + 1)))
        worst = max(worst, estimate.schur_gramian_identity(z))
    return worst


def check_fast_vblast(n_instances: int = 500, seed: int = 20260823):
    """Single-QR sorted factorizations vs the per-step pseudo-inverse oracle.

    The detectors' kernel ``vblast_sorted_factorization`` of the stacked
    matrix and ``fast_vblast_correlated`` from (H, the reduction, zeta),
    which no sweep calls, are compared with ``sorted_factorization_oracle``
    of the stacked matrix.

    Returns (max filter residual over F and B, count of factorizations
    whose permutation differs from the oracle's).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    mismatches = 0
    for _ in range(n_instances):
        h, zeta = _draw_instance(rng)
        rb, stacked = _augmented_reduction(h, zeta)
        ref = sorted_factorization_oracle(stacked)
        for fs in (
            blast.vblast_sorted_factorization(stacked),
            blast.fast_vblast_correlated(h, rb, zeta),
        ):
            if not np.array_equal(ref.perm, fs.perm):
                mismatches += 1
                continue
            worst = max(worst, _rel(fs.feedforward, ref.feedforward))
            worst = max(worst, _rel(fs.feedback, ref.feedback))
    return worst, mismatches


def lra_le_mmse_matrix(matrix: np.ndarray, unimodular: np.ndarray, inv_snr: float) -> np.ndarray:
    """Reduction-aided MMSE receive matrix Z (H^T H + inv_snr I)^-1 H^T.

    Estimates the transformed symbols from the physical observation; valid
    for any unimodular basis change, whichever matrix it was derived from.
    Detectors use the equal pseudo-inverse of [H; sqrt(inv_snr) I] Z^-1,
    restricted to the observation columns; this closed form is the oracle
    ``check_mmse_le_forms`` compares them against.
    """
    m = np.asarray(matrix, dtype=float)
    if not (inv_snr >= 0):
        raise ValueError(f"inv_snr must be >= 0, got {inv_snr}")
    gram = m.T @ m + inv_snr * np.eye(m.shape[1])
    return np.asarray(unimodular, dtype=float) @ np.linalg.solve(gram, m.T)


def check_mmse_le_forms(n_instances: int = 1000, seed: int = 20260823) -> float:
    """Max pairwise residual among the four receive-matrix forms.

    Compares (C^T C + zeta Z^-T Z^-1)^-1 C^T, Z (H^T H + zeta I)^-1 H^T,
    the optimum estimator ``estimate.correlated_ff_matrix`` with no stream
    decided and noise-normalized data covariance Z Z^T / zeta, and the
    observation columns of the pseudo-inverse of [H; sqrt(zeta) I] Z^-1,
    which is how the detectors build it.  Instances are kept numerically tame
    (condition cap) because the stated agreement is at working precision.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        h, zeta = _draw_instance(rng, max_cond=30.0)
        if zeta < 1e-3:
            zeta = 1e-3
        rb, stacked = _augmented_reduction(h, zeta)
        reduced_obs = stacked[: h.shape[0]]
        zf, zi = rb.unimodular.astype(float), rb.unimodular_inv

        gram_direct = reduced_obs.T @ reduced_obs + zeta * (zi.T @ zi)
        form_direct = np.linalg.solve(gram_direct, reduced_obs.T)
        form_closed = lra_le_mmse_matrix(h, rb.unimodular, zeta)
        form_pinv = blast.le_zf_matrix(stacked)[:, : h.shape[0]]
        form_estimator = estimate.correlated_ff_matrix(reduced_obs, zf @ zf.T / zeta, 0)

        worst = max(worst, _rel(form_direct, form_closed))
        worst = max(worst, _rel(form_estimator, form_closed))
        worst = max(worst, _rel(form_estimator, form_direct))
        worst = max(worst, _rel(form_pinv, form_closed))
        worst = max(worst, _rel(form_pinv, form_direct))
        worst = max(worst, _rel(form_pinv, form_estimator))
    return worst


def equivalence_suite(n_instances: int = 1000, seed: int = 20260823) -> EquivalenceReport:
    """Run every check; fast path uses half the instances.

    Raises ValueError for fewer than one instance: a suite that checks
    nothing certifies nothing.
    """
    if n_instances < 1:
        raise ValueError(f"n_instances must be >= 1, got {n_instances}")
    ff, fb, order_bad = check_dfe_equivalence(n_instances, seed)
    schur = check_schur_identity(n_instances, seed)
    fast, fast_bad = check_fast_vblast(max(1, n_instances // 2), seed)
    forms = check_mmse_le_forms(n_instances, seed)
    return EquivalenceReport(
        feedforward=ff,
        feedback=fb,
        order_mismatches=order_bad,
        schur=schur,
        fast_filters=fast,
        fast_order_mismatches=fast_bad,
        mmse_le_forms=forms,
    )
