"""Acceptance sweep for the equalization library.

Each test certifies one numbered criterion and prints a single
PASS/FAIL line (visible with ``pytest -s``) carrying the measured
residual or statistic next to its threshold.
"""

import time

import numpy as np
import pytest

from lramimo.checks import (
    FAST_TOL,
    FB_TOL,
    FF_TOL,
    MMSE_FORMS_TOL,
    SCHUR_TOL,
    check_dfe_equivalence,
    check_fast_vblast,
    check_mmse_le_forms,
    check_schur_identity,
    integer_determinant,
    zf_error_probabilities,
)
from lramimo.equalize import ALL_SPECS, EqualizerSpec, build_detector, detect_block
from lramimo.lattice import lll_reduce
from lramimo.model import MimoChannel, make_ask_constellation
from lramimo.sim import (
    SimConfig,
    _ml_detect_block,
    compare_reduction_targets,
    draw_channel,
    emit_results,
    run_monte_carlo,
    trial_rng,
)
from test_lattice import reduced_basis

SEED = 20260823
_SPEC_TABLE = {s.spec_id: s for s in ALL_SPECS}


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\n{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def dfe_sweep():
    t0 = time.perf_counter()
    ff, fb, mismatches = check_dfe_equivalence(1000, seed=SEED)
    return ff, fb, mismatches, time.perf_counter() - t0


def test_a1_feedforward_equivalence(dfe_sweep):
    ff, _, _, elapsed = dfe_sweep
    _report(
        "A1 successive MMSE feedforward from Phi matches ZF-BLAST",
        ff <= FF_TOL and elapsed < 30.0,
        f"max rel {ff:.2e} <= {FF_TOL:.0e}, {elapsed:.1f}s < 30s",
    )


def test_a2_feedback_equivalence(dfe_sweep):
    _, fb, _, elapsed = dfe_sweep
    _report(
        "A2 successive MMSE feedback from Phi matches ZF-BLAST",
        fb <= FB_TOL and elapsed < 30.0,
        f"max rel {fb:.2e} <= {FB_TOL:.0e}, {elapsed:.1f}s < 30s",
    )


def test_a3_order_equivalence(dfe_sweep):
    _, _, mismatches, _ = dfe_sweep
    _report(
        "A3 successive MMSE order matches ZF-BLAST on every instance",
        mismatches == 0,
        f"{mismatches} mismatches over 1000 instances",
    )


def test_a4_schur_gramian_identity():
    worst = check_schur_identity(1000, seed=SEED)
    _report(
        "A4 conditional-precision identity",
        worst <= SCHUR_TOL,
        f"max rel {worst:.2e} <= {SCHUR_TOL:.0e}",
    )


def test_a5_fast_vblast_equivalence():
    worst, mismatches = check_fast_vblast(500, seed=SEED)
    _report(
        "A5 fast correlated factorization equals reference path",
        worst <= FAST_TOL and mismatches == 0,
        f"max rel {worst:.2e} <= {FAST_TOL:.0e}, {mismatches} order mismatches",
    )


def test_a6_mmse_le_three_forms():
    worst = check_mmse_le_forms(1000, seed=SEED)
    _report(
        "A6 reduction-aided MMSE receive-matrix forms agree",
        worst <= MMSE_FORMS_TOL,
        f"max rel {worst:.2e} <= {MMSE_FORMS_TOL:.0e}",
    )


def test_a7_lll_postconditions():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst_recon = 0.0
    det_ok = True
    size_ok = True
    lovasz_ok = True
    for _ in range(1000):
        h = rng.normal(size=(8, 8))
        rb = lll_reduce(h)
        c = reduced_basis(h, rb.unimodular)
        recon = c @ rb.unimodular
        worst_recon = max(
            worst_recon, np.linalg.norm(recon - h) / np.linalg.norm(h)
        )
        det_ok &= abs(integer_determinant(rb.unimodular)) == 1
        r = np.linalg.qr(c, mode="r")
        diag = np.abs(np.diag(r))
        for k in range(1, 8):
            size_ok &= bool((np.abs(r[:k, k]) / diag[:k] <= 0.5 + 1e-9).all())
            mu = r[k - 1, k] / r[k - 1, k - 1]
            lhs = r[k, k] ** 2
            rhs = (0.75 - mu**2) * r[k - 1, k - 1] ** 2
            lovasz_ok &= bool(lhs >= rhs - 1e-9 * r[k - 1, k - 1] ** 2)
    elapsed = time.perf_counter() - t0
    _report(
        "A7 reduction postconditions on 1000 8x8 channels",
        worst_recon <= 1e-12 and det_ok and size_ok and lovasz_ok and elapsed < 60.0,
        f"recon {worst_recon:.2e} <= 1e-12, det {det_ok}, size {size_ok}, "
        f"Lovasz {lovasz_ok}, {elapsed:.1f}s < 60s",
    )


def test_a8_detection_sanity():
    rng = np.random.default_rng(SEED)
    failures = 0
    for _ in range(1000):
        n_tx = int(rng.integers(2, 5))
        n_rx = n_tx + int(rng.integers(0, 3))
        order = int(rng.choice([2, 4]))
        constellation = make_ask_constellation(order)
        h = rng.normal(size=(n_rx, n_tx))
        channel = MimoChannel(h, noise_var=0.0, symbol_var=constellation.variance)
        a = rng.choice(constellation.points, size=n_tx)
        y = h @ a
        for spec in ALL_SPECS:
            a_hat, _, _ = detect_block(build_detector(spec, channel), y[:, None], constellation)
            if not np.array_equal(a_hat[:, 0], a):
                failures += 1

    # high-SNR agreement with the exhaustive oracle, 4x4 real, binary levels
    constellation = make_ask_constellation(2)
    sv = constellation.variance
    noise_var = sv * 4 / 10.0 ** (30.0 / 10.0)
    spec = _SPEC_TABLE["dfe-mmse-lra-aug"]
    agree = 0
    total = 0
    for _ in range(50):
        h = rng.normal(size=(4, 4))
        channel = MimoChannel(h, noise_var=noise_var, symbol_var=sv)
        det = build_detector(spec, channel)
        a = rng.choice(constellation.points, size=(4, 40))
        y = h @ a + rng.normal(0.0, np.sqrt(noise_var), size=(4, 40))
        a_hat, _, _ = detect_block(det, y, constellation)
        ml = _ml_detect_block(h, y, constellation)
        agree += int(np.count_nonzero((a_hat == ml).all(axis=0)))
        total += y.shape[1]
    frac = agree / total
    _report(
        "A8 noiseless exactness and oracle agreement",
        failures == 0 and frac >= 0.99,
        f"{failures} noiseless failures over 1000x{len(ALL_SPECS)}, "
        f"oracle agreement {frac:.4f} >= 0.99 on {total} frames",
    )


def _fit_slope(points, lo=1e-4, hi=1e-2):
    """Log-log slope of SER against linear SNR inside the window."""
    kept = [(p.snr_db, p.ser) for p in points if lo <= p.ser <= hi]
    if len(kept) < 2:
        return None
    x = np.array([s / 10.0 for s, _ in kept])  # log10 of linear snr
    y = np.log10([r for _, r in kept])
    return float(np.polyfit(x, y, 1)[0])


def test_a9_error_rate_behavior():
    config = SimConfig(
        n_tx=4,
        n_rx=4,
        order=2,
        snr_db=(10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 24.0, 28.0, 32.0, 36.0),
        trials=500,
        frames_per_channel=400,
        seed=SEED,
        specs=(
            _SPEC_TABLE["le-zf"],
            _SPEC_TABLE["le-mmse"],
            _SPEC_TABLE["dfe-zf-lra-orig"],
            _SPEC_TABLE["dfe-mmse-lra-orig"],
            _SPEC_TABLE["dfe-mmse-lra-aug"],
        ),
    )
    result = run_monte_carlo(config, workers=4)
    frames = config.trials * config.frames_per_channel
    slope_zf = _fit_slope([p for p in result.points if p.spec_id == "le-zf"])
    slope_lra = _fit_slope(
        [p for p in result.points if p.spec_id == "dfe-mmse-lra-aug"]
    )
    ordering_ok = True
    for snr in config.snr_db:
        for zf_id, mmse_id in (("le-zf", "le-mmse"), ("dfe-zf-lra-orig", "dfe-mmse-lra-orig")):
            p_zf = result.point(zf_id, snr)
            p_mmse = result.point(mmse_id, snr)
            ordering_ok &= p_mmse.ser <= p_zf.ser + p_zf.ci95 + p_mmse.ci95
    slopes_ok = slope_zf is not None and slope_lra is not None and slope_lra < slope_zf
    fmt = lambda s: "n/a" if s is None else f"{s:.2f}"
    _report(
        "A9 steeper reduction-aided error-rate decay at desk scale",
        frames >= 200_000 and slopes_ok and ordering_ok,
        f"{frames} frames/point, slope lra-dfe {fmt(slope_lra)} < slope zf-le "
        f"{fmt(slope_zf)} in SER window [1e-4, 1e-2], MMSE<=ZF within CI "
        f"{ordering_ok}, wall {result.meta['wall_clock_s']:.0f}s",
    )


def test_a10_reduction_target_comparison():
    config = SimConfig(
        n_tx=2,
        n_rx=2,
        order=2,
        snr_db=(10.0, 20.0),
        trials=20,
        frames_per_channel=50,
        seed=SEED,
        specs=(_SPEC_TABLE["le-zf"],),  # replaced by the paired specs inside
    )
    first = compare_reduction_targets(config)
    second = compare_reduction_targets(config)
    same = all(
        (d1.snr_db, d1.ser_original, d1.ser_augmented, d1.delta, d1.ci95)
        == (d2.snr_db, d2.ser_original, d2.ser_augmented, d2.delta, d2.ci95)
        for d1, d2 in zip(first.deltas, second.deltas)
    )
    finite = all(np.isfinite(d.ci95) and np.isfinite(d.delta) for d in first.deltas)
    detail = ", ".join(
        f"{d.snr_db:g}dB delta {d.delta:+.2e} ci {d.ci95:.2e}" for d in first.deltas
    )
    _report(
        "A10 paired reduction-target deltas reported deterministically",
        same and finite and len(first.deltas) == 2,
        detail + f"; repeatable {same}",
    )


def test_a11_worker_count_determinism(tmp_path):
    config = SimConfig(
        n_tx=2,
        n_rx=3,
        order=2,
        snr_db=(5.0, 15.0),
        trials=8,
        frames_per_channel=20,
        seed=SEED,
        specs=(_SPEC_TABLE["le-mmse"], _SPEC_TABLE["dfe-mmse-lra-aug"]),
        oracle=True,
    )
    path1 = tmp_path / "serial.csv"
    path3 = tmp_path / "parallel.csv"
    emit_results(run_monte_carlo(config, workers=1), str(path1))
    emit_results(run_monte_carlo(config, workers=3), str(path3))
    b1 = path1.read_bytes()
    b3 = path3.read_bytes()
    _report(
        "A11 CSV output is bit-identical across worker counts",
        b1 == b3 and len(b1) > 0,
        f"{len(b1)} bytes, equal {b1 == b3}",
    )


def test_a12_zf_cells_match_closed_forms():
    # Each trial's LE-ZF symbol errors and sorted ZF-DFE frame errors have a
    # closed-form expectation given its channel.  The DFE z uses the exact
    # variance of its per-frame Bernoulli errors; the LE z an upper bound on
    # the variance of correlated per-stream errors, F (sum_k sqrt(P_k (1 - P_k)))^2
    # per trial.  The noise variance is derived here from the SNR definition.
    z_max = 4.0
    snrs = (6.0, 14.0, 22.0)
    trials, frames = 400, 200
    specs = (_SPEC_TABLE["le-zf"], _SPEC_TABLE["dfe-zf"])
    z_values, redraws = [], 0
    for n_tx, n_rx, order in ((2, 2, 2), (4, 4, 2), (2, 3, 4)):
        config = SimConfig(n_tx=n_tx, n_rx=n_rx, order=order, snr_db=snrs, trials=trials,
                           frames_per_channel=frames, seed=SEED, specs=specs)
        result = run_monte_carlo(config, workers=2)
        # With no redraw, each trial's channel is the first draw of its stream.
        redraws += result.meta["channel_redraws"]
        channels = [draw_channel(trial_rng(SEED, t), n_rx, n_tx).matrix for t in range(trials)]
        constellation = make_ask_constellation(order)
        for snr in snrs:
            noise_var = constellation.variance * n_tx / 10.0 ** (snr / 10.0)
            probs = [zf_error_probabilities(h, noise_var, constellation) for h in channels]
            le_mean = frames * sum(le.sum() for le, _ in probs)
            le_var = frames * sum(np.sqrt(le * (1.0 - le)).sum() ** 2 for le, _ in probs)
            dfe_mean = frames * sum(dfe for _, dfe in probs)
            dfe_var = frames * sum(dfe * (1.0 - dfe) for _, dfe in probs)
            le_errors = result.point("le-zf", snr).errors
            dfe_errors = result.point("dfe-zf", snr).vector_errors
            z_values.append((le_errors - le_mean) / np.sqrt(le_var))
            z_values.append((dfe_errors - dfe_mean) / np.sqrt(dfe_var))
    worst = max(abs(z) for z in z_values)
    _report(
        "A12 ZF cells match their closed-form error rates",
        redraws == 0 and worst <= z_max,
        f"max |z| {worst:.2f} <= {z_max} over {len(z_values)} cells, {redraws} redraws",
    )
