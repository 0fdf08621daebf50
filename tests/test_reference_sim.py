"""Sweep counts against an independent reference (``reference_sim``).

``run_monte_carlo`` shares reductions, augmented matrices and ZF detectors
across the specs, SNR points and trials of a chunk, detects in frame
slices and SNR groups and bounds its ML search.  The reference builds each
(spec, SNR) cell alone from the textbook definitions and searches all M^n
candidates.  Every cell's symbol and vector errors and every decider's
clip count must agree.  Unlike the golden test, no committed file pins one
LAPACK build's bits here.
"""

import pytest
from reference_sim import reference_counts

from lramimo.equalize import ALL_SPECS
from lramimo.sim import ML_ORACLE_ID, SimConfig, run_monte_carlo

SHAPES = {
    "2x3-order-4": dict(n_tx=2, n_rx=3, order=4, snr_db=(6.0, 12.0, 18.0, 24.0), trials=30,
                        frames_per_channel=200, seed=11),
    "4x4-bpsk": dict(n_tx=4, n_rx=4, order=2, snr_db=(4.0, 8.0, 12.0, 16.0, 20.0), trials=8,
                     frames_per_channel=400, seed=7),
}


@pytest.mark.parametrize("shape", SHAPES.values(), ids=SHAPES.keys())
def test_counts_equal_the_reference(shape):
    config = SimConfig(specs=ALL_SPECS, oracle=True, **shape)
    result = run_monte_carlo(config)
    assert result.meta["channel_redraws"] == 0  # the reference follows no redraw
    counts = reference_counts(config)
    assert counts[0].any() and counts[2].any(), "no errors or no clips; they go unchecked"
    ids = [spec.spec_id for spec in ALL_SPECS] + [ML_ORACLE_ID]
    assert [(p.spec_id, p.snr_db, p.errors, p.vector_errors) for p in result.points] == [
        (spec_id, snr, counts[0, i, j], counts[1, i, j])
        for i, spec_id in enumerate(ids)
        for j, snr in enumerate(config.snr_db)
    ]
    assert result.clipped == {spec_id: counts[2, i].sum() for i, spec_id in enumerate(ids)}
