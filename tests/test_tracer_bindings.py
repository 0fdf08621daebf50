"""The benchmark tracer's bindings against the package.

``perfbench/spans.py`` wraps named attributes of the ``lramimo`` modules.
Installing and uninstalling it here fails at once when a rename or a
deletion leaves the tracer pointing at a name that no longer exists.  A
name can also survive while the program stops calling it, which leaves
its per-layer metrics at 0; a traced run checks that the oracle's is
still called.
"""

import types
from collections import Counter
from pathlib import Path

from lramimo import checks, sim
from lramimo.equalize import ALL_SPECS

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    """Execute spans.py from its source, writing no bytecode next to it."""
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_install_then_uninstall_restores_every_binding():
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        patched = list(tracer._saved)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)


def test_a_traced_run_records_one_oracle_span_per_trial_slice_and_snr_group():
    # The oracle decides each SNR group of a frame slice in one call on the
    # group's stacked observations, so a span's frames count each (frame,
    # SNR point) pair of its group.  Seven frames at three SNRs make one
    # group; 3000 frames at [4, 12, 20] dB make uneven groups of 2 and 1.
    for order, snrs, frames, span_frames in (
        (2, (6.0, 12.0, 18.0), 7, [21]),
        (4, (4.0, 12.0, 20.0), 3000, [6000, 3000]),
    ):
        config = sim.SimConfig(
            n_tx=2, n_rx=2, order=order, snr_db=snrs, trials=3,
            frames_per_channel=frames, seed=4, specs=ALL_SPECS[:1], oracle=True,
        )
        assert sim._passes(config)[0] == frames  # one slice per trial
        tracer = _load_spans().Tracer()
        try:
            tracer.install()
            sim.run_monte_carlo(config)
        finally:
            tracer.uninstall()
        oracle = [span for span in tracer.spans if span[0] == "sim.oracle"]
        for t in range(config.trials):
            spans = [span[6]["frames"] for span in oracle if tuple(span[4]) == ("trial", t)]
            assert spans == span_frames, (frames, t)
            assert sum(spans) == frames * len(snrs)
        assert len(oracle) == config.trials * len(span_frames)


def test_traced_detect_block_frames_count_every_frame_at_every_snr_and_spec():
    # A detect_block call covers a group of SNR points, and the span's frames
    # (the observations' columns) count each (frame, SNR point) pair, so
    # ns_per_frame stays per detected pair whatever the grouping.
    config = sim.SimConfig(
        n_tx=2, n_rx=2, order=4, snr_db=(4.0, 12.0, 20.0), trials=3,
        frames_per_channel=3000, seed=4, specs=ALL_SPECS[:3], oracle=False,
    )
    assert len(sim._passes(config)[1]) == 2  # uneven groups of 2 and 1 points
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        sim.run_monte_carlo(config)
    finally:
        tracer.uninstall()
    detects = [span for span in tracer.spans if span[0] == "equalize.detect_block"]
    assert sum(span[6]["frames"] for span in detects) == (
        config.trials * config.frames_per_channel * len(config.snr_db) * len(config.specs)
    )
    assert Counter(span[6]["spec"] for span in detects) == {
        spec.spec_id: config.trials * 2 for spec in config.specs
    }


def test_a_traced_equivalence_suite_records_every_estimate_and_check_span():
    # The tracer wraps the four estimate functions and scopes the four
    # checks by name; each must still be called through those bindings.
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        checks.equivalence_suite(3)
    finally:
        tracer.uninstall()
    names = Counter(span[0] for span in tracer.spans)
    for fname in ("schur_gramian_identity", "correlated_ff_matrix",
                  "correlated_fb_matrix", "sorting_metric"):
        assert names[f"estimate.{fname}"] >= 1, fname
    for fname in ("check_dfe_equivalence", "check_schur_identity",
                  "check_fast_vblast", "check_mmse_le_forms"):
        assert names[f"checks.{fname}"] >= 1, fname
