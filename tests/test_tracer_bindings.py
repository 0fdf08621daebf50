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

from lramimo import sim
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


def test_a_traced_run_records_one_oracle_span_per_trial_and_snr():
    config = sim.SimConfig(
        n_tx=2, n_rx=2, order=2, snr_db=(6.0, 12.0, 18.0), trials=3,
        frames_per_channel=7, seed=4, specs=ALL_SPECS[:1], oracle=True,
    )
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        sim.run_monte_carlo(config)
    finally:
        tracer.uninstall()
    oracle = [span for span in tracer.spans if span[0] == "sim.oracle"]
    assert Counter(tuple(span[4]) for span in oracle) == {
        ("trial", t): len(config.snr_db) for t in range(config.trials)
    }
    assert all(span[6]["frames"] == config.frames_per_channel for span in oracle)


def test_traced_detect_block_frames_count_every_frame_at_every_snr_and_spec():
    # A detect_block call covers a group of SNR points, and the span's frames
    # (the observations' columns) count each (frame, SNR point) pair, so
    # ns_per_frame stays per detected pair whatever the grouping.
    config = sim.SimConfig(
        n_tx=2, n_rx=2, order=4, snr_db=(4.0, 12.0, 20.0), trials=3,
        frames_per_channel=3000, seed=4, specs=ALL_SPECS[:3], oracle=False,
    )
    assert len(sim._snr_groups(config)) == 2  # uneven groups of 2 and 1 points
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
