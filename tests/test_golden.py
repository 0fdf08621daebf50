"""Frozen-seed guard: the ``simulate`` CLI reproduces a committed sweep.

All ten equalizer specs plus the ML oracle on a 2x2 order-4 channel.  The
CSV holds the error counts; the clip counts, which the CSV does not carry,
are read from the CLI's summary line.  A refactor of the detectors must
reproduce both exactly.
"""

import ast
from pathlib import Path

from lramimo.cli import main

DATA = Path(__file__).parent / "data"

GOLDEN_CLIPPED = {
    "le-zf-lra-orig": 2898,
    "dfe-zf-lra-orig": 2900,
    "le-mmse-lra-orig": 310,
    "le-mmse-lra-aug": 262,
    "dfe-mmse-lra-orig": 261,
    "dfe-mmse-lra-aug": 258,
}
CLIP_PREFIX = "clipped decisions: "


def test_simulate_reproduces_golden_csv_and_clip_counts(tmp_path, capsys):
    out = tmp_path / "golden.csv"
    assert main(["simulate", "--config", str(DATA / "golden_config.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "golden.csv").read_bytes()
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith(CLIP_PREFIX)]
    assert len(lines) == 1
    assert ast.literal_eval(lines[0][len(CLIP_PREFIX):]) == GOLDEN_CLIPPED
