"""Frozen-seed guard: the ``simulate`` CLI reproduces a committed sweep.

All ten equalizer specs plus the ML oracle on a 2x2 order-4 channel.  The
CSV holds the error counts; the clip counts, which the CSV does not carry,
are read from the CLI's summary line.  A refactor of the detectors must
reproduce both exactly.  The committed counts are also rebuilt by an
independent program from the textbook definitions (``reference_sim``), so
the file is checked against more than the program that wrote it.
"""

import ast
import csv
import json
from pathlib import Path

from reference_sim import reference_counts

from lramimo.cli import main
from lramimo.sim import ML_ORACLE_ID, SimConfig

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


def test_an_independent_reference_reproduces_the_golden_counts():
    config = SimConfig.from_dict(json.loads((DATA / "golden_config.json").read_text()))
    counts = reference_counts(config)
    ids = [spec.spec_id for spec in config.specs] + [ML_ORACLE_ID]
    with open(DATA / "golden.csv", newline="") as fh:
        rows = [(row["spec_id"], float(row["snr_db"]), int(row["errors"])) for row in csv.DictReader(fh)]
    assert rows == [
        (spec_id, snr, counts[0, i, j]) for i, spec_id in enumerate(ids) for j, snr in enumerate(config.snr_db)
    ]
    clipped = {spec_id: int(counts[2, i].sum()) for i, spec_id in enumerate(ids)}
    assert {spec_id: n for spec_id, n in clipped.items() if n} == GOLDEN_CLIPPED


def test_a_non_reduced_detector_as_the_oracle_hint_gives_golden_rows(tmp_path):
    """The specs reversed, so that le-zf, which reduces nothing, hints the ML
    oracle: every row of the run, the ml rows included, is a golden row."""
    config = json.loads((DATA / "golden_config.json").read_text())
    config["specs"] = config["specs"][::-1]
    reversed_config = tmp_path / "reversed.json"
    reversed_config.write_text(json.dumps(config))
    out = tmp_path / "reversed.csv"
    assert main(["simulate", "--config", str(reversed_config), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    golden = (DATA / "golden.csv").read_text().splitlines()
    assert len(rows) == len(golden) == 45
    assert sum(row.startswith(f"{ML_ORACLE_ID},") for row in rows) == 4
    assert set(rows) <= set(golden)
