import csv
import json
from dataclasses import replace

from lramimo import checks
from lramimo.cli import main

KEYS = {
    "feedforward": checks.FF_TOL,
    "feedback": checks.FB_TOL,
    "order_mismatches": 0,
    "schur": checks.SCHUR_TOL,
    "fast_filters": checks.FAST_TOL,
    "fast_order_mismatches": 0,
    "mmse_le_forms": checks.MMSE_FORMS_TOL,
}


def test_equiv_suite_json_holds_residuals_and_verdict(tmp_path):
    path = tmp_path / "equiv.json"
    code = main(["equiv-suite", "--instances", "4", "--seed", "7", "--json", str(path)])
    report = checks.equivalence_suite(n_instances=4, seed=7)
    data = json.loads(path.read_text())
    assert code == 0 and data["verdict"] == "PASS"
    assert data["seed"] == 7 and data["instances"] == 4
    assert data["residuals"] == {
        key: {"max": getattr(report, key), "tolerance": tol} for key, tol in KEYS.items()
    }


def test_equiv_suite_json_records_failure_and_keeps_exit_code(tmp_path, monkeypatch):
    real = checks.equivalence_suite

    def over_tolerance(n_instances, seed):
        return replace(real(n_instances, seed), schur=1.0)

    monkeypatch.setattr(checks, "equivalence_suite", over_tolerance)
    path = tmp_path / "equiv.json"
    assert main(["equiv-suite", "--instances", "2", "--json", str(path)]) == 1
    data = json.loads(path.read_text())
    assert data["verdict"] == "FAIL"
    assert data["residuals"]["schur"] == {"max": 1.0, "tolerance": checks.SCHUR_TOL}


def test_compare_reduction_writes_the_pair_and_one_delta_per_snr(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "n_tx": 1, "n_rx": 2, "order": 2, "snr_db": [4, 10, 16], "trials": 2,
        "frames_per_channel": 20, "seed": 3, "specs": [{"structure": "le", "criterion": "zf"}],
    }))
    out = tmp_path / "pair.csv"
    assert main(["compare-reduction", "--config", str(config), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["spec_id"] for r in rows} == {"dfe-mmse-lra-orig", "dfe-mmse-lra-aug"}
    assert len(rows) == 2 * 3
    deltas = [l for l in capsys.readouterr().out.splitlines() if "delta=" in l]
    assert [float(l.split("snr=")[1].split("dB")[0]) for l in deltas] == [4.0, 10.0, 16.0]
