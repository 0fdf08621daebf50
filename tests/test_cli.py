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

