import csv
import json
from dataclasses import replace

import pytest

from lramimo import checks, cli
from lramimo.blast import FactorizationError
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


CONFIG = {
    "n_tx": 1, "n_rx": 2, "order": 2, "snr_db": [4, 10, 16], "trials": 2,
    "frames_per_channel": 20, "seed": 3, "specs": [{"structure": "le", "criterion": "zf"}],
}


def test_compare_reduction_writes_the_pair_and_one_delta_per_snr(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    out = tmp_path / "pair.csv"
    assert main(["compare-reduction", "--config", str(config), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["spec_id"] for r in rows} == {"dfe-mmse-lra-orig", "dfe-mmse-lra-aug"}
    assert len(rows) == 2 * 3
    deltas = [l for l in capsys.readouterr().out.splitlines() if "delta=" in l]
    assert [float(l.split("snr=")[1].split("dB")[0]) for l in deltas] == [4.0, 10.0, 16.0]


@pytest.mark.parametrize("command", ["simulate", "compare-reduction"])
def test_seed_flag_gives_the_cells_of_the_config_with_that_seed(tmp_path, command):
    def run(name, seed, *flags):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({**CONFIG, "seed": seed}))
        out = tmp_path / f"{name}.csv"
        assert main([command, "--config", str(config), "--out", str(out), *flags]) == 0
        return out.read_bytes()

    overridden = run("overridden", CONFIG["seed"], "--seed", "5")
    assert overridden == run("seed-5", 5)
    assert overridden != run("config-seed", CONFIG["seed"])


@pytest.mark.parametrize("instances", ["0", "-3"])
def test_equiv_suite_without_instances_fails_and_writes_nothing(tmp_path, capsys, instances):
    path = tmp_path / "equiv.json"
    assert main(["equiv-suite", "--instances", instances, "--json", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lramimo equiv-suite: --instances must be >= 1, got {instances}\n"
    assert not path.exists()
    with pytest.raises(ValueError, match="n_instances"):
        checks.equivalence_suite(n_instances=int(instances))


@pytest.mark.parametrize("command", ["simulate", "compare-reduction"])
@pytest.mark.parametrize(
    "text, message",
    [
        (json.dumps({**CONFIG, "specs": CONFIG["specs"][0]}), "specs must be a list"),
        (json.dumps({**CONFIG, "specs": ["le"]}), "equalizer spec must be an object, got 'le'"),
        (json.dumps([CONFIG]), "config must be an object"),
        (json.dumps({**CONFIG, "trials": 0}), "trials"),
        (json.dumps({**CONFIG, "snr_db": [4000]}), "snr_db 4000.0"),
        (json.dumps({**CONFIG, "snr_db": [-4000]}), "snr_db -4000.0"),
        (json.dumps({**CONFIG, "snr_db": [-3200]}), "snr_db -3200.0"),
        ("{", "Expecting"),
        (None, "No such file"),
    ],
    ids=["specs-object", "spec-string", "top-level-list", "bad-value", "snr-overflow",
         "snr-zero-division", "snr-inf-noise", "not-json", "no-file"],
)
def test_bad_config_gets_one_line_and_exit_code_2(tmp_path, capsys, command, text, message):
    config = tmp_path / "config.json"
    if text is not None:
        config.write_text(text)
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.count("\n") == 1 and message in captured.err
    assert captured.err.startswith(f"lramimo {command}: ")


@pytest.mark.parametrize("command", ["simulate", "compare-reduction"])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_get_one_line_and_exit_code_2(tmp_path, capsys, command, workers):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    assert main([command, "--config", str(config), "--workers", workers]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lramimo {command}: --workers must be >= 1, got {workers}\n"


@pytest.mark.parametrize("command, entry", [
    ("simulate", "run_monte_carlo"), ("compare-reduction", "compare_reduction_targets"),
])
def test_errors_of_the_run_propagate(tmp_path, monkeypatch, command, entry):
    def fails(config, workers):
        raise FactorizationError("breakdown during the run")

    monkeypatch.setattr(cli, entry, fails)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    with pytest.raises(FactorizationError, match="during the run"):
        main([command, "--config", str(config), "--out", str(tmp_path / "out.csv")])


@pytest.mark.parametrize(
    "owner, entry, argv",
    [
        (cli, "run_monte_carlo", ["simulate", "--config", "{config}", "--out", "{missing}/r.csv"]),
        (cli, "run_monte_carlo", ["simulate", "--config", "{config}", "--out", "{tmp}"]),
        (cli, "compare_reduction_targets",
         ["compare-reduction", "--config", "{config}", "--out", "{missing}/r.csv"]),
        (checks, "equivalence_suite", ["equiv-suite", "--instances", "3", "--json", "{missing}/e.json"]),
        (checks, "equivalence_suite", ["equiv-suite", "--instances", "0"]),
        (checks, "equivalence_suite", ["equiv-suite", "--instances", "3", "--seed", "-1"]),
        (cli, "run_monte_carlo", ["simulate", "--config", "{config}", "--out", ""]),
        (cli, "compare_reduction_targets", ["compare-reduction", "--config", "{config}", "--out", ""]),
        (checks, "equivalence_suite", ["equiv-suite", "--instances", "3", "--json", ""]),
        (cli, "run_monte_carlo", ["simulate", "--config", "{config}", "--seed", "-1"]),
        (cli, "compare_reduction_targets", ["compare-reduction", "--config", "{config}", "--seed", "-1"]),
    ],
    ids=["simulate-missing-dir", "simulate-out-is-dir", "compare-missing-dir", "equiv-missing-dir",
         "equiv-no-instances", "equiv-negative-seed", "simulate-empty-out", "compare-empty-out",
         "equiv-empty-json", "simulate-negative-seed", "compare-negative-seed"],
)
def test_bad_arguments_stop_before_the_run(tmp_path, monkeypatch, capsys, owner, entry, argv):
    runs = []
    monkeypatch.setattr(owner, entry, lambda *args, **kwargs: runs.append(args))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    names = {"config": config, "missing": tmp_path / "missing", "tmp": tmp_path}
    assert main([a.format(**names) for a in argv]) == 2
    captured = capsys.readouterr()
    assert runs == [] and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"lramimo {argv[0]}: ")


def test_errors_of_the_suite_propagate(monkeypatch):
    def fails(n_instances, seed):
        raise FactorizationError("breakdown during the suite")

    monkeypatch.setattr(checks, "equivalence_suite", fails)
    with pytest.raises(FactorizationError, match="during the suite"):
        main(["equiv-suite", "--instances", "3"])
