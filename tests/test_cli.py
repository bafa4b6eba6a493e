"""CLI subcommands, document round trips, and exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from cscglue.cli import main, parse_surface, serialize_surface

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "cscglue.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_hj_half():
    code, out, _ = run_cli("hj", "1/2")
    assert code == 0
    assert "-2 -1 -2" in out
    assert "blow-ups over fiber:  2" in out


def test_hj_two_thirds():
    code, out, _ = run_cli("hj", "2/3")
    assert code == 0
    assert "-2 -2 -1 -3" in out


def test_hj_five_sevenths_json():
    code, out, _ = run_cli("hj", "5/7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["digits"] == [2, 2, 3]


def test_hj_bad_fraction():
    code, _, err = run_cli("hj", "7/5")
    assert code == 2
    assert "error" in err


def test_mass_crepant():
    code, out, _ = run_cli("mass", "2/3", "--u", "1,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mu"] == "0"
    assert payload["crepant"] is True
    assert payload["sign"] == "zero"


def test_mass_examples():
    code, out, _ = run_cli("mass", "1/3", "--u", "1", "--json")
    payload = json.loads(out)
    assert payload["mu"] == "-1/3"
    code, out, _ = run_cli("mass", "1/5", "--u", "2", "--json")
    payload = json.loads(out)
    assert payload["mu"] == "-6/5"


def test_mass_levels_route():
    code, out, _ = run_cli("mass", "1/3", "--levels", "2,1,0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["sign"] == "negative"


def test_mass_burns_routes():
    code, out, _ = run_cli("mass", "1/1", "--u", "1", "--json")
    assert code == 0
    assert json.loads(out)["sign"] == "positive"
    code, out, _ = run_cli("mass", "1/1", "--levels", "2,1,0", "--json")
    assert code == 0
    assert json.loads(out)["mu"] == "1/2"


def test_mass_requires_one_route():
    code, _, _ = run_cli("mass", "1/3")
    assert code == 2
    code, _, _ = run_cli("mass", "1/3", "--u", "1", "--levels", "2,1,0")
    assert code == 2


def test_mass_length_mismatch():
    code, _, _ = run_cli("mass", "1/3", "--u", "1,2")
    assert code == 2


def test_blowup_insert():
    code, out, _ = run_cli("blowup-insert", "1/4", "--position", "1", "--u", "1,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["chain"] == [[0, -1], [1, 0], [5, 1], [4, 1], [0, 1]]
    assert payload["per_term"][0]["coefficient"] == "-1/2"
    assert payload["per_term"][1]["coefficient"] == "1/10"


def test_stability_fixture():
    code, out, _ = run_cli("stability", str(FIXTURES / "sphere_four_points.json"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "strictly-polystable"
    assert payload["sporadic"] is False
    assert payload["witness_pair"] is not None


def test_pipeline_exit_codes():
    cases = {
        "sphere_four_points.json": 0,
        "sphere_two_points_half.json": 0,
        "sphere_three_points.json": 0,
        "torus_two_points.json": 0,
        "sporadic_genus1.json": 3,
        "teardrop.json": 4,
        "two_point_distinct.json": 4,
    }
    for name, expected in cases.items():
        code, out, err = run_cli("pipeline", str(FIXTURES / name))
        assert code == expected, f"{name}: {out}{err}"


def test_pipeline_four_point_report():
    code, out, _ = run_cli("pipeline", str(FIXTURES / "sphere_four_points.json"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "feasible"
    assert payload["chi_orb"] == "-1/3"
    assert payload["sfk_possible"] is True
    assert payload["description"] == "CP^2 blown up at 11 points"
    assert payload["blowup_total"] == 10


def test_pipeline_sporadic_note():
    code, out, _ = run_cli("pipeline", str(FIXTURES / "sporadic_genus1.json"), "--json")
    assert code == 3
    payload = json.loads(out)
    assert payload["sporadic"] is True
    assert any("conjectured" in n for n in payload["notes"])


def test_pipeline_bad_document(tmp_path):
    doc = tmp_path / "bad.json"
    doc.write_text("{not json")
    code, _, err = run_cli("pipeline", str(doc))
    assert code == 2
    assert "line" in err
    # Well-formed JSON that is not a surface document: a non-object
    # document and a negative genus.
    for text in ("[1, 2]", '{"genus": -1, "model": "sections"}'):
        doc.write_text(text)
        for command in ("stability", "pipeline"):
            code, _, err = run_cli(command, str(doc))
            assert code == 2, (text, command)
            assert err.startswith("error:"), (text, command)
            assert "Traceback" not in err


def test_metric_verify(tmp_path):
    csv_path = tmp_path / "decay.csv"
    fit_path = tmp_path / "fit.csv"
    code, out, _ = run_cli(
        "metric-verify",
        "1/2",
        "--samples",
        "40",
        "--seed",
        "7",
        "--csv",
        str(csv_path),
        "--fit-csv",
        str(fit_path),
    )
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert "seed 7" in out
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "r,residual"
    values = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(a > b for a, b in zip(values, values[1:]))
    fit_rows = fit_path.read_text().strip().splitlines()
    assert fit_rows[0] == "r,coeff_a,coeff_b"


def test_metric_verify_crepant_mu_near_zero():
    code, out, _ = run_cli("metric-verify", "2/3", "--samples", "40", "--json")
    assert code == 0
    payload = json.loads(out)
    check = {c["name"]: c for c in payload["checks"]}["mass-sign"]
    assert check["passed"]
    assert payload["exact"]["mu"] == "0"


def test_metric_verify_reproducible():
    a = run_cli("metric-verify", "1/2", "--samples", "30", "--seed", "11", "--json")
    b = run_cli("metric-verify", "1/2", "--samples", "30", "--seed", "11", "--json")
    assert a == b


def test_float_levels_warn():
    code, out, err = run_cli("mass", "1/2", "--levels", "1.5,1,0", "--json")
    assert code == 0
    assert "warning" in err
    assert json.loads(out)["mu"] == "0"


def test_metric_verify_bad_args():
    code, _, _ = run_cli("metric-verify", "1/2", "--samples", "3")
    assert code == 2
    code, _, _ = run_cli("metric-verify", "0/2")
    assert code == 2


def test_document_round_trip():
    for name in (
        "sphere_four_points.json",
        "torus_two_points.json",
        "sphere_three_points.json",
    ):
        doc = json.loads((FIXTURES / name).read_text())
        surface, extra = parse_surface(doc)
        again, extra2 = parse_surface(serialize_surface(surface, extra))
        assert surface == again
        assert extra == extra2


def test_document_field_order_independent():
    doc = json.loads((FIXTURES / "sphere_four_points.json").read_text())
    shuffled = dict(reversed(list(doc.items())))
    a, _ = parse_surface(doc)
    b, _ = parse_surface(shuffled)
    assert a == b


def test_exit_codes_total():
    from cscglue.cli import VERDICT_EXIT
    from cscglue.gluing import GluingVerdict

    assert set(VERDICT_EXIT) == set(GluingVerdict)
    assert set(VERDICT_EXIT.values()) <= {0, 3, 4}


def test_main_in_process():
    assert main(["hj", "1/2"]) == 0
    assert main(["pipeline", str(FIXTURES / "teardrop.json")]) == 4
