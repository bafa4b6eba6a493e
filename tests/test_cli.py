"""CLI subcommands, document round trips, and exit codes."""

import hashlib
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from cscglue import cli
from cscglue.cli import main, parse_coord, parse_surface, to_fraction

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def serialize_surface(surface, extra=()):
    """The surface document that parse_surface reads back as (surface, extra)."""
    doc = {
        "genus": surface.genus,
        "model": surface.model,
        "points": list(surface.points),
        "weights": [str(w) for w in surface.weights],
    }
    if surface.model == "trivial-p1":
        doc["incidence"] = [f"{u}:{v}" for u, v in surface.incidence]
    else:
        doc["incidence"] = list(surface.incidence)
    if surface.sections:
        doc["sections"] = [
            {
                "id": s.id,
                "self_intersection": s.self_intersection,
                "contains": sorted(s.contains),
                "disjoint_from": sorted(s.disjoint_from),
            }
            for s in surface.sections
        ]
    if extra:
        doc["extra_points"] = [f"{u}:{v}" for u, v in extra]
    return doc


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
    # 7/2 = 4 - 1/2, and the dual chain is the fiber chain of 2/7.
    assert payload["dual_digits"] == [4, 2]
    assert payload["dual_fiber_chain"] == "-4 -2 -1 -3 -2 -2"


def test_hj_expands_weight_at_most_twice(monkeypatch, capsys):
    from cscglue import cfrac

    calls = []
    build = cfrac._approximants

    def counting(digits):
        calls.append(digits)
        return build(digits)

    # hj_expand builds the pairs once per expansion, whichever module called
    # it.  Only p/q is expanded (100000/1 has the one digit 100000): the dual
    # digits come from runs, with no approximants.
    monkeypatch.setattr(cfrac, "_approximants", counting)
    for fmt in ((), ("--json",)):
        calls.clear()
        assert main(["hj", "1/100000", *fmt]) == 0
        assert calls == [(100000,)]
    capsys.readouterr()


def test_hj_builds_each_string_once(monkeypatch, capsys):
    from cscglue import resolution

    calls = []
    build = resolution._string

    def counting(p, q):
        calls.append((p, q))
        return build(p, q)

    # The chain is joined from the strings, not built from them again.
    monkeypatch.setattr(resolution, "_string", counting)
    for fmt in ((), ("--json",)):
        calls.clear()
        assert main(["hj", "5/7", *fmt]) == 0
        assert calls == [(5, 7), (2, 7)]
    capsys.readouterr()


def test_hj_counts_blowups_once(monkeypatch, capsys):
    # check_hj_size counts before anything is built; the printed count is
    # read off the strings cmd_hj has built.
    calls = []
    count = cli.blowup_count

    def counting(weight):
        calls.append(weight)
        return count(weight)

    monkeypatch.setattr(cli, "blowup_count", counting)
    for fmt in ((), ("--json",)):
        calls.clear()
        assert main(["hj", "5/7", *fmt]) == 0
        assert calls == [Fraction(5, 7)]
    capsys.readouterr()


def test_hj_json_matches_resolution(capsys):
    # The resolution functions expand the weight on their own: they are
    # the oracle for the chain, the strings and the blow-up count.
    from math import gcd

    from cscglue.resolution import blowup_count, fiber_chain, format_chain, singular_strings

    for q in range(2, 16):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            assert main(["hj", f"{p}/{q}", "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            alpha = Fraction(p, q)
            chain = fiber_chain(alpha)
            left, right = singular_strings(alpha)
            assert payload["fiber_chain"] == format_chain(chain)
            assert payload["dual_fiber_chain"] == format_chain(chain[::-1])
            assert payload["singular_strings"] == [format_chain(left), format_chain(right)]
            assert payload["digits"] == [-e for e in left]
            assert payload["dual_digits"] == [-e for e in right]
            assert payload["blowup_count"] == blowup_count(alpha)


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


def test_infinite_u_is_an_input_error(capsys):
    for args in (("mass", "2/5", "--u", "inf,1"), ("blowup-insert", "2/5", "--position", "1", "--u", "inf,1,1")):
        for fmt in ((), ("--json",)):
            assert main([*args, *fmt]) == 2
            assert capsys.readouterr() == ("", "error: u parameters must be finite\n")


def test_blowup_insert_position_range():
    # 1/4 has k = 1: position 0 would insert ahead of (1, 0), and k + 1 is
    # the deleted asymptotic point.
    for position in ("0", "2"):
        code, out, err = run_cli("blowup-insert", "1/4", "--position", position)
        assert code == 2
        assert err.startswith("error: position must be in 1..1")
        assert out == ""


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
        # The diagonal through all three points has slope 2 - 9/4 < 0.
        "sphere_three_points_diagonal.json": 4,
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
    # A UTF-8 byte order mark is refused as json.load refuses it.
    doc.write_text("\ufeff" + (FIXTURES / "torus_two_points.json").read_text(), encoding="utf-8")
    for command in ("stability", "pipeline"):
        code, out, err = run_cli(command, str(doc))
        assert (code, out) == (2, ""), command
        assert err == f"error: {doc}: line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)\n"
    # Well-formed JSON that is not a surface document: a non-object
    # document, a negative genus, a genus or self-intersection that is
    # not a JSON integer (1.9 must not truncate to 1), disjoint sections
    # with S1^2 = S2^2 = -1, and sections with S1^2 = -1, S2^2 = -3, which
    # would meet in -2 points: no ruled surface has either pair.
    torus = json.loads((FIXTURES / "torus_two_points.json").read_text())
    sections = json.loads((FIXTURES / "sporadic_genus1.json").read_text())
    sections["sections"][0]["self_intersection"] = 0.5
    unrealizable = {
        "genus": 1,
        "model": "sections",
        "points": ["P1", "P2"],
        "weights": ["1/2", "1/2"],
        "incidence": ["S3", "S3"],
        "sections": [
            {"id": "S1", "self_intersection": -1, "disjoint_from": ["S2"]},
            {"id": "S2", "self_intersection": -1, "disjoint_from": ["S1"]},
            {"id": "S3", "self_intersection": 3},
        ],
    }
    negative_meeting = {
        "genus": 0,
        "model": "sections",
        "points": ["P1", "P2", "P3"],
        "weights": ["1/2", "1/2", "1/2"],
        "incidence": ["S1", "S1", "S2"],
        "sections": [
            {"id": "S1", "self_intersection": -1, "contains": ["P1", "P2"]},
            {"id": "S2", "self_intersection": -3, "contains": ["P3"]},
        ],
    }
    for text in (
        "[1, 2]",
        '{"genus": -1, "model": "sections"}',
        json.dumps({**torus, "genus": 1.9}),
        json.dumps({**torus, "genus": True}),
        json.dumps({**torus, "genus": "1"}),
        json.dumps(sections),
        json.dumps(unrealizable),
        json.dumps(negative_meeting),
    ):
        doc.write_text(text)
        for command in ("stability", "pipeline"):
            code, _, err = run_cli(command, str(doc))
            assert code == 2, (text, command)
            assert err.startswith("error:"), (text, command)
            assert "Traceback" not in err
        if text == json.dumps(unrealizable):
            assert "need S2^2 = -S1^2, got -1 and -1" in err
    assert "S2 and S1 meet in (S2^2 + S1^2)/2 >= 0 points, got -3 and -1" in err


def test_point_on_two_sections_is_a_bad_document():
    # The incidence rule is the library's: the CLI reports it as any other
    # refusal of the surface.
    doc = {
        "genus": 1,
        "model": "sections",
        "points": ["P1", "P2"],
        "weights": ["1/2", "1/2"],
        "incidence": ["S1", "S2"],
        "sections": [
            {"id": "S1", "disjoint_from": ["S2"]},
            {"id": "S2", "contains": ["P1"], "disjoint_from": ["S1"]},
        ],
    }
    with pytest.raises(ValueError, match="^bad surface document: point P1 has incidence S1 "
                                         "but is listed in contains of section S2$"):
        parse_surface(doc)


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
    assert len(fit_rows) == 1 + 25


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


def _main(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_size_refusal_names_long_weights_by_size(tmp_path, capsys):
    # A weight up to MAX_QUOTED characters is quoted whole; a longer one is
    # named by the digits of its denominator, and its count by its length.
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"genus": 0, "points": ["a", "b"], "weights": ["1e-400", "1/2"],
                               "incidence": ["0:1", "1:0"]}))
    code, out, err = _main(capsys, "pipeline", str(doc))
    assert (code, out) == (2, "")
    assert err == ("error: weight with a 401-digit denominator expands to a 401-digit number of"
                   " HJ digits with its dual, more than the 100000 supported\n")
    assert len(err.encode()) < 200
    q = 10 ** 37 + 1
    assert len(f"1/{q}") == cli.MAX_QUOTED
    assert _main(capsys, "hj", f"1/{q}")[2] == (
        f"error: weight 1/{q} expands to {q} HJ digits with its dual, more than the 100000 "
        "supported\n")
    assert _main(capsys, "mass", f"1/{10 * q}", "--u", "1")[2] == (
        "error: weight with a 39-digit denominator expands to a 39-digit number of HJ digits "
        "with its dual, more than the 100000 supported\n")


def test_decimal_levels_are_exact(capsys):
    # A decimal, its exponent form and the fraction are one number: the
    # same output, and nothing on stderr.
    for fmt in ((), ("--json",)):
        runs = [_main(capsys, "mass", "1/2", "--levels", f"{top},1,0", *fmt)
                for top in ("1.5", "15e-1", "3/2")]
        assert runs[0] == runs[1] == runs[2], fmt
        assert runs[0][0] == 0 and runs[0][2] == "", fmt
    assert json.loads(_main(capsys, "mass", "1/2", "--levels", "1.5,1,0", "--json")[1])["mu"] == "0"


def test_decimal_inputs_read_from_their_text(capsys, tmp_path):
    # A positive level below float's 1e-12 denominator limit stays positive.
    tiny = _main(capsys, "mass", "1/3", "--levels", "2,0.0000000000001,0", "--json")
    assert tiny == _main(capsys, "mass", "1/3", "--levels", "2,1/10000000000000,0", "--json")
    assert tiny[0] == 0 and tiny[2] == ""
    # Sixteen threes are 3333333333333333/10^16, not 1/3.
    threes = _main(capsys, "mass", "1/3", "--levels", "2,0.3333333333333333,0", "--json")
    assert threes == _main(capsys, "mass", "1/3", "--levels",
                           "2,3333333333333333/10000000000000000,0", "--json")
    assert threes != _main(capsys, "mass", "1/3", "--levels", "2,1/3,0", "--json")
    # --u takes decimals the same way, without a warning.
    assert _main(capsys, "mass", "1/3", "--u", "0.1") == _main(capsys, "mass", "1/3", "--u", "1/10")
    assert _main(capsys, "mass", "1/3", "--u", "0.1")[2] == ""
    # A JSON number weight is read from its text, like the same text as a string.
    for number, frac in (("0.33333333333333333333", Fraction(33333333333333333333, 10**20)),
                         ("1e-400", Fraction(1, 10**400))):
        runs = []
        for weight in (number, json.dumps(number)):
            doc = tmp_path / "doc.json"
            doc.write_text(f'{{"points": ["P"], "weights": [{weight}], "incidence": ["1:0"]}}')
            runs.append(_main(capsys, "stability", str(doc), "--json"))
        assert runs[0] == runs[1], number
        assert runs[0][0] == 0 and runs[0][2] == "", number
        assert json.loads(runs[0][1])["min_slope"] == str(-frac), number


def test_zero_denominator_names_the_text(capsys, tmp_path):
    # Every text that Fraction reads as p/0, Unicode zeros included.
    for text in ("1/0", "-3/00", " 1_0/0_0 ", "+0/0", "7/\u0660", "\u0661/\u0966\u0966"):
        with pytest.raises(ValueError, match="zero denominator in ") as info:
            to_fraction(text)
        assert type(info.value) is ValueError and repr(text) in str(info.value), text
    # Spaces around the slash: Python 3.12 reads p / 0 and divides by zero,
    # earlier versions refuse the literal.  Either way one ValueError.
    with pytest.raises(ValueError, match="zero denominator in |Invalid literal") as info:
        to_fraction("1 / 0")
    assert type(info.value) is ValueError
    doc = tmp_path / "doc.json"
    doc.write_text('{"points": ["P"], "weights": ["0/0"], "incidence": ["1:0"]}')
    for argv in (("hj", "1/0"), ("mass", "1/3", "--u", "1/0"), ("stability", str(doc))):
        code, out, err = _main(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and "zero denominator in '" in err, argv
        assert "Fraction(" not in err, argv
    doc.write_text('{"points": ["P"], "weights": ["1 / 0"], "incidence": ["1:0"]}')
    for argv in (("hj", "1 / 0"), ("mass", "1/3", "--levels", "1 / 0,0"), ("stability", str(doc))):
        code, out, err = _main(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_metric_verify_bad_args(tmp_path):
    code, _, _ = run_cli("metric-verify", "1/2", "--samples", "0")
    assert code == 2
    code, _, _ = run_cli("metric-verify", "0/2")
    assert code == 2
    unwritable = str(tmp_path / "missing" / "x.csv")
    for option in ("--csv", "--fit-csv"):
        code, out, err = run_cli("metric-verify", "1/2", "--samples", "20", option, unwritable)
        assert code == 2, option
        assert err.startswith("error: cannot write"), option
        assert "Traceback" not in err


def test_input_size_bounds(tmp_path, capsys):
    # Huge decimal exponents, numbers past the int('...') digit limit and
    # weights with millions of HJ digits exit 2 at once; stability expands
    # no weight and stays unbounded.
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"genus": 0, "points": ["a", "b"],
                               "weights": [f"1/{10**20 + 1}", "1/2"],
                               "incidence": ["0:1", "1:0"]}))
    big_genus = tmp_path / "genus.json"
    big_genus.write_text('{"genus": 1' + "0" * 5000 + "}")
    for args in (
        ["hj", "1/1000000007"],
        ["hj", "1/100003"],
        ["hj", "1e-4000000"],
        ["hj", "1e-4300"],
        ["hj", "0." + "3" * 4300],
        ["mass", "1/1000000007", "--u", "1"],
        ["mass", "1/3", "--levels", "1e-4000000,0"],
        ["blowup-insert", "1/1000000007", "--position", "1"],
        ["pipeline", str(doc)],
        ["pipeline", str(big_genus)],
    ):
        start = time.perf_counter()
        assert main(args) == 2, args
        assert time.perf_counter() - start < 1.0, args
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, args
    assert main(["hj", "1/99999"]) == 0
    assert main(["stability", str(doc)]) == 0


def test_each_value_rule_is_refused_once_by_the_library(tmp_path, capsys):
    # The CLI only parses text: each refusal is the library's own message,
    # which main prints as one error: line.
    from cscglue.metricnum import verify_metric
    from cscglue.parabolic import ParabolicSurface, split_weight

    doc = tmp_path / "genus.json"
    doc.write_text('{"genus": "1", "points": [], "weights": [], "incidence": []}')
    for kind, call, argv, prefix in (
        (ValueError, lambda: split_weight(Fraction(7, 5)), ["hj", "7/5"], ""),
        (TypeError, lambda: ParabolicSurface(genus="1", points=(), weights=(), incidence=()),
         ["stability", str(doc)], "bad surface document: "),
        (ValueError, lambda: verify_metric(1, 2, samples=0),
         ["metric-verify", "1/2", "--samples", "0"], ""),
    ):
        with pytest.raises(kind) as info:
            call()
        assert _main(capsys, *argv) == (2, "", f"error: {prefix}{info.value}\n"), argv


def test_metric_verify_takes_the_library_sample_floor(capsys):
    # Five samples are below the old CLI floor of 10; 4/9 passes every check.
    code, out, err = _main(capsys, "metric-verify", "4/9", "--samples", "5")
    assert (code, err) == (0, "") and out.endswith("all checks passed\n")


def test_log_coefficients_beyond_float_range_exit_2(capsys):
    # float(mu) would raise OverflowError; metricnum.check_float_range
    # refuses first, for the mass payload and for verify_metric alike.
    for argv in (["mass", "1/3", "--u", "1e400"],
                 ["mass", "1/1", "--u", "1e400"],
                 ["mass", "1/3", "--levels", "2,1e-400,0"],
                 ["blowup-insert", "1/3", "--position", "1", "--u", "1e400,1"],
                 ["metric-verify", "1/3", "--levels", "2,1e-400,0"]):
        for fmt in ((), ("--json",)):
            assert _main(capsys, *argv, *fmt) == (
                2, "", "error: log coefficients a, b, mu outside the float range\n"), argv
    code, out, _ = _main(capsys, "mass", "1/3", "--u", "1e308")
    assert code == 0 and "(-3.33333e+307)" in out


def test_refusals_stay_one_line(tmp_path, capsys):
    # A document nested beyond the recursion limit is refused, not a
    # RecursionError; a path or document text with a line break in it is
    # quoted with the break escaped.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    doc = tmp_path / "sections.json"
    doc.write_text(json.dumps({
        "genus": 1, "model": "sections", "points": ["P"], "weights": ["1/2"], "incidence": ["S\nT"],
        "sections": [{"id": "S\nT", "self_intersection": "0"}]}))
    missing = tmp_path / "no\nsuch"
    for argv, start in (
        (["stability", str(deep)], f"error: {deep}: "),
        (["pipeline", str(missing / "doc.json")], f"error: cannot read {tmp_path}/no\\nsuch/doc.json: "),
        (["metric-verify", "1/2", "--samples", "3", "--csv", str(missing / "x.csv")],
         f"error: cannot write {tmp_path}/no\\nsuch/x.csv: "),
        (["stability", str(doc)], "error: bad surface document: self_intersection of section S\\nT "),
    ):
        code, out, err = _main(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith(start) and err.count("\n") == 1, (argv, err)


def test_section_without_id_is_named(tmp_path, capsys):
    doc = tmp_path / "sections.json"
    doc.write_text(json.dumps({
        "genus": 1, "model": "sections", "points": ["a"], "weights": ["1/2"], "incidence": ["S"],
        "sections": [{"id": "S", "disjoint_from": ["T"]}, {"contains": ["a"]}]}))
    for command in ("stability", "pipeline"):
        assert _main(capsys, command, str(doc)) == (
            2, "", 'error: bad surface document: sections[1] has no "id"\n'), command


_SECTIONS_DOC = {"genus": 1, "model": "sections", "points": ["P1"], "weights": ["1/2"],
                 "incidence": ["S1"], "sections": [{"id": "S1", "contains": ["P1"]}]}


@pytest.mark.parametrize("change, message", [
    ({"sections": [1]}, "sections[0] must be a JSON object, got int"),
    ({"sections": ["id"]}, "sections[0] must be a JSON object, got str"),
    ({"sections": 5}, "sections must be a JSON array, got int"),
    ({"points": 5}, "points must be a JSON array, got int"),
    ({"points": "P1"}, "points must be a JSON array, got str"),
    ({"weights": 5}, "weights must be a JSON array, got int"),
    ({"weights": "1/2"}, "weights must be a JSON array, got str"),
    ({"incidence": 5}, "incidence must be a JSON array, got int"),
    ({"incidence": {"P1": "S1"}}, "incidence must be a JSON array, got dict"),
    ({"extra_points": 5}, "extra_points must be a JSON array, got int"),
    ({"extra_points": "1:0"}, "extra_points must be a JSON array, got str"),
    ({"sections": [{"id": "S1", "contains": 5}]}, "sections[0].contains must be a JSON array, got int"),
    ({"sections": [{"id": "S1", "contains": "P1"}]},
     "sections[0].contains must be a JSON array, got str"),
    ({"sections": [{"id": "S1", "contains": ["P1"]}, {"id": "S2", "disjoint_from": "S1"}]},
     "sections[1].disjoint_from must be a JSON array, got str"),
])
def test_list_fields_of_the_wrong_json_type_are_named(tmp_path, capsys, change, message):
    # A JSON string is no list of its characters, and a number is no list at all.
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({**_SECTIONS_DOC, **change}))
    for command in ("stability", "pipeline"):
        assert _main(capsys, command, str(doc)) == (
            2, "", f"error: bad surface document: {message}\n"), command


def _fibonacci_weights():
    """F(n-2)/F(n) and F(n-3)/F(n-1) for the first 4,299-digit F(n), and
    their complements: coprime denominators whose lcm has 8,597 digits."""
    fib = [0, 1]
    while len(str(fib[-1])) < 4299:
        fib.append(fib[-1] + fib[-2])
    weights = [Fraction(fib[-3], fib[-1]), Fraction(fib[-4], fib[-2])]
    return [str(w) for w in weights + [1 - w for w in weights]]


def test_slope_denominators_beyond_max_digits_are_one_refusal(tmp_path, capsys):
    nines = tmp_path / "nines.json"
    nines.write_text(json.dumps({"points": ["A", "B"], "weights": ["1/" + "9" * 4300, "1/2"],
                                 "incidence": ["1:0", "0:1"]}))
    fibonacci = tmp_path / "fibonacci.json"
    fibonacci.write_text(json.dumps({"points": ["A", "B", "C", "D"],
                                     "weights": _fibonacci_weights(),
                                     "incidence": ["1:0", "1:0", "0:1", "0:1"]}))
    message = (f"error: the weight denominators have an lcm of more than {cli.MAX_DIGITS} digits, "
               "the most a slope or chi_orb may print\n")
    for doc in (nines, fibonacci):
        for command in ("stability", "pipeline"):
            start = time.perf_counter()
            assert _main(capsys, command, str(doc)) == (2, "", message), (doc.name, command)
            assert time.perf_counter() - start < 1.0, (doc.name, command)


def test_feasible_row_of_3000_mixed_points_prints_its_witness(tmp_path, capsys):
    # The witness of a long row with many distinct entries stays as short
    # as its entries; a witness built on the exact row sum would not print.
    from test_exactlp import assert_sign_witness

    extra = [f"{i + 1}:{7 * i + 3}" if i % 2 == 0 else f"{7 * i + 3}:{i + 1}" for i in range(3000)]
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"points": ["P1", "P2", "P3", "P4"], "weights": ["1/2"] * 4,
                               "incidence": ["1:0", "0:1", "1:0", "0:1"], "extra_points": extra}))
    code, out, err = _main(capsys, "pipeline", str(doc), "--json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["verdict"] == "feasible"
    row = [Fraction(x) for x in report["gluing"]["matrix"][0]]
    assert_sign_witness(row, [Fraction(x) for x in report["gluing"]["kernel_witness"]])
    assert max(map(len, report["gluing"]["kernel_witness"])) < 20


def test_stable_surface_labels_its_extra_point_columns(tmp_path, capsys):
    # No kernel function: each extra point is a zero column, labelled as
    # in the two-fixed-point case.
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"points": ["a", "b", "c"], "weights": ["1/5"] * 3,
                               "incidence": ["0:1", "1:1", "1:0"],
                               "extra_points": ["1:2", "3:1"]}))
    code, out, err = _main(capsys, "pipeline", str(doc), "--json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["stability"], report["verdict"]) == ("stable", "feasible")
    assert report["gluing"] == {"matrix": [], "columns": ["extra:[1/2:1]", "extra:[3:1]"],
                                "c1": 0, "c2": 2, "positive_kernel": True,
                                "kernel_witness": ["1", "1"]}
    code, out, err = _main(capsys, "pipeline", str(doc))
    assert (code, err) == (0, "")
    assert "  columns: extra:[1/2:1], extra:[3:1]\n" in out


def test_metric_verify_input_bounds():
    from cscglue.metricnum import MAX_LEVELS, MAX_SAMPLES

    # (q-1)/q needs q + 1 levels; the check must not build the q - 1
    # digits first, so a huge q is as quick to reject as a small one.
    for args in (
        ("1/2", "--samples", str(MAX_SAMPLES + 1)),
        (f"{MAX_LEVELS - 1}/{MAX_LEVELS}",),
        ("999999/1000000",),
        (f"{10**30 - 1}/{10**30}",),
        # Above q = 2**53 floats cannot hold the charges exactly.
        (f"1/{10**17}",),
        (f"1/{10**400}",),
        # A level, or the coefficient a ~ 1/y of a tiny level, without a float.
        ("1/2", "--levels", "1e400,1,0"),
        ("1/2", "--levels", "1,1e-400,0"),
    ):
        code, out, err = run_cli("metric-verify", *args)
        assert code == 2, args
        assert err.startswith("error:"), args
        assert out == ""


def test_metric_verify_degenerate_levels_one_line():
    # The determinant underflows to 0 at every sample; the error names the
    # count, the minimum and the first point, not the whole sample batch.
    code, out, err = run_cli(
        "metric-verify", "1/2", "--levels", "4e-290,1e-290,0", "--samples", "10")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("error: invalid monopole data: determinant <= 0 at "), err


def test_metric_verify_overflow_prints_no_warning():
    # Both level lists overflow inside numpy batches.  The run ends in its
    # one error line or in a failing check, with no numpy warning on stderr.
    code, out, err = run_cli(
        "metric-verify", "1/2", "--levels", "1e300,1e-300,0", "--samples", "10")
    assert code == 2 and out == ""
    assert err.startswith("error: invalid monopole data:") and len(err.splitlines()) == 1, err
    code, out, err = run_cli("metric-verify", "1/2", "--levels", "1e300,1,0", "--samples", "10")
    assert code == 1 and err == ""
    assert "SOME CHECKS FAILED" in out


def test_mass_sign_fails_with_failed_fit():
    # a ~ -1e300 widens the mass-sign zero band to ~1e298; a sign read off
    # a fit that missed by a relative error of 1 must not pass.
    code, out, _ = run_cli("metric-verify", "1/2", "--levels", "1,1e-300,0", "--samples", "10")
    assert code == 1
    assert "FAIL  asymptotic-fit" in out
    assert "FAIL  mass-sign" in out


def test_broken_pipe_exit_code():
    # The reader closes the pipe before the command writes its report.
    proc = subprocess.Popen(
        [sys.executable, "-m", "cscglue.cli", "pipeline",
         str(FIXTURES / "torus_two_points.json"), "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err and "BrokenPipeError" not in err


def _via_to_fraction(text):
    """The reference route for parse_coord: every part through to_fraction."""
    try:
        u, v = (to_fraction(part) for part in text.split(":"))
    except ValueError as exc:
        return f"cannot parse coordinate {text!r}: {exc}"
    return (u.numerator * v.denominator, v.numerator * u.denominator)


def _parse_coord_or_message(text):
    try:
        return parse_coord(text)
    except ValueError as exc:
        return str(exc)


def test_parse_coord_integer_path_matches_to_fraction(monkeypatch):
    integers = (" 12 ", "+5", "-0", "007", "1_000", "\u0661\u0662", "3")
    rationals = ("1/2", "-7/3", "1e3")
    calls = []
    monkeypatch.setattr(cli, "to_fraction", lambda text: calls.append(text) or to_fraction(text))
    for a in integers + rationals:
        for b in integers + rationals:
            text = f"{a}:{b}"
            got = parse_coord(text)
            assert got == _via_to_fraction(text), text
            assert all(type(x) is int for x in got), text
    # Only the parts that are not integer literals went through to_fraction.
    assert set(calls) == set(rationals)
    for bad in ("1__0", "_1", "0x10"):
        for text in (f"{bad}:1", f"1:{bad}"):
            assert _parse_coord_or_message(text) == _via_to_fraction(text), text


def test_parse_coord_digit_bound():
    ok, over = "9" * 4300, "9" * 4301
    assert parse_coord(f"{ok}:-{ok}") == (int(ok), -int(ok))
    limit = sys.get_int_max_str_digits()
    try:
        for digits in (limit, 0):
            sys.set_int_max_str_digits(digits)
            for text in (f"{over}:1", f"1:-{over}"):
                message = _parse_coord_or_message(text)
                assert message == _via_to_fraction(text), (digits, text)
                assert message.startswith(f"cannot parse coordinate {text!r}: "), digits
    finally:
        sys.set_int_max_str_digits(limit)


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


def test_main_dispatches_to_rebound_handler(monkeypatch):
    # The parser is built once per process; a handler rebound after that
    # (as tracing tools and tests do) must still be the one called.
    from cscglue import cli

    assert main(["hj", "1/2"]) == 0
    monkeypatch.setattr(cli, "cmd_hj", lambda args: (7, {}, list))
    monkeypatch.setattr(cli, "cmd_metric_verify", lambda args: (8, {}, list))
    assert main(["hj", "1/2"]) == 7
    assert main(["metric-verify", "1/2"]) == 8


def test_section_refusals_name_long_self_intersections_by_size(tmp_path, capsys):
    # The parity, disjoint and meet rules quote a self-intersection of more
    # than MAX_QUOTED characters by its digit count, as the weight refusal does.
    big = 10 ** 4299
    doc = json.loads((FIXTURES / "sporadic_genus1.json").read_text())
    meeting = {**doc, "sections": [{k: v for k, v in s.items() if k != "disjoint_from"}
                                   for s in doc["sections"]]}
    path = tmp_path / "doc.json"
    for base, (s1, s2), message in (
        (doc, (big, big), "disjoint sections S1 and S2 need S2^2 = -S1^2, got a 4300-digit "
                          "number and a 4300-digit number"),
        (doc, (big, big + 1), "sections S1 and S2 have self-intersections a 4300-digit number "
                              "and a 4300-digit number of different parity"),
        (meeting, (-big, -big), "distinct sections S1 and S2 meet in (S1^2 + S2^2)/2 >= 0 points, "
                                "got a negative 4300-digit number and a negative 4300-digit number"),
        (doc, (1, 2), "sections S1 and S2 have self-intersections 1 and 2 of different parity"),
    ):
        sections = [{**s, "self_intersection": n} for s, n in zip(base["sections"], (s1, s2))]
        path.write_text(json.dumps({**base, "sections": sections}))
        for command in ("stability", "pipeline"):
            code, out, err = _main(capsys, command, str(path))
            assert (code, out) == (2, ""), command
            assert err.startswith(f"error: bad surface document: {message}"), err[:200]
            assert err.count("\n") == 1 and len(err.encode()) < 300


def _u_2002():
    rng = random.Random(2003)
    return ",".join(f"{rng.randint(1, 10)}/{rng.randint(1, 10)}" for _ in range(2002))


# SHA-256 of stdout for long chains, whose exact sums run over many leaves.
LONG_CHAIN_DIGESTS = {
    ("blowup-insert", ""): "4e46bd613c001cfc898e07fd8375b576e4a74f83e25e290b702001fb0e0cf99a",
    ("blowup-insert", "--json"): "aea3660ec9dfbe5c2377300323009553ff4d30be25cb3bf586a05a5a1c093a3f",
    ("mass", ""): "9fcc6ed979cb319073a04ca33bcf7bfbf1ec0f6741f64bc69bc99f8866e37846",
    ("mass", "--json"): "f3ba8c03fb41228a1d979edfdda0d133f457ea8a8cecf317eb6367f8317536e7",
}


@pytest.mark.parametrize("command, fmt", sorted(LONG_CHAIN_DIGESTS))
def test_long_chain_output_digests(command, fmt, capsys):
    argv = {"blowup-insert": ["blowup-insert", "5999/6000", "--position", "5999"],
            "mass": ["mass", "2002/2003", "--u", _u_2002()]}[command]
    code, out, err = _main(capsys, *argv, *filter(None, [fmt]))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == LONG_CHAIN_DIGESTS[command, fmt]
