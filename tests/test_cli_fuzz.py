"""Fuzz the CLI input parsers and whole commands.

Every parser input parses or raises ValueError: ``cli.main`` maps
``ValueError`` to exit 2 with a one-line message, so an input that raises
anything else would end in a traceback instead.  The command properties
run ``cli.main`` itself on every subcommand, with numbers at and beyond
each stated input bound.
"""

import contextlib
import io
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cscglue.cli import (
    MAX_DIGITS,
    MAX_HJ_DIGITS,
    load_document,
    main,
    parse_coord,
    parse_fraction,
    parse_rational_list,
    parse_surface,
)
from cscglue.metricnum import MAX_LEVELS, MAX_Q, MAX_SAMPLES

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

FUZZ = settings(max_examples=150, deadline=None)

# Numeric-looking tokens reach deeper than uniform text: signs, slashes,
# decimal points, exponents (with overflowing floats) and the infinities.
numeric_token = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.tuples(st.integers(-50, 50), st.integers(-5, 50)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.tuples(st.integers(-9, 9), st.integers(-400, 400)).map(lambda t: f"{t[0]}.5e{t[1]}"),
    st.sampled_from(["inf", "infinity", "-inf", "nan", "", " ", "1/", "/2", "1//2", "0x10",
                     "1_000", "½", "1e", ".", "-"]),
)
token = st.one_of(numeric_token, st.text(max_size=12))
text = st.one_of(token, st.lists(token, max_size=6).map(",".join), st.text(max_size=40))

json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | token,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(token, children, max_size=4),
    max_leaves=12,
)

surface_document = st.fixed_dictionaries(
    {},
    optional={
        "genus": st.one_of(st.integers(-2, 3), json_value),
        "model": st.one_of(st.sampled_from(["trivial-p1", "sections", "other"]), json_value),
        "points": st.one_of(st.lists(st.sampled_from(["a", "b", "c", "[0:1]"]), max_size=4),
                            json_value),
        "weights": st.one_of(st.lists(numeric_token, max_size=4), json_value),
        "incidence": st.one_of(
            st.lists(st.sampled_from(["0:1", "1:0", "1:1", "S", "T", "1:0:1", "x"]), max_size=4),
            json_value),
        "sections": st.one_of(
            st.lists(st.fixed_dictionaries({"id": st.sampled_from(["S", "T"])}, optional={
                "self_intersection": json_value,
                "contains": st.one_of(st.lists(st.sampled_from(["a", "b"])), json_value),
                "disjoint_from": json_value,
            }), max_size=3),
            json_value),
        "extra_points": st.one_of(st.lists(st.sampled_from(["0:1", "2:3", "a:b", "1"])),
                                  json_value),
    },
)


# metric-verify levels: exponents near both ends of the float range
# (about 1e-324 to 1e308) reach the conversions to float, small ones the
# checks themselves.
level_token = st.one_of(
    st.tuples(st.integers(1, 9),
              st.one_of(st.integers(-420, -290), st.integers(290, 420), st.integers(-20, 20)))
    .map(lambda t: f"{t[0]}e{t[1]}"),
    st.integers(1, 3).map(str),
    st.just("inf"),
)


def _descending(tokens):
    return sorted(tokens, key=lambda t: math.inf if t == "inf" else Fraction(t), reverse=True)


# Half the lists are decreasing and end in 0, so that they get past the
# level validation into verify_metric unless an inner level is infinite.
level_list = st.one_of(
    st.lists(level_token, min_size=2, max_size=2, unique=True).map(lambda ts: _descending(ts) + ["0"]),
    st.lists(level_token, min_size=3, max_size=3),
).map(",".join)


def parses_or_value_error(parse, value):
    """None if ``parse(value)`` returns, else the message of its ValueError."""
    try:
        parse(value)
    except ValueError as exc:
        return str(exc)
    return None


@FUZZ
@given(text)
def test_parse_fraction_fuzz(value):
    parses_or_value_error(parse_fraction, value)


@FUZZ
@given(text)
def test_parse_rational_list_fuzz(value):
    parses_or_value_error(parse_rational_list, value)


@FUZZ
@given(st.one_of(text, st.tuples(token, token).map(":".join), json_value))
def test_parse_coord_fuzz(value):
    parses_or_value_error(parse_coord, value)


@FUZZ
@given(st.one_of(surface_document, json_value))
def test_parse_surface_fuzz(doc):
    # One prefix for every refusal, the library's included.
    message = parses_or_value_error(parse_surface, doc)
    assert message is None or message.startswith(
        ("bad surface document: ", "surface document must be a JSON object")), message


@FUZZ
@given(st.one_of(st.text(max_size=60), surface_document.map(json.dumps)))
def test_load_document_fuzz(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    path.write_text(content)
    parses_or_value_error(lambda p: parse_surface(load_document(p)), str(path))


@settings(max_examples=50, deadline=None)
@given(level_list)
def test_metric_verify_levels_fuzz(levels):
    # "--levels=" keeps a list that starts with "-" an option value.
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["metric-verify", "1/2", f"--levels={levels}", "--samples", "10"])
    assert code in (0, 1, 2)


def test_fuzz_failures_exit_2(tmp_path, capsys):
    # The ValueError path through main: exit 2 and a one-line message.
    bad = tmp_path / "bad.json"
    bad.write_text('{"weights": ["1.5e999"], "points": ["a"], "incidence": ["0:1"]}')
    assert main(["stability", str(bad)]) == 2
    assert main(["mass", "1/3", "--levels", "1.5e999,0"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert all(line.startswith("error:") for line in err.splitlines())


def _decimal_text(frac: Fraction, exponent_form: bool) -> str:
    """The exact decimal of a Fraction whose denominator is 2^a 5^b."""
    places = 0
    while (frac * 10**places).denominator != 1:
        places += 1
    digits = str(abs(frac.numerator * 10**places // frac.denominator))
    sign = "-" if frac < 0 else ""
    if exponent_form:
        return f"{sign}{digits}e-{places}"
    digits = digits.rjust(places + 1, "0")
    return f"{sign}{digits[:len(digits) - places]}.{digits[len(digits) - places:]}"


@FUZZ
@given(st.integers(-10**30, 10**30), st.integers(0, 60), st.integers(0, 60), st.booleans())
def test_decimal_text_reads_back_exactly(numerator, twos, fives, exponent_form):
    frac = Fraction(numerator, 2**twos * 5**fives)
    text = _decimal_text(frac, exponent_form)
    assert parse_rational_list(text) == [frac], text
    assert parse_rational_list(f"{text},{text}") == [frac, frac], text


# ---------------------------------------------------------------------------
# Whole commands through main.  Whatever the argv, a run ends in an exit
# code its subcommand documents; exit 2 prints nothing on stdout and one
# error: line on stderr; no exception escapes.  argparse refuses its own
# malformed options with its usage text and SystemExit(2).

BOUNDS = (MAX_DIGITS, MAX_HJ_DIGITS, MAX_Q, MAX_LEVELS, MAX_SAMPLES)
near_bound = st.sampled_from(BOUNDS).flatmap(lambda n: st.sampled_from((n - 1, n, n + 1)))
# Numbers at and beyond each stated bound: past the float range, with
# MAX_DIGITS digits and one more, and the integer bounds themselves.
bound_number = st.one_of(
    near_bound.map(str),
    st.sampled_from(["1e400", "-1e400", "1e-400", "1.5e-400", "9" * MAX_DIGITS,
                     "9" * (MAX_DIGITS + 1), f"1e{MAX_DIGITS}", f"1e-{MAX_DIGITS + 1}"]),
)
any_number = st.one_of(numeric_token, bound_number)
small_weight = st.integers(2, 13).flatmap(lambda q: st.integers(1, q - 1).map(lambda p: f"{p}/{q}"))
weight = st.one_of(
    small_weight,
    near_bound.map(lambda n: f"1/{n}"),
    near_bound.map(lambda n: f"{n - 1}/{n}"),
    bound_number.map(lambda t: f"1/{t}"),
    any_number,
)
small_positive = st.tuples(st.integers(1, 9), st.integers(1, 9)).map(lambda t: f"{t[0]}/{t[1]}")
u_list = st.lists(st.one_of(small_positive, small_positive, any_number),
                  min_size=1, max_size=3).map(",".join)
level_value = st.one_of(level_token, near_bound.map(str), st.sampled_from(["1e400", "1e-400"]))
levels_arg = st.one_of(
    st.lists(any_number, min_size=1, max_size=4).map(",".join),
    st.lists(level_value, min_size=1, max_size=3, unique=True).map(
        lambda ts: ",".join(_descending(ts) + ["0"])),
)
# Either route of mass and blowup-insert, or any mix of them.
routes = st.one_of(st.tuples(u_list, st.none()), st.tuples(st.none(), levels_arg),
                   st.tuples(st.none() | u_list, st.none() | levels_arg), st.just((None, None)))
coordinate = st.tuples(st.one_of(st.sampled_from(["0", "1", "2", "-1"]), bound_number),
                       st.one_of(st.sampled_from(["0", "1", "3"]), bound_number)).map(":".join)
# Documents whose weights, coordinates and genus reach the bounds.
bound_document = st.integers(1, 4).flatmap(lambda n: st.fixed_dictionaries(
    {
        "points": st.lists(st.one_of(st.sampled_from("abcd"), st.text(max_size=3)),
                           min_size=n, max_size=n, unique=True),
        "weights": st.lists(st.one_of(small_weight, weight), min_size=n, max_size=n),
        "incidence": st.lists(coordinate, min_size=n, max_size=n, unique=True),
    },
    optional={
        "genus": st.one_of(near_bound, bound_number),
        "extra_points": st.lists(coordinate, max_size=3),
    },
))
# The fixtures, with their weights, extra points or genus swapped for bound values.
fixture_document = st.sampled_from([
    json.loads(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))
]).flatmap(lambda doc: st.fixed_dictionaries({}, optional={
    "weights": st.lists(st.one_of(small_weight, weight),
                        min_size=len(doc["weights"]), max_size=len(doc["weights"])),
    "extra_points": st.lists(coordinate, max_size=3),
    "genus": st.one_of(near_bound, bound_number),
}).map(lambda changes: {**doc, **changes}))
small_int = st.integers(1, 3).map(str)
# Few samples keep a run short; the bound itself runs on a few examples only.
samples_arg = st.one_of(st.integers(1, 12).map(str), st.sampled_from(
    [str(MAX_SAMPLES), str(MAX_SAMPLES + 1), "0", "-1", "9" * (MAX_DIGITS + 1), "1e400"]))


def _argv(command, positional, options):
    """argvs of ``command``, with --name=value for each option value that is not None."""
    return st.tuples(positional, st.tuples(*options.values()), st.booleans()).map(lambda t: [
        command, t[0],
        *(f"--{name}={value}" for name, value in zip(options, t[1]) if value is not None),
        *(["--json"] if t[2] else []),
    ])


def _routed(argv_route):
    argv, (u, levels) = argv_route
    return argv + [f"--{name}={value}" for name, value in (("u", u), ("levels", levels))
                   if value is not None]


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("argparse", exc.code)
    return code, out.getvalue(), err.getvalue()


def _check_command(argv, codes):
    code, out, err = _run_main(argv)
    if code == ("argparse", 2):
        assert out == "" and err.startswith("usage: cscglue "), (argv, err)
        assert re.match(r"cscglue [\w-]+: error: ", err.splitlines()[-1]), (argv, err)
        return
    assert code in codes, (argv, code, err)
    if code == 2:
        assert out == "", (argv, out)
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    else:
        assert err == "", (argv, err)


@FUZZ
@given(_argv("hj", weight, {}))
def test_hj_command_property(argv):
    _check_command(argv, {0, 2})


@FUZZ
@given(st.tuples(_argv("mass", st.one_of(weight, st.just("1/1")), {}), routes).map(_routed))
def test_mass_command_property(argv):
    _check_command(argv, {0, 2})


@FUZZ
@given(st.tuples(_argv("blowup-insert", st.one_of(small_weight, small_weight, weight), {
    "position": st.one_of(small_int, small_int, small_int, bound_number, st.none()),
}), routes).map(_routed))
def test_blowup_insert_command_property(argv):
    _check_command(argv, {0, 2})


@pytest.mark.parametrize("command, codes", [("stability", {0, 2}), ("pipeline", {0, 2, 3, 4})])
@FUZZ
@given(doc=st.one_of(fixture_document, bound_document, surface_document), as_json=st.booleans())
def test_document_command_property(tmp_path_factory, command, codes, doc, as_json):
    path = tmp_path_factory.getbasetemp() / "property-doc.json"
    path.write_text(json.dumps(doc))
    _check_command([command, str(path), *(["--json"] if as_json else [])], codes)


@FUZZ
@given(_argv("metric-verify", st.one_of(small_weight, small_weight, weight), {
    "levels": st.none() | levels_arg,
    "samples": samples_arg,
    "seed": st.one_of(st.none(), small_int, bound_number),
    "csv": st.sampled_from([None, "decay.csv", "."]),
}))
def test_metric_verify_command_property(tmp_path_factory, argv):
    # --csv names a file, or the directory itself, under the session's temp directory.
    base = tmp_path_factory.getbasetemp()
    _check_command([arg.replace("--csv=", f"--csv={base}/") for arg in argv], {0, 1, 2})
