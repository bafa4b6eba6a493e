"""Fuzz the CLI input parsers: every input parses or raises ValueError.

``cli.main`` maps ``ValueError`` to exit 2 with a one-line message, so an
input that raises anything else would end in a traceback instead.
"""

import contextlib
import io
import json
import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from cscglue.cli import (
    load_document,
    main,
    parse_coord,
    parse_fraction,
    parse_rational_list,
    parse_surface,
)

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
