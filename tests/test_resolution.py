"""Fiber chains and the blow-down oracles."""

import random
from decimal import Decimal
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from cscglue import cfrac
from cscglue.cfrac import hj_expand, hj_length
from cscglue.cli import load_document, parse_surface
from cscglue.gluing import existence_report
from cscglue.parabolic import split_weight
from cscglue.resolution import (
    blow_down_fully,
    blowup_count,
    fiber_chain,
    format_chain,
    singular_strings,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def blow_down_once(chain):
    """Contract the leftmost -1 curve; its one or two neighbours gain 1."""
    chain = tuple(chain)
    if -1 not in chain:
        raise ValueError(f"no -1 curve to contract in {chain}")
    if len(chain) < 2:
        raise ValueError("cannot contract the singleton (-1,) chain")
    i = chain.index(-1)
    out = list(chain)
    del out[i]
    if i > 0:
        out[i - 1] += 1
    if i < len(out):
        out[i] += 1
    return tuple(out)


def oracle_blow_down_fully(chain):
    """Quadratic reference: rescan from the start for the leftmost -1."""
    out = list(chain)
    while -1 in out:
        if len(out) < 2:
            raise ValueError("chain contracts to a point, not a curve")
        i = out.index(-1)
        del out[i]
        if i > 0:
            out[i - 1] += 1
        if i < len(out):
            out[i] += 1
    return tuple(out)


def blow_down_outcome(fn, chain):
    """The result of fn(chain), or the text of the ValueError it raises."""
    try:
        return fn(chain)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_half_chain():
    assert fiber_chain(Fraction(1, 2)) == (-2, -1, -2)


def test_third_chains():
    assert fiber_chain(Fraction(1, 3)) == (-3, -1, -2, -2)
    assert fiber_chain(Fraction(2, 3)) == (-2, -2, -1, -3)


def test_rejects_out_of_range():
    # One weight rule, parabolic.split_weight, with one wording everywhere.
    for weight, shown in ((Fraction(3, 2), "3/2"), (Fraction(0), "0"), (Fraction(7, 5), "7/5"),
                          (1, "1")):
        for fn in (blowup_count, singular_strings, fiber_chain, split_weight):
            with pytest.raises(ValueError, match=rf"^weight {shown} outside \(0, 1\)$"):
                fn(weight)
    p, q = split_weight(Fraction(2, 6))
    assert (p, q) == (1, 3) and type(p) is type(q) is int


def test_rejects_non_rational_weight():
    # 0.1 is 3602879701896397/2**55, whose dual string is about 1.8e15
    # digits long; it is refused by type, before any size is looked at.
    for fn in (blowup_count, singular_strings, fiber_chain):
        with pytest.raises(TypeError, match=r"^weight 0\.1 is not a rational number$"):
            fn(0.1)
        for weight in (Decimal("0.5"), "1/2", None):
            with pytest.raises(TypeError, match="is not a rational number"):
                fn(weight)


def test_blow_down_once_examples():
    assert blow_down_once((-2, -1, -2)) == (-1, -1)
    assert blow_down_once((-3, -1, -2, -2)) == (-2, -1, -2)
    assert blow_down_once((-1, -1)) == (0,)


def test_blow_down_once_errors():
    with pytest.raises(ValueError):
        blow_down_once((-2, -2))
    with pytest.raises(ValueError):
        blow_down_once((-1,))


def test_blow_down_fully_examples():
    assert blow_down_fully(fiber_chain(Fraction(1, 2))) == (0,)
    assert blow_down_fully((0,)) == (0,)
    assert blow_down_fully((-2, -2)) == (-2, -2)
    with pytest.raises(ValueError):
        blow_down_fully((-1,))


def test_blowup_counts():
    assert blowup_count(Fraction(1, 2)) == 2
    assert blowup_count(Fraction(1, 3)) == 3
    # The four-point configuration with weights 1/2, 1/2, 1/3, 1/3.
    total = 2 * blowup_count(Fraction(1, 2)) + 2 * blowup_count(Fraction(1, 3))
    assert total == 10
    for q in range(2, 401):
        for p in range(1, q):
            if gcd(p, q) == 1:
                assert blowup_count(Fraction(p, q)) == len(fiber_chain(Fraction(p, q))) - 1
    # Digit counts, not expansions: one digit plus 10**20 twos, at once.
    assert blowup_count(Fraction(1, 10**20 + 1)) == 10**20 + 1


def test_singular_strings():
    assert singular_strings(Fraction(1, 2)) == ((-2,), (-2,))
    assert singular_strings(Fraction(1, 3)) == ((-3,), (-2, -2))
    for q in (3, 5, 9):
        left, right = singular_strings(Fraction(q - 1, q))
        assert left == (-2,) * (q - 1)


def test_format_chain():
    assert format_chain((-3, -1, -2, -2)) == "-3 -1 -2 -2"


def test_reversal_symmetry_small():
    for q in range(2, 30):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            a = fiber_chain(Fraction(p, q))
            b = fiber_chain(Fraction(q - p, q))
            assert a == tuple(reversed(b))


def test_blow_down_oracle_small():
    for q in range(2, 40):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            chain = fiber_chain(Fraction(p, q))
            assert chain.count(-1) == 1
            assert all(c <= -2 for c in chain if c != -1)
            assert blow_down_fully(chain) == (0,)


def test_blow_down_matches_oracle_random_chains():
    rng = random.Random(8)
    errors = 0
    for _ in range(200_000):
        chain = tuple(rng.randint(-4, 1) for _ in range(rng.randint(0, 9)))
        expected = blow_down_outcome(oracle_blow_down_fully, chain)
        assert blow_down_outcome(blow_down_fully, chain) == expected, chain
        errors += isinstance(expected, str)
    assert errors > 1000  # the (-1,) error path is exercised too


def test_blow_down_matches_oracle_fiber_chains():
    for q in range(2, 201):
        for p in range(1, q):
            if gcd(p, q) == 1:
                chain = fiber_chain(Fraction(p, q))
                assert blow_down_fully(chain) == oracle_blow_down_fully(chain) == (0,)
    for q in (1009, 2003):
        for p in (1, q - 1):
            chain = fiber_chain(Fraction(p, q))
            assert blow_down_fully(chain) == oracle_blow_down_fully(chain) == (0,)
    # The oracle needs seconds on (q-1)/q at q = 20011; the linear
    # blow-down is checked against the known result (0,) there.
    for p in (1, 20010):
        assert blow_down_fully(fiber_chain(Fraction(p, 20011))) == (0,)


def test_intermediate_chains_stay_nonpositive():
    # Contraction only increments entries, and fiber chains end at (0,),
    # so no intermediate self-intersection ever exceeds 0.
    for alpha in (Fraction(3, 7), Fraction(5, 8), Fraction(4, 11)):
        chain = fiber_chain(alpha)
        while chain != (0,):
            assert all(c <= 0 for c in chain)
            chain = blow_down_once(chain)


@st.composite
def weights(draw):
    q = draw(st.integers(min_value=2, max_value=150))
    p = draw(st.integers(min_value=1, max_value=q - 1))
    g = gcd(p, q)
    return Fraction(p // g, q // g)


@given(weights())
def test_blow_down_property(alpha):
    assert blow_down_fully(fiber_chain(alpha)) == (0,)


@given(weights())
def test_count_matches_chain_length(alpha):
    assert blowup_count(alpha) == len(fiber_chain(alpha)) - 1


def division_digits(p, q):
    """HJ digits of q/p by iterated ceiling division, one step per digit."""
    digits, a, b = [], q, p
    while b > 0:
        e = -(-a // b)
        digits.append(e)
        a, b = b, e * b - a
    return tuple(digits)


def negated(digits):
    return tuple(-e for e in digits)


def test_strings_match_materialised_digits():
    # The strings come from runs; hj_expand still walks every approximant.
    cases = [(q, {p: hj_expand(p, q).digits for p in range(1, q) if gcd(p, q) == 1})
             for q in range(2, 401)]
    # Long tails against the one-step-per-digit oracle.
    cases += [(q, {p: division_digits(p, q) for p in (1, 2, q - 2, q - 1)})
              for q in (1009, 2003, 10**6 + 3)]
    for q, digits in cases:
        for p, left in digits.items():
            strings = negated(left), negated(digits[q - p])
            assert singular_strings(Fraction(p, q)) == strings
            assert fiber_chain(Fraction(p, q)) == strings[0] + (-1,) + strings[1][::-1]
            assert hj_length(p, q) == len(left)


def test_strings_expand_no_approximants(monkeypatch):
    # Every hj_expand call builds its pairs with one _approximants call.
    built = []
    build = cfrac._approximants
    monkeypatch.setattr(cfrac, "_approximants", lambda digits: built.append(digits) or build(digits))
    for alpha in (Fraction(1, 2), Fraction(5, 7), Fraction(1, 2003), Fraction(2002, 2003)):
        singular_strings(alpha)
        fiber_chain(alpha)
    for path in sorted(FIXTURES.glob("*.json")):
        existence_report(*parse_surface(load_document(str(path))))
    assert built == []
