"""Expansion, approximants, and the evaluation oracle."""

import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from cscglue.cfrac import hj_expand, hj_length


def eval_negative_cfrac(digits) -> Fraction:
    """Evaluate e_1 - 1/(e_2 - 1/(... - 1/e_k)) as an exact fraction.

    The independent oracle for :func:`hj_expand`: for coprime 0 < p < q,
    evaluating the digits of (p, q) returns q/p exactly.
    """
    digits = tuple(digits)
    if not digits:
        raise ValueError("digit sequence must be non-empty")
    if any(e < 2 for e in digits):
        raise ValueError(f"all digits must be >= 2, got {digits}")
    value = Fraction(digits[-1])
    for e in reversed(digits[:-1]):
        value = e - 1 / value
    return value


def coprime_pairs(max_q):
    for q in range(2, max_q + 1):
        for p in range(1, q):
            if gcd(p, q) == 1:
                yield p, q


def test_single_digit():
    for q in (2, 3, 7, 11):
        exp = hj_expand(1, q)
        assert exp.digits == (q,)
        assert exp.approximants[2] == (q, 1)


def test_all_twos_is_crepant():
    for q in (2, 3, 5, 8):
        exp = hj_expand(q - 1, q)
        assert exp.digits == (2,) * (q - 1)


def test_5_7_digits():
    exp = hj_expand(5, 7)
    assert exp.digits == (2, 2, 3)
    assert eval_negative_cfrac(exp.digits) == Fraction(7, 5)


def test_eval_oracle_examples():
    assert eval_negative_cfrac([4]) == Fraction(4)
    assert eval_negative_cfrac([2, 2]) == Fraction(3, 2)
    assert eval_negative_cfrac([2, 2, 3]) == Fraction(7, 5)


def test_eval_rejects_bad_digits():
    with pytest.raises(ValueError):
        eval_negative_cfrac([])
    with pytest.raises(ValueError):
        eval_negative_cfrac([2, 1, 2])


def test_expand_rejects_bad_input():
    with pytest.raises(ValueError):
        hj_expand(2, 4)
    with pytest.raises(ValueError):
        hj_expand(3, 3)
    with pytest.raises(ValueError):
        hj_expand(0, 5)
    with pytest.raises(ValueError):
        hj_expand(5, 3)


def test_boundary_pairs():
    exp = hj_expand(3, 8)
    pairs = exp.approximants
    assert pairs[0] == (0, -1)
    assert pairs[1] == (1, 0)
    assert pairs[-1] == (0, 1)
    assert pairs[-2] == (8, 3)


def test_round_trip_small():
    for p, q in coprime_pairs(60):
        exp = hj_expand(p, q)
        assert eval_negative_cfrac(exp.digits) == Fraction(q, p)


def test_determinant_identity_small():
    for p, q in coprime_pairs(60):
        pairs = hj_expand(p, q).approximants
        k = len(pairs) - 3
        for j in range(k + 1):
            (m0, n0), (m1, n1) = pairs[j], pairs[j + 1]
            assert m0 * n1 - m1 * n0 == 1
        # The closing junction determinant is the group order.
        (mk, nk), (mz, nz) = pairs[-2], pairs[-1]
        assert mk * nz - mz * nk == q


def test_monotone_m_and_crepant_prefix():
    for p, q in coprime_pairs(40):
        exp = hj_expand(p, q)
        ms = [m for m, _ in exp.approximants[1:-1]]
        assert all(a < b for a, b in zip(ms, ms[1:]))
        # m_{j+1} - m_j = 1 exactly while the digit prefix is all twos.
        for j, e in enumerate(exp.digits, start=1):
            prefix_twos = all(d == 2 for d in exp.digits[:j])
            assert (exp.approximants[j + 1][0] - exp.approximants[j][0] == 1) == prefix_twos


def test_all_twos_iff_crepant():
    for p, q in coprime_pairs(40):
        exp = hj_expand(p, q)
        assert (set(exp.digits) == {2}) == (p == q - 1)


@st.composite
def coprime(draw):
    q = draw(st.integers(min_value=2, max_value=300))
    p = draw(st.integers(min_value=1, max_value=q - 1))
    return p // gcd(p, q), q // gcd(p, q)


@given(coprime())
def test_round_trip_property(pq):
    p, q = pq
    assert eval_negative_cfrac(hj_expand(p, q).digits) == Fraction(q, p)


def test_hj_length_matches_expansion():
    for p, q in coprime_pairs(300):
        assert hj_length(p, q) == len(hj_expand(p, q).digits)
    # (q-1)/q has q - 1 digits, counted without building them.
    assert hj_length(10**30 - 1, 10**30) == 10**30 - 1
    assert hj_length(1, 10**20 + 1) == 1
    with pytest.raises(ValueError):
        hj_length(2, 4)


# Under ``python -O`` (asserts stripped), hj_expand(2, 5) with its
# approximants replaced by a broken chain must still raise.
BROKEN_EXPANSION = """
import sys
from cscglue import cfrac
if __debug__:
    sys.exit("not running under -O")
cfrac._approximants = lambda digits: {pairs!r}
try:
    cfrac.hj_expand(2, 5)
except RuntimeError as exc:
    print(exc)
else:
    sys.exit("broken expansion accepted")
"""


@pytest.mark.parametrize("pairs", [
    ((0, -1), (1, 0), (3, 1), (5, 3), (0, 1)),  # closes at (5, 3), not (5, 2)
    ((0, -1), (1, 0), (3, 2), (5, 2), (0, 1)),  # determinant 2 at junction 1
    ((0, -1), (1, 0), (1, 1), (5, 2), (0, 1)),  # reaches (5, 2) with m_2 = m_1
])
def test_invariant_checks_survive_optimize(pairs):
    proc = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_EXPANSION.format(pairs=pairs)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "expansion of 5/2" in proc.stdout


# Under ``python -O``, the strings of 2/5 built from broken runs must
# still raise: the run form of each junction invariant.  The true runs of
# 5/2 = [2; 2] are (3, 1), (2, 1).  No case breaks the determinant: a step
# e*x_j - x_{j-1} keeps det(x_{j-1}, x_j) for every e, and so does the
# jump over a run of twos, so no run list can reach a determinant other
# than the 1 of the start pairs; that check guards the walk itself.
BROKEN_RUNS = """
import sys
from fractions import Fraction
from cscglue import cfrac, resolution
if __debug__:
    sys.exit("not running under -O")
cfrac._runs = lambda p, q: {runs!r}
try:
    resolution.singular_strings(Fraction(2, 5))
except RuntimeError as exc:
    print(exc)
else:
    sys.exit("broken runs accepted")
"""


@pytest.mark.parametrize("runs, message", [
    # Six digits 1 return the pairs to where they were: only the digit shows.
    (((3, 1), (1, 6), (2, 1)), "run (1, 6) has a digit below 2"),
    # One two too many: closes at (7, 3).
    (((3, 1), (2, 2)), "closes at (7, 3)"),
    # A negative multiplicity walks back to (5, 2), but m_j goes down.
    (((3, 1), (2, 2), (2, -1)), "m_j not increasing across run (2, -1)"),
])
def test_run_checks_survive_optimize(runs, message):
    proc = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_RUNS.format(runs=runs)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "expansion of 5/2" in proc.stdout
    assert message in proc.stdout
