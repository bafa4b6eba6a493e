"""Expansion, approximants, and the evaluation oracle."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from cscglue.cfrac import eval_negative_cfrac, hj_expand


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
