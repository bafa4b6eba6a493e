"""Log coefficients, the sign theorem, and blow-up insertion.

The per-term coefficient oracle used here is independent of the
implementation: the coefficient of u_j telescopes as the sum of

    delta_i = -(m_{i+1} - m_i - 1) / (m_i m_{i+1})

from i = j to k, which we compute directly from the approximants.

The integer kernels of ``logmass`` are also checked for exact equality
against the direct ``Fraction`` formulas (``oracle_*`` below): the
four-term coefficient p/q - n_j/m_j + 1/q - 1/m_j, the per-term mu sum,
and the telescoped level sums for q a and q b.
"""

import random
from decimal import Decimal
from fractions import Fraction
from math import gcd, inf, nan

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cscglue import cfrac, logmass
from cscglue.cfrac import hj_expand, hj_length
from cscglue.logmass import (
    BURNS_CHAIN,
    INFINITY,
    blowup_insert,
    flat_monopole,
    log_coeffs_from_levels,
    mass_verdict,
    monopole_from_chain,
    monopole_from_fraction,
    mu_from_chain,
    mu_from_u,
    verdict_from_coeffs,
)


def delta_oracle(p, q, j):
    pairs = hj_expand(p, q).approximants
    k = len(pairs) - 3
    total = Fraction(0)
    for i in range(j, k + 1):
        mi, mi1 = pairs[i][0], pairs[i + 1][0]
        total -= Fraction(mi1 - mi - 1, mi * mi1)
    return total


def coefficients(p, q):
    """The per-term coefficients of mu, as mu_from_u reports them."""
    k = len(hj_expand(p, q).digits)
    return [c for c, _ in mu_from_u(p, q, [1] * k).per_term]


def coprime_pairs(max_q):
    for q in range(2, max_q + 1):
        for p in range(1, q):
            if gcd(p, q) == 1:
                yield p, q


def random_u(rng, k):
    return [Fraction(rng.randint(1, 10), rng.randint(1, 10)) for _ in range(k)]


def random_levels(rng, k, infinite_top):
    levels = [Fraction(0)]
    for _ in range(k + 1):
        levels.append(levels[-1] + Fraction(rng.randint(1, 9), rng.randint(1, 9)))
    levels.reverse()
    if infinite_top:
        levels[0] = INFINITY
    return levels


# ---------------------------------------------------------------------------
# Fraction oracle for the integer kernels


def oracle_coefficient(chain, j):
    q, p = chain[-2]
    m, n = chain[j]
    return Fraction(p, q) - Fraction(n, m) + Fraction(1, q) - Fraction(1, m)


def oracle_mu_from_chain(chain, u):
    """(a, b, mu, per_term) from the per-term sum, c_0 = 0 normalisation."""
    k = len(chain) - 3
    u = [Fraction(x) for x in u]
    per_term = tuple((oracle_coefficient(chain, j), u[j - 1]) for j in range(1, k + 1))
    mu = sum((coeff * uj for coeff, uj in per_term), Fraction(0))
    q, _ = chain[-2]
    c_k = sum((u[j - 1] / chain[j][0] for j in range(1, k + 1)), Fraction(0))
    a = (sum(u, Fraction(0)) - q * c_k) / q
    return a, mu - a, mu, per_term


def oracle_log_coeffs(chain, levels):
    """(a, b, mu, per_term) from the telescoped level sums."""
    k = len(chain) - 3
    q, p = chain[-2]
    c = [Fraction(0) if y == INFINITY else 1 / Fraction(y) for y in levels[: k + 1]]
    c.append(Fraction(0))
    c_prev = [Fraction(0)] + c[:-1]
    qa = sum((c[j] - c_prev[j]) * chain[j][0] for j in range(k + 2))
    qb = sum((c[j] - c_prev[j]) * (p * chain[j][0] - q * chain[j][1]) for j in range(k + 2))
    a, b = Fraction(qa, q), Fraction(qb, q)
    per_term = tuple(
        (oracle_coefficient(chain, j), chain[j][0] * (c[j] - c[j - 1]))
        for j in range(1, k + 1)
    )
    return a, b, a + b, per_term


def as_tuple(coeffs):
    return coeffs.a, coeffs.b, coeffs.mu, coeffs.per_term


def assert_kernels_match_oracle(chain, u, levels):
    via_u = mu_from_chain(chain, u)
    assert as_tuple(via_u) == oracle_mu_from_chain(chain, u)
    assert all(type(x) is Fraction for pair in via_u.per_term for x in pair)
    via_levels = log_coeffs_from_levels(monopole_from_chain(chain, levels))
    assert as_tuple(via_levels) == oracle_log_coeffs(chain, levels)
    assert all(type(x) is Fraction for x in as_tuple(via_levels)[:3])
    assert all(type(x) is Fraction for pair in via_levels.per_term for x in pair)
    k = len(chain) - 3
    for j in range(1, k + 1):
        assert via_u.per_term[j - 1][0] == oracle_coefficient(chain, j)


def test_kernels_match_oracle_sweep():
    rng = random.Random(4242)
    for p, q in coprime_pairs(60):
        chain = hj_expand(p, q).approximants
        k = len(chain) - 3
        for infinite_top in (False, True):
            assert_kernels_match_oracle(chain, random_u(rng, k), random_levels(rng, k, infinite_top))
        assert as_tuple(mu_from_u(p, q, random_u(rng, k)))[2] <= 0


def test_kernels_match_oracle_long_tails():
    rng = random.Random(1009)
    for q in (1009, 2003):
        for p in (1, q - 1):
            chain = hj_expand(p, q).approximants
            k = len(chain) - 3
            for infinite_top in (False, True):
                assert_kernels_match_oracle(
                    chain, random_u(rng, k), random_levels(rng, k, infinite_top))


def test_kernels_match_oracle_burns():
    for u in ([1], [Fraction(3, 2)], [Fraction(7, 11)]):
        assert_kernels_match_oracle(BURNS_CHAIN, u, [Fraction(2), Fraction(1), Fraction(0)])
        assert_kernels_match_oracle(BURNS_CHAIN, u, [INFINITY, Fraction(1, 3), Fraction(0)])


def test_burns_datum_from_fraction():
    for levels in ([2, 1, 0], [INFINITY, Fraction(1, 3), 0], [Fraction(7, 2), Fraction(1, 3), 0]):
        assert monopole_from_fraction(1, 1, levels) == monopole_from_chain(BURNS_CHAIN, levels)
    with pytest.raises(ValueError, match=r"^expected 3 levels, got 4$"):
        monopole_from_fraction(1, 1, [3, 2, 1, 0])


def test_kernels_match_oracle_blowup_chains():
    rng = random.Random(77)
    for p, q in coprime_pairs(25):
        k = len(hj_expand(p, q).digits)
        for infinite_top in (False, True):
            data = monopole_from_fraction(p, q, random_levels(rng, k, infinite_top))
            # Position 0 would insert ahead of (1, 0) and is always rejected.
            for position in range(1, k + 1):
                inserted = blowup_insert(data, position)
                assert_kernels_match_oracle(
                    inserted.chain, random_u(rng, k + 1), list(inserted.levels))


def test_pairs_from_fraction():
    data = monopole_from_fraction(1, 4, [3, 2, 0])
    assert data.pairs == ((-1, -1), (-3, -1), (4, 0))


def test_flat_data():
    data = flat_monopole()
    assert data.pairs == ((-1, -1), (1, -1))
    assert data.levels[0] == INFINITY
    coeffs = log_coeffs_from_levels(data)
    assert coeffs.a == coeffs.b == coeffs.mu == 0


def test_crepant_pairs_all_minus_one():
    q = 6
    data = monopole_from_fraction(q - 1, q, list(range(q, -1, -1)))
    assert all(a == -1 for a, _ in data.pairs[:-1])


def test_level_validation():
    with pytest.raises(ValueError):
        monopole_from_fraction(1, 3, [2, 1])  # wrong count
    with pytest.raises(ValueError):
        monopole_from_fraction(1, 3, [1, 2, 0])  # not decreasing
    with pytest.raises(ValueError):
        monopole_from_fraction(1, 3, [3, 2, 1])  # last not zero
    with pytest.raises(ValueError):
        monopole_from_fraction(1, 3, [3, inf, 0])  # inf not first
    chain = hj_expand(2, 5).approximants
    for levels in (
        [-inf, 2, 1, 0],
        [nan, 2, 1, 0],
        [inf, nan, 1, 0],
        [3, 2, -inf, 0],
        [np.float64(nan), 2, 1, 0],
        [Decimal("NaN"), 2, 1, 0],
        [Decimal("-Infinity"), 2, 1, 0],
    ):
        for route in (monopole_from_fraction, lambda p, q, y: monopole_from_chain(chain, y)):
            with pytest.raises(ValueError, match=r"^levels must be finite, apart from y_0 = inf$"):
                route(2, 5, levels)


def test_single_term_coefficient():
    for q in (2, 3, 5, 9):
        assert coefficients(1, q) == [Fraction(2, q) - 1]


def test_crepant_coefficients_vanish():
    for q in (2, 3, 5, 8):
        assert coefficients(q - 1, q) == [0] * (q - 1)


def test_coefficient_oracle():
    for p, q in coprime_pairs(30):
        k = len(hj_expand(p, q).digits)
        assert coefficients(p, q) == [delta_oracle(p, q, j) for j in range(1, k + 1)]


def numerator_certificate(p, q):
    """(max N_j, min N_j, whether some N_j is 0) for j = 1..k, in O(number of runs).

    N_j = (p + 1) m_j - q (n_j + 1) is the numerator of the coefficient of
    u_j over q m_j > 0.  The pairs (m_j, n_j) are walked run by run over
    ``cfrac._runs``, as ``cfrac._check_runs`` does: inside a run of twos
    they form an arithmetic progression, so N_j is affine along the run,
    its extremes lie at the run's ends and a zero is one divisibility test.
    The pair that closes the last run is (q, p), which is not a term.
    """

    def numerator(m, n):
        return (p + 1) * m - q * (n + 1)

    m0, n0, m1, n1 = 0, -1, 1, 0
    hi = lo = numerator(m1, n1)
    zero = hi == 0
    runs = cfrac._runs(p, q)
    for i, (e, t) in enumerate(runs):
        terms = t - (i == len(runs) - 1)
        if e == 2:
            dm, dn = m1 - m0, n1 - n0
            start, step = numerator(m1, n1), (p + 1) * dm - q * dn
            if terms:
                ends = (start + step, start + terms * step)
                hi, lo = max(hi, *ends), min(lo, *ends)
                if step:
                    zero |= -start % step == 0 and 1 <= -start // step <= terms
                else:
                    zero |= start == 0
            m0, n0, m1, n1 = m1 + (t - 1) * dm, n1 + (t - 1) * dn, m1 + t * dm, n1 + t * dn
        else:
            for s in range(t):
                m0, n0, m1, n1 = m1, n1, e * m1 - m0, e * n1 - n0
                if s < terms:
                    value = numerator(m1, n1)
                    hi, lo, zero = max(hi, value), min(lo, value), zero or value == 0
    return hi, lo, zero


def test_numerator_certificate_matches_materialised_numerators():
    for p, q in coprime_pairs(150):
        numerators = [(p + 1) * m - q * (n + 1) for m, n in hj_expand(p, q).approximants[1:-2]]
        assert numerator_certificate(p, q) == (max(numerators), min(numerators), 0 in numerators)


SIGN_CERTIFICATE_MAX_Q = 300


def test_mass_sign_matches_certificate():
    # The certificate proves the sign for every positive u: mu < 0 when every
    # N_j < 0, and mu = 0 when every N_j = 0.  It also checks the module
    # docstring's rule that an N_j vanishes only in the crepant case.
    rng = random.Random(300)
    for p, q in coprime_pairs(SIGN_CERTIFICATE_MAX_Q):
        hi, lo, zero = numerator_certificate(p, q)
        crepant = p == q - 1
        assert zero == crepant
        assert (hi, lo) == (0, 0) if crepant else hi < 0
        u = random_u(rng, hj_length(p, q))
        assert mass_verdict(p, q, u).sign == (0 if crepant else -1)


def test_sign_certificate_on_huge_tails():
    # q/1 = [q], q/2 = [(q+1)/2, 2], and q/(q-2) is (q-3)/2 twos and a 3, with
    # N_j = -j; (q-1)/q is all twos, with every N_j = 0.
    for q in (10**20 + 1, 10**30 + 7):
        assert numerator_certificate(1, q) == (2 - q, 2 - q, False)
        assert numerator_certificate(2, q) == ((3 - q) // 2, 3 - q, False)
        assert numerator_certificate(q - 2, q) == (-1, -(q - 1) // 2, False)
        assert numerator_certificate(q - 1, q) == (0, 0, True)
        for p in (1, 2):
            u = [Fraction(j, 7) for j in range(1, hj_length(p, q) + 1)]
            assert mass_verdict(p, q, u).sign == -1


def test_mu_examples():
    assert mu_from_u(1, 3, [1]).mu == Fraction(-1, 3)
    assert mu_from_u(1, 5, [2]).mu == Fraction(-6, 5)
    assert mu_from_u(2, 3, [Fraction(1), Fraction(1)]).mu == 0
    assert mu_from_u(1, 2, [5]).mu == 0  # Eguchi-Hanson type


def test_burns_positive():
    verdict = mass_verdict(1, 1, [Fraction(3, 2)])
    assert verdict.mu == Fraction(3, 2)
    assert verdict.sign == 1
    assert not verdict.crepant


def test_mu_validation():
    with pytest.raises(ValueError):
        mu_from_u(1, 3, [])
    with pytest.raises(ValueError):
        mu_from_u(1, 3, [Fraction(-1)])
    with pytest.raises(ValueError):
        mu_from_u(2, 4, [1, 1])


def test_route_agreement_random():
    rng = random.Random(20240811)
    pairs = list(coprime_pairs(50))
    for _ in range(300):
        p, q = rng.choice(pairs)
        k = len(hj_expand(p, q).digits)
        increments = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(k + 1)]
        levels = [Fraction(0)]
        for inc in increments:
            levels.append(levels[-1] + inc)
        levels = list(reversed(levels))
        if rng.random() < 0.3:
            levels[0] = INFINITY
        data = monopole_from_fraction(p, q, levels)
        route_levels = log_coeffs_from_levels(data)
        u = [u_j for _, u_j in route_levels.per_term]
        route_u = mu_from_u(p, q, u)
        assert route_levels.mu == route_u.mu
        assert [c for c, _ in route_levels.per_term] == [c for c, _ in route_u.per_term]
        if levels[0] == INFINITY:
            # With c_0 = 0 the normalisations agree individually.
            assert (route_levels.a, route_levels.b) == (route_u.a, route_u.b)


def test_sign_theorem_sweep_small():
    rng = random.Random(5)
    for p, q in coprime_pairs(30):
        k = len(hj_expand(p, q).digits)
        for _ in range(10):
            mu = mu_from_u(p, q, random_u(rng, k)).mu
            if p == q - 1:
                assert mu == 0
            else:
                assert mu < 0


def test_blowup_insert_chain():
    q = 4
    data = monopole_from_fraction(1, q, [2, 1, 0])
    inserted = blowup_insert(data, 1)
    assert inserted.chain == ((0, -1), (1, 0), (q + 1, 1), (q, 1), (0, 1))
    assert inserted.levels == (Fraction(2), Fraction(1), Fraction(1, 2), Fraction(0))
    coeffs = log_coeffs_from_levels(inserted)
    assert [c for c, _ in coeffs.per_term] == [
        Fraction(2, q) - 1,
        Fraction(2, q) - Fraction(2, q + 1),
    ]


def test_blowup_insert_signs():
    # q = 1: both coefficients positive, mu > 0 for every positive u.
    burns_plus = mu_from_chain(((0, -1), (1, 0), (2, 1), (1, 1), (0, 1)), [1, 1])
    assert burns_plus.mu > 0
    # q > 2: coefficient signs differ, so u choices reach both signs.
    q = 5
    chain = ((0, -1), (1, 0), (q + 1, 1), (q, 1), (0, 1))
    assert mu_from_chain(chain, [1, Fraction(1, 100)]).mu < 0
    assert mu_from_chain(chain, [Fraction(1, 100), 1]).mu > 0


def test_blowup_insert_validation():
    data = monopole_from_fraction(1, 3, [2, 1, 0])
    with pytest.raises(ValueError, match=r"position must be in 1\.\.1, got 2"):
        blowup_insert(data, 2)  # endpoint y_{k+1} = 0 is deleted
    with pytest.raises(ValueError, match=r"position must be in 1\.\.1, got 0"):
        blowup_insert(data, 0)  # would insert (1, -1) ahead of (1, 0)
    with pytest.raises(ValueError, match=r"position must be in 1\.\.0"):
        blowup_insert(flat_monopole(), 0)  # k = 0: nothing to blow up


def test_chain_validation():
    with pytest.raises(ValueError):
        monopole_from_chain(((0, -1), (2, 0), (0, 1)), [1, 0])
    with pytest.raises(ValueError):
        # determinant -1 at the (2,1)-(3,1) junction
        monopole_from_chain(((0, -1), (1, 0), (2, 1), (3, 1), (0, 1)), [3, 2, 1, 0])


def test_mass_verdict_reports():
    v = mass_verdict(2, 3, [1, 1])
    assert v.sign == 0 and v.crepant
    v = mass_verdict(1, 3, [1])
    assert v.sign == -1 and not v.crepant


def test_mass_verdict_matches_full_path():
    rng = random.Random(60)
    cases = [(1, 1, random_u(rng, 1))]
    cases += [(p, q, random_u(rng, len(hj_expand(p, q).digits))) for p, q in coprime_pairs(60)]
    for p, q, u in cases:
        assert mass_verdict(p, q, u) == verdict_from_coeffs(p, q, mu_from_u(p, q, u))


def test_mass_verdict_u_errors():
    for route in (mu_from_u, mass_verdict):
        with pytest.raises(ValueError, match=r"^expected 2 u-parameters, got 1$"):
            route(3, 5, [1])
        with pytest.raises(ValueError, match=r"^expected 1 u-parameters, got 2$"):
            route(1, 1, [1, 2])
        for bad in (0, Fraction(-1, 2)):
            with pytest.raises(ValueError, match=r"^all u_j must be positive$"):
                route(3, 5, [1, bad])
    chain = hj_expand(3, 5).approximants
    for route in (
        lambda u: mu_from_u(3, 5, u),
        lambda u: mass_verdict(3, 5, u),
        lambda u: mu_from_chain(chain, u),
    ):
        # Checked before the count, as the CLI reports it.
        for u in ([1, INFINITY], [-INFINITY, 1, 1], [Decimal("Infinity")],
                  [1, nan], [np.float64(nan), 1], [Decimal("NaN")]):
            with pytest.raises(ValueError, match=r"^u parameters must be finite$"):
                route(u)
        # A malformed string keeps the error Fraction gives it.
        with pytest.raises(ValueError, match=r"^Invalid literal for Fraction: 'x'$"):
            route(["x", 1])


def corrupt_one_pair(index, delta):
    real = cfrac._approximants

    def corrupted(digits):
        pairs = list(real(digits))
        m, n = pairs[index]
        pairs[index] = (m + delta[0], n + delta[1])
        return tuple(pairs)

    return corrupted


@pytest.mark.parametrize("index", [0, 1, 2, 3, -2, -1])
@pytest.mark.parametrize("delta", [(1, 0), (0, 1), (-1, -1)])
def test_hj_chains_still_checked(monkeypatch, index, delta):
    # 3/7 has digits 3, 2, 2: six pairs, so every index names one of them.
    monkeypatch.setattr(cfrac, "_approximants", corrupt_one_pair(index, delta))
    with pytest.raises(RuntimeError, match="expansion of 7/3"):
        mu_from_u(3, 7, [1, 1, 1])
    with pytest.raises(RuntimeError, match="expansion of 7/3"):
        mass_verdict(3, 7, [1, 1, 1])
    with pytest.raises(RuntimeError, match="expansion of 7/3"):
        monopole_from_fraction(3, 7, [4, 3, 2, 1, 0])


def test_numpy_integers_sum_exactly():
    # Products of 2**40-sized pairs overflow int64; the kernels see Python ints.
    p, q = 3, 2**40 + 1
    u = [Fraction(7, 10**6)] * len(hj_expand(p, q).digits)
    levels = [INFINITY, Fraction(5), Fraction(3), Fraction(0)]
    for route in (
        lambda p, q: mu_from_u(p, q, u),
        lambda p, q: mass_verdict(p, q, u),
        lambda p, q: log_coeffs_from_levels(monopole_from_fraction(p, q, levels)),
    ):
        assert route(np.int64(p), np.int64(q)) == route(p, q)


def count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_chain_checked_once(monkeypatch):
    expansions = count_calls(monkeypatch, logmass, "hj_expand")
    validations = count_calls(monkeypatch, logmass, "_validate_chain")
    chain = hj_expand(3, 7).approximants
    for call, expanded, validated in (
        (lambda: mu_from_u(3, 7, [1, 2, 3]), 1, 0),
        (lambda: mass_verdict(3, 7, [1, 2, 3]), 1, 0),
        (lambda: monopole_from_fraction(3, 7, [4, 3, 2, 1, 0]), 1, 0),
        (lambda: mu_from_u(1, 1, [2]), 0, 1),
        (lambda: mass_verdict(1, 1, [2]), 0, 1),
        (lambda: mu_from_chain(chain, [1, 2, 3]), 0, 1),
        (lambda: monopole_from_chain(chain, [4, 3, 2, 1, 0]), 0, 1),
    ):
        expansions.clear()
        validations.clear()
        call()
        assert (len(expansions), len(validations)) == (expanded, validated)


@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=39),
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(100)),
)
def test_scaling_linearity(q, p, lam):
    if p >= q or gcd(p, q) != 1:
        return
    k = len(hj_expand(p, q).digits)
    u = [Fraction(i + 1, 3) for i in range(k)]
    assert mu_from_u(p, q, [lam * x for x in u]).mu == lam * mu_from_u(p, q, u).mu


def test_per_term_built_on_first_read(monkeypatch):
    built = count_calls(monkeypatch, logmass, "_coefficients")
    chain = hj_expand(3, 7).approximants
    results = (
        mu_from_u(3, 7, [1, 2, 3]),
        mu_from_u(1, 1, [2]),
        mu_from_chain(chain, [1, 2, 3]),
        log_coeffs_from_levels(monopole_from_fraction(3, 7, [4, 3, 2, 1, 0])),
        log_coeffs_from_levels(monopole_from_chain(BURNS_CHAIN, [INFINITY, 1, 0])),
    )
    mass_verdict(3, 7, [1, 2, 3])
    for coeffs in results:
        repr(coeffs)
        verdict_from_coeffs(3, 7, coeffs)
        assert coeffs.a + coeffs.b == coeffs.mu
    assert built == []
    for coeffs in results:
        built.clear()
        terms = coeffs.per_term
        assert coeffs.per_term is terms
        assert len(built) == 1


def test_lazy_per_term_matches_oracles_on_random_chains():
    # Chains from fractions and from the Burns chain, each blown up 0-3 times;
    # the oracle check reads a, b and mu before per_term.
    rng = random.Random(1111)
    pairs = list(coprime_pairs(40))
    for _ in range(200):
        infinite_top = rng.random() < 0.5
        if rng.random() < 0.2:
            data = monopole_from_chain(BURNS_CHAIN, random_levels(rng, 1, infinite_top))
        else:
            p, q = rng.choice(pairs)
            data = monopole_from_fraction(p, q, random_levels(rng, hj_length(p, q), infinite_top))
        for _ in range(rng.randint(0, 3)):
            data = blowup_insert(data, rng.randint(1, data.k))
        assert_kernels_match_oracle(data.chain, random_u(rng, data.k), list(data.levels))


def test_equality_covers_per_term():
    # For 3/4, m_j = 1, 2, 3 and n_j = m_j - 1, so a, b and mu depend on u only
    # through sum u_j and sum u_j / m_j, which these two u share.
    x, y = mu_from_u(3, 4, [2, 5, 1]), mu_from_u(3, 4, [3, 1, 4])
    assert (x.a, x.b, x.mu) == (y.a, y.b, y.mu)
    assert x.per_term != y.per_term
    assert x != y and len({x, y}) == 2
    # With c_0 = 0 the two routes agree term by term: equal, with equal hashes.
    via_levels = log_coeffs_from_levels(monopole_from_fraction(3, 7, [INFINITY, 3, 2, 1, 0]))
    via_u = mu_from_u(3, 7, [u for _, u in via_levels.per_term])
    assert via_levels == via_u and hash(via_levels) == hash(via_u)
    assert not (via_levels != via_u)
    with pytest.raises(AttributeError):
        via_u.per_term = ()
    assert via_levels != (via_u.a, via_u.b, via_u.mu, via_u.per_term)
    assert repr(via_u) == f"LogCoefficients(a={via_u.a!r}, b={via_u.b!r}, mu={via_u.mu!r})"
