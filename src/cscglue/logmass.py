"""Exact log-term coefficients and masses of toric ALE scalar-flat metrics.

The torus-symmetric scalar-flat Kähler metrics on Hirzebruch-Jung
resolutions are built from monopole-type data on the half-plane: a
strictly decreasing sequence of levels

    infinity >= y_0 > y_1 > ... > y_{k+1} = 0

and integer charge pairs (a_j, b_j), one per level.  For the resolution of
C^2/Gamma_{p,q} the charges come from the continued-fraction approximants
(m_j, n_j) of q/p via

    (a_j, b_j) = (m_j - m_{j+1}, n_j - n_{j+1}).

The Kähler potential of such a metric expands at infinity as

    f/q = r^2/4 + ((a + b)/2) log r + ((a - b)/4) cos^2(theta) + ...

where the pair (a, b) solves

    a (q, p) + b (0, -1) = sum_j y_j^{-1} (a_j, b_j).

Writing c_j = y_j^{-1} (with c_0 = 0 when y_0 is infinite) and telescoping
gives the closed forms

    q a = sum_{j=0}^{k+1} (c_j - c_{j-1}) m_j
    q b = sum_{j=0}^{k+1} (c_j - c_{j-1}) (p m_j - q n_j)

with the conventions c_{-1} = c_{k+1} = 0.  Summed by parts, these are
the level sums computed here,

    q a = sum_{j=0}^{k} c_j (m_j - m_{j+1})
    q b = sum_{j=0}^{k} c_j ((p m_j - q n_j) - (p m_{j+1} - q n_{j+1})).

Substituting the positive parameters u_j = m_j (c_j - c_{j-1}) turns the
log coefficient mu = a + b into

    mu = sum_{j=1}^{k} (p/q - n_j/m_j + 1/q - 1/m_j) u_j,

a formula that stays valid for non-monotone chains such as the ones
produced by extra blow-ups.  Over the denominator q m_j the coefficient
of u_j has the integer numerator N_j = (p + 1) m_j - q (n_j + 1).  For
Hirzebruch-Jung data N_j = s_j - q, where s_j = m_j + (p m_j - q n_j)
obeys the digit recurrence s_{j+1} = e_j s_j - s_{j-1} with s_j > 0, so
s is convex in j with s_0 = s_{k+1} = q.  Hence every N_j <= 0, and an
N_j vanishes only when every digit is 2, that is in the crepant case
p = q - 1, where all of them do (the tests check this against a walk over
the digit runs).  So mu is never positive and vanishes precisely in the
crepant case.  The coefficient mu equals the ADM-type mass of the
metric, so these sums decide its sign exactly.

Everything here is exact rational arithmetic; ``math.inf`` is the one
permitted non-rational level value.  The sums run over integer
numerators with a running common denominator, so each returned value is
normalised once, as a single ``Fraction``.  Each chain is checked once.
Approximants from :func:`cfrac.hj_expand` are used as they are: their
digit runs were checked there, and the :mod:`cfrac` docstring shows that
this gives the end pairs, det = 1 at junctions 0..k and increasing m_j.
A chain a caller supplies, and the Burns chain, go through
``_validate_chain``.

The level sums (:func:`log_coeffs_from_levels`) and the u sums
(``_u_sums``) stay two loops.  Routing the levels through ``_u_sums``, with
u_j = m_j (c_j - c_{j-1}) and a = a_u - c_0, b = b_u + c_0, gives the same
(a, b, mu), but builds one more fraction per level: on the HJ sweep of the
benchmark it took 1.3 to 1.8 times as long, with u as integer pairs or as
Fractions.
"""

from __future__ import annotations

import math
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from functools import cached_property, partial
from math import gcd

from cscglue.cfrac import hj_expand

INFINITY = math.inf

Pair = tuple[int, int]

# The blow-up of the plane at one point, admitted as (p, q) = (1, 1).
BURNS_CHAIN: tuple[Pair, ...] = ((0, -1), (1, 0), (1, 1), (0, 1))


class MonopoleData(namedtuple("MonopoleData", "levels pairs chain", defaults=(None,))):
    """Levels and charge pairs defining a torus-symmetric ALE metric.

    Attributes
    ----------
    levels : tuple
        y_0 > y_1 > ... > y_{k+1} = 0; exact rationals except that y_0
        may be ``math.inf``.
    pairs : tuple of (int, int)
        The charges (a_j, b_j), one per level.
    chain : tuple of (int, int) or None
        The generating pairs (m_j, n_j), j = 0, ..., k+2, when the data
        derives from a fraction or a blow-up insertion; None otherwise.
    """

    __slots__ = ()

    @property
    def k(self) -> int:
        return len(self.levels) - 2

    def pq(self) -> tuple[int, int]:
        """The closing recurrence pair (q, p) read off the chain."""
        if self.chain is None:
            raise ValueError("monopole data carries no generating chain")
        q, p = self.chain[-2]
        return p, q


class LogCoefficients(namedtuple("LogCoefficients", "a b mu terms")):
    """The pair (a, b) of the potential expansion and mu = a + b.

    ``per_term`` lists (coefficient_j, u_j) for j = 1, ..., k, where
    u_j = m_j (c_j - c_{j-1}); mu equals the sum of their products.  It
    is computed on first access by calling ``terms``, a ``partial`` over
    the chain and the u values or reciprocal levels that the sums
    already read, and then kept.  ``==``, ``!=`` and ``hash`` cover
    (a, b, mu, per_term), so they compute it; ``repr`` shows (a, b, mu).
    The cache needs an instance ``__dict__``, so ``__setattr__`` refuses.
    """

    @cached_property
    def per_term(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return self.terms()

    def _key(self) -> tuple:
        return self.a, self.b, self.mu, self.per_term

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"LogCoefficients(a={self.a!r}, b={self.b!r}, mu={self.mu!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: LogCoefficients is immutable")


class MassVerdict(namedtuple("MassVerdict", "mu sign crepant")):
    """Sign report for the mass of the metric attached to (p, q, u).

    ``sign`` is -1, 0 or +1, the sign of ``mu``; ``crepant`` says whether
    p = q - 1.
    """

    __slots__ = ()


def monopole_from_fraction(p: int, q: int, levels) -> MonopoleData:
    """Build monopole data for the resolution of C^2/Gamma_{p,q}.

    Parameters
    ----------
    p, q : int
        Coprime with 0 < p < q, or (1, 1) for the Burns datum on
        ``BURNS_CHAIN``, where k = 1.
    levels : sequence
        k + 2 strictly decreasing values ending at exactly 0, where k is
        the digit count of the expansion of q/p.  The first entry may be
        ``math.inf``.
    """
    return _monopole(_chain_for(p, q), levels)


def monopole_from_chain(chain, levels) -> MonopoleData:
    """Monopole data from an explicit (m_j, n_j) chain.

    The chain must start with (0, -1), (1, 0), end with (0, 1), keep
    m_j > 0 in between, and have unit determinant at every interior
    junction.  Monotonicity of the m_j is not required, so chains
    produced by :func:`blowup_insert` and the plane blow-up chain
    ``((0,-1), (1,0), (1,1), (0,1))`` are accepted.
    """
    return _monopole(_validate_chain(chain), levels)


def _monopole(chain, levels) -> MonopoleData:
    levels = _validate_levels(levels, expected=len(chain) - 1)
    pairs = tuple(
        (chain[j][0] - chain[j + 1][0], chain[j][1] - chain[j + 1][1])
        for j in range(len(chain) - 1)
    )
    return MonopoleData(levels=levels, pairs=pairs, chain=chain)


def flat_monopole() -> MonopoleData:
    """The k = 0, y_0 = infinity datum giving the flat metric on C^2."""
    return monopole_from_chain(((0, -1), (1, 0), (0, 1)), (INFINITY, Fraction(0)))


def log_coeffs_from_levels(data: MonopoleData) -> LogCoefficients:
    """Exact (a, b, mu) from the level sums.

    Uses the summed-by-parts forms of q a and q b from the module
    docstring, with c_j = 1/y_j and c_0 = 0 when y_0 is infinite, in
    integer arithmetic over a running common denominator.

    Raises
    ------
    ValueError
        If the data carries no generating chain.
    """
    if data.chain is None:
        raise ValueError("log coefficients need the generating chain")
    chain = data.chain
    k = data.k
    q, p = chain[-2]
    # c_j = cn / cd with cd > 0: every level up to y_k is positive.
    c = [_reciprocal(y) for y in data.levels[: k + 1]]

    qa = qb = 0
    den = 1
    for j, (cn, cd) in enumerate(c):
        (m0, n0), (m1, n1) = chain[j], chain[j + 1]
        g = gcd(den, cd)
        scale, step = cd // g, cn * (den // g)
        qa = qa * scale + step * (m0 - m1)
        qb = qb * scale + step * (p * (m0 - m1) - q * (n0 - n1))
        den *= scale
    den *= q

    return LogCoefficients(
        Fraction(qa, den), Fraction(qb, den), Fraction(qa + qb, den),
        partial(_terms_from_levels, chain, c),
    )


def mu_from_u(p: int, q: int, u) -> LogCoefficients:
    """Exact mu for the (p, q) resolution from the parameters u_1..u_k.

    The split into a and b individually is fixed by the y_0 = infinity
    normalisation (c_0 = 0); mu itself does not depend on that choice.

    The Burns datum is admitted as (p, q) = (1, 1): the blow-up of the
    plane rather than of a singular quotient, with chain
    (0,-1), (1,0), (1,1), (0,1).  Its single coefficient is +1, the one
    case with positive log term.
    """
    return _coeffs_from_u(_chain_for(p, q), u)


def mu_from_chain(chain, u) -> LogCoefficients:
    """Exact mu for an explicit chain from positive parameters u.

    Parameters
    ----------
    chain : sequence of (int, int)
        As accepted by :func:`monopole_from_chain`.
    u : sequence
        k positive rationals, one per interior chain pair.
    """
    return _coeffs_from_u(_validate_chain(chain), u)


def _coeffs_from_u(chain, u) -> LogCoefficients:
    qa, qb, den, u = _u_sums(chain, u)
    return LogCoefficients(
        Fraction(qa, den), Fraction(qb, den), Fraction(qa + qb, den),
        partial(_terms_from_u, chain, u),
    )


def _terms_from_u(chain, u) -> tuple[tuple[Fraction, Fraction], ...]:
    return tuple(zip(_coefficients(chain), u))


def _terms_from_levels(chain, c) -> tuple[tuple[Fraction, Fraction], ...]:
    # u_j = m_j (c_j - c_{j-1}) from the integer pairs c_j = cn / cd.
    return _terms_from_u(chain, (
        Fraction(m * (cn * pd - pn * cd), cd * pd)
        for (m, _), (pn, pd), (cn, cd) in zip(chain[1:], c, c[1:])
    ))


def _u_sums(chain, u) -> tuple[int, int, int, tuple[Fraction, ...]]:
    """a and b as numerators over one common denominator, and u as Fractions."""
    k = len(chain) - 3
    finite = "u parameters must be finite"
    u = tuple(x if isinstance(x, Fraction) else _finite(x, finite) for x in u)
    if len(u) != k:
        raise ValueError(f"expected {k} u-parameters, got {len(u)}")

    # With S = sum u_j, A = sum u_j / m_j and B = sum n_j u_j / m_j,
    # mu = (p + 1) S / q - (A + B), and in the c_0 = 0 normalisation c_k = A
    # and q a = S - q A, so q b = q mu - q a = p S - q B.  Term j adds
    # u_j (m_j - q) / m_j to q a and u_j (p m_j - q n_j) / m_j to q b, as
    # numerators over the common denominator den.  The count is checked, so
    # the loop reads every u_j and refuses a non-positive one.
    q, p = chain[-2]
    qa = qb = 0
    den = 1
    for (m, n), x in zip(chain[1:], u):
        num = x.numerator
        if num <= 0:
            raise ValueError("all u_j must be positive")
        d = x.denominator * m
        g = gcd(den, d)
        scale, step = d // g, num * (den // g)
        qa = qa * scale + step * (m - q)
        qb = qb * scale + step * (p * m - q * n)
        den *= scale
    return qa, qb, den * q, u


def blowup_insert(data: MonopoleData, position: int) -> MonopoleData:
    """Insert the extra interval created by blowing up at an endpoint.

    ``position`` names the endpoint y_j shared by the chain pairs j and
    j+1; the inserted interval receives the label
    (m_j + m_{j+1}, n_j + n_{j+1}).  Both new junctions have unit
    determinant, so the result is again smooth monopole data.  The new
    endpoint is placed at the midpoint of (y_{j+1}, y_j).

    Valid positions are 1 <= j <= k, where y_j is finite.  Position 0
    would insert (1, -1) ahead of (1, 0), which is not a chain, and the
    endpoint y_{k+1} = 0 is the deleted asymptotic point and cannot be
    blown up.
    """
    if data.chain is None:
        raise ValueError("blow-up insertion needs the generating chain")
    k = data.k
    if not (1 <= position <= k):
        raise ValueError(f"position must be in 1..{k}, got {position}")
    level = (Fraction(data.levels[position]) + Fraction(data.levels[position + 1])) / 2

    m, n = data.chain[position]
    m2, n2 = data.chain[position + 1]
    new_chain = (
        data.chain[: position + 1]
        + ((m + m2, n + n2),)
        + data.chain[position + 1 :]
    )
    new_levels = data.levels[: position + 1] + (level,) + data.levels[position + 1 :]
    return monopole_from_chain(new_chain, new_levels)


def mass_verdict(p: int, q: int, u) -> MassVerdict:
    """Sign of the mass of the (p, q) metric for parameters u.

    The mass equals the log coefficient mu; for Hirzebruch-Jung data the
    sign is never positive and is zero exactly in the crepant case
    p = q - 1.  The Burns datum (1, 1) is the positive-mass exception.
    Only mu is built, with the sums and the u checks of :func:`mu_from_u`.
    """
    qa, qb, den, _ = _u_sums(_chain_for(p, q), u)
    return _verdict(p, q, Fraction(qa + qb, den))


def verdict_from_coeffs(p: int, q: int, coeffs: LogCoefficients) -> MassVerdict:
    """The mass sign rule of :func:`mass_verdict`, on coefficients of (p, q)."""
    return _verdict(p, q, coeffs.mu)


def _verdict(p: int, q: int, mu: Fraction) -> MassVerdict:
    sign = 0 if mu == 0 else (1 if mu > 0 else -1)
    return MassVerdict(mu=mu, sign=sign, crepant=(p == q - 1))


def _chain_for(p: int, q: int) -> tuple[Pair, ...]:
    return _validate_chain(BURNS_CHAIN) if (p, q) == (1, 1) else hj_expand(p, q).approximants


def _coefficients(chain) -> list[Fraction]:
    # p/q - n_j/m_j + 1/q - 1/m_j over the denominator q m_j, for j = 1..k.
    q, p = chain[-2]
    return [Fraction((p + 1) * m - q * (n + 1), q * m) for m, n in chain[1:-2]]


def _validate_chain(chain) -> tuple[Pair, ...]:
    chain = tuple((int(m), int(n)) for m, n in chain)
    if len(chain) < 3:
        raise ValueError("chain needs at least the three boundary pairs")
    if chain[0] != (0, -1) or chain[1] != (1, 0) or chain[-1] != (0, 1):
        raise ValueError(
            "chain must start (0,-1), (1,0) and end (0,1), got "
            f"{chain[0]}, {chain[1]}, ..., {chain[-1]}"
        )
    for j in range(1, len(chain) - 1):
        if chain[j][0] <= 0:
            raise ValueError(f"interior chain pair {chain[j]} must have m > 0")
    # Unit determinant at every junction except the closing one, whose
    # determinant is the group order q.
    for j in range(len(chain) - 2):
        (m0, n0), (m1, n1) = chain[j], chain[j + 1]
        if m0 * n1 - m1 * n0 != 1:
            raise ValueError(f"junction {j} has determinant {m0 * n1 - m1 * n0}, not 1")
    return chain


def _validate_levels(levels, expected: int) -> tuple:
    out = []
    for i, y in enumerate(levels):
        if isinstance(y, Fraction):
            out.append(y)
        elif y == INFINITY:
            if i != 0:
                raise ValueError("only y_0 may be infinite")
            out.append(INFINITY)
        else:
            out.append(_finite(y, "levels must be finite, apart from y_0 = inf"))
    if len(out) != expected:
        raise ValueError(f"expected {expected} levels, got {len(out)}")
    # Every level after y_0 is a Fraction, so the order is decided by integer
    # cross-multiplication (denominators are positive); y_0 = inf is above all.
    finite = out[1:] if out[0] == INFINITY else out
    for a, b in zip(finite, finite[1:]):
        if not b.numerator * a.denominator < a.numerator * b.denominator:
            raise ValueError(f"levels must be strictly decreasing, got {', '.join(map(str, out))}")
    if out[-1] != 0:
        raise ValueError(f"last level must be exactly 0, got {out[-1]}")
    return tuple(out)


def _finite(x, message: str) -> Fraction:
    """``Fraction(x)``, with ``ValueError(message)`` for an infinite or NaN x."""
    try:
        return Fraction(x)
    except (OverflowError, ValueError):
        # A float or Decimal fails only when infinite (OverflowError) or NaN;
        # anything else, such as a malformed string, keeps its own error.
        if isinstance(x, (float, Decimal)):
            raise ValueError(message) from None
        raise


def _reciprocal(y) -> Pair:
    """1/y as an integer pair (numerator, denominator); 1/inf is (0, 1)."""
    if not isinstance(y, Fraction):
        if y == INFINITY:
            return 0, 1
        y = Fraction(y)
    return y.denominator, y.numerator
