"""Hirzebruch-Jung (negative-regular) continued fractions.

For a coprime pair of integers 0 < p < q the fraction q/p has a unique
expansion

    q/p = e_1 - 1/(e_2 - 1/( ... - 1/e_k))

with every digit e_j >= 2.  These digits encode the minimal resolution of
the cyclic quotient singularity C^2/Gamma_{p,q}, where Gamma_{p,q} acts by
(z_1, z_2) -> (zeta z_1, zeta^p z_2) for zeta a primitive q-th root of
unity: the exceptional divisor is a chain of rational curves with
self-intersections -e_1, ..., -e_k.

Alongside the digits we carry the approximant pairs (m_j, n_j):

    (m_0, n_0) = (0, -1),   (m_1, n_1) = (1, 0),
    m_{j+1} = e_j m_j - m_{j-1},   n_{j+1} = e_j n_j - n_{j-1},

closed off by the convention (m_{k+2}, n_{k+2}) = (0, 1).  The recurrence
preserves the determinant, so m_j n_{j+1} - m_{j+1} n_j = 1 for
j = 0, ..., k, and the final recurrence pair is (m_{k+1}, n_{k+1}) = (q, p).
The junction with the closing conventional pair has determinant q instead
(it is the order of the quotient group, not a smooth junction).

The digits come as (digit, multiplicity) runs from the regular continued
fraction q/p = [a_1; a_2, ..., a_n] (Riemenschneider's point diagram):
(a_1 + 1, 1), (2, a_2 - 1), (a_3 + 2, 1), (2, a_4 - 1), ..., except that
a_n gives a_n + 1 when n is odd (a lone a_1 gives a_1), and runs of
multiplicity 0 are left out.  There are O(log q) runs even where
there are q - 1 digits, as in the runs (2, 1), (2, q - 2) of (q-1)/q.

Every expansion is checked once, in run form.  :func:`hj_runs` returns
runs that ``_check_runs`` has walked through the recurrence, t twos
moving (m, n) by t times its last difference, raising on a digit below
2, on m not growing across a run, on det != 1 after a run and on a close
other than (q, p).  :func:`hj_expand` builds its digits and pairs from
those runs, and the run checks imply every per-pair invariant:

* the step x_{j+1} = e_j x_j - x_{j-1} keeps det(x_{j-1}, x_j) for any
  e_j, so the start pairs give det = 1 at junctions 0, ..., k;
* m_{j+1} - m_j = (e_j - 2) m_j + (m_j - m_{j-1}), so from m_0 = 0 <
  m_1 = 1 digits >= 2 keep m_j > 0 and every difference >= 1, that is
  m_1 < ... < m_{k+1};
* the close (m_{k+1}, n_{k+1}) = (q, p) is checked after the last run.

``_approximants`` runs the same recurrence over the same digits, which
the tests pin with the per-pair check as an oracle.  So ``logmass`` sums
the pairs as they come, and the strings of ``resolution``, and through
them ``fiber_chain`` and ``gluing.existence_report``, need only the runs.

All arithmetic in this module is exact; no floating point.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd
from operator import index


class HJExpansion(namedtuple("HJExpansion", "p q digits approximants")):
    """Negative-regular expansion of q/p with its approximant pairs.

    Attributes
    ----------
    p, q : int
        The coprime pair, 0 < p < q.
    digits : tuple of int
        The digits e_1, ..., e_k, all >= 2.
    approximants : tuple of (int, int)
        The pairs (m_j, n_j) for j = 0, ..., k+2 as described in the
        module docstring.
    """

    __slots__ = ()


def hj_expand(p: int, q: int) -> HJExpansion:
    """Expand q/p as a negative-regular continued fraction.

    Parameters
    ----------
    p, q : int
        Coprime integers with 0 < p < q.

    Returns
    -------
    HJExpansion
        The unique expansion with all digits >= 2 whose final recurrence
        approximant is (q, p).

    Raises
    ------
    ValueError
        If (p, q) is out of range or not coprime.
    """
    runs = hj_runs(p, q)
    digits = expand_runs(runs)
    # Python ints throughout, so that logmass can sum the pairs unconverted.
    return HJExpansion(index(p), index(q), digits, _approximants(digits))


def hj_runs(p: int, q: int) -> tuple[tuple[int, int], ...]:
    """The digits of ``hj_expand(p, q)`` as checked (digit, multiplicity) runs.

    O(log q) steps and no approximant pairs; see the module docstring.

    Raises
    ------
    ValueError
        If (p, q) is out of range or not coprime.
    """
    _check_pair(p, q)
    p, q = index(p), index(q)
    runs = _runs(p, q)
    _check_runs(p, q, runs)
    return runs


def expand_runs(runs) -> tuple:
    """The sequence that (value, multiplicity) runs stand for, as a tuple."""
    out = []
    for value, count in runs:
        out += (value,) * count
    return tuple(out)


def hj_length(p: int, q: int) -> int:
    """Number of digits of ``hj_expand(p, q)``, in O(log q) steps.

    The sum of the run multiplicities: a_2 + a_4 + ... digits, plus one
    when the regular continued fraction has an odd number of quotients.
    This bounds chain lengths without building the O(q) digits of
    fractions like (q-1)/q.

    Raises
    ------
    ValueError
        If (p, q) is out of range or not coprime.
    """
    _check_pair(p, q)
    return sum(count for _, count in _runs(p, q))


def _check_pair(p: int, q: int) -> None:
    if not (0 < p < q):
        raise ValueError(f"need 0 < p < q, got p={p}, q={q}")
    if gcd(p, q) != 1:
        raise ValueError(f"p={p} and q={q} are not coprime")


def _runs(p: int, q: int) -> tuple[tuple[int, int], ...]:
    # One Euclid step per regular quotient, two quotients per turn: odd i
    # gives the digit a_i + 2 - [i = 1] - [i = n], even i gives a_i - 1 twos.
    runs = []
    a, b, bump = q, p, 0
    while True:
        d, r = divmod(a, b)  # an odd-index quotient
        runs.append((d + bump + (r > 0), 1))
        if not r:
            break
        a, b = b, r
        d, r = divmod(a, b)  # the even-index quotient after it
        if d > 1:
            runs.append((2, d - 1))
        if not r:
            break
        a, b, bump = b, r, 1
    return tuple(runs)


def _approximants(digits) -> tuple[tuple[int, int], ...]:
    m0, n0, m1, n1 = 0, -1, 1, 0
    pairs = [(m0, n0), (m1, n1)]
    for e in digits:
        m0, n0, m1, n1 = m1, n1, e * m1 - m0, e * n1 - n0
        pairs.append((m1, n1))
    pairs.append((0, 1))
    return tuple(pairs)


def _check_runs(p: int, q: int, runs) -> None:
    # The one check of an expansion, with explicit raises for ``python -O``;
    # the module docstring shows that it implies every per-pair invariant.
    # The recurrence keeps the determinant, so a run list cannot change it;
    # that check guards the jump over a run of twos.
    m0, n0, m1, n1 = 0, -1, 1, 0
    for e, t in runs:
        if e < 2:
            raise RuntimeError(f"expansion of {q}/{p}: run {(e, t)} has a digit below 2")
        before = m1
        if e == 2:
            dm, dn = m1 - m0, n1 - n0
            m0, n0, m1, n1 = m1 + (t - 1) * dm, n1 + (t - 1) * dn, m1 + t * dm, n1 + t * dn
        else:
            for _ in range(t):
                m0, n0, m1, n1 = m1, n1, e * m1 - m0, e * n1 - n0
        if not before < m1:
            raise RuntimeError(f"expansion of {q}/{p}: m_j not increasing across run {(e, t)}")
        det = m0 * n1 - m1 * n0
        if det != 1:
            raise RuntimeError(f"expansion of {q}/{p}: determinant {det} after run {(e, t)}")
    if (m1, n1) != (q, p):
        raise RuntimeError(f"expansion of {q}/{p} closes at {(m1, n1)}")

