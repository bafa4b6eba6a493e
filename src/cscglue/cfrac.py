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

All arithmetic in this module is exact; no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import index


@dataclass(frozen=True)
class HJExpansion:
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

    p: int
    q: int
    digits: tuple[int, ...]
    approximants: tuple[tuple[int, int], ...]


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
    _check_pair(p, q)
    # Python ints throughout, so that logmass can sum the pairs unconverted.
    p, q = index(p), index(q)

    # Iterated ceiling division: e = ceil(a/b), then (a, b) <- (b, e*b - a).
    # The remainder e*b - a lies in [0, b), so digits stay >= 2 and the
    # process terminates with b = 0.
    digits = []
    a, b = q, p
    while b > 0:
        e = -(-a // b)
        digits.append(e)
        a, b = b, e * b - a

    exp = HJExpansion(p=p, q=q, digits=tuple(digits), approximants=_approximants(digits))
    _check_invariants(exp)
    return exp


def hj_length(p: int, q: int) -> int:
    """Number of digits of ``hj_expand(p, q)``, in O(log q) steps.

    With q/p = [a_1; a_2, ..., a_n] the regular continued fraction, the
    expansion turns a_1 into one digit and a_2 into a_2 - 1 digits 2,
    then restarts on [a_3 + 1; a_4, ..., a_n].  It therefore has
    a_2 + a_4 + ... digits, plus one when n is odd, which bounds chain
    lengths without building the O(q) digits of fractions like (q-1)/q.

    Raises
    ------
    ValueError
        If (p, q) is out of range or not coprime.
    """
    _check_pair(p, q)
    quotients = []
    a, b = q, p
    while b > 0:
        quotients.append(a // b)
        a, b = b, a % b
    return sum(quotients[1::2]) + len(quotients) % 2


def _check_pair(p: int, q: int) -> None:
    if not (0 < p < q):
        raise ValueError(f"need 0 < p < q, got p={p}, q={q}")
    if gcd(p, q) != 1:
        raise ValueError(f"p={p} and q={q} are not coprime")


def _approximants(digits) -> tuple[tuple[int, int], ...]:
    pairs = [(0, -1), (1, 0)]
    for e in digits:
        (m0, n0), (m1, n1) = pairs[-2], pairs[-1]
        pairs.append((e * m1 - m0, e * n1 - n0))
    pairs.append((0, 1))
    return tuple(pairs)


def _check_invariants(exp: HJExpansion) -> None:
    # Explicit raises, not asserts: the checks must survive ``python -O``.
    # logmass uses the pairs unchecked, so this covers logmass._validate_chain:
    # the end pairs, det = 1 at junctions 0..k, and m_1 = 1 < ... < m_{k+1}.
    k = len(exp.digits)
    pairs = exp.approximants
    if pairs[:2] != ((0, -1), (1, 0)) or pairs[k + 1 :] != ((exp.q, exp.p), (0, 1)):
        raise RuntimeError(f"expansion of {exp.q}/{exp.p} has ends {pairs[:2]}, {pairs[k + 1 :]}")
    for j in range(k + 1):
        mj, nj = pairs[j]
        mj1, nj1 = pairs[j + 1]
        det = mj * nj1 - mj1 * nj
        if det != 1:
            raise RuntimeError(f"expansion of {exp.q}/{exp.p}: junction {j} has determinant {det}")
    for j in range(1, k + 1):
        if not pairs[j][0] < pairs[j + 1][0]:
            raise RuntimeError(f"expansion of {exp.q}/{exp.p}: m_j not increasing at j={j}")

