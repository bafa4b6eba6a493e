"""Rank and positive-kernel test of the one-row gluing matrix.

The gluing matrix of a strictly polystable surface is one row, one entry
per log term, because there is exactly one kernel function phi beyond
the constants.  Its rank is 1 iff that row is nonzero.  A nonempty row r
has a strictly positive kernel vector iff r = 0 or it has entries of both
signs (Gordan's alternative).  The witness w_i = 1/|r_i|, or 1 if
r_i = 0, gives r . w = P - N (positive entries less negative ones); if
P != N, w_k is multiplied by 1 + |P - N| at the first entry r_k of the
minority sign.  Only signs decide: w_i |r_i| = 1 at every nonzero entry
but that one, where w_k |r_k| = 1 + |P - N|.  Entries are ``int`` or
``Fraction``; every witness entry is a ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction


def rational_rank(row) -> int:
    """Rank of the one-row matrix: 1 iff the row is nonzero."""
    return int(any(row))


def positive_kernel_vector(row):
    """A strictly positive rational w with r . w = 0, or None.

    Parameters
    ----------
    row : sequence of int or Fraction
        The row r; an empty row has no kernel vector.

    Returns
    -------
    tuple of Fraction or None
        A vector with every entry > 0 annihilated by r, if one exists.
    """
    if not row:
        return None
    w = [Fraction(x.denominator, abs(x.numerator)) if x.numerator else Fraction(1) for x in row]
    balance = sum((x.numerator > 0) - (x.numerator < 0) for x in row)
    if balance:
        k = next((k for k, x in enumerate(row) if x.numerator * balance < 0), None)
        if k is None:
            return None
        w[k] *= 1 + abs(balance)
    return tuple(w)
