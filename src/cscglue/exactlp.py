"""One-row rank and positive-kernel test for the gluing matrix.

The gluing matrix of a strictly polystable surface has at most one row,
one entry per log term, because there is exactly one kernel function phi
beyond the constants.  Its rank is 1 iff that row is nonzero.  A row r
has a strictly positive kernel vector iff r = 0 or it has entries of both
signs (Gordan's alternative).  The witness w_i = 1/|r_i|, or 1 if r_i = 0,
gives r . w = P - N (positive entries less negative ones); if P != N, w_k
is multiplied by 1 + |P - N| at the first entry r_k of the minority sign.
Only signs decide, no w_i outgrows one entry, and all is ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction


def rational_rank(rows) -> int:
    """Rank of a matrix of at most one row: 1 iff the row is nonzero."""
    row = _single_row(rows)
    return int(row is not None and any(row))


def positive_kernel_vector(rows, ncols: int):
    """A strictly positive rational w with M w = 0, or None.

    Parameters
    ----------
    rows : iterable of rows
        The matrix M with at most one row; may be empty (no constraints).
    ncols : int
        Number of columns of M, needed explicitly when M has no rows.

    Returns
    -------
    tuple of Fraction or None
        A vector with every entry > 0 annihilated by M, if one exists.

    Raises
    ------
    ValueError
        If M has more than one row.
    """
    if ncols == 0:
        return None
    row = _single_row(rows)
    if row is None:
        return (Fraction(1),) * ncols
    w = [Fraction(x.denominator, abs(x.numerator)) if x.numerator else Fraction(1) for x in row]
    balance = sum((x.numerator > 0) - (x.numerator < 0) for x in row)
    if balance:
        k = next((k for k, x in enumerate(row) if x.numerator * balance < 0), None)
        if k is None:
            return None
        w[k] *= 1 + abs(balance)
    return tuple(w)


def fraction_rows(rows) -> tuple[tuple[Fraction, ...], ...]:
    """The rows as tuples of Fractions, converting only entries that are not."""
    return tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in rows)


def _single_row(rows):
    """The only row of a matrix as a tuple of Fractions, or None if it has no rows.

    Raises
    ------
    ValueError
        If the matrix has more than one row.
    """
    rows = fraction_rows(rows)
    if len(rows) > 1:
        raise ValueError(f"the gluing matrix has at most one row, got {len(rows)}")
    return rows[0] if rows else None
