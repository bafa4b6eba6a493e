"""One-row rank and positive-kernel test for the gluing matrix.

The gluing matrix of a strictly polystable surface has at most one row,
one entry per log term, because there is exactly one kernel function phi
beyond the constants.  Its rank is 1 iff that row is nonzero.  For a
single row r with entry sum s, a strictly positive kernel vector exists
iff s = 0 or some entry has the sign opposite to s, and then it has a
closed form: w = 1 when s = 0, otherwise w is 1 except at the first such
entry r_k, where w_k = 1 - s/r_k > 1 makes r . w = 0.  Everything is
``fractions.Fraction`` arithmetic.
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
        A vector with every entry >= 1 annihilated by M, if one exists.

    Raises
    ------
    ValueError
        If M has more than one row.
    """
    if ncols == 0:
        return None
    row = _single_row(rows)
    w = [Fraction(1)] * ncols
    if row is None:
        return tuple(w)
    s = sum(row)
    if s != 0:
        k = next((k for k, x in enumerate(row) if x * s < 0), None)
        if k is None:
            return None
        w[k] = 1 - s / row[k]
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
