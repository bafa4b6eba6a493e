"""Exact rational rank and the one-row positive-kernel test.

The gluing feasibility question reduces to two pieces of exact linear
algebra on a matrix with rational entries:

* its rank;
* whether its kernel contains a strictly positive vector.

The gluing matrix of a strictly polystable surface has one row, one entry
per log term, because there is exactly one kernel function phi beyond the
constants.  For a single row r with entry sum s, a strictly positive
kernel vector exists iff s = 0 or some entry has the sign opposite to s,
and then it has a closed form: w = 1 when s = 0, otherwise w is 1 except
at the first such entry r_k, where w_k = 1 - s/r_k > 1 makes r . w = 0.
Everything is ``fractions.Fraction`` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction


def rational_rank(rows) -> int:
    """Rank of a matrix given as an iterable of equal-length rows."""
    work = [list(map(Fraction, row)) for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    col = 0
    while rank < len(work) and col < ncols:
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][col]
        for r in range(rank + 1, len(work)):
            factor = work[r][col] / pv
            if factor:
                for c in range(col, ncols):
                    work[r][c] -= factor * work[rank][c]
        rank += 1
        col += 1
    return rank


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
    rows = [tuple(map(Fraction, row)) for row in rows]
    if len(rows) > 1:
        raise ValueError(f"the kernel test takes at most one row, got {len(rows)}")
    w = [Fraction(1)] * ncols
    if not rows:
        return tuple(w)
    row = rows[0]
    s = sum(row)
    if s != 0:
        k = next((k for k, x in enumerate(row) if x * s < 0), None)
        if k is None:
            return None
        w[k] = 1 - s / row[k]
    return tuple(w)
