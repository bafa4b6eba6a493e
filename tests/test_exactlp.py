"""Exact rank and the one-row positive-kernel test.

The sign test in :func:`positive_kernel_vector` is checked against an
independent oracle: a phase-one simplex (``solve_nonneg``) that decides
``M s = -M 1, s >= 0`` for any number of rows.  Each witness is checked
by :func:`assert_sign_witness`.  On rows of -1, 0 and 1 the witness
equals the simplex's, and the exhaustive test compares the two exactly.
"""

import itertools
import random
from fractions import Fraction

from cscglue.exactlp import positive_kernel_vector, rational_rank


def F(x):
    return Fraction(x)


def assert_sign_witness(row, w):
    """The witness rule of :mod:`cscglue.exactlp` for one row r.

    r . w = 0 and every w_i > 0; where r_i != 0, w_i |r_i| is 1 or
    1 + |P - N| (P and N count the positive and negative entries) with at
    most one entry at the larger value; where r_i = 0, w_i = 1.
    """
    row = tuple(map(Fraction, row))
    imbalance = abs(sum(x > 0 for x in row) - sum(x < 0 for x in row))
    assert len(w) == len(row)
    assert all(type(x) is Fraction and x > 0 for x in w)
    assert sum(r * x for r, x in zip(row, w)) == 0
    scaled = [x * abs(r) for r, x in zip(row, w) if r]
    assert set(scaled) <= {1, 1 + imbalance}
    assert sum(x != 1 for x in scaled) <= 1
    assert all(x == 1 for r, x in zip(row, w) if not r)


def test_rank_basic():
    assert rational_rank(()) == 0
    assert rational_rank((F(0), F(0))) == 0
    assert rational_rank((F(1), F(2))) == 1
    assert rational_rank((F(0), Fraction(-1, 3))) == 1


def test_positive_kernel_one_row():
    w = positive_kernel_vector((F(-1), F(1)))
    assert w is not None
    assert -w[0] + w[1] == 0
    assert all(x >= 1 for x in w)
    assert positive_kernel_vector((F(-1), F(-1))) is None
    assert positive_kernel_vector((F(1), F(1))) is None
    assert positive_kernel_vector((F(1), F(-3), F(1))) is not None


def test_positive_kernel_edge_cases():
    assert positive_kernel_vector(()) is None
    # Zero row constrains nothing.
    assert positive_kernel_vector((F(0), F(0), F(0))) == (F(1), F(1), F(1))
    # Zero column together with a one-signed row: still infeasible.
    assert positive_kernel_vector((F(0), F(1))) is None


def test_solve_nonneg_direct():
    # x1 + x2 = 2, x1 - x2 = 0 has the solution (1, 1).
    s = solve_nonneg([(F(1), F(1)), (F(1), F(-1))], [F(2), F(0)])
    assert s == (F(1), F(1))
    # Infeasible: x1 + x2 = -1 with x >= 0.
    assert solve_nonneg([(F(1), F(1))], [F(-1)]) is None


def test_randomised_against_construction():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 6)
        # Build a row that annihilates a known positive vector.
        w = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)]
        if n == 1:
            row = [F(0)]
        else:
            row = [Fraction(rng.randint(-4, 4)) for _ in range(n - 1)]
            tail = -sum(a * x for a, x in zip(row, w))
            row.append(tail / w[-1])
        got = positive_kernel_vector(tuple(row))
        assert got is not None
        assert sum(a * x for a, x in zip(row, got)) == 0
        assert all(x > 0 for x in got)


def test_randomised_infeasible():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 6)
        row = [Fraction(rng.randint(1, 5)) for _ in range(n)]  # all positive
        assert positive_kernel_vector(tuple(row)) is None


def test_closed_form_matches_simplex_random():
    rng = random.Random(20070321)
    for _ in range(3000):
        n = rng.randint(1, 7)
        row = tuple(
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)
        )
        w = positive_kernel_vector(row)
        assert (w is None) == (simplex_positive_kernel(row) is None)
        if w is not None:
            assert_sign_witness(row, w)


def test_closed_form_matches_simplex_exhaustive():
    for n in range(1, 9):
        for row in itertools.product((F(-1), F(0), F(1)), repeat=n):
            assert positive_kernel_vector(row) == simplex_positive_kernel(row)


# ---------------------------------------------------------------------------
# oracle: phase-one simplex over Fraction, for any number of rows


def simplex_positive_kernel(row):
    """Positive kernel vector of one row via ``M s = -M 1, s >= 0``.

    A strictly positive kernel vector exists iff that system is feasible
    (then w = 1 + s >= 1 is one, and conversely any strictly positive
    kernel vector rescales to one with minimum entry 1).
    """
    s = solve_nonneg([row], [-sum(row)])
    if s is None:
        return None
    return tuple(1 + x for x in s)


def solve_nonneg(rows, rhs):
    """Solve M s = b with s >= 0 exactly; return s or None.

    Phase-one simplex: minimise the sum of artificial variables over
    ``M s + I a = b`` (rows negated as needed so b >= 0).  Bland's rule
    guarantees termination.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    tableau = []
    b = []
    for row, bi in zip(rows, rhs):
        row = list(map(Fraction, row))
        bi = Fraction(bi)
        if bi < 0:
            row = [-x for x in row]
            bi = -bi
        tableau.append(row)
        b.append(bi)
    # Append the artificial identity block.
    for i in range(m):
        tableau[i].extend(Fraction(1) if j == i else Fraction(0) for j in range(m))
    basis = [n + i for i in range(m)]

    # Reduced-cost row for minimising the artificial sum: artificial
    # columns start with cost 0, structural columns with -(column sum).
    obj = [-sum(tableau[i][j] for i in range(m)) for j in range(n)]
    obj += [Fraction(0)] * m

    while True:
        # Bland's rule: smallest-index entering and leaving variables.
        enter = next((j for j, cj in enumerate(obj) if cj < 0), None)
        if enter is None:
            break
        ratios = [
            (b[i] / tableau[i][enter], basis[i], i)
            for i in range(m)
            if tableau[i][enter] > 0
        ]
        if not ratios:
            # Unbounded phase-one problem cannot happen (objective >= 0),
            # but guard against malformed input.
            return None
        _, _, leave = min(ratios)
        _pivot(tableau, b, obj, enter, leave)
        basis[leave] = enter

    # Optimal artificial sum: recompute from the basic solution.
    total = sum(b[i] for i in range(m) if basis[i] >= n)
    if total != 0:
        return None
    solution = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = b[i]
    return tuple(solution)


def _pivot(tableau, b, obj, enter: int, leave: int) -> None:
    m = len(tableau)
    pv = tableau[leave][enter]
    tableau[leave] = [x / pv for x in tableau[leave]]
    b[leave] /= pv
    for i in range(m):
        if i != leave and tableau[i][enter]:
            factor = tableau[i][enter]
            tableau[i] = [x - factor * y for x, y in zip(tableau[i], tableau[leave])]
            b[i] -= factor * b[leave]
    if obj[enter]:
        factor = obj[enter]
        for j in range(len(obj)):
            obj[j] -= factor * tableau[leave][j]
