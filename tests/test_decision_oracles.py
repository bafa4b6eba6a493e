"""The integer decision arithmetic against the Fraction formulas it replaced.

Slopes, chi_orb and phi are computed in integers over one common
denominator.  The per-step ``Fraction`` formulas they replaced are kept
here as oracles and must agree exactly on seeded surfaces with 0-20
marked points, denominators up to 10^30 and fiber coordinates with
u = 0, v = 0, negative and non-integer entries.
"""

import random
from fractions import Fraction
from math import gcd

from cscglue.exactlp import positive_kernel_vector, rational_rank
from cscglue.gluing import (
    GluingVerdict,
    OrbifoldSurface,
    chi_orb,
    existence_report,
    feasibility,
    phi_value,
)
from cscglue.parabolic import ParabolicSurface, SectionData, classify, normalize_coord
from cscglue.resolution import blowup_count

F = Fraction

COORDS = (
    (F(1), F(0)),
    (F(0), F(1)),
    (F(0), F(-3)),
    (F(-2), F(0)),
    (F(5), F(1)),
    (F(-3), F(2)),
    (F(1, 3), F(-5, 7)),
    (F(-7, 2), F(4)),
    (F(2), F(2)),
    (F(10**20 + 1, 3), F(-(10**19))),
    (3, 0),
    (-4, 6),
)


# -- oracles: the formulas as they were before the common denominator ------


def oracle_normalize(u, v):
    # The primitive integer pair: u/v in lowest terms, or (1, 0) at v = 0.
    u, v = F(u), F(v)
    if v != 0:
        r = u / v
        return (r.numerator, r.denominator)
    return (1, 0)


def oracle_slope(surface, self_intersection, on):
    total = sum(surface.weights, F(0))
    on_sum = sum((surface.weights[j] for j in on), F(0))
    return self_intersection + total - 2 * on_sum


def oracle_chi_orb(orb):
    chi = F(2 - 2 * orb.genus)
    for q in orb.orders:
        chi -= 1 - F(1, q)
    return chi


def oracle_phi(coord):
    u, v = oracle_normalize(*coord)
    return F(u * u - v * v, u * u + v * v)


def oracle_kernel(row):
    row = tuple(map(F, row))
    w = [F(1)] * len(row)
    s = sum(row)
    if s != 0:
        k = next((k for k, x in enumerate(row) if x * s < 0), None)
        if k is None:
            return None
        w[k] = 1 - s / row[k]
    return tuple(w)


# -- seeded inputs ----------------------------------------------------------


def random_weight(rng, qmax):
    q = rng.randrange(2, qmax + 1)
    while True:
        p = rng.randrange(1, q)
        if gcd(p, q) == 1:
            return F(p, q)


def random_trivial(rng, n, qmax):
    return ParabolicSurface(
        genus=0,
        points=tuple(f"P{j}" for j in range(n)),
        weights=tuple(random_weight(rng, qmax) for _ in range(n)),
        incidence=tuple(rng.choice(COORDS) for _ in range(n)),
    )


def random_sections(rng, genus, n, qmax):
    ids = [f"S{i}" for i in range(rng.randrange(1, 4))]
    points = tuple(f"P{j}" for j in range(n))
    sections = tuple(
        SectionData(
            id=i,
            self_intersection=2 * rng.randrange(0, 3),
            contains=frozenset(rng.sample(points, rng.randrange(0, n + 1))),
        )
        for i in ids
    )
    return ParabolicSurface(
        genus=genus,
        points=points,
        weights=tuple(random_weight(rng, qmax) for _ in range(n)),
        incidence=tuple(rng.choice(ids) for _ in range(n)),
        model="sections",
        sections=sections,
    )


def qmax_for(seed):
    return (60, 10**6, 10**30)[seed % 3]


# -- tests ------------------------------------------------------------------


def assert_slopes_match(surface):
    verdict = classify(surface)
    for c in verdict.table:
        assert c.slope == oracle_slope(surface, c.self_intersection, c.contains), c.id
        assert type(c.slope) is Fraction
    assert verdict.min_slope == min(
        oracle_slope(surface, c.self_intersection, c.contains) for c in verdict.table
    )
    return verdict


def test_trivial_p1_slopes_match_oracle():
    for seed in range(240):
        rng = random.Random(seed)
        surface = random_trivial(rng, seed % 21, qmax_for(seed))
        verdict = assert_slopes_match(surface)
        by_weight = sorted(range(surface.n), key=lambda j: (-surface.weights[j], j))
        graphs = [c for c in verdict.table if c.kind == "graph"]
        assert len(graphs) == surface.n // 2
        for d, c in enumerate(graphs, start=1):
            assert c.contains == frozenset(by_weight[: 2 * d + 1])
        coords = {c.coord for c in verdict.table if c.kind == "constant"}
        assert coords == {oracle_normalize(*inc) for inc in surface.incidence}


def test_sections_slopes_match_oracle():
    for seed in range(120):
        rng = random.Random(seed)
        surface = random_sections(rng, 1 + seed % 2, seed % 21, qmax_for(seed))
        assert_slopes_match(surface)


def test_graph_ties_break_by_index():
    # Graph sections take the heaviest points; equal weights, however they
    # are written, go in index order.
    surface = ParabolicSurface(
        genus=0,
        points=("A", "B", "C", "D", "E"),
        weights=(F(1, 3), F(2, 6), F(1, 2), F(5, 10), F(1, 3)),
        incidence=tuple(COORDS[:5]),
    )
    graphs = [c for c in assert_slopes_match(surface).table if c.kind == "graph"]
    assert graphs[0].contains == frozenset({2, 3, 0})


def test_chi_orb_matches_oracle():
    rng = random.Random(5)
    for trial in range(300):
        qmax = (3, 60, 10**30)[trial % 3]
        orders = tuple(rng.randrange(2, qmax + 1) for _ in range(trial % 21))
        orb = OrbifoldSurface(genus=trial % 4, orders=orders)
        assert chi_orb(orb) == oracle_chi_orb(orb)
        assert type(chi_orb(orb)) is Fraction


def test_phi_and_normalize_match_oracle():
    rng = random.Random(9)
    coords = list(COORDS)
    for _ in range(300):
        u = F(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4))
        v = F(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4))
        if u or v:
            coords.append((u, v))
    for coord in coords:
        assert normalize_coord(*coord) == oracle_normalize(*coord)
        assert phi_value(coord) == oracle_phi(coord)
        assert phi_value(normalize_coord(*coord)) == oracle_phi(coord)
    assert phi_value((2, 1)) == F(3, 5)
    assert phi_value((0, 7)) == -1
    assert phi_value((-4, 0)) == 1


def test_normal_pair_returned_unchanged():
    for coord in COORDS:
        u, v = normalize_coord(*coord)
        again = normalize_coord(u, v)
        assert again == (u, v)
        assert again[0] is u and again[1] is v


def test_exact_layer_accepts_int_rows():
    report = feasibility([(1, -2, 3)], ncols=3, dim_v0=1, col_labels=("a", "b", "c"))
    assert all(type(x) is Fraction for x in report.rows[0])
    assert report.kernel_witness == oracle_kernel((1, -2, 3))
    assert rational_rank([(0, 0)]) == 0
    assert rational_rank([(0, 3)]) == 1
    assert rational_rank([]) == 0
    for row in ((1, 2, -1), (2, 3), (0, 0, 0), (-5, 1, 1), (F(1, 2), -1)):
        w = positive_kernel_vector([row], len(row))
        assert w == oracle_kernel(row)
        if w is not None:
            assert all(type(x) is Fraction for x in w)
            assert sum(r * x for r, x in zip(row, w)) == 0


def test_pipeline_matches_oracles_on_polystable_surfaces():
    seen = set()
    for seed in range(150):
        rng = random.Random(seed)
        side = [random_weight(rng, 60) for _ in range(rng.randrange(1, 6))]
        other = side[:]
        rng.shuffle(other)
        weights = side + other
        poles = [rng.choice(COORDS[:1] + COORDS[3:4] + COORDS[10:11]) for _ in side]
        zeros = [rng.choice(COORDS[1:3]) for _ in other]
        surface = ParabolicSurface(
            genus=0,
            points=tuple(f"P{j}" for j in range(len(weights))),
            weights=tuple(weights),
            incidence=tuple(poles + zeros),
        )
        extra = [rng.choice(COORDS) for _ in range(rng.randrange(0, 5))]
        report = existence_report(surface, extra)
        assert report.chi_orb == oracle_chi_orb(report.orbifold)
        assert report.blowup_total == sum(blowup_count(w) for w in weights)
        seen.add(report.verdict)
        if report.gluing is None or not report.gluing.rows:
            continue
        row = report.gluing.rows[0]
        assert all(type(x) is Fraction for x in row)
        assert row[len(row) - len(extra):] == tuple(oracle_phi(c) for c in extra)
        assert report.gluing.kernel_witness == oracle_kernel(row)
    assert GluingVerdict.FEASIBLE in seen
