"""Orbifold bases, the gluing matrix, feasibility, and the pipeline."""

import itertools
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from cscglue.gluing import (
    FixType,
    GluingVerdict,
    OrbifoldSurface,
    chi_orb,
    existence_report,
    feasibility,
    gluing_matrix,
    is_good,
    orbifold_from_parabolic,
    phi_value,
)
from cscglue.logmass import mass_sign
from cscglue.parabolic import (
    ParabolicSurface,
    SectionData,
    StabilityKind,
    classify,
    coord_str,
    is_sporadic,
    normalize_coord,
)
from test_exactlp import assert_sign_witness, simplex_positive_kernel

F = Fraction


def trivial_surface(weights, coords):
    return ParabolicSurface(
        genus=0,
        points=tuple(f"P{i+1}" for i in range(len(weights))),
        weights=tuple(F(w) for w in weights),
        incidence=tuple(normalize_coord(*c) for c in coords),
    )


def sections_surface(genus, weights, incidence):
    ids = sorted(set(incidence))
    sections = tuple(
        SectionData(
            id=i,
            self_intersection=0,
            disjoint_from=frozenset(j for j in ids if j != i),
        )
        for i in ids
    )
    return ParabolicSurface(
        genus=genus,
        points=tuple(f"P{i+1}" for i in range(len(weights))),
        weights=tuple(F(w) for w in weights),
        incidence=tuple(incidence),
        model="sections",
        sections=sections,
    )


TORIC = trivial_surface([F(1, 2), F(1, 2)], [(1, 0), (0, 1)])
FOUR_POINT = trivial_surface(
    [F(1, 2), F(1, 2), F(1, 3), F(1, 3)], [(1, 0), (0, 1), (1, 0), (0, 1)]
)
THREE_POINT = trivial_surface([F(2, 9), F(2, 9), F(4, 9)], [(1, 0), (1, 0), (0, 1)])


def test_orbifold_from_parabolic():
    orb = orbifold_from_parabolic(TORIC)
    assert orb.genus == 0 and orb.orders == (2, 2)
    orb = orbifold_from_parabolic(FOUR_POINT)
    assert orb.orders == (2, 2, 3, 3)
    empty = ParabolicSurface(genus=0, points=(), weights=(), incidence=())
    assert orbifold_from_parabolic(empty).orders == ()


def test_orbifold_genus_must_be_integer():
    for bad in (1.5, True, F(1)):
        with pytest.raises(TypeError, match=re.escape(f"genus must be an integer, got {bad!r}")):
            OrbifoldSurface(genus=bad, orders=(2,))
    assert chi_orb(OrbifoldSurface(genus=1, orders=(2,))) == F(-1, 2)


def test_orbifold_genus_must_be_non_negative():
    with pytest.raises(ValueError, match=re.escape("genus must be >= 0, got -3")):
        OrbifoldSurface(genus=-3, orders=(2,))


def test_orbifold_orders_are_integers_kept_as_a_tuple():
    for bad in (2.5, True, F(3), "3"):
        with pytest.raises(TypeError,
                           match=re.escape(f"orbifold order must be an integer, got {bad!r}")):
            OrbifoldSurface(genus=0, orders=(bad, 3))
    orb = OrbifoldSurface(genus=0, orders=[2, 2])
    assert orb.orders == (2, 2) and type(orb.orders) is tuple
    assert orb._replace(orders=[3, 3]).orders == (3, 3)
    with pytest.raises(ValueError, match=re.escape("orbifold orders must be >= 2, got 1")):
        orb._replace(orders=[1])


def test_chi_orb():
    assert chi_orb(OrbifoldSurface(0, (2, 2))) == 1
    assert chi_orb(OrbifoldSurface(0, (2, 2, 3, 3))) == F(-1, 3)
    assert chi_orb(OrbifoldSurface(2, ())) == -2
    # Adding a point of order q lowers chi by exactly 1 - 1/q.
    for q in (2, 3, 7):
        a = chi_orb(OrbifoldSurface(0, (2, 2)))
        b = chi_orb(OrbifoldSurface(0, (2, 2, q)))
        assert a - b == 1 - F(1, q)


def test_is_good():
    assert not is_good(OrbifoldSurface(0, (3,)))  # teardrop
    assert not is_good(OrbifoldSurface(0, (2, 3)))
    assert is_good(OrbifoldSurface(0, (2, 2)))
    assert is_good(OrbifoldSurface(0, (2, 3, 7)))
    assert is_good(OrbifoldSurface(1, (5,)))


def test_classify_fixed_points():
    assert FixType.TRIVIAL.dim_v0 == 3
    assert FixType.TWO_FIXED_POINTS.dim_v0 == 1
    assert FixType.NO_FIXED_POINT.dim_v0 == 0
    assert FixType.QUOTIENT_SPHERE_BASE.dim_v0 == 2


def test_phi_values():
    assert phi_value((1, 0)) == 1
    assert phi_value((0, 1)) == -1
    assert phi_value((1, 1)) == 0
    assert phi_value((2, 1)) == F(3, 5)
    assert phi_value((1, 2)) == F(-3, 5)


@pytest.mark.parametrize("coord", [(math.inf, 1), (Decimal("Infinity"), 1), (1, math.nan)])
def test_non_finite_coordinate_is_named(coord):
    # A surface with such an incidence is refused when it is built, so
    # classify and existence_report never see one.
    match = r"fiber coordinate \[.* : .*\] is not a finite rational$"
    with pytest.raises(ValueError, match="^" + match):
        phi_value(coord)
    with pytest.raises(ValueError, match="^incidence of point P2: " + match):
        ParabolicSurface(genus=0, points=("P1", "P2"), weights=(F(1, 2), F(1, 2)),
                         incidence=((1, 0), coord))
    with pytest.raises(ValueError, match=r"^extra_points\[0\]: " + match):
        existence_report(TORIC, extra_points=[coord])


def test_gluing_matrix_four_point():
    verdict = classify(FOUR_POINT)
    row, labels = gluing_matrix(FOUR_POINT, verdict)
    assert sorted(row) == [F(-1), F(1)]
    assert all("G(1,3)" in lab for lab in labels)


def test_gluing_matrix_sporadic_single_sign():
    surf = sections_surface(1, [F(1, 3), F(1, 3), F(2, 3)], ["S1", "S1", "S2"])
    verdict = classify(surf)
    assert verdict.kind is StabilityKind.STRICTLY_POLYSTABLE
    assert is_sporadic(surf, verdict)
    row, _ = gluing_matrix(surf, verdict)
    assert len(set(row)) == 1


def test_gluing_matrix_extra_points():
    verdict = classify(TORIC)
    row, labels = gluing_matrix(TORIC, verdict, extra_points=[(F(1), F(1))])
    # Weight-1/2 singularities are crepant on both sides; only the extra
    # point contributes, with value 0 at the equator.
    assert row == (F(0),)
    assert labels[0].startswith("extra:")


def test_gluing_matrix_requires_polystable():
    unstable = trivial_surface([F(1, 2), F(1, 3)], [(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        gluing_matrix(unstable, classify(unstable))


def test_feasibility_cases():
    rep = feasibility((F(-1), F(1)), dim_v0=1)
    assert rep.verdict is GluingVerdict.FEASIBLE
    assert rep.c1 == 1 and rep.c2 == 1
    assert rep.kernel_witness == (F(1), F(1))

    rep = feasibility((F(-1), F(-1)), dim_v0=1)
    assert rep.verdict is GluingVerdict.INFEASIBLE
    assert not rep.positive_kernel

    rep = feasibility((), dim_v0=1)
    assert rep.verdict is GluingVerdict.OBSTRUCTED

    rep = feasibility((), dim_v0=0)
    assert rep.verdict is GluingVerdict.FEASIBLE

    rep = feasibility((F(0),) * 3, dim_v0=0)
    assert rep.verdict is GluingVerdict.FEASIBLE

    # Zero entry from an equator point cannot balance the kernel.
    rep = feasibility((F(0),), dim_v0=1)
    assert rep.verdict is GluingVerdict.INFEASIBLE
    assert rep.c1 == 0


def test_feasibility_witness_exact():
    row = (F(1), F(-2), F(1))
    rep = feasibility(row, dim_v0=1)
    assert rep.verdict is GluingVerdict.FEASIBLE
    w = rep.kernel_witness
    assert sum(a * x for a, x in zip(row, w)) == 0
    assert all(x > 0 for x in w)


def oracle_feasibility(row, dim_v0):
    """(verdict, c1, c2, positive_kernel) from a nonzero test and the simplex.

    The empty vector is a positive kernel vector of the empty row only
    when there is no kernel function to balance (dim V_0 = 0); with
    dim V_0 > 0 the empty row is obstructed.
    """
    rank = int(any(x != 0 for x in row))
    positive = simplex_positive_kernel(row) is not None and (len(row) > 0 or dim_v0 == 0)
    if not row and dim_v0 > 0:
        verdict = GluingVerdict.OBSTRUCTED
    elif rank == dim_v0 and positive:
        verdict = GluingVerdict.FEASIBLE
    else:
        verdict = GluingVerdict.INFEASIBLE
    return verdict, rank, len(row) - rank if positive else 0, positive


def _assert_feasibility_matches_oracle(row, dim_v0):
    rep = feasibility(row, dim_v0)
    assert (rep.verdict, rep.c1, rep.c2, rep.positive_kernel) == \
        oracle_feasibility(row, dim_v0), (row, dim_v0)
    assert rep.ncols == len(row)
    if rep.kernel_witness is not None:
        assert_sign_witness(row, rep.kernel_witness)


def test_feasibility_matches_simplex_on_sign_rows():
    for n in range(7):
        for row in itertools.product((-1, 0, 1), repeat=n):
            for dim_v0 in (0, 1):
                _assert_feasibility_matches_oracle(row, dim_v0)


def test_feasibility_matches_simplex_on_random_rows():
    rng = random.Random(29)
    for _ in range(1500):
        row = tuple(rng.choice((rng.randint(-3, 3), F(rng.randint(-9, 9), rng.randint(1, 7))))
                    for _ in range(rng.randint(0, 8)))
        for dim_v0 in (0, 1):
            _assert_feasibility_matches_oracle(row, dim_v0)


def test_convention_swap_invariance():
    verdict = classify(FOUR_POINT)
    row, _ = gluing_matrix(FOUR_POINT, verdict)
    swapped = tuple(-x for x in row)
    a = feasibility(row, dim_v0=1)
    b = feasibility(swapped, dim_v0=1)
    assert a.c1 == b.c1
    assert a.positive_kernel == b.positive_kernel
    assert a.verdict is b.verdict


def test_pipeline_four_point():
    rep = existence_report(FOUR_POINT)
    assert rep.verdict is GluingVerdict.FEASIBLE
    assert rep.chi_orb == F(-1, 3)
    assert rep.sfk_possible
    assert not rep.sporadic
    assert rep.blowup_total == 10
    assert rep.description == "CP^2 blown up at 11 points"


def test_pipeline_toric():
    rep = existence_report(TORIC)
    assert rep.verdict is GluingVerdict.FEASIBLE_EQUIVARIANT
    assert rep.case is FixType.QUOTIENT_SPHERE_BASE
    strings = [s for _, pair in rep.resolution_strings for s in pair]
    assert strings == [(-2,)] * 4
    assert not rep.sfk_possible  # chi_orb = 1


def test_pipeline_three_point():
    rep = existence_report(THREE_POINT)
    assert rep.verdict is GluingVerdict.FEASIBLE
    assert rep.sfk_possible
    assert rep.stability.kind is StabilityKind.STRICTLY_POLYSTABLE


def test_pipeline_torus_example():
    surf = sections_surface(1, [F(2, 5), F(2, 5)], ["S1", "S2"])
    rep = existence_report(surf)
    assert rep.verdict is GluingVerdict.FEASIBLE
    assert rep.stability.pair is not None


def test_pipeline_teardrop():
    surf = trivial_surface([F(1, 3)], [(1, 0)])
    rep = existence_report(surf)
    assert rep.verdict is GluingVerdict.NOT_APPLICABLE
    assert not rep.good


def test_pipeline_two_distinct_orders():
    surf = trivial_surface([F(1, 2), F(1, 3)], [(1, 0), (0, 1)])
    rep = existence_report(surf)
    assert rep.verdict is GluingVerdict.NOT_APPLICABLE
    assert not rep.good


def test_pipeline_sporadic():
    surf = sections_surface(1, [F(1, 3), F(1, 3), F(2, 3)], ["S1", "S1", "S2"])
    rep = existence_report(surf)
    assert rep.sporadic
    assert rep.verdict in (GluingVerdict.INFEASIBLE, GluingVerdict.OBSTRUCTED)
    assert any("conjectured" in note for note in rep.notes)


def test_pipeline_all_halves_obstructed():
    # Every singularity crepant: empty matrix on the torus base.
    surf = sections_surface(1, [F(1, 2), F(1, 2)], ["S1", "S2"])
    rep = existence_report(surf)
    assert rep.sporadic
    assert rep.verdict is GluingVerdict.OBSTRUCTED
    assert rep.gluing.ncols == 0


def test_pipeline_stable_input():
    surf = trivial_surface([F(1, 5), F(1, 7), F(1, 9)], [(1, 0), (0, 1), (1, 1)])
    rep = existence_report(surf)
    assert rep.stability.kind is StabilityKind.STABLE
    assert rep.verdict is GluingVerdict.FEASIBLE
    assert rep.case is FixType.NO_FIXED_POINT


def test_pipeline_trivial_structure():
    empty = ParabolicSurface(genus=0, points=(), weights=(), incidence=())
    rep = existence_report(empty)
    assert rep.verdict is GluingVerdict.FEASIBLE
    rep = existence_report(empty, extra_points=[(F(2), F(1))])
    assert rep.special_configuration_required
    assert rep.verdict is GluingVerdict.OBSTRUCTED


def test_pipeline_two_point_sphere_extra_points():
    inv = [(F(2), F(1)), (F(1), F(2))]
    rep = existence_report(TORIC, extra_points=inv)
    assert rep.verdict is GluingVerdict.FEASIBLE_EQUIVARIANT
    non_inv = [(F(2), F(1))]
    rep = existence_report(TORIC, extra_points=non_inv)
    assert rep.special_configuration_required
    assert rep.verdict is GluingVerdict.OBSTRUCTED


def test_pipeline_extra_points_both_signs():
    # Extra points on both sides of the equator always rescue
    # feasibility for a non-sporadic strictly polystable base.
    surf = sections_surface(1, [F(1, 3), F(1, 3), F(2, 3)], ["S1", "S1", "S2"])
    rep = existence_report(surf, extra_points=[(F(3), F(1)), (F(1), F(3))])
    assert rep.verdict is GluingVerdict.FEASIBLE


def test_pipeline_unstable():
    # Equal orders keep the orbifold good, isolating the stability gate.
    surf = trivial_surface([F(1, 5), F(2, 5)], [(1, 0), (0, 1)])
    rep = existence_report(surf)
    assert rep.stability.kind is StabilityKind.UNSTABLE
    assert rep.verdict is GluingVerdict.NOT_APPLICABLE


def random_balanced_surface(rng):
    """Random strictly polystable assignment, base not the 2-point sphere."""
    genus = rng.choice([0, 1, 2])
    while True:
        n1 = rng.randint(1, 3)
        n2 = rng.randint(1, 3)
        if genus == 0 and n1 + n2 == 2:
            continue
        ws1 = [F(rng.randint(1, 11), rng.randint(2, 12)) for _ in range(n1)]
        ws2 = [F(rng.randint(1, 11), rng.randint(2, 12)) for _ in range(n2 - 1)]
        ws1 = [w for w in ws1 if 0 < w < 1]
        ws2 = [w for w in ws2 if 0 < w < 1]
        if len(ws1) != n1 or len(ws2) != n2 - 1:
            continue
        last = sum(ws1) - sum(ws2)
        if not (0 < last < 1) or last.denominator > 12:
            continue
        ws2.append(last)
        weights = ws1 + ws2
        incidence = ["S1"] * n1 + ["S2"] * n2
        if genus == 0:
            coords = [(F(1), F(0))] * n1 + [(F(0), F(1))] * n2
            return ParabolicSurface(
                genus=0,
                points=tuple(f"P{i}" for i in range(n1 + n2)),
                weights=tuple(weights),
                incidence=tuple(coords),
            )
        return sections_surface(genus, weights, incidence)


def two_branch_gluing_row(surface, verdict, extra_points=()):
    """The gluing row built branch by branch, each with its own crepancy test.

    A marked point on the first witness section has side +1, one on the
    second -1; the singularity on its own section, Gamma_{p, q}, enters as
    -side unless p = q - 1, and the opposite one, Gamma_{q - p, q}, as +side
    unless q - p = q - 1.  Each extra point enters as +phi.
    """
    s1, _ = verdict.pair
    entries, labels = [], []
    for j, w in enumerate(surface.weights):
        p, q = w.numerator, w.denominator
        on_side, off_side = (+1, -1) if j in s1.contains else (-1, +1)
        if p != q - 1:
            entries.append(F(-on_side))
            labels.append(f"{surface.points[j]}:on-section G({p},{q})")
        if q - p != q - 1:
            entries.append(F(-off_side))
            labels.append(f"{surface.points[j]}:off-section G({q - p},{q})")
    for coord in extra_points:
        coord = normalize_coord(*coord)
        entries.append(phi_value(coord))
        labels.append(f"extra:[{coord_str(coord)}]")
    return tuple(entries), tuple(labels)


def assert_row_matches_two_branch_rule(surface, extra_points=()):
    verdict = classify(surface)
    assert verdict.kind is StabilityKind.STRICTLY_POLYSTABLE
    row, labels = gluing_matrix(surface, verdict, extra_points)
    assert (row, labels) == two_branch_gluing_row(surface, verdict, extra_points)
    assert all(type(x) is F for x in row)
    burns = mass_sign(1, 1)
    assert row[len(row) - len(extra_points):] == tuple(burns * phi_value(c) for c in extra_points)


def test_gluing_row_matches_two_branch_rule_on_every_small_weight():
    # Each weight p/q with q <= 30 on both witness sections of a balanced
    # two-point torus: the marked point on S1 has side +1, the other -1.
    for q in range(2, 31):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                for incidence in (["S1", "S2"], ["S2", "S1"]):
                    surface = sections_surface(1, [F(p, q)] * 2, incidence)
                    assert_row_matches_two_branch_rule(surface)


def test_gluing_row_matches_two_branch_rule_on_random_surfaces():
    rng = random.Random(3201)
    for _ in range(300):
        surface = random_balanced_surface(rng)
        extra = [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(rng.randint(0, 16))]
        extra = [coord if any(coord) else (1, 0) for coord in extra]
        assert_row_matches_two_branch_rule(surface, extra)


def test_sporadic_iff_infeasible_random():
    rng = random.Random(20240811)
    checked = 0
    for _ in range(200):
        surf = random_balanced_surface(rng)
        verdict = classify(surf)
        assert verdict.kind is StabilityKind.STRICTLY_POLYSTABLE
        rep = existence_report(surf)
        bad = rep.verdict in (GluingVerdict.INFEASIBLE, GluingVerdict.OBSTRUCTED)
        assert is_sporadic(surf, verdict) == bad
        checked += 1
    assert checked == 200
