"""Slopes, stability classification, and sporadic detection."""

import random
import re
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, strategies as st

from cscglue.parabolic import (
    ParabolicSurface,
    SectionData,
    StabilityKind,
    classify,
    is_sporadic,
    normalize_coord,
)

F = Fraction


def slope(surface, section):
    """[S]^2 + sum of weights off S - sum of weights on S, from the definition."""
    on = sum(w for p, w in zip(surface.points, surface.weights) if p in section.contains)
    off = sum(w for p, w in zip(surface.points, surface.weights) if p not in section.contains)
    return section.self_intersection + off - on


def trivial_surface(weights, coords, points=None):
    n = len(weights)
    points = points or tuple(f"P{i+1}" for i in range(n))
    return ParabolicSurface(
        genus=0,
        points=tuple(points),
        weights=tuple(F(w) for w in weights),
        incidence=tuple(normalize_coord(*c) for c in coords),
    )


TORIC = trivial_surface([F(1, 2), F(1, 2)], [(1, 0), (0, 1)])

FOUR_POINT = trivial_surface(
    [F(1, 2), F(1, 2), F(1, 3), F(1, 3)],
    [(1, 0), (0, 1), (1, 0), (0, 1)],
)

THREE_POINT = trivial_surface(
    [F(2, 9), F(2, 9), F(4, 9)],
    [(1, 0), (1, 0), (0, 1)],
)


def torus_surface(weights, incidence):
    ids = sorted(set(incidence))
    sections = tuple(
        SectionData(
            id=i,
            self_intersection=0,
            contains=frozenset(),
            disjoint_from=frozenset(j for j in ids if j != i),
        )
        for i in ids
    )
    return ParabolicSurface(
        genus=1,
        points=tuple(f"P{i+1}" for i in range(len(weights))),
        weights=tuple(F(w) for w in weights),
        incidence=tuple(incidence),
        model="sections",
        sections=sections,
    )


def test_slope_examples():
    # Constant section through one marked point of the toric surface.
    verdict = classify(TORIC)
    zero_slopes = [c for c in verdict.table if c.slope == 0]
    assert len(zero_slopes) == 2
    generic = [c for c in verdict.table if c.kind == "generic"]
    assert generic[0].slope == 1


def test_slope_no_marked_points():
    sec = SectionData(id="S", self_intersection=3)
    surf = ParabolicSurface(genus=0, points=(), weights=(), incidence=(),
                            model="sections", sections=(sec,))
    (row,) = classify(surf).table
    assert row.slope == slope(surf, sec) == 3


def test_toric_strictly_polystable():
    verdict = classify(TORIC)
    assert verdict.kind is StabilityKind.STRICTLY_POLYSTABLE
    assert verdict.pair is not None


def test_three_point_strictly_polystable():
    verdict = classify(THREE_POINT)
    assert verdict.kind is StabilityKind.STRICTLY_POLYSTABLE
    s1, s2 = verdict.pair
    assert {len(s1.contains), len(s2.contains)} == {1, 2}


def test_four_point_strictly_polystable():
    verdict = classify(FOUR_POINT)
    assert verdict.kind is StabilityKind.STRICTLY_POLYSTABLE


def test_unbalanced_is_unstable():
    surf = trivial_surface([F(1, 2), F(1, 3)], [(1, 0), (0, 1)])
    assert classify(surf).kind is StabilityKind.UNSTABLE


def test_single_point_unstable():
    surf = trivial_surface([F(1, 3)], [(1, 0)])
    assert classify(surf).kind is StabilityKind.UNSTABLE


def test_generic_weights_stable():
    # One point per fiber coordinate, all weights small: constant
    # sections through one point have slope sum(alpha) - 2 alpha_j > 0.
    surf = trivial_surface(
        [F(1, 5), F(1, 7), F(1, 9)], [(1, 0), (0, 1), (1, 1)]
    )
    assert classify(surf).kind is StabilityKind.STABLE


def test_empty_structure_polystable():
    surf = ParabolicSurface(genus=0, points=(), weights=(), incidence=())
    verdict = classify(surf)
    assert verdict.kind is StabilityKind.STRICTLY_POLYSTABLE


def test_empty_structure_not_sporadic():
    # No marked point, so no weight pattern, although the two generic
    # witnesses vacuously cover every marked point.
    surf = ParabolicSurface(genus=0, points=(), weights=(), incidence=())
    assert not is_sporadic(surf, classify(surf))


def test_weights_must_be_rational():
    # A float weight would reach the integer slope arithmetic as a float.
    for bad in (0.5, Decimal("0.5"), "1/2", None):
        with pytest.raises(TypeError, match=re.escape(f"weight {bad!r} is not a rational")):
            ParabolicSurface(genus=0, points=("A", "B", "C"), weights=(F(1, 2), bad, F(1, 2)),
                             incidence=((0, 1), (1, 0), (1, 1)))
    for bad in (0, 1, True, F(3, 2), F(-1, 2)):
        with pytest.raises(ValueError, match=r"outside \(0, 1\)"):
            ParabolicSurface(genus=0, points=("A",), weights=(bad,), incidence=((0, 1),))


def test_torus_model():
    surf = torus_surface([F(2, 5), F(2, 5)], ["S1", "S2"])
    verdict = classify(surf)
    assert verdict.kind is StabilityKind.STRICTLY_POLYSTABLE
    assert verdict.relative_to_supplied


def test_sporadic_examples():
    assert not is_sporadic(FOUR_POINT, classify(FOUR_POINT))
    assert not is_sporadic(TORIC, classify(TORIC))  # two-point sphere excluded
    torus = torus_surface([F(2, 5), F(2, 5)], ["S1", "S2"])
    assert not is_sporadic(torus, classify(torus))
    # Balanced sporadic pattern: 1/3 + 1/3 on one section, 2/3 opposite.
    sporadic = torus_surface([F(1, 3), F(1, 3), F(2, 3)], ["S1", "S1", "S2"])
    assert is_sporadic(sporadic, classify(sporadic))
    # Swapped form.
    sporadic2 = torus_surface([F(2, 3), F(1, 3), F(1, 3)], ["S2", "S1", "S1"])
    assert is_sporadic(sporadic2, classify(sporadic2))


def test_sporadic_trusts_given_verdict():
    # The pattern predicate applies to whatever slope-zero pair the
    # verdict carries: weights 1/3 on one section and 2/3 on the other
    # fit the pattern whenever such a verdict holds.
    from cscglue.parabolic import CandidateSection, StabilityVerdict

    surf = torus_surface([F(1, 3), F(2, 3)], ["S1", "S2"])
    s1 = CandidateSection(id="S1", self_intersection=0, contains=frozenset({0}),
                          slope=F(0), kind="declared")
    s2 = CandidateSection(id="S2", self_intersection=0, contains=frozenset({1}),
                          slope=F(0), kind="declared")
    verdict = StabilityVerdict(
        kind=StabilityKind.STRICTLY_POLYSTABLE,
        min_slope=F(0),
        table=(s1, s2),
        witnesses=(s1, s2),
        pair=(s1, s2),
        relative_to_supplied=True,
    )
    assert is_sporadic(surf, verdict)


def test_sporadic_all_halves_on_torus():
    surf = torus_surface([F(1, 2), F(1, 2)], ["S1", "S2"])
    assert is_sporadic(surf, classify(surf))


def test_permutation_invariance():
    base = classify(FOUR_POINT)
    perm = trivial_surface(
        [F(1, 3), F(1, 2), F(1, 3), F(1, 2)],
        [(1, 0), (0, 1), (0, 1), (1, 0)],
        points=("P3", "P2", "P4", "P1"),
    )
    other = classify(perm)
    assert base.kind is other.kind
    assert base.min_slope == other.min_slope


def test_slope_pairing_identity():
    # For sections S, S' that partition the marked points:
    # slope(S) + slope(S') = [S]^2 + [S']^2, and with [S]^2 = 0 the two
    # slopes are opposite.
    import random

    rng = random.Random(12)
    for _ in range(50):
        n = rng.randint(1, 6)
        weights = [F(rng.randint(1, 9), rng.randint(10, 19)) for _ in range(n)]
        sides = [rng.random() < 0.5 for _ in range(n)]
        coords = [(F(1), F(0)) if s else (F(0), F(1)) for s in sides]
        surf = trivial_surface(weights, coords)
        verdict = classify(surf)
        consts = {c.coord: c for c in verdict.table if c.kind == "constant"}
        s1 = consts.get((F(1), F(0)))
        s2 = consts.get((F(0), F(1)))
        if s1 is None or s2 is None:
            continue
        assert s1.slope + s2.slope == 0


def test_min_slope_monotone_in_weight():
    # Raising a weight that sits on a minimising section cannot raise
    # the reported minimum slope.
    lo = trivial_surface([F(1, 3), F(1, 3)], [(1, 0), (0, 1)])
    hi = trivial_surface([F(2, 5), F(1, 3)], [(1, 0), (0, 1)])
    assert classify(hi).min_slope <= classify(lo).min_slope


def test_validation():
    with pytest.raises(ValueError):
        trivial_surface([F(1, 2)], [(1, 0)], points=("P", "P"))
    with pytest.raises(ValueError):
        trivial_surface([F(3, 2)], [(1, 0)])
    with pytest.raises(ValueError):
        ParabolicSurface(
            genus=1,
            points=("P",),
            weights=(F(1, 2),),
            incidence=((F(1), F(0)),),
            model="trivial-p1",
        )
    with pytest.raises(ValueError):
        normalize_coord(0, 0)
    # Sections differ numerically by fibers: S^2 - S'^2 is even,
    # disjoint sections have S'^2 = -S^2, and distinct sections meet in
    # (S^2 + S'^2)/2 >= 0 points.
    for sections, match in (
        ((SectionData("S", 0), SectionData("T", 1)), "different parity"),
        ((SectionData("S", -1, disjoint_from=frozenset({"T"})), SectionData("T", -1)),
         r"T\^2 = -S\^2"),
        ((SectionData("S", 1), SectionData("T", -1), SectionData("U", -3)),
         r"U and T meet in \(U\^2 \+ T\^2\)/2 >= 0 points, got -3 and -1"),
    ):
        with pytest.raises(ValueError, match=match):
            ParabolicSurface(genus=1, points=(), weights=(), incidence=(),
                             model="sections", sections=sections)


@given(st.permutations(range(4)))
def test_classify_invariant_under_permutations(perm):
    weights = [F(1, 2), F(1, 2), F(1, 3), F(1, 3)]
    coords = [(1, 0), (0, 1), (1, 0), (0, 1)]
    surf = trivial_surface(
        [weights[i] for i in perm],
        [coords[i] for i in perm],
        points=tuple(f"P{i}" for i in perm),
    )
    verdict = classify(surf)
    assert verdict.kind is StabilityKind.STRICTLY_POLYSTABLE
    assert verdict.min_slope == 0


def test_diagonal_through_three_points_unstable():
    # The diagonal is a degree-1 graph ([S]^2 = 2) through all three
    # points: slope 2 - 9/4 < 0.
    surf = trivial_surface(
        [F(3, 4)] * 3, [(0, 1), (1, 0), (1, 1)], points=("[0:1]", "[1:0]", "[1:1]")
    )
    verdict = classify(surf)
    assert verdict.kind is StabilityKind.UNSTABLE
    assert verdict.min_slope == F(-1, 4)


def test_graph_degrees_cover_every_point_once():
    # Degrees 1..ceil((n-1)/2); the last one passes through all n points.
    for n in range(8):
        surf = trivial_surface([F(1, 3)] * n, [(j, 1) for j in range(n)])
        graphs = [c for c in classify(surf).table if c.kind == "graph"]
        assert [c.self_intersection for c in graphs] == [2 * d for d in range(1, n // 2 + 1)]
        assert [len(c.contains) for c in graphs] == [min(n, 2 * d + 1) for d in range(1, n // 2 + 1)]


# Brute-force oracle: sections of P^1 x P^1 -> P^1 are graphs of maps
# [s:t] -> [A(s,t) : B(s,t)] with A, B binary forms of degree d and no
# common zero; such a section has [S]^2 = 2d and meets the marked point
# (base [s:t], fiber [u:v]) iff [A:B] = [u:v] there.
ORACLE_BASE = ((-2, 1), (-1, 1), (0, 1), (1, 1), (2, 1), (1, 0))
ORACLE_COEFFS = {0: range(-2, 3), 1: range(-2, 3), 2: range(-1, 2)}
ORACLE_FIBERS = ((1, 0), (0, 1), (1, 1), (-1, 1), (2, 1), (1, 2), (1, -2))


def _projective(u, v):
    """Primitive integer representative of [u : v]."""
    g = gcd(u, v)
    u, v = u // g, v // g
    return (-u, -v) if v < 0 or (v == 0 and u < 0) else (u, v)


def _form_at(form, s, t):
    d = len(form) - 1
    return sum(c * s ** (d - i) * t ** i for i, c in enumerate(form))


def _det(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def _coprime_forms(A, B):
    """Resultant test: the Sylvester determinant of two degree-d forms."""
    d = len(A) - 1
    if d == 0:
        return A != (0,) or B != (0,)
    rows = [[0] * i + list(f) + [0] * (d - 1 - i) for f in (A, B) for i in range(d)]
    return _det(rows) != 0


def _oracle_sections():
    """(degree, fiber image at each ORACLE_BASE point), without repeats."""
    out = set()
    for d, coeffs in ORACLE_COEFFS.items():
        forms = list(product(coeffs, repeat=d + 1))
        for A in forms:
            for B in forms:
                if _coprime_forms(A, B):
                    out.add((d, tuple(_projective(_form_at(A, s, t), _form_at(B, s, t))
                                      for s, t in ORACLE_BASE)))
    return sorted(out)


def test_classifier_minimum_never_exceeds_brute_force_sections():
    sections = _oracle_sections()
    rng = random.Random(2024)
    checked = special = old_count_wrong = 0
    for _ in range(300):
        n = rng.randint(3, 6)
        base = rng.sample(range(len(ORACLE_BASE)), n)
        # Put some points on one enumerated section, the rest anywhere.
        images = rng.choice(sections)[1]
        fibers = [images[b] if rng.random() < 0.7 else rng.choice(ORACLE_FIBERS) for b in base]
        weights = [F(rng.randint(1, q - 1), q) for q in (rng.randint(2, 12) for _ in base)]
        total = sum(weights)
        slopes, general = [], True
        for d, images in sections:
            on = [w for b, fiber, w in zip(base, fibers, weights) if images[b] == fiber]
            if d >= 1 and len(on) > 2 * d + 1:
                general = False  # special position: the classifier assumes general
                break
            slopes.append(2 * d + total - 2 * sum(on))
        if not general:
            special += 1
            continue
        surf = trivial_surface(weights, fibers,
                               points=tuple(f"[{ORACLE_BASE[b][0]}:{ORACLE_BASE[b][1]}]"
                                            for b in base))
        found = min(slopes)
        verdict = classify(surf)
        assert verdict.min_slope <= found, (surf, found)
        checked += 1
        # The oracle has the power to see a wrong count: graphs through
        # only the d+1 heaviest points exceed it on some surfaces.
        heavy = sorted(weights, reverse=True)
        old = min([c.slope for c in verdict.table if c.kind != "graph"]
                  + [2 * d + total - 2 * sum(heavy[: d + 1]) for d in range(1, n)])
        old_count_wrong += old > found
    assert checked >= 150 and special > 0 and old_count_wrong > 0
