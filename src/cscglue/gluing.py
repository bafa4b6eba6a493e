"""Orbifold bases, the gluing matrix, and the existence pipeline.

A parabolic ruled surface determines an orbifold Riemann surface: one
orbifold point of order q_j (the weight denominator) per parabolic point.
The base is *good* (admits a constant-curvature uniformisation) unless it
is the teardrop (sphere, one orbifold point) or the sphere with two
orbifold points of distinct orders, and its orbifold Euler characteristic

    chi_orb = chi_top - sum_j (1 - 1/q_j)

fixes the sign of the uniformising curvature; chi_orb < 0 is what allows
a scalar-flat representative.

For a strictly polystable surface, the quotient model carries exactly one
holomorphic kernel function phi beyond the constants; it equals +1 at one
family of fixed points and -1 at the other.  Each parabolic point of
weight p_j/q_j produces two cyclic quotient singularities in the quotient
model, Gamma_{p_j, q_j} on the section containing Q_j and
Gamma_{q_j - p_j, q_j} on the opposite one.  The gluing (after
Rollin-Singer) balances the ALE log terms against phi, so a singularity
x with local parameters (p, q) enters the one-row gluing matrix as its
mass sign :func:`cscglue.logmass.mass_sign` (p, q) times phi(x), and an
extra blow-up point y, a Burns datum (1, 1), as +phi(y), where
phi([u : v]) = (|u|^2 - |v|^2)/(|u|^2 + |v|^2).  A zero sign adds no column.

Without extra points a sporadic row is one-signed, so its verdict is
INFEASIBLE or OBSTRUCTED: the row holds the nonzero values of
:func:`cscglue.parabolic.witness_signs`, which never differ in sign when
:func:`cscglue.parabolic.is_sporadic` holds.  By Gordan's alternative a
row has a vector x > 0 in its kernel iff it is zero or has both signs, so
a one-signed row with an entry is INFEASIBLE and an empty one OBSTRUCTED;
any other row has both signs and is FEASIBLE.

Feasibility of the glued constant-scalar-curvature metric asks for

    c_1 = rank M = dim V_0    and    c_2 != 0,

where c_2 counts the dimension of ker M when a strictly positive kernel
vector exists and is zero otherwise.  With one kernel function M is one
row, which :mod:`cscglue.exactlp` decides by its signs alone.  A stable
surface has no kernel function; its row is zero, one column per extra
point, so c_1 = 0 = dim V_0 and the witness is (1, ..., 1).  The
positive kernel vector is a balancing condition: its entries weight the
chosen points so that the configuration is balanced against the kernel
vector fields, in the spirit of a zero of a moment map.

The sign attached to each of the two sections is a convention (the
verdict is invariant under swapping it; only the witness labelling
changes): the section carrying the marked point gets the Gamma_{p,q}
model and the +1 side is the first section of the witness pair.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction
from math import lcm

from cscglue.exactlp import positive_kernel_vector, rational_rank
from cscglue.parabolic import (
    ParabolicSurface,
    StabilityKind,
    StabilityVerdict,
    classify,
    coord_str,
    integer_field,
    is_sporadic,
    normalize_coord,
    witness_signs,
)
from cscglue.resolution import singular_strings


class FixType(enum.Enum):
    """Fixed-point structure of the fiberwise rotation group.

    :func:`existence_report` selects the case; its ``dim_v0`` is the
    number of kernel functions the gluing has to balance.
    """

    NO_FIXED_POINT = "no-fixed-point"
    TWO_FIXED_POINTS = "two-fixed-points"
    TRIVIAL = "trivial"
    QUOTIENT_SPHERE_BASE = "quotient-sphere-base"

    @property
    def dim_v0(self) -> int:
        return {
            FixType.NO_FIXED_POINT: 0,
            FixType.TWO_FIXED_POINTS: 1,
            FixType.TRIVIAL: 3,
            FixType.QUOTIENT_SPHERE_BASE: 2,
        }[self]


class GluingVerdict(enum.Enum):
    FEASIBLE = "feasible"
    FEASIBLE_EQUIVARIANT = "feasible-equivariant"
    OBSTRUCTED = "obstructed"
    INFEASIBLE = "infeasible"
    NOT_APPLICABLE = "not-applicable"


class OrbifoldSurface(namedtuple("OrbifoldSurface", "genus orders")):
    """A closed orientable orbifold Riemann surface; every order is at least 2."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, genus, orders):
        genus = integer_field(genus, "genus")
        if genus < 0:
            raise ValueError(f"genus must be >= 0, got {genus}")
        orders = tuple(integer_field(q, "orbifold order") for q in orders)
        for q in orders:
            if q < 2:
                raise ValueError(f"orbifold orders must be >= 2, got {q}")
        return super().__new__(cls, genus, orders)


class GluingReport(namedtuple("GluingReport", "rows ncols col_labels c1 c2 positive_kernel "
                                              "kernel_witness verdict")):
    """Exact feasibility data for the gluing matrix."""

    __slots__ = ()


class PipelineReport(namedtuple("PipelineReport", "stability orbifold good chi_orb sfk_possible "
                                                  "sporadic case gluing verdict blowup_total "
                                                  "description resolution_strings "
                                                  "special_configuration_required notes")):
    """End-to-end existence report for a parabolic ruled surface."""

    __slots__ = ()


def orbifold_from_parabolic(surface: ParabolicSurface) -> OrbifoldSurface:
    """Orbifold base with one point of order q_j per parabolic weight p_j/q_j."""
    return OrbifoldSurface(
        genus=surface.genus,
        orders=tuple(w.denominator for w in surface.weights),
    )


def chi_orb(orb: OrbifoldSurface) -> Fraction:
    """Orbifold Euler characteristic 2 - 2g - sum(1 - 1/q_j), exact.

    One Fraction over L = lcm(q_j): ((2 - 2g - n) L + sum L/q_j) / L.
    """
    denominator = lcm(*orb.orders)
    chi_top = 2 - 2 * orb.genus - len(orb.orders)
    return Fraction(chi_top * denominator + sum(denominator // q for q in orb.orders), denominator)


def is_good(orb: OrbifoldSurface) -> bool:
    """False exactly for the teardrop and the two-distinct-order sphere."""
    if orb.genus != 0:
        return True
    if len(orb.orders) == 1:
        return False
    if len(orb.orders) == 2 and orb.orders[0] != orb.orders[1]:
        return False
    return True


def phi_value(coord) -> Fraction:
    """The kernel function (|u|^2 - |v|^2)/(|u|^2 + |v|^2) at [u : v].

    In integers: phi([a : b]) = (a^2 - b^2)/(a^2 + b^2) on the primitive
    pair (a, b), and phi([1 : 0]) = 1.  ``coord`` may be any pair that
    :func:`normalize_coord` accepts, such as ``(2, 1)``.
    """
    a, b = normalize_coord(*coord)
    if b == 0:
        return Fraction(1)
    return Fraction(a * a - b * b, a * a + b * b)


def gluing_matrix(
    surface: ParabolicSurface,
    verdict: StabilityVerdict,
    extra_points=(),
):
    """Single-row gluing matrix for a strictly polystable surface.

    Returns ``(row, labels)``.  A marked point of weight p/q gives
    Gamma_{p, q} on the section containing it and Gamma_{q - p, q} on the
    opposite one; each enters as its signed mass from
    :func:`cscglue.parabolic.witness_signs`, when that is nonzero.  An
    extra point y enters as phi(y), as ``mass_sign(1, 1)`` is +1.
    """
    if verdict.kind is not StabilityKind.STRICTLY_POLYSTABLE or verdict.pair is None:
        raise ValueError("gluing matrix requires a strictly polystable verdict")
    entries: list[Fraction] = []
    labels: list[str] = []
    for point, w, signs in zip(surface.points, surface.weights, witness_signs(surface, verdict)):
        if signs is None:
            raise ValueError(f"marked point {point} lies on neither witness section")
        p, q = w.numerator, w.denominator
        for local, sign, where in zip((p, q - p), signs, ("on", "off")):
            if sign:
                entries.append(Fraction(sign))
                labels.append(f"{point}:{where}-section G({local},{q})")
    for coord in extra_points:
        coord = normalize_coord(*coord)
        entries.append(phi_value(coord))
        labels.append(_extra_label(coord))
    return tuple(entries), tuple(labels)


def _extra_label(coord) -> str:
    """Column label of the extra blow-up point at the normalised ``coord``."""
    return f"extra:[{coord_str(coord)}]"


def feasibility(row, dim_v0: int, col_labels=()) -> GluingReport:
    """Exact rank / positive-kernel verdict for the one-row gluing matrix.

    * OBSTRUCTED: no columns while dim V_0 > 0 (no log terms are
      available to balance the kernel function);
    * FEASIBLE: rank c_1 equals dim V_0 and the kernel meets the open
      positive cone, as it does iff the row is zero or has entries of
      both signs, and vacuously for an empty row with dim V_0 = 0;
    * INFEASIBLE: otherwise.

    c_2 is reported as dim ker M when a strictly positive kernel vector
    exists and 0 otherwise: a linear subspace meeting an open cone meets
    it in full dimension, and only c_2 != 0 is ever consumed.  A zero
    row with dim V_0 = 0 constrains nothing, so ``rows`` is then empty.
    """
    row = tuple(x if type(x) is Fraction else Fraction(x) for x in row)
    ncols = len(row)
    c1 = rational_rank(row)
    witness = positive_kernel_vector(row)
    positive = witness is not None or ncols == dim_v0 == 0
    if ncols == 0 and dim_v0 > 0:
        verdict = GluingVerdict.OBSTRUCTED
    elif c1 == dim_v0 and positive:
        verdict = GluingVerdict.FEASIBLE
    else:
        verdict = GluingVerdict.INFEASIBLE
    return GluingReport(
        rows=(row,) if row and (c1 or dim_v0) else (),
        ncols=ncols,
        col_labels=tuple(col_labels),
        c1=c1,
        c2=ncols - c1 if positive else 0,
        positive_kernel=positive,
        kernel_witness=witness,
        verdict=verdict,
    )


def existence_report(surface: ParabolicSurface, extra_points=()) -> PipelineReport:
    """Run the full decision pipeline for one parabolic ruled surface.

    Steps: stability classification, orbifold goodness and chi_orb, case
    selection, gluing matrix and exact feasibility.  Verdicts:

    * NOT_APPLICABLE: bad orbifold base, or the structure is not
      polystable (the existence theorem has no hypothesis to offer);
    * FEASIBLE: stable (no kernel functions), or strictly polystable
      with matching rank and a positive kernel vector;
    * FEASIBLE_EQUIVARIANT: strictly polystable over the two-equal-order
      sphere, where the involution trick removes the kernel;
    * INFEASIBLE / OBSTRUCTED: the matrix check fails; for sporadic
      structures this is expected and flagged (existence is conjectured
      but not provided by this construction).

    An extra point such as [0 : 0], which is no projective point, is a
    ``ValueError`` naming its index in ``extra_points``.
    """
    normalized = []
    for i, coord in enumerate(extra_points):
        try:
            normalized.append(normalize_coord(*coord))
        except ValueError as exc:
            raise ValueError(f"extra_points[{i}]: {exc}") from None
    extra_points = tuple(normalized)
    verdict = classify(surface)
    orb = orbifold_from_parabolic(surface)
    good = is_good(orb)
    chi = chi_orb(orb)
    sfk = chi < 0
    sporadic = is_sporadic(surface, verdict)
    strings = tuple(
        (surface.points[j], singular_strings(w)) for j, w in enumerate(surface.weights)
    )
    blow_total = sum(len(left) + len(right) for _, (left, right) in strings)
    description = _describe(surface, blow_total)
    notes: list[str] = []
    special = False
    case: FixType | None = None
    gluing: GluingReport | None = None

    if not good:
        final = GluingVerdict.NOT_APPLICABLE
        notes.append(
            "orbifold base is not good (teardrop or two points of distinct "
            "orders); no uniformising metric exists"
        )
    elif verdict.kind in (StabilityKind.UNSTABLE, StabilityKind.SEMISTABLE_NOT_POLYSTABLE):
        final = GluingVerdict.NOT_APPLICABLE
        notes.append(f"parabolic structure is {verdict.kind.value}; polystability required")
    elif surface.n == 0:
        # Trivial parabolic structure: the minimal surface is already
        # smooth and carries a product metric of constant scalar
        # curvature.  Extra blow-ups need special point configurations.
        case = FixType.TRIVIAL
        if extra_points:
            special = True
            final = GluingVerdict.OBSTRUCTED
            notes.append(
                "trivial parabolic structure with extra blow-up points: "
                "special configurations required; not certified here"
            )
        else:
            final = GluingVerdict.FEASIBLE
            notes.append("no blow-ups: the minimal ruled surface keeps its product metric")
    elif verdict.kind is StabilityKind.STABLE:
        case = FixType.NO_FIXED_POINT
        gluing = feasibility((Fraction(0),) * len(extra_points), case.dim_v0,
                             tuple(map(_extra_label, extra_points)))
        final = gluing.verdict
        notes.append("stable: no holomorphic vector fields, gluing is unobstructed")
    elif orb.genus == 0 and len(orb.orders) == 2 and orb.orders[0] == orb.orders[1]:
        case = FixType.QUOTIENT_SPHERE_BASE
        notes.append(
            "base is the sphere with two equal-order points: dim V_0 = 2 "
            "(two independent holomorphic vector fields, toric symmetry); "
            "the involution-equivariant construction applies"
        )
        if extra_points and not _z2_invariant(extra_points):
            special = True
            final = GluingVerdict.OBSTRUCTED
            notes.append(
                "extra points are not invariant under [u:v] -> [v:u]: "
                "special configurations required; not certified here"
            )
        else:
            if extra_points:
                notes.append(
                    "extra fiber positions are involution-invariant; base "
                    "positions must be chosen symmetrically as well"
                )
            final = GluingVerdict.FEASIBLE_EQUIVARIANT
    else:
        case = FixType.TWO_FIXED_POINTS
        row, labels = gluing_matrix(surface, verdict, extra_points)
        gluing = feasibility(row, case.dim_v0, labels)
        final = gluing.verdict
        if sporadic and final in (GluingVerdict.INFEASIBLE, GluingVerdict.OBSTRUCTED):
            notes.append(
                "sporadic weight pattern: the matrix obstruction is expected; "
                "existence of the metric is conjectured but not provided by "
                "this construction"
            )

    return PipelineReport(
        stability=verdict,
        orbifold=orb,
        good=good,
        chi_orb=chi,
        sfk_possible=sfk,
        sporadic=sporadic,
        case=case,
        gluing=gluing,
        verdict=final,
        blowup_total=blow_total,
        description=description,
        resolution_strings=strings,
        special_configuration_required=special,
        notes=tuple(notes),
    )


def _z2_invariant(coords) -> bool:
    """Is the multiset of normalised fiber positions invariant under [u:v] -> [v:u]?"""
    swapped = [normalize_coord(v, u) for u, v in coords]
    return sorted(coords) == sorted(swapped)


def _describe(surface: ParabolicSurface, blow_total: int) -> str:
    if surface.genus == 0 and surface.model == "trivial-p1":
        if blow_total == 0:
            return "P1 x P1 (no blow-ups)"
        return f"CP^2 blown up at {blow_total + 1} points"
    base = f"genus-{surface.genus} ruled surface"
    if blow_total == 0:
        return base
    return f"{base} blown up {blow_total} times"
