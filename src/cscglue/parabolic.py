"""Parabolic structures on ruled surfaces: slopes and polystability.

A parabolic structure on a geometrically ruled surface consists of
distinct base points P_j, a marked point Q_j in each fiber over them, and
rational weights alpha_j in (0, 1).  The slope of a holomorphic section S
is

    mu(S) = [S]^2 + sum_{Q_j not in S} alpha_j - sum_{Q_j in S} alpha_j.

The surface is stable when every section has positive slope, and strictly
polystable when the minimum slope is zero and it is attained by two
disjoint sections.

Two data models are supported:

* ``trivial-p1``: genus 0 with the trivial bundle P^1 x P^1.  Marked
  points are given by their fiber coordinate and sections are enumerated
  internally: one constant section per fiber coordinate shared by marked
  points, a generic constant section, and for each degree d >= 1 a
  virtual graph section through the d+1 heaviest marked points with
  self-intersection 2d.  Degree-d graphs generically interpolate d+1
  points over distinct base points, so the enumerated minimum is a lower
  bound for the true minimum and a Stable verdict is sound; degenerate
  configurations can only make the verdict more conservative.
* ``sections``: any genus, classification relative to an explicitly
  supplied list of sections.  The verdict is then only as strong as that
  list, and reports carry a flag saying so.

The sporadic detector recognises the one strictly polystable weight
pattern for which the downstream gluing matrix degenerates: every marked
point on one section has weight 1/q_j and every marked point on the other
has weight (q_j - 1)/q_j.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

FiberCoord = tuple[Fraction, Fraction]  # normalised projective point [u : v]


class StabilityKind(enum.Enum):
    STABLE = "stable"
    STRICTLY_POLYSTABLE = "strictly-polystable"
    SEMISTABLE_NOT_POLYSTABLE = "semistable-not-polystable"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class SectionData:
    """A declared holomorphic section: id, [S]^2, and incidence data."""

    id: str
    self_intersection: int
    contains: frozenset = frozenset()  # base-point labels
    disjoint_from: frozenset = frozenset()  # section ids


@dataclass(frozen=True)
class ParabolicSurface:
    """A parabolic ruled surface in one of the two data models."""

    genus: int
    points: tuple[str, ...]
    weights: tuple[Fraction, ...]
    incidence: tuple  # fiber coords (trivial-p1) or section ids (sections)
    model: str = "trivial-p1"
    sections: tuple[SectionData, ...] = ()

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError(f"genus must be >= 0, got {self.genus}")
        if len(set(self.points)) != len(self.points):
            raise ValueError("base points must be pairwise distinct")
        if not (len(self.points) == len(self.weights) == len(self.incidence)):
            raise ValueError("points, weights and incidence must have equal length")
        for w in self.weights:
            if not (0 < w < 1):
                raise ValueError(f"weight {w} outside (0, 1)")
        if self.model == "trivial-p1":
            if self.genus != 0:
                raise ValueError("the trivial-p1 model requires genus 0")
        elif self.model == "sections":
            ids = {s.id for s in self.sections}
            if len(ids) != len(self.sections):
                raise ValueError("section ids must be distinct")
            for inc in self.incidence:
                if inc not in ids:
                    raise ValueError(f"incidence names unknown section {inc!r}")
        else:
            raise ValueError(f"unknown model {self.model!r}")

    @property
    def n(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class CandidateSection:
    """A section considered by the classifier, with resolved incidence."""

    id: str
    self_intersection: int
    contains: frozenset  # marked-point indices
    slope: Fraction
    kind: str  # "constant", "generic", "graph" or "declared"
    coord: FiberCoord | None = None
    disjoint_from: frozenset = frozenset()


@dataclass(frozen=True)
class StabilityVerdict:
    """Classification outcome with the minimising sections as witnesses."""

    kind: StabilityKind
    min_slope: Fraction
    table: tuple[CandidateSection, ...]
    witnesses: tuple[CandidateSection, ...]
    pair: tuple[CandidateSection, CandidateSection] | None = None
    relative_to_supplied: bool = False


def normalize_coord(u, v) -> FiberCoord:
    """Canonical representative of the projective point [u : v]."""
    u, v = Fraction(u), Fraction(v)
    if u == 0 and v == 0:
        raise ValueError("fiber coordinate [0 : 0] is not a projective point")
    if v != 0:
        return (u / v, Fraction(1))
    return (Fraction(1), Fraction(0))


def slope(surface: ParabolicSurface, section: SectionData) -> Fraction:
    """Slope of a declared section of the surface."""
    on = frozenset(
        j for j, label in enumerate(surface.points) if label in section.contains
    )
    return _slope_from_indices(surface, section.self_intersection, on)


def classify(surface: ParabolicSurface, extra_sections=()) -> StabilityVerdict:
    """Stability classification from the minimum slope over candidates.

    For the trivial-p1 model the candidate family is enumerated as
    described in the module docstring; declared sections, if any, are
    added to it.  For the sections model only the declared family is
    used and the verdict is flagged as relative to it.

    Strictly polystable verdicts carry a pair of disjoint slope-zero
    sections: constant sections of the trivial bundle at distinct fiber
    coordinates are automatically disjoint, otherwise disjointness must
    be declared via ``disjoint_from``.
    """
    candidates = []
    if surface.model == "trivial-p1":
        candidates.extend(_enumerate_trivial_p1(surface))
        relative = False
    else:
        relative = True
    for sec in tuple(surface.sections) + tuple(extra_sections):
        on = frozenset(
            j for j, label in enumerate(surface.points) if label in sec.contains
        )
        declared_on = frozenset(
            j for j, inc in enumerate(surface.incidence) if inc == sec.id
        )
        on = on | declared_on
        candidates.append(
            CandidateSection(
                id=sec.id,
                self_intersection=sec.self_intersection,
                contains=on,
                slope=_slope_from_indices(surface, sec.self_intersection, on),
                kind="declared",
                disjoint_from=sec.disjoint_from,
            )
        )
    if not candidates:
        raise ValueError("no candidate sections available for classification")

    min_slope = min(c.slope for c in candidates)
    witnesses = tuple(c for c in candidates if c.slope == min_slope)
    table = tuple(candidates)

    if min_slope < 0:
        kind, pair = StabilityKind.UNSTABLE, None
    elif min_slope > 0:
        kind, pair = StabilityKind.STABLE, None
    else:
        pair = _disjoint_zero_pair(witnesses)
        kind = (
            StabilityKind.STRICTLY_POLYSTABLE
            if pair is not None
            else StabilityKind.SEMISTABLE_NOT_POLYSTABLE
        )
    return StabilityVerdict(
        kind=kind,
        min_slope=min_slope,
        table=table,
        witnesses=witnesses,
        pair=pair,
        relative_to_supplied=relative,
    )


def is_sporadic(surface: ParabolicSurface, verdict: StabilityVerdict) -> bool:
    """Detect the degenerate strictly polystable weight pattern.

    True iff the verdict is strictly polystable, the base is not the
    sphere with exactly two marked points, and (up to exchanging the two
    witness sections) every marked point on the first has weight 1/q_j
    while every marked point on the second has weight (q_j - 1)/q_j.
    """
    if verdict.kind is not StabilityKind.STRICTLY_POLYSTABLE or verdict.pair is None:
        return False
    if surface.genus == 0 and surface.n == 2:
        return False
    s1, s2 = verdict.pair
    if s1.contains | s2.contains != frozenset(range(surface.n)):
        return False
    return _pattern(surface, s1, s2) or _pattern(surface, s2, s1)


def _pattern(surface, s_low, s_high) -> bool:
    for j in s_low.contains:
        if surface.weights[j].numerator != 1:
            return False
    for j in s_high.contains:
        w = surface.weights[j]
        if w.numerator != w.denominator - 1:
            return False
    return True


def _slope_from_indices(surface, self_intersection, on: frozenset) -> Fraction:
    total = sum(surface.weights, Fraction(0))
    on_sum = sum((surface.weights[j] for j in on), Fraction(0))
    return self_intersection + total - 2 * on_sum


def _enumerate_trivial_p1(surface) -> list[CandidateSection]:
    coords = [normalize_coord(*inc) for inc in surface.incidence]
    out = []
    seen = {}
    for j, coord in enumerate(coords):
        seen.setdefault(coord, set()).add(j)
    for coord, on in sorted(seen.items()):
        on = frozenset(on)
        out.append(
            CandidateSection(
                id=f"const@{_coord_str(coord)}",
                self_intersection=0,
                contains=on,
                slope=_slope_from_indices(surface, 0, on),
                kind="constant",
                coord=coord,
            )
        )
    # Generic constant sections through no marked point.  Two of them
    # witness polystability of the empty structure.
    n_generic = 2 if surface.n == 0 else 1
    for i in range(n_generic):
        out.append(
            CandidateSection(
                id=f"const@generic{i or ''}",
                self_intersection=0,
                contains=frozenset(),
                slope=_slope_from_indices(surface, 0, frozenset()),
                kind="generic",
            )
        )
    # Virtual graph sections: a degree-d graph has [S]^2 = 2d and passes
    # through d+1 generically placed points; take the heaviest ones.
    by_weight = sorted(range(surface.n), key=lambda j: (-surface.weights[j], j))
    for d in range(1, surface.n):
        on = frozenset(by_weight[: d + 1])
        out.append(
            CandidateSection(
                id=f"graph-deg-{d}",
                self_intersection=2 * d,
                contains=on,
                slope=_slope_from_indices(surface, 2 * d, on),
                kind="graph",
            )
        )
    return out


def _disjoint_zero_pair(witnesses):
    zeros = [c for c in witnesses if c.slope == 0]
    for i, a in enumerate(zeros):
        for b in zeros[i + 1 :]:
            if _disjoint(a, b):
                return (a, b)
    return None


def _disjoint(a: CandidateSection, b: CandidateSection) -> bool:
    const_kinds = {"constant", "generic"}
    if a.kind in const_kinds and b.kind in const_kinds:
        # Distinct constant sections of P^1 x P^1 never meet; generic
        # ones sit at fresh coordinates distinct from everything else.
        if a.kind == "generic" or b.kind == "generic":
            return True
        return a.coord != b.coord
    return b.id in a.disjoint_from or a.id in b.disjoint_from


def _coord_str(coord: FiberCoord) -> str:
    u, v = coord
    return f"{u}:{v}"
