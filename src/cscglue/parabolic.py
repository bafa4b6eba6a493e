"""Parabolic structures on ruled surfaces: slopes and polystability.

A parabolic structure on a geometrically ruled surface consists of
distinct base points P_j, a marked point Q_j in each fiber over them, and
rational weights alpha_j in (0, 1).  The slope of a holomorphic section S
is

    mu(S) = [S]^2 + sum_{Q_j not in S} alpha_j - sum_{Q_j in S} alpha_j.

Every slope is computed in integers over L, the lcm of the weight
denominators: with N_j = alpha_j L, the slope is the single Fraction
([S]^2 L + sum_j N_j - 2 sum_{Q_j in S} N_j) / L.

The surface is stable when every section has positive slope, and strictly
polystable when the minimum slope is zero and it is attained by two
disjoint sections.

Two data models are supported:

* ``trivial-p1``: genus 0 with the trivial bundle P^1 x P^1.  Marked
  points are given by their fiber coordinate and sections are enumerated
  internally: one constant section per fiber coordinate shared by marked
  points, a generic constant section, and for each degree
  d = 1..ceil((n-1)/2) a virtual graph section through the min(n, 2d+1)
  heaviest marked points with self-intersection 2d.  Degree-d graphs form
  a (2d+1)-dimensional family, and the (1, d) linear system through any
  2d+1 points over distinct base points always has a solution; a
  reducible one splits off fibers and leaves a section of lower slope.
  So each graph candidate bounds the true minimum from above, and a
  negative minimum always proves instability.  The other verdicts assume
  base points in general position, where no degree-d graph meets more
  than 2d+1 marked points and the enumerated minimum is exact.
* ``sections``: any genus, classification relative to an explicitly
  supplied list of sections.  The verdict is then only as strong as that
  list, and reports carry a flag saying so.

The sporadic detector recognises the strictly polystable structures
whose gluing row is one-signed: every marked point lies on a witness
section and no two signs of :func:`witness_signs` differ.  That is
weight 1/q_j on one section and (q_j - 1)/q_j on the other.
"""

from __future__ import annotations

import enum
import operator
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational

from cscglue.logmass import mass_sign

FiberCoord = tuple[int, int]  # primitive (a, b) with b > 0, or (1, 0): the point [a : b]
MAX_QUOTED = 40  # longest number a refusal quotes; longer ones are named by digit count


class StabilityKind(enum.Enum):
    STABLE = "stable"
    STRICTLY_POLYSTABLE = "strictly-polystable"
    SEMISTABLE_NOT_POLYSTABLE = "semistable-not-polystable"
    UNSTABLE = "unstable"


class SectionData(namedtuple("SectionData", "id self_intersection contains disjoint_from",
                             defaults=(frozenset(), frozenset()))):
    """A declared holomorphic section: id, [S]^2, and incidence data.

    ``contains`` holds base-point labels, ``disjoint_from`` section ids.
    """

    __slots__ = ()


class ParabolicSurface(namedtuple("ParabolicSurface",
                                  "genus points weights incidence model sections")):
    """A parabolic ruled surface in one of the two data models.

    ``incidence`` holds one fiber coordinate (``trivial-p1``) or one
    section id (``sections``) per marked point.  The data is checked when
    the surface is built.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, genus, points, weights, incidence, model="trivial-p1", sections=()):
        genus = integer_field(genus, "genus")
        if genus < 0:
            raise ValueError(f"genus must be >= 0, got {genus}")
        if len(set(points)) != len(points):
            raise ValueError("base points must be pairwise distinct")
        if not (len(points) == len(weights) == len(incidence)):
            raise ValueError("points, weights and incidence must have equal length")
        for w in weights:
            split_weight(w)
        if model == "trivial-p1":
            if genus != 0:
                raise ValueError("the trivial-p1 model requires genus 0")
            for label, inc in zip(points, incidence):
                try:
                    normalize_coord(*inc)
                except ValueError as exc:
                    raise ValueError(f"incidence of point {label}: {exc}") from None
        elif model == "sections":
            ids = {s.id for s in sections}
            if len(ids) != len(sections):
                raise ValueError("section ids must be distinct")
            for inc in incidence:
                if inc not in ids:
                    raise ValueError(f"incidence names unknown section {inc!r}")
            for sec in sections:
                for label, inc in zip(points, incidence):
                    if label in sec.contains and inc != sec.id:  # on two sections at once
                        raise ValueError(f"point {label} has incidence {inc} but is listed "
                                         f"in contains of section {sec.id}")
        else:
            raise ValueError(f"unknown model {model!r}")
        for sec in sections:
            integer_field(sec.self_intersection, f"self_intersection of section {sec.id}")
        _check_section_numbers(sections)
        return super().__new__(cls, genus, points, weights, incidence, model, sections)

    @property
    def n(self) -> int:
        return len(self.points)


class CandidateSection(namedtuple("CandidateSection",
                                  "id self_intersection contains slope kind coord disjoint_from",
                                  defaults=(None, frozenset()))):
    """A section considered by the classifier, with resolved incidence.

    ``contains`` holds marked-point indices; ``kind`` is "constant",
    "generic", "graph" or "declared", and ``coord`` the fiber coordinate
    of a constant section.
    """

    __slots__ = ()


class StabilityVerdict(namedtuple("StabilityVerdict",
                                  "kind min_slope table pair relative_to_supplied",
                                  defaults=(None, False))):
    """Classification outcome; ``pair`` is a disjoint slope-zero pair, if any."""

    __slots__ = ()


def quoted(*numbers) -> tuple[str, ...] | None:
    """The numbers as a refusal quotes them, or None when one is longer than
    MAX_QUOTED characters: the refusal then names each by :func:`digit_count`."""
    texts = tuple(map(str, numbers))
    return None if any(len(text) > MAX_QUOTED for text in texts) else texts


def digit_count(n: int) -> str:
    """"a D-digit" for an integer of D digits, "a negative D-digit" below zero."""
    return f"a {'negative ' if n < 0 else ''}{len(str(abs(n)))}-digit"


def integer_field(value, name: str) -> int:
    """``operator.index(value)``; a bool or a non-integer is a TypeError naming the field."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def split_weight(alpha) -> tuple[int, int]:
    """The ints (p, q) of a weight alpha = p/q in (0, 1), in lowest terms.

    A non-rational alpha is a TypeError and one outside (0, 1) a
    ValueError, each naming the weight.
    """
    if not isinstance(alpha, Fraction):
        if not isinstance(alpha, Rational):
            raise TypeError(f"weight {alpha!r} is not a rational number")
        alpha = Fraction(alpha)
    p, q = alpha.numerator, alpha.denominator
    if not 0 < p < q:
        raise ValueError(f"weight {alpha} outside (0, 1)")
    return p, q


def normalize_coord(u, v) -> FiberCoord:
    """Canonical representative of the projective point [u : v].

    That is the primitive integer pair (a, b) with b > 0 and a/b = u/v, or
    (1, 0) when v = 0.  Rationals u = un/ud and v = vn/vd are first
    cross-multiplied to [un vd : vn ud].  A pair of ints already in this
    form is returned as it is.  An infinite or NaN entry raises a
    ``ValueError`` that names the coordinate.
    """
    if type(u) is not int or type(v) is not int:
        try:
            u, v = Fraction(u), Fraction(v)
        except (OverflowError, ValueError):
            raise ValueError(f"fiber coordinate [{u} : {v}] is not a finite rational") from None
        u, v = u.numerator * v.denominator, v.numerator * u.denominator
    if v == 0:
        if u == 0:
            raise ValueError("fiber coordinate [0 : 0] is not a projective point")
        return (u, v) if u == 1 else (1, 0)
    g = gcd(u, v) if v > 0 else -gcd(u, v)
    return (u, v) if g == 1 else (u // g, v // g)


def coord_str(coord: FiberCoord) -> str:
    """A normalised point [a : b] as "a/b:1" ("a:1" when b = 1), or "1:0"."""
    a, b = coord
    if b == 0:
        return "1:0"
    return f"{a}:1" if b == 1 else f"{a}/{b}:1"


def classify(surface: ParabolicSurface) -> StabilityVerdict:
    """Stability classification from the minimum slope over candidates.

    For the trivial-p1 model the candidate family is enumerated as
    described in the module docstring; declared sections, if any, are
    added to it.  For the sections model only the declared family is
    used and the verdict is flagged as relative to it.

    Strictly polystable verdicts carry a pair of disjoint slope-zero
    sections: constant sections of the trivial bundle at distinct fiber
    coordinates are automatically disjoint, otherwise disjointness must
    be declared via ``disjoint_from``.

    Each slope is one Fraction over the lcm of the weight denominators
    (see the module docstring).
    """
    candidate, numerators = _candidate_builder(surface.weights)
    relative = surface.model != "trivial-p1"
    candidates = [] if relative else _enumerate_trivial_p1(surface, candidate, numerators)
    for sec in surface.sections:
        on = {j for j, label in enumerate(surface.points) if label in sec.contains}
        on |= {j for j, inc in enumerate(surface.incidence) if inc == sec.id}
        candidates.append(candidate(sec.id, sec.self_intersection, on, "declared",
                                    disjoint_from=sec.disjoint_from))
    if not candidates:
        raise ValueError("no candidate sections available for classification")

    min_slope = min(c.slope for c in candidates)
    if min_slope < 0:
        kind, pair = StabilityKind.UNSTABLE, None
    elif min_slope > 0:
        kind, pair = StabilityKind.STABLE, None
    else:
        pair = _disjoint_zero_pair([c for c in candidates if c.slope == 0])
        kind = (
            StabilityKind.STRICTLY_POLYSTABLE
            if pair is not None
            else StabilityKind.SEMISTABLE_NOT_POLYSTABLE
        )
    return StabilityVerdict(
        kind=kind,
        min_slope=min_slope,
        table=tuple(candidates),
        pair=pair,
        relative_to_supplied=relative,
    )


def witness_signs(surface: ParabolicSurface, verdict: StabilityVerdict) -> tuple:
    """The signed masses of each marked point's two singularities over ``verdict.pair``.

    A point of weight p/q gives ``(side * mass_sign(p, q), -side *
    mass_sign(q - p, q))``: Gamma_{p, q} on its own section and
    Gamma_{q - p, q} on the opposite one, each times the kernel function
    phi of its side, with side +1 on the first witness section and -1 on
    the second.  A point on neither section gives None.
    """
    s1, s2 = verdict.pair
    table = []
    for j, w in enumerate(surface.weights):
        side = 1 if j in s1.contains else -1 if j in s2.contains else 0
        p, q = w.numerator, w.denominator
        table.append((side * mass_sign(p, q), -side * mass_sign(q - p, q)) if side else None)
    return tuple(table)


def is_sporadic(surface: ParabolicSurface, verdict: StabilityVerdict) -> bool:
    """Detect the strictly polystable structures whose gluing row is one-signed.

    True iff the verdict is strictly polystable, there is a marked point,
    the base is not the sphere with exactly two marked points, and the
    :func:`witness_signs` table has no None and no two nonzero signs that
    differ.  Without marked points there is no weight pattern.
    """
    if verdict.kind is not StabilityKind.STRICTLY_POLYSTABLE or verdict.pair is None:
        return False
    if surface.n == 0 or (surface.genus == 0 and surface.n == 2):
        return False
    table = witness_signs(surface, verdict)
    return None not in table and len({sign for pair in table for sign in pair if sign}) <= 1


def _check_section_numbers(sections) -> None:
    """Reject declared sections that no ruled surface realizes.

    Every section is numerically C_0 + b f (Hartshorne V.2), so any two
    self-intersections differ by an even number, and two distinct
    sections meet in (S^2 + S'^2)/2 >= 0 points: disjoint ones have
    S'^2 = -S^2.
    """
    for a, b in zip(sections, sections[1:]):
        if (a.self_intersection - b.self_intersection) % 2:
            raise ValueError(
                f"sections {a.id} and {b.id} have self-intersections "
                f"{_pair(a.self_intersection, b.self_intersection)} of different parity, "
                "but S^2 - S'^2 is even for any two sections"
            )
    by_id = {sec.id: sec for sec in sections}
    for sec in sections:
        for other in sorted(sec.disjoint_from & by_id.keys()):
            s2 = by_id[other].self_intersection
            if sec.self_intersection + s2 != 0:
                raise ValueError(
                    f"disjoint sections {sec.id} and {other} need "
                    f"{other}^2 = -{sec.id}^2, got {_pair(sec.self_intersection, s2)}"
                )
    # The two lowest self-intersections give the lowest intersection number.
    low = sorted(sections, key=lambda sec: sec.self_intersection)[:2]
    if len(low) == 2 and low[0].self_intersection + low[1].self_intersection < 0:
        a, b = low
        raise ValueError(
            f"distinct sections {a.id} and {b.id} meet in ({a.id}^2 + {b.id}^2)/2 >= 0 "
            f"points, got {_pair(a.self_intersection, b.self_intersection)}"
        )


def _pair(x: int, y: int) -> str:
    """Two self-intersections as "x and y", quoted by :func:`quoted`."""
    return " and ".join(quoted(x, y) or (f"{digit_count(n)} number" for n in (x, y)))


def _candidate_builder(weights):
    """A CandidateSection factory that computes each slope over one denominator.

    With L the lcm of the weight denominators and N_j = alpha_j L, a section
    S gets the slope ([S]^2 L + sum_j N_j - 2 sum_{j on S} N_j) / L.  The N_j
    are returned too: they order the weights as the weights themselves do.
    """
    denominator = lcm(*(w.denominator for w in weights))
    numerators = [w.numerator * (denominator // w.denominator) for w in weights]
    total = sum(numerators)

    def candidate(id, self_intersection, on, kind, **fields) -> CandidateSection:
        on = frozenset(on)
        numerator = self_intersection * denominator + total - 2 * sum(numerators[j] for j in on)
        return CandidateSection(id, self_intersection, on, Fraction(numerator, denominator),
                                kind, **fields)

    return candidate, numerators


def _enumerate_trivial_p1(surface, candidate, numerators) -> list[CandidateSection]:
    seen = {}
    for j, inc in enumerate(surface.incidence):
        seen.setdefault(normalize_coord(*inc), set()).add(j)
    # In the order of the value a/b, with [1 : 0] just before [1 : 1].
    order = sorted(seen, key=lambda c: (Fraction(c[0], c[1] or 1), c[1]))
    out = [candidate(f"const@{coord_str(c)}", 0, seen[c], "constant", coord=c) for c in order]
    # Generic constant sections through no marked point.  Two of them
    # witness polystability of the empty structure.
    out += [candidate(f"const@generic{i or ''}", 0, (), "generic")
            for i in range(2 if surface.n == 0 else 1)]
    # Virtual graph sections: a degree-d graph has [S]^2 = 2d and passes
    # through any 2d+1 points; take the heaviest ones.  Once 2d+1 >= n a
    # further degree adds 2 to [S]^2 and no point.
    by_weight = sorted(range(surface.n), key=lambda j: (-numerators[j], j))
    out += [candidate(f"graph-deg-{d}", 2 * d, by_weight[: 2 * d + 1], "graph")
            for d in range(1, surface.n // 2 + 1)]
    return out


def _disjoint_zero_pair(zeros):
    """The first two disjoint sections among the slope-zero ``zeros``, or None."""
    for i, a in enumerate(zeros):
        for b in zeros[i + 1 :]:
            if _disjoint(a, b):
                return (a, b)
    return None


def _disjoint(a: CandidateSection, b: CandidateSection) -> bool:
    """Two constant or generic candidates lie over distinct fiber points (one
    constant candidate per normalised coordinate, generic ones at fresh
    coordinates), so they never meet; other pairs are disjoint as declared."""
    if a.kind in ("constant", "generic") and b.kind in ("constant", "generic"):
        return True
    return b.id in a.disjoint_from or a.id in b.disjoint_from
