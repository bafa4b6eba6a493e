"""The three benchmark workloads: seeded inputs, the timed call, and checks.

Each workload builds a list of items from the seed before timing starts;
``root`` is the checkout and ``workdir`` a scratch directory inside it.
``run(item)`` is the timed call into the library.  ``check(item, out)``
returns the names of the correctness checks the output fails; it runs
outside the timed section, with tracing off.  ``serialize(item, out)``
renders the exact outputs that go into the workload's SHA-256 digest.

The library is reached through module attributes (``cfrac.hj_expand``,
not a name imported from it), so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from math import gcd

from cscglue import cfrac, cli, logmass, metricnum, resolution

# Failures that the seed library is known to produce: check name -> the
# reason, and the items on which the failure is known (None: any item the
# check applies to).  They are counted in ``failed`` like any other; they
# only leave ``correct`` true, so the benchmark stays usable until the
# defects are fixed.  The same check failing on any other item is a new
# failure.
KNOWN_SEED_DEFECTS = {
    "graph-count": (
        "trivial-p1 degree-d graphs meet d+1, not 2d+1, points (ROADMAP item 2)",
        None,
    ),
    "scalar-curvature": (
        "finite-difference roundoff on long chains (ROADMAP item 3)",
        ((13, 14), (17, 21), (21, 22)),
    ),
}


def known_defect(item, check):
    """The reason when ``check`` failing on ``item`` is a known seed defect."""
    reason, items = KNOWN_SEED_DEFECTS.get(check, (None, ()))
    if reason is not None and (items is None or item in items):
        return reason
    return None


# ---------------------------------------------------------------------------
# exact-sweep


class ExactSweep:
    """Every coprime 0 < p < q <= SWEEP_Q, plus a short long-string tail.

    One item runs the exact kernels on (p, q): the HJ expansion, the fiber
    chain and its blow-down, the singular strings, mu and the mass verdict
    from seeded u, and (a, b, mu) from seeded levels.
    """

    name = "exact-sweep"
    SWEEP_Q = 60
    # 1/q and (q-1)/q: one digit against q - 1 digits.  1/1000000007 is
    # left out: the seed materialises its ~10^9-entry dual string.
    TAIL_Q = (1009, 2003)

    def __init__(self, seed, root, workdir):
        rng = random.Random(seed)
        pairs = [(p, q) for q in range(2, self.SWEEP_Q + 1) for p in range(1, q) if gcd(p, q) == 1]
        pairs += [(p, q) for q in self.TAIL_Q for p in (1, q - 1)]
        self.items = []
        for p, q in pairs:
            k = _hj_length(p, q)
            u = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(k))
            finite = [Fraction(0)]
            for _ in range(k + 1):
                finite.append(finite[-1] + Fraction(rng.randint(1, 6), rng.randint(1, 3)))
            levels = finite[::-1]
            if rng.random() < 0.5:
                levels[0] = logmass.INFINITY
            self.items.append((p, q, u, tuple(levels)))
        rng.shuffle(self.items)

    def run(self, item):
        p, q, u, levels = item
        alpha = Fraction(p, q)
        exp = cfrac.hj_expand(p, q)
        chain = resolution.fiber_chain(alpha)
        blown_down = resolution.blow_down_fully(chain)
        strings = resolution.singular_strings(alpha)
        by_u = logmass.mu_from_u(p, q, u)
        verdict = logmass.mass_verdict(p, q, u)
        by_levels = logmass.log_coeffs_from_levels(logmass.monopole_from_fraction(p, q, levels))
        return exp.digits, chain, blown_down, strings, by_u, verdict, by_levels

    def check(self, item, out):
        p, q, _, _ = item
        digits, chain, blown_down, strings, by_u, verdict, by_levels = out
        crepant = p == q - 1
        failed = []
        if _eval_digits(digits) != (q, p):
            failed.append("digits-evaluate")
        if blown_down != (0,):
            failed.append("blow-down")
        left, right = strings
        if chain != left + (-1,) + tuple(reversed(right)):
            failed.append("chain-strings")
        # Sign theorem: mu <= 0, with equality iff p = q - 1.
        if by_u.mu > 0 or (by_u.mu == 0) != crepant:
            failed.append("sign-theorem")
        if verdict.mu != by_u.mu or verdict.sign != (0 if crepant else -1) or verdict.crepant != crepant:
            failed.append("mass-verdict")
        level_u = [u for _, u in by_levels.per_term]
        if logmass.mu_from_u(p, q, level_u).mu != by_levels.mu:
            failed.append("route-agreement")
        return failed

    def serialize(self, item, out):
        p, q, _, _ = item
        digits, chain, blown_down, strings, by_u, verdict, by_levels = out
        return (
            f"{p}/{q}|{digits}|{chain}|{blown_down}|{strings}"
            f"|{by_u.a},{by_u.b},{by_u.mu}|{verdict.sign},{verdict.crepant}"
            f"|{by_levels.a},{by_levels.b},{by_levels.mu}\n"
        )


def _hj_length(p, q):
    """Digit count of q/p, so the inputs are sized without the library."""
    n, a, b = 0, q, p
    while b > 0:
        e = -(-a // b)
        a, b = b, e * b - a
        n += 1
    return n


def _eval_digits(digits):
    """e_1 - 1/(e_2 - ... - 1/e_k) as a (numerator, denominator) pair."""
    num, den = digits[-1], 1
    for e in reversed(digits[:-1]):
        num, den = e * num - den, num
    return num, den


# ---------------------------------------------------------------------------
# pipeline-batch

FIXTURE_EXIT = {
    "sphere_four_points.json": 0,
    "sphere_three_points.json": 0,
    "sphere_two_points_half.json": 0,
    "sporadic_genus1.json": 3,
    "teardrop.json": 4,
    "torus_two_points.json": 0,
    "two_point_distinct.json": 4,
}

# Weight patterns 1/q_j on one side against (q_j - 1)/q_j on the other,
# with equal sums: the sporadic structures.
SPORADIC = (
    (("1/2", "1/3"), ("5/6",)),
    (("1/2", "1/4"), ("3/4",)),
    (("1/3", "1/3"), ("2/3",)),
    (("1/2", "1/6"), ("2/3",)),
    (("1/4", "1/4", "1/4"), ("3/4",)),
    (("1/3", "1/6"), ("1/2",)),
)

FIBER_COORDS = ("1:0", "0:1", "1:1", "-1:1", "2:1", "1:2")

# The ROADMAP item-2 repro: the diagonal through all three points has
# slope 2 - 9/4 < 0, yet the seed reports `stable`.
ITEM2_REPRO = {
    "genus": 0,
    "model": "trivial-p1",
    "points": ["[0:1]", "[1:0]", "[1:1]"],
    "weights": ["3/4", "3/4", "3/4"],
    "incidence": ["0:1", "1:0", "1:1"],
}


class PipelineBatch:
    """One in-process ``cscglue pipeline <doc> --json`` per item."""

    name = "pipeline-batch"
    # Documents per generated kind.  No record of real traffic exists, so
    # every kind the benchmark names gets the same weight.
    PER_KIND = 64

    def __init__(self, seed, root, workdir):
        rng = random.Random(seed)
        specs = []  # (kind, document, balanced sides or None)
        for kind in _MAKERS:
            for _ in range(self.PER_KIND):
                specs.append((kind, *_MAKERS[kind](rng)))
        for low, high in SPORADIC:
            genus = rng.choice((0, 1, 2))
            specs.append(("sporadic", *_polystable_doc(genus, low, high, (), sections=genus > 0)))
        specs.append(("item2-repro", ITEM2_REPRO, None))
        os.makedirs(workdir, exist_ok=True)
        self.items = []
        for i, (kind, doc, sides) in enumerate(specs):
            path = os.path.join(workdir, f"{i:04d}-{kind}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            self.items.append((path, doc, sides, None))
        for fname, code in sorted(FIXTURE_EXIT.items()):
            path = os.path.join(root, "fixtures", fname)
            with open(path) as fh:
                doc = json.load(fh)
            self.items.append((path, doc, None, code))
        rng.shuffle(self.items)

    def run(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["pipeline", item[0], "--json"])
        return code, buf.getvalue()

    def check(self, item, out):
        _, doc, sides, fixture_code = item
        code, text = out
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return ["json-output"]
        verdict = report["verdict"]
        failed = []
        if code != cli.VERDICT_EXIT[cli.GluingVerdict(verdict)]:
            failed.append("exit-code")
        if fixture_code is not None and code != fixture_code:
            failed.append("fixture-exit")
        obstructed = verdict in ("infeasible", "obstructed")
        if (
            sides is not None
            and not doc.get("extra_points")
            and report["stability"] == "strictly-polystable"
        ):
            sporadic = _sporadic_sides(*sides)
            if report["sporadic"] != sporadic or sporadic != obstructed:
                failed.append("sporadic-iff-obstructed")
        if doc.get("model", "trivial-p1") == "trivial-p1" and not _graph_count_ok(
            doc, report["stability"]
        ):
            failed.append("graph-count")
        return failed

    def serialize(self, item, out):
        code, text = out
        return f"{os.path.basename(item[0])}|{code}|{text}\n"


def _weight(rng, lo=Fraction(0), hi=Fraction(1)):
    while True:
        q = rng.randint(2, 12)
        w = Fraction(rng.randint(1, q - 1), q)
        if lo < w < hi:
            return w


def _balanced(rng, n1, n2):
    while True:
        low = [_weight(rng) for _ in range(n1)]
        high = [_weight(rng) for _ in range(n2 - 1)]
        last = sum(low) - sum(high)
        if 0 < last < 1 and last.denominator <= 12:
            return [str(w) for w in low], [str(w) for w in high + [last]]


def _extra_points(rng):
    out = []
    for _ in range(rng.randint(0, 16)):
        a, b = 0, 0
        while a == 0 and b == 0:
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        out.append(f"{a}:{b}")
    return out


def _polystable_doc(genus, low, high, extra, sections):
    """Points of weights ``low`` on one section and ``high`` on a disjoint one."""
    n1, n = len(low), len(low) + len(high)
    names = [f"P{i}" for i in range(n)]
    doc = {"genus": genus, "points": names, "weights": list(low) + list(high)}
    if sections:
        doc["model"] = "sections"
        doc["incidence"] = ["S1"] * n1 + ["S2"] * (n - n1)
        doc["sections"] = [
            {"id": "S1", "self_intersection": 0, "contains": names[:n1], "disjoint_from": ["S2"]},
            {"id": "S2", "self_intersection": 0, "contains": names[n1:], "disjoint_from": ["S1"]},
        ]
    else:
        doc["model"] = "trivial-p1"
        doc["incidence"] = ["1:0"] * n1 + ["0:1"] * (n - n1)
    if extra:
        doc["extra_points"] = list(extra)
    return doc, (tuple(low), tuple(high))


def _sides(rng, genus):
    while True:
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        if genus > 0 or n1 + n2 > 2:
            return _balanced(rng, n1, n2)


def _make_polystable_p1(rng):
    low, high = _sides(rng, 0)
    return _polystable_doc(0, low, high, _extra_points(rng), sections=False)


def _make_polystable_sections(rng):
    genus = rng.choice((0, 1, 2))
    low, high = _sides(rng, genus)
    return _polystable_doc(genus, low, high, _extra_points(rng), sections=True)


def _make_stable_or_unstable(rng):
    n = rng.randint(3, 8)
    heavy = rng.random() < 0.5
    half = Fraction(1, 2)
    weights = [_weight(rng, lo=half) if heavy else _weight(rng, hi=half) for _ in range(n)]
    doc = {
        "genus": 0,
        "model": "trivial-p1",
        "points": [f"[{i}:1]" for i in range(n)],
        "weights": [str(w) for w in weights],
        "incidence": [rng.choice(FIBER_COORDS) for _ in range(n)],
    }
    return doc, None


def _make_two_equal_orders(rng):
    q = rng.randint(2, 12)
    p1 = rng.randint(1, q - 1)
    p2 = p1 if rng.random() < 0.75 else rng.randint(1, q - 1)
    while gcd(p1, q) != 1 or gcd(p2, q) != 1:
        q = rng.randint(2, 12)
        p1 = rng.randint(1, q - 1)
        p2 = p1
    extra = []
    for _ in range(rng.randint(0, 4)):
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        extra += [f"{a}:{b}", f"{b}:{a}"] if rng.random() < 0.5 else [f"{a}:{b}"]
    doc = {
        "genus": 0,
        "model": "trivial-p1",
        "points": ["[1:0]", "[0:1]"],
        "weights": [f"{p1}/{q}", f"{p2}/{q}"],
        "incidence": ["1:0", "0:1"],
    }
    if extra:
        doc["extra_points"] = extra
    return doc, None


def _make_not_applicable(rng):
    w1 = _weight(rng)
    if rng.random() < 0.5:
        weights, incidence = [w1], ["1:0"]
    else:
        w2 = _weight(rng)
        while w2.denominator == w1.denominator:
            w2 = _weight(rng)
        weights, incidence = [w1, w2], ["1:0", "0:1"]
    doc = {
        "genus": 0,
        "model": "trivial-p1",
        "points": [f"[{i}:1]" for i in range(len(weights))],
        "weights": [str(w) for w in weights],
        "incidence": incidence,
    }
    return doc, None


_MAKERS = {
    "polystable-p1": _make_polystable_p1,
    "polystable-sections": _make_polystable_sections,
    "stable-or-unstable": _make_stable_or_unstable,
    "two-equal-orders": _make_two_equal_orders,
    "not-applicable": _make_not_applicable,
}


def _sporadic_sides(low, high):
    """Weights 1/q_j on one side and (q_j - 1)/q_j on the other."""

    def ones(ws):
        return all(Fraction(w).numerator == 1 for w in ws)

    def co_ones(ws):
        return all(Fraction(w).numerator == Fraction(w).denominator - 1 for w in ws)

    return (ones(low) and co_ones(high)) or (ones(high) and co_ones(low))


def _graph_count_ok(doc, stability):
    """Degree-d graphs pass through any 2d + 1 points of P^1 x P^1.

    So 2d + T - 2 (sum of the heaviest min(n, 2d + 1) weights) bounds the
    minimum slope from above: it must be > 0 for a stable verdict and
    >= 0 for any verdict other than unstable.
    """
    if stability == "unstable":
        return True
    weights = sorted((Fraction(w) for w in doc["weights"]), reverse=True)
    total = sum(weights, Fraction(0))
    worst = min(
        (2 * d + total - 2 * sum(weights[: 2 * d + 1], Fraction(0)) for d in range(1, len(weights) + 1)),
        default=Fraction(1),
    )
    return worst > 0 if stability == "stable" else worst >= 0


# ---------------------------------------------------------------------------
# metric-verify


class MetricVerify:
    """``verify_metric(p, q)`` at its defaults (200 samples, seed 0)."""

    name = "metric-verify"
    # HJ chains of 1 and 4 digits, plus three long chains (13, 5 and 21
    # digits) that miss the scalar-curvature tolerance at the seed.  Few
    # enough that a run holds several passes of the ~0.6 s calls.
    FRACTIONS = ((1, 2), (4, 9), (13, 14), (17, 21), (21, 22))
    # Checks whose value is not a value/tolerance pair.
    NO_MARGIN = ("determinant-positive", "mass-sign")

    def __init__(self, seed, root, workdir):
        self.items = list(self.FRACTIONS)
        random.Random(seed).shuffle(self.items)

    def run(self, item):
        return metricnum.verify_metric(*item)

    def check(self, item, out):
        return [c.name for c in out.checks if not c.passed]

    def serialize(self, item, out):
        # Exact outputs only; the float check values may drift within the
        # tolerances when metricnum is rewritten.
        checks = ",".join(f"{c.name}:{c.passed}" for c in out.checks)
        levels = ",".join(str(y) for y in out.levels)
        return f"{out.p}/{out.q}|{levels}|{out.exact.a},{out.exact.b},{out.exact.mu}|{checks}\n"

    def margin(self, out):
        """Worst value/tolerance over the checks that carry such a pair."""
        return max(c.value / c.tolerance for c in out.checks if c.name not in self.NO_MARGIN)


WORKLOADS = {w.name: w for w in (ExactSweep, PipelineBatch, MetricVerify)}
