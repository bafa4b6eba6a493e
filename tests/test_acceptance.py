"""Acceptance suite.

One test per acceptance criterion, each printing a PASS line with the
measured quantity (run pytest with -s to see them).  Every tolerance is
pinned here, not computed.
"""

import random
import time
from fractions import Fraction
from math import gcd, pi

import numpy as np
import pytest

from cscglue.cfrac import hj_expand
from cscglue.gluing import GluingVerdict, FixType, existence_report
from cscglue.logmass import (
    INFINITY,
    log_coeffs_from_levels,
    mass_verdict,
    monopole_from_fraction,
    mu_from_chain,
    mu_from_u,
)
from cscglue.metricnum import (
    default_levels,
    fit_log_coeffs,
    jet_sample,
    kahler_residual,
    metric_at,
    potential_grid,
    potential_residual,
    sample_batch,
    scalar_curvature_at,
    verify_metric,
)
from cscglue.parabolic import (
    ParabolicSurface,
    StabilityKind,
    classify,
    is_sporadic,
    normalize_coord,
)
from cscglue.resolution import blow_down_fully, fiber_chain
from cscglue.logmass import flat_monopole

from test_gluing import random_balanced_surface, sections_surface, trivial_surface

F = Fraction


def coprime_pairs(max_q):
    for q in range(2, max_q + 1):
        for p in range(1, q):
            if gcd(p, q) == 1:
                yield p, q


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_1_blow_down_sweep():
    """Every fiber chain up to q = 200 contracts to the fiber, fast."""
    start = time.perf_counter()
    count = 0
    digit_cache = {}
    for q in range(2, 201):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            if (p, q) not in digit_cache:
                digit_cache[(p, q)] = hj_expand(p, q).digits
                digit_cache[(q - p, q)] = hj_expand(q - p, q).digits
            left = digit_cache[(p, q)]
            right = digit_cache[(q - p, q)]
            chain = tuple(-e for e in left) + (-1,) + tuple(-e for e in reversed(right))
            assert blow_down_fully(chain) == (0,)
            count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"sweep took {elapsed:.2f}s"
    report(1, f"{count} fiber chains (q <= 200) blow down to (0,) in {elapsed:.2f}s")


def test_criterion_2_determinant_identity():
    """Unit determinant at every approximant junction, q <= 200, exact."""
    checked = 0
    for p, q in coprime_pairs(200):
        pairs = hj_expand(p, q).approximants
        k = len(pairs) - 3
        for j in range(k + 1):
            (m0, n0), (m1, n1) = pairs[j], pairs[j + 1]
            assert m0 * n1 - m1 * n0 == 1
            checked += 1
        # Closing junction carries the group order instead.
        assert pairs[-2][0] * pairs[-1][1] - pairs[-1][0] * pairs[-2][1] == q
    report(2, f"{checked} junction determinants equal 1 exactly (q <= 200)")


def test_criterion_3_sign_theorem():
    """mu <= 0 with equality iff p = q - 1, exact, random positive u."""
    rng = random.Random(31415)
    pairs = list(coprime_pairs(100))
    checked = 0
    for p, q in pairs:
        k = len(hj_expand(p, q).digits)
        for _ in range(100):
            u = [F(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(k)]
            mu = mu_from_u(p, q, u).mu
            if p == q - 1:
                assert mu == 0
            else:
                assert mu < 0
            checked += 1
    report(3, f"sign theorem exact on {checked} (pair, u) samples, q <= 100")


def test_criterion_4_route_agreement():
    """Level-sum route equals per-term route for 1000 random data sets."""
    rng = random.Random(27182)
    pairs = list(coprime_pairs(50))
    for _ in range(1000):
        p, q = rng.choice(pairs)
        k = len(hj_expand(p, q).digits)
        levels = [F(0)]
        for _ in range(k + 1):
            levels.append(levels[-1] + F(rng.randint(1, 9), rng.randint(1, 9)))
        levels = list(reversed(levels))
        if rng.random() < 0.25:
            levels[0] = INFINITY
        data = monopole_from_fraction(p, q, levels)
        via_levels = log_coeffs_from_levels(data)
        via_u = mu_from_u(p, q, [u for _, u in via_levels.per_term])
        assert via_levels.a + via_levels.b == via_u.mu
        assert via_levels.mu == via_u.mu
    report(4, "a + b from level sums equals mu from per-term sums, 1000 cases")


def test_criterion_5_worked_examples():
    """Single-interval and inserted-interval families, exact."""
    # Single interval: coefficient 2/q - 1.
    for q in range(2, 30):
        coeffs = mu_from_u(1, q, [F(1)])
        assert [c for c, _ in coeffs.per_term] == [F(2, q) - 1]
        if q == 2:
            assert coeffs.mu == 0  # Eguchi-Hanson
        else:
            assert coeffs.mu < 0
    # Burns datum q = 1: positive mass.
    assert mass_verdict(1, 1, [F(1)]).sign == 1
    # Inserted interval: coefficients 2/q - 1 and 2/q - 2/(q+1).
    for q in (1, 2, 5, 9):
        chain = ((0, -1), (1, 0), (q + 1, 1), (q, 1), (0, 1))
        coeffs = mu_from_chain(chain, [F(1), F(1)])
        assert [c for c, _ in coeffs.per_term] == [
            F(2, q) - 1,
            F(2, q) - F(2, q + 1),
        ]
    # q = 1: positive for every positive u.
    assert mu_from_chain(((0, -1), (1, 0), (2, 1), (1, 1), (0, 1)), [F(1), F(1)]).mu > 0
    # q > 2: two explicit u choices reach both signs.
    q = 5
    chain = ((0, -1), (1, 0), (q + 1, 1), (q, 1), (0, 1))
    neg = mu_from_chain(chain, [F(1), F(1, 100)]).mu
    pos = mu_from_chain(chain, [F(1, 100), F(1)]).mu
    assert neg < 0 < pos
    report(5, "single and inserted interval examples reproduced exactly "
              f"(e.g. q=5 insertion: mu = {neg} or {pos})")


def test_criterion_6_four_point_pipeline():
    """Four-point sphere fixture: the 11-point rational surface."""
    surf = trivial_surface(
        [F(1, 2), F(1, 2), F(1, 3), F(1, 3)], [(1, 0), (0, 1), (1, 0), (0, 1)]
    )
    rep = existence_report(surf)
    assert rep.stability.kind is StabilityKind.STRICTLY_POLYSTABLE
    assert not rep.sporadic
    assert rep.chi_orb == F(-1, 3)
    assert rep.sfk_possible
    assert rep.blowup_total == 10
    assert rep.description == "CP^2 blown up at 11 points"
    assert rep.verdict is GluingVerdict.FEASIBLE
    report(6, f"chi_orb = {rep.chi_orb}, {rep.blowup_total} blow-ups, "
              f"'{rep.description}', verdict {rep.verdict.value}")


def test_criterion_7_equivariant_and_counterexample_fixtures():
    """Two-point toric fixture plus the sphere and torus families."""
    toric = trivial_surface([F(1, 2), F(1, 2)], [(1, 0), (0, 1)])
    rep = existence_report(toric)
    assert rep.stability.kind is StabilityKind.STRICTLY_POLYSTABLE
    assert rep.case is FixType.QUOTIENT_SPHERE_BASE
    assert rep.verdict is GluingVerdict.FEASIBLE_EQUIVARIANT
    strings = [s for _, pair in rep.resolution_strings for s in pair]
    assert strings == [(-2,)] * 4

    sphere = trivial_surface([F(2, 9), F(2, 9), F(4, 9)], [(1, 0), (1, 0), (0, 1)])
    rep_s = existence_report(sphere)
    assert rep_s.stability.kind is StabilityKind.STRICTLY_POLYSTABLE
    assert rep_s.stability.pair is not None
    assert all(c.slope == 0 for c in rep_s.stability.pair)
    assert rep_s.verdict is GluingVerdict.FEASIBLE

    torus = sections_surface(1, [F(2, 5), F(2, 5)], ["S1", "S2"])
    rep_t = existence_report(torus)
    assert rep_t.stability.pair is not None
    assert all(c.slope == 0 for c in rep_t.stability.pair)
    assert rep_t.verdict is GluingVerdict.FEASIBLE
    report(7, "equivariant toric route (four -2 curves) and both "
              "counterexample families feasible with slope-0 witnesses")


def test_criterion_8_sporadic_iff_infeasible():
    """Pattern predicate agrees with the matrix verdict, 500 randoms."""
    rng = random.Random(16180)
    agree = 0
    for _ in range(500):
        surf = random_balanced_surface(rng)
        verdict = classify(surf)
        assert verdict.kind is StabilityKind.STRICTLY_POLYSTABLE
        rep = existence_report(surf)
        matrix_bad = rep.verdict in (GluingVerdict.INFEASIBLE, GluingVerdict.OBSTRUCTED)
        assert is_sporadic(surf, verdict) == matrix_bad
        agree += 1
    report(8, f"sporadic pattern == matrix obstruction on {agree}/500 random surfaces")


def test_criterion_9_flat_model_exactness():
    """Flat evaluator matches the closed form to 1e-12 at 1000 points."""
    start = time.perf_counter()
    rng = np.random.default_rng(424242)
    pts = sample_batch(rng, 1000, 0.2, 30.0)
    # The flat model on the blocks: h = (1, r^2), G = r^2 diag(s^2, c^2).
    sample = metric_at(flat_monopole(), pts)
    r, s, c = pts.r, np.sin(pts.theta), np.cos(pts.theta)
    deviation = np.abs(sample.h - np.stack([np.ones_like(r), r ** 2], axis=-1)).max(axis=-1)
    G = np.zeros(r.shape + (2, 2))
    G[..., 0, 0], G[..., 1, 1] = (r * s) ** 2, (r * c) ** 2
    deviation = np.maximum(deviation, np.abs(sample.G - G).max(axis=(-2, -1)))
    worst = float(np.max(deviation / np.maximum(1.0, r ** 2)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 1.0, f"flat sweep took {elapsed:.2f}s"
    report(9, f"max flat deviation {worst:.2e} over 1000 points in {elapsed:.2f}s")


def test_criterion_10_kahler_verification():
    """dω, integrability and scalar curvature for four resolutions."""
    rng = np.random.default_rng(77)
    worst_domega = worst_dj = worst_s = 0.0
    for p, q in [(1, 2), (1, 3), (2, 5), (3, 5)]:
        k = len(hj_expand(p, q).digits)
        data = monopole_from_fraction(p, q, default_levels(k))
        pts = sample_batch(rng, 100, 1.0, 5.0)
        res = kahler_residual(jet_sample(data, pts))
        worst_domega = max(worst_domega, res["max_domega"])
        worst_dj = max(worst_dj, res["max_dintegrability"])
        assert res["max_domega"] < 1e-6
        assert res["max_dintegrability"] < 1e-6
        s = np.abs(scalar_curvature_at(data, pts).value)
        worst_s = max(worst_s, float(np.max(s)))
        assert np.all(s < 1e-4)
    report(10, f"max residuals: domega {worst_domega:.1e}, "
               f"integrability {worst_dj:.1e}, |s| {worst_s:.1e} "
               "(400 points, 4 resolutions)")


def test_criterion_11_asymptotics():
    """Fit accuracy, r^-4 potential decay, and mass signs."""
    rng = random.Random(99)
    radii = np.geomspace(10, 1000, 20)
    thetas = np.linspace(0.3, pi / 2 - 0.3, 5)
    fractions = [(1, 2), (1, 3), (2, 3), (2, 5), (3, 5), (3, 4), (1, 6), (5, 7), (4, 9), (5, 11)]
    assert len(fractions) >= 10
    worst_fit = 0.0
    for p, q in fractions:
        k = len(hj_expand(p, q).digits)
        data = monopole_from_fraction(p, q, default_levels(k))
        exact = log_coeffs_from_levels(data)
        fit = fit_log_coeffs(data, radii, thetas)
        scale = max(1.0, abs(float(exact.a)), abs(float(exact.b)))
        err = max(abs(fit["a_fit"] - float(exact.a)), abs(fit["b_fit"] - float(exact.b))) / scale
        worst_fit = max(worst_fit, err)
        assert err < 0.01

        # Fitted mass sign against the exact verdict.
        mu_fit = fit["a_fit"] + fit["b_fit"]
        sign_exact = mass_verdict(p, q, [u for _, u in exact.per_term]).sign
        sign_fit = 0 if abs(mu_fit) < 0.01 * scale else (1 if mu_fit > 0 else -1)
        assert sign_fit == sign_exact

    # Potential decay ratio 2^-4 within 25% (one representative chain
    # plus a crepant one with a and b nonzero).
    worst_ratio_err = 0.0
    for p, q in [(1, 3), (2, 3)]:
        k = len(hj_expand(p, q).digits)
        data = monopole_from_fraction(p, q, default_levels(k))
        res = [potential_residual(data, jet_sample(data, potential_grid(r))).max()
               for r in (10.0, 20.0, 40.0)]
        for a, b in zip(res, res[1:]):
            err = abs(b / a * 16.0 - 1.0)
            worst_ratio_err = max(worst_ratio_err, err)
            assert err < 0.25
    report(11, f"fit error {worst_fit:.2e} (10 fractions), potential decay "
               f"ratio within {worst_ratio_err:.1%} of 2^-4, mass signs match")


def test_criterion_12_metric_verify_sweep():
    """verify_metric at its defaults passes every check on every q <= 25.

    The long chains 13/14, 17/21 and 21/22 failed scalar flatness when the
    curvature step sat in the roundoff regime; tolerances and sample
    counts are the defaults.
    """
    fractions = list(coprime_pairs(25))
    assert len(fractions) == 199
    assert {(13, 14), (17, 21), (21, 22)} <= set(fractions)
    worst = {}
    start = time.perf_counter()
    for p, q in fractions:
        rep = verify_metric(p, q)
        failed = [c.name for c in rep.checks if not c.passed]
        assert not failed, (p, q, failed)
        for c in rep.checks:
            if c.tolerance > 0 and c.name != "mass-sign":
                worst[c.name] = max(worst.get(c.name, 0.0), c.value / c.tolerance)
    elapsed = time.perf_counter() - start
    report(12, f"199 fractions pass in {elapsed:.1f}s; worst value/tolerance "
               + ", ".join(f"{name} {m:.1e}" for name, m in worst.items()))
