"""Numerical verification layer: coordinates, frames, curvature, fits."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cscglue.logmass import INFINITY as INF_LEVEL
from cscglue.logmass import flat_monopole, log_coeffs_from_levels, monopole_from_fraction
from cscglue.metricnum import (
    FLOAT_MAX,
    TOL_INVARIANT,
    PolarPoint,
    default_levels,
    fit_log_coeffs,
    flat_metric_matrix,
    form2_norm,
    from_polar,
    invariant_residual,
    kahler_residual,
    metric_at,
    monopole_residual,
    potential_residual,
    sample_batch,
    scalar_curvature_at,
    scalar_curvature_generic,
    stencil,
    v_eval,
    verify_metric,
)

RNG = np.random.default_rng(20240811)


# Per-offset finite differences: one call of ``fn`` per stencil offset and
# Richardson level, with their own depth.  Called at depth 1, the scheme of
# ``stencil``, they are its oracle.


def _per_point(step, value):
    step = np.asarray(step, dtype=float)
    return step.reshape(step.shape + (1,) * (np.ndim(value) - step.ndim))


def _extrapolate(d, depth):
    vals = [d(i) for i in range(depth + 1)]
    for level in range(1, depth + 1):
        factor = 4.0 ** level
        vals = [(factor * vals[i + 1] - vals[i]) / (factor - 1) for i in range(len(vals) - 1)]
    return vals[0]


def central_diff(fn, x, h, depth=1):
    def d(i):
        hh = np.asarray(h, dtype=float) / 2**i
        diff = fn(x + hh) - fn(x - hh)
        return diff / _per_point(2 * hh, diff)

    return _extrapolate(d, depth)


def second_diff(fn, x, h, depth=1):
    f0 = fn(x)

    def d(i):
        hh = np.asarray(h, dtype=float) / 2**i
        diff = fn(x + hh) - 2 * f0 + fn(x - hh)
        return diff / _per_point(hh * hh, diff)

    return _extrapolate(d, depth)


def mixed_diff(fn, x, y, hx, hy, depth=1):
    def d(i):
        ax = np.asarray(hx, dtype=float) / 2**i
        ay = np.asarray(hy, dtype=float) / 2**i
        diff = fn(x + ax, y + ay) - fn(x + ax, y - ay) - fn(x - ax, y + ay) + fn(x - ax, y - ay)
        return diff / _per_point(4 * ax * ay, diff)

    return _extrapolate(d, depth)


def _oracle_metric(a, b):
    """The metric of the symbolic curvature oracle below, for arrays of (a, b)."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    g = np.zeros(a.shape + (4, 4))
    g[..., 0, 0] = 1 + np.exp(b) / 10
    g[..., 0, 1] = g[..., 1, 0] = a * b / 20
    g[..., 1, 1] = 1 + a * a / 5
    g[..., 2, 2] = 1 + a * a / 3 + b * b / 7
    g[..., 2, 3] = g[..., 3, 2] = a * b / 9
    g[..., 3, 3] = 2 + np.sin(a + b) / 5
    return g


def _polynomial_metric(seed):
    """A metric whose 16 entries are cubic polynomials in (u0, u1), every block coupled.

    Positive definite for |u0|, |u1| <= 1/2: the polynomial part of each
    entry is at most 0.65 there, against 3 on the diagonal.
    """
    powers = [(i, j) for i in range(4) for j in range(4 - i)]
    coeffs = np.random.default_rng(seed).uniform(-0.1, 0.1, size=(len(powers), 4, 4))
    coeffs = coeffs + np.swapaxes(coeffs, -1, -2)

    def metric(u0, u1):
        u0, u1 = np.broadcast_arrays(np.asarray(u0, dtype=float), np.asarray(u1, dtype=float))
        return 3.0 * np.eye(4) + sum(c * (u0 ** i * u1 ** j)[..., None, None]
                                     for c, (i, j) in zip(coeffs, powers))

    return metric


def _einsum_curvature(metric_fn, u0, u1, h0, h1):
    """The einsum contraction over zero-padded derivative axes (the oracle).

    Every derivative axis has length n, with d_e g = 0 for e >= 2, and
    numpy sums each index without a path.
    """
    st = stencil(metric_fn, u0, u1, h0, h1, second=True)
    g = st["f"]
    n = g.shape[-1]
    batch = g.shape[:-2]
    ginv = np.linalg.inv(g)

    dg = np.zeros(batch + (n, n, n))
    dg[..., 0, :, :] = st["d0"]
    dg[..., 1, :, :] = st["d1"]
    d2g = np.zeros(batch + (n, n, n, n))
    d2g[..., 0, 0, :, :] = st["d00"]
    d2g[..., 1, 1, :, :] = st["d11"]
    d2g[..., 0, 1, :, :] = d2g[..., 1, 0, :, :] = st["d01"]

    term = np.einsum("...bdc->...dbc", dg) + np.einsum("...cdb->...dbc", dg) - dg
    gamma = 0.5 * np.einsum("...ad,...dbc->...abc", ginv, term)
    dterm = (np.einsum("...ebdc->...edbc", d2g) + np.einsum("...ecdb->...edbc", d2g)
             - d2g)
    dginv = -np.einsum("...ai,...eij,...jd->...ead", ginv, dg, ginv)
    dgamma = 0.5 * (np.einsum("...ead,...dbc->...eabc", dginv, term)
                    + np.einsum("...ad,...edbc->...eabc", ginv, dterm))
    ric = (np.einsum("...mmns->...sn", dgamma) - np.einsum("...nmms->...sn", dgamma)
           + np.einsum("...mml,...lns->...sn", gamma, gamma)
           - np.einsum("...mnl,...lms->...sn", gamma, gamma))
    return np.einsum("...ab,...ab->...", ginv, ric)


def _assert_close_relative(batch, single, tol=1e-12):
    batch, single = np.asarray(batch), np.asarray(single)
    assert batch.shape == single.shape
    assert np.max(np.abs(batch - single)) <= tol * max(np.max(np.abs(single)), 1e-300)


def data_for(p, q):
    from cscglue.cfrac import hj_expand

    k = len(hj_expand(p, q).digits)
    return monopole_from_fraction(p, q, default_levels(k))


def test_polar_round_trip():
    r = RNG.uniform(0.2, 50.0, size=1000)
    theta = RNG.uniform(0.05, math.pi / 2 - 0.05, size=1000)
    x, y = from_polar(PolarPoint(r, theta))
    # Inverse of x = r^-2 sin 2theta, y = r^-2 cos 2theta.
    back_r = np.hypot(x, y) ** -0.5
    back_theta = 0.5 * np.arctan2(x, y)
    assert np.all(np.abs(back_r - r) < 1e-14 * np.maximum(1.0, r))
    assert np.all(np.abs(back_theta - theta) < 1e-14)


def test_polar_specials():
    x, y = from_polar(PolarPoint(1.0, math.pi / 4))
    assert abs(x - 1.0) < 1e-15
    assert abs(y) < 1e-15
    with pytest.raises(ValueError):
        v_eval(flat_monopole(), 0.0, 1.0)
    with pytest.raises(ValueError):
        PolarPoint(r=1.0, theta=0.0)


def test_flat_frame_closed_form():
    flat = flat_monopole()
    for _ in range(50):
        theta = float(RNG.uniform(0.05, math.pi / 2 - 0.05))
        r = float(RNG.uniform(0.3, 20.0))
        frame = v_eval(flat, *from_polar(PolarPoint(r, theta)))
        s, c = math.sin(theta), math.cos(theta)
        assert np.allclose(frame.v1, [s * c, -s * c], atol=1e-14)
        assert np.allclose(frame.v2, [c * c, s * s], atol=1e-14)
        assert abs(frame.det - s * c) < 1e-14


def test_flat_metric_exact():
    flat = flat_monopole()
    for _ in range(200):
        pt = PolarPoint(float(RNG.uniform(0.3, 20.0)), float(RNG.uniform(0.1, math.pi / 2 - 0.1)))
        sample = metric_at(flat, pt)
        expected = flat_metric_matrix(pt)
        assert np.max(np.abs(sample.g - expected)) < 1e-12 * max(1.0, expected.max())


def test_metric_invariants():
    data = data_for(2, 5)
    for _ in range(50):
        pt = PolarPoint(float(RNG.uniform(0.8, 6.0)), float(RNG.uniform(0.1, math.pi / 2 - 0.1)))
        sample = metric_at(data, pt)
        scale = np.max(np.abs(sample.g))
        assert np.max(np.abs(sample.J @ sample.J + np.eye(4))) < 1e-10
        assert np.max(np.abs(sample.J.T @ sample.g @ sample.J - sample.g)) < 1e-10 * scale
        assert np.max(np.abs(sample.omega - sample.J.T @ sample.g)) < 1e-10 * scale
        assert np.linalg.eigvalsh(sample.g).min() > 0
        # Kähler form has metric norm sqrt(2) in real dimension 4.
        assert abs(form2_norm(sample.omega, sample.g) - math.sqrt(2)) < 1e-9


# Long chains on which the old max|g| scale exceeded TOL_INVARIANT from
# roundoff alone.
ROUNDOFF_CHAINS = ((52, 53), (61, 62), (47, 49), (67, 69))


def invariant_batch(p, q):
    rng = np.random.default_rng(0)
    return metric_at(data_for(p, q), sample_batch(rng, 100, 1.0, 5.0))


@pytest.mark.parametrize("pq", ROUNDOFF_CHAINS)
def test_metric_invariants_roundoff_scale(pq):
    check = {c.name: c for c in verify_metric(*pq).checks}["metric-invariants"]
    assert check.passed and check.value < TOL_INVARIANT


@pytest.mark.parametrize("pq", ((2, 5),) + ROUNDOFF_CHAINS)
def test_invariant_residual_catches_small_defects(pq):
    # A 1e-8 relative error in omega or J must fail at every sample point.
    sample = invariant_batch(*pq)
    for bad in (
        sample._replace(omega=sample.omega * (1 + 1e-8)),
        sample._replace(J=sample.J * (1 + 1e-8)),
        sample._replace(omega=sample.omega + 1e-8 * sample.omega * (np.arange(4) == 1)),
        sample._replace(J=sample.J + 1e-8 * sample.J * (np.arange(4) == 3)),
    ):
        assert np.min(invariant_residual(bad)) > TOL_INVARIANT


def test_monopole_system_per_basic_solution():
    for p, q in [(1, 2), (1, 3), (3, 5)]:
        data = data_for(p, q)
        for _ in range(10):
            x = float(RNG.uniform(0.1, 3.0))
            y = float(RNG.uniform(-2.0, 5.0))
            assert monopole_residual(data, x, y, h=1e-4 * x) < 1e-8


def test_monopole_system_single_basic_solution():
    # By linearity each basic solution solves the system on its own;
    # raw data (no chain) exercises exactly one summand.
    from fractions import Fraction
    from cscglue.logmass import MonopoleData

    single = MonopoleData(levels=(Fraction(2), Fraction(0)), pairs=((3, -2), (0, 0)))
    const = MonopoleData(levels=(INF_LEVEL, Fraction(0)), pairs=((1, 4), (0, 0)))
    for data in (single, const):
        for _ in range(5):
            x = float(RNG.uniform(0.2, 3.0))
            y = float(RNG.uniform(-1.0, 4.0))
            assert monopole_residual(data, x, y, h=1e-4 * x) < 1e-9


def test_determinant_positive_on_grid():
    for p, q in [(1, 2), (2, 5), (4, 7)]:
        data = data_for(p, q)
        for x in np.geomspace(0.01, 10, 12):
            for y in np.linspace(-3, 8, 12):
                assert v_eval(data, float(x), float(y)).det > 0


def test_chain_rule_identities():
    # r d/dr and d/dtheta of v map to -2(x dx + y dy) and -2(x dy - y dx).
    data = data_for(1, 3)
    for _ in range(10):
        pt = PolarPoint(float(RNG.uniform(0.8, 4.0)), float(RNG.uniform(0.2, math.pi / 2 - 0.2)))
        x, y = from_polar(pt)
        v1_x = central_diff(lambda xx: v_eval(data, xx, y).v1, x, 1e-3 * x)
        v1_y = central_diff(lambda yy: v_eval(data, x, yy).v1, y, 1e-3 * x)
        euler = -2 * (x * v1_x + y * v1_y)
        rot = -2 * (x * v1_y - y * v1_x)
        fd_r = central_diff(
            lambda rr: v_eval(data, *from_polar(PolarPoint(rr, pt.theta))).v1, pt.r, 1e-3 * pt.r
        )
        fd_th = central_diff(
            lambda th: v_eval(data, *from_polar(PolarPoint(pt.r, th))).v1, pt.theta, 1e-3
        )
        assert np.allclose(pt.r * fd_r, euler, atol=1e-7)
        assert np.allclose(fd_th, rot, atol=1e-7)


def _stencil_cases():
    """(evaluator, u0, u1, h0, h1) batches for the stencil-versus-oracle test."""
    data = data_for(17, 21)
    pts = sample_batch(np.random.default_rng(4), 6, 1.0, 5.0)
    x, y = from_polar(pts)

    def rows(xx, yy):
        frame = v_eval(data, xx, yy)
        return np.stack([frame.v1, frame.v2], axis=-2)

    def sample(r, theta):
        s = metric_at(data, PolarPoint(r, theta))
        return np.stack([s.g, s.omega, s.J], axis=-3)

    a = np.array([0.7, 1.1, 0.2, 0.45])
    b = np.array([0.4, -0.3, 0.9, 0.1])
    return {
        "v_eval": (rows, x, y, 1e-3 * x, 1e-3 * x),
        "metric_at": (sample, pts.r, pts.theta, 1e-2 * np.maximum(pts.r, 1.0), 1e-2),
        "oracle_metric": (_oracle_metric, a, b, 1e-3, 1e-3),
    }


@pytest.mark.parametrize("case", ("v_eval", "metric_at", "oracle_metric"))
def test_stencil_matches_per_offset_oracle(case):
    fn, u0, u1, h0, h1 = _stencil_cases()[case]
    joint = stencil(fn, u0, u1, h0, h1, second=True)
    first_only = stencil(fn, u0, u1, h0, h1)
    expected = {
        "f": fn(u0, u1),
        "d0": central_diff(lambda t: fn(t, u1), u0, h0, 1),
        "d1": central_diff(lambda t: fn(u0, t), u1, h1, 1),
        "d00": second_diff(lambda t: fn(t, u1), u0, h0, 1),
        "d11": second_diff(lambda t: fn(u0, t), u1, h1, 1),
        "d01": mixed_diff(fn, u0, u1, h0, h1, 1),
    }
    assert joint.keys() == expected.keys()
    for name, value in expected.items():
        _assert_close_relative(joint[name], value)
    assert first_only.keys() == {"f", "d0", "d1"}
    for name in first_only:
        _assert_close_relative(first_only[name], expected[name])


def test_curvature_positive_control():
    # Round 2-sphere times flat 2-torus: scalar curvature 2.
    def fn(a, b):
        g = np.zeros(np.shape(a) + (4, 4))
        g[..., 0, 0] = g[..., 2, 2] = g[..., 3, 3] = 1.0
        g[..., 1, 1] = np.sin(a) ** 2
        return g

    s = scalar_curvature_generic(fn, 0.8, 0.3, 1e-4, 1e-4)
    assert abs(s - 2.0) < 1e-6


def test_curvature_flat_polar_control():
    fn = lambda r, th: flat_metric_matrix(PolarPoint(r, th))
    s = scalar_curvature_generic(fn, 1.5, 0.7, 1.5e-4, 1e-4)
    assert abs(s) < 1e-6


def test_curvature_flat_data_near_float_floor():
    # The flat datum's curvature is roundoff alone.  The margin is thin at
    # (0.8, 0.5), which reads 9.2e-9; the other two read 2.7e-9 and 1.9e-9.
    flat = flat_monopole()
    for r, th in [(0.8, 0.5), (1.2, 0.785), (1.7, 1.05)]:
        s = scalar_curvature_at(flat, PolarPoint(r, th), h_scale=1e-2)
        assert abs(s) < 1e-8


def test_curvature_generic_against_symbolic_oracle():
    """Frozen values from an independent symbolic computation.

    Oracle: sympy Christoffel/Ricci contraction for the metric

        [[1 + e^v/10, uv/20, 0, 0],
         [uv/20, 1 + u^2/5, 0, 0],
         [0, 0, 1 + u^2/3 + v^2/7, uv/9],
         [0, 0, uv/9, 2 + sin(u+v)/5]]

    evaluated exactly and rounded to 20 digits.  Exercises both
    derivative directions, the mixed partial, and off-diagonal blocks
    in one go; the scale-free points make 1e-7 a loose bound for the
    Richardson pipeline.
    """
    expected = {
        (0.7, 0.4): -0.86043286947471933346,
        (1.1, -0.3): -0.65382006381981941260,
        (0.2, 0.9): -0.98218496343148765680,
    }
    for (a, b), val in expected.items():
        got = scalar_curvature_generic(_oracle_metric, a, b, 1e-3, 1e-3)
        assert abs(got - val) < 1e-7


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_curvature_matches_einsum_contraction(seed):
    # The oracle sums the same stencil values in another order, so the two
    # differ by roundoff alone.
    metric = _oracle_metric if seed is None else _polynomial_metric(seed)
    rng = np.random.default_rng(seed)
    u0, u1 = rng.uniform(-0.5, 0.5, size=(2, 6))
    assert np.linalg.eigvalsh(metric(u0, u1)).min() > 0
    for h in (1e-3, 1e-2, 1e-4):
        got = scalar_curvature_generic(metric, u0, u1, h, h)
        _assert_close_relative(got, _einsum_curvature(metric, u0, u1, h, h), 1e-10)
    assert np.ndim(scalar_curvature_generic(metric, 0.1, -0.2, 1e-3, 1e-3)) == 0


def test_scalar_flatness_sample():
    for p, q in [(1, 2), (3, 5)]:
        data = data_for(p, q)
        for _ in range(5):
            pt = PolarPoint(float(RNG.uniform(1.0, 5.0)), float(RNG.uniform(0.15, math.pi / 2 - 0.15)))
            assert abs(scalar_curvature_at(data, pt)) < 1e-4


def test_kahler_residual_flat():
    res = kahler_residual(flat_monopole(), PolarPoint(np.array([2.0, 0.9]), np.array([0.7, 0.4])))
    assert res["max_domega"] < 1e-9
    assert res["max_dintegrability"] < 1e-9


def test_kahler_residual_and_order():
    data = data_for(1, 2)
    pts = PolarPoint(np.array([2.0, 1.3]), np.array([0.7, 0.5]))
    res = kahler_residual(data, pts)
    assert res["max_domega"] < 1e-6
    assert res["max_dintegrability"] < 1e-6
    # Fourth-order convergence of the extrapolated differences: halving
    # the step divides the residual by 16.
    coarse = kahler_residual(data, pts, h=2e-2)
    fine = kahler_residual(data, pts, h=1e-2)
    for key in ("max_domega", "max_dintegrability"):
        ratio = coarse[key] / fine[key]
        assert 10.0 < ratio < 24.0
    with pytest.raises(ValueError):
        kahler_residual(data, PolarPoint(1.0, 0.05), h=0.1)


def test_fit_matches_exact():
    for p, q in [(1, 2), (1, 3), (2, 5), (3, 5), (2, 3)]:
        data = data_for(p, q)
        exact = log_coeffs_from_levels(data)
        fit = fit_log_coeffs(data, np.geomspace(10, 1000, 20), np.linspace(0.3, 1.2, 5))
        scale = max(1.0, abs(float(exact.a)), abs(float(exact.b)))
        assert abs(fit["a_fit"] - float(exact.a)) < 0.01 * scale
        assert abs(fit["b_fit"] - float(exact.b)) < 0.01 * scale


def test_fit_flat_zero():
    fit = fit_log_coeffs(flat_monopole(), np.geomspace(10, 1000, 20), np.linspace(0.3, 1.2, 5))
    assert abs(fit["a_fit"]) < 1e-8
    assert abs(fit["b_fit"]) < 1e-8


def test_fit_input_validation():
    data = data_for(1, 2)
    with pytest.raises(ValueError):
        fit_log_coeffs(data, [10.0] * 5, [0.3, 0.5])
    with pytest.raises(ValueError):
        fit_log_coeffs(data, np.geomspace(10, 100, 12), [0.5])


def test_potential_residual_flat():
    flat = flat_monopole()
    for r in (5.0, 20.0, 100.0):
        assert potential_residual(flat, r) < 1e-9


def test_potential_residual_decay():
    data = data_for(1, 3)
    res = [potential_residual(data, r) for r in (10.0, 20.0, 40.0)]
    assert res[0] > res[1] > res[2]
    for a, b in zip(res, res[1:]):
        assert abs(b / a * 16.0 - 1.0) < 0.25


def test_verify_metric_driver():
    rep = verify_metric(1, 2, samples=60, seed=3)
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert "flat-model-exactness" in names
    assert "potential-decay" in names
    assert len(rep.decay_series) > 5
    rs = [r for r, _ in rep.decay_series]
    assert rs == sorted(rs)


def test_verify_metric_refuses_samples_below_one():
    for samples in (0, -1):
        with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
            verify_metric(1, 3, samples=samples)


@pytest.mark.parametrize("samples", [2.5, True, "10", None])
def test_verify_metric_refuses_non_integer_samples(samples):
    with pytest.raises(TypeError, match=f"samples must be an integer, got {samples!r}"):
        verify_metric(1, 3, samples=samples)


def test_verify_metric_takes_numpy_integer_samples():
    rep = verify_metric(1, 2, samples=np.int64(10))
    assert type(rep.samples) is int and rep == verify_metric(1, 2, samples=10)


def test_verify_metric_float_range_edge():
    # The largest float is a level the checks can run on (and fail);
    # anything above it is refused before they start.
    edge = Fraction(FLOAT_MAX)
    rep = verify_metric(1, 2, levels=[math.inf, edge, 0], samples=10)
    assert not rep.passed
    with pytest.raises(ValueError, match="every finite level must lie within the float range"):
        verify_metric(1, 2, levels=[math.inf, edge + 1, 0], samples=10)


def test_sample_batch_seeded():
    a = sample_batch(np.random.default_rng(5), 10, 1.0, 5.0)
    b = sample_batch(np.random.default_rng(5), 10, 1.0, 5.0)
    assert np.array_equal(a.r, b.r) and np.array_equal(a.theta, b.theta)


def test_batch_matches_single_points():
    data = data_for(17, 21)
    batch = sample_batch(np.random.default_rng(8), 12, 1.0, 5.0)
    frames = v_eval(data, *from_polar(batch))
    samples = metric_at(data, batch)
    for i in range(12):
        pt = PolarPoint(float(batch.r[i]), float(batch.theta[i]))
        frame = v_eval(data, *from_polar(pt))
        for name in ("v1", "v2", "det"):
            _assert_close_relative(getattr(frames, name)[i], getattr(frame, name))
        sample = metric_at(data, pt)
        for name in ("g", "omega", "J"):
            _assert_close_relative(getattr(samples, name)[i], getattr(sample, name))

    a = np.array([0.7, 1.1, 0.2, 0.45])
    b = np.array([0.4, -0.3, 0.9, 0.1])
    values = scalar_curvature_generic(_oracle_metric, a, b, 1e-3, 1e-3)
    assert values.shape == a.shape
    for i in range(len(a)):
        single = scalar_curvature_generic(_oracle_metric, float(a[i]), float(b[i]), 1e-3, 1e-3)
        _assert_close_relative(values[i], single)
    # The batched oracle metric reproduces the frozen symbolic value.
    assert abs(values[0] - -0.86043286947471933346) < 1e-7
