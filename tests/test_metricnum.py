"""Numerical verification layer: coordinates, frames, curvature, fits."""

import functools
import json
import math
import operator
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from cscglue import cli, metricnum
from cscglue.cfrac import hj_length
from cscglue.logmass import INFINITY as INF_LEVEL
from cscglue.logmass import flat_monopole, log_coeffs_from_levels, monopole_from_fraction
from cscglue.metricnum import (
    FLOAT_MAX,
    FLOAT_MAX_INT,
    MAX_LEVELS,
    TOL_INVARIANT,
    FrameData,
    Jet,
    MetricSample,
    PolarPoint,
    Residual,
    decay_series,
    default_levels,
    fit_log_coeffs,
    flat_model_deviation,
    from_polar,
    invariant_residual,
    jet_sample,
    kahler_residual,
    metric_at,
    monopole_residual,
    potential_grid,
    potential_residual,
    sample_batch,
    scalar_curvature_at,
    v_eval,
    verify_metric,
)

RNG = np.random.default_rng(20240811)


def central_diff(fn, x, h):
    """Central differences at h and h/2, extrapolated once: an oracle independent of jets."""

    def d(step):
        diff = fn(x + step) - fn(x - step)
        step = np.asarray(2 * step, dtype=float)
        return diff / step.reshape(step.shape + (1,) * (np.ndim(diff) - step.ndim))

    h = np.asarray(h, dtype=float)
    return (4.0 * d(h / 2) - d(h)) / 3.0


def jet_zeros(like, shape):
    """A jet of zeros of ``like``'s order, with value shape ``shape``."""
    return Jet(np.zeros(shape), np.zeros(like.parts.shape[:1] + shape))


def hessian(jet):
    """The second derivatives of an order-2 jet, shape (2, 2) + V."""
    return jet.parts[2:].reshape((2, 2) + jet.shape)


def jet_exp(u):
    """exp of a jet, by the chain rule: exp is its own first and second derivative."""
    value = np.exp(u.value)
    return u._chain(value, value, lambda: value)


def _oracle_metric(a, b):
    """The metric of the symbolic curvature oracle below, for jets a, b of one shape."""
    g = jet_zeros(a, a.shape + (4, 4))
    g[..., 0, 0] = jet_exp(b) / 10 + 1
    g[..., 0, 1] = g[..., 1, 0] = a * b / 20
    g[..., 1, 1] = a * a / 5 + 1
    g[..., 2, 2] = a * a / 3 + b * b / 7 + 1
    g[..., 2, 3] = g[..., 3, 2] = a * b / 9
    g[..., 3, 3] = np.sin(a + b) / 5 + 2
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
        terms = [(u0 ** i * u1 ** j)[..., None, None] * c for c, (i, j) in zip(coeffs, powers)]
        return functools.reduce(operator.add, terms) + 3.0 * np.eye(4)

    return metric


def assemble(sample):
    """g, omega and J of a sample as 4 x 4 matrices in the (r, theta, t1, t2)
    basis, zero-padded from its blocks: g = diag(h) + G, omega and J off the
    diagonal blocks.  g is a jet if the sample's fields are."""
    h, G = sample.h, sample.G
    shape = h.shape[:-1] + (4, 4)
    g = jet_zeros(h, shape) if isinstance(h, Jet) else np.zeros(shape)
    g[..., 0, 0], g[..., 1, 1] = h[..., 0], h[..., 1]
    g[..., 2:, 2:] = G
    omega, J = np.zeros(shape), np.zeros(shape)
    omega[..., :2, 2:] = _value(sample.omega_block)
    omega[..., 2:, :2] = -np.swapaxes(_value(sample.omega_block), -1, -2)
    J[..., :2, 2:], J[..., 2:, :2] = _value(sample.J_upper), _value(sample.J_lower)
    return g, omega, J


def _value(field):
    return field.value if isinstance(field, Jet) else field


def flat_metric_matrix(p):
    """The flat model dr^2 + r^2 dtheta^2 + r^2(s^2 dt1^2 + c^2 dt2^2)."""
    r = np.asarray(p.r, dtype=float)
    s, c = np.sin(p.theta), np.cos(p.theta)
    diag = np.empty(np.broadcast(r, s).shape + (4,))
    diag[..., 0], diag[..., 1], diag[..., 2], diag[..., 3] = 1.0, r ** 2, (r * s) ** 2, (r * c) ** 2
    return diag[..., None] * np.eye(4)


def form2_norm(R, g):
    """Metric norm of an antisymmetric 2-form: sqrt(-tr(g^-1 R g^-1 R)/2)."""
    ginv = np.linalg.inv(g)
    return np.sqrt(np.maximum(-0.5 * (ginv @ R @ ginv @ R).trace(axis1=-2, axis2=-1), 0.0))


def scalar_curvature_generic(g: Jet) -> Residual:
    """Scalar curvature of a metric depending on its first two coordinates (the oracle).

    ``g`` is a second-order jet of the n x n metric in those coordinates,
    value shape S + (n, n).  Derivatives along the remaining coordinates
    are taken to vanish, so each derivative axis has length 2: d_e g and
    d_e Gamma for e < 2, d_e d_f g for e, f < 2.  The terms are the four
    Ricci terms' magnitudes, contracted with |g^-1|.  They leave out the
    roundoff that the jet of g carries from the frame's level sums, so
    eps times them is a lower bound on the value's roundoff.
    """
    metric = g.value
    n = metric.shape[-1]
    ginv = np.linalg.inv(metric)
    # derivs[..., k, e, :, :] is d_e g for k = 0 and d_{k-1} d_e g for k = 1, 2:
    # the jet's parts, gradient then Hessian rows, behind the batch axes.
    derivs = np.moveaxis(g.parts.reshape((3, 2) + metric.shape), (0, 1), (-4, -3))
    dg = derivs[..., 0, :, :, :]

    # term[..., k, d, bc] = (d_b g_dc + d_c g_db - d_d g_bc) / 2 and its derivatives,
    # with (b, c) as one axis.  Gamma^a_{bc} = g^{ad} term[d, bc] and, as
    # d_e g^-1 = -g^-1 (d_e g) g^-1, d_e Gamma = g^-1 (d_e term - (d_e g) Gamma).
    half = np.zeros(derivs.shape[:-3] + (n, n, n))
    half[..., :2, :] = derivs.swapaxes(-3, -2)
    term = half + half.swapaxes(-1, -2)
    term[..., :2, :, :] -= derivs
    term = 0.5 * term.reshape(term.shape[:-2] + (n * n,))
    gamma = ginv @ term[..., 0, :, :]
    dgamma = ginv[..., None, :, :] @ (term[..., 1:, :, :] - dg @ gamma[..., None, :, :])
    dgamma = dgamma.reshape(dg.shape + (n,))

    # R_{ns} = d_m Gamma^m_{ns} - d_n Gamma^m_{ms} + Gamma^m_{ml} Gamma^l_{ns}
    #          - Gamma^m_{nl} Gamma^l_{ms},
    # and swap[x, y, z] = Gamma^y_{xz} makes the last term one matrix product.
    swap = gamma.reshape(metric.shape + (n,)).swapaxes(-3, -2)
    # The four terms in order, the second only in the rows n < 2.
    divergence = dgamma[..., 0, 0, :, :] + dgamma[..., 1, 1, :, :]
    gradient = dgamma.trace(axis1=-3, axis2=-2)
    contracted = (swap.trace(axis1=-3, axis2=-2)[..., None, :] @ gamma).reshape(metric.shape)
    crossed = swap.reshape(metric.shape[:-1] + (n * n,)) @ swap.reshape(
        metric.shape[:-2] + (n * n, n))
    ric = contracted - crossed
    ric += divergence
    ric[..., :2, :] -= gradient
    terms = np.abs(divergence) + np.abs(contracted) + np.abs(crossed)
    terms[..., :2, :] += np.abs(gradient)
    # einsum sums in an order set by its operands' strides; C order fixes it.
    ginv = np.ascontiguousarray(ginv)
    return Residual(np.einsum("...ab,...ba->...", ginv, np.ascontiguousarray(ric)),
                    np.einsum("...ab,...ba->...", np.abs(ginv), terms))


def _einsum_curvature(jet):
    """The einsum contraction over zero-padded derivative axes (the oracle).

    Every derivative axis has length n, with d_e g = 0 for e >= 2, and
    numpy sums each index without a path.
    """
    g = jet.value
    n = g.shape[-1]
    batch = g.shape[:-2]
    ginv = np.linalg.inv(g)

    dg = np.zeros(batch + (n, n, n))
    dg[..., 0, :, :], dg[..., 1, :, :] = jet.grad
    d2g = np.zeros(batch + (n, n, n, n))
    for e in range(2):
        d2g[..., e, 0, :, :], d2g[..., e, 1, :, :] = hessian(jet)[e]

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


@pytest.mark.parametrize("call, message", [
    (lambda: PolarPoint(math.nan, 0.5), "need r > 0"),
    (lambda: PolarPoint(np.array([1.0, math.nan]), np.array([0.5, 0.5])), "need r > 0"),
    (lambda: PolarPoint(1.0, math.nan), "theta must lie in"),
    (lambda: PolarPoint(np.array([1.0, 2.0]), np.array([math.nan, 0.5])), "theta must lie in"),
    (lambda: v_eval(flat_monopole(), math.nan, 0.0), "need x > 0"),
    (lambda: v_eval(flat_monopole(), np.array([0.5, math.nan]), 0.0), "need x > 0"),
], ids=["r", "r-batch", "theta", "theta-batch", "x", "x-batch"])
def test_nan_coordinates_are_refused(call, message):
    # A NaN fails every comparison, so each check asks that all points pass.
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda bad: PolarPoint(bad, np.full(31, 0.5)), "need r > 0 at 2 of 31 points, first r=-1"),
    (lambda bad: PolarPoint(np.ones(31), bad - 0.5), "theta must lie in (0, pi/2) "
                                                     "at 2 of 31 points, first theta=-1.5"),
    (lambda bad: v_eval(flat_monopole(), bad, 0.0), "need x > 0 at 2 of 31 points, first x=-1"),
], ids=["r", "theta", "x"])
def test_batch_refusals_are_one_line(call, message):
    # A refusal names the count of bad points and the first, not the batch.
    bad = np.ones(31)
    bad[[4, 9]] = -1.0, math.nan
    with pytest.raises(ValueError) as refused:
        call(bad)
    assert str(refused.value) == message


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
        g, _, _ = assemble(metric_at(flat, pt))
        expected = flat_metric_matrix(pt)
        assert np.max(np.abs(g - expected)) < 1e-12 * max(1.0, expected.max())


def test_flat_model_deviation_is_the_4x4_comparison():
    # verify_metric compares the blocks with the flat model; over the 4 x 4
    # matrices the deviation has the same bits.
    pts = sample_batch(np.random.default_rng(12), 300, 0.2, 30.0)
    g, _, _ = assemble(metric_at(flat_monopole(), pts))
    expected = flat_metric_matrix(pts)
    dense = np.abs(g - expected).max(axis=(-2, -1)) / np.maximum(
        1.0, np.abs(expected).max(axis=(-2, -1)))
    assert flat_model_deviation(pts).tobytes() == dense.tobytes()


def test_metric_invariants():
    data = data_for(2, 5)
    for _ in range(50):
        pt = PolarPoint(float(RNG.uniform(0.8, 6.0)), float(RNG.uniform(0.1, math.pi / 2 - 0.1)))
        g, omega, J = assemble(metric_at(data, pt))
        scale = np.max(np.abs(g))
        assert np.max(np.abs(J @ J + np.eye(4))) < 1e-10
        assert np.max(np.abs(J.T @ g @ J - g)) < 1e-10 * scale
        assert np.max(np.abs(omega - J.T @ g)) < 1e-10 * scale
        assert np.linalg.eigvalsh(g).min() > 0
        # Kähler form has metric norm sqrt(2) in real dimension 4.
        assert abs(form2_norm(omega, g) - math.sqrt(2)) < 1e-9


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
    # invariant_residual reads only the blocks h, G, omega_block, J_upper
    # and J_lower.  The defects, as in the 4 x 4 matrices: all of omega,
    # all of J, omega's theta row and column, and J's t2 column.
    sample = invariant_batch(*pq)
    fields = {name: getattr(sample, name)
              for name in ("h", "G", "omega_block", "J_upper", "J_lower")}
    omega, U, L = fields["omega_block"], fields["J_upper"], fields["J_lower"]
    for bad in (
        dict(omega_block=omega * (1 + 1e-8)),
        dict(J_upper=U * (1 + 1e-8), J_lower=L * (1 + 1e-8)),
        dict(omega_block=omega + 1e-8 * omega * (np.arange(2) == 1)[:, None]),
        dict(J_upper=U + 1e-8 * U * (np.arange(2) == 1)),
    ):
        assert np.min(invariant_residual(SimpleNamespace(**{**fields, **bad}))) > TOL_INVARIANT


@pytest.mark.parametrize("pq", ((2, 5),) + ROUNDOFF_CHAINS)
def test_invariant_residual_has_the_bits_of_the_4x4_products(pq):
    # The block products sum the nonzero terms of the 4 x 4 products, and
    # the BLAS sums a zero term exactly, so each point's defect keeps its bits.
    sample = invariant_batch(*pq)
    g, omega, J = assemble(sample)
    Jt = J.swapaxes(-1, -2)
    Jtg, terms = Jt @ g, np.abs(Jt) @ np.abs(g)
    tiny = np.finfo(float).tiny
    worst = np.maximum(np.maximum(
        np.abs(J @ J + np.eye(4)).max(axis=(-2, -1)),
        (np.abs(Jtg @ J - g) / np.maximum(terms @ np.abs(J), tiny)).max(axis=(-2, -1))),
        (np.abs(omega - Jtg) / np.maximum(terms, tiny)).max(axis=(-2, -1)))
    assert np.linalg.eigvalsh(g).min() > 0
    assert invariant_residual(sample).tobytes() == worst.tobytes()


def test_monopole_system_per_basic_solution():
    for p, q in [(1, 2), (1, 3), (3, 5)]:
        data = data_for(p, q)
        for _ in range(10):
            x = float(RNG.uniform(0.1, 3.0))
            y = float(RNG.uniform(-2.0, 5.0))
            assert monopole_residual(data, x, y).value < 1e-8


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
            assert monopole_residual(data, x, y).value < 1e-9


def test_as_numeric_keeps_float_levels_finite():
    # Hand-built data may carry float levels; only y_0 = inf is infinite.
    from cscglue.logmass import MonopoleData

    exact = MonopoleData(levels=(Fraction(2), Fraction(0)), pairs=((3, -2), (1, 1)))
    floats = exact._replace(levels=(2.0, 0.0))
    for name in ("levels", "pairs", "v2_const"):
        assert np.array_equal(getattr(metricnum.as_numeric(floats), name),
                              getattr(metricnum.as_numeric(exact), name))


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


def _jet_cases(order):
    """(expression, value, gradient, Hessian) at (u0, u1): each jet operation
    against its closed-form derivatives, for jets and for arrays beside them."""
    u0, u1 = np.array([0.7, 1.3, 2.1]), np.array([0.4, -0.9, 1.6])
    a, b = Jet.variables(u0, u1, order)
    one, zero = np.ones(3), np.zeros(3)
    m, w = np.array([[1.5, -2.0], [0.5, 3.0]]), np.array([0.5, -3.0])
    return [
        (a + b, u0 + u1, [one, one], [[zero, zero], [zero, zero]]),
        (-(a * b) + 2.5, 2.5 - u0 * u1, [-u1, -u0], [[zero, -one], [-one, zero]]),
        (a * u1, u0 * u1, [u1, zero], [[zero, zero], [zero, zero]]),
        (a - b, u0 - u1, [one, -one], [[zero, zero], [zero, zero]]),
        (a / b, u0 / u1, [1 / u1, -u0 / u1 ** 2],
         [[zero, -1 / u1 ** 2], [-1 / u1 ** 2, 2 * u0 / u1 ** 3]]),
        (3.0 / a, 3 / u0, [-3 / u0 ** 2, zero], [[6 / u0 ** 3, zero], [zero, zero]]),
        (a ** -2.0, u0 ** -2.0, [-2 * u0 ** -3.0, zero], [[6 * u0 ** -4.0, zero], [zero, zero]]),
        (np.sqrt(a * a + b * b), np.hypot(u0, u1), [u0 / np.hypot(u0, u1), u1 / np.hypot(u0, u1)],
         [[u1 ** 2 / np.hypot(u0, u1) ** 3, -u0 * u1 / np.hypot(u0, u1) ** 3],
          [-u0 * u1 / np.hypot(u0, u1) ** 3, u0 ** 2 / np.hypot(u0, u1) ** 3]]),
        (np.sin(a * b), np.sin(u0 * u1), [u1 * np.cos(u0 * u1), u0 * np.cos(u0 * u1)],
         [[-u1 ** 2 * np.sin(u0 * u1), np.cos(u0 * u1) - u0 * u1 * np.sin(u0 * u1)],
          [np.cos(u0 * u1) - u0 * u1 * np.sin(u0 * u1), -u0 ** 2 * np.sin(u0 * u1)]]),
        (np.cos(2 * b), np.cos(2 * u1), [zero, -2 * np.sin(2 * u1)],
         [[zero, zero], [zero, -4 * np.cos(2 * u1)]]),
        (jet_exp(a - b), np.exp(u0 - u1), [np.exp(u0 - u1), -np.exp(u0 - u1)],
         [[np.exp(u0 - u1), -np.exp(u0 - u1)], [-np.exp(u0 - u1), np.exp(u0 - u1)]]),
        # A level axis: (S, 1) - (m,) widens the batch, then a matrix product.
        ((a[:, None] - np.array([0.0, 1.0])) @ m, (u0[:, None] - [0.0, 1.0]) @ m,
         [np.tile(m.sum(axis=0), (3, 1)), np.zeros((3, 2))], [[np.zeros((3, 2))] * 2] * 2),
        # Jet - jet, each one rounding: (S,) - (S,) with Hessians, and
        # (S, 1) - (S, m) across batch ranks.
        (a * b - b * b, u0 * u1 - u1 * u1, [u1, u0 - 2 * u1], [[zero, one], [one, -2 * one]]),
        (a[:, None] - b[:, None] * w, u0[:, None] - u1[:, None] * w,
         [np.ones((3, 2)), np.tile(-w, (3, 1))], [[np.zeros((3, 2))] * 2] * 2),
    ]


@pytest.mark.parametrize("order", [1, 2])
def test_jet_matches_closed_form_derivatives(order):
    for case, (jet, value, grad, hess) in enumerate(_jet_cases(order)):
        assert np.array_equal(jet.value, value), case  # the value part is the float operation
        expected = np.array(grad) if order == 1 else np.concatenate(
            [np.array(grad), np.array(hess).reshape((4,) + jet.shape)])
        assert jet.parts.shape == expected.shape, case
        _assert_close_relative(jet.parts, expected, 1e-14)


def test_jet_gradients_do_not_depend_on_the_order():
    for first, second in zip(_jet_cases(1), _jet_cases(2)):
        assert len(first[0].parts) == 2 and len(second[0].parts) == 6
        assert np.array_equal(first[0].grad, second[0].grad)


def test_second_derivatives_are_computed_at_order_2_only(monkeypatch):
    # phi'' of sqrt, sin, cos, 1/x and x^p is computed only where a Hessian
    # reads it: never in a first-order pass, once per operation at order 2.
    calls = []
    chain = Jet._chain

    def counting(self, value, d1, d2):
        def counted():
            calls.append(len(self.parts))
            return d2()
        return chain(self, value, d1, counted)

    monkeypatch.setattr(Jet, "_chain", counting)
    for order in (1, 2):
        a, b = Jet.variables(np.array([0.7, 1.3]), np.array([0.4, 0.9]), order)
        np.sqrt(a * a + b * b), np.sin(a), np.cos(b), 3.0 / a, a ** -2.0
    assert calls == [6] * 5
    calls.clear()
    verify_metric(4, 9)
    assert calls and set(calls) == {6}


def test_slices_take_only_the_parts_they_read():
    # verify_metric's slices of the shared pass find every field they read
    # already built; a slice takes a frame part (r, s, c, D, v) only when it
    # reads it, as potential_residual reads r, s and c.
    data = data_for(4, 9)
    shared = jet_sample(data, sample_batch(np.random.default_rng(2), 30, 1.0, 5.0))
    shared.omega_block, shared.J_lower, shared.J_upper
    shared.values().h, shared.values().G
    head, decay = shared[:20], shared[20:]
    invariant_residual(head.values())
    kahler_residual(head)
    potential_residual(data, decay)
    assert set(vars(decay._parts)) & set(metricnum._PARTS) == {"r", "s", "c"}
    for sample in (head, head.values(), decay.values()):
        assert not set(vars(sample._parts)) & set(metricnum._PARTS)
    assert decay._parts.r.value.tobytes() == shared._parts.r.value[20:].tobytes()


def test_a_sample_and_its_value_view_form_no_reference_cycle():
    # A sample refers to its value view and the view to the sample's parts,
    # not to the sample, so both are freed as soon as the last reference goes.
    import gc
    import weakref

    gc.disable()
    try:
        sample = jet_sample(data_for(4, 9), sample_batch(np.random.default_rng(2), 30, 1.0, 5.0))
        sample.values().h, sample[:10].values().G
        refs = [weakref.ref(sample), weakref.ref(sample.values()), weakref.ref(sample._parts)]
        del sample
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("pq", [(17, 21), (21, 22)])
def test_jets_match_central_differences_of_the_frame(pq):
    # An oracle independent of jets: extrapolated central differences of
    # the same evaluation code, which agree to their truncation error.
    data = data_for(*pq)
    pts = sample_batch(np.random.default_rng(4), 6, 1.0, 5.0)
    x, y = from_polar(pts)
    frame = v_eval(data, *Jet.variables(x, y))
    for k, (step_x, step_y) in enumerate(((1e-3 * x, 0.0), (0.0, 1e-3 * x))):
        for name in ("v1", "v2"):
            fd = central_diff(lambda t: getattr(v_eval(data, x + t * step_x, y + t * step_y), name),
                              0.0, 1.0) / (step_x + step_y)[:, None]
            _assert_close_relative(getattr(frame, name).grad[k], fd, 1e-8)
    sample = metric_at(data, PolarPoint(*Jet.variables(pts.r, pts.theta)))
    for k, (step_r, step_t) in enumerate(((1e-3 * pts.r, 0.0), (0.0, 1e-3))):
        for name in ("h", "G", "omega_block", "J_upper", "J_lower"):
            fd = central_diff(lambda t: getattr(metric_at(
                data, PolarPoint(pts.r + t * step_r, pts.theta + t * step_t)), name), 0.0, 1.0)
            step = np.reshape(step_r + step_t, (-1,) + (1,) * (fd.ndim - 1))
            _assert_close_relative(getattr(sample, name).grad[k], fd / step, 1e-7)


@pytest.mark.parametrize("pq", [(4, 9), (21, 22)])
def test_jet_values_have_the_bits_of_the_float_evaluation(pq):
    data = data_for(*pq)
    pts = sample_batch(np.random.default_rng(6), 12, 1.0, 5.0)
    x, y = from_polar(pts)
    for order in (1, 2):
        frame, jets = v_eval(data, x, y), v_eval(data, *Jet.variables(x, y, order))
        for name in ("v1", "v2", "det"):
            assert getattr(jets, name).value.tobytes() == getattr(frame, name).tobytes()
        plain = metric_at(data, pts)
        sample = metric_at(data, PolarPoint(*Jet.variables(pts.r, pts.theta, order)))
        for name in ("h", "G", "omega_block", "J_upper", "J_lower"):
            assert getattr(sample, name).value.tobytes() == getattr(plain, name).tobytes()
            assert getattr(sample.values(), name).tobytes() == getattr(plain, name).tobytes()


def test_curvature_positive_control():
    # Round 2-sphere times flat 2-torus: scalar curvature 2.
    a, b = Jet.variables(0.8, 0.3, order=2)
    g = jet_zeros(a, (4, 4))
    g.value[...] = np.eye(4)
    g[..., 1, 1] = np.sin(a) ** 2
    assert abs(scalar_curvature_generic(g).value - 2.0) < 1e-14


def test_curvature_flat_polar_control():
    # dr^2 + r^2 dtheta^2 + r^2 (s^2 dt1^2 + c^2 dt2^2), written out here.
    r, th = Jet.variables(1.5, 0.7, order=2)
    g = jet_zeros(r, (4, 4))
    g.value[..., 0, 0] = 1.0
    g[..., 1, 1] = r * r
    g[..., 2, 2] = (r * np.sin(th)) ** 2
    g[..., 3, 3] = (r * np.cos(th)) ** 2
    assert abs(scalar_curvature_generic(g).value) < 1e-14


def test_curvature_flat_data_near_float_floor():
    # The flat datum's curvature is roundoff alone: at most 1.3e-15 at these
    # points, below eps times its cancelling terms.
    flat = flat_monopole()
    for r, th in [(0.8, 0.5), (1.2, 0.785), (1.7, 1.05)]:
        s = scalar_curvature_at(flat, PolarPoint(r, th))
        assert abs(s.value) < 1e-13
        assert abs(s.value) < 100 * np.finfo(float).eps * s.terms


def test_curvature_generic_against_symbolic_oracle():
    """Frozen values from an independent symbolic computation.

    Oracle: sympy Christoffel/Ricci contraction for the metric

        [[1 + e^v/10, uv/20, 0, 0],
         [uv/20, 1 + u^2/5, 0, 0],
         [0, 0, 1 + u^2/3 + v^2/7, uv/9],
         [0, 0, uv/9, 2 + sin(u+v)/5]]

    evaluated exactly and rounded to 20 digits.  Exercises both
    derivative directions, the mixed partial, and off-diagonal blocks
    in one go; the jets are exact up to roundoff, so 1e-13 bounds them.
    """
    expected = {
        (0.7, 0.4): -0.86043286947471933346,
        (1.1, -0.3): -0.65382006381981941260,
        (0.2, 0.9): -0.98218496343148765680,
    }
    for (a, b), val in expected.items():
        got = scalar_curvature_generic(_oracle_metric(*Jet.variables(a, b, order=2)))
        assert abs(got.value - val) < 1e-13


@pytest.mark.parametrize("seed", [None, 0, 1, 2])
def test_curvature_matches_einsum_contraction(seed):
    # The oracle sums the same jet in another order, so the two differ by
    # roundoff alone.
    metric = _oracle_metric if seed is None else _polynomial_metric(seed)
    rng = np.random.default_rng(seed)
    g = metric(*Jet.variables(*rng.uniform(-0.5, 0.5, size=(2, 6)), order=2))
    assert np.linalg.eigvalsh(g.value).min() > 0
    _assert_close_relative(scalar_curvature_generic(g).value, _einsum_curvature(g), 1e-10)
    single = scalar_curvature_generic(metric(*Jet.variables(0.1, -0.2, order=2)))
    assert np.ndim(single.value) == np.ndim(single.terms) == 0


def test_scalar_flatness_sample():
    for p, q in [(1, 2), (3, 5)]:
        data = data_for(p, q)
        for _ in range(5):
            pt = PolarPoint(float(RNG.uniform(1.0, 5.0)), float(RNG.uniform(0.15, math.pi / 2 - 0.15)))
            assert abs(scalar_curvature_at(data, pt).value) < 1e-4


def test_kahler_residual_flat():
    flat = flat_monopole()
    res = kahler_residual(jet_sample(flat, PolarPoint(np.array([2.0, 0.9]), np.array([0.7, 0.4]))))
    assert res["max_domega"] < 1e-9
    assert res["max_dintegrability"] < 1e-9


def test_kahler_residual_at_roundoff_up_to_the_axes():
    # No step, so no margin from the axes: theta = 0.05 and pi/2 - 0.05 are
    # evaluated like any other point, and every residual is roundoff.
    data = data_for(1, 2)
    pts = PolarPoint(np.array([2.0, 1.3, 1.0, 3.0]), np.array([0.7, 0.5, 0.05, math.pi / 2 - 0.05]))
    res = kahler_residual(jet_sample(data, pts))
    assert res["max_domega"] < 1e-13
    assert res["max_dintegrability"] < 1e-13


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


def decay_residual(data, r):
    """The potential residual at radius r, worst over the thetas of its grid."""
    return potential_residual(data, jet_sample(data, potential_grid(r))).max()


def test_potential_residual_flat():
    flat = flat_monopole()
    for r in (5.0, 20.0, 100.0):
        assert decay_residual(flat, r) < 1e-9


def test_potential_residual_decay():
    data = data_for(1, 3)
    res = [decay_residual(data, r) for r in (10.0, 20.0, 40.0)]
    assert res[0] > res[1] > res[2]
    for a, b in zip(res, res[1:]):
        assert abs(b / a * 16.0 - 1.0) < 0.25


def dense_potential_residual(data, sample):
    """potential_residual with the norm of the 2-form taken on 4 x 4 matrices,
    sqrt(-tr(g^-1 R g^-1 R)/2) (the oracle of the block norm)."""
    data = metricnum.as_numeric(data)
    a, b, q = float(data.exact.a), float(data.exact.b), data.source.pq()[1]
    J, parts = sample.J_upper, sample._parts
    f_r = q * (parts.r / 2 + (a + b) / (2 * parts.r))
    f_th = -q * (a - b) * parts.s * parts.c / 2
    jdf = -(f_r[..., None] * J[..., 0, :] + f_th[..., None] * J[..., 1, :])
    g, R, _ = assemble(sample.values())
    R[..., :2, 2:] -= np.moveaxis(jdf.grad, 0, -2)
    R[..., 2:, :2] = -np.swapaxes(R[..., :2, 2:], -1, -2)
    return form2_norm(R, g)


@pytest.mark.parametrize("pq", [(1, 2), (4, 9), (21, 22), (161, 183)])
def test_potential_residual_is_the_4x4_form_norm(pq):
    # tr(h^-1 X G^-1 X^T) on the blocks against the 4 x 4 trace, at the
    # radii of the decay check and of the series: both read roundoff of
    # a sum of positive terms, so they agree far inside the decay tolerance.
    data = data_for(*pq)
    sample = jet_sample(data, potential_grid(np.geomspace(5.0, 160.0, 12)))
    got, want = potential_residual(data, sample), dense_potential_residual(data, sample)
    assert np.all(np.abs(got - want) <= 1e-9 * want)


def test_verify_metric_driver():
    rep = verify_metric(1, 2, samples=60, seed=3)
    assert rep.passed
    names = [c.name for c in rep.checks]
    assert "flat-model-exactness" in names
    assert "potential-decay" in names
    series = decay_series(rep)
    assert len(series) > 5
    rs = [r for r, _ in series]
    assert rs == sorted(rs)


def test_verify_metric_refuses_samples_below_one():
    for samples in (0, -1):
        with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
            verify_metric(1, 3, samples=samples)


@pytest.mark.parametrize("samples", [2.5, True, "10", None])
def test_verify_metric_refuses_non_integer_samples(samples):
    with pytest.raises(TypeError, match=f"samples must be an integer, got {samples!r}"):
        verify_metric(1, 3, samples=samples)


def test_verify_metric_refuses_seeds_numpy_would_misread():
    # numpy would take True as 1 and raise its own errors, naming no
    # argument, for the others; each is refused before numpy runs.
    for seed in (1.5, "7", True, None):
        with pytest.raises(TypeError, match=re.escape(f"seed must be an integer, got {seed!r}")):
            verify_metric(1, 3, seed=seed)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        verify_metric(1, 3, seed=-1)
    assert type(verify_metric(1, 2, samples=10, seed=np.int64(3)).seed) is int


def _count_frame_points(monkeypatch):
    seen = []

    def counting(data, x, y):
        frame = v_eval(data, x, y)
        seen.append(math.prod(frame.v1.shape[:-1]))
        return frame

    monkeypatch.setattr(metricnum, "v_eval", counting)
    return seen


def test_verify_metric_frame_point_count(monkeypatch):
    # The work of one default run, pinned: each pass evaluates the frame
    # once at each of its points, as jets where it differentiates, and the
    # decay check evaluates its three radii only.  The 200 flat-model and
    # 200 determinant samples, 50 monopole points, the shared first-order
    # pass over 100 invariant and Kähler points and the 3 x 7 decay grid,
    # 40 curvature points and the fit's 25 x 5 grid.
    seen = _count_frame_points(monkeypatch)
    verify_metric(4, 9)
    assert seen == [200, 200, 50, 100 + 21, 40, 125]
    assert sum(seen) == 736


def test_verify_metric_makes_three_jet_passes(monkeypatch):
    # One default run differentiates in three passes: (x, y) at order 1
    # for the monopole system, (r, theta) at order 1 for the invariants,
    # the Kähler residuals and the potential decay, and (r, theta) at
    # order 2 for the scalar curvature.
    seen = []
    variables = Jet.variables.__func__

    def counting(cls, u0, u1, order=1):
        seen.append((np.shape(u0), order))
        return variables(cls, u0, u1, order)

    monkeypatch.setattr(Jet, "variables", classmethod(counting))
    verify_metric(4, 9)
    n = metricnum.INVARIANT_POINTS + len(metricnum.DECAY_RADII) * 7
    assert seen == [((metricnum.MONOPOLE_POINTS,), 1), ((n,), 1),
                    ((metricnum.CURVATURE_POINTS,), 2)]


def test_verify_metric_builds_each_field_of_the_shared_pass_once(monkeypatch):
    # The metric-invariants, Kähler and potential-decay checks read slices
    # of one build of each field over the shared pass's points: the blocks
    # of omega and J as jets, h and G at the values.  Besides it, the flat
    # model builds h and G on its 200 points and the curvature their jets
    # on its 40.
    built = []

    def counting(name, build):
        def counted(sample):
            field = build(sample)
            built.append((name, len(field.value if isinstance(field, Jet) else field),
                          isinstance(field, Jet)))
            return field
        return counted

    for name in ("h", "G", "omega_block", "J_upper", "J_lower"):
        field = functools.cached_property(counting(name, getattr(MetricSample, name).func))
        field.__set_name__(MetricSample, name)
        monkeypatch.setattr(MetricSample, name, field)
    verify_metric(4, 9)
    n, m = metricnum.INVARIANT_POINTS + len(metricnum.DECAY_RADII) * 7, metricnum.CURVATURE_POINTS
    assert built == [("h", 200, False), ("G", 200, False), ("omega_block", n, True),
                     ("J_lower", n, True), ("J_upper", n, True), ("h", n, False), ("G", n, False),
                     ("h", m, True), ("G", m, True)]


def test_verify_metric_reads_no_determinant_in_the_monopole_pass(monkeypatch):
    # FrameData holds v_1 and v_2, and the determinant is computed when
    # read: once by each pass that needs it, never by the monopole system.
    assert FrameData._fields == ("v1", "v2")
    reads = []
    det = FrameData.det.fget

    def counting(frame):
        reads.append(math.prod(frame.v1.shape[:-1]))
        return det(frame)

    monkeypatch.setattr(FrameData, "det", property(counting))
    verify_metric(4, 9)
    n = metricnum.INVARIANT_POINTS + len(metricnum.DECAY_RADII) * 7
    assert reads == [200, 200, n, metricnum.CURVATURE_POINTS, 125]


def _separate_passes(p, q, samples, seed):
    """The metric-invariants, Kähler and potential-decay values of
    verify_metric, each from a pass of its own over its own points."""
    data = data_for(p, q)
    rng = np.random.default_rng(seed)
    sample_batch(rng, samples, 0.2, 30.0)  # the flat-model points are drawn first
    points = sample_batch(rng, samples, 1.0, 5.0)
    n = metricnum.INVARIANT_POINTS
    head = PolarPoint(points.r[:n], points.theta[:n])
    kahler = kahler_residual(jet_sample(data, head))
    grid = potential_grid(metricnum.DECAY_RADII)
    residuals = [float(x) for x in potential_residual(data, jet_sample(data, grid)).max(axis=-1)]
    return {"metric-invariants": float(invariant_residual(metric_at(data, head)).max()),
            "domega-residual": kahler["max_domega"],
            "integrability-residual": kahler["max_dintegrability"],
            "potential-decay": max(abs(b / a * 16.0 - 1.0) for a, b in zip(residuals, residuals[1:]))}


@pytest.mark.parametrize("samples, seed", [(200, 0), (17, 3)])
def test_shared_pass_matches_separate_passes(samples, seed):
    # The checks that read verify_metric's shared first-order pass, against
    # separate passes.  Below 16 levels they keep every bit; from 16 on,
    # OpenBLAS may sum the level charges of the longer batch in another
    # order, which moves only roundoff.
    bit_equal = 0
    for q in range(2, 41):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            checks = {c.name: c for c in verify_metric(p, q, samples=samples, seed=seed).checks}
            for name, want in _separate_passes(p, q, samples, seed).items():
                got = checks[name]
                if hj_length(p, q) + 2 < 16:
                    assert got.value == want, (p, q, name)
                    bit_equal += 1
                else:
                    assert abs(got.value - want) <= 1e-3 * got.tolerance, (p, q, name)
                assert got.passed == (want < got.tolerance), (p, q, name)
    assert bit_equal > 1000


@pytest.mark.parametrize("pq", [(4, 9), (21, 22)])
def test_roundoff_detail_is_eps_times_the_terms_at_the_worst_point(pq):
    # Each roundoff detail is eps times the magnitude of the terms that
    # cancel at the report's worst point, from the same pass as its value.
    p, q = pq
    report = verify_metric(p, q)
    checks = {c.name: c for c in report.checks}
    data = data_for(p, q)
    rng = np.random.default_rng(report.seed)
    sample_batch(rng, report.samples, 0.2, 30.0)  # the flat-model points are drawn first
    points = sample_batch(rng, report.samples, 1.0, 5.0)
    eps = np.finfo(float).eps

    n = metricnum.MONOPOLE_POINTS
    residual = monopole_residual(data, *from_polar(PolarPoint(points.r[:n], points.theta[:n])))
    i = int(residual.value.argmax())
    assert residual.value[i] == checks["monopole-system"].value
    assert checks["monopole-system"].detail == f"roundoff scale {eps * residual.terms[i]:.2e}"

    n = metricnum.CURVATURE_POINTS
    curvature = scalar_curvature_at(data, PolarPoint(points.r[:n], points.theta[:n]))
    i = int(np.abs(curvature.value).argmax())
    assert abs(curvature.value[i]) == checks["scalar-curvature"].value
    assert checks["scalar-curvature"].detail == f"roundoff scale {eps * curvature.terms[i]:.2e}"
    # The values are roundoff: within a few hundred times their scale.
    for name in ("monopole-system", "scalar-curvature"):
        scale = float(checks[name].detail.split()[-1])
        assert checks[name].value < 300 * scale


@pytest.mark.parametrize("p, q, levels", [(21, 22, None), (1, 2, [INF_LEVEL, 1, 0])])
def test_verify_metric_compares_no_fraction_with_a_float(p, q, levels, monkeypatch):
    # A level is a Fraction or y_0 = inf, told apart by type: a Fraction
    # compared with a float pays a Fraction.__eq__ call, once per level.
    seen = []
    equals = Fraction.__eq__

    def counting(self, other):
        if isinstance(other, float):
            seen.append(other)
        return equals(self, other)

    monkeypatch.setattr(Fraction, "__eq__", counting)
    verify_metric(p, q, levels=levels)
    assert seen == []


def test_verify_metric_numpy_helper_calls(monkeypatch):
    # The numpy helper calls of one warm default run, pinned: ndarray
    # methods, np.empty blocks and the constants built once, the decay grid
    # among them, leave none.
    verify_metric(4, 9)
    names = ("any", "broadcast_arrays", "stack", "geomspace", "linspace")
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(np, name, counting(name, getattr(np, name)))
    verify_metric(4, 9)
    assert calls == {"any": 0, "broadcast_arrays": 0, "stack": 0, "geomspace": 0, "linspace": 0}


def test_constants_are_built_once_and_read_only():
    first = verify_metric(4, 9)
    const = metricnum._constants()
    assert metricnum._constants() is const
    arrays = [value for value in vars(const).values() if isinstance(value, np.ndarray)]
    arrays += [const.flat.levels, const.flat.pairs, const.flat.v2_const, *const.decay_grid]
    assert len(arrays) == 8
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0
    assert verify_metric(4, 9) == first


@pytest.mark.parametrize("option, extra", [(None, 0), ("--csv", 12 * 7), ("--fit-csv", 25 * 5)])
def test_metric_verify_computes_a_series_only_when_asked(option, extra, monkeypatch, tmp_path,
                                                         capsys):
    # A default run evaluates 736 frame points (see
    # test_verify_metric_frame_point_count); --csv adds its own jet pass of
    # potential_residual at 12 radii and 7 thetas, --fit-csv the 25 x 5
    # grid of the asymptotic fit.
    seen = _count_frame_points(monkeypatch)
    argv = ["metric-verify", "4/9"] + ([option, str(tmp_path / "series.csv")] if option else [])
    assert cli.main(argv) == 0
    assert sum(seen) == 736 + extra


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


@pytest.mark.parametrize("pq", [(1, 2), (1, 3), (55, 89), (3, 2**52 + 1), (1, 2**53 - 1)])
def test_exact_a_is_negative_at_extreme_levels(pq):
    # Levels at the top of the range verify_metric accepts make c_k = 1/y_k
    # tiny; even there a stays below the bound of the proof in verify_metric,
    # -1/(FLOAT_MAX_INT (MAX_LEVELS - 1)), and has a nonzero float, so
    # potential-decay never sees flat data.
    p, q = pq
    k = hj_length(p, q)
    levels = [Fraction(FLOAT_MAX_INT - j) for j in range(k + 1)] + [Fraction(0)]
    exact = log_coeffs_from_levels(monopole_from_fraction(p, q, levels))
    assert exact.a <= Fraction(-1, FLOAT_MAX_INT * (MAX_LEVELS - 1))
    assert float(exact.a) < 0


def test_sample_batch_seeded():
    a = sample_batch(np.random.default_rng(5), 10, 1.0, 5.0)
    b = sample_batch(np.random.default_rng(5), 10, 1.0, 5.0)
    assert np.array_equal(a.r, b.r) and np.array_equal(a.theta, b.theta)


def _stacked_v_eval(data, x, y):
    """(v_1, v_2) as v_eval summed them before: both level weights stacked
    into one (S, 2, m) array and multiplied by the charges as S separate
    2 x m products.  Also returns the magnitudes of the summed terms."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    xs = x[..., None]
    dy = y[..., None] - data.levels
    f = np.sqrt(xs * xs + dy * dy)
    weights = np.stack([1 / f, dy / (2 * f)], axis=-2)
    sums = weights @ data.pairs
    terms = np.abs(weights) @ np.abs(data.pairs)
    half_x = (x / 2)[..., None]
    return (half_x * sums[..., 0, :], sums[..., 1, :] + data.v2_const,
            half_x * terms[..., 0, :], terms[..., 1, :] + np.abs(data.v2_const))


@pytest.mark.parametrize("infinite_level", [False, True])
def test_v_eval_matches_stacked_product(infinite_level):
    # The two 2-D products sum the same terms as the stacked product, in an
    # order the BLAS picks for each shape, so they agree to a few ulp of
    # the summed magnitudes at every level count the checks accept.
    eps = np.finfo(float).eps
    x, y = from_polar(sample_batch(np.random.default_rng(3), 450, 0.3, 30.0))
    for m in range(2, MAX_LEVELS + 1):
        k = m - 1 if infinite_level else m - 2
        if k == 0:
            continue
        levels = default_levels(k)
        data = metricnum.as_numeric(monopole_from_fraction(
            k, k + 1, (INF_LEVEL,) + levels[1:] if infinite_level else levels))
        assert len(data.levels) == m
        for xx, yy in ((x[0], y[0]), (x, y), (x.reshape(9, 50), y.reshape(9, 50))):
            frame = v_eval(data, xx, yy)
            v1, v2, terms1, terms2 = _stacked_v_eval(data, xx, yy)
            assert frame.v1.shape == v1.shape and frame.v2.shape == v2.shape
            assert np.all(np.abs(frame.v1 - v1) <= 4 * eps * terms1), (m, np.shape(xx))
            assert np.all(np.abs(frame.v2 - v2) <= 4 * eps * terms2), (m, np.shape(xx))


def dense_fields(data, p):
    """g, omega and J as 4 x 4 matrices written out from the frame, in the
    closed forms of the metricnum docstring, each entry in the evaluation
    order of the blocks."""
    r, s, c = np.asarray(p.r, dtype=float), np.sin(p.theta), np.cos(p.theta)
    frame = v_eval(data, *from_polar(p))
    (v1x, v1y), (v2x, v2y), D = np.moveaxis(frame.v1, -1, 0), np.moveaxis(frame.v2, -1, 0), frame.det
    rr, sc, rsc = r * r, s * c, r * s * c
    factor = rr * s * c / D
    g, omega, J = (np.zeros(D.shape + (4, 4)) for _ in range(3))
    g[..., 0, 0], g[..., 1, 1] = D / sc, rr * D / sc
    g[..., 2, 2], g[..., 3, 3] = factor * (v1y ** 2 + v2y ** 2), factor * (v1x ** 2 + v2x ** 2)
    g[..., 2, 3] = g[..., 3, 2] = -factor * (v1x * v1y + v2x * v2y)
    omega[..., 0, 2], omega[..., 0, 3] = -r * v2y, r * v2x
    omega[..., 1, 2], omega[..., 1, 3] = rr * v1y, -rr * v1x
    omega -= omega.swapaxes(-1, -2)
    J[..., 0, 2], J[..., 0, 3] = rsc * v2y / D, -(rsc * v2x / D)
    J[..., 1, 2], J[..., 1, 3] = -(sc * v1y / D), sc * v1x / D
    J[..., 2, 0], J[..., 2, 1], J[..., 3, 0], J[..., 3, 1] = (
        -v1x / rsc, -v2x / sc, -v1y / rsc, -v2y / sc)
    return g, omega, J


def test_blocks_are_the_slices_of_omega_and_J():
    # The blocks of a sample, zero-padded to 4 x 4, are g, omega and J
    # written out from the frame, bit for bit, at a batch and at one point.
    batch = sample_batch(np.random.default_rng(9), 12, 0.5, 20.0)
    for data in (data_for(17, 21), flat_monopole()):
        for p in (batch, PolarPoint(float(batch.r[5]), float(batch.theta[5]))):
            sample = metric_at(data, p)
            for name, shape in (("h", (2,)), ("G", (2, 2)), ("omega_block", (2, 2)),
                                ("J_upper", (2, 2)), ("J_lower", (2, 2))):
                assert getattr(sample, name).shape == np.shape(p.r) + shape
            for block, whole in zip(assemble(sample), dense_fields(data, p)):
                assert block.tobytes() == whole.tobytes()


def test_det_G_is_the_square_of_r2_s_c():
    # det G = (r^2 s c)^2 for this ansatz (Lagrange's identity on v_1, v_2).
    # The curvature takes det G from the jets of G and not from this
    # identity, which would hide a fault in G; here it is pinned.
    for p, q in [(1, 2), (4, 9), (21, 22)]:
        pts = sample_batch(np.random.default_rng(q), 50, 0.5, 20.0)
        G = metric_at(data_for(p, q), pts).G
        det = G[..., 0, 0] * G[..., 1, 1] - G[..., 0, 1] * G[..., 1, 0]
        expected = (pts.r ** 2 * np.sin(pts.theta) * np.cos(pts.theta)) ** 2
        cancellation = (np.abs(G[..., 0, 0] * G[..., 1, 1]) + G[..., 0, 1] ** 2) / expected
        assert np.all(np.abs(det - expected) <= 1e-12 * cancellation * expected), (p, q)


@pytest.mark.parametrize("layout", ["broadcast", "fortran"])
def test_curvature_contraction_ignores_the_layout_of_ginv(layout, monkeypatch):
    # The oracle's einsum sums in an order set by its operands' strides.
    # The same inverse metric as a stride-0 view or in Fortran order gives
    # the same bits.  The two rows of the batch are equal, so the view is exact.
    data = data_for(4, 9)
    batch = sample_batch(np.random.default_rng(3), 20, 1.0, 5.0)
    pts = PolarPoint(np.tile(batch.r, (2, 1)), np.tile(batch.theta, (2, 1)))
    g, _, _ = assemble(jet_sample(data, pts, order=2))
    expected = scalar_curvature_generic(g)
    inv = np.linalg.inv
    relaid = {"broadcast": lambda g: np.broadcast_to(inv(g[:1]), g.shape),
              "fortran": lambda g: np.asfortranarray(inv(g))}[layout]
    monkeypatch.setattr(np.linalg, "inv", relaid)
    got = scalar_curvature_generic(g)
    assert got.value.tobytes() == expected.value.tobytes()
    assert got.terms.tobytes() == expected.terms.tobytes()


def _scaled(field, entries, eps):
    """MetricSample.<field> with each of its ``entries`` times 1 + eps r^2."""
    build = getattr(MetricSample, field).func

    def scaled(sample):
        block, factor = build(sample), sample._parts.r * sample._parts.r * eps + 1
        for entry in entries:
            block[(Ellipsis,) + entry] = block[(Ellipsis,) + entry] * factor
        return block

    return property(scaled)


ORACLE_MUTANTS = {"G_11": ("G", [(0, 0)]), "G_12": ("G", [(0, 1), (1, 0)]),
                  "h_thetatheta": ("h", [(1,)])}


@pytest.mark.parametrize("pq", [(1, 2), (4, 9), (21, 22)])
@pytest.mark.parametrize("eps", [1e-2, 1e-6])
@pytest.mark.parametrize("mutant", sorted(ORACLE_MUTANTS))
def test_curvature_matches_the_generic_oracle_off_scalar_flatness(pq, eps, mutant, monkeypatch):
    # O'Neill's formula on the blocks against the generic contraction on the
    # 4 x 4 assembly of the same jets, on metrics that are not scalar-flat:
    # one entry of G or h times 1 + eps r^2.  They differ by roundoff alone,
    # within eps times the two roundoff scales, far below the curvature.
    field, entries = ORACLE_MUTANTS[mutant]
    monkeypatch.setattr(MetricSample, field, _scaled(field, entries, eps))
    data = data_for(*pq)
    pts = sample_batch(np.random.default_rng(1), 40, 1.0, 5.0)
    got = scalar_curvature_at(data, pts)
    want = scalar_curvature_generic(assemble(jet_sample(data, pts, order=2))[0])
    bound = 2 * np.finfo(float).eps * (got.terms + want.terms)
    assert np.all(np.abs(got.value - want.value) <= bound)
    assert np.all(np.abs(want.value) > 100 * bound)


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
        for name in ("h", "G", "omega_block", "J_upper", "J_lower"):
            _assert_close_relative(getattr(samples, name)[i], getattr(sample, name))

    a = np.array([0.7, 1.1, 0.2, 0.45])
    b = np.array([0.4, -0.3, 0.9, 0.1])
    values = scalar_curvature_generic(_oracle_metric(*Jet.variables(a, b, order=2))).value
    assert values.shape == a.shape
    for i in range(len(a)):
        single = scalar_curvature_generic(_oracle_metric(*Jet.variables(a[i], b[i], order=2)))
        _assert_close_relative(values[i], single.value)
    # The batched oracle metric reproduces the frozen symbolic value.
    assert abs(values[0] - -0.86043286947471933346) < 1e-13


@pytest.mark.parametrize("value", [True, 1.0, "1", None])
@pytest.mark.parametrize("field", ["p", "q"])
def test_verify_metric_refuses_non_integer_p_and_q(field, value):
    # Each is refused by name before any check runs; numpy would take True
    # as 1, and 1.0 ended in range()'s own message, which names no argument.
    args = {"p": 1, "q": 3, field: value}
    with pytest.raises(TypeError, match=re.escape(f"{field} must be an integer, got {value!r}")):
        verify_metric(args["p"], args["q"], samples=5)


def test_verify_metric_takes_numpy_integer_p_and_q():
    report = verify_metric(np.int64(1), np.int64(2), samples=10)
    assert type(report.p) is int and type(report.q) is int
    assert report == verify_metric(1, 2, samples=10)


@pytest.mark.parametrize("pq", [(2, 5), (4, 9), (21, 22), (1, 2)])
@pytest.mark.parametrize("infinite", [False, True])
@pytest.mark.parametrize("scale", [Fraction(4), Fraction(1024), Fraction(1, 64)])
def test_v_eval_is_invariant_under_a_power_of_two_level_dilation(pq, infinite, scale):
    # (x, y, levels) -> scale (x, y, levels) leaves the frame unchanged: the
    # charges do not depend on the levels, and each basic solution is
    # homogeneous of degree 0.  A power of 2 multiplies every float exactly,
    # so the bits are kept, with y_0 finite or infinite.
    p, q = pq
    levels = default_levels(hj_length(p, q))
    if infinite:
        levels = (INF_LEVEL,) + levels[1:]
    scaled = tuple(y if y == INF_LEVEL else scale * y for y in levels)
    data = monopole_from_fraction(p, q, levels)
    dilated = monopole_from_fraction(p, q, scaled)
    x, y = from_polar(sample_batch(np.random.default_rng(11), 40, 0.3, 30.0))
    frame, moved = v_eval(data, x, y), v_eval(dilated, float(scale) * x, float(scale) * y)
    for name in ("v1", "v2", "det"):
        assert getattr(moved, name).tobytes() == getattr(frame, name).tobytes()


@pytest.mark.parametrize("argv", [["1/10001"], ["2/10001"], ["1/10001", "--samples", "200", "--seed", "7"]])
def test_metric_verify_passes_with_charges_near_ten_thousand(argv, capsys):
    # The charges grow like q.  The differenced monopole system read 5.95e-8,
    # 5.92e-8 and 1.425e-7 here, above its 1e-8 tolerance; the jets read
    # roundoff, about 2e-11.
    assert cli.main(["metric-verify", *argv, "--json"]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["monopole-system"]["value"] < 1e-10
