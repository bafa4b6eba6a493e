"""Numerical evaluation and verification of the torus-symmetric ansatz.

The metrics live on the half-space H = {x > 0, y} times a 2-torus.  A
pair of R^2-valued functions (v_1, v_2) solving the linear system

    d(v_1)/dy = d(v_2)/dx,      x d(v_1)/dx + x d(v_2)/dy = v_1

determines, wherever the determinant <v_1, v_2> is positive, the metric

    g = (x <v_1,v_2> / (2(x^2+y^2))) ((dx^2+dy^2)/x^2
        + (<v_1,dt>^2 + <v_2,dt>^2)/<v_1,v_2>^2),

which is scalar-flat and Kähler for the complex structure

    J dr = r s c <v_2, dt>/<v_1,v_2>,   J dtheta = -s c <v_1, dt>/<v_1,v_2>,
    J dt = (v_1 dr + v_2 r dtheta)/(r s c),

in the polar coordinates x = r^-2 sin 2theta, y = r^-2 cos 2theta
(s = sin theta, c = cos theta), with Kähler form

    omega = r dr ^ <v_2, dt> - r^2 dtheta ^ <v_1, dt>.

Here <v, w> is the 2x2 determinant pairing, so <v, dt> is the 1-form
v_x dt_2 - v_y dt_1.  The monopole data of :mod:`cscglue.logmass`
provides (v_1, v_2) as finite sums of basic solutions

    ( x / sqrt(x^2 + (y - a)^2),  (y - a) / sqrt(x^2 + (y - a)^2) ),

from which g, omega and J are evaluated in closed form.  Finite
differences (one scheme, :func:`stencil`) enter only where the
verification must be independent of the identities being verified: the
monopole system itself, the closedness of omega and of the (1,0)-forms,
the scalar curvature, and the comparison of omega against the exterior
derivative of the asymptotic potential

    f/q = r^2/4 + ((a+b)/2) log r + ((a-b)/4) cos^2 theta,

for which omega - d(J df) decays at the metric-norm rate r^-4.  (The
cos^2 coefficient must be (a-b)/4: the angular term satisfies
d(J d(q cos^2 theta)) = 4 s c (c^2 - s^2) dtheta ^ (dphi - dpsi) + ...,
and matching the r^-2 part of omega fixes the quarter.  The log
coefficient, which carries the mass, is (a+b)/2 regardless.)

Conventions.  Tensors are returned in the coordinate basis
(r, theta, t_1, t_2).  ``MetricSample.J`` acts on tangent vectors, with
omega(X, Y) = g(JX, Y).  The flat model (the k = 0, y_0 = infinity
datum) equals dr^2 + r^2 dtheta^2 + r^2 (s^2 dt_1^2 + c^2 dt_2^2); the
identification with linear coordinates on C^2 is t_1 = -psi, t_2 = phi
for z_1 = r cos(theta) e^{i phi}, z_2 = r sin(theta) e^{i psi}.

All sampling keeps theta in [0.1, pi/2 - 0.1]; the blown-down circles at
the boundary are outside numerical scope.

Batching.  Every evaluator works on arrays of points.  A ``PolarPoint``
whose fields are arrays of one shape S is a batch, as are arrays (x, y)
of shape S, and results gain the leading axes S: ``FrameData.v1`` has
shape S + (2,), ``MetricSample.g`` has shape S + (4, 4).  A single point
is the batch with S = (), through the same code.  :func:`as_numeric`
converts the exact monopole data to float arrays; each function accepts
either form, and :func:`verify_metric` converts once and passes the
arrays on.  A finite-difference check evaluates its function once for
the whole stencil (:func:`stencil`): the centre and every displaced
point at both steps, h and h/2, are stacked along a new leading axis,
with one step per point.  So a function handed to a check, such as the
``metric_fn`` of :func:`scalar_curvature_generic`, must accept arrays
with extra leading axes and return values with those axes in front.

Steps.  Every check differences with one scheme: central differences
at h and h/2, extrapolated once to (4 D(h/2) - D(h))/3.  It has truncation
error of order h^4 and roundoff error of order eps/h for a first and
eps/h^2 for a second derivative (eps = 2.2e-16, h measured against the
length on which the function varies).  The total is least where the two
balance, near h = eps^(1/5) ~ 7e-4 and eps^(1/6) ~ 2.5e-3 of that
length; below it the result is roundoff, not a property of the metric.
The steps of the monopole-system check (``H_MONOPOLE`` times x, a lower
bound for the distance to the nearest pole) and of the scalar curvature
(``H_CURVATURE``, relative in r and absolute in theta) sit at the
measured minimum of their worst value over every coprime p < q <= 25.
Both checks report, as an error estimate, how much their value at the
worst point moves when the step is halved.
"""


from __future__ import annotations

import importlib.util
import math
import sys
import types
from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from cscglue.cfrac import hj_length
from cscglue.logmass import (
    INFINITY,
    LogCoefficients,
    flat_monopole,
    log_coeffs_from_levels,
    monopole_from_fraction,
    verdict_from_coeffs,
)
from cscglue.parabolic import integer_field


def _lazy_numpy():
    """numpy as it is if already imported, else a module that loads on first use.

    The lazy-import recipe of the importlib documentation: numpy runs when
    code first reads an attribute of the module, which then becomes an
    ordinary module, so ``import cscglue.cli`` and the exact commands never
    pay for it.  ``LazyLoader`` is not thread-safe before Python 3.12; the
    CLI and the checks are single-threaded.
    """
    if sys.modules.get("numpy") is not None:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:  # not installed, or sys.modules["numpy"] is None: fail on first use
        return _MissingNumpy("numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


class _MissingNumpy(types.ModuleType):
    def __getattr__(self, name):
        raise ModuleNotFoundError("the metric checks need numpy, which is not installed",
                                  name="numpy")


np = _lazy_numpy()

THETA_MARGIN = 0.1

TOL_CLOSED_FORM = 1e-12
TOL_INVARIANT = 1e-10
TOL_FIRST_DERIV = 1e-6
TOL_CURVATURE = 1e-4
TOL_FIT_RELATIVE = 0.01

# Finite-difference steps at the roundoff/truncation balance (module
# docstring): relative to x for the monopole system, relative in r and
# absolute in theta for the scalar curvature.
H_MONOPOLE = 1e-3
H_CURVATURE = 1e-2

# Input bounds of verify_metric.  Batches hold samples x levels values
# per array, and every HJ digit of p/q adds a level.
MAX_SAMPLES = 10_000
MAX_LEVELS = 64
# The charges (a_j, b_j) grow like q and are converted to floats, as are
# the finite levels and the exact (a, b, mu).
MAX_Q = 2**53
FLOAT_MAX = sys.float_info.max
# The same bound as an int: a Fraction compares with it exactly, where a
# comparison with the float first converts it to a 309-digit Fraction.
FLOAT_MAX_INT = int(FLOAT_MAX)

# Sample points of verify_metric's scalar-curvature check.
CURVATURE_POINTS = 40


class PolarPoint(namedtuple("PolarPoint", "r theta")):
    """A point in polar coordinates, or a batch of them when the fields are arrays.

    r > 0 and 0 < theta < pi/2 are checked when it is built.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, r, theta):
        if np.any(np.asarray(r) <= 0):
            raise ValueError(f"need r > 0, got r={r}")
        angles = np.asarray(theta)
        if np.any((angles <= 0) | (angles >= math.pi / 2)):
            raise ValueError(f"theta must lie in (0, pi/2), got {theta}")
        return super().__new__(cls, r, theta)


class FrameData(namedtuple("FrameData", "v1 v2 det")):
    """(v_1, v_2) and their determinant; leading axes are the batch axes.

    ``v1`` and ``v2`` have shape S + (2,), ``det`` shape S.
    """

    __slots__ = ()


class MetricSample(namedtuple("MetricSample", "g omega J")):
    """g, omega and J at a point or batch, in the (r, theta, t1, t2) basis.

    Each field has shape S + (4, 4).
    """

    __slots__ = ()


class NumericMonopole(namedtuple("NumericMonopole", "source levels pairs v2_const")):
    """Float arrays of :class:`MonopoleData`, converted once.

    ``levels`` (shape (m,)) and ``pairs`` (shape (m, 2)) hold the finite
    levels and their charges; ``v2_const`` (shape (2,)) is the constant
    an infinite level adds to v_2.  ``exact`` is cached in an instance
    ``__dict__``, so ``__setattr__`` refuses.
    """

    @cached_property
    def exact(self) -> LogCoefficients:
        """Exact (a, b, mu) of the source data."""
        return log_coeffs_from_levels(self.source)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: NumericMonopole is immutable")


def as_numeric(data) -> NumericMonopole:
    """Float form of monopole data; returns converted data unchanged."""
    if isinstance(data, NumericMonopole):
        return data
    finite = [y != INFINITY for y in data.levels]
    pairs = np.array(data.pairs, dtype=float).reshape(-1, 2)
    return NumericMonopole(
        source=data,
        levels=np.array([float(y) for y, fin in zip(data.levels, finite) if fin]),
        pairs=pairs[finite],
        v2_const=-0.5 * pairs[[not fin for fin in finite]].sum(axis=0),
    )


def from_polar(p: PolarPoint):
    """Half-space coordinates (x, y) = r^-2 (sin 2theta, cos 2theta)."""
    rho = np.asarray(p.r, dtype=float) ** -2.0
    return rho * np.sin(2 * p.theta), rho * np.cos(2 * p.theta)


def v_eval(data, x, y) -> FrameData:
    """Evaluate (v_1, v_2) and their determinant at points (x, y).

    ``x`` and ``y`` broadcast to the batch shape S.  An infinite level
    contributes zero to v_1 and the constant -(a_0, b_0)/2 to v_2 (the
    limit of the finite formula).
    """
    data = as_numeric(data)
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    if np.any(x <= 0):
        raise ValueError(f"need x > 0, got {x}")
    xs = x[..., None]
    dy = y[..., None] - data.levels
    f = np.sqrt(xs * xs + dy * dy)
    # Rows: the level weights of v_1 / (x/2) and of v_2, summed against
    # the charges.
    sums = np.stack([1 / f, dy / (2 * f)], axis=-2) @ data.pairs

    v1 = (x / 2)[..., None] * sums[..., 0, :]
    v2 = sums[..., 1, :] + data.v2_const
    det = v1[..., 0] * v2[..., 1] - v1[..., 1] * v2[..., 0]
    return FrameData(v1=v1, v2=v2, det=det)


def metric_at(data, p: PolarPoint) -> MetricSample:
    """Metric, Kähler form and complex structure at a point or batch.

    Raises
    ------
    ValueError
        If the determinant <v_1, v_2> is not positive at some point.
    """
    data = as_numeric(data)
    s, c = np.sin(p.theta), np.cos(p.theta)
    frame = v_eval(data, *from_polar(p))
    D = frame.det
    if np.any(D <= 0):
        i = np.unravel_index(np.argmax(D <= 0), D.shape)
        r0, t0 = (float(np.broadcast_to(v, D.shape)[i]) for v in (p.r, p.theta))
        raise ValueError(f"invalid monopole data: determinant <= 0 at {np.sum(D <= 0)} of "
                         f"{D.size} points, min {np.min(D):.6g}, first r={r0:.6g} theta={t0:.6g}")
    r = np.asarray(p.r, dtype=float)
    v1x, v1y = frame.v1[..., 0], frame.v1[..., 1]
    v2x, v2y = frame.v2[..., 0], frame.v2[..., 1]
    shape = D.shape + (4, 4)

    g = np.zeros(shape)
    g[..., 0, 0] = D / (s * c)
    g[..., 1, 1] = r * r * D / (s * c)
    factor = r * r * s * c / D
    g[..., 2, 2] = factor * (v1y ** 2 + v2y ** 2)
    g[..., 3, 3] = factor * (v1x ** 2 + v2x ** 2)
    g[..., 2, 3] = g[..., 3, 2] = -factor * (v1x * v1y + v2x * v2y)

    omega = np.zeros(shape)
    omega[..., 0, 2] = -r * v2y
    omega[..., 0, 3] = r * v2x
    omega[..., 1, 2] = r * r * v1y
    omega[..., 1, 3] = -r * r * v1x
    omega -= _transpose(omega)

    # Cotangent action: columns give the image of each basis 1-form.
    C = np.zeros(shape)
    C[..., 2, 0] = -r * s * c * v2y / D
    C[..., 3, 0] = r * s * c * v2x / D
    C[..., 2, 1] = s * c * v1y / D
    C[..., 3, 1] = -s * c * v1x / D
    C[..., 0, 2] = v1x / (r * s * c)
    C[..., 1, 2] = v2x / (s * c)
    C[..., 0, 3] = v1y / (r * s * c)
    C[..., 1, 3] = v2y / (s * c)
    J = -_transpose(C)  # tangent action with omega(X, Y) = g(JX, Y)

    return MetricSample(g=g, omega=omega, J=J)


def flat_metric_matrix(p: PolarPoint) -> np.ndarray:
    """The flat model dr^2 + r^2 dtheta^2 + r^2(s^2 dt1^2 + c^2 dt2^2)."""
    r = np.asarray(p.r, dtype=float)
    s, c = np.sin(p.theta), np.cos(p.theta)
    diag = np.stack(np.broadcast_arrays(1.0, r ** 2, (r * s) ** 2, (r * c) ** 2), axis=-1)
    return diag[..., None] * np.eye(4)


def _transpose(m):
    return np.swapaxes(m, -1, -2)


# ---------------------------------------------------------------------------
# finite differences
#
# ``u0``, ``u1`` and the steps are scalars or arrays broadcasting to the
# batch shape S.  A stencil is one call of ``fn`` at all its points,
# stacked along a new leading axis of length K, so ``fn`` maps arrays of
# shape (K,) + S to values of shape (K,) + S + T.


# Displacements of a stencil's points from the centre, in units of the
# step; the last four, the corners, serve the mixed derivative only.
_OFFSETS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))


def stencil(fn, u0, u1, h0, h1, second: bool = False) -> dict:
    """Central differences of ``fn`` in both coordinates from one call.

    Every difference is taken at the steps (h0, h1) and (h0/2, h1/2) and
    extrapolated once, (4 fine - coarse)/3, which cancels the h^2 term
    of its error.  The points are the centre and, at each step, u0 +- h0
    and u1 +- h1; ``second`` adds the four corners (u0 +- h0, u1 +- h1).
    Returns the centre value "f" and the derivatives "d0" and "d1", and
    with ``second`` also "d00", "d11" and "d01", each of shape S + T.
    """
    u0, u1, h0, h1 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (u0, u1, h0, h1)))
    steps = ((h0, h1), (h0 / 2, h1 / 2))
    signs = _OFFSETS[: 8 if second else 4]
    values = fn(np.stack([u0] + [u0 + s0 * a0 for a0, _ in steps for s0, _ in signs]),
                np.stack([u1] + [u1 + s1 * a1 for _, a1 in steps for _, s1 in signs]))
    f0 = values[0]
    at_step = values[1:].reshape((2, len(signs)) + f0.shape)
    per_point = u0.shape + (1,) * (f0.ndim - u0.ndim)  # a step over the trailing axes

    def extrapolate(diff, step):
        """diff(values) / step(steps) at both steps, extrapolated to h = 0."""
        coarse, fine = (diff(f) / step(*a).reshape(per_point) for f, a in zip(at_step, steps))
        return (4.0 * fine - coarse) / 3.0

    out = {"f": f0,
           "d0": extrapolate(lambda f: f[0] - f[1], lambda a0, a1: 2 * a0),
           "d1": extrapolate(lambda f: f[2] - f[3], lambda a0, a1: 2 * a1)}
    if second:
        out["d00"] = extrapolate(lambda f: f[0] - 2 * f0 + f[1], lambda a0, a1: a0 * a0)
        out["d11"] = extrapolate(lambda f: f[2] - 2 * f0 + f[3], lambda a0, a1: a1 * a1)
        out["d01"] = extrapolate(lambda f: f[4] - f[5] - f[6] + f[7], lambda a0, a1: 4 * a0 * a1)
    return out


# ---------------------------------------------------------------------------
# verification checks


def _v_rows(data, x, y):
    """(v_1, v_2) stacked as rows, shape S + (2, 2)."""
    frame = v_eval(data, x, y)
    return np.stack([frame.v1, frame.v2], axis=-2)


def monopole_residual(data, x, y, h=1e-3):
    """Finite-difference residual of the defining linear system at (x, y).

    Checks d(v_1)/dy - d(v_2)/dx and x d(v_1)/dx + x d(v_2)/dy - v_1
    with central differences of :func:`v_eval`.  Returns the largest
    component per point.
    """
    data = as_numeric(data)
    st = stencil(lambda xx, yy: _v_rows(data, xx, yy), x, y, h, h)
    dx, dy, v1 = st["d0"], st["d1"], st["f"][..., 0, :]
    xs = np.asarray(x, dtype=float)[..., None]
    res1 = dy[..., 0, :] - dx[..., 1, :]
    res2 = xs * dx[..., 0, :] + xs * dy[..., 1, :] - v1
    return np.maximum(np.abs(res1).max(axis=-1), np.abs(res2).max(axis=-1))


def kahler_residual(data, p: PolarPoint, h: float = 1e-3) -> dict:
    """Maximum relative FD residual of d(omega) = 0 and d(J dt) = 0.

    omega has components only in dr^dt_i and dtheta^dt_i depending on
    (r, theta), so d(omega) reduces to dr(omega_{theta t_i}) -
    dtheta(omega_{r t_i}); similarly d(J dt_i) reduces to one dr^dtheta
    coefficient per i.  Residuals are normalised by the magnitudes of
    the cancelling terms, worst over the points of ``p``.

    Raises
    ------
    ValueError
        If a step would leave the valid theta range for some point.
    """
    data = as_numeric(data)
    r, theta = np.asarray(p.r, dtype=float), np.asarray(p.theta, dtype=float)
    bad = (theta <= h) | (theta >= math.pi / 2 - h)
    if np.any(bad):
        raise ValueError(f"step {h} too large for theta={theta[bad][0]}")

    def fields(rr, th):
        """omega_{r t_i}, omega_{theta t_i}, (J dt_i)_r, (J dt_i)_theta."""
        sample = metric_at(data, PolarPoint(rr, th))
        J = sample.J
        return np.stack([sample.omega[..., 0, 2:], sample.omega[..., 1, 2:],
                         -J[..., 2:, 0], -J[..., 2:, 1]], axis=-2)

    st = stencil(fields, r, theta, h * np.maximum(r, 1.0), h)
    d_r, d_th, f0 = st["d0"], st["d1"], st["f"]

    def worst(dr_of, dth_of):
        # Normalise by the cancelling terms, falling back to the field
        # magnitudes when both derivatives vanish identically (as they
        # do for the flat datum).
        t1, t2 = d_r[..., dr_of, :], d_th[..., dth_of, :]
        scale = np.max([np.abs(t1) + np.abs(t2), np.abs(f0[..., dr_of, :]),
                        np.abs(f0[..., dth_of, :])], axis=0)
        return float(np.max(np.abs(t1 - t2) / np.maximum(scale, 1e-12)))

    return {"max_domega": worst(1, 0), "max_dintegrability": worst(3, 2)}


def scalar_curvature_at(data, p: PolarPoint, h_scale=H_CURVATURE):
    """Scalar curvature from second differences of the metric.

    The metric depends only on (r, theta); the torus directions are
    Killing, so all derivatives are taken in the first two coordinates.
    One value per point of ``p``; ``h_scale`` may also be one per point.
    """
    data = as_numeric(data)
    fn = lambda r, theta: metric_at(data, PolarPoint(r, theta)).g
    r = np.asarray(p.r, dtype=float)
    return scalar_curvature_generic(fn, r, p.theta, h_scale * np.maximum(r, 1.0), h_scale)


def scalar_curvature_generic(metric_fn, u0, u1, h0, h1):
    """Scalar curvature of a metric depending on its first two coordinates.

    ``metric_fn(u0, u1)`` returns the full n x n metric, with the axes of
    (u0, u1) in front; it is called once, on arrays with an extra leading
    stencil axis (module docstring).  Derivatives along the remaining
    coordinates are taken to vanish, so each derivative axis has length 2:
    d_e g and d_e Gamma for e < 2, d_e d_f g for e, f < 2.
    """
    st = stencil(metric_fn, u0, u1, h0, h1, second=True)
    g = st["f"]
    n = g.shape[-1]
    ginv = np.linalg.inv(g)
    # derivs[..., k, e, :, :] is d_e g for k = 0 and d_{k-1} d_e g for k = 1, 2.
    derivs = np.stack([np.stack([st[a], st[b]], axis=-3)
                       for a, b in (("d0", "d1"), ("d00", "d01"), ("d01", "d11"))], axis=-4)
    dg = derivs[..., 0, :, :, :]

    # term[..., k, d, bc] = (d_b g_dc + d_c g_db - d_d g_bc) / 2 and its derivatives,
    # with (b, c) as one axis.  Gamma^a_{bc} = g^{ad} term[d, bc] and, as
    # d_e g^-1 = -g^-1 (d_e g) g^-1, d_e Gamma = g^-1 (d_e term - (d_e g) Gamma).
    half = np.zeros(derivs.shape[:-3] + (n, n, n))
    half[..., :2, :] = np.swapaxes(derivs, -3, -2)
    term = half + np.swapaxes(half, -1, -2)
    term[..., :2, :, :] -= derivs
    term = 0.5 * term.reshape(term.shape[:-2] + (n * n,))
    gamma = ginv @ term[..., 0, :, :]
    dgamma = ginv[..., None, :, :] @ (term[..., 1:, :, :] - dg @ gamma[..., None, :, :])
    dgamma = dgamma.reshape(dg.shape + (n,))

    # ric[n, s] = R_{ns} = d_m Gamma^m_{ns} - d_n Gamma^m_{ms}
    #                      + Gamma^m_{ml} Gamma^l_{ns} - Gamma^m_{nl} Gamma^l_{ms},
    # and swap[x, y, z] = Gamma^y_{xz} makes the last term one matrix product.
    swap = np.swapaxes(gamma.reshape(g.shape + (n,)), -3, -2)
    ric = (np.trace(swap, axis1=-3, axis2=-2)[..., None, :] @ gamma).reshape(g.shape)
    ric -= swap.reshape(g.shape[:-1] + (n * n,)) @ swap.reshape(g.shape[:-2] + (n * n, n))
    ric += dgamma[..., 0, 0, :, :] + dgamma[..., 1, 1, :, :]
    ric[..., :2, :] -= np.trace(dgamma, axis1=-3, axis2=-2)
    return np.einsum("...ab,...ba->...", ginv, ric)


def fit_log_coeffs(data, r_samples, theta_samples) -> dict:
    """Least-squares (a, b) from the r^-2 term of the determinant.

    At each theta, fit <v_1,v_2>/(q s c) - 1 = K/r^2 + L/r^4 over the
    radii, then solve K(theta) = a sin^2 + b cos^2 across the thetas.
    The two-term radial fit removes the leading bias of the neglected
    r^-4 tail.  ``series`` holds the one-radius estimates (r, a, b) from
    fitting r^2 (<v_1,v_2>/(q s c) - 1) = a sin^2 + b cos^2 at each radius
    of the same grid.
    """
    data = as_numeric(data)
    r_samples = np.asarray(sorted(r_samples), dtype=float)
    theta_samples = np.asarray(sorted(theta_samples), dtype=float)
    if len(r_samples) < 10:
        raise ValueError("need at least 10 radii for the asymptotic fit")
    if len(theta_samples) < 2:
        raise ValueError("need at least two interior theta values")
    q = data.source.pq()[1]

    r, theta = np.meshgrid(r_samples, theta_samples, indexing="ij")
    det = v_eval(data, *from_polar(PolarPoint(r, theta))).det
    E = det / (q * np.sin(theta) * np.cos(theta)) - 1.0

    A = np.stack([r_samples ** -2.0, r_samples ** -4.0], axis=1)
    K = np.linalg.lstsq(A, E, rcond=None)[0][0]
    S = np.stack([np.sin(theta_samples) ** 2, np.cos(theta_samples) ** 2], axis=1)
    ab = np.linalg.lstsq(S, K, rcond=None)[0]
    per_radius = np.linalg.lstsq(S, (E * r * r).T, rcond=None)[0]
    return {
        "a_fit": float(ab[0]),
        "b_fit": float(ab[1]),
        "series": tuple((float(rr), float(a), float(b))
                        for rr, a, b in zip(r_samples, *per_radius)),
    }


def potential_residual(data, r):
    """Pointwise metric norm of omega - d(J df), worst over theta, per radius.

    f is the analytic asymptotic potential built from the exact log
    coefficients of the data, J df = f_r J dr + f_theta J dtheta is taken
    from :func:`metric_at`, and its exterior derivative by finite
    differences.  The norm is the metric norm of the 2-form, so the
    expected decay is r^-4.  ``r`` is a radius or an array of them; all
    radii and seven thetas across the interior form one batch.
    """
    data = as_numeric(data)
    theta_samples = np.linspace(THETA_MARGIN, math.pi / 2 - THETA_MARGIN, 7)
    a, b = float(data.exact.a), float(data.exact.b)
    q = data.source.pq()[1]
    rr, th = np.broadcast_arrays(np.asarray(r, dtype=float)[..., None], theta_samples)

    def fields(rad, theta):
        """Rows of g, of omega and of J df; J dx^i has components -J[..., i, :]."""
        sample = metric_at(data, PolarPoint(rad, theta))
        J = sample.J
        f_r = q * (rad / 2 + (a + b) / (2 * rad))
        f_th = -q * (a - b) * np.sin(theta) * np.cos(theta) / 2
        jdf = -(f_r[..., None] * J[..., 0, :] + f_th[..., None] * J[..., 1, :])
        return np.concatenate([sample.g, sample.omega, jdf[..., None, :]], axis=-2)

    st = stencil(fields, rr, th, 1e-3 * np.maximum(rr, 1.0), 1e-3)
    g, omega = st["f"][..., :4, :], st["f"][..., 4:8, :]
    R = np.zeros(rr.shape + (4, 4))
    R[..., 0, 2:] = omega[..., 0, 2:] - st["d0"][..., 8, 2:]
    R[..., 1, 2:] = omega[..., 1, 2:] - st["d1"][..., 8, 2:]
    R -= _transpose(R)
    return form2_norm(R, g).max(axis=-1)


def form2_norm(R: np.ndarray, g: np.ndarray):
    """Metric norm of an antisymmetric 2-form: sqrt(-tr(GRGR)/2)."""
    G = np.linalg.inv(g)
    val = -0.5 * np.trace(G @ R @ G @ R, axis1=-2, axis2=-1)
    return np.sqrt(np.maximum(val, 0.0))


# ---------------------------------------------------------------------------
# report driver


class CheckResult(namedtuple("CheckResult", "name value tolerance passed detail")):
    """One check of :func:`verify_metric`.

    ``value`` and ``tolerance`` are stored as floats and ``passed`` as a
    bool, so numpy scalars from reductions stay out of reports.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, name, value, tolerance, passed, detail=""):
        return super().__new__(cls, name, float(value), float(tolerance), bool(passed), detail)


class VerificationReport(namedtuple("VerificationReport", "p q levels seed samples checks "
                                                          "decay_series fit_series exact")):
    """The checks of :func:`verify_metric` with the series they read.

    ``decay_series`` holds (r, residual) pairs and ``fit_series``
    (r, a_est, b_est) triples; ``exact`` is the exact (a, b, mu).
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def default_levels(k: int):
    """The evenly spaced level choice y_j = k + 1 - j."""
    return tuple(Fraction(k + 1 - j) for j in range(k + 2))


def sample_batch(rng, n: int, r_lo: float, r_hi: float) -> PolarPoint:
    """n random points with r in [r_lo, r_hi] and theta inside the margin."""
    rs = rng.uniform(r_lo, r_hi, size=n)
    thetas = rng.uniform(THETA_MARGIN, math.pi / 2 - THETA_MARGIN, size=n)
    return PolarPoint(rs, thetas)


def _head(batch: PolarPoint, n: int) -> PolarPoint:
    return PolarPoint(batch.r[:n], batch.theta[:n])


def _max_entry(m):
    """Largest absolute entry of each matrix in a batch."""
    return np.abs(m).max(axis=(-2, -1))


def invariant_residual(sample: MetricSample) -> np.ndarray:
    """Worst defect of the algebraic invariants at each point of a batch.

    J^2 = -1 is measured as is.  J^T g J = g and omega = J^T g are
    measured entrywise against the magnitudes of their summed terms,
    |J|^T |g| |J| and |J|^T |g|, which bound the roundoff of the products.
    A g that is not positive definite counts as 1.
    """
    g, J = sample.g, sample.J
    Jtg = _transpose(J) @ g
    terms = np.abs(_transpose(J)) @ np.abs(g)
    tiny = np.finfo(float).tiny
    worst = np.maximum.reduce([
        _max_entry(J @ J + np.eye(4)),
        _max_entry(np.abs(Jtg @ J - g) / np.maximum(terms @ np.abs(J), tiny)),
        _max_entry(np.abs(sample.omega - Jtg) / np.maximum(terms, tiny)),
    ])
    return np.where(np.linalg.eigvalsh(g).min(axis=-1) > 0, worst, np.maximum(worst, 1.0))


def verify_metric(p: int, q: int, levels=None, samples: int = 200,
                  seed: int = 0) -> VerificationReport:
    """Run the full verification battery for the (p, q) metric.

    Checks, in order: flat-model exactness of the evaluator, determinant
    positivity, the monopole system, the algebraic metric invariants,
    closedness of omega and of the (1,0)-forms, scalar flatness, the
    asymptotic (a, b) fit against the exact coefficients, the r^-4 decay
    of the potential residual, and the sign of the fitted mass against
    the exact verdict.

    Raises
    ------
    TypeError
        If ``samples`` is not an integer (a bool is refused).
    ValueError
        If ``samples`` is below 1 or above ``MAX_SAMPLES``, if q exceeds
        ``MAX_Q`` or p/q needs more than ``MAX_LEVELS`` levels, if the
        levels do not fit the chain, or if a finite level or the exact a,
        b or mu has no finite float.
    """
    samples = integer_field(samples, "samples")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be at most {MAX_SAMPLES}, got {samples}")
    if q > MAX_Q:
        raise ValueError(f"q = {q} is above 2**53, where floats cannot hold the charges exactly")
    k = hj_length(p, q)
    if k + 2 > MAX_LEVELS:
        raise ValueError(f"{p}/{q} needs {k + 2} levels, more than the {MAX_LEVELS} supported")
    # The level refusals are exact, so they come before numpy is loaded.
    data = monopole_from_fraction(p, q, default_levels(k) if levels is None else levels)
    if any(abs(y) > FLOAT_MAX_INT for y in data.levels if y != INFINITY):
        raise ValueError("every finite level must lie within the float range")
    # An overflow in a batch leaves an inf or NaN, which fails a check or
    # makes the monopole data invalid (a ValueError); numpy's warning adds
    # nothing.
    with np.errstate(all="ignore"):
        rng = np.random.default_rng(seed)
        num = as_numeric(data)
        exact = num.exact
        if max(abs(exact.a), abs(exact.b), abs(exact.mu)) > FLOAT_MAX_INT:
            raise ValueError("these levels give log coefficients a, b, mu outside the float range")
        checks = []

        # Flat-model exactness: evaluator versus the closed-form flat metric.
        flat_pts = sample_batch(rng, samples, 0.2, 30.0)
        expected = flat_metric_matrix(flat_pts)
        deviation = _max_entry(metric_at(flat_monopole(), flat_pts).g - expected)
        worst = float(np.max(deviation / np.maximum(1.0, _max_entry(expected))))
        checks.append(CheckResult("flat-model-exactness", worst, TOL_CLOSED_FORM,
                                  worst < TOL_CLOSED_FORM))

        points = sample_batch(rng, samples, 1.0, 5.0)

        # Determinant positivity on the sample grid.
        min_det = float(np.min(v_eval(num, *from_polar(points)).det))
        checks.append(CheckResult("determinant-positive", min_det, 0.0, min_det > 0.0,
                                  detail="minimum of <v1,v2> over samples"))

        # Monopole system residual (finite differences, independent route).
        # Each point runs at step h and at h/2 in one batch; the change at the
        # worst point is the error estimate.
        x, y = from_polar(_head(points, 50))
        n = len(x)
        x, y = np.tile(x, 2), np.tile(y, 2)
        residuals, halved = np.split(
            monopole_residual(num, x, y, h=np.repeat([H_MONOPOLE, H_MONOPOLE / 2], n) * x), 2)
        i = int(np.argmax(residuals))
        worst = float(residuals[i])
        checks.append(CheckResult("monopole-system", worst, 1e-8, worst < 1e-8,
                                  detail=f"step-halving change {abs(halved[i] - worst):.2e}"))

        # Algebraic invariants of each sample.
        worst = float(np.max(invariant_residual(metric_at(num, _head(points, 100)))))
        checks.append(CheckResult("metric-invariants", worst, TOL_INVARIANT, worst < TOL_INVARIANT))

        # Kähler residuals.
        res = kahler_residual(num, _head(points, 100))
        checks.append(CheckResult("domega-residual", res["max_domega"], TOL_FIRST_DERIV,
                                  res["max_domega"] < TOL_FIRST_DERIV))
        checks.append(CheckResult("integrability-residual", res["max_dintegrability"],
                                  TOL_FIRST_DERIV, res["max_dintegrability"] < TOL_FIRST_DERIV))

        # Scalar flatness.
        curv_pts = _head(points, CURVATURE_POINTS)
        n = len(curv_pts.r)
        curvature, halved = np.split(scalar_curvature_at(
            num, PolarPoint(np.tile(curv_pts.r, 2), np.tile(curv_pts.theta, 2)),
            h_scale=np.repeat([H_CURVATURE, H_CURVATURE / 2], n)), 2)
        i = int(np.argmax(np.abs(curvature)))
        worst = float(abs(curvature[i]))
        checks.append(CheckResult("scalar-curvature", worst, TOL_CURVATURE, worst < TOL_CURVATURE,
                                  detail=f"step-halving change {abs(halved[i] - curvature[i]):.2e}"))

        # Asymptotic fit against the exact coefficients.
        radii = np.geomspace(10.0, 1000.0, 25)
        thetas = np.linspace(0.3, math.pi / 2 - 0.3, 5)
        fit = fit_log_coeffs(num, radii, thetas)
        scale = max(1.0, abs(float(exact.a)), abs(float(exact.b)))
        err = max(abs(fit["a_fit"] - float(exact.a)), abs(fit["b_fit"] - float(exact.b))) / scale
        fit_ok = err < TOL_FIT_RELATIVE
        checks.append(CheckResult("asymptotic-fit", err, TOL_FIT_RELATIVE, fit_ok,
                                  detail=f"a_fit={fit['a_fit']:.6g} b_fit={fit['b_fit']:.6g}"))

        # Potential residual decay: ratio across doubled radii near 2^-4.  The
        # same batch gives the series for CSV output.
        decay_radii = np.array([10.0, 20.0, 40.0])
        series_radii = np.geomspace(5.0, 160.0, 12)
        all_residuals = potential_residual(num, np.concatenate([decay_radii, series_radii]))
        residuals = [float(x) for x in all_residuals[: len(decay_radii)]]
        ratios = [residuals[i + 1] / residuals[i] for i in range(len(residuals) - 1)]
        if float(exact.mu) == 0.0 and float(exact.a) == 0.0 and float(exact.b) == 0.0:
            # Flat data: nothing to decay, residual is FD noise.
            ratio_err = 0.0
            ratio_ok = all(res < 1e-9 for res in residuals)
        else:
            ratio_err = max(abs(rt * 16.0 - 1.0) for rt in ratios)
            ratio_ok = ratio_err < 0.25
        checks.append(CheckResult("potential-decay", ratio_err, 0.25, ratio_ok,
                                  detail=f"residuals={['%.3g' % rr for rr in residuals]}"))

        # Fitted mass sign against the exact sign verdict.  The zero band
        # grows with |a| and |b|, so a sign read off a fit that missed them
        # says nothing: the check also needs the asymptotic fit to pass.
        mu_fit = fit["a_fit"] + fit["b_fit"]
        sign_exact = verdict_from_coeffs(p, q, exact).sign
        tol0 = 0.01 * scale
        sign_fit = 0 if abs(mu_fit) < tol0 else (1 if mu_fit > 0 else -1)
        checks.append(CheckResult("mass-sign", float(sign_fit), float(sign_exact),
                                  fit_ok and sign_fit == sign_exact,
                                  detail=f"mu_fit={mu_fit:.6g} mu_exact={float(exact.mu):.6g}"
                                  + ("" if fit_ok else "; asymptotic fit failed")))

        return VerificationReport(
            p=p,
            q=q,
            levels=tuple(data.levels),
            seed=seed,
            samples=samples,
            checks=tuple(checks),
            decay_series=tuple((float(r), float(res)) for r, res
                               in zip(series_radii, all_residuals[len(decay_radii):])),
            fit_series=fit["series"],
            exact=exact,
        )
