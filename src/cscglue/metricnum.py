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

    ( x / sqrt(x^2 + (y - a)^2),  (y - a) / sqrt(x^2 + (y - a)^2) )

with known closed-form first derivatives; everything built directly from
them is evaluated without finite differences.  Finite differences (with
Richardson extrapolation) enter only where the verification must be
independent of the identities being verified: the monopole system itself,
the closedness of omega and of the (1,0)-forms, the scalar curvature, and
the comparison of omega against the exterior derivative of the asymptotic
potential

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from cscglue.logmass import (
    INFINITY,
    LogCoefficients,
    MonopoleData,
    flat_monopole,
    log_coeffs_from_levels,
    mass_verdict,
    monopole_from_fraction,
)

THETA_MARGIN = 0.1

TOL_CLOSED_FORM = 1e-12
TOL_INVARIANT = 1e-10
TOL_FIRST_DERIV = 1e-6
TOL_CURVATURE = 1e-4
TOL_FIT_RELATIVE = 0.01


@dataclass(frozen=True)
class HalfSpacePoint:
    x: float
    y: float
    t1: float = 0.0
    t2: float = 0.0

    def __post_init__(self):
        if self.x <= 0:
            raise ValueError(f"half-space requires x > 0, got x={self.x}")


@dataclass(frozen=True)
class PolarPoint:
    r: float
    theta: float
    t1: float = 0.0
    t2: float = 0.0

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError(f"need r > 0, got r={self.r}")
        if not (0 < self.theta < math.pi / 2):
            raise ValueError(f"theta must lie in (0, pi/2), got {self.theta}")


@dataclass(frozen=True)
class FrameData:
    """(v_1, v_2), their determinant, and closed-form first derivatives.

    ``dv1[i]`` is the derivative of v_1 along (x, y)[i], likewise dv2.
    """

    v1: np.ndarray
    v2: np.ndarray
    det: float
    dv1: np.ndarray  # shape (2, 2)
    dv2: np.ndarray


@dataclass(frozen=True)
class MetricSample:
    """g, omega and J at one point, in the (r, theta, t1, t2) basis."""

    point: PolarPoint
    g: np.ndarray
    omega: np.ndarray
    J: np.ndarray


def to_polar(p: HalfSpacePoint) -> PolarPoint:
    """Invert x = r^-2 sin 2theta, y = r^-2 cos 2theta."""
    rho = math.hypot(p.x, p.y)
    r = rho ** -0.5
    theta = 0.5 * math.atan2(p.x, p.y)
    return PolarPoint(r=r, theta=theta, t1=p.t1, t2=p.t2)


def from_polar(p: PolarPoint) -> HalfSpacePoint:
    rho = p.r ** -2.0
    return HalfSpacePoint(
        x=rho * math.sin(2 * p.theta),
        y=rho * math.cos(2 * p.theta),
        t1=p.t1,
        t2=p.t2,
    )


def _numeric_data(data: MonopoleData):
    levels = np.array([math.inf if y == INFINITY else float(y) for y in data.levels])
    pairs = np.array([[float(a), float(b)] for a, b in data.pairs])
    return levels, pairs


def v_eval(data: MonopoleData, x: float, y: float) -> FrameData:
    """Evaluate (v_1, v_2) and their (x, y)-derivatives at a point.

    An infinite level contributes zero to v_1 and the constant
    -(a_0, b_0)/2 to v_2 (the limit of the finite formula).
    """
    if x <= 0:
        raise ValueError(f"need x > 0, got {x}")
    levels, pairs = _numeric_data(data)
    finite = np.isfinite(levels)
    p_fin = pairs[finite]
    dy = y - levels[finite]
    f = np.sqrt(x * x + dy * dy)
    f3 = f ** 3

    v1 = (x / 2) * (p_fin / f[:, None]).sum(axis=0)
    v2 = ((dy / (2 * f))[:, None] * p_fin).sum(axis=0)
    v2 = v2 - 0.5 * pairs[~finite].sum(axis=0)

    dv1 = np.empty((2, 2))
    dv2 = np.empty((2, 2))
    dv1[0] = ((dy * dy / (2 * f3))[:, None] * p_fin).sum(axis=0)
    dv1[1] = ((-x * dy / (2 * f3))[:, None] * p_fin).sum(axis=0)
    dv2[0] = dv1[1]
    dv2[1] = ((x * x / (2 * f3))[:, None] * p_fin).sum(axis=0)

    det = v1[0] * v2[1] - v1[1] * v2[0]
    return FrameData(v1=v1, v2=v2, det=float(det), dv1=dv1, dv2=dv2)


def metric_at(data: MonopoleData, p: PolarPoint) -> MetricSample:
    """Metric, Kähler form and complex structure at one polar point.

    Raises
    ------
    ValueError
        If the determinant <v_1, v_2> is not positive there.
    """
    s, c = math.sin(p.theta), math.cos(p.theta)
    hp = from_polar(p)
    frame = v_eval(data, hp.x, hp.y)
    D = frame.det
    if D <= 0:
        raise ValueError(f"determinant {D} <= 0 at {p}; invalid monopole data")
    r = p.r
    v1, v2 = frame.v1, frame.v2

    g = np.zeros((4, 4))
    g[0, 0] = D / (s * c)
    g[1, 1] = r * r * D / (s * c)
    factor = r * r * s * c / D
    g[2, 2] = factor * (v1[1] ** 2 + v2[1] ** 2)
    g[3, 3] = factor * (v1[0] ** 2 + v2[0] ** 2)
    g[2, 3] = g[3, 2] = -factor * (v1[0] * v1[1] + v2[0] * v2[1])

    omega = np.zeros((4, 4))
    omega[0, 2] = -r * v2[1]
    omega[0, 3] = r * v2[0]
    omega[1, 2] = r * r * v1[1]
    omega[1, 3] = -r * r * v1[0]
    omega -= omega.T

    # Cotangent action: columns give the image of each basis 1-form.
    C = np.zeros((4, 4))
    C[2, 0] = -r * s * c * v2[1] / D
    C[3, 0] = r * s * c * v2[0] / D
    C[2, 1] = s * c * v1[1] / D
    C[3, 1] = -s * c * v1[0] / D
    C[0, 2] = v1[0] / (r * s * c)
    C[1, 2] = v2[0] / (s * c)
    C[0, 3] = v1[1] / (r * s * c)
    C[1, 3] = v2[1] / (s * c)
    J = -C.T  # tangent action with omega(X, Y) = g(JX, Y)

    return MetricSample(point=p, g=g, omega=omega, J=J)


def flat_metric_matrix(p: PolarPoint) -> np.ndarray:
    """The flat model dr^2 + r^2 dtheta^2 + r^2(s^2 dt1^2 + c^2 dt2^2)."""
    s, c = math.sin(p.theta), math.cos(p.theta)
    return np.diag([1.0, p.r ** 2, (p.r * s) ** 2, (p.r * c) ** 2])


# ---------------------------------------------------------------------------
# finite differences


def _extrapolate(d, depth: int):
    """Richardson ladder for a stencil with an even error series.

    ``d(i)`` must return the stencil value at step h / 2^i; depth 0 is
    the raw stencil, each further level removes one power of h^2.
    """
    vals = [d(i) for i in range(depth + 1)]
    for level in range(1, depth + 1):
        factor = 4.0 ** level
        vals = [
            (factor * vals[i + 1] - vals[i]) / (factor - 1)
            for i in range(len(vals) - 1)
        ]
    return vals[0]


def central_diff(fn, x: float, h: float, richardson=True):
    """First derivative by central differences.

    ``richardson`` gives the extrapolation depth (False none, True one
    level, integers for more).
    """
    d = lambda i: (fn(x + h / 2**i) - fn(x - h / 2**i)) / (2 * h / 2**i)
    return _extrapolate(d, int(richardson))


def second_diff(fn, x: float, h: float, richardson=True):
    f0 = fn(x)

    def d(i):
        hh = h / 2**i
        return (fn(x + hh) - 2 * f0 + fn(x - hh)) / (hh * hh)

    return _extrapolate(d, int(richardson))


def mixed_diff(fn, x: float, y: float, hx: float, hy: float, richardson=True):
    def d(i):
        ax, ay = hx / 2**i, hy / 2**i
        return (
            fn(x + ax, y + ay) - fn(x + ax, y - ay) - fn(x - ax, y + ay) + fn(x - ax, y - ay)
        ) / (4 * ax * ay)

    return _extrapolate(d, int(richardson))


# ---------------------------------------------------------------------------
# verification checks


def monopole_residual(data: MonopoleData, x: float, y: float, h: float = 1e-3,
                      richardson: bool = True) -> float:
    """Finite-difference residual of the defining linear system at (x, y).

    Checks d(v_1)/dy - d(v_2)/dx and x d(v_1)/dx + x d(v_2)/dy - v_1
    using derivatives independent of the closed forms carried by
    :func:`v_eval`.
    """
    v1y = central_diff(lambda yy: v_eval(data, x, yy).v1, y, h, richardson)
    v2x = central_diff(lambda xx: v_eval(data, xx, y).v2, x, h, richardson)
    v1x = central_diff(lambda xx: v_eval(data, xx, y).v1, x, h, richardson)
    v2y = central_diff(lambda yy: v_eval(data, x, yy).v2, y, h, richardson)
    frame = v_eval(data, x, y)
    res1 = v1y - v2x
    res2 = x * v1x + x * v2y - frame.v1
    return float(max(np.max(np.abs(res1)), np.max(np.abs(res2))))


def derivative_consistency(data: MonopoleData, x: float, y: float, h: float = 1e-3) -> float:
    """Max difference between closed-form and finite-difference dv."""
    frame = v_eval(data, x, y)
    fd1x = central_diff(lambda xx: v_eval(data, xx, y).v1, x, h)
    fd1y = central_diff(lambda yy: v_eval(data, x, yy).v1, y, h)
    fd2x = central_diff(lambda xx: v_eval(data, xx, y).v2, x, h)
    fd2y = central_diff(lambda yy: v_eval(data, x, yy).v2, y, h)
    return float(
        max(
            np.max(np.abs(frame.dv1[0] - fd1x)),
            np.max(np.abs(frame.dv1[1] - fd1y)),
            np.max(np.abs(frame.dv2[0] - fd2x)),
            np.max(np.abs(frame.dv2[1] - fd2y)),
        )
    )


def kahler_residual(data: MonopoleData, points, h: float = 1e-3,
                    richardson: bool = True) -> dict:
    """Maximum relative FD residual of d(omega) = 0 and d(J dt) = 0.

    omega has components only in dr^dt_i and dtheta^dt_i depending on
    (r, theta), so d(omega) reduces to dr(omega_{theta t_i}) -
    dtheta(omega_{r t_i}); similarly d(J dt_i) reduces to one dr^dtheta
    coefficient per i.  Residuals are normalised by the magnitudes of
    the cancelling terms.

    Raises
    ------
    ValueError
        If a step would leave the valid theta range for some point.
    """
    max_domega = 0.0
    max_dj = 0.0
    for p in points:
        if not (h < p.theta < math.pi / 2 - h):
            raise ValueError(f"step {h} too large for theta={p.theta}")

        def omega_rt(r, theta, i):
            sample = metric_at(data, PolarPoint(r, theta))
            return sample.omega[0, 2 + i]

        def omega_tt(r, theta, i):
            sample = metric_at(data, PolarPoint(r, theta))
            return sample.omega[1, 2 + i]

        def jdt_r(r, theta, i):
            hp = from_polar(PolarPoint(r, theta))
            frame = v_eval(data, hp.x, hp.y)
            return frame.v1[i] / (r * math.sin(theta) * math.cos(theta))

        def jdt_th(r, theta, i):
            hp = from_polar(PolarPoint(r, theta))
            frame = v_eval(data, hp.x, hp.y)
            return frame.v2[i] / (math.sin(theta) * math.cos(theta))

        for i in (0, 1):
            # Normalise by the cancelling terms, falling back to the
            # field magnitudes when both derivatives vanish identically
            # (as they do for the flat datum).
            t1 = central_diff(lambda rr: omega_tt(rr, p.theta, i), p.r, h * max(p.r, 1.0), richardson)
            t2 = central_diff(lambda th: omega_rt(p.r, th, i), p.theta, h, richardson)
            scale = max(abs(t1) + abs(t2),
                        abs(omega_rt(p.r, p.theta, i)), abs(omega_tt(p.r, p.theta, i)), 1e-12)
            max_domega = max(max_domega, abs(t1 - t2) / scale)

            u1 = central_diff(lambda rr: jdt_th(rr, p.theta, i), p.r, h * max(p.r, 1.0), richardson)
            u2 = central_diff(lambda th: jdt_r(p.r, th, i), p.theta, h, richardson)
            scale = max(abs(u1) + abs(u2),
                        abs(jdt_r(p.r, p.theta, i)), abs(jdt_th(p.r, p.theta, i)), 1e-12)
            max_dj = max(max_dj, abs(u1 - u2) / scale)
    return {"max_domega": max_domega, "max_dintegrability": max_dj}


def scalar_curvature_at(data: MonopoleData, p: PolarPoint, h_scale: float = 1e-4,
                        richardson: bool = True) -> float:
    """Scalar curvature from second differences of the metric.

    The metric depends only on (r, theta); the torus directions are
    Killing, so all derivatives are taken in the first two coordinates.
    """
    fn = lambda r, theta: metric_at(data, PolarPoint(r, theta, p.t1, p.t2)).g
    return scalar_curvature_generic(fn, p.r, p.theta, h_scale * max(p.r, 1.0), h_scale,
                                    richardson=richardson)


def scalar_curvature_generic(metric_fn, u0: float, u1: float, h0: float, h1: float,
                             richardson: bool = True) -> float:
    """Scalar curvature of a metric depending on its first two coordinates.

    ``metric_fn(u0, u1)`` returns the full n x n metric; derivatives
    along the remaining coordinates are taken to vanish.
    """
    g = metric_fn(u0, u1)
    n = g.shape[0]
    ginv = np.linalg.inv(g)

    dg = np.zeros((n, n, n))
    dg[0] = central_diff(lambda r: metric_fn(r, u1), u0, h0, richardson)
    dg[1] = central_diff(lambda t: metric_fn(u0, t), u1, h1, richardson)

    d2g = np.zeros((n, n, n, n))
    d2g[0, 0] = second_diff(lambda r: metric_fn(r, u1), u0, h0, richardson)
    d2g[1, 1] = second_diff(lambda t: metric_fn(u0, t), u1, h1, richardson)
    d2g[0, 1] = mixed_diff(metric_fn, u0, u1, h0, h1, richardson)
    d2g[1, 0] = d2g[0, 1]

    dginv = np.zeros((n, n, n))
    for e in range(2):
        dginv[e] = -ginv @ dg[e] @ ginv

    # Gamma[a, b, c] = 0.5 g^{ad} (dg[b][d,c] + dg[c][d,b] - dg[d][b,c])
    term = np.zeros((n, n, n))  # term[d, b, c]
    for b in range(n):
        for c in range(n):
            for d in range(n):
                term[d, b, c] = dg[b][d, c] + dg[c][d, b] - dg[d][b, c]
    gamma = 0.5 * np.einsum("ad,dbc->abc", ginv, term)

    # dgamma[e, a, b, c] = partial_e Gamma^a_{bc}, e in {0, 1}
    dgamma = np.zeros((2, n, n, n))
    for e in range(2):
        dterm = np.zeros((n, n, n))
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    dterm[d, b, c] = d2g[e, b][d, c] + d2g[e, c][d, b] - d2g[e, d][b, c]
        dgamma[e] = 0.5 * (
            np.einsum("ad,dbc->abc", dginv[e], term)
            + np.einsum("ad,dbc->abc", ginv, dterm)
        )

    ric = np.zeros((n, n))
    for s_idx in range(n):
        for nu in range(n):
            val = 0.0
            for m in range(2):
                val += dgamma[m, m, nu, s_idx]
            if nu < 2:
                for m in range(n):
                    val -= dgamma[nu, m, m, s_idx]
            for m in range(n):
                for l in range(n):
                    val += gamma[m, m, l] * gamma[l, nu, s_idx]
                    val -= gamma[m, nu, l] * gamma[l, m, s_idx]
            ric[s_idx, nu] = val
    return float(np.einsum("ab,ab->", ginv, ric))


def fit_log_coeffs(data: MonopoleData, r_samples, theta_samples) -> dict:
    """Least-squares (a, b) from the r^-2 term of the determinant.

    At each theta, fit <v_1,v_2>/(q s c) - 1 = K/r^2 + L/r^4 over the
    radii, then solve K(theta) = a sin^2 + b cos^2 across the thetas.
    The two-term radial fit removes the leading bias of the neglected
    r^-4 tail.
    """
    r_samples = np.asarray(sorted(r_samples), dtype=float)
    theta_samples = np.asarray(sorted(theta_samples), dtype=float)
    if len(r_samples) < 10:
        raise ValueError("need at least 10 radii for the asymptotic fit")
    if len(theta_samples) < 2:
        raise ValueError("need at least two interior theta values")
    q = data.pq()[1]

    K = np.empty(len(theta_samples))
    for it, theta in enumerate(theta_samples):
        s, c = math.sin(theta), math.cos(theta)
        E = np.empty(len(r_samples))
        for ir, r in enumerate(r_samples):
            hp = from_polar(PolarPoint(r, theta))
            det = v_eval(data, hp.x, hp.y).det
            E[ir] = det / (q * s * c) - 1.0
        A = np.stack([r_samples ** -2.0, r_samples ** -4.0], axis=1)
        coef, *_ = np.linalg.lstsq(A, E, rcond=None)
        K[it] = coef[0]

    S = np.stack([np.sin(theta_samples) ** 2, np.cos(theta_samples) ** 2], axis=1)
    ab, *_ = np.linalg.lstsq(S, K, rcond=None)
    return {"a_fit": float(ab[0]), "b_fit": float(ab[1])}


def potential_residual(data: MonopoleData, r: float, theta_samples=None,
                       h: float = 1e-3, richardson: bool = True) -> float:
    """Pointwise metric norm of omega - d(J df) at radius r.

    f is the analytic asymptotic potential built from the exact log
    coefficients of the data; the exterior derivative of J df is taken
    by finite differences.  The norm is the metric norm of the 2-form,
    so the expected decay is r^-4.
    """
    if theta_samples is None:
        theta_samples = np.linspace(THETA_MARGIN, math.pi / 2 - THETA_MARGIN, 7)
    coeffs = log_coeffs_from_levels(data)
    a, b = float(coeffs.a), float(coeffs.b)
    q = data.pq()[1]

    def jdf(rr, theta):
        """(dt1, dt2) components of J df at (rr, theta)."""
        s, c = math.sin(theta), math.cos(theta)
        hp = from_polar(PolarPoint(rr, theta))
        frame = v_eval(data, hp.x, hp.y)
        D = frame.det
        f_r = q * (rr / 2 + (a + b) / (2 * rr))
        f_th = -q * (a - b) * s * c / 2
        A = -f_r * rr * s * c * frame.v2[1] / D + f_th * s * c * frame.v1[1] / D
        B = f_r * rr * s * c * frame.v2[0] / D - f_th * s * c * frame.v1[0] / D
        return np.array([A, B])

    worst = 0.0
    for theta in theta_samples:
        sample = metric_at(data, PolarPoint(r, theta))
        dA_r = central_diff(lambda rr: jdf(rr, theta), r, h * max(r, 1.0), richardson)
        dA_th = central_diff(lambda th: jdf(r, th), theta, h, richardson)
        R = np.zeros((4, 4))
        R[0, 2] = sample.omega[0, 2] - dA_r[0]
        R[0, 3] = sample.omega[0, 3] - dA_r[1]
        R[1, 2] = sample.omega[1, 2] - dA_th[0]
        R[1, 3] = sample.omega[1, 3] - dA_th[1]
        R -= R.T
        worst = max(worst, form2_norm(R, sample.g))
    return worst


def form2_norm(R: np.ndarray, g: np.ndarray) -> float:
    """Metric norm of an antisymmetric 2-form: sqrt(-tr(GRGR)/2)."""
    G = np.linalg.inv(g)
    val = -0.5 * np.trace(G @ R @ G @ R)
    return math.sqrt(max(val, 0.0))


# ---------------------------------------------------------------------------
# report driver


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    tolerance: float
    passed: bool
    detail: str = ""

    def __post_init__(self):
        # numpy scalars leak in from reductions; keep reports plain.
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        object.__setattr__(self, "passed", bool(self.passed))


@dataclass(frozen=True)
class VerificationReport:
    p: int
    q: int
    levels: tuple
    seed: int
    samples: int
    checks: tuple[CheckResult, ...]
    decay_series: tuple  # (r, residual) pairs
    fit_series: tuple  # (r, a_est, b_est) pairs
    exact: LogCoefficients

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def default_levels(k: int):
    """The evenly spaced level choice y_j = k + 1 - j."""
    return tuple(Fraction(k + 1 - j) for j in range(k + 2))


def sample_points(rng, n: int, r_lo: float, r_hi: float):
    rs = rng.uniform(r_lo, r_hi, size=n)
    thetas = rng.uniform(THETA_MARGIN, math.pi / 2 - THETA_MARGIN, size=n)
    return [PolarPoint(float(r), float(t)) for r, t in zip(rs, thetas)]


def verify_metric(p: int, q: int, levels=None, samples: int = 200, seed: int = 0,
                  curvature_points: int = 40) -> VerificationReport:
    """Run the full verification battery for the (p, q) metric.

    Checks, in order: flat-model exactness of the evaluator, determinant
    positivity, the monopole system, the algebraic metric invariants,
    closedness of omega and of the (1,0)-forms, scalar flatness, the
    asymptotic (a, b) fit against the exact coefficients, the r^-4 decay
    of the potential residual, and the sign of the fitted mass against
    the exact verdict.
    """
    rng = np.random.default_rng(seed)
    if levels is None:
        from cscglue.cfrac import hj_expand

        levels = default_levels(len(hj_expand(p, q).digits))
    data = monopole_from_fraction(p, q, levels)
    exact = log_coeffs_from_levels(data)
    checks = []

    # Flat-model exactness: evaluator versus the closed-form flat metric.
    flat = flat_monopole()
    worst = 0.0
    for pt in sample_points(rng, samples, 0.2, 30.0):
        sample = metric_at(flat, pt)
        expected = flat_metric_matrix(pt)
        scale = max(1.0, float(np.max(np.abs(expected))))
        worst = max(worst, float(np.max(np.abs(sample.g - expected))) / scale)
    checks.append(CheckResult("flat-model-exactness", worst, TOL_CLOSED_FORM, worst < TOL_CLOSED_FORM))

    points = sample_points(rng, samples, 1.0, 5.0)

    # Determinant positivity on the sample grid.
    min_det = min(v_eval(data, from_polar(pt).x, from_polar(pt).y).det for pt in points)
    checks.append(CheckResult("determinant-positive", min_det, 0.0, min_det > 0.0,
                              detail="minimum of <v1,v2> over samples"))

    # Monopole system residual (finite differences, independent route).
    worst = max(
        monopole_residual(data, from_polar(pt).x, from_polar(pt).y, h=1e-4 * from_polar(pt).x)
        for pt in points[: min(samples, 50)]
    )
    checks.append(CheckResult("monopole-system", worst, 1e-8, worst < 1e-8))

    # Algebraic invariants of each sample.
    worst = 0.0
    for pt in points[: min(samples, 100)]:
        sample = metric_at(data, pt)
        gmat, J, om = sample.g, sample.J, sample.omega
        scale = max(1.0, float(np.max(np.abs(gmat))))
        worst = max(worst, float(np.max(np.abs(J @ J + np.eye(4)))))
        worst = max(worst, float(np.max(np.abs(J.T @ gmat @ J - gmat))) / scale)
        worst = max(worst, float(np.max(np.abs(om - J.T @ gmat))) / scale)
        eigmin = float(np.linalg.eigvalsh(gmat).min())
        if eigmin <= 0:
            worst = max(worst, 1.0)
    checks.append(CheckResult("metric-invariants", worst, TOL_INVARIANT, worst < TOL_INVARIANT))

    # Kähler residuals.
    res = kahler_residual(data, points[: min(samples, 100)])
    checks.append(CheckResult("domega-residual", res["max_domega"], TOL_FIRST_DERIV,
                              res["max_domega"] < TOL_FIRST_DERIV))
    checks.append(CheckResult("integrability-residual", res["max_dintegrability"],
                              TOL_FIRST_DERIV, res["max_dintegrability"] < TOL_FIRST_DERIV))

    # Scalar flatness.
    worst = max(abs(scalar_curvature_at(data, pt)) for pt in points[:curvature_points])
    checks.append(CheckResult("scalar-curvature", worst, TOL_CURVATURE, worst < TOL_CURVATURE))

    # Asymptotic fit against the exact coefficients.
    radii = np.geomspace(10.0, 1000.0, 25)
    thetas = np.linspace(0.3, math.pi / 2 - 0.3, 5)
    fit = fit_log_coeffs(data, radii, thetas)
    scale = max(1.0, abs(float(exact.a)), abs(float(exact.b)))
    err = max(abs(fit["a_fit"] - float(exact.a)), abs(fit["b_fit"] - float(exact.b))) / scale
    checks.append(CheckResult("asymptotic-fit", err, TOL_FIT_RELATIVE, err < TOL_FIT_RELATIVE,
                              detail=f"a_fit={fit['a_fit']:.6g} b_fit={fit['b_fit']:.6g}"))

    # Potential residual decay: ratio across doubled radii near 2^-4.
    decay_radii = [10.0, 20.0, 40.0]
    residuals = [potential_residual(data, r) for r in decay_radii]
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

    # Fitted mass sign against the exact sign verdict, through the
    # u-parameters the levels induce.
    mu_fit = fit["a_fit"] + fit["b_fit"]
    if exact.per_term:
        sign_exact = mass_verdict(p, q, [u for _, u in exact.per_term]).sign
    else:
        sign_exact = 0
    tol0 = 0.01 * scale
    sign_fit = 0 if abs(mu_fit) < tol0 else (1 if mu_fit > 0 else -1)
    checks.append(CheckResult("mass-sign", float(sign_fit), float(sign_exact),
                              sign_fit == sign_exact,
                              detail=f"mu_fit={mu_fit:.6g} mu_exact={float(exact.mu):.6g}"))

    # Series for CSV output.
    decay_series = tuple(
        (float(r), potential_residual(data, float(r))) for r in np.geomspace(5.0, 160.0, 12)
    )
    fit_series = []
    for r in radii:
        row = []
        for theta in thetas:
            s, c = math.sin(theta), math.cos(theta)
            hp = from_polar(PolarPoint(float(r), float(theta)))
            E = v_eval(data, hp.x, hp.y).det / (q * s * c) - 1.0
            row.append((s * s, c * c, E * r * r))
        A = np.array([[x[0], x[1]] for x in row])
        rhs = np.array([x[2] for x in row])
        ab, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        fit_series.append((float(r), float(ab[0]), float(ab[1])))

    return VerificationReport(
        p=p,
        q=q,
        levels=tuple(data.levels),
        seed=seed,
        samples=samples,
        checks=tuple(checks),
        decay_series=decay_series,
        fit_series=tuple(fit_series),
        exact=exact,
    )
