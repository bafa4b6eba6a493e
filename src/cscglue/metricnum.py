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

from which g, omega and J are evaluated in closed form.  Derivatives
(one mechanism, :class:`Jet`) enter only where the verification must be
independent of the identities being verified: the monopole system
itself, the closedness of omega and of the (1,0)-forms, the scalar
curvature, and the comparison of omega against the exterior derivative
of the asymptotic potential

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
converts the exact monopole data to float arrays once, and a sample
builds g, omega and J, and the three nonzero 2 x 2 blocks of omega and
J, only when a check reads them.  numpy's Python-level helpers stay off
the check path, and the fixed arrays are built once, read-only
(:func:`_constants`).

Derivatives.  A check that differentiates evaluates its points once, as
Taylor jets (Griewank and Walther, *Evaluating Derivatives*, ch. 13):
:meth:`Jet.variables` makes the two evaluation coordinates, (x, y) or
(r, theta), jets of order 1 (value and gradient) or 2 (and Hessian), and
the frame code runs on them unchanged, so a derivative is the
implemented formula differentiated, with no step and no truncation
error.  Jets reach the formulas through operators and numpy's
``__array_ufunc__`` protocol, by which np.sqrt, np.sin and np.cos of a
jet call the jet's own rules, so every formula has one copy, written for
floats, and no derivative of g, omega or J is derived by hand.  The
checks then read roundoff.  The monopole-system and scalar-curvature
details are eps times the terms that cancel in the check, at the worst
point.  The curvature's terms leave out the roundoff that the frame's
level sums carry into g, so its detail is only a lower bound on the scale.
"""


from __future__ import annotations

import importlib.util
import math
import sys
import types
from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property

from cscglue.cfrac import hj_length
from cscglue.logmass import (
    LogCoefficients,
    flat_monopole,
    log_coeffs_from_levels,
    mass_sign,
    monopole_from_fraction,
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
TOL_MONOPOLE = 1e-8
TOL_INVARIANT = 1e-10
TOL_FIRST_DERIV = 1e-6
TOL_CURVATURE = 1e-4
TOL_FIT_RELATIVE = 0.01
TOL_DECAY = 0.25

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


def check_float_range(coeffs: LogCoefficients) -> None:
    """Refuse exact log coefficients a, b or mu that have no finite float."""
    if max(abs(coeffs.a), abs(coeffs.b), abs(coeffs.mu)) > FLOAT_MAX_INT:
        raise ValueError("log coefficients a, b, mu outside the float range")


# Sample points of verify_metric's scalar-curvature check.
CURVATURE_POINTS = 40
# Radii of its potential-decay check, doubling, so each residual ratio is near 2^-4.
DECAY_RADII = (10.0, 20.0, 40.0)
# The np.geomspace arguments of the radii of decay_series.
SERIES_RADII = (5.0, 160.0, 12)


class PolarPoint(namedtuple("PolarPoint", "r theta")):
    """A point in polar coordinates, or a batch of them when the fields are arrays.

    r > 0 and 0 < theta < pi/2 are checked when it is built.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, r, theta):
        if not (_value(r) > 0).all():
            raise ValueError(f"need r > 0, got r={r}")
        angles = _value(theta)
        if not ((angles > 0) & (angles < math.pi / 2)).all():
            raise ValueError(f"theta must lie in (0, pi/2), got {theta}")
        return super().__new__(cls, r, theta)


class FrameData(namedtuple("FrameData", "v1 v2 det")):
    """(v_1, v_2) and their determinant; leading axes are the batch axes.

    ``v1`` and ``v2`` have shape S + (2,), ``det`` shape S.
    """

    __slots__ = ()


class MetricSample:
    """g, omega and J at a point or batch, in the (r, theta, t1, t2) basis.

    Each field has shape S + (4, 4) and is built from the frame when it is
    first read, so a check pays only for the fields it reads.  omega and J
    vanish outside three 2 x 2 blocks, each of shape S + (2, 2) and built
    on first read too: ``omega_block`` (rows r, theta; columns t1, t2),
    ``J_upper`` (the same rows and columns of J) and ``J_lower`` (rows t1,
    t2; columns r, theta).  ``omega`` and ``J`` are assembled from them.
    A sample at jet coordinates gives jets of g and of the three blocks.
    """

    def __init__(self, frame: FrameData, r, s, c):
        v1, v2, D = frame.v1, frame.v2, frame.det
        parts = (r, s, c, D, v1[..., 0], v1[..., 1], v2[..., 0], v2[..., 1])
        self._parts = parts if r.shape == s.shape == D.shape else np.broadcast_arrays(*parts)

    def values(self):
        """The sample at the value parts of jet coordinates, with no field built yet."""
        sample = object.__new__(MetricSample)
        sample._parts = tuple(_value(part) for part in self._parts)
        return sample

    @cached_property
    def g(self):
        r, s, c, D, v1x, v1y, v2x, v2y = self._parts
        rr, sc = r * r, s * c
        g = _new_like(D, D.shape + (4, 4), np.zeros)
        g[..., 0, 0] = D / sc
        g[..., 1, 1] = rr * D / sc
        factor = rr * s * c / D
        g[..., 2, 2] = factor * (v1y ** 2 + v2y ** 2)
        g[..., 3, 3] = factor * (v1x ** 2 + v2x ** 2)
        g[..., 2, 3] = g[..., 3, 2] = -factor * (v1x * v1y + v2x * v2y)
        return g

    @cached_property
    def omega_block(self):
        r, _, _, _, v1x, v1y, v2x, v2y = self._parts
        return _block(-r * v2y, r * v2x, r * r * v1y, -r * r * v1x)

    @cached_property
    def J_upper(self):
        r, s, c, D, v1x, v1y, v2x, v2y = self._parts
        # Tangent action, omega(X, Y) = g(JX, Y): row i is minus the image of dx^i.
        rsc, sc = r * s * c, s * c
        return _block(rsc * v2y / D, -(rsc * v2x / D), -(sc * v1y / D), sc * v1x / D)

    @cached_property
    def J_lower(self):
        r, s, c, _, v1x, v1y, v2x, v2y = self._parts
        rsc, sc = r * s * c, s * c
        return _block(-v1x / rsc, -v2x / sc, -v1y / rsc, -v2y / sc)

    @cached_property
    def omega(self):
        omega = np.zeros(self._parts[0].shape + (4, 4))
        omega[..., :2, 2:] = self.omega_block
        omega -= omega.swapaxes(-1, -2)
        return omega

    @cached_property
    def J(self):
        J = np.zeros(self._parts[0].shape + (4, 4))
        J[..., :2, 2:] = self.J_upper
        J[..., 2:, :2] = self.J_lower
        return J


def _block(m00, m01, m10, m11):
    """The 2 x 2 matrices [[m00, m01], [m10, m11]], shape S + (2, 2)."""
    block = _new_like(m00, m00.shape + (2, 2), np.empty)
    block[..., 0, 0], block[..., 0, 1], block[..., 1, 0], block[..., 1, 1] = m00, m01, m10, m11
    return block


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
    """Float form of monopole data; returns converted data unchanged.

    A finite level beyond the float range is refused before numpy runs.
    """
    if isinstance(data, NumericMonopole):
        return data
    # Only y_0 may be inf.  A Fraction is finite by its type and is never
    # compared with inf, which would convert inf to a Fraction first.
    y0 = data.levels[0]
    start = int(not isinstance(y0, Fraction) and y0 == math.inf)
    finite = data.levels[start:]
    if any(abs(y) > FLOAT_MAX_INT for y in finite):
        raise ValueError("every finite level must lie within the float range")
    pairs = np.array(data.pairs, dtype=float).reshape(-1, 2)
    return NumericMonopole(
        source=data,
        levels=np.array([float(y) for y in finite]),
        pairs=pairs[start:],
        v2_const=-0.5 * pairs[:start].sum(axis=0),
    )


def from_polar(p: PolarPoint):
    """Half-space coordinates (x, y) = r^-2 (sin 2theta, cos 2theta)."""
    rho = _real(p.r) ** -2.0
    return rho * np.sin(2 * p.theta), rho * np.cos(2 * p.theta)


def v_eval(data, x, y) -> FrameData:
    """Evaluate (v_1, v_2) and their determinant at points (x, y).

    ``x`` and ``y`` broadcast to the batch shape S.  An infinite level
    contributes zero to v_1 and the constant -(a_0, b_0)/2 to v_2 (the
    limit of the finite formula).
    """
    data = as_numeric(data)
    x, y = _real(x), _real(y)
    x, y = (x, y) if x.shape == y.shape else np.broadcast_arrays(x, y)
    if not (_value(x) > 0).all():
        raise ValueError(f"need x > 0, got {_value(x)}")
    dy = y[..., None] - data.levels
    f = np.sqrt((x * x)[..., None] + dy * dy)
    # The level weights of v_2 and of v_1 / (x/2), dy/f and 1/f, each
    # summed against the charges as one (S, m) @ (m, 2) product.  Halving
    # is exact, so (dy/f)/2 has the bits of dy/(2f).
    dy /= f
    f = 1.0 / f
    v1 = (x / 2)[..., None] * (f @ data.pairs)
    v2 = (dy @ data.pairs) / 2 + data.v2_const
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
    D = _value(frame.det)
    if (D <= 0).any():
        i = np.unravel_index(np.argmax(D <= 0), D.shape)
        r0, t0 = (float(np.broadcast_to(_value(v), D.shape)[i]) for v in (p.r, p.theta))
        raise ValueError(f"invalid monopole data: determinant <= 0 at {np.sum(D <= 0)} of "
                         f"{D.size} points, min {np.min(D):.6g}, first r={r0:.6g} theta={t0:.6g}")
    return MetricSample(frame, _real(p.r), s, c)


def flat_metric_matrix(p: PolarPoint) -> np.ndarray:
    """The flat model dr^2 + r^2 dtheta^2 + r^2(s^2 dt1^2 + c^2 dt2^2)."""
    r = np.asarray(p.r, dtype=float)
    s, c = np.sin(p.theta), np.cos(p.theta)
    diag = np.empty(np.broadcast(r, s).shape + (4,))
    diag[..., 0], diag[..., 1], diag[..., 2], diag[..., 3] = 1.0, r ** 2, (r * s) ** 2, (r * c) ** 2
    return diag[..., None] * _constants().eye4


@cache
def _constants():
    """Arrays fixed by this module, built on first use (numpy loads lazily), read-only."""
    flat = as_numeric(flat_monopole())
    const = types.SimpleNamespace(
        fit_radii=np.geomspace(10.0, 1000.0, 25), fit_thetas=np.linspace(0.3, math.pi / 2 - 0.3, 5),
        potential_thetas=np.linspace(THETA_MARGIN, math.pi / 2 - THETA_MARGIN, 7), eye4=np.eye(4))
    for array in (*vars(const).values(), flat.levels, flat.pairs, flat.v2_const):
        array.flags.writeable = False
    const.flat = flat
    return const


# ---------------------------------------------------------------------------
# Taylor jets


class Jet:
    """A function of two coordinates and its partial derivatives, on a batch.

    ``value`` has the value's shape V; ``parts``, of shape (2,) + V at order
    1 and (6,) + V at order 2, holds the gradient and then the Hessian rows.
    Each operation applies the sum, product, quotient or chain rule to all
    the parts in a few numpy calls, and computes the value part with the
    float operation itself.  A jet stands first in each operation, or after
    a Python number; both jets of an operation have one order.
    """

    __slots__ = ("value", "parts")
    shape = property(lambda self: self.value.shape)
    grad = property(lambda self: self.parts[:2])

    def __init__(self, value, parts):
        self.value, self.parts = value, parts

    @classmethod
    def variables(cls, u0, u1, order: int = 1):
        """The coordinates as jets of ``order`` (1 or 2) at the points (u0, u1)."""
        u0, u1 = np.asarray(u0, dtype=float), np.asarray(u1, dtype=float)
        u0, u1 = (u0, u1) if u0.shape == u1.shape else np.broadcast_arrays(u0, u1)
        parts = np.zeros((2, 2 if order == 1 else 6) + u0.shape)
        parts[0, 0] = parts[1, 1] = 1.0
        return cls(u0, parts[0]), cls(u1, parts[1])

    def _padded(self, ndim: int):
        """``parts`` with batch axes in front up to ``ndim``, so that it broadcasts."""
        pad, parts = ndim - self.value.ndim, self.parts
        return parts.reshape(parts.shape[:1] + (1,) * pad + parts.shape[1:]) if pad else parts

    def _chain(self, value, d1, d2):
        """phi(self), from the value of phi and phi', phi'' at this jet's value."""
        inner = self._padded(value.ndim)
        parts = d1 * inner
        if len(parts) > 2:
            parts[2:] += 0.5 * d2 * _symmetric(inner, inner)
        return Jet(value, parts)

    def __add__(self, other):
        if isinstance(other, Jet):
            value = self.value + other.value
            return Jet(value, self._padded(value.ndim) + other._padded(value.ndim))
        value = self.value + other
        parts = self._padded(value.ndim)  # an array constant may widen the value
        return Jet(value, parts if value.shape == self.value.shape
                   else np.broadcast_to(parts, parts.shape[:1] + value.shape))

    __neg__ = lambda self: Jet(-self.value, -self.parts)
    __sub__ = lambda self, other: self + -other  # x - y and x + (-y) round alike
    __matmul__ = lambda self, matrix: Jet(self.value @ matrix, self.parts @ matrix)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            value = self.value * other
            return Jet(value, self._padded(value.ndim) * other)
        value = self.value * other.value
        a, b = self._padded(value.ndim), other._padded(value.ndim)
        parts = a * other.value + self.value * b
        if len(parts) > 2:
            parts[2:] += _symmetric(a, b)
        return Jet(value, parts)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            value = self.value / other
            return Jet(value, self._padded(value.ndim) / other)
        # q = a/b from a = q b: q' = (a' - q b')/b and q'' = (a'' - q b'' - sym(q' b'))/b.
        value = self.value / other.value
        b = other._padded(value.ndim)
        parts = (self._padded(value.ndim) - value * b) / other.value
        if len(parts) > 2:
            parts[2:] -= _symmetric(parts, b) / other.value
        return Jet(value, parts)

    def __rtruediv__(self, other):
        value = other / self.value
        d1 = -value / self.value
        return self._chain(value, d1, -2.0 * d1 / self.value)

    def __pow__(self, p):
        u = self.value
        return self._chain(u ** p, p * u ** (p - 1), p * (p - 1) * u ** (p - 2))

    def __getitem__(self, index):
        index = index if isinstance(index, tuple) else (index,)
        return Jet(self.value[index], self.parts[(slice(None),) + index])

    def __setitem__(self, index, item):
        index = index if isinstance(index, tuple) else (index,)
        self.value[index], self.parts[(slice(None),) + index] = item.value, item.parts

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        """np.sqrt, np.sin or np.cos of a jet; any other ufunc refuses a jet."""
        rule = _JET_RULES.get(ufunc.__name__)
        if method != "__call__" or kwargs or len(inputs) != 1 or rule is None:
            return NotImplemented
        value = ufunc(self.value)
        return self._chain(value, *rule(self.value, value))


# phi' and phi'' of the ufuncs a jet takes, from u and the value v = phi(u).
_JET_RULES = {"sqrt": lambda u, v: (0.5 / v, -0.25 / (v * u)),
              "sin": lambda u, v: (np.cos(u), -v),
              "cos": lambda u, v: (-np.sin(u), -v)}


def _symmetric(a, b):
    """a_i b_j + a_j b_i from the gradients of two parts arrays, as Hessian rows (4,) + V."""
    product = a[:2, None] * b[None, :2]
    return (product + product.swapaxes(0, 1)).reshape((4,) + product.shape[2:])


def _new_like(like, shape, make):
    """``make(shape)`` (np.zeros or np.empty), or a jet of such arrays if ``like`` is one."""
    if isinstance(like, Jet):
        return Jet(make(shape), make(like.parts.shape[:1] + shape))
    return make(shape)


def _value(u):
    """The value part of a jet, or ``u`` as an array."""
    return u.value if isinstance(u, Jet) else np.asarray(u)


def _real(u):
    """A jet as it is, anything else as a float array."""
    return u if isinstance(u, Jet) else np.asarray(u, dtype=float)


# ---------------------------------------------------------------------------
# verification checks


class Residual(namedtuple("Residual", "value terms")):
    """A check's value at each point and the magnitude of the terms that cancel in it.

    eps times ``terms`` estimates the scale of the value's roundoff.
    """

    __slots__ = ()


def monopole_residual(data, x, y) -> Residual:
    """Residual of the defining linear system at (x, y), from jets of :func:`v_eval`.

    Checks d(v_1)/dy - d(v_2)/dx and x d(v_1)/dx + x d(v_2)/dy - v_1,
    with first-order jets in (x, y).  The value is the largest component
    at each point, and the terms the largest sum of magnitudes.
    """
    data = as_numeric(data)
    jx, jy = Jet.variables(x, y)
    frame = v_eval(data, jx, jy)
    v1, (v1_x, v1_y), (v2_x, v2_y) = frame.v1.value, frame.v1.grad, frame.v2.grad
    xs = jx.value[..., None]
    res1, terms1 = v1_y - v2_x, np.abs(v1_y) + np.abs(v2_x)
    res2 = xs * v1_x + xs * v2_y - v1
    terms2 = np.abs(xs * v1_x) + np.abs(xs * v2_y) + np.abs(v1)
    return Residual(np.maximum(np.abs(res1).max(axis=-1), np.abs(res2).max(axis=-1)),
                    np.maximum(terms1.max(axis=-1), terms2.max(axis=-1)))


def kahler_residual(data, p: PolarPoint) -> dict:
    """Maximum relative residual of d(omega) = 0 and d(J dt) = 0.

    omega has components only in dr^dt_i and dtheta^dt_i depending on
    (r, theta), so d(omega) reduces to dr(omega_{theta t_i}) -
    dtheta(omega_{r t_i}); similarly d(J dt_i) reduces to one dr^dtheta
    coefficient per i, dr((J dt_i)_theta) - dtheta((J dt_i)_r), where
    (J dt_i)_j = -J[t_i, j].  The derivatives come from first-order jets
    in (r, theta).  Residuals are normalised by the magnitudes of the
    cancelling terms, worst over the points of ``p``.
    """
    data = as_numeric(data)
    sample = metric_at(data, PolarPoint(*Jet.variables(p.r, p.theta)))
    omega, J = sample.omega_block, sample.J_lower

    def worst(along_r, along_theta):
        # Normalise by the cancelling terms, falling back to the field
        # magnitudes when both derivatives vanish identically (as they
        # do for the flat datum).
        t1, t2 = along_r.grad[0], along_theta.grad[1]
        scale = np.maximum(np.maximum(np.abs(t1) + np.abs(t2), np.abs(along_r.value)),
                           np.abs(along_theta.value))
        return float((np.abs(t1 - t2) / np.maximum(scale, 1e-12)).max())

    return {"max_domega": worst(omega[..., 1, :], omega[..., 0, :]),
            "max_dintegrability": worst(J[..., :, 1], J[..., :, 0])}


def scalar_curvature_at(data, p: PolarPoint) -> Residual:
    """Scalar curvature from a second-order jet of the metric in (r, theta).

    The metric depends only on (r, theta); the torus directions are
    Killing, so all derivatives are taken in the first two coordinates.
    One value per point of ``p``.
    """
    data = as_numeric(data)
    return scalar_curvature_generic(
        metric_at(data, PolarPoint(*Jet.variables(p.r, p.theta, order=2))).g)


def scalar_curvature_generic(g: Jet) -> Residual:
    """Scalar curvature of a metric depending on its first two coordinates.

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


def _fit_grid(data, r_samples, theta_samples):
    """The sorted radii, E = <v_1,v_2>/(q s c) - 1 on the (r, theta) grid and
    the angular design (sin^2, cos^2) at the sorted thetas."""
    data = as_numeric(data)
    r_samples = np.asarray(sorted(r_samples), dtype=float)
    theta_samples = np.asarray(sorted(theta_samples), dtype=float)
    if len(r_samples) < 10:
        raise ValueError("need at least 10 radii for the asymptotic fit")
    if len(theta_samples) < 2:
        raise ValueError("need at least two interior theta values")
    q = data.source.pq()[1]

    det = v_eval(data, *from_polar(PolarPoint(r_samples[:, None], theta_samples))).det
    s, c = np.sin(theta_samples), np.cos(theta_samples)
    return r_samples, det / (q * s * c) - 1.0, np.array([s ** 2, c ** 2]).T


def fit_log_coeffs(data, r_samples, theta_samples) -> dict:
    """Least-squares (a, b) from the r^-2 term of the determinant.

    At each theta, fit <v_1,v_2>/(q s c) - 1 = K/r^2 + L/r^4 over the
    radii, then solve K(theta) = a sin^2 + b cos^2 across the thetas.
    The two-term radial fit removes the leading bias of the neglected
    r^-4 tail.  :func:`fit_series` gives the one-radius estimates.
    """
    r_samples, E, S = _fit_grid(data, r_samples, theta_samples)
    A = np.array([r_samples ** -2.0, r_samples ** -4.0]).T
    K = np.linalg.lstsq(A, E, rcond=None)[0][0]
    ab = np.linalg.lstsq(S, K, rcond=None)[0]
    return {"a_fit": float(ab[0]), "b_fit": float(ab[1])}


def potential_residual(data, r):
    """Pointwise metric norm of omega - d(J df), worst over theta, per radius.

    f is the analytic asymptotic potential built from the exact log
    coefficients of the data, J df = f_r J dr + f_theta J dtheta is taken
    from :func:`metric_at`, and its exterior derivative from first-order
    jets in (r, theta).  The norm is the metric norm of the 2-form, so the
    expected decay is r^-4.  ``r`` is a radius or an array of them; all
    radii and seven thetas across the interior form one batch, evaluated
    once.  g and the block of omega are read at the value parts, and only
    the two torus components of J df are differentiated (the others
    vanish).
    """
    data = as_numeric(data)
    theta_samples = _constants().potential_thetas
    a, b = float(data.exact.a), float(data.exact.b)
    q = data.source.pq()[1]
    rad, theta = Jet.variables(*np.broadcast_arrays(np.asarray(r, dtype=float)[..., None],
                                                    theta_samples))
    sample = metric_at(data, PolarPoint(rad, theta))
    # The (t1, t2) components of J df: J dx^i has components -J[..., i, :],
    # and its (r, theta) ones vanish.
    J = sample.J_upper
    f_r = q * (rad / 2 + (a + b) / (2 * rad))
    f_th = -q * (a - b) * np.sin(theta) * np.cos(theta) / 2
    jdf = -(f_r[..., None] * J[..., 0, :] + f_th[..., None] * J[..., 1, :])
    plain = sample.values()
    R = np.zeros(rad.shape + (4, 4))
    omega = plain.omega_block
    R[..., 0, 2:], R[..., 1, 2:] = omega[..., 0, :] - jdf.grad[0], omega[..., 1, :] - jdf.grad[1]
    R -= R.swapaxes(-1, -2)
    return form2_norm(R, plain.g).max(axis=-1)


def form2_norm(R: np.ndarray, g: np.ndarray):
    """Metric norm of an antisymmetric 2-form: sqrt(-tr(GRGR)/2)."""
    G = np.linalg.inv(g)
    val = -0.5 * (G @ R @ G @ R).trace(axis1=-2, axis2=-1)
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


class VerificationReport(namedtuple("VerificationReport", "p q levels seed samples checks exact")):
    """The checks of :func:`verify_metric`; ``exact`` is the exact (a, b, mu).

    The series of ``metric-verify --csv`` and ``--fit-csv`` are not part
    of it: :func:`decay_series` and :func:`fit_series` compute them from
    its p, q and levels when asked.
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
    Jt = J.swapaxes(-1, -2)
    Jtg, terms = Jt @ g, np.abs(Jt) @ np.abs(g)
    tiny = sys.float_info.min
    worst = np.maximum(np.maximum(
        _max_entry(J @ J + _constants().eye4),
        _max_entry(np.abs(Jtg @ J - g) / np.maximum(terms @ np.abs(J), tiny))),
        _max_entry(np.abs(sample.omega - Jtg) / np.maximum(terms, tiny)))
    return np.where(np.linalg.eigvalsh(g).min(axis=-1) > 0, worst, np.maximum(worst, 1.0))


def _worst_point_check(name: str, residual: Residual, tolerance: float) -> CheckResult:
    """The check of the largest |value|, with eps times its cancelling terms as the detail."""
    i = int(np.abs(residual.value).argmax())
    worst = float(abs(residual.value[i]))
    return CheckResult(name, worst, tolerance, worst < tolerance,
                       detail=f"roundoff scale {sys.float_info.epsilon * residual.terms[i]:.2e}")


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
        If ``p``, ``q``, ``samples`` or ``seed`` is not an integer (a bool
        is refused).
    ValueError
        If ``samples`` is below 1 or above ``MAX_SAMPLES``, if ``seed`` is
        negative, if q exceeds ``MAX_Q`` or p/q needs more than
        ``MAX_LEVELS`` levels, if the levels do not fit the chain, or if a
        finite level or the exact a, b or mu has no finite float.
    """
    p, q = integer_field(p, "p"), integer_field(q, "q")
    samples = integer_field(samples, "samples")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be at most {MAX_SAMPLES}, got {samples}")
    seed = integer_field(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if q > MAX_Q:
        raise ValueError(f"q = {q} is above 2**53, where floats cannot hold the charges exactly")
    k = hj_length(p, q)
    if k + 2 > MAX_LEVELS:
        raise ValueError(f"{p}/{q} needs {k + 2} levels, more than the {MAX_LEVELS} supported")
    # The level refusals are exact, so they come before numpy is loaded.
    data = monopole_from_fraction(p, q, default_levels(k) if levels is None else levels)
    num = as_numeric(data)
    # An overflow in a batch leaves an inf or NaN, which fails a check or
    # makes the monopole data invalid (a ValueError); numpy's warning adds
    # nothing.
    with np.errstate(all="ignore"):
        rng = np.random.default_rng(seed)
        exact = num.exact
        check_float_range(exact)
        checks = []

        # Flat-model exactness: evaluator versus the closed-form flat metric.
        flat_pts = sample_batch(rng, samples, 0.2, 30.0)
        expected = flat_metric_matrix(flat_pts)
        deviation = _max_entry(metric_at(_constants().flat, flat_pts).g - expected)
        worst = float((deviation / np.maximum(1.0, _max_entry(expected))).max())
        checks.append(CheckResult("flat-model-exactness", worst, TOL_CLOSED_FORM,
                                  worst < TOL_CLOSED_FORM))

        points = sample_batch(rng, samples, 1.0, 5.0)

        # Determinant positivity on the sample grid.
        min_det = float(v_eval(num, *from_polar(points)).det.min())
        checks.append(CheckResult("determinant-positive", min_det, 0.0, min_det > 0.0,
                                  detail="minimum of <v1,v2> over samples"))

        # Monopole system residual, from jets (an independent route).
        checks.append(_worst_point_check(
            "monopole-system", monopole_residual(num, *from_polar(_head(points, 50))), TOL_MONOPOLE))

        # Algebraic invariants of each sample.
        worst = float(invariant_residual(metric_at(num, _head(points, 100))).max())
        checks.append(CheckResult("metric-invariants", worst, TOL_INVARIANT, worst < TOL_INVARIANT))

        # Kähler residuals.
        res = kahler_residual(num, _head(points, 100))
        checks.append(CheckResult("domega-residual", res["max_domega"], TOL_FIRST_DERIV,
                                  res["max_domega"] < TOL_FIRST_DERIV))
        checks.append(CheckResult("integrability-residual", res["max_dintegrability"],
                                  TOL_FIRST_DERIV, res["max_dintegrability"] < TOL_FIRST_DERIV))

        # Scalar flatness.
        checks.append(_worst_point_check(
            "scalar-curvature", scalar_curvature_at(num, _head(points, CURVATURE_POINTS)),
            TOL_CURVATURE))

        # Asymptotic fit against the exact coefficients.
        fit = fit_log_coeffs(num, _constants().fit_radii, _constants().fit_thetas)
        scale = max(1.0, abs(float(exact.a)), abs(float(exact.b)))
        err = max(abs(fit["a_fit"] - float(exact.a)), abs(fit["b_fit"] - float(exact.b))) / scale
        fit_ok = err < TOL_FIT_RELATIVE
        checks.append(CheckResult("asymptotic-fit", err, TOL_FIT_RELATIVE, fit_ok,
                                  detail=f"a_fit={fit['a_fit']:.6g} b_fit={fit['b_fit']:.6g}"))

        # Potential residual decay: ratio across doubled radii near 2^-4.
        residuals = [float(x) for x in potential_residual(num, np.array(DECAY_RADII))]
        ratios = [residuals[i + 1] / residuals[i] for i in range(len(residuals) - 1)]
        # The data is never flat, so there is always a decay to measure:
        # float(exact.a) < 0.  With 0 < p < q, k >= 1.  The k + 1 steps
        # m_{j+1} - m_j of the chain never shrink (cfrac docstring) and sum
        # to q, so the last is q - m_k >= q/(k+1).  Every c_j = 1/y_j >= 0,
        # and c_k >= 1/FLOAT_MAX_INT since larger finite levels are refused.
        # So q a = sum c_j (m_j - m_{j+1}) gives a <= -c_k/(k+1) <=
        # -1/(FLOAT_MAX_INT (MAX_LEVELS - 1)) ~ -8.8e-311, which float()
        # keeps nonzero (subnormals reach 4.9e-324).
        ratio_err = max(abs(rt * 16.0 - 1.0) for rt in ratios)
        ratio_ok = ratio_err < TOL_DECAY
        checks.append(CheckResult("potential-decay", ratio_err, TOL_DECAY, ratio_ok,
                                  detail=f"residuals={['%.3g' % rr for rr in residuals]}"))

        # Fitted mass sign against the exact sign verdict.  The zero band
        # grows with |a| and |b|, so a sign read off a fit that missed them
        # says nothing: the check also needs the asymptotic fit to pass.
        mu_fit = fit["a_fit"] + fit["b_fit"]
        sign_exact = mass_sign(p, q)
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
            exact=exact,
        )


def _report_data(report: VerificationReport) -> NumericMonopole:
    return as_numeric(monopole_from_fraction(report.p, report.q, report.levels))


def decay_series(report: VerificationReport) -> tuple:
    """(r, residual) pairs of :func:`potential_residual` on the radii ``SERIES_RADII``.

    Computed from the p, q and levels of a :func:`verify_metric` report.
    """
    with np.errstate(all="ignore"):
        radii = np.geomspace(*SERIES_RADII)
        return tuple((float(r), float(res))
                     for r, res in zip(radii, potential_residual(_report_data(report), radii)))


def fit_series(report: VerificationReport) -> tuple:
    """(r, a_est, b_est) triples: at each radius of the asymptotic fit's grid,
    r^2 (<v_1,v_2>/(q s c) - 1) = a sin^2 + b cos^2 fitted across its thetas.

    Computed from the p, q and levels of a :func:`verify_metric` report.
    """
    with np.errstate(all="ignore"):
        radii, E, S = _fit_grid(_report_data(report), _constants().fit_radii,
                                _constants().fit_thetas)
        per_radius = np.linalg.lstsq(S, (E * radii[:, None] * radii[:, None]).T, rcond=None)[0]
    return tuple((float(rr), float(a), float(b)) for rr, a, b in zip(radii, *per_radius))
