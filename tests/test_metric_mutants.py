"""Each differentiating check of verify_metric fails on a wrong frame.

The monopole-system, Kähler, scalar-curvature and potential-decay checks
differentiate the implemented frame, so their power is shown by mutants
of it: a basic solution off the monopole system, a torus entry of g
scaled by 1 + eps r^2, a sign flip in one entry of omega or J, and the
potential's cos^2 coefficient doubled.  Each mutant replaces a public
function or attribute of ``metricnum`` (``v_eval``, ``MetricSample.g``
and the blocks of omega and J, ``NumericMonopole.exact``) with code that
runs on floats and on jets alike, and the check it targets must fail
with every other setting at its default.
"""

import numpy as np
import pytest

from cscglue import metricnum
from cscglue.metricnum import FrameData, MetricSample, NumericMonopole, as_numeric, verify_metric

FRACTIONS = ((1, 2), (4, 9), (21, 22))


def failed_checks(pq):
    return {c.name for c in verify_metric(*pq).checks if not c.passed}


def off_system_v_eval(eps):
    """v_eval with each basic solution's radius sqrt(x^2 + (y - a)^2 + eps)."""

    def v_eval(data, x, y):
        data = as_numeric(data)
        dy = y[..., None] - data.levels
        f = np.sqrt((x * x)[..., None] + dy * dy + eps)
        v1 = (x / 2)[..., None] * ((1.0 / f) @ data.pairs)
        v2 = ((dy / f) @ data.pairs) / 2 + data.v2_const
        return FrameData(v1=v1, v2=v2, det=v1[..., 0] * v2[..., 1] - v1[..., 1] * v2[..., 0])

    return v_eval


@pytest.mark.parametrize("pq", FRACTIONS)
@pytest.mark.parametrize("eps", [1e-4, 1e-6])
def test_monopole_system_fails_off_the_system(pq, eps, monkeypatch):
    monkeypatch.setattr(metricnum, "v_eval", off_system_v_eval(eps))
    assert "monopole-system" in failed_checks(pq)


@pytest.mark.parametrize("pq", FRACTIONS)
@pytest.mark.parametrize("eps", [1e-4, 1e-6])
def test_scalar_curvature_fails_on_a_scaled_torus_entry(pq, eps, monkeypatch):
    plain = MetricSample.g.func

    def scaled(sample):
        g = plain(sample)
        r2 = g[..., 1, 1] / g[..., 0, 0]  # g_thetatheta = r^2 g_rr
        g[..., 2, 2] = g[..., 2, 2] * (r2 * eps + 1)
        return g

    monkeypatch.setattr(MetricSample, "g", property(scaled))
    assert "scalar-curvature" in failed_checks(pq)


@pytest.mark.parametrize("pq", FRACTIONS)
@pytest.mark.parametrize("block, entry, check", [
    ("omega_block", (0, 0), "domega-residual"),
    ("omega_block", (1, 1), "domega-residual"),
    ("J_lower", (1, 0), "integrability-residual"),
    ("J_lower", (0, 1), "integrability-residual"),
], ids=["omega_r_t1", "omega_theta_t2", "J_t2_r", "J_t1_theta"])
def test_kahler_checks_fail_on_a_sign_flip(pq, block, entry, check, monkeypatch):
    plain = getattr(MetricSample, block).func
    index = (Ellipsis,) + entry

    def flipped(sample):
        matrix = plain(sample)
        matrix[index] = -matrix[index]
        return matrix

    monkeypatch.setattr(MetricSample, block, property(flipped))
    assert check in failed_checks(pq)


@pytest.mark.parametrize("pq", FRACTIONS)
def test_potential_decay_fails_on_a_wrong_cos2_coefficient(pq, monkeypatch):
    # (a, b) -> (a + d, b - d) with d = (a - b)/2 keeps the log coefficient
    # (a + b)/2 and doubles the cos^2 coefficient (a - b)/4.
    plain = NumericMonopole.exact.func

    def doubled(data):
        exact = plain(data)
        d = (exact.a - exact.b) / 2
        return exact._replace(a=exact.a + d, b=exact.b - d)

    monkeypatch.setattr(NumericMonopole, "exact", property(doubled))
    assert "potential-decay" in failed_checks(pq)
