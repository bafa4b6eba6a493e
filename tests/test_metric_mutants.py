"""Each differentiating check of verify_metric fails on a wrong frame.

The monopole-system, Kähler, scalar-curvature and potential-decay checks
differentiate the implemented frame, so their power is shown by mutants
of it: a basic solution off the monopole system, a torus entry of G or
the dtheta^2 entry of h scaled by 1 + eps r^2, a sign flip in one entry
of omega or J, and the potential's cos^2 coefficient doubled.  Each
mutant replaces a public function or attribute of ``metricnum``
(``v_eval``, the blocks ``MetricSample.G``, ``MetricSample.h``,
``omega_block``, ``J_upper`` and ``J_lower``, ``NumericMonopole.exact``)
with code that runs on floats and on jets alike, and the check it
targets must fail with every other setting at its default.
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
        return FrameData(v1=v1, v2=v2)

    return v_eval


@pytest.mark.parametrize("pq", FRACTIONS)
@pytest.mark.parametrize("eps", [1e-4, 1e-6])
def test_monopole_system_fails_off_the_system(pq, eps, monkeypatch):
    monkeypatch.setattr(metricnum, "v_eval", off_system_v_eval(eps))
    assert "monopole-system" in failed_checks(pq)


def scaled(field, entry, eps):
    """MetricSample.<field> with one entry times 1 + eps r^2."""
    plain = getattr(MetricSample, field).func
    index = (Ellipsis,) + entry

    def build(sample):
        block = plain(sample)
        block[index] = block[index] * (sample.parts.r * sample.parts.r * eps + 1)
        return block

    return property(build)


@pytest.mark.parametrize("pq", FRACTIONS)
@pytest.mark.parametrize("eps", [1e-4, 1e-6])
def test_scalar_curvature_fails_on_a_scaled_torus_entry(pq, eps, monkeypatch):
    monkeypatch.setattr(MetricSample, "G", scaled("G", (0, 0), eps))
    assert "scalar-curvature" in failed_checks(pq)


@pytest.mark.parametrize("pq", FRACTIONS)
@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_scalar_curvature_fails_on_a_scaled_h_thetatheta(pq, eps, monkeypatch):
    # The curvature reads E and F as separate jets, so a fault in
    # F = h_thetatheta alone is seen: it is not rebuilt as r^2 E.  Its
    # curvature is about 100 times smaller than a torus entry's at one eps
    # (7.9e-7 at eps = 1e-6 on 21/22), so eps starts at 1e-3 to clear the
    # 1e-4 tolerance.
    monkeypatch.setattr(MetricSample, "h", scaled("h", (1,), eps))
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
