"""Exact combinatorics and numerical verification for scalar-flat Kähler
surgery on blown-up ruled surfaces.

The package has three layers:

* exact integer/rational kernels: Hirzebruch-Jung continued fractions
  (:mod:`cscglue.cfrac`), exceptional-curve chains and blow-downs
  (:mod:`cscglue.resolution`), ALE log-term coefficients and masses
  (:mod:`cscglue.logmass`);
* exact classification: parabolic slopes and polystability
  (:mod:`cscglue.parabolic`), orbifold bases, the gluing matrix of at
  most one row and its feasibility from that row's rank and a
  closed-form positive-kernel test (:mod:`cscglue.gluing`,
  :mod:`cscglue.exactlp`);
* floating-point verification of the explicit torus-symmetric
  scalar-flat Kähler ansatz and its ALE asymptotics
  (:mod:`cscglue.metricnum`).

Everything upstream of :mod:`cscglue.metricnum` is exact: no verdict in
the classification pipeline depends on floating point.
"""

from cscglue.cfrac import HJExpansion, hj_expand
from cscglue.resolution import (
    blow_down_fully,
    blowup_count,
    fiber_chain,
    format_chain,
    singular_strings,
)
from cscglue.logmass import (
    LogCoefficients,
    MassVerdict,
    MonopoleData,
    blowup_insert,
    flat_monopole,
    log_coeffs_from_levels,
    mass_verdict,
    monopole_from_chain,
    monopole_from_fraction,
    mu_from_chain,
    mu_from_u,
)
from cscglue.parabolic import (
    ParabolicSurface,
    SectionData,
    StabilityKind,
    StabilityVerdict,
    classify,
    is_sporadic,
)
from cscglue.gluing import (
    FixType,
    GluingReport,
    GluingVerdict,
    OrbifoldSurface,
    PipelineReport,
    chi_orb,
    existence_report,
    feasibility,
    gluing_matrix,
    is_good,
    orbifold_from_parabolic,
)

__version__ = "0.1.0"

__all__ = [
    "HJExpansion",
    "hj_expand",
    "fiber_chain",
    "blow_down_fully",
    "blowup_count",
    "singular_strings",
    "format_chain",
    "MonopoleData",
    "LogCoefficients",
    "MassVerdict",
    "monopole_from_chain",
    "monopole_from_fraction",
    "flat_monopole",
    "log_coeffs_from_levels",
    "mu_from_u",
    "mu_from_chain",
    "blowup_insert",
    "mass_verdict",
    "ParabolicSurface",
    "SectionData",
    "StabilityKind",
    "StabilityVerdict",
    "classify",
    "is_sporadic",
    "OrbifoldSurface",
    "FixType",
    "GluingVerdict",
    "GluingReport",
    "PipelineReport",
    "orbifold_from_parabolic",
    "chi_orb",
    "is_good",
    "gluing_matrix",
    "feasibility",
    "existence_report",
    "__version__",
]
