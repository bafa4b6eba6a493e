"""Frozen verify_metric results at the defaults (samples=200, seed=0).

The values were recorded before the finite-difference stencils were
evaluated in one batched call per check.  Below 16 levels, changing how
the points are batched must not change a single bit of any check value,
detail string or potential-residual series entry; a change that moves
them is a change of results, not of speed.  At 16 or more levels
OpenBLAS may sum the level charges of a batch of another size in
another order, so a rebatching may move roundoff there; each such move
is listed below as an intended change.

One intended change since: the scalar-curvature value and its
step-halving detail were re-recorded when the curvature contraction
moved from einsum over zero-padded derivative axes to matrix products
over the two live derivative directions.  The same stencil values are
summed in another order, so only the roundoff of the curvature moved;
it fell at 161/183 from 5.5e-6 to 3.0e-7 (the true value is 0), and no
value rose by more than 1e-7 over the coprime p/q with q <= 70.

A second intended change: every value of 21/22, 79/163 and 161/183 that
moved was re-recorded when v_eval began to sum the level charges as two
(S, m) @ (m, 2) products instead of one (S, 2, m) stack of S separate
2 x m products.  The terms are the same; for 16 or more levels OpenBLAS
adds them in another order, so only roundoff moved.  Over the 1,486
coprime p/q with q <= 70 that fit MAX_LEVELS, plus 79/163 and 161/183,
every value of the 1,319 fractions with fewer than 16 levels kept its
bits, no check changed pass/fail, and no value rose by more than 0.2 of
its tolerance (the most: monopole-system at 79/163, 3.03e-9 -> 4.86e-9,
0.18 of 1e-8).

A third intended change: the monopole-system detail of 21/22 was
re-recorded, 1.71e-10 -> 4.00e-10, when the step-halving checks stopped
evaluating every sample at h/4 and began to re-run only their worst
point at h/2, in a call of its own.  The points are the same floats;
at 16 or more levels OpenBLAS sums the charges of a one-point batch in
another order, so only the roundoff of the h/2 value moved.  Over every
coprime p/q with q <= 40 that fits MAX_LEVELS, plus 79/163 and 161/183,
at the defaults and at samples=17, seed=3 (982 reports), every check's
name, value, tolerance and pass/fail kept its bits, with the library's
BLAS threads and with one; 31 of the 1,964 step-halving details moved,
all at 16 or more levels, and this is the only golden one.

The series moved out of the report, and the decay check now runs
potential_residual on its three radii alone, not in one batch with the
twelve series radii: every check value and series entry kept its bits.

A fourth intended change: Taylor jets replaced the finite-difference
stencil, so every value of a check that differentiates was re-recorded,
and every other check kept its bits (flat-model-exactness,
determinant-positive, metric-invariants, asymptotic-fit, mass-sign, with
their details), and no check changed pass/fail.  The moved entries, at
every golden fraction and in the two CLI goldens:

- monopole-system value, and its detail, now "roundoff scale ..." in
  place of "step-halving change ...": 1/2 1.12e-11 -> 3.55e-15, 4/9
  8.08e-11 -> 1.42e-14, 13/14 2.61e-10 -> 2.84e-14, 17/21 2.57e-10 ->
  2.84e-14, 21/22 2.43e-10 -> 5.68e-14, 79/163 4.86e-9 -> 4.55e-13,
  161/183 1.43e-9 -> 4.55e-13;
- domega-residual value, 6.2e-13..5.3e-12 -> 3.6e-16..4.7e-16;
- integrability-residual value, 1.5e-12..1.7e-11 -> 4.9e-15..6.9e-15;
- scalar-curvature value and its detail, as for monopole-system: 1/2
  1.01e-7 -> 2.66e-13, 4/9 1.86e-9 -> 1.90e-12, 13/14 1.28e-8 ->
  6.64e-12, 17/21 3.80e-8 -> 1.51e-11, 21/22 2.08e-8 -> 1.63e-11,
  79/163 3.68e-8 -> 2.56e-11, 161/183 3.21e-7 -> 3.04e-10;
- potential-decay value (its detail kept its three digits), by at most
  0.3 % (13/14, 5.643e-3 -> 5.660e-3);
- every decay_series entry, by at most 1.6 % (21/22 at r = 160) and
  0.05 % or less at 1/2 and 4/9: the series lost the differencing error.

Every true value but potential-decay's is 0, and each now reads roundoff.

A fifth intended change: one first-order jet pass now serves the
metric-invariants, Kähler and potential-decay checks, over the first 100
samples followed by the 3 x 7 decay grid, in place of three passes over
100, 100 and 21 points.  The points are the same floats, but the level
charges are summed in one (121, m) @ (m, 2) product.  Over every coprime
p/q with q <= 70 that fits MAX_LEVELS, plus 79/163 and 161/183, at the
defaults and at samples=17, seed=3 (2,976 reports), every value of a
fraction with fewer than 16 levels kept its bits, and no detail string
or pass/fail changed.  278 of the 29,760 values moved, all at 16 or
more levels: metric-invariants by up to 7.2e-4 of its tolerance,
domega-residual by up to 7e-11 of it and potential-decay by up to
3.1e-7 of its value.  Two golden values moved, both potential-decay:
79/163 0.003820772565243047 -> 0.003820771450104843 and 161/183
0.004363192599866839 -> 0.004363191430161173.  The CLI goldens and
every decay_series entry kept their bits.

A sixth intended change: the checks moved from 4 x 4 matrices to the
2 x 2 blocks of g = h + G.  The scalar curvature is O'Neill's formula
for the submersion onto (r, theta), and its roundoff scale is eps times
that formula's addends, the det G ones times det G's cancellation factor
(the old scale read 5 to 25 times below the value).  The decay norm is
tr(h^-1 X G^-1 X^T) with a closed-form G^-1, in place of a 4 x 4
inverse.  Over every coprime p/q with q <= 40, plus 79/163 and 161/183,
at the defaults and at samples=17, seed=3 (982 reports), no check
changed pass/fail; flat-model-exactness, determinant-positive,
monopole-system, metric-invariants, domega, integrability,
asymptotic-fit and mass-sign kept every bit and detail; potential-decay
moved by at most 1.6e-9 of its value with every detail kept.  Re-recorded:
every scalar-curvature value and detail, here and in the CLI goldens
(1/2 2.69e-13 -> 2.44e-13, scale 4.95e-14 -> 9.27e-13; 161/183 3.05e-10
-> 2.59e-10, scale 1.22e-11 -> 5.16e-10); the potential-decay value of
every golden fraction but 4/9, by at most 4.0e-10 of it (13/14); and the
decay_series entries that moved, all of 1/2, 13/14, 21/22, 79/163 and
161/183, 7 of 4/9 and 10 of 17/21, by at most 3.8e-12 of their value
(21/22).
"""

import ast
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cscglue.cli import main
from cscglue.metricnum import decay_series, verify_metric

# The five metric-verify bench fractions plus the two worst-margin
# fractions with q < 200 (monopole-system at 79/163, scalar curvature
# at 161/183).
GOLDEN = {
    (1, 2): {
        "checks": (
            ('flat-model-exactness', 5.930161299704233e-16, 1e-12, True,
             ''),
            ('determinant-positive', 0.17611728871718316, 0.0, True,
             'minimum of <v1,v2> over samples'),
            ('monopole-system', 3.552713678800501e-15, 1e-08, True,
             'roundoff scale 3.31e-15'),
            ('metric-invariants', 4.199502420296989e-15, 1e-10, True,
             ''),
            ('domega-residual', 3.313125572882375e-16, 1e-06, True,
             ''),
            ('integrability-residual', 5.147484364359507e-15, 1e-06, True,
             ''),
            ('scalar-curvature', 2.438049762076844e-13, 0.0001, True,
             'roundoff scale 9.27e-13'),
            ('asymptotic-fit', 1.6527547725964098e-06, 0.01, True,
             'a_fit=-0.750002 b_fit=0.750002'),
            ('potential-decay', 0.0014801250210083605, 0.25, True,
             "residuals=['0.000124', '7.75e-06', '4.84e-07']"),
            ('mass-sign', 0.0, 0.0, True,
             'mu_fit=4.55078e-08 mu_exact=0'),
        ),
        "decay_series": (
            (5.0, 0.0019987556815723277),
            (6.85175492360062, 0.0005646392676581593),
            (9.389309106617063, 0.00015980018234868683),
            (12.866648980094318, 4.526823824376802e-05),
            (17.631825099920427, 1.2829941943127683e-05),
            (24.16178888808895, 3.637216463070631e-06),
            (33.11013119539244, 1.0312730876576447e-06),
            (45.37250088781852, 2.924220646704343e-07),
            (62.176251270836794, 8.29208113996048e-08),
            (85.20328715519705, 2.351398461368874e-08),
            (116.75840845451575, 6.667965430203719e-09),
            (160.0, 1.89086287901438e-09),
        ),
    },
    (4, 9): {
        "checks": (
            ('flat-model-exactness', 5.930161299704233e-16, 1e-12, True,
             ''),
            ('determinant-positive', 0.8566552084046225, 0.0, True,
             'minimum of <v1,v2> over samples'),
            ('monopole-system', 1.4210854715202004e-14, 1e-08, True,
             'roundoff scale 1.49e-14'),
            ('metric-invariants', 1.4318838746535028e-14, 1e-10, True,
             ''),
            ('domega-residual', 4.0845086054960615e-16, 1e-06, True,
             ''),
            ('integrability-residual', 5.170253215798867e-15, 1e-06, True,
             ''),
            ('scalar-curvature', 2.0718149418286202e-12, 0.0001, True,
             'roundoff scale 5.02e-12'),
            ('asymptotic-fit', 8.114306722095677e-07, 0.01, True,
             'a_fit=-0.485186 b_fit=0.342593'),
            ('potential-decay', 0.0034414855697759705, 0.25, True,
             "residuals=['7.73e-05', '4.85e-06', '3.03e-07']"),
            ('mass-sign', -1.0, -1.0, True,
             'mu_fit=-0.142592 mu_exact=-0.142593'),
        ),
        "decay_series": (
            (5.0, 0.0012207720978188207),
            (6.85175492360062, 0.0003490628310526381),
            (9.389309106617063, 9.943280847717923e-05),
            (12.866648980094318, 2.8265310348885823e-05),
            (17.631825099920427, 8.02582215043439e-06),
            (24.16178888808895, 2.277524235760857e-06),
            (33.11013119539244, 6.460946600799623e-07),
            (45.37250088781852, 1.8325438764184873e-07),
            (62.176251270836794, 5.197238696487675e-08),
            (85.20328715519705, 1.473905573669607e-08),
            (116.75840845451575, 4.179797910812636e-09),
            (160.0, 1.1853180469552203e-09),
        ),
    },
    (13, 14): {
        "checks": (
            ('flat-model-exactness', 5.930161299704233e-16, 1e-12, True,
             ''),
            ('determinant-positive', 1.4074504510385268, 0.0, True,
             'minimum of <v1,v2> over samples'),
            ('monopole-system', 2.842170943040401e-14, 1e-08, True,
             'roundoff scale 3.27e-14'),
            ('metric-invariants', 8.923563602974075e-14, 1e-10, True,
             ''),
            ('domega-residual', 4.006289654827293e-16, 1e-06, True,
             ''),
            ('integrability-residual', 4.855534477739332e-15, 1e-06, True,
             ''),
            ('scalar-curvature', 6.076583680680869e-12, 0.0001, True,
             'roundoff scale 4.09e-11'),
            ('asymptotic-fit', 2.516190041046418e-07, 0.01, True,
             'a_fit=-0.232255 b_fit=0.232255'),
            ('potential-decay', 0.005660201580932833, 0.25, True,
             "residuals=['2.78e-05', '1.73e-06', '1.08e-07']"),
            ('mass-sign', 0.0, 0.0, True,
             'mu_fit=6.62161e-09 mu_exact=0'),
        ),
        "decay_series": (
            (5.0, 0.000455157792111105),
            (6.85175492360062, 0.00012719916540769182),
            (9.389309106617063, 3.5796443157146336e-05),
            (12.866648980094318, 1.0110300045520828e-05),
            (17.631825099920427, 2.8609523966344865e-06),
            (24.16178888808895, 8.103854007287212e-07),
            (33.11013119539244, 2.2966926428972134e-07),
            (45.37250088781852, 6.51083329478242e-08),
            (62.176251270836794, 1.846020679945466e-08),
            (85.20328715519705, 5.23434194437331e-09),
            (116.75840845451575, 1.484337972297513e-09),
            (160.0, 4.209352012572752e-10),
        ),
    },
    (17, 21): {
        "checks": (
            ('flat-model-exactness', 5.930161299704233e-16, 1e-12, True,
             ''),
            ('determinant-positive', 1.8117535986354794, 0.0, True,
             'minimum of <v1,v2> over samples'),
            ('monopole-system', 2.842170943040401e-14, 1e-08, True,
             'roundoff scale 3.47e-14'),
            ('metric-invariants', 6.347214460884654e-14, 1e-10, True,
             ''),
            ('domega-residual', 3.9408988371788866e-16, 1e-06, True,
             ''),
            ('integrability-residual', 5.7555945247797004e-15, 1e-06, True,
             ''),
            ('scalar-curvature', 1.5250301022007307e-11, 0.0001, True,
             'roundoff scale 4.26e-11'),
            ('asymptotic-fit', 2.583811436474015e-06, 0.01, True,
             'a_fit=-0.830952 b_fit=0.323812'),
            ('potential-decay', 0.0013938441241827526, 0.25, True,
             "residuals=['0.000207', '1.3e-05', '8.11e-07']"),
            ('mass-sign', -1.0, -1.0, True,
             'mu_fit=-0.50714 mu_exact=-0.507143'),
        ),
        "decay_series": (
            (5.0, 0.0032983005778973694),
            (6.85175492360062, 0.0009385297528913348),
            (9.389309106617063, 0.00026663602840581015),
            (12.866648980094318, 7.568653086336739e-05),
            (17.631825099920427, 2.147431511668402e-05),
            (24.16178888808895, 6.091351068203369e-06),
            (33.11013119539244, 1.7276316529381566e-06),
            (45.37250088781852, 4.89957492021388e-07),
            (62.176251270836794, 1.3894710952580547e-07),
            (85.20328715519705, 3.940325076195686e-08),
            (116.75840845451575, 1.1174034343299369e-08),
            (160.0, 3.168731524045145e-09),
        ),
    },
    (21, 22): {
        "checks": (
            ('flat-model-exactness', 5.930161299704233e-16, 1e-12, True,
             ''),
            ('determinant-positive', 2.2420501852257697, 0.0, True,
             'minimum of <v1,v2> over samples'),
            ('monopole-system', 5.684341886080802e-14, 1e-08, True,
             'roundoff scale 5.14e-14'),
            ('metric-invariants', 1.1571262408748768e-13, 1e-10, True,
             ''),
            ('domega-residual', 3.63033243383386e-16, 1e-06, True,
             ''),
            ('integrability-residual', 5.007739367150919e-15, 1e-06, True,
             ''),
            ('scalar-curvature', 1.733714560803179e-11, 0.0001, True,
             'roundoff scale 6.76e-11'),
            ('asymptotic-fit', 1.6030443833470187e-07, 0.01, True,
             'a_fit=-0.167764 b_fit=0.167764'),
            ('potential-decay', 0.00621674824450591, 0.25, True,
             "residuals=['1.88e-05', '1.17e-06', '7.28e-08']"),
            ('mass-sign', 0.0, 0.0, True,
             'mu_fit=4.21418e-09 mu_exact=0'),
        ),
        "decay_series": (
            (5.0, 0.0003082470368407225),
            (6.85175492360062, 8.60197151448951e-05),
            (9.389309106617063, 2.4189511045528352e-05),
            (12.866648980094318, 6.829341646225841e-06),
            (17.631825099920427, 1.9321200777241373e-06),
            (24.16178888808895, 5.472255787183664e-07),
            (33.11013119539244, 1.5507854416764555e-07),
            (45.37250088781852, 4.396137598704458e-08),
            (62.176251270836794, 1.2464241664609449e-08),
            (85.20328715519705, 3.5341469858867194e-09),
            (116.75840845451575, 1.0021478450232582e-09),
            (160.0, 2.8431305980858716e-10),
        ),
    },
    (79, 163): {
        "checks": (
            ('flat-model-exactness', 5.930161299704233e-16, 1e-12, True,
             ''),
            ('determinant-positive', 15.685903747019264, 0.0, True,
             'minimum of <v1,v2> over samples'),
            ('monopole-system', 4.547473508864641e-13, 1e-08, True,
             'roundoff scale 4.29e-13'),
            ('metric-invariants', 2.4467546984136317e-13, 1e-10, True,
             ''),
            ('domega-residual', 3.9656254708668877e-16, 1e-06, True,
             ''),
            ('integrability-residual', 6.847948576239562e-15, 1e-06, True,
             ''),
            ('scalar-curvature', 2.976980294222553e-11, 0.0001, True,
             'roundoff scale 1.42e-10'),
            ('asymptotic-fit', 6.334158845211491e-07, 0.01, True,
             'a_fit=-0.440054 b_fit=0.0834691'),
            ('potential-decay', 0.0038207714501090617, 0.25, True,
             "residuals=['8.42e-05', '5.28e-06', '3.3e-07']"),
            ('mass-sign', -1.0, -1.0, True,
             'mu_fit=-0.356585 mu_exact=-0.356586'),
        ),
        "decay_series": (
            (5.0, 0.0013268941043877401),
            (6.85175492360062, 0.0003797586187332381),
            (9.389309106617063, 0.00010823061294066801),
            (12.866648980094318, 3.077442957295512e-05),
            (17.631825099920427, 8.739521401039911e-06),
            (24.16178888808895, 2.4802423585802617e-06),
            (33.11013119539244, 7.036308162383813e-07),
            (45.37250088781852, 1.995778960237794e-07),
            (62.176251270836794, 5.66025125328124e-08),
            (85.20328715519705, 1.6052232398884436e-08),
            (116.75840845451575, 4.552210696258443e-09),
            (160.0, 1.2909290218775678e-09),
        ),
    },
    (161, 183): {
        "checks": (
            ('flat-model-exactness', 5.930161299704233e-16, 1e-12, True,
             ''),
            ('determinant-positive', 17.90837576915539, 0.0, True,
             'minimum of <v1,v2> over samples'),
            ('monopole-system', 4.547473508864641e-13, 1e-08, True,
             'roundoff scale 4.28e-13'),
            ('metric-invariants', 8.553796308413225e-13, 1e-10, True,
             ''),
            ('domega-residual', 4.746318040421118e-16, 1e-06, True,
             ''),
            ('integrability-residual', 5.13055285362695e-15, 1e-06, True,
             ''),
            ('scalar-curvature', 2.5921165908160404e-10, 0.0001, True,
             'roundoff scale 5.16e-10'),
            ('asymptotic-fit', 4.5278802213166713e-07, 0.01, True,
             'a_fit=-0.358179 b_fit=0.101372'),
            ('potential-decay', 0.00436319143020425, 0.25, True,
             "residuals=['5.87e-05', '3.68e-06', '2.3e-07']"),
            ('mass-sign', -1.0, -1.0, True,
             'mu_fit=-0.256807 mu_exact=-0.256807'),
        ),
        "decay_series": (
            (5.0, 0.0009230145189401182),
            (6.85175492360062, 0.00026450831129374913),
            (9.389309106617063, 7.543755129586528e-05),
            (12.866648980094318, 2.1458166278092444e-05),
            (17.631825099920427, 6.095072000913157e-06),
            (24.16178888808895, 1.7299465198629663e-06),
            (33.11013119539244, 4.908046698935352e-07),
            (45.37250088781852, 1.3921619535257772e-07),
            (62.176251270836794, 3.9483911277815e-08),
            (85.20328715519705, 1.1197568830190663e-08),
            (116.75840845451575, 3.175508188039062e-09),
            (160.0, 9.005269719727781e-10),
        ),
    },
}


@pytest.mark.parametrize("pq", sorted(GOLDEN))
def test_verify_metric_golden(pq):
    report = verify_metric(*pq)
    got = tuple((c.name, c.value, c.tolerance, c.passed, c.detail) for c in report.checks)
    assert got == GOLDEN[pq]["checks"]
    assert decay_series(report) == GOLDEN[pq]["decay_series"]


# The golden replayed in a child process with one BLAS thread, as the
# benchmark runs it; the suite runs with the library's default.  A
# re-record that depends on the thread count fails here or above.
SINGLE_THREADED = """
from cscglue.metricnum import decay_series, verify_metric
print([(pq, tuple(tuple(c) for c in report.checks), decay_series(report))
       for pq in {pqs!r} for report in [verify_metric(*pq)]])
"""


def test_golden_holds_with_single_threaded_blas():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SINGLE_THREADED.format(pqs=sorted(GOLDEN))],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    replayed = ast.literal_eval(proc.stdout)
    assert [pq for pq, _, _ in replayed] == sorted(GOLDEN)
    for pq, checks, decay_series in replayed:
        assert checks == GOLDEN[pq]["checks"], pq
        assert decay_series == GOLDEN[pq]["decay_series"], pq


# Frozen stdout and exit code of `cscglue metric-verify`, human and --json.
# The --json text is json.dumps(payload, indent=2); each check is an object
# with the keys name, value, tolerance, passed and detail, in that order.
CHECK_KEYS = ("name", "value", "tolerance", "passed", "detail")

HALF_10_CHECKS = (
    ('flat-model-exactness', 3.0899179214043763e-16, 1e-12, True,
     ''),
    ('determinant-positive', 0.3541017866737089, 0.0, True,
     'minimum of <v1,v2> over samples'),
    ('monopole-system', 1.7763568394002505e-15, 1e-08, True,
     'roundoff scale 4.54e-15'),
    ('metric-invariants', 6.693557713246412e-16, 1e-10, True,
     ''),
    ('domega-residual', 1.5767678960957653e-16, 1e-06, True,
     ''),
    ('integrability-residual', 5.27658101404493e-16, 1e-06, True,
     ''),
    ('scalar-curvature', 3.1086244689504383e-15, 0.0001, True,
     'roundoff scale 1.20e-14'),
    ('asymptotic-fit', 1.6527547725964098e-06, 0.01, True,
     'a_fit=-0.750002 b_fit=0.750002'),
    ('potential-decay', 0.0014801250210083605, 0.25, True,
     "residuals=['0.000124', '7.75e-06', '4.84e-07']"),
    ('mass-sign', 0.0, 0.0, True,
     'mu_fit=4.55078e-08 mu_exact=0'),
)

CLI_GOLDEN = {
    ("1/2", "--samples", "10"): {
        "human": """\
metric verification for 1/2   (version 0.1.0, seed 0, samples 10)
levels: 2 > 1 > 0
exact a = -3/4, b = 3/4, mu = 0
  PASS  flat-model-exactness     value 3.090e-16  tolerance 1.000e-12
  PASS  determinant-positive     value 3.541e-01  tolerance 0.000e+00   [minimum of <v1,v2> over samples]
  PASS  monopole-system          value 1.776e-15  tolerance 1.000e-08   [roundoff scale 4.54e-15]
  PASS  metric-invariants        value 6.694e-16  tolerance 1.000e-10
  PASS  domega-residual          value 1.577e-16  tolerance 1.000e-06
  PASS  integrability-residual   value 5.277e-16  tolerance 1.000e-06
  PASS  scalar-curvature         value 3.109e-15  tolerance 1.000e-04   [roundoff scale 1.20e-14]
  PASS  asymptotic-fit           value 1.653e-06  tolerance 1.000e-02   [a_fit=-0.750002 b_fit=0.750002]
  PASS  potential-decay          value 1.480e-03  tolerance 2.500e-01   [residuals=['0.000124', '7.75e-06', '4.84e-07']]
  PASS  mass-sign                value 0.000e+00  tolerance 0.000e+00   [mu_fit=4.55078e-08 mu_exact=0]
all checks passed
""",
        "payload": {
            "version": "0.1.0",
            "fraction": "1/2",
            "levels": ["2", "1", "0"],
            "seed": 0,
            "samples": 10,
            "exact": {"a": "-3/4", "b": "3/4", "mu": "0"},
            "checks": HALF_10_CHECKS,
            "passed": True,
        },
    },
    ("4/9",): {
        "human": """\
metric verification for 4/9   (version 0.1.0, seed 0, samples 200)
levels: 5 > 4 > 3 > 2 > 1 > 0
exact a = -131/270, b = 37/108, mu = -77/540
  PASS  flat-model-exactness     value 5.930e-16  tolerance 1.000e-12
  PASS  determinant-positive     value 8.567e-01  tolerance 0.000e+00   [minimum of <v1,v2> over samples]
  PASS  monopole-system          value 1.421e-14  tolerance 1.000e-08   [roundoff scale 1.49e-14]
  PASS  metric-invariants        value 1.432e-14  tolerance 1.000e-10
  PASS  domega-residual          value 4.085e-16  tolerance 1.000e-06
  PASS  integrability-residual   value 5.170e-15  tolerance 1.000e-06
  PASS  scalar-curvature         value 2.072e-12  tolerance 1.000e-04   [roundoff scale 5.02e-12]
  PASS  asymptotic-fit           value 8.114e-07  tolerance 1.000e-02   [a_fit=-0.485186 b_fit=0.342593]
  PASS  potential-decay          value 3.441e-03  tolerance 2.500e-01   [residuals=['7.73e-05', '4.85e-06', '3.03e-07']]
  PASS  mass-sign                value -1.000e+00  tolerance -1.000e+00   [mu_fit=-0.142592 mu_exact=-0.142593]
all checks passed
""",
        "payload": {
            "version": "0.1.0",
            "fraction": "4/9",
            "levels": ["5", "4", "3", "2", "1", "0"],
            "seed": 0,
            "samples": 200,
            "exact": {"a": "-131/270", "b": "37/108", "mu": "-77/540"},
            "checks": GOLDEN[(4, 9)]["checks"],
            "passed": True,
        },
    },
}


@pytest.mark.parametrize("argv", sorted(CLI_GOLDEN))
@pytest.mark.parametrize("as_json", [False, True])
def test_metric_verify_cli_golden(argv, as_json, capsys):
    golden = CLI_GOLDEN[argv]
    code = main(["metric-verify", *argv, *(["--json"] if as_json else [])])
    out = capsys.readouterr().out
    assert code == 0
    if as_json:
        payload = dict(golden["payload"])
        payload["checks"] = [dict(zip(CHECK_KEYS, c)) for c in payload["checks"]]
        assert out == json.dumps(payload, indent=2) + "\n"
    else:
        assert out == golden["human"]


def test_metric_verify_csv_writes_the_golden_series(tmp_path, capsys):
    # The series radii are fixed, so --samples and --seed do not move a row.
    path = tmp_path / "decay.csv"
    assert main(["metric-verify", "1/2", "--samples", "5", "--seed", "3", "--csv", str(path)]) == 0
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "residual"]
    assert tuple((float(r), float(res)) for r, res in rows[1:]) == GOLDEN[(1, 2)]["decay_series"]
