"""Frozen verify_metric results at the defaults (samples=200, seed=0).

The values were recorded before the finite-difference stencils were
evaluated in one batched call per check.  Changing how the points are
batched must not change a single bit of any check value, detail string
or potential-residual series entry; a change that moves them is a
change of results, not of speed.

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
            ('monopole-system', 1.1169731806148775e-11, 1e-08, True,
             'step-halving change 2.13e-12'),
            ('metric-invariants', 4.199502420296989e-15, 1e-10, True,
             ''),
            ('domega-residual', 5.322034563698711e-12, 1e-06, True,
             ''),
            ('integrability-residual', 1.7351481130759017e-11, 1e-06, True,
             ''),
            ('scalar-curvature', 1.007715206276397e-07, 0.0001, True,
             'step-halving change 9.57e-08'),
            ('asymptotic-fit', 1.6527547725964098e-06, 0.01, True,
             'a_fit=-0.750002 b_fit=0.750002'),
            ('potential-decay', 0.00148021849143265, 0.25, True,
             "residuals=['0.000124', '7.75e-06', '4.84e-07']"),
            ('mass-sign', 0.0, 0.0, True,
             'mu_fit=4.55078e-08 mu_exact=0'),
        ),
        "decay_series": (
            (5.0, 0.001998755682796765),
            (6.85175492360062, 0.0005646392666053362),
            (9.389309106617063, 0.00015980018117579904),
            (12.866648980094318, 4.526823974340038e-05),
            (17.631825099920427, 1.2829940201297512e-05),
            (24.16178888808895, 3.637218157235652e-06),
            (33.11013119539244, 1.0312728182627518e-06),
            (45.37250088781852, 2.92419842762054e-07),
            (62.176251270836794, 8.292037244085168e-08),
            (85.20328715519705, 2.3513950279173882e-08),
            (116.75840845451575, 6.668971788987409e-09),
            (160.0, 1.89184972952734e-09),
        ),
    },
    (4, 9): {
        "checks": (
            ('flat-model-exactness', 5.930161299704233e-16, 1e-12, True,
             ''),
            ('determinant-positive', 0.8566552084046225, 0.0, True,
             'minimum of <v1,v2> over samples'),
            ('monopole-system', 8.0849105188463e-11, 1e-08, True,
             'step-halving change 3.83e-11'),
            ('metric-invariants', 1.4318838746535028e-14, 1e-10, True,
             ''),
            ('domega-residual', 1.6340114316760924e-12, 1e-06, True,
             ''),
            ('integrability-residual', 4.483048239538042e-12, 1e-06, True,
             ''),
            ('scalar-curvature', 1.8605936999427364e-09, 0.0001, True,
             'step-halving change 6.30e-09'),
            ('asymptotic-fit', 8.114306722095677e-07, 0.01, True,
             'a_fit=-0.485186 b_fit=0.342593'),
            ('potential-decay', 0.0034416626674484974, 0.25, True,
             "residuals=['7.73e-05', '4.85e-06', '3.03e-07']"),
            ('mass-sign', -1.0, -1.0, True,
             'mu_fit=-0.142592 mu_exact=-0.142593'),
        ),
        "decay_series": (
            (5.0, 0.0012207720989765498),
            (6.85175492360062, 0.00034906283100639664),
            (9.389309106617063, 9.943280873469668e-05),
            (12.866648980094318, 2.8265310282987412e-05),
            (17.631825099920427, 8.025821941309574e-06),
            (24.16178888808895, 2.2775246150024833e-06),
            (33.11013119539244, 6.460945718223505e-07),
            (45.37250088781852, 1.8325500503199585e-07),
            (62.176251270836794, 5.197249262404902e-08),
            (85.20328715519705, 1.4738128523268552e-08),
            (116.75840845451575, 4.1808555618495085e-09),
            (160.0, 1.1854437049553826e-09),
        ),
    },
    (13, 14): {
        "checks": (
            ('flat-model-exactness', 5.930161299704233e-16, 1e-12, True,
             ''),
            ('determinant-positive', 1.4074504510385268, 0.0, True,
             'minimum of <v1,v2> over samples'),
            ('monopole-system', 2.6064128633151995e-10, 1e-08, True,
             'step-halving change 1.25e-10'),
            ('metric-invariants', 8.923563602974075e-14, 1e-10, True,
             ''),
            ('domega-residual', 6.227979756632906e-13, 1e-06, True,
             ''),
            ('integrability-residual', 1.4928072244560066e-12, 1e-06, True,
             ''),
            ('scalar-curvature', 1.2788376045924605e-08, 0.0001, True,
             'step-halving change 1.13e-10'),
            ('asymptotic-fit', 2.516190041046418e-07, 0.01, True,
             'a_fit=-0.232255 b_fit=0.232255'),
            ('potential-decay', 0.005642583146910463, 0.25, True,
             "residuals=['2.78e-05', '1.73e-06', '1.08e-07']"),
            ('mass-sign', 0.0, 0.0, True,
             'mu_fit=6.62161e-09 mu_exact=0'),
        ),
        "decay_series": (
            (5.0, 0.00045515777215330503),
            (6.85175492360062, 0.0001271991320577799),
            (9.389309106617063, 3.5796464918874884e-05),
            (12.866648980094318, 1.0110327223406594e-05),
            (17.631825099920427, 2.8609661011793503e-06),
            (24.16178888808895, 8.103779269826029e-07),
            (33.11013119539244, 2.2968702265994493e-07),
            (45.37250088781852, 6.50870089632679e-08),
            (62.176251270836794, 1.845650108408908e-08),
            (85.20328715519705, 5.261074307462206e-09),
            (116.75840845451575, 1.5035088180579994e-09),
            (160.0, 4.2229504994553657e-10),
        ),
    },
    (17, 21): {
        "checks": (
            ('flat-model-exactness', 5.930161299704233e-16, 1e-12, True,
             ''),
            ('determinant-positive', 1.8117535986354794, 0.0, True,
             'minimum of <v1,v2> over samples'),
            ('monopole-system', 2.5707436179800425e-10, 1e-08, True,
             'step-halving change 1.42e-14'),
            ('metric-invariants', 6.347214460884654e-14, 1e-10, True,
             ''),
            ('domega-residual', 2.9842855600712906e-12, 1e-06, True,
             ''),
            ('integrability-residual', 1.3161878821098956e-11, 1e-06, True,
             ''),
            ('scalar-curvature', 3.804885628788668e-08, 0.0001, True,
             'step-halving change 1.77e-08'),
            ('asymptotic-fit', 2.583811436474015e-06, 0.01, True,
             'a_fit=-0.830952 b_fit=0.323812'),
            ('potential-decay', 0.0013939212118974087, 0.25, True,
             "residuals=['0.000207', '1.3e-05', '8.11e-07']"),
            ('mass-sign', -1.0, -1.0, True,
             'mu_fit=-0.50714 mu_exact=-0.507143'),
        ),
        "decay_series": (
            (5.0, 0.0032983005784753875),
            (6.85175492360062, 0.0009385297531178379),
            (9.389309106617063, 0.0002666360282694898),
            (12.866648980094318, 7.56865310010491e-05),
            (17.631825099920427, 2.1474314556783485e-05),
            (24.16178888808895, 6.091351980517421e-06),
            (33.11013119539244, 1.727631439013315e-06),
            (45.37250088781852, 4.899568789034333e-07),
            (62.176251270836794, 1.3894694558656496e-07),
            (85.20328715519705, 3.940362225633828e-08),
            (116.75840845451575, 1.1174370224712325e-08),
            (160.0, 3.169193159791693e-09),
        ),
    },
    (21, 22): {
        "checks": (
            ('flat-model-exactness', 5.930161299704233e-16, 1e-12, True,
             ''),
            ('determinant-positive', 2.2420501852257697, 0.0, True,
             'minimum of <v1,v2> over samples'),
            ('monopole-system', 2.4277824195451103e-10, 1e-08, True,
             'step-halving change 4.00e-10'),
            ('metric-invariants', 1.1571262408748768e-13, 1e-10, True,
             ''),
            ('domega-residual', 6.969319275572715e-13, 1e-06, True,
             ''),
            ('integrability-residual', 1.5359204049465698e-12, 1e-06, True,
             ''),
            ('scalar-curvature', 2.0797806156210177e-08, 0.0001, True,
             'step-halving change 9.79e-08'),
            ('asymptotic-fit', 1.6030443833470187e-07, 0.01, True,
             'a_fit=-0.167764 b_fit=0.167764'),
            ('potential-decay', 0.006234271520836221, 0.25, True,
             "residuals=['1.88e-05', '1.17e-06', '7.28e-08']"),
            ('mass-sign', 0.0, 0.0, True,
             'mu_fit=4.21418e-09 mu_exact=0'),
        ),
        "decay_series": (
            (5.0, 0.00030824707839815217),
            (6.85175492360062, 8.601972311965898e-05),
            (9.389309106617063, 2.418948246628197e-05),
            (12.866648980094318, 6.829357868778772e-06),
            (17.631825099920427, 1.932136860245277e-06),
            (24.16178888808895, 5.471924622447561e-07),
            (33.11013119539244, 1.5508136400884663e-07),
            (45.37250088781852, 4.393962665680703e-08),
            (62.176251270836794, 1.2459449167728156e-08),
            (85.20328715519705, 3.533942561287388e-09),
            (116.75840845451575, 1.0187507750667267e-09),
            (160.0, 2.8484482242247865e-10),
        ),
    },
    (79, 163): {
        "checks": (
            ('flat-model-exactness', 5.930161299704233e-16, 1e-12, True,
             ''),
            ('determinant-positive', 15.685903747019264, 0.0, True,
             'minimum of <v1,v2> over samples'),
            ('monopole-system', 4.855792212765664e-09, 1e-08, True,
             'step-halving change 2.91e-09'),
            ('metric-invariants', 2.4467546984136317e-13, 1e-10, True,
             ''),
            ('domega-residual', 1.2498079100126256e-12, 1e-06, True,
             ''),
            ('integrability-residual', 3.58639434873533e-12, 1e-06, True,
             ''),
            ('scalar-curvature', 3.680220225787956e-08, 0.0001, True,
             'step-halving change 1.58e-07'),
            ('asymptotic-fit', 6.334158845211491e-07, 0.01, True,
             'a_fit=-0.440054 b_fit=0.0834691'),
            ('potential-decay', 0.0038208974623281655, 0.25, True,
             "residuals=['8.42e-05', '5.28e-06', '3.3e-07']"),
            ('mass-sign', -1.0, -1.0, True,
             'mu_fit=-0.356585 mu_exact=-0.356586'),
        ),
        "decay_series": (
            (5.0, 0.0013268941050589567),
            (6.85175492360062, 0.0003797586197190292),
            (9.389309106617063, 0.00010823061515352577),
            (12.866648980094318, 3.0774430287032554e-05),
            (17.631825099920427, 8.73952151319792e-06),
            (24.16178888808895, 2.4802435026573366e-06),
            (33.11013119539244, 7.036313136279507e-07),
            (45.37250088781852, 1.9957787392270608e-07),
            (62.176251270836794, 5.6602272282100915e-08),
            (85.20328715519705, 1.605210147318731e-08),
            (116.75840845451575, 4.552879585488921e-09),
            (160.0, 1.2923135543541135e-09),
        ),
    },
    (161, 183): {
        "checks": (
            ('flat-model-exactness', 5.930161299704233e-16, 1e-12, True,
             ''),
            ('determinant-positive', 17.90837576915539, 0.0, True,
             'minimum of <v1,v2> over samples'),
            ('monopole-system', 1.428020368621219e-09, 1e-08, True,
             'step-halving change 1.54e-09'),
            ('metric-invariants', 8.553796308413225e-13, 1e-10, True,
             ''),
            ('domega-residual', 9.14280219909276e-13, 1e-06, True,
             ''),
            ('integrability-residual', 2.3547765328756506e-12, 1e-06, True,
             ''),
            ('scalar-curvature', 3.20616015930808e-07, 0.0001, True,
             'step-halving change 5.21e-07'),
            ('asymptotic-fit', 4.5278802213166713e-07, 0.01, True,
             'a_fit=-0.358179 b_fit=0.101372'),
            ('potential-decay', 0.004363195506027262, 0.25, True,
             "residuals=['5.87e-05', '3.68e-06', '2.3e-07']"),
            ('mass-sign', -1.0, -1.0, True,
             'mu_fit=-0.256807 mu_exact=-0.256807'),
        ),
        "decay_series": (
            (5.0, 0.0009230145194576461),
            (6.85175492360062, 0.00026450831180104955),
            (9.389309106617063, 7.543755223500182e-05),
            (12.866648980094318, 2.1458165974317162e-05),
            (17.631825099920427, 6.095070179241867e-06),
            (24.16178888808895, 1.7299486444219533e-06),
            (33.11013119539244, 4.908047376825008e-07),
            (45.37250088781852, 1.392162502879108e-07),
            (62.176251270836794, 3.948318544879725e-08),
            (85.20328715519705, 1.1198508379593144e-08),
            (116.75840845451575, 3.175301771085941e-09),
            (160.0, 9.025026104645332e-10),
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
    ('monopole-system', 8.045120125643734e-12, 1e-08, True,
     'step-halving change 1.82e-12'),
    ('metric-invariants', 6.693557713246412e-16, 1e-10, True,
     ''),
    ('domega-residual', 2.8516492469820573e-13, 1e-06, True,
     ''),
    ('integrability-residual', 9.20928788634505e-13, 1e-06, True,
     ''),
    ('scalar-curvature', 3.688068697619122e-09, 0.0001, True,
     'step-halving change 3.52e-09'),
    ('asymptotic-fit', 1.6527547725964098e-06, 0.01, True,
     'a_fit=-0.750002 b_fit=0.750002'),
    ('potential-decay', 0.00148021849143265, 0.25, True,
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
  PASS  monopole-system          value 8.045e-12  tolerance 1.000e-08   [step-halving change 1.82e-12]
  PASS  metric-invariants        value 6.694e-16  tolerance 1.000e-10
  PASS  domega-residual          value 2.852e-13  tolerance 1.000e-06
  PASS  integrability-residual   value 9.209e-13  tolerance 1.000e-06
  PASS  scalar-curvature         value 3.688e-09  tolerance 1.000e-04   [step-halving change 3.52e-09]
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
  PASS  monopole-system          value 8.085e-11  tolerance 1.000e-08   [step-halving change 3.83e-11]
  PASS  metric-invariants        value 1.432e-14  tolerance 1.000e-10
  PASS  domega-residual          value 1.634e-12  tolerance 1.000e-06
  PASS  integrability-residual   value 4.483e-12  tolerance 1.000e-06
  PASS  scalar-curvature         value 1.861e-09  tolerance 1.000e-04   [step-halving change 6.30e-09]
  PASS  asymptotic-fit           value 8.114e-07  tolerance 1.000e-02   [a_fit=-0.485186 b_fit=0.342593]
  PASS  potential-decay          value 3.442e-03  tolerance 2.500e-01   [residuals=['7.73e-05', '4.85e-06', '3.03e-07']]
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
