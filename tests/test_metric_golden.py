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
"""

import json

import pytest

from cscglue.cli import main
from cscglue.metricnum import verify_metric

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
            ('determinant-positive', 2.2420501852257715, 0.0, True,
             'minimum of <v1,v2> over samples'),
            ('monopole-system', 3.908979806510615e-10, 1e-08, True,
             'step-halving change 3.08e-10'),
            ('metric-invariants', 1.1787487600126595e-13, 1e-10, True,
             ''),
            ('domega-residual', 5.102147398388935e-13, 1e-06, True,
             ''),
            ('integrability-residual', 1.201040723852275e-12, 1e-06, True,
             ''),
            ('scalar-curvature', 4.9866833207120535e-08, 0.0001, True,
             'step-halving change 7.44e-08'),
            ('asymptotic-fit', 1.6030442323566874e-07, 0.01, True,
             'a_fit=-0.167764 b_fit=0.167764'),
            ('potential-decay', 0.006254644073719562, 0.25, True,
             "residuals=['1.88e-05', '1.17e-06', '7.28e-08']"),
            ('mass-sign', 0.0, 0.0, True,
             'mu_fit=4.21423e-09 mu_exact=0'),
        ),
        "decay_series": (
            (5.0, 0.0003082470741979428),
            (6.85175492360062, 8.6019746381149e-05),
            (9.389309106617063, 2.4189459452448643e-05),
            (12.866648980094318, 6.829307608502747e-06),
            (17.631825099920427, 1.9321396856013205e-06),
            (24.16178888808895, 5.472524570405843e-07),
            (33.11013119539244, 1.5509765099668292e-07),
            (45.37250088781852, 4.3942150811377564e-08),
            (62.176251270836794, 1.2459449167728156e-08),
            (85.20328715519705, 3.5683675826599603e-09),
            (116.75840845451575, 1.0025119752110678e-09),
            (160.0, 2.8484482242247865e-10),
        ),
    },
    (79, 163): {
        "checks": (
            ('flat-model-exactness', 5.930161299704233e-16, 1e-12, True,
             ''),
            ('determinant-positive', 15.68590374701938, 0.0, True,
             'minimum of <v1,v2> over samples'),
            ('monopole-system', 3.027707862202078e-09, 1e-08, True,
             'step-halving change 6.28e-10'),
            ('metric-invariants', 1.7047926184808487e-13, 1e-10, True,
             ''),
            ('domega-residual', 1.228114256459767e-12, 1e-06, True,
             ''),
            ('integrability-residual', 3.6228188293095038e-12, 1e-06, True,
             ''),
            ('scalar-curvature', 4.3242767228113266e-08, 0.0001, True,
             'step-halving change 1.31e-07'),
            ('asymptotic-fit', 6.334127120449784e-07, 0.01, True,
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
            ('determinant-positive', 17.9083757691554, 0.0, True,
             'minimum of <v1,v2> over samples'),
            ('monopole-system', 2.5396502678631805e-09, 1e-08, True,
             'step-halving change 1.08e-09'),
            ('metric-invariants', 8.553796308413225e-13, 1e-10, True,
             ''),
            ('domega-residual', 9.612600587591531e-13, 1e-06, True,
             ''),
            ('integrability-residual', 2.277228964801462e-12, 1e-06, True,
             ''),
            ('scalar-curvature', 3.0065107139987113e-07, 0.0001, True,
             'step-halving change 4.04e-07'),
            ('asymptotic-fit', 4.527850457347604e-07, 0.01, True,
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
    assert report.decay_series == GOLDEN[pq]["decay_series"]


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
