"""numpy loads only when a metric check runs.

Each test runs in a fresh interpreter, since the test process itself has
numpy imported.  ``numpy._core`` (``numpy.core`` before numpy 2) appears
in ``sys.modules`` only once numpy's own code has run; a lazily bound
``numpy`` alone does not add it.  ``sys.modules["numpy"] = None`` makes
the interpreter behave as if numpy were not installed.  The import of
``cscglue.cli`` loads no ``dataclasses``, ``inspect`` or ``typing``
either, and both golden files replay without numpy on the running
interpreter and on the CPython 3.10, 3.12 and 3.13 that pyenv installed;
a version it lacks is skipped, with the reason.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FOUR_POINTS = str(ROOT / "fixtures" / "sphere_four_points.json")
NUMPY_RAN = 'any(m in sys.modules for m in ("numpy._core", "numpy.core"))'

# Recorded while metricnum still imported numpy at module level; the lines of
# the checks that differentiate were re-recorded when Taylor jets replaced
# finite differences.
METRIC_VERIFY_1_2 = """\
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
"""


def run_python(*args, python=sys.executable):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([python, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_cli_leaves_numpy_unloaded():
    proc = run_python("-c", f"import sys, cscglue.cli; print({NUMPY_RAN})")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_import_cli_leaves_dataclasses_inspect_and_typing_unloaded():
    # -S skips site, so no .pth file can import typing before cscglue does.
    proc = run_python("-S", "-c", "import sys, cscglue.cli\n"
                      "print([m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("argv", [
    ["hj", "5/7"],
    ["mass", "2/3", "--u", "1,1"],
    ["blowup-insert", "1/3", "--position", "1", "--u", "1,2"],
    ["stability", FOUR_POINTS],
    ["pipeline", FOUR_POINTS],
])
def test_exact_commands_leave_numpy_unloaded(argv):
    proc = run_python(
        "-c",
        "import sys\n"
        "from cscglue.cli import main\n"
        f"code = main({argv!r})\n"
        f"print({NUMPY_RAN}, code, file=sys.stderr)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "False 0\n"


def test_metric_verify_output_unchanged():
    proc = run_python("-m", "cscglue.cli", "metric-verify", "1/2", "--samples", "10")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, METRIC_VERIFY_1_2, "")


def test_numpy_imported_first_is_used_as_is():
    proc = run_python(
        "-c",
        "import sys, numpy, cscglue.metricnum as m\n"
        'print(m.np is numpy is sys.modules["numpy"], type(numpy).__name__)\n'
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True module\n"


def test_missing_numpy_fails_the_import_by_name():
    # The module imports; its first use of numpy fails, naming numpy.
    proc = run_python(
        "-c",
        "import sys\n"
        'sys.modules["numpy"] = None\n'
        "import cscglue.metricnum as m\n"
        "try:\n"
        "    m.verify_metric(1, 2)\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(exc.name)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "numpy\n"


WITHOUT_NUMPY = ('import sys\nsys.modules["numpy"] = None\n'
                 "from cscglue.cli import main\nsys.exit(main(sys.argv[1:]))\n")


@pytest.mark.parametrize("argv, golden, key", [
    (["hj", "5/7"], "exact_golden.json", "hj 5/7"),
    (["mass", "2/3", "--u", "1,1", "--json"], "exact_golden.json", "mass 2/3 --u 1,1 --json"),
    (["pipeline", FOUR_POINTS], "decision_golden.json", "pipeline sphere_four_points"),
])
def test_exact_commands_run_without_numpy(argv, golden, key):
    want = json.loads((ROOT / "tests" / golden).read_text())[key]
    proc = run_python("-c", WITHOUT_NUMPY, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (want["exit"], want["stdout"],
                                                           want.get("stderr", ""))


# Both golden harnesses use only the standard library and cscglue, so
# they replay on an interpreter without numpy, pytest or hypothesis.
# Prints, for each golden file, how many cases ran and which of them
# printed something else: the numpy refusal, or any other change.
REPLAY_GOLDENS = """\
import json, sys, tempfile
from pathlib import Path
sys.modules["numpy"] = None
sys.path.insert(0, "tests")
import test_decision_golden, test_exact_golden
NEEDS_NUMPY = {"stdout": "", "stderr": "error: the metric checks need numpy, which is not installed\\n",
               "exit": 2}
report = {}
with tempfile.TemporaryDirectory() as tmp:
    for harness in (test_exact_golden, test_decision_golden):
        golden = json.loads(harness.GOLDEN.read_text())
        cases, differ = 0, {}
        for cases, (key, argv) in enumerate(harness._cases(Path(tmp)), 1):
            got = harness._run(argv)
            if got != golden.get(key):
                differ[key] = "numpy" if got == NEEDS_NUMPY else "changed"
        report[harness.GOLDEN.name] = {"cases": cases, "differ": differ}
print(json.dumps(report))
"""

OTHER_PYTHONS = ("3.10", "3.12", "3.13")


def _pyenv_python(version):
    """The first pyenv-installed CPython of that minor version, or None."""
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    return next(iter(sorted(root.glob(f"versions/{version}.*/bin/python"))), None)


@pytest.mark.parametrize("version", ["running", *OTHER_PYTHONS])
def test_goldens_replay_without_numpy(version):
    python = sys.executable if version == "running" else _pyenv_python(version)
    if python is None:
        pytest.skip(f"no Python {version} under $PYENV_ROOT/versions (default ~/.pyenv)")
    proc = run_python("-c", REPLAY_GOLDENS, python=python)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "exact_golden.json": {"cases": 230, "differ": {}},
        "decision_golden.json": {"cases": 92, "differ": {}},
    }


def test_level_refusal_leaves_numpy_unloaded():
    # verify_metric refuses levels exactly, before its first use of numpy.
    proc = run_python(
        "-c",
        "import sys\n"
        "from cscglue.cli import main\n"
        'code = main(["metric-verify", "1/3", "--levels", "1,2,0", "--samples", "10"])\n'
        f"print({NUMPY_RAN}, code)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False 2\n"
    assert proc.stderr == "error: levels must be strictly decreasing, got 1, 2, 0\n"


def test_seed_refusal_leaves_numpy_unloaded():
    # A negative seed is refused by name, like the levels, before numpy runs.
    proc = run_python(
        "-c",
        "import sys\n"
        "from cscglue.cli import main\n"
        'code = main(["metric-verify", "1/3", "--seed", "-1"])\n'
        f"print({NUMPY_RAN}, code)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False 2\n"
    assert proc.stderr == "error: seed must be non-negative, got -1\n"


def test_metric_verify_without_numpy_is_refused():
    proc = run_python("-c", WITHOUT_NUMPY, "metric-verify", "1/2")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: the metric checks need numpy, which is not installed\n"


def test_float_max_is_numpy_float_max():
    import numpy as np

    from cscglue.metricnum import FLOAT_MAX

    assert FLOAT_MAX == np.finfo(float).max
