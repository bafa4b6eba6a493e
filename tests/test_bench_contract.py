"""The benchmark's traced run wraps library functions by name.

``bench/spans.py`` lists, per module, the functions it rebinds for
``bench/run.py --trace 1``; the traced run fails at the first name that
no longer exists.  This test reads that list (without importing the
benchmark package or writing anything under ``bench/``) and checks every
name against the library.  The counters the traced run takes from return
values are applied to real ones, so a change to a record's fields shows
here.  The traced run also reads ``-X importtime``.
"""

import importlib
import os
import runpy
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_traced_layers_exist():
    layers = runpy.run_path(str(SPANS))["LAYERS"]
    missing = []
    for layer, functions in layers.items():
        module = importlib.import_module(f"cscglue.{layer}")
        missing += [f"{layer}.{fn}" for fn in functions if not callable(getattr(module, fn, None))]
    assert not missing, f"bench/spans.py wraps functions that are gone: {missing}"


def test_counters_read_real_return_values():
    from cscglue.exactlp import positive_kernel_vector
    from cscglue.gluing import feasibility, gluing_matrix
    from cscglue.parabolic import ParabolicSurface, classify

    third = Fraction(1, 3)
    surface = ParabolicSurface(genus=0, points=("N", "S"), weights=(third, third),
                               incidence=((1, 0), (0, 1)))
    verdict = classify(surface)
    row, labels = gluing_matrix(surface, verdict, extra_points=((1, 1),))
    returns = {
        "parabolic.classify": [verdict],
        "gluing.feasibility": [feasibility(row, 1, labels)],
        "exactlp.positive_kernel_vector": [positive_kernel_vector(row),
                                           positive_kernel_vector((1, 1))],
    }
    counters = Counter()
    for name, count in runpy.run_path(str(SPANS))["COUNTERS"].items():
        for out in returns[name]:
            count(counters, out)
    assert counters == {
        "parabolic.candidates": 4,  # two constants, a generic and one graph
        "gluing.matrix_cols": 3,
        "exactlp.positive_kernel_vector.found": 1,
    }


def test_gluing_calls_kernel_test_by_imported_name():
    # The tracer finds positive_kernel_vector's calls from gluing through
    # the name gluing imported, so that import must stay.
    from cscglue import exactlp, gluing

    assert gluing.positive_kernel_vector is exactlp.positive_kernel_vector


def test_importtime_shows_cli_and_metricnum_without_numpy():
    # bench/run.py --trace 1 reads the cumulative -X importtime lines of
    # cscglue.cli and cscglue.metricnum from `import cscglue.cli`, so cli
    # must keep importing metricnum; numpy loads only when a check runs.
    env = dict(os.environ, PYTHONPATH=str(SPANS.parent.parent / "src"))
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cscglue.cli"],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    modules = [line.split("|")[-1].strip() for line in done.stderr.splitlines()
               if line.startswith("import time:")]
    assert "cscglue.cli" in modules and "cscglue.metricnum" in modules
    assert not [m for m in modules if m == "numpy" or m.startswith("numpy.")]
