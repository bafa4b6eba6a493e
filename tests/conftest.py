"""Session setup shared by every test module.

When a hypothesis property fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching`` to write a patch for the failing example.
That module imports libcst, which imports ``mypy_extensions.TypedDict``
and so raises a ``DeprecationWarning``.  Under ``filterwarnings =
["error"]`` the warning becomes an error inside the plugin's report hook,
and pytest ends the session with INTERNALERROR instead of reporting the
failure and the tests after it.  Importing the module once here, with
that warning silenced, leaves the plugin's later import a cache hit; the
warning filter of the tests themselves is unchanged.

pyproject's ``pythonpath = ["src"]`` puts this checkout's ``src`` on the
path of the test process.  The interpreters that tests start read
``PYTHONPATH`` instead, so it gains ``src`` here too, and a bare
``pytest`` in a fresh checkout runs every test.
"""

import contextlib
import os
import warnings
from pathlib import Path

# The plugin itself skips patch writing when libcst is not installed.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
