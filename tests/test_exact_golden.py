"""Frozen stdout, stderr and exit codes of the exact subcommands.

``hj``, ``mass`` (by ``--u`` and by ``--levels``, the Burns datum 1/1
included) and ``blowup-insert`` at every position, with and without
``--u``/``--levels``, human and ``--json``; and refusals from every
subcommand, so each ``error:`` line that a library ``ValueError`` becomes
is pinned as well.  ``decision_golden.json`` records no stderr.

Rewrite ``exact_golden.json`` with ``python tests/test_exact_golden.py``
only for an intended change of output.
"""

import contextlib
import io
import json
from pathlib import Path

from cscglue.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "exact_golden.json"

HJ_WEIGHTS = ("1/2", "2/3", "1/7", "6/7", "3/5", "5/7", "4/9", "13/21", "89/144", "1/99", "2/15")

# u lists with k entries, level lists with k + 2 (the Burns datum 1/1 has k = 1).
MASS_DATA = {
    "1/1": (("1",), ("2,1,0", "inf,1,0", "7/2,1/3,0")),
    "1/2": (("1", "3/2"), ("2,1,0", "inf,5,0")),
    "1/3": (("1", "1/7"), ("2,1,0", "inf,1/2,0")),
    "2/3": (("1,1", "2,5"), ("3,2,1,0", "inf,2,1,0")),
    "3/5": (("1,1", "1/2,3"), ("3,2,1,0", "inf,3/2,1/2,0")),
    "5/7": (("1,1,1", "3,1/2,2"), ("4,3,2,1,0", "inf,7,5,1/3,0")),
    "3/7": (("1,1,1", "2,3,5"), ("4,3,2,1,0", "inf,3,2,1,0")),
}

# Positions 1..k, where k is the digit count of q/p.
INSERT_DATA = {
    "1/3": 1,
    "2/5": 2,
    "3/7": 3,
    "5/8": 3,
}

STABILITY_DOCS = {
    "zero-incidence": {
        "points": ["P1", "P2", "P3"],
        "weights": ["1/3", "1/3", "1/3"],
        "incidence": ["1:0", "0:0", "1:1"],
    },
    "genus-not-integer": {"genus": "1", "points": [], "weights": [], "incidence": []},
    "weight-zero-denominator": {"points": ["P"], "weights": ["1/0"], "incidence": ["1:0"]},
}

PIPELINE_DOCS = {
    **STABILITY_DOCS,
    "zero-extra-point": {
        "points": ["N", "S"],
        "weights": ["1/3", "1/3"],
        "incidence": ["1:0", "0:1"],
        "extra_points": ["0:0"],
    },
    "weight-too-long": {
        "points": ["N", "S"],
        "weights": ["1/100003", "1/3"],
        "incidence": ["1:0", "0:1"],
    },
}


def _levels(k: int, top: str) -> str:
    """k + 2 strictly decreasing levels ending at 0, topped by ``top``."""
    return ",".join([top, *(str(k - i) for i in range(k)), "0"])


def _argvs(tmp_dir: Path):
    for w in HJ_WEIGHTS:
        yield ["hj", w]
    yield from (["hj", "1/1"], ["hj", "7/5"], ["hj", "1/100003"])

    for frac, (us, levels) in MASS_DATA.items():
        for u in us:
            yield ["mass", frac, "--u", u]
        for lv in levels:
            yield ["mass", frac, "--levels", lv]
    yield from (
        ["mass", "1/3", "--u", "1,2"],
        ["mass", "1/1", "--u", "1,2"],
        ["mass", "1/3", "--u", "0"],
        ["mass", "1/3", "--u", "inf"],
        ["mass", "1/3", "--levels", "1,2,0"],
        ["mass", "1/1", "--levels", "3,2,1,0"],
        ["mass", "1/1", "--levels", "2,inf,0"],
        ["mass", "1/3", "--levels", "2.5,1,0"],
        ["mass", "1/3", "--u", "1", "--levels", "2,1,0"],
        ["mass", "1/100003", "--u", "1"],
    )

    for frac, k in INSERT_DATA.items():
        for pos in range(1, k + 1):
            base = ["blowup-insert", frac, "--position", str(pos)]
            yield base
            yield [*base, "--u", ",".join(str(j) for j in range(1, k + 2))]
            yield [*base, "--levels", _levels(k, str(k + 3))]
            yield [*base, "--levels", _levels(k, "inf")]
            yield [*base, "--levels", _levels(k, "inf"), "--u", ",".join(["1"] * (k + 1))]
    yield from (
        ["blowup-insert", "1/3", "--position", "2"],
        ["blowup-insert", "1/3", "--position", "0"],
        ["blowup-insert", "1/3", "--position", "1", "--u", "1"],
        ["blowup-insert", "1/3", "--position", "1", "--levels", "2,1"],
        ["blowup-insert", "2/5", "--position", "1", "--levels", "1,2,3,0"],
    )

    for name, doc in PIPELINE_DOCS.items():
        path = tmp_dir / f"{name}.json"
        path.write_text(json.dumps(doc))
        if name in STABILITY_DOCS:
            yield ["stability", str(path)]
        yield ["pipeline", str(path)]

    yield from (
        ["metric-verify", "1/2", "--samples", "20000"],
        ["metric-verify", "1/2", "--samples", "0"],
        ["metric-verify", "1/3", "--levels", "1,2,0", "--samples", "10"],
        ["metric-verify", "1/3", "--levels", "1e400,1,0", "--samples", "10"],
        ["metric-verify", "1/3", "--levels", "4,3,2,1,0", "--samples", "10"],
    )


def _cases(tmp_dir: Path):
    """(key, argv) for every command line, human and ``--json``.

    Document paths are keyed by their file name, so the key does not
    depend on the temporary directory."""
    for argv in _argvs(tmp_dir):
        for fmt in ((), ("--json",)):
            shown = [Path(a).name if a.endswith(".json") else a for a in argv]
            yield " ".join((*shown, *fmt)), [*argv, *fmt]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def test_exact_cli_outputs_frozen(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = {key: _run(argv) for key, argv in _cases(tmp_path)}
    assert sorted(got) == sorted(golden)
    mismatched = [key for key in golden if got[key] != golden[key]]
    assert not mismatched, f"outputs changed: {mismatched}"


def test_golden_covers_refusals_of_every_subcommand():
    golden = json.loads(GOLDEN.read_text())
    refusals = {key: v["stderr"] for key, v in golden.items() if v["exit"] == 2}
    assert {key.split()[0] for key in refusals} == {
        "hj", "mass", "blowup-insert", "stability", "pipeline", "metric-verify"}
    # One error: line each, and nothing else on stderr.
    for err in refusals.values():
        assert err.startswith("error: ") and err.count("\n") == 1


def test_golden_stderr_shows_no_python_reprs():
    golden = json.loads(GOLDEN.read_text())
    assert not [key for key, v in golden.items() if "Fraction(" in v["stderr"]]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        frozen = {key: _run(argv) for key, argv in _cases(Path(tmp))}
    GOLDEN.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(frozen)} cases to {GOLDEN}")
