"""Frozen stdout and exit codes of ``stability`` and ``pipeline``.

Every fixture and a set of inline documents run through both decision
subcommands, human and ``--json``.  The outputs were recorded before the
decision layers moved to integer arithmetic over one common
denominator; a faster pipeline must print exactly the same bytes.

Rewrite ``decision_golden.json`` with ``python tests/test_decision_golden.py``
only for an intended change of output.
"""

import contextlib
import io
import json
from pathlib import Path

from cscglue.cli import main

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"
GOLDEN = HERE / "decision_golden.json"


def _sections(*specs):
    return [
        {"id": i, "self_intersection": s, "contains": list(c), "disjoint_from": list(d)}
        for i, s, c, d in specs
    ]


DOCUMENTS = {
    "sections-genus1": {
        "genus": 1,
        "model": "sections",
        "points": ["P1", "P2", "P3"],
        "weights": ["1/3", "1/5", "1/7"],
        "incidence": ["S1", "S2", "S1"],
        "sections": _sections(("S1", 2, ["P1"], []), ("S2", 0, ["P2"], [])),
    },
    "sections-genus2": {
        "genus": 2,
        "model": "sections",
        "points": ["A", "B", "C", "D"],
        "weights": ["2/7", "3/7", "1/5", "4/5"],
        "incidence": ["S", "T", "S", "T"],
        "sections": _sections(("S", 1, ["A", "C"], ["T"]), ("T", -1, ["B", "D"], ["S"]),
                              ("U", 3, [], [])),
    },
    "sections-genus2-polystable": {
        "genus": 2,
        "model": "sections",
        "points": ["A", "B", "C"],
        "weights": ["1/4", "1/4", "1/2"],
        "incidence": ["S", "S", "T"],
        "sections": _sections(("S", 0, ["A", "B"], ["T"]), ("T", 0, ["C"], ["S"])),
    },
    "trivial-extras-poles": {
        "points": ["P1", "P2", "P3", "P4"],
        "weights": ["1/2", "1/2", "1/3", "1/3"],
        "incidence": ["1:0", "0:1", "1:0", "0:1"],
        "extra_points": ["1:0", "0:1"],
    },
    "trivial-extras-negative-nonint": {
        "points": ["P1", "P2", "P3", "P4"],
        "weights": ["2/5", "2/5", "3/7", "3/7"],
        "incidence": ["2:0", "0:-3", "-5/2:0", "0:5/2"],
        "extra_points": ["-3:2", "1/2:1", "2:-5", "-7/3:-1/4", "0:7"],
    },
    "two-equal-orders-asymmetric": {
        "points": ["N", "S"],
        "weights": ["1/3", "1/3"],
        "incidence": ["1:0", "0:1"],
        "extra_points": ["2:1", "-1:3"],
    },
    "two-equal-orders-symmetric": {
        "points": ["N", "S"],
        "weights": ["2/5", "2/5"],
        "incidence": ["1:0", "0:1"],
        "extra_points": ["2:1", "1:2", "-4:-4"],
    },
    "eight-points-stable": {
        "points": [f"P{i}" for i in range(1, 9)],
        "weights": ["1/10", "1/7", "2/9", "1/11", "3/13", "1/6", "2/15", "1/8"],
        "incidence": ["0:1", "1:0", "1:1", "-1:1", "2:1", "1/2:1", "-3:1", "5:7"],
    },
    "eight-points-unstable": {
        "points": [f"P{i}" for i in range(1, 9)],
        "weights": ["9/10", "7/8", "5/6", "4/5", "1/9", "1/7", "2/11", "3/13"],
        "incidence": ["1:0", "2:0", "-3:0", "1:0", "0:1", "1:1", "2:1", "3:1"],
    },
    "eight-points-polystable-fibonacci": {
        "points": [f"P{i}" for i in range(1, 9)],
        "weights": ["196418/514229", "3/7", "2/101", "1/3",
                    "3/7", "196418/514229", "1/3", "2/101"],
        "incidence": ["1:0", "0:1", "1:0", "0:1", "1:0", "0:1", "1:0", "0:1"],
        "extra_points": ["3:1", "-1:2", "1:0"],
    },
    "teardrop-with-extras": {
        "points": ["P"],
        "weights": ["2/7"],
        "incidence": ["1:0"],
        "extra_points": ["1:1"],
    },
    "empty-structure-extras": {
        "points": [],
        "weights": [],
        "incidence": [],
        "extra_points": ["1:2"],
    },
    "sporadic-sphere": {
        "points": ["P1", "P2", "P3"],
        "weights": ["1/4", "1/4", "1/2"],
        "incidence": ["1:0", "1:0", "0:1"],
    },
    "crepant-two-fixed-points": {
        "points": ["P1", "P2", "P3", "P4"],
        "weights": ["1/2", "1/2", "1/2", "1/2"],
        "incidence": ["1:0", "0:1", "1:0", "0:1"],
    },
    "empty-structure": {"points": [], "weights": [], "incidence": []},
}


def _cases(tmp_dir: Path):
    """(key, argv) for every document, subcommand and format."""
    paths = {f.stem: f for f in sorted(FIXTURES.glob("*.json"))}
    for name, doc in DOCUMENTS.items():
        path = tmp_dir / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = path
    for name, path in paths.items():
        for command in ("stability", "pipeline"):
            for fmt in ((), ("--json",)):
                key = " ".join((command, name, *fmt))
                yield key, [command, str(path), *fmt]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"stdout": out.getvalue(), "exit": code}


def test_decision_cli_outputs_frozen(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = {key: _run(argv) for key, argv in _cases(tmp_path)}
    assert sorted(got) == sorted(golden)
    mismatched = [key for key in golden if got[key] != golden[key]]
    assert not mismatched, f"outputs changed: {mismatched}"
    for key in golden:
        assert got[key] == golden[key]


def test_golden_covers_every_fixture_and_verdict():
    golden = json.loads(GOLDEN.read_text())
    for fixture in FIXTURES.glob("*.json"):
        assert f"pipeline {fixture.stem} --json" in golden
    codes = {v["exit"] for k, v in golden.items() if k.startswith("pipeline")}
    assert codes == {0, 3, 4}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        frozen = {key: _run(argv) for key, argv in _cases(Path(tmp))}
    GOLDEN.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(frozen)} cases to {GOLDEN}")
