"""Rules the library source keeps.

The checks of ``cscglue`` raise explicitly, so they survive ``python -O``,
which strips every ``assert`` statement.  One scan fails on any
``assert`` under ``src/cscglue``.  Another keeps ``cli.main`` the one
writer of output: the subcommand handlers return their payload and human
lines, and only ``main`` prints, reads ``--json`` and adds ``version``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cscglue"


def test_library_has_no_assert_statement():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements vanish under python -O: {found}"


def _writes_output(node) -> bool:
    """A print or json.dumps call, a read of args.json, or a dict with a "version" key."""
    if isinstance(node, ast.Call):
        func = node.func
        return (isinstance(func, ast.Name) and func.id == "print") or (
            isinstance(func, ast.Attribute) and func.attr == "dumps")
    if isinstance(node, ast.Attribute):
        return node.attr == "json"
    return isinstance(node, ast.Dict) and any(
        isinstance(key, ast.Constant) and key.value == "version" for key in node.keys)


def test_cli_main_is_the_one_writer():
    path = SRC / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    in_main = [node for node in ast.walk(main) if _writes_output(node)]
    elsewhere = [f"cli.py:{node.lineno}" for node in ast.walk(tree)
                 if _writes_output(node) and not any(node is seen for seen in in_main)]
    assert in_main and not elsewhere, elsewhere
