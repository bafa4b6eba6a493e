"""Rules the library source keeps.

The checks of ``cscglue`` raise explicitly, so they survive ``python -O``,
which strips every ``assert`` statement.  One scan fails on any
``assert`` under ``src/cscglue``.  Another keeps ``cli.main`` the one
writer of output: the subcommand handlers return their payload and human
lines, and only ``main`` prints, reads ``--json`` and adds ``version``.
A third keeps floats off every verdict path: the exact layer names no
float literal, no ``float`` and no ``inf`` or ``nan`` beyond two listed
uses.
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


EXACT_LAYER = ("cfrac", "resolution", "logmass", "parabolic", "gluing", "exactlp")
# (module, enclosing function, smallest enclosing call or statement): the
# level y_0 = inf, and the refusal of an infinite or NaN float level.
ALLOWED_FLOATS = {
    ("logmass", "<module>", "INFINITY = math.inf"),
    ("logmass", "_finite", "isinstance(x, (float, Decimal))"),
}


def _float_uses(module: str):
    """Each float literal, name ``float``, ``inf`` or ``nan`` and ``.inf``/``.nan`` of a module."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if not ((isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
                or (isinstance(node, ast.Name) and node.id in ("float", "inf", "nan"))
                or (isinstance(node, ast.Attribute) and node.attr in ("inf", "nan"))):
            continue
        outer = function = node
        while not isinstance(outer, (ast.Call, ast.stmt)):
            outer = parents[outer]
        while function in parents and not isinstance(function, ast.FunctionDef):
            function = parents[function]
        name = function.name if isinstance(function, ast.FunctionDef) else "<module>"
        yield module, name, ast.unparse(outer)


def test_exact_layer_is_float_free():
    found = [use for module in EXACT_LAYER for use in _float_uses(module)]
    assert sorted(found) == sorted(ALLOWED_FLOATS)
