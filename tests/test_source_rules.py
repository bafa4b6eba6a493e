"""Rules the library source keeps.

The checks of ``cscglue`` raise explicitly, so they survive ``python -O``,
which strips every ``assert`` statement.  One scan fails on any
``assert`` under ``src/cscglue``.  Another keeps ``cli.main`` the one
writer of output: the subcommand handlers return their payload and human
lines, and only ``main`` prints, reads ``--json`` and adds ``version``.
A third keeps floats off every verdict path: the exact layer names no
float literal, no ``float`` and no ``inf`` or ``nan`` beyond two listed
uses.  A fourth fails on a top-level function or class that nothing in
``src/cscglue`` loads beyond the ``__init__`` re-exports, so no code
survives that no pipeline path or command calls.  A fifth keeps the
metric checks on one derivative mechanism, Taylor jets: no function or
lambda takes a finite-difference step (``h``, ``h_scale``, ``h0``, ``h1``).
A sixth keeps one mass-sign rule: no comparison ``x == y - 1`` or
``x != y - 1`` of a variable y, the crepancy test, outside
``logmass.mass_sign`` and one listed use.
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


# Top-level names that no module of src/cscglue but __init__ loads.
# cli.main dispatches every cmd_* handler by name, and each listed name
# stays for the reason given.
UNLOADED_ALLOWED = {
    ("resolution", "fiber_chain"):
        "exact-sweep (bench/workloads.py) builds chains with it; bench/spans.py traces it",
    ("resolution", "blow_down_fully"):
        "exact-sweep (bench/workloads.py) blows chains down with it; bench/spans.py traces it",
    ("logmass", "mass_verdict"):
        "exact-sweep (bench/workloads.py) decides mass signs with it; bench/spans.py traces it",
}


def _unloaded_definitions():
    """(module, name) of each top-level def or class that no other code in src/ loads.

    A load is a read of the name in its own module outside its own
    definition, or of a name another module imported from it with
    ``from cscglue.<module> import``.
    """
    defined, loaded = set(), set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        if module == "__init__":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        own = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        defined |= {(module, name) for name in own}
        imported = {alias.asname or alias.name: (node.module.removeprefix("cscglue."), alias.name)
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cscglue.")
                    for alias in node.names}
        for statement in tree.body:
            owner = getattr(statement, "name", None)
            for node in ast.walk(statement):
                if not (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)):
                    continue
                if node.id in own and node.id != owner:
                    loaded.add((module, node.id))
                elif node.id in imported:
                    loaded.add(imported[node.id])
    return defined - loaded


def test_every_definition_is_loaded_by_the_library():
    # This also keeps gluing.feasibility calling exactlp.rational_rank,
    # which the traced benchmark run counts.
    unloaded = {(module, name) for module, name in _unloaded_definitions()
                if not (module == "cli" and name.startswith("cmd_"))}
    assert sorted(unloaded) == sorted(UNLOADED_ALLOWED)


STEP_PARAMETERS = {"h", "h_scale", "h0", "h1"}


def test_no_function_takes_a_step():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                         *filter(None, (args.vararg, args.kwarg)))}
                found += [f"{path.name}:{node.lineno} {name}" for name in names & STEP_PARAMETERS]
    assert not found, f"a finite-difference step is a second derivative mechanism: {found}"


# Functions that may compare x with y - 1, each for the reason given.
CREPANCY_TESTS_ALLOWED = {
    ("logmass", "mass_sign"): "the one mass-sign rule: p = q - 1 is the crepant case",
    ("parabolic", "_pattern"):
        "the paper's weight definition of a sporadic structure, weights (q - 1)/q on one "
        "section, not a mass sign",
}


def _is_minus_one(node) -> bool:
    """Is ``node`` a variable or attribute minus 1, such as ``q - 1``?

    An index such as ``len(out) - 1`` is a call's result minus 1, not a
    crepancy test, so it is left out.
    """
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.left, (ast.Name, ast.Attribute))
            and isinstance(node.right, ast.Constant) and node.right.value == 1)


def test_crepancy_is_decided_by_mass_sign_alone():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if not any(isinstance(op, (ast.Eq, ast.NotEq))
                       and (_is_minus_one(operands[i]) or _is_minus_one(operands[i + 1]))
                       for i, op in enumerate(node.ops)):
                continue
            function = node
            while function in parents and not isinstance(function, ast.FunctionDef):
                function = parents[function]
            name = function.name if isinstance(function, ast.FunctionDef) else "<module>"
            if (path.stem, name) not in CREPANCY_TESTS_ALLOWED:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"the mass sign and its zero are decided by logmass.mass_sign: {found}"
