"""Every public module-level function of the package has a caller that a
command, a script or the benchmark can reach. A function that only tests
call is dead code kept alive by its own tests.

A function counts as referenced when its name appears in ``src/``,
``scripts/`` or ``perfbench/`` as a bare name, an attribute or a
``from ... import`` name, or in the benchmark tracer's SPANNED and
COUNTED tables, which name functions as strings. References under
``tests/`` do not count."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tonaltension"
CALLER_FILES = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
                + sorted((ROOT / "perfbench").glob("*.py")))


def public_functions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name


def referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def traced_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in ("SPANNED", "COUNTED")):
            for names in ast.literal_eval(node.value).values():
                yield from names


def test_every_public_function_has_a_non_test_caller():
    names = set()
    for path in CALLER_FILES:
        tree = ast.parse(path.read_text())
        names.update(referenced_names(tree))
        if path == ROOT / "perfbench" / "tracing.py":
            names.update(traced_names(tree))
    unreached = [qual for qual, name in public_functions() if name not in names]
    assert not unreached, f"public functions with no caller outside tests/: {unreached}"
