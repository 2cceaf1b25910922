"""Every public module-level function, public class and public method of
the package has a caller that a command, a script or the benchmark can
reach, and every annotated field of a public class is read by one. Code
that only tests call, and data that only tests read, is dead code kept
alive by its own tests.

A name counts as referenced when it appears in ``src/``, ``scripts/`` or
``perfbench/`` as a bare name, an attribute or a ``from ... import``
name, or in the benchmark tracer's SPANNED and COUNTED tables, which name
functions as strings. References under ``tests/`` do not count. A
method's name counts wherever it appears, whatever object it is read
from. A field counts as read when its name is loaded as an attribute of
any object, so a field that shares its name with a read one passes."""

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


def public_classes_and_methods():
    """Public module-level classes, and the public methods of every
    module-level class; dunder methods start with "_" and are left out."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{item.name}", item.name


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


def non_test_names():
    names = set()
    for path in CALLER_FILES:
        tree = ast.parse(path.read_text())
        names.update(referenced_names(tree))
        if path == ROOT / "perfbench" / "tracing.py":
            names.update(traced_names(tree))
    return names


def test_every_public_function_has_a_non_test_caller():
    names = non_test_names()
    unreached = [qual for qual, name in public_functions() if name not in names]
    assert not unreached, f"public functions with no caller outside tests/: {unreached}"


def test_every_public_class_and_method_has_a_non_test_caller():
    names = non_test_names()
    unreached = [qual for qual, name in public_classes_and_methods() if name not in names]
    assert not unreached, f"public classes or methods with no caller outside tests/: {unreached}"


def public_fields():
    """The annotated fields of every public module-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        yield f"{path.stem}.{node.name}.{item.target.id}", item.target.id


def test_every_public_field_is_read_outside_tests():
    read = {node.attr for path in CALLER_FILES for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [qual for qual, name in public_fields() if name not in read]
    assert not unread, f"public fields no command, script or benchmark reads: {unread}"
