"""The error contract of ``cli.main``, checked on the source.

``main`` prints one ``error:`` line for a ``SettingError`` by looking its
name up in ``cli._FLAGS``, and for any other ``ValueError`` by printing
its message. So every ``SettingError`` in the package must name a mapped
setting, as a string literal, and every exception the package raises by
constructing it must be one of those two types: an unmapped name, or
another type, ends ``main`` with a traceback."""

import ast
from pathlib import Path

from tonaltension.cli import _FLAGS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tonaltension"


def package_nodes(kind):
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, kind):
                yield f"{path.name}:{node.lineno}", node


def test_every_setting_error_names_a_mapped_setting():
    unmapped = [where for where, call in package_nodes(ast.Call)
                if getattr(call.func, "id", None) == "SettingError"
                and not (call.args and isinstance(call.args[0], ast.Constant)
                         and call.args[0].value in _FLAGS)]
    assert not unmapped, f"SettingError names no key of cli._FLAGS at: {unmapped}"


def test_every_raised_exception_is_a_value_or_setting_error():
    other = [f"{where} {node.exc.func.id}" for where, node in package_nodes(ast.Raise)
             if isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name)
             and node.exc.func.id not in ("ValueError", "SettingError")]
    assert not other, f"raises outside ValueError and SettingError: {other}"
