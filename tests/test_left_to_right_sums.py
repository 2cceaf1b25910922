"""No module of the package calls the builtin ``sum``.

Python 3.12 made ``sum()`` of floats compensated, so its last bits, and
every output byte downstream of them, would depend on the running
Python. The package sums floats left to right instead
(``functools.reduce(operator.add, xs, 0)`` or a written-out addition).
Integer sums are exact on every Python, so the two in ``model`` may
stay; they are allowed by the name of the function that holds them."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tonaltension"
INTEGER_SUMS = {("model.py", "_size"), ("model.py", "_spans")}


def test_package_calls_no_builtin_sum():
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(node) for func in ast.walk(tree)
                   if isinstance(func, ast.FunctionDef) and (path.name, func.name) in INTEGER_SUMS
                   for node in ast.walk(func)}
        calls += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum"
                  and id(node) not in allowed]
    assert not calls, f"builtin sum() called at: {calls}"
