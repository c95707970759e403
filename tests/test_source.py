"""Properties of the package source itself."""

import ast
from pathlib import Path

import jetmove

PACKAGE = Path(jetmove.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips assert statements, so every check the package relies
    # on must raise an error instead
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in {', '.join(found)}"
