"""Properties of the package source itself."""

import ast
import importlib
import sys
from pathlib import Path

import jetmove

PACKAGE = Path(jetmove.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _package_nodes():
    """(file:line, node) for every AST node of every package module."""
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            yield f"{path.relative_to(PACKAGE)}:{getattr(node, 'lineno', 0)}", node


def test_no_assert_statements():
    # python -O strips assert statements, so every check the package relies
    # on must raise an error instead
    found = [where for where, node in _package_nodes()
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in {', '.join(found)}"


def test_runtime_imports_only_the_standard_library():
    # the package runs on a bare interpreter: it imports itself and the
    # standard library, nothing that needs installing
    allowed = {"jetmove", *sys.stdlib_module_names}
    found = []
    for where, node in _package_nodes():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{where} {name}" for name in names
                  if name.split(".")[0] not in allowed]
    assert not found, f"imports outside the standard library: {found}"


def _resolves(module: str, path: str) -> bool:
    obj = importlib.import_module(module)
    for name in path.split("."):
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_perfbench_names_resolve():
    # the benchmark imports and traces package names from outside, so a
    # rename inside the package must not leave it pointing at nothing
    assert PACKAGE == PERFBENCH.parent / "src" / "jetmove", \
        f"jetmove imported from {PACKAGE}, not from this tree's src/"
    wanted = []
    for script in ("gen.py", "worker.py"):
        tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
        wanted += [(node.module, alias.name) for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and (node.module or "").split(".")[0] == "jetmove"
                   for alias in node.names]
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    tables = {target.id: ast.literal_eval(node.value)
              for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets
              if isinstance(target, ast.Name)
              and target.id in ("TRACED", "COUNTED")}
    wanted += [(module, path) for _, module, path in tables["TRACED"]]
    wanted.append(tables["COUNTED"])
    assert len(wanted) > len(tables["TRACED"])
    missing = [f"{module}:{path}" for module, path in wanted
               if not _resolves(module, path)]
    assert not missing, f"perfbench names missing from jetmove: {missing}"
