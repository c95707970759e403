"""Properties of the package source itself."""

import ast
import importlib
import re
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


def test_exactalg_exports_resolve():
    # a deleted function must not leave its name behind in __all__
    exactalg = importlib.import_module("jetmove.exactalg")
    missing = [name for name in exactalg.__all__ if not hasattr(exactalg, name)]
    assert not missing, f"jetmove.exactalg.__all__ names nothing for {missing}"
    namespace = {}
    exec("from jetmove.exactalg import *", namespace)
    assert set(exactalg.__all__) <= set(namespace)


# the integer form of a polynomial is exactalg's own: no module outside
# that package names the form or the helpers that build and reduce it
_INT_FORM_NAME = re.compile(
    r"\b_?(?:int_form|from_ints|form_add|form_mul|common_forms)\b|\b_ints\b")


def test_integer_form_stays_inside_exactalg():
    found = [f"{path.relative_to(PACKAGE)}:{k}"
             for path in sorted(PACKAGE.rglob("*.py"))
             if path.parent.name != "exactalg"
             for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if _INT_FORM_NAME.search(line)]
    assert not found, f"integer-form names outside exactalg: {found}"


# rational arithmetic runs on the int pair; Fraction is only taken in and
# handed out at the boundary, never named on these paths
_FRACTION_FREE = {
    "exactalg/scalar.py": ["Scalar.__add__", "Scalar.__mul__", "Scalar.__neg__",
                           "Scalar.inverse", "Scalar.__eq__", "Scalar._key",
                           "Scalar.sign"],
    "exactalg/poly.py": ["_scalars", "Poly.int_form", "Poly.shifted", "Poly.__call__",
                         "sum_of_products"],
    "exactalg/crt.py": ["_strip_node", "_check_distinct", "CrtBasis.__init__",
                        "CrtBasis._node", "CrtBasis._factors", "CrtBasis.interpolate"],
}


def _functions(tree, prefix=""):
    """(qualified name, node) for every function of a module, methods
    named as Class.method."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}{node.name}", node


def test_rational_hot_paths_never_name_fraction():
    found, seen = [], set()
    for module, names in _FRACTION_FREE.items():
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        for name, func in _functions(tree):
            if name not in names:
                continue
            seen.add(f"{module}:{name}")
            found += [f"{module}:{name}:{node.lineno}" for node in ast.walk(func)
                      if (isinstance(node, ast.Name) and node.id == "Fraction")
                      or (isinstance(node, ast.Attribute) and node.attr == "Fraction")]
    wanted = {f"{module}:{name}" for module, names in _FRACTION_FREE.items()
              for name in names}
    assert seen == wanted, f"functions not found: {sorted(wanted - seen)}"
    assert not found, f"Fraction named on a rational hot path: {found}"


def test_routes_are_named_only_by_the_generator_kinds():
    # a proof route follows from the constructor that built the generator,
    # so no module but automorphisms spells one as a string literal
    from jetmove.automorphisms import SphereTwist, TorusMoebius, TorusTwist
    routes = {*TorusTwist.ROUTES, *TorusMoebius.ROUTES, *SphereTwist.ROUTES}
    assert len(routes) == 5
    spelled = {}
    for where, node in _package_nodes():
        if isinstance(node, ast.Constant) and node.value in routes:
            spelled.setdefault(where.split(":")[0], set()).add(node.value)
    assert spelled == {"automorphisms.py": routes}, spelled
