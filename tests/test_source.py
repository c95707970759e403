"""Properties of the package source itself."""

import ast
import hashlib
import importlib
import importlib.util
import json
import re
import sys
from pathlib import Path

import jetmove
from jetmove import cli, errors

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


def _caught(handler: ast.ExceptHandler) -> list[str]:
    """The names of the classes an except clause catches."""
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return [ast.unparse(kind) for kind in kinds if kind is not None]


def test_no_handler_catches_key_type_or_index_errors():
    # those are bugs wherever they are raised: the readers check JSON
    # shapes and raise the package's own classes, so nothing catches them
    found = [f"{where} {name}" for where, node in _package_nodes()
             if isinstance(node, ast.ExceptHandler)
             for name in _caught(node) if name in ("KeyError", "TypeError", "IndexError")]
    assert not found, f"handlers of built-in lookup or type errors: {found}"


def test_main_maps_package_errors_and_oserror_only():
    # the exit code follows from the exception's type alone: every
    # built-in exception but OSError reaches the final handler, exit 3
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = [_caught(h) for node in ast.walk(main) if isinstance(node, ast.Try)
              for h in node.handlers]
    assert caught[-1] == ["Exception"]
    package = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.JetmoveError)}
    others = {name for names in caught[:-1] for name in names} - package
    assert others <= {"_WriteFailed", "OSError"}, others


# every class of jetmove.errors, each with the reason it is not folded
# into PreconditionFailed
_ERROR_CLASSES = {
    "JetmoveError",                 # the base: caught last in cli.main, never raised
    "InvalidInput",                 # caught by name in cli.main: "cannot read ..."
    "RootInForbiddenRegion",        # caught by name in cli.main: prints the witness
    "OutputTooLarge",               # caught by name in cli.main: exit 5
    "InternalVerificationFailure",  # caught by name in cli.main: exit 3
    "PreconditionFailed",           # the generic class: data reads but breaks a rule
    "ZeroPolynomial",               # load-certificate refusals, which the oracles
    "DegreeMismatch",               # and the differential tests tell apart by
    "IdentityFails",                # class: which proof a loaded generator failed
}


def test_error_classes_are_pinned():
    # a new class comes with a handler in cli.main or a reason above
    found = {name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, errors.JetmoveError)}
    assert found == _ERROR_CLASSES
    raised = [where for where, node in _package_nodes()
              if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
              and ast.unparse(node.exc.func) == "JetmoveError"]
    assert not raised, f"the base class raised in {', '.join(raised)}"


def test_record_classes_are_values():
    # a class declaring __slots__ outside exactalg is a record: it takes
    # equality, hashing, repr and immutability from values.Value alone
    from jetmove.values import Value
    slotted, found = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "jetmove" if path.stem == "__init__" else f"jetmove.{path.stem}"
        module = importlib.import_module(name)
        for obj in vars(module).values():
            if (isinstance(obj, type) and obj.__module__ == name
                    and "__slots__" in vars(obj)):
                slotted.add(f"{path.name}:{obj.__qualname__}")
                if not issubclass(obj, Value):
                    found.append(f"{path.name}:{obj.__qualname__}")
    assert {"values.py:Value", "surfaces.py:ProjPoint", "surfaces.py:Jet"} <= slotted
    assert not found, f"records outside values.Value: {found}"


def _absolute_imports():
    """(file:line, top-level name) for every absolute import of the package."""
    for where, node in _package_nodes():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        yield from ((where, name.split(".")[0]) for name in names)


def test_runtime_imports_only_the_standard_library():
    # the package runs on a bare interpreter: it imports itself and the
    # standard library, nothing that needs installing
    allowed = {"jetmove", *sys.stdlib_module_names}
    found = [f"{where} {name}" for where, name in _absolute_imports()
             if name not in allowed]
    assert not found, f"imports outside the standard library: {found}"


def test_no_module_imports_dataclasses():
    # importing dataclasses loads inspect, ast and tokenize into every CLI
    # call; the record classes build on jetmove.values instead
    found = [where for where, name in _absolute_imports() if name == "dataclasses"]
    assert not found, f"dataclasses imported in {', '.join(found)}"


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


def _perfbench_gen():
    """perfbench/gen.py, loaded as a module outside sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def test_benchmark_job_generator_output_is_pinned():
    # the benchmark's job files come from gen.py through the package's
    # jet builders and jet JSON, so a changed builder keyword, jet
    # attribute or JSON text shows here as a changed hash of one schedule
    # cycle of each workload
    gen = _perfbench_gen()
    want = {
        "torus-points": (1, "112ee574d8606ae40adc28bfb8d1841f98c8852475658d860ddac09f8d292a53"),
        "sphere-jets": (1, "ef70e03f7e7a881d55217892198634f940d09c0252688ad8e465bec947bbc49f"),
        "pair-mixed": (5, "37e30a77988cac492611fe08deb3b0b6204c69464c5eec8d939182eae78f409a"),
    }
    got = {w: hashlib.sha256(json.dumps(gen.generate(w, 1, n), sort_keys=True)
                             .encode()).hexdigest() for w, (n, _) in want.items()}
    assert got == {w: digest for w, (_, digest) in want.items()}


def test_benchmark_words_are_pinned(tmp_path, capsys):
    # the words `synth` writes for the seed-1 jobs of each workload at the
    # counts `perfbench/run.py --seconds 25` selects, hashed over the file
    # bytes in job order as the benchmark's word_sha256 is; a change that
    # alters a benchmark word must say why and record the new hash here
    gen = _perfbench_gen()
    want = {
        "torus-points": (12, "8db33f788b8cd4e130ff54ad11be9fcd7e097e25c57354e67d7d5b7917b98409"),
        "sphere-jets": (16, "ea20f041e183ba44396a06b350837a50df7c72016e06177e56defd4ccc5d2cfa"),
        "pair-mixed": (50, "27cde47d7188407d1e8d9d4c8358786cb821670bde82569a0198ac35514ed669"),
    }
    got = {}
    for workload, (count, _) in want.items():
        digest = hashlib.sha256()
        for job in gen.write_jobs(gen.generate(workload, 1, count), tmp_path / workload):
            paths = job["paths"]
            assert cli.main(["synth", "--job", paths["job"], "--out", paths["word"]]) == 0
            digest.update(Path(paths["word"]).read_bytes())
        got[workload] = digest.hexdigest()
    assert got == {w: digest for w, (_, digest) in want.items()}


def test_benchmark_apply_output_is_pinned(tmp_path, capsys):
    # what `apply` prints for each seed-1 job's jet under its synthesized
    # word, at the counts above, hashed over the stdout texts in job
    # order; a change that alters one must say why and record the new hash
    gen = _perfbench_gen()
    want = {
        "torus-points": (12, "fb739a34c36343f2857dc1225da8f97cb5d853298635578c70bb456c5b4a6487"),
        "sphere-jets": (16, "771ff9715613d05c8918e5a12dad386e036728f0861d6226eed7af2556c13e80"),
        "pair-mixed": (50, "e6706e55e4f7f72d145128da6815c7fbd5f64bb2181de97c7816dfc0d78c52fd"),
    }
    got = {}
    for workload, (count, _) in want.items():
        digest = hashlib.sha256()
        for job in gen.write_jobs(gen.generate(workload, 1, count), tmp_path / workload):
            paths = job["paths"]
            assert cli.main(["synth", "--job", paths["job"], "--out", paths["word"]]) == 0
            capsys.readouterr()
            assert cli.main(["apply", "--word", paths["word"], "--jet", paths["jet"]]) == 0
            digest.update(capsys.readouterr().out.encode())
        got[workload] = digest.hexdigest()
    assert got == {w: digest for w, (_, digest) in want.items()}


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
    r"\b_?(?:int_form|from_ints|form_add|form_mul|common_forms|const_form)\b|\b_ints\b")


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
                           "Scalar.sign", "repeats"],
    "exactalg/poly.py": ["_scalars", "Poly.int_form", "Poly.shifted", "Poly.__call__",
                         "sum_of_products", "half_angle_rotation", "half_angle_proof",
                         "half_angle_from_json", "half_angle_to_json"],
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
