"""Every module of the package uses each name it imports, so a deletion
cannot leave a dead import behind, and every top-level definition has a
caller in the package, so no code serves only the tests.  Every name that
perfbench's tracer wraps is bound, so an edit that unbinds one fails here
and not only inside a benchmark run.  ``routing.py`` enters the ledger only
through ``CliqueEngine.charge``.  perfbench is read with the standard
library's ``ast``, not imported."""

import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cliquemat"
TRACING = PACKAGE.parent.parent / "perfbench" / "tracing.py"


def imported_names(tree: ast.Module):
    """Each name an import statement binds, outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def test_every_module_uses_each_name_it_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported_names(tree) if name not in used]
    assert unused == []


def tracer_bindings() -> set[tuple[str, str]]:
    """The (module, attribute) pairs that perfbench's tracer wraps by name:
    its pairs of string constants whose first name is a package module."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    return {
        (node.elts[0].value, node.elts[1].value)
        for node in ast.walk(ast.parse(TRACING.read_text()))
        if isinstance(node, ast.Tuple) and len(node.elts) == 2
        and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts)
        and node.elts[0].value in modules
    }


def tracer_names(name: str) -> tuple[str, ...]:
    """The tuple of method names perfbench's tracer assigns to ``name``."""
    for stmt in ast.parse(TRACING.read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(stmt, "targets", ())]
        if isinstance(stmt, ast.Assign) and targets == [name]:
            return ast.literal_eval(stmt.value)
    raise AssertionError(f"{TRACING.name} assigns no {name}")


def test_every_name_the_tracer_wraps_is_bound():
    """Each (module, attribute) binding resolves on its package module, and
    each traced method is defined on its own class, where the tracer looks
    it up in the class ``__dict__``."""
    from cliquemat.engine import CliqueEngine
    from cliquemat.hmst import ProjectionFamily

    bindings = tracer_bindings()
    assert ("routing", "vector_multicast") in bindings
    assert ("generate", "from_seed") not in bindings
    unbound = [
        f"{module}.{attr}" for module, attr in sorted(bindings)
        if not hasattr(importlib.import_module(f"cliquemat.{module}"), attr)
    ]
    unbound += [
        f"CliqueEngine.{meth}" for meth in (*tracer_names("_ENGINE_METHODS"), "charge_rounds")
        if meth not in CliqueEngine.__dict__
    ]
    unbound += [
        f"ProjectionFamily.{meth}" for meth in tracer_names("_PROJECTION_METHODS")
        if meth not in ProjectionFamily.__dict__
    ]
    assert unbound == []


def referenced_names(stmt: ast.stmt):
    """Each name a top-level statement reads, imports or reaches as an
    attribute."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (a.name for a in node.names)


def test_every_definition_is_used_by_the_package():
    """No top-level function or class serves only the tests: each is
    referenced in ``src/`` outside its own definition or is a binding
    perfbench's tracer wraps by name.  A re-export in ``__init__`` is not a
    use, since it only hands the name on to callers outside the package."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    uses: dict[str, set[int]] = {}
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for stmt in tree.body:
            for name in referenced_names(stmt):
                uses.setdefault(name, set()).add(id(stmt))
    exempt = tracer_bindings()
    unused = [
        f"{module}.{stmt.name}"
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not uses.get(stmt.name, set()) - {id(stmt)}
        and (module, stmt.name) not in exempt
    ]
    assert unused == []


def test_routing_enters_the_ledger_only_through_charge():
    """Every routing call builds one Traffic and charges it with
    ``CliqueEngine.charge``: ``routing.py`` names neither ``charge_rounds``
    nor ``count_traffic``."""
    tree = ast.parse((PACKAGE / "routing.py").read_text())
    named = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    named |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert named & {"charge_rounds", "count_traffic"} == set()
