"""Every module of the package uses each name it imports, so a deletion
cannot leave a dead import behind, and every top-level definition and
every method and property of a package class has a caller in the package
or in perfbench, so no code serves only the tests.  Every name that
perfbench's tracer wraps is bound, so an edit that unbinds one fails here
and not only inside a benchmark run.  ``routing.py`` enters the ledger only
through ``CliqueEngine.charge``.  perfbench is read with the standard
library's ``ast``, not imported."""

import ast
import importlib
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cliquemat"
TRACING = PACKAGE.parent.parent / "perfbench" / "tracing.py"
CHECKS = TRACING.with_name("checks.py")


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


def referenced_names(node: ast.AST):
    """Each name ``node`` reads, imports or reaches as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (a.name for a in sub.names)


def definitions(tree: ast.Module):
    """Each top-level function and class, and each method and property of
    a top-level class other than its dunders, with its class name or
    None."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield None, stmt
        if isinstance(stmt, ast.ClassDef):
            yield from (
                (stmt.name, member) for member in stmt.body
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (member.name.startswith("__") and member.name.endswith("__"))
            )


def test_every_definition_is_used_by_the_package():
    """No top-level function or class, and no method or property of a
    package class, serves only the tests: each is referenced in ``src/``
    outside its own definition, or perfbench uses it from outside the
    package.  Those are the bindings its tracer wraps by name (the module
    functions of its binding pairs, and the ``CliqueEngine`` and
    ``ProjectionFamily`` methods it wraps) and the attributes its
    correctness checks reach.  A re-export in ``__init__`` is not a use,
    since it only hands the name on to callers outside the package.  Names
    are matched without types, so a member counts as used wherever any
    attribute shares its name."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    uses = Counter(
        name for module, tree in trees.items() if module != "__init__"
        for name in referenced_names(tree)
    )
    exempt = tracer_bindings() | {
        ("CliqueEngine", meth) for meth in (*tracer_names("_ENGINE_METHODS"), "charge_rounds")
    } | {("ProjectionFamily", meth) for meth in tracer_names("_PROJECTION_METHODS")}
    checked = set(referenced_names(ast.parse(CHECKS.read_text())))
    unused = [
        f"{module}.{owner + '.' if owner else ''}{node.name}"
        for module, tree in trees.items()
        for owner, node in definitions(tree)
        if uses[node.name] == Counter(referenced_names(node))[node.name]
        and (owner or module, node.name) not in exempt
        and not (owner and node.name in checked)
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


# what a node phase may read besides its node: the step's parameters
STEP_PARAMETERS = {
    "engine", "n", "k", "w", "scales", "row_key", "point_key", "src_key", "rows", "recipients",
    "cheapest",
}


def node_phases(tree: ast.Module):
    """Each function a module passes to ``engine.local``, as a lambda or by
    the name of a function defined in the same top-level function."""
    for top in tree.body:
        if not isinstance(top, ast.FunctionDef):
            continue
        nested = {d.name: d for d in ast.walk(top) if isinstance(d, ast.FunctionDef)}
        for call in ast.walk(top):
            if (
                isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "local" and getattr(call.func.value, "id", None) == "engine"
            ):
                (arg,) = call.args
                yield nested[arg.id] if isinstance(arg, ast.Name) else arg


def free_reads(fn: ast.AST) -> set[str]:
    """The names ``fn`` reads that it binds nowhere: no parameter, no
    assignment or loop target, no nested definition."""
    bound, read = set(), set()
    for node in ast.walk(fn):
        if isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.Name):
            (read if isinstance(node.ctx, ast.Load) else bound).add(node.id)
        elif isinstance(node, ast.FunctionDef) and node is not fn:
            bound.add(node.name)
    return read - bound


def test_node_phases_read_no_host_variable():
    """On the clique a node knows its input and what it received, so a node
    phase reads what it needs from its node's storage: every function
    ``clusmat.py`` and ``hmst.py`` pass to ``engine.local`` reads, besides
    its node, only module-level names, builtins and the step parameters
    above, never a value the host computed for it."""
    import builtins

    reads = []
    for module in ("clusmat", "hmst"):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        top = set(imported_names(tree))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                top.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                top |= {
                    node.id for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                }
        phases = list(node_phases(tree))
        assert phases
        reads += [
            f"{module}.{getattr(fn, 'name', '<lambda>')}: {name}"
            for fn in phases
            for name in sorted(free_reads(fn) - top - STEP_PARAMETERS - set(dir(builtins)))
        ]
    assert reads == []
