"""Every module of the package uses each name it imports, so a deletion
cannot leave a dead import behind, and every top-level definition has a
caller in the package, so no code serves only the tests.  Only the
standard library's ``ast``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cliquemat"


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
    """The (module, attribute) pairs that perfbench's tracer wraps by name."""
    tree = ast.parse((PACKAGE.parent.parent / "perfbench" / "tracing.py").read_text())
    return {
        (node.elts[0].value, node.elts[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Tuple) and len(node.elts) == 2
        and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts)
    }


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
