"""Static checks of the package sources."""

import ast
from pathlib import Path

import dualcat

PACKAGE = Path(dualcat.__file__).parent
#: exported names that no module, demo or benchmark file reaches, and why they stay
KEPT = {
    "partial_trace": "tests/test_acceptance.py holds it to the dense reduction",
    "chsh_displaced_parity": "it gives the value that chsh_optimize's docstring promises",
}


def _imported_and_used(tree: ast.Module) -> tuple[set, set]:
    """The names a module binds by import, and the names it reads."""
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported, used


def test_every_imported_name_is_used():
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        imported, used = _imported_and_used(ast.parse(path.read_text()))
        unused |= {(path.stem, name) for name in imported - used}
    assert not unused


def test_blas_names_are_taken_from_blas():
    """The one-thread scope and the OpenBLAS lookup have one home: every file
    of the package and of its tests imports them from ``blas``, and reads
    them on no other module."""
    names = {node.name for node in ast.parse((PACKAGE / "blas.py").read_text()).body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert {"openblas", "_one_blas_thread"} <= names
    through = []
    for path in [*PACKAGE.glob("*.py"), *Path(__file__).parent.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module not in ("blas", "dualcat.blas"):
                through += [(path.name, a.name) for a in node.names if a.name in names]
            elif (isinstance(node, ast.Attribute) and node.attr in names
                  and not (isinstance(node.value, ast.Name) and node.value.id == "blas")):
                through.append((path.name, node.attr))
    assert not through


def _reached(tree: ast.Module) -> set:
    """The names a file reads, the attributes it takes and the names it
    imports; strings do not count."""
    reached = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            reached.add(node.id)
        elif isinstance(node, ast.Attribute):
            reached.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            reached.update(a.name.split(".")[-1] for a in node.names)
    return reached


def _defined(tree: ast.Module) -> set:
    """The module-level functions of a module and the methods of its
    classes; dunder methods, which Python calls for the reader, aside."""
    defined = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defined.add(node.name)
        elif isinstance(node, ast.ClassDef):
            defined.update(f.name for f in node.body
                           if isinstance(f, ast.FunctionDef) and not f.name.startswith("__"))
    return defined


def test_every_exported_name_is_reached():
    """Every exported name, module-level function and class method of the
    package is reached from a module of the package, a demo or a benchmark
    file, or kept for a reason ``KEPT`` gives: an op that only tests call
    belongs with the tests."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom)
                for a in node.names}
    modules = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    defined = set().union(*(_defined(ast.parse(p.read_text())) for p in modules))
    root = Path(__file__).resolve().parents[1]
    demos, bench = sorted((root / "demos").glob("*.py")), sorted((root / "bench").glob("*.py"))
    assert demos and bench and defined
    files = modules + demos + bench
    reached = set().union(*(_reached(ast.parse(p.read_text())) for p in files))
    assert sorted((exported | defined) - reached) == sorted(KEPT)  # nothing else unreached
    assert set(KEPT) <= exported  # and the map is not stale
