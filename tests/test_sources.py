"""Static checks of the package sources."""

import ast
from pathlib import Path

import dualcat

#: (module, name) imported for other modules to import from there, not used in it
RE_EXPORTS = {("fock", "OpenBlas"), ("fock", "openblas")}


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
    for path in sorted(Path(dualcat.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        imported, used = _imported_and_used(ast.parse(path.read_text()))
        unused |= {(path.stem, name) for name in imported - used}
    assert unused == RE_EXPORTS  # nothing else unused, and the list is not stale
