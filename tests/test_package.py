"""Package-wide structure: every public export has a caller inside the package."""
import ast
from pathlib import Path

import be_spectral

PACKAGE = Path(be_spectral.__file__).parent


def _used_names(tree: ast.AST) -> set:
    """Names a module reads, as bare names or as attributes."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
    return used


def test_every_export_has_a_caller_in_the_package():
    # a name counts as used when a module other than __init__ reads it;
    # a text grep would also count docstrings and error messages
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) and node.module
                for alias in node.names}
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            used |= _used_names(ast.parse(path.read_text()))
    assert sorted(exported - used) == []
