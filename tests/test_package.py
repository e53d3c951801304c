"""Package-wide structure: every public export has a caller inside the package,
and every exception class in ``errors`` is raised by some module."""
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


def _raised_names(tree: ast.AST) -> set:
    """Names of the exceptions a module raises: ``raise X``, ``raise X(...)``."""
    raised = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                raised.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                raised.add(exc.attr)
    return raised


def _other_modules(name: str):
    return [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
            if path.name != name]


def test_every_export_has_a_caller_in_the_package():
    # a name counts as used when a module other than __init__ reads it;
    # a text grep would also count docstrings and error messages
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) and node.module
                for alias in node.names}
    used = set().union(*map(_used_names, _other_modules("__init__.py")))
    assert sorted(exported - used) == []


def test_every_error_class_is_raised_in_the_package():
    # an exception type no module raises is a contract nothing keeps
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set().union(*map(_raised_names, _other_modules("errors.py")))
    assert sorted(defined - raised) == []
