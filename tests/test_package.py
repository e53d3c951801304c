"""Package-wide structure: every public export has a caller inside the package,
every exception class in ``errors`` is raised by some module, the modules
import each other at the top only, without a cycle, ``runner`` converts no
config value read from a mapping, and no module can unpickle."""
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


def _package_imports(tree: ast.AST) -> set:
    """Sibling modules a module body imports: ``from .x import ...``, ``from . import x``."""
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
    return found


def test_imports_are_at_module_top_and_acyclic():
    # a call-time import hides a dependency, usually one that would close a cycle
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    inside = [f"{name}.py:{node.lineno}" for name, tree in sorted(trees.items())
              for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inside == []
    graph = {name: _package_imports(tree) for name, tree in trees.items()}
    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError(f"import cycle {' -> '.join(path[path.index(name):] + [name])}")
        if name not in done:
            path.append(name)
            for dep in sorted(graph.get(name, ())):
                visit(dep)
            path.pop()
            done.add(name)

    for name in sorted(graph):
        visit(name)


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


def _reads_a_mapping(node: ast.AST) -> bool:
    """``x[...]``, ``x.pop(...)`` or ``x.get(...)``."""
    return isinstance(node, ast.Subscript) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("pop", "get"))


def test_runner_converts_no_value_read_from_a_mapping():
    # config values are typed and checked as they load; int() or float() on
    # a value read from a block would truncate 12.9 to 12 or accept "16"
    tree = ast.parse((PACKAGE / "runner.py").read_text())
    found = [f"runner.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("int", "float") and any(map(_reads_a_mapping, node.args))]
    assert found == []


def test_no_module_can_unpickle():
    # loading a checkpoint or a CSV must never run code from the file:
    # no module imports pickle, and every np.load passes allow_pickle=False
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
                names += [node.module] if isinstance(node, ast.ImportFrom) and node.module else []
                if any(name.split(".")[0] == "pickle" for name in names):
                    found.append(f"{path.name}:{node.lineno} imports pickle")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "load" and isinstance(node.func.value, ast.Name)
                  and node.func.value.id == "np"
                  and not any(kw.arg == "allow_pickle" and isinstance(kw.value, ast.Constant)
                              and kw.value.value is False for kw in node.keywords)):
                found.append(f"{path.name}:{node.lineno} np.load without allow_pickle=False")
    assert found == []
