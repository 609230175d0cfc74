"""No dead code under src/pgw, read off the syntax trees with stdlib ast.

Three checks: every function and lambda parameter is read in its body
(dunder methods, whose signatures Python fixes, are exempt); every
module-level import is read in its module (`__init__.py`, which imports to
export, is exempt); every `_private` function,
class or module-level name (`_NAME = ...`) is referenced somewhere in the
package beyond its own definition.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pgw"
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _loaded(node):
    """The names read anywhere under node."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _unread_parameters(tree):
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_dunder(node.name):
                continue
            body, where = node.body, f"{node.name}()"
        elif isinstance(node, ast.Lambda):
            body, where = [node.body], f"lambda at line {node.lineno}"
        else:
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        read = set().union(*map(_loaded, body))
        out += [f"{where}: {p.arg}" for p in params if p.arg not in read]
    return out


def _unread_imports(tree):
    read = _loaded(tree)
    out = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    out.append(f"line {node.lineno}: {name}")
    return out


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_parameter_is_read(module):
    assert _unread_parameters(TREES[module]) == []


@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__.py"}))
def test_every_module_level_import_is_read(module):
    assert _unread_imports(TREES[module]) == []


def _unreferenced_privates(trees):
    """The `_private` functions, classes and module-level assigned names of
    trees, a dict from module name to syntax tree, that no name or attribute
    reads, each with where it is defined."""
    defined, referenced = {}, set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in (n for target in targets for n in ast.walk(target)):
                    if isinstance(name, ast.Name):
                        defined[name.id] = f"{module}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = f"{module}:{node.lineno}"
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
        referenced |= _loaded(tree)
    return {
        name: where
        for name, where in defined.items()
        if name.startswith("_") and not _is_dunder(name) and name not in referenced
    }


def test_every_private_definition_is_referenced():
    assert _unreferenced_privates(TREES) == {}


def test_the_checks_see_dead_code():
    # each check finds what it is for, so a pass above is not a scan of nothing
    tree = ast.parse(
        "import os\n"
        "def f(a, b):\n    return a\n"
        "g = lambda x, y: y\n"
        "def __eq__(self, other):\n    return True\n"
    )
    assert _unread_parameters(tree) == ["f(): b", "lambda at line 4: x"]
    assert _unread_imports(tree) == ["line 1: os"]
    tree = ast.parse(
        "_LIMIT = 3\n_SPARE, _USED = 4, 5\n"
        "def _g():\n    return _LIMIT\n"
        "def _h():\n    return _USED\n"
        "k = _g\n"
    )
    assert _unreferenced_privates({"case": tree}) == {"_SPARE": "case:2", "_h": "case:5"}
