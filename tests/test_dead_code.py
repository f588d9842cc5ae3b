"""No dead code: every module-level ``_private`` name that a module of the
package defines, every method of a module-level private class, and every
public module-level function that the package does not export, is used
somewhere in the package, not only at its own definition. A helper the
code stopped calling is deleted, not kept alive by the tests that import
it."""

import ast
from pathlib import Path

import mfkalman

SRC = Path(mfkalman.__file__).resolve().parent


def _private_definitions(tree: ast.Module):
    """Names of the module-level functions, classes and assignments of
    ``tree`` that start with one underscore, and of the methods (dunders
    aside) of its private classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, ast.ClassDef):
            names = [node.name]
            if node.name.startswith("_"):
                names += [f"{node.name}.{item.name}" for item in node.body
                          if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                          and not item.name.startswith("__")]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def _references(tree: ast.Module):
    """Every name read, every attribute and every imported name of ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_helper_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = {name for tree in trees.values() for name in _references(tree)}
    # a method ``Class.method`` is used when some module reads ``method``
    dead = [f"{module}:{name}" for module, tree in trees.items()
            for name in _private_definitions(tree) if name.rpartition(".")[2] not in used]
    assert dead == []


def test_every_unexported_public_function_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = {name for tree in trees.values() for name in _references(tree)}
    dead = [f"{module}:{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_") and node.name not in mfkalman.__all__
            and node.name not in used]
    assert dead == []
