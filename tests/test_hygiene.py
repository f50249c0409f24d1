"""Source hygiene checks on the package, read with ``ast``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "uqsl2"


def _private_module_names(tree):
    """Names starting with one underscore that a module defines at its top
    level: functions, classes and assignment targets."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [
                n.id
                for t in getattr(node, "targets", None) or [node.target]
                for n in ast.walk(t)
                if isinstance(n, ast.Name)
            ]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name


def test_every_private_module_name_is_read_somewhere():
    # a private module-level name that no code in the package reads (as a
    # name, an attribute or an import) is dead and should be deleted
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    dead = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _private_module_names(tree)
        if name not in read
    ]
    assert dead == []
