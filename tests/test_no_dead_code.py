"""Every private top-level name in chrdc is read somewhere.

A private `def`, `class` or assignment at module level must be used by
some code in `src/chrdc` outside its own definition: a name, an
attribute or an import. Mentions in docstrings and comments do not count.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "chrdc"


def _private_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        out += [(n, node) for n in names if n.startswith("_") and not n.startswith("__")]
    return out


def _reads(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.name]
    return []


def test_every_private_top_level_name_is_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    reads = [
        (name, id(node))
        for tree in trees.values()
        for node in ast.walk(tree)
        for name in _reads(node)
    ]
    unused = []
    for file, tree in sorted(trees.items()):
        for name, definition in _private_definitions(tree):
            own = {id(n) for n in ast.walk(definition)}
            if not any(r == name and node not in own for r, node in reads):
                unused.append(f"{file}: {name}")
    assert trees
    assert unused == []
