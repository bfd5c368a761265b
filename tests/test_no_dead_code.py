"""Every private top-level name, parameter and record field in chrdc is read.

A private `def`, `class` or assignment at module level must be used by
some code in `src/chrdc` outside its own definition: a name, an
attribute or an import. Each parameter must be read by its function's
body, and each field of a `NamedTuple` record must be read as an
attribute somewhere in `src/chrdc`. Mentions in docstrings and comments
do not count.
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


def _unread_parameters(tree: ast.Module) -> list[str]:
    """`name line:param` for each parameter of a `def` or `lambda` that its
    body never reads; `self` and `cls` are exempt."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "lambda")
        out += [
            f"{name} {node.lineno}:{p.arg}"
            for p in params
            if p.arg not in ("self", "cls") and p.arg not in read
        ]
    return out


def test_every_parameter_is_read():
    unread = [
        f"{path.name}: {entry}"
        for path in sorted(SRC.glob("*.py"))
        for entry in _unread_parameters(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unread == []


# Fields that nothing reads by name but that are part of a record's
# identity: steps compare as tuples, and `engine.replay` looks a recorded
# step up among the applicable ones by value, heads' positions included.
_FIELDS_READ_BY_VALUE = {"LabeledStep.matched_kept", "LabeledStep.matched_removed"}


def _record_fields(tree: ast.Module) -> list[str]:
    """`Class.field` for each field of each `NamedTuple` class in `tree`."""
    return [
        f"{node.name}.{stmt.target.id}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


def test_every_record_field_is_read():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [field for tree in trees for field in _record_fields(tree)]
    unread = [f for f in fields if f.split(".")[1] not in read and f not in _FIELDS_READ_BY_VALUE]
    assert len(fields) > 30
    assert unread == []
