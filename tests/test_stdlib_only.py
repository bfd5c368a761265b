"""chrdc imports nothing outside the standard library."""

from __future__ import annotations

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).parent.parent / "src" / "chrdc"


def test_every_import_is_relative_or_stdlib():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {m}"
                for m in modules
                if m.split(".")[0] not in sys.stdlib_module_names
            ]
    assert sorted(SRC.glob("*.py"))
    assert outside == []
