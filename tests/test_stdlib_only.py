"""chrdc imports nothing outside the standard library, and each of its
modules imports on its own, whatever was imported before it."""

from __future__ import annotations

import ast
import pathlib
import subprocess
import sys

import pytest

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


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__"))
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    """A cycle among the modules' imports fails here rather than for the
    caller whose import order reaches it first."""
    done = subprocess.run(
        [sys.executable, "-c", f"import chrdc.{module}"],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
