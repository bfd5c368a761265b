"""chrdc imports nothing outside the standard library, each of its
modules imports on its own, whatever was imported before it, and each
module, test and benchmark script parses under the oldest Python that
`pyproject.toml` declares."""

from __future__ import annotations

import ast
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src" / "chrdc"


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


def test_every_module_parses_under_the_declared_python_floor():
    """The package, its tests and its benchmark alike."""
    # A regex, not tomllib, so that the test also runs on the floor itself.
    declared = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', declared).groups()
    floor = (int(major), int(minor))
    paths = [p for d in (SRC, ROOT / "tests", ROOT / "perfbench") for p in sorted(d.glob("*.py"))]
    assert len(paths) > len(list(SRC.glob("*.py")))
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)


def test_no_module_imports_dataclasses():
    """Every record in chrdc is a `NamedTuple`, one kind of value."""
    importing = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            importing += [path.name for m in modules if m == "dataclasses"]
    assert importing == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Each process the CLI starts pays for what its import loads."""
    done = subprocess.run(
        [
            sys.executable, "-c",
            "import chrdc.cli, chrdc.reports, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))",
        ],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
