from __future__ import annotations

import os
import pathlib

import pytest

from chrdc.syntax import parse_program

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

# Tests that start `python -m chrdc.cli` need chrdc importable there too.
_SRC = str(pathlib.Path(__file__).parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def load(name: str):
    return parse_program((FIXTURES / name).read_text())


@pytest.fixture(scope="session")
def leq():
    return load("leq.chr")


@pytest.fixture(scope="session")
def philos():
    return load("philos.chr")


@pytest.fixture(scope="session")
def pminus():
    return load("pminus.chr")


@pytest.fixture(scope="session")
def pplus():
    return load("pplus.chr")
