"""Golden reports: every scenario's stdout, byte for byte, in both formats.

The files under `fixtures/golden/` pin the reports as they are; a change
that alters a report on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and the diff of the golden files then shows which records changed.
"""

from __future__ import annotations

import contextlib
import io
import pathlib

import pytest

from chrdc.cli import main
from conftest import FIXTURES, fixture_path

GOLDEN = FIXTURES / "golden"


def _check(mode: str, *files: str, config: str = None) -> list[str]:
    argv = ["check", "--mode", mode] + [fixture_path(f) for f in files]
    return argv + (["--config", fixture_path(config)] if config else [])


# name -> (argv, exit code)
SCENARIOS = {
    # acceptance criterion 9
    "leq_decreasing": (_check("decreasing", "leq.chr", config="leq_decreasing.cfg"), 0),
    "leq_strong_rd": (_check("decreasing", "leq.chr", config="leq_strong_rd.cfg"), 0),
    "leq_strong": (_check("strong", "leq.chr"), 1),
    "philos_decreasing": (_check("decreasing", "philos.chr", config="philos.cfg"), 0),
    "philos_peaks": (["peaks", fixture_path("philos.chr")], 0),
    "pminus_allind": (_check("decreasing", "pminus.chr", config="pminus_allind.cfg"), 0),
    "pminus_coind": (_check("decreasing", "pminus.chr", config="pminus_coind.cfg"), 1),
    "pplus_ind": (_check("decreasing", "pplus.chr", config="pplus_ind.cfg"), 1),
    "pplus_allcoind": (_check("decreasing", "pplus.chr", config="pplus_allcoind.cfg"), 1),
    "mod_reflex_dup": (_check("modular", "mod_reflex.chr", "mod_dup.chr"), 0),
    "mod_splus_sminus": (_check("modular", "mod_splus.chr", "mod_sminus.chr"), 0),
    "mod_violating": (_check("modular", "mod_viol_p.chr", "mod_viol_q.chr"), 1),
    # beyond criterion 9
    "leq_local": (_check("local", "leq.chr"), 1),
    "peaks_two_files": (
        ["peaks", fixture_path("mod_splus.chr"), fixture_path("mod_sminus.chr")], 0
    ),
    "philos_tactic": (_check("decreasing", "philos.chr", config="philos_tactic.cfg"), 0),
    "philos_enumerate": (
        _check("decreasing", "philos.chr", config="philos_enumerate.cfg"), 0
    ),
    "exhaust_local": (_check("local", "exhaust.chr", config="exhaust.cfg"), 1),
    "leq_inadmissible": (_check("decreasing", "leq.chr", config="leq_inadmissible.cfg"), 1),
    "pplus_enum_refuted": (
        _check("decreasing", "pplus.chr", config="pplus_enum_refuted.cfg"), 1
    ),
}

FORMATS = {"machine": "machine", "text": "txt"}


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _golden_path(name: str, fmt: str) -> pathlib.Path:
    return GOLDEN / f"{name}.{FORMATS[fmt]}"


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_matches_golden(name, fmt):
    argv, expected_code = SCENARIOS[name]
    code, out = _run(argv + ["--format", fmt])
    assert code == expected_code
    assert out == _golden_path(name, fmt).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, _) in SCENARIOS.items():
        for fmt in FORMATS:
            _, out = _run(argv + ["--format", fmt])
            _golden_path(name, fmt).write_text(out, encoding="utf-8")
