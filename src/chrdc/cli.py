"""Command-line front end.

    chrdc peaks FILE [FILE2] [--config CFG] [--format text|machine]
    chrdc check --mode {local,strong,decreasing,modular} FILE [FILE2]
          [--config CFG] [--format text|machine] [--max-depth N]
    chrdc run FILE --query "atoms # globals: ..." [--steps N]

`peaks` and `check` share one command path, with `peaks` as one more
mode. Exit codes: 0 established / done, 1 property not established, 2
input or configuration error, including a term nested too deeply to
process. Output is byte-identical across runs on identical inputs.

`main` builds its argument parser once per process, on its first call,
so a caller may call it repeatedly and pay for each call's own work.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from typing import Optional

from .analysis import (
    Report,
    SearchBudget,
    check_local_confluence,
    check_modularity,
    check_rule_decreasing,
    check_strong_confluence,
)
from .config import AnalysisConfig, ConfigError, load_config_file, resolve_tactics
from .engine import applicable_steps
from .orders import Partition, RulePreorder
from .peaks import critical_peaks
from .reports import FORMATS, emit_report
from .state import canonical_text, canonicalize
from .syntax import ParseError, Program, parse_program_file, parse_state


def _declared(
    cfg: AnalysisConfig, programs: list[Program]
) -> tuple[Partition, Optional[RulePreorder]]:
    """The config's partition and declared order on the rules of all of
    `programs`; their constructors reject rule names that none of them has.
    Programs that share a rule name are rejected, since output, partitions
    and selectors name rules."""
    program = Program(tuple(rule for p in programs for rule in p.rules))
    names = program.rule_names()
    if len(set(names)) < len(names):
        shared = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"programs share rule names: {shared}")
    part = Partition.for_program(program, cfg.inductive, cfg.coinductive)
    order = None
    if cfg.order_decls:
        order = RulePreorder.from_declarations(program.rule_names(), cfg.order_decls)
    return part, order


def _emit(report: Report, cfg: AnalysisConfig, format_flag: Optional[str]) -> None:
    sys.stdout.write(emit_report(report, format_flag or cfg.out_format))


def _cmd_analyze(args) -> int:
    """`peaks`, a listing, or a `check` mode, a criterion. `peaks` checks
    its file count before it parses; each mode of `check` after it has
    parsed, loaded the config and checked `--max-depth`."""
    if args.mode == "peaks" and len(args.files) > 2:
        raise ValueError("peaks takes one or two program files")
    # Each file is read against the arity tables of the files before it.
    programs: list[Program] = []
    for f in args.files:
        programs.append(parse_program_file(f, programs[-1].arities if programs else None))
    cfg = load_config_file(args.config) if args.config else AnalysisConfig()
    if args.max_depth is not None and args.max_depth < 0:
        raise ValueError("--max-depth must be non-negative")
    budget = SearchBudget(
        cfg.max_depth if args.max_depth is None else args.max_depth, cfg.max_states
    )

    if args.mode == "modular" and len(programs) != 2:
        raise ValueError("mode modular needs exactly two program files")
    if args.mode not in ("peaks", "modular") and len(programs) != 1:
        raise ValueError(f"mode {args.mode} needs exactly one program file")
    part, order = _declared(cfg, programs)
    program = programs[0]

    if args.mode == "peaks":
        report = Report(
            "peaks",
            partition=part if len(programs) == 1 else None,
            peaks=tuple(critical_peaks(program, programs[-1])),
        )
    elif args.mode == "modular":
        report = check_modularity(programs[0], programs[1], budget)
    elif args.mode == "local":
        report = check_local_confluence(program, budget, cfg.assume_terminating)
    elif args.mode == "strong":
        report = check_strong_confluence(program, budget)
    else:
        peaks = critical_peaks(program, program)
        tactics = None
        if cfg.tactics:
            tactics = resolve_tactics(cfg, peaks, set(program.rule_names()))
        report = check_rule_decreasing(
            program,
            part,
            order,
            budget,
            tactics=tactics,
            enumerate_orders=cfg.enumerate_orders,
            assume_terminating=cfg.assume_terminating,
            peaks=peaks,
        )
    _emit(report, cfg, args.format)
    return 0 if report.established else 1


def _cmd_run(args) -> int:
    if args.steps < 0:
        raise ValueError("--steps must be non-negative")
    program = parse_program_file(args.file)
    state = parse_state(args.query, program.arities)
    current = canonicalize(state)
    sys.stdout.write(f"0: {canonical_text(current)}\n")
    for i in range(1, args.steps + 1):
        steps = applicable_steps(program, current)
        if not steps:
            sys.stdout.write("fixpoint\n")
            return 0
        step = steps[0]
        current = step.target
        sys.stdout.write(f"{i}: --{step.rule_name}--> {canonical_text(current)}\n")
    sys.stdout.write("step limit reached\n")
    return 0


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process. Argparse reads `sys.stdout`,
    `sys.stderr` and the terminal width when it prints, not when it is
    built, so callers that swap the streams or resize the terminal share it."""
    parser = argparse.ArgumentParser(
        prog="chrdc",
        description="Confluence analyzer for CHR programs (decreasing diagrams).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_peaks = sub.add_parser("peaks", help="enumerate critical peaks")
    p_peaks.add_argument("files", nargs="+", metavar="FILE")
    p_peaks.add_argument("--config", metavar="CFG")
    p_peaks.add_argument("--format", choices=FORMATS)
    p_peaks.set_defaults(func=_cmd_analyze, mode="peaks", max_depth=None)

    p_check = sub.add_parser("check", help="run a confluence criterion")
    p_check.add_argument("files", nargs="+", metavar="FILE")
    p_check.add_argument(
        "--mode", required=True, choices=("local", "strong", "decreasing", "modular")
    )
    p_check.add_argument("--config", metavar="CFG")
    p_check.add_argument("--format", choices=FORMATS)
    p_check.add_argument("--max-depth", type=int, dest="max_depth")
    p_check.set_defaults(func=_cmd_analyze)

    p_run = sub.add_parser("run", help="bounded execution trace for debugging")
    p_run.add_argument("file", metavar="FILE")
    p_run.add_argument("--query", required=True)
    p_run.add_argument("--steps", type=int, default=20)
    p_run.set_defaults(func=_cmd_run)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ConfigError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RecursionError as exc:
        sys.stderr.write(f"error: a term is nested too deeply ({exc})\n")
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
