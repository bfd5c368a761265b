"""Seeded inputs and known answers for the benchmark's three workloads.

Nothing here imports chrdc. Programs are plain text, and every expected
answer comes from the published results for the paper's examples or from
how a program was constructed, never from chrdc's own output.

* `corpus`  - the paper's example programs with their published verdicts.
* `exhaust` - programs whose one critical peak cannot be joined by
  construction, so the bounded search spends its whole state budget.
* `orders`  - a core program plus fresh terminating rules, so that
  `enumerate_orders` has Fubini(n) admissible orders to walk.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import comb
from typing import Optional


@dataclass(frozen=True)
class Expect:
    """What a job's machine report must say; None means "not checked"."""

    exit_code: int
    verdict: Optional[tuple[str, str]] = None  # (criterion, outcome)
    termination: Optional[tuple[str, Optional[str]]] = None  # (status, witness)
    admissible: Optional[tuple[str, dict]] = None  # (head, required fields)
    peak_count: Optional[int] = None
    every_peak: Optional[tuple[str, str]] = None  # rule pair on every PEAK record
    peaks_present: tuple = ()  # (left, right, status, required fields)
    never_exhausted: bool = False


@dataclass(frozen=True)
class Job:
    id: str
    command: str  # "check" or "peaks"
    files: tuple[str, ...]
    mode: Optional[str] = None
    config: Optional[str] = None
    expect: Expect = field(default_factory=lambda: Expect(0))

    def argv(self, directory: str) -> list[str]:
        out = [self.command]
        if self.mode is not None:
            out += ["--mode", self.mode]
        out += [f"{directory}/{f}" for f in self.files]
        if self.config is not None:
            out += ["--config", f"{directory}/{self.config}"]
        return out + ["--format", "machine"]


@dataclass(frozen=True)
class Workload:
    files: dict  # file name -> text
    jobs: tuple  # the jobs of one pass, in the order they run
    warmup: Job  # a cheap job run once during set-up


def fubini(n: int) -> int:
    """Number of ordered set partitions (total preorders) of n elements."""
    a = [1]
    for i in range(1, n + 1):
        a.append(sum(comb(i, k) * a[i - k] for k in range(1, i + 1)))
    return a[n]


# ---------------------------------------------------------------------------
# Parsing a machine report and comparing it with a known answer

def parse_records(text: str) -> list[tuple[str, list[str], dict]]:
    """(kind, positional fields, key=value fields) for each report line."""
    records = []
    for line in text.splitlines():
        if not line:
            continue
        kind, *rest = line.split(" ")
        positional = [t for t in rest if "=" not in t]
        fields = dict(t.split("=", 1) for t in rest if "=" in t)
        records.append((kind, positional, fields))
    return records


def problems(expect: Expect, exit_code: Optional[int], text: str) -> list[str]:
    """Every way the job's exit code and report differ from the answer."""
    out = []
    if exit_code != expect.exit_code:
        out.append(f"exit code {exit_code}, expected {expect.exit_code}")
    records = parse_records(text)
    kinds = {}
    for kind, pos, fields in records:
        kinds.setdefault(kind, []).append((pos, fields))
    if expect.verdict is not None:
        got = [tuple(pos[:2]) for pos, _ in kinds.get("VERDICT", [])]
        if got != [expect.verdict]:
            out.append(f"VERDICT {got}, expected {expect.verdict}")
    if expect.termination is not None:
        got = [(pos[1], f.get("witness")) for pos, f in kinds.get("TERMINATION", [])]
        if got != [expect.termination]:
            out.append(f"TERMINATION {got}, expected {expect.termination}")
    if expect.admissible is not None:
        head, wanted = expect.admissible
        got = kinds.get("ADMISSIBLE", [])
        if len(got) != 1 or got[0][0][:1] != [head] or any(
            got[0][1].get(k) != v for k, v in wanted.items()
        ):
            out.append(f"ADMISSIBLE {got}, expected {head} {wanted}")
    peaks = kinds.get("PEAK", [])
    if expect.peak_count is not None and len(peaks) != expect.peak_count:
        out.append(f"{len(peaks)} PEAK records, expected {expect.peak_count}")
    if expect.every_peak is not None:
        if not peaks or any(tuple(pos[1:3]) != expect.every_peak for pos, _ in peaks):
            out.append(f"PEAK records not all {expect.every_peak}")
    for left, right, status, wanted in expect.peaks_present:
        if not any(
            pos[1:4] == [left, right, status]
            and all(f.get(k) == v for k, v in wanted.items())
            for pos, f in peaks
        ):
            out.append(f"no PEAK {left} {right} {status} {wanted}")
    if expect.never_exhausted and any(f.get("exhausted") for _, f in peaks):
        out.append("exhausted=true on an infinite search space")
    return out


# ---------------------------------------------------------------------------
# corpus: the paper's examples (the same files as tests/fixtures)

CORPUS_FILES = {
    "leq.chr": (
        "% partial order constraint solver\n"
        "duplicate @ leq(X,Y) \\ leq(X,Y) <=> true.\n"
        "reflexivity @ leq(X,X) <=> true.\n"
        "antisymmetry @ leq(X,Y), leq(Y,X) <=> X = Y.\n"
        "transitivity @ leq(X,Y), leq(Y,Z) ==> leq(X,Z).\n"
    ),
    "leq_decreasing.cfg": (
        "[partition]\n"
        "inductive = duplicate, reflexivity, antisymmetry\n"
        "coinductive = transitivity\n"
        "[order]\n"
        "transitivity > duplicate\n"
        "transitivity > reflexivity\n"
        "transitivity > antisymmetry\n"
    ),
    "leq_strong_rd.cfg": (
        "[partition]\n"
        "coinductive = duplicate, reflexivity, antisymmetry, transitivity\n"
        "[order]\n"
        "transitivity > duplicate\n"
        "duplicate > antisymmetry\n"
        "antisymmetry > reflexivity\n"
    ),
    "philos.chr": (
        "% dining philosophers with an eating counter\n"
        "eat @ thk(X,Y,I), frk(X), frk(Y) <=> eat(X,Y,I+1).\n"
        "thk @ eat(X,Y,I) <=> frk(X), frk(Y), thk(X,Y,I).\n"
    ),
    "philos.cfg": (
        "[partition]\n"
        "coinductive = eat, thk\n"
        "[order]\n"
        "eat > thk\n"
    ),
    "pminus.chr": (
        "duplicate @ p(X) \\ p(X) <=> true.\n"
        "sminus @ p(s(X)) <=> p(X).\n"
    ),
    "pminus_allind.cfg": "[partition]\ninductive = duplicate, sminus\n",
    "pminus_coind.cfg": (
        "[partition]\ninductive = duplicate\ncoinductive = sminus\n"
        "[options]\nenumerate_orders = true\n"
    ),
    "pplus.chr": (
        "duplicate @ p(X) \\ p(X) <=> true.\n"
        "splus @ p(X) <=> p(s(X)).\n"
    ),
    "pplus_ind.cfg": "[partition]\ninductive = duplicate, splus\n",
    "pplus_allcoind.cfg": (
        "[partition]\ncoinductive = duplicate, splus\n"
        "[options]\nenumerate_orders = true\n"
    ),
    "mod_reflex.chr": "reflexivity @ leq(X,X) <=> true.\n",
    "mod_dup.chr": "duplicate @ leq(X,Y) \\ leq(X,Y) <=> true.\n",
    "mod_splus.chr": "splus @ p(X) <=> p(s(X)).\n",
    "mod_sminus.chr": "sminus @ p(s(X)) <=> p(X).\n",
    "mod_viol_p.chr": "r1 @ a <=> b.\nr2 @ d <=> e.\nr3 @ e <=> b.\n",
    "mod_viol_q.chr": "q1 @ a <=> d.\n",
}

_CONFLUENT = "CONFLUENT"
_OPEN = "NOT_ESTABLISHED"

# Published answers: the paper's worked examples, as the acceptance
# criteria assert them. Order counts are Fubini(#inductive) * Fubini(#coinductive).
CORPUS_JOBS = (
    Job("leq-decreasing", "check", ("leq.chr",), "decreasing", "leq_decreasing.cfg",
        Expect(0, ("rule_decreasing", _CONFLUENT), ("VERIFIED", None), ("true", {}))),
    Job("leq-strong-rd", "check", ("leq.chr",), "decreasing", "leq_strong_rd.cfg",
        Expect(0, ("strongly_rule_decreasing", _CONFLUENT), admissible=("true", {}))),
    Job("leq-strong", "check", ("leq.chr",), "strong", None,
        Expect(1, ("strongly_confluent", _OPEN), peaks_present=(
            ("antisymmetry", "transitivity", "NOT_CLOSED",
             {"notes": "[left_reduct_admits_no_step]"}),))),
    Job("philos-decreasing", "check", ("philos.chr",), "decreasing", "philos.cfg",
        Expect(0, ("strongly_rule_decreasing", _CONFLUENT), every_peak=("eat", "eat"),
               peaks_present=(("eat", "eat", "DECREASING",
                               {"left": "[thk,eat,thk]", "right": "[thk,eat,thk]"}),))),
    Job("philos-peaks", "peaks", ("philos.chr",),
        expect=Expect(0, every_peak=("eat", "eat"))),
    Job("pminus-allind", "check", ("pminus.chr",), "decreasing", "pminus_allind.cfg",
        Expect(0, ("rule_decreasing", _CONFLUENT), ("VERIFIED", None))),
    Job("pminus-coind", "check", ("pminus.chr",), "decreasing", "pminus_coind.cfg",
        Expect(1, ("rule_decreasing", _OPEN), ("VERIFIED", None),
               ("enumerated", {"orders_tried": str(fubini(1) * fubini(1)),
                               "found": "false"}))),
    Job("pplus-ind", "check", ("pplus.chr",), "decreasing", "pplus_ind.cfg",
        Expect(1, ("rule_decreasing", _OPEN), ("REFUTED", "splus"))),
    Job("pplus-allcoind", "check", ("pplus.chr",), "decreasing", "pplus_allcoind.cfg",
        Expect(1, ("strongly_rule_decreasing", _OPEN), ("VERIFIED", None),
               ("enumerated", {"orders_tried": str(fubini(0) * fubini(2)),
                               "found": "false"}),
               peaks_present=(("duplicate", "splus", "NOT_CLOSED", {}),))),
    Job("mod-reflex-dup", "check", ("mod_reflex.chr", "mod_dup.chr"), "modular", None,
        Expect(0, ("modular_union_confluent", _CONFLUENT), peak_count=1)),
    Job("mod-splus-sminus", "check", ("mod_splus.chr", "mod_sminus.chr"), "modular", None,
        Expect(0, ("modular_union_confluent", _CONFLUENT), peak_count=1)),
    Job("mod-violating", "check", ("mod_viol_p.chr", "mod_viol_q.chr"), "modular", None,
        Expect(1, ("modular_union_confluent", _OPEN), peak_count=1)),
    # leq is not terminating: transitivity adds an atom and removes none.
    Job("leq-local", "check", ("leq.chr",), "local", None,
        Expect(1, ("locally_confluent", _OPEN), ("REFUTED", "transitivity"))),
)


def corpus(seed: int) -> Workload:
    """The corpus in one seeded order; the seed changes nothing else."""
    jobs = list(CORPUS_JOBS)
    random.Random(f"corpus:{seed}").shuffle(jobs)
    warmup = Job("warmup", "peaks", ("leq.chr",))
    return Workload(dict(CORPUS_FILES), tuple(jobs), warmup)


# ---------------------------------------------------------------------------
# exhaust: one unjoinable peak, searched until the state budget runs out

_RELATIONS = ("leq", "le", "below", "sub", "ord", "pre", "edge", "link", "dom", "reach")
_STARTS = ("p", "go", "start", "split", "fork", "init", "pick", "choose")
_MARKERS = ("q", "r", "left", "right", "mark", "tag", "lhs", "rhs", "flag", "note")
_RULE_NAMES = ("a", "b", "c", "d", "one", "two", "mk", "alt", "sa", "sb")

# Each propagation rule fires on the start store R(X,Y), R(Y,X) and adds an
# atom without removing one, so the store grows on every step.
_GROWERS = {
    "trans": "{R}(X,Y), {R}(Y,Z) ==> {R}(X,Z).",
    "sym": "{R}(X,Y) ==> {R}(Y,X).",
    "loop": "{R}(X,Y) ==> {R}(X,X).",
    "back": "{R}(X,Y), {R}(Y,X) ==> {R}(Y,Y).",
}

# One program per (grower set, state budget) cell, so every seed runs the
# same mix of job sizes and only names and rule order vary. Every set holds
# trans, the grower that makes the state space widest.
EXHAUST_GROWER_SETS = (("trans",), ("trans", "sym"), ("trans", "loop", "back"))
EXHAUST_MAX_STATES = (40, 70, 100, 130, 160)


def exhaust_program(rng: random.Random, growers: tuple) -> tuple[str, str, str]:
    """(program text, first marker rule name, second marker rule name)."""
    rel = rng.choice(_RELATIONS)
    start = rng.choice(_STARTS)
    m1, m2 = rng.sample(_MARKERS, 2)
    a, b = rng.sample(_RULE_NAMES, 2)
    arg = rng.choice("XY")
    body = f"{rel}(X,Y), {rel}(Y,X)."
    lines = [
        f"{a} @ {start}(X,Y) <=> {m1}({arg}), {body}",
        f"{b} @ {start}(X,Y) <=> {m2}({arg}), {body}",
    ]
    growers = list(growers)
    rng.shuffle(growers)
    for g in growers:
        lines.append(f"{g} @ " + _GROWERS[g].format(R=rel))
    return "\n".join(lines) + "\n", a, b


def exhaust(seed: int) -> Workload:
    """`check --mode local` on programs that cannot be joined.

    The peak of the two marker rules has a left side that holds marker
    m1 and never m2, and a right side that is its mirror image: no rule
    removes or adds a marker, and the start atom that the marker rules
    consume is produced by no rule. Every grower fires forever, so the
    search is truncated by its budget and never exhausted."""
    rng = random.Random(f"exhaust:{seed}")
    files: dict[str, str] = {}
    jobs = []
    for growers in EXHAUST_GROWER_SETS:
        for max_states in EXHAUST_MAX_STATES:
            name = f"ex{len(jobs)}"
            text, a, b = exhaust_program(rng, growers)
            files[f"{name}.chr"] = text
            files[f"{name}.cfg"] = (
                f"[limits]\nmax_states = {max_states}\n"
                "[options]\nassume_terminating = true\n"
            )
            # Every rule adds more atoms than it removes, so the first one
            # is the termination witness.
            expect = Expect(
                1,
                ("locally_confluent", _OPEN),
                ("ASSUMED", a),
                peak_count=1,
                peaks_present=((a, b, "NOT_CLOSED", {}),),
                never_exhausted=True,
            )
            jobs.append(Job(f"{name}-{'-'.join(growers)}-s{max_states}", "check",
                            (f"{name}.chr",), "local", f"{name}.cfg", expect))
    rng.shuffle(jobs)
    return Workload(files, tuple(jobs), Job("warmup", "peaks", ("ex0.chr",)))


# ---------------------------------------------------------------------------
# orders: Fubini(n) admissible orders for enumerate_orders to walk

ORDER_CORES = {
    # The first admissible order (inductive rules below transitivity) closes
    # every peak, as in the paper's leq example.
    "leq": (CORPUS_FILES["leq.chr"].split("\n", 1)[1], "transitivity", True),
    # No order closes the duplicate/splus peak (the paper's pplus example).
    "pplus": (CORPUS_FILES["pplus.chr"], "splus", False),
}
# (core, fresh rules) cells of one pass: Fubini of the inductive count
# gives 75, 541, 541, 541, 13, 75 and 75 orders.
ORDER_CELLS = (
    ("leq", 1), ("leq", 2), ("leq", 2), ("leq", 2),
    ("pplus", 2), ("pplus", 3), ("pplus", 3),
)

_FRESH_NAMES = ("ra", "rb", "rc", "rd", "re", "rf", "rg", "rh", "ri", "rj")
_FRESH_PREDS = ("a", "b", "c", "d", "e", "f", "g", "h", "u", "w")


def orders_program(rng: random.Random, core: str, m: int) -> tuple[str, int]:
    """(program text, number of inductive rules); one rule is coinductive."""
    core_text, _, _ = ORDER_CORES[core]
    lines = core_text.strip().split("\n")
    names = rng.sample(_FRESH_NAMES, m)
    preds = rng.sample(_FRESH_PREDS, m)
    for name, pred in zip(names, preds):
        lines.insert(rng.randint(0, len(lines)), f"{name} @ {pred}(X) <=> true.")
    return "\n".join(lines) + "\n", len(lines) - 1


def orders(seed: int) -> Workload:
    """`check --mode decreasing` with `enumerate_orders` on a core plus m
    fresh rules `ri @ ai(X) <=> true.`: all inductive and terminating, and
    overlapping nothing, so they add orders but no peaks."""
    rng = random.Random(f"orders:{seed}")
    files: dict[str, str] = {}
    jobs = []
    for core, m in ORDER_CELLS:
        name = f"ord{len(jobs)}"
        text, n_ind = orders_program(rng, core, m)
        _, coinductive, found = ORDER_CORES[core]
        files[f"{name}.chr"] = text
        files[f"{name}.cfg"] = (
            f"[partition]\ncoinductive = {coinductive}\n"
            "[options]\nenumerate_orders = true\n"
        )
        tried = str(fubini(n_ind) * fubini(1))
        expect = Expect(
            0 if found else 1,
            ("rule_decreasing", _CONFLUENT if found else _OPEN),
            ("VERIFIED", None),
            ("enumerated", {"orders_tried": tried, "found": str(found).lower()}),
            peaks_present=() if found else (("duplicate", "splus", "NOT_CLOSED", {}),),
        )
        jobs.append(Job(f"{name}-{core}-m{m}", "check", (f"{name}.chr",),
                        "decreasing", f"{name}.cfg", expect))
    rng.shuffle(jobs)
    return Workload(files, tuple(jobs), Job("warmup", "peaks", ("ord0.chr",)))


WORKLOADS = {"corpus": corpus, "exhaust": exhaust, "orders": orders}
