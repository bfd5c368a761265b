"""Tests of the benchmark's seeded generators and answer oracle.

They use no part of chrdc: programs are read with the small parser below.
Run with `python3 -m pytest perfbench`.
"""

from __future__ import annotations

import itertools
import re

import pytest

import workloads

_RULE = re.compile(r"^(\w+) @ (.+) (<=>|==>) (.+)\.$")


def split_atoms(text: str) -> list[str]:
    """Atoms of a conjunction, split at commas outside parentheses."""
    out, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if ch == "," and depth == 0:
            out.append(text[start:i].strip())
            start = i + 1
    out.append(text[start:].strip())
    return out


def pred(atom: str) -> str:
    return atom.split("(", 1)[0]


def rules_of(text: str) -> list[tuple[str, list[str], str, list[str]]]:
    """(name, head atoms, arrow, body atoms) per rule; no simpagation."""
    out = []
    for line in text.strip().split("\n"):
        m = _RULE.match(line)
        assert m, line
        out.append((m[1], split_atoms(m[2]), m[3], split_atoms(m[4])))
    return out


def brute_total_preorders(n: int, admissible=lambda level: True) -> int:
    """Distinct total preorders on n elements, from every level map."""
    seen = set()
    for level in itertools.product(range(n), repeat=n):
        if admissible(level):
            seen.add(frozenset(
                (a, b) for a in range(n) for b in range(n) if level[a] >= level[b]
            ))
    return len(seen)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    make = workloads.WORKLOADS[name]
    first, again = make(7), make(7)
    assert first.files == again.files
    assert [j.id for j in first.jobs] == [j.id for j in again.jobs]
    assert [j.argv("d") for j in first.jobs] == [j.argv("d") for j in again.jobs]
    other = make(8)
    if name == "corpus":
        assert other.files == first.files
    else:
        assert other.files != first.files


def test_fubini_matches_brute_force():
    for n in range(6):
        assert workloads.fubini(n) == brute_total_preorders(n)


def test_orders_tried_matches_brute_force_count_for_small_programs():
    checked = 0
    for seed in (1, 2, 3):
        wl = workloads.orders(seed)
        for job in wl.jobs:
            rules = [r[0] for r in rules_of(wl.files[job.files[0]])]
            cfg = wl.files[job.config]
            (coinductive,) = re.findall(r"coinductive = (\w+)", cfg)
            n_ind = len(rules) - 1
            tried = job.expect.admissible[1]["orders_tried"]
            assert tried == str(workloads.fubini(n_ind))
            if len(rules) <= 5:
                top = rules.index(coinductive)
                count = brute_total_preorders(
                    len(rules),
                    lambda level: all(
                        level[top] > level[i] for i in range(len(rules)) if i != top
                    ),
                )
                assert tried == str(count)
                checked += 1
    assert checked


def test_every_exhaust_program_has_the_marker_shape():
    for seed in (1, 2, 3, 4):
        wl = workloads.exhaust(seed)
        assert len(wl.jobs) == len(workloads.EXHAUST_GROWER_SETS) * len(
            workloads.EXHAUST_MAX_STATES
        )
        for job in wl.jobs:
            rules = rules_of(wl.files[job.files[0]])
            simp = [r for r in rules if r[2] == "<=>"]
            prop = [r for r in rules if r[2] == "==>"]
            assert len(simp) == 2 and 1 <= len(prop) <= 3
            (a, ha, _, ba), (b, hb, _, bb) = simp
            # Same single head; bodies equal up to one marker atom each.
            assert ha == hb and len(ha) == 1
            only_a = [x for x in ba if x not in bb]
            only_b = [x for x in bb if x not in ba]
            assert len(only_a) == len(only_b) == 1
            markers = {pred(only_a[0]), pred(only_b[0])}
            assert len(markers) == 2
            shared = [x for x in ba if x in bb]
            relations = {pred(x) for x in shared}
            assert len(relations) == 1
            # No rule consumes a marker, only the marker rules produce one,
            # and no rule produces the start atom, so neither side of the
            # peak can gain the other side's marker.
            start = pred(ha[0])
            for _, heads, _, body in rules:
                assert not markers & {pred(x) for x in heads}
                assert start not in {pred(x) for x in body}
            for _, heads, _, body in prop:
                assert {pred(x) for x in heads + body} == relations
                assert len(heads) <= len(shared) and len(body) == 1
            expect = job.expect
            assert expect.peaks_present == ((a, b, "NOT_CLOSED", {}),)
            assert expect.never_exhausted and expect.verdict[1] == "NOT_ESTABLISHED"


def test_oracle_flags_a_wrong_answer():
    job = next(j for j in workloads.CORPUS_JOBS if j.id == "pminus-coind")
    report = (
        "ADMISSIBLE enumerated orders_tried=1 found=false\n"
        "TERMINATION inductive VERIFIED measure=atoms,size\n"
        "PEAK 0 duplicate sminus NOT_CLOSED depth=8 states=2000 exhausted=true\n"
        "VERDICT rule_decreasing NOT_ESTABLISHED assumptions=[]\n"
    )
    assert workloads.problems(job.expect, 1, report) == []
    assert workloads.problems(job.expect, 0, report)
    assert workloads.problems(job.expect, 1, report.replace("found=false", "found=true"))
    assert workloads.problems(job.expect, 1, report.replace("orders_tried=1", "orders_tried=3"))
    assert workloads.problems(job.expect, 1, report.replace("NOT_ESTABLISHED", "CONFLUENT"))
