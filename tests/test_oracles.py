"""The paper's subsumption results and renaming invariance, as oracles.

The decreasing criterion "generalizes all preexisting criteria". With
every rule coinductive and all rules on one level, a decreasing closing
is a strong one: `star` then allows at most one step of any label on
each side. With every rule inductive, a decreasing closing is a local
one. Both identities are exact, so no budget boundary can split them.

A verdict names rules, and a peak's sides depend on which rule comes
first, but the peaks and whether each closes do not depend on the rules'
names or order, on the names of their variables or predicates, or on a
rule that no other rule's atoms can meet. Renamed runs are compared only
when every verdict was decided (closed, or both search spaces
exhausted), so that a budget boundary cannot fake a mismatch.

Programs with propagation rules reach the targets that the engine builds
by ordered insert rather than by `canonicalize`, which the tiny programs
alone never do. Renaming the predicates changes the order those inserts
sort into, and every state on a certificate must be in canonical form.

Under `enumerate_orders` the order walk cuts branches and shares verdicts
between orders, yet it must find a closing order exactly when a plain
loop over every admissible order finds one.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from chrdc.analysis import (
    SearchBudget,
    check_local_confluence,
    check_rule_decreasing,
    check_strong_confluence,
)
from chrdc.engine import replay
from chrdc.orders import Partition, RulePreorder
from chrdc.state import canonicalize, equivalent
from chrdc.syntax import Atom, Eq, Program, Rule
from chrdc.terms import Compound, Var
from helpers import product_admissible_levels, random_tiny_program, with_propagation

BUDGET = SearchBudget(6, 400)


def test_strong_confluence_is_rule_decreasing_on_one_coinductive_level():
    rng = random.Random(11)
    established = peaks = 0
    for _ in range(200):
        p = random_tiny_program(rng)
        names = p.rule_names()
        strong = check_strong_confluence(p, BUDGET)
        decreasing = check_rule_decreasing(
            p,
            Partition.for_program(p, coinductive=names),
            RulePreorder.from_levels(names, {n: 0 for n in names}),
            BUDGET,
        )
        assert [v.closed for v in strong.verdicts] == [v.closed for v in decreasing.verdicts]
        assert strong.established == decreasing.established
        established += strong.established
        peaks += len(strong.verdicts)
    assert established >= 80 and peaks >= 150


def test_local_confluence_is_rule_decreasing_with_every_rule_inductive():
    rng = random.Random(11)
    established = searched = 0
    for _ in range(200):
        p = random_tiny_program(rng)
        local = check_local_confluence(p, BUDGET)
        decreasing = check_rule_decreasing(p, Partition.for_program(p), None, BUDGET)
        assert local.established == decreasing.established
        if decreasing.termination.acceptable:
            assert [v.closed for v in local.verdicts] == [v.closed for v in decreasing.verdicts]
            searched += 1
        established += local.established
    assert established >= 30 and searched >= 60


def _renamed_reversed(p: Program) -> Program:
    return Program(tuple(r._replace(name="m" + r.name) for r in reversed(p.rules)))


def _decided(report) -> bool:
    return all(v.closed or v.exhausted for v in report.verdicts)


def _peak_multiset(report) -> Counter:
    """Each peak's unordered pair of original rule names, and whether it closed."""
    pairs = ((report.peaks[v.index], v.closed) for v in report.verdicts)
    return Counter(
        (frozenset(name.removeprefix("m") for name in (pk.rule_left, pk.rule_right)), closed)
        for pk, closed in pairs
    )


def _replay_certificates(program: Program, report) -> int:
    replayed = 0
    for v in report.verdicts:
        if v.valley is not None:
            assert equivalent(replay(program, v.valley.left), replay(program, v.valley.right))
            replayed += 1
    return replayed


def test_verdicts_do_not_depend_on_rule_names_or_order():
    rng = random.Random(7)
    compared = certificates = 0
    for _ in range(300):
        p = random_tiny_program(rng)
        q = _renamed_reversed(p)
        for check in (check_local_confluence, check_strong_confluence):
            mine, theirs = check(p, BUDGET), check(q, BUDGET)
            certificates += _replay_certificates(p, mine) + _replay_certificates(q, theirs)
            if not (_decided(mine) and _decided(theirs)):
                continue
            assert _peak_multiset(mine) == _peak_multiset(theirs)
            assert mine.established == theirs.established
            compared += 1
    assert compared >= 500 and certificates >= 100


def _mapped(p: Program, var=lambda name: name, pred=lambda name: name) -> Program:
    """`p` with every variable and every predicate renamed."""

    def term(t):
        if isinstance(t, Var):
            return Var(var(t.name))
        return Compound(t.functor, tuple(map(term, t.args)))

    def atoms(xs):
        return tuple(Atom(pred(a.pred), tuple(map(term, a.args))) for a in xs)

    def eqs(xs):
        return tuple(Eq(term(e.lhs), term(e.rhs)) for e in xs)

    return Program(tuple(
        Rule(r.name, atoms(r.kept), atoms(r.removed), eqs(r.guard), atoms(r.user_body),
             eqs(r.builtin_body))
        for r in p.rules
    ))


VARIANTS = {
    # L0, L1, ... are the names canonical forms give locals, and a user
    # may write them too.
    "variables": lambda p: _mapped(p, var={"X": "L1", "Y": "L0"}.__getitem__),
    # The new names sort the other way round.
    "predicates": lambda p: _mapped(p, pred={"p": "zp", "q": "aq"}.__getitem__),
    "fresh_rule": lambda p: Program(
        p.rules + (Rule("fresh", (), (Atom("fz", (Var("X"),)),), (), (), ()),)
    ),
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_verdicts_do_not_depend_on_variable_or_predicate_names_or_a_fresh_rule(variant):
    rng = random.Random(7)
    compared = certificates = 0
    for _ in range(200):
        p = random_tiny_program(rng)
        q = VARIANTS[variant](p)
        for check in (check_local_confluence, check_strong_confluence):
            mine, theirs = check(p, BUDGET), check(q, BUDGET)
            certificates += _replay_certificates(p, mine) + _replay_certificates(q, theirs)
            if not (_decided(mine) and _decided(theirs)):
                continue
            assert _peak_multiset(mine) == _peak_multiset(theirs)
            assert mine.established == theirs.established
            compared += 1
    assert compared >= 350 and certificates >= 80


def _canonical_certificates(report) -> bool:
    """Whether every state on the report's certificates is in canonical form."""
    return all(
        canonicalize(s.as_state()) == s
        for v in report.verdicts
        if v.valley is not None
        for d in v.valley
        for s in (d.source, *(step.target for step in d.steps))
    )


def test_verdicts_with_propagation_rules_do_not_depend_on_predicate_names():
    # A propagation rule fires again on its own output, so a local search
    # that takes one is never exhausted: small budgets keep the test fast.
    budget = SearchBudget(4, 60)
    rng = random.Random(3)
    compared = certificates = 0
    for _ in range(60):
        p = with_propagation(random_tiny_program(rng))
        q = VARIANTS["predicates"](p)
        for check in (check_local_confluence, check_strong_confluence):
            mine, theirs = check(p, budget), check(q, budget)
            certificates += _replay_certificates(p, mine) + _replay_certificates(q, theirs)
            assert _canonical_certificates(mine) and _canonical_certificates(theirs)
            if not (_decided(mine) and _decided(theirs)):
                continue
            assert _peak_multiset(mine) == _peak_multiset(theirs)
            assert mine.established == theirs.established
            compared += 1
    assert compared >= 70 and certificates >= 350


def _enumerated(p: Program, coinductive: list[str]):
    part = Partition.for_program(p, coinductive=coinductive)
    return check_rule_decreasing(
        p, part, None, BUDGET, enumerate_orders=True, assume_terminating=True
    )


def test_enumerated_orders_find_a_closing_order_exactly_when_one_exists():
    # The walk cuts branches and reuses verdicts across orders; a plain
    # loop over every admissible level map must agree with it wherever
    # neither was cut off by a budget. Renaming and reordering the rules,
    # or renaming the predicates, must not change the answer either.
    rng = random.Random(7)
    compared = established = invariant = certificates = 0
    for _ in range(200):
        p = random_tiny_program(rng)
        names = p.rule_names()
        coinductive = [n for n in names if rng.random() < 0.5]
        mine = _enumerated(p, coinductive)
        certificates += _replay_certificates(p, mine)
        part = mine.partition
        fixed = [
            check_rule_decreasing(
                p, part, RulePreorder.from_levels(names, dict(zip(names, levels))), BUDGET,
                assume_terminating=True,
            )
            for levels in product_admissible_levels(names, part)
        ]
        certificates += sum(_replay_certificates(p, rep) for rep in fixed)
        if not mine.order_search.truncated and all(_decided(rep) for rep in fixed):
            assert mine.established == any(rep.established for rep in fixed)
            compared += 1
            established += mine.established
        variants = (
            (_renamed_reversed(p), ["m" + n for n in coinductive]),
            (VARIANTS["predicates"](p), coinductive),
        )
        for q, renamed in variants:
            theirs = _enumerated(q, renamed)
            certificates += _replay_certificates(q, theirs)
            if mine.order_search.truncated or theirs.order_search.truncated:
                continue
            if _decided(mine) and _decided(theirs):
                assert mine.established == theirs.established
                invariant += 1
    assert compared >= 180 and established >= 80 and invariant >= 350 and certificates >= 100
