"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Every expected value here is either forced by the analyzed programs
(worked examples reproduced exactly) or computed by an independent
oracle inside the test; tolerances are exact matches throughout.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

from chrdc.analysis import (
    SearchBudget,
    check_local_confluence,
    check_modularity,
    check_rule_decreasing,
    check_strong_confluence,
    matches_star,
)
from chrdc.engine import applicable_steps, replay
from chrdc.orders import Partition, RulePreorder
from chrdc.peaks import critical_peaks
from chrdc.reports import admissible_fields
from chrdc.state import State, canonicalize, equivalent
from chrdc.syntax import Atom, parse_program
from chrdc.terms import Compound, Var, apply, term_vars, unify
from conftest import fixture_path, load
from helpers import (
    any_sides,
    instance_of,
    naive_unify_pairs,
    peak_like,
    random_state,
    random_term,
    random_tiny_program,
)

BUDGET = SearchBudget()


def _verdict(n: int, ok: bool) -> None:
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} failed"


def test_criterion_1_partial_order_solver(leq):
    part = Partition.for_program(
        leq, inductive=["duplicate", "reflexivity", "antisymmetry"],
        coinductive=["transitivity"],
    )
    order = RulePreorder.from_declarations(
        leq.rule_names(),
        [("transitivity", ">", r) for r in ("duplicate", "reflexivity", "antisymmetry")],
    )
    rep = check_rule_decreasing(leq, part, order, BUDGET)
    ok = (
        rep.established
        and rep.outcome == "CONFLUENT"
        and rep.termination.status == "VERIFIED"
        and rep.admissibility.ok
    )
    _verdict(1, ok)


def test_criterion_2_strongly_rule_decreasing(leq):
    part = Partition.for_program(leq, coinductive=leq.rule_names())
    order = RulePreorder.from_declarations(
        leq.rule_names(),
        [
            ("transitivity", ">", "duplicate"),
            ("duplicate", ">", "antisymmetry"),
            ("antisymmetry", ">", "reflexivity"),
        ],
    )
    rep = check_rule_decreasing(leq, part, order, BUDGET)
    ok = rep.established and rep.criterion == "strongly_rule_decreasing"

    # The two drawn diagrams: their certificates, exactly as drawn.
    by_index = {v.index: v for v in rep.verdicts}
    fig_a = [
        i
        for i, pk in enumerate(rep.peaks)
        if peak_like(
            pk,
            "leq(X,Y), leq(Y,X) # globals: X, Y",
            "X = Y # globals: X, Y",
            "leq(X,Y), leq(Y,X), leq(X,X) # globals: X, Y",
        )
    ]
    ok = ok and len(fig_a) == 1
    if ok:
        v = by_index[fig_a[0]]
        ok = v.valley.labels() == ([], ["reflexivity", "antisymmetry"])
    fig_b = [
        i
        for i, pk in enumerate(rep.peaks)
        if peak_like(
            pk,
            "leq(X,Y), leq(Y,Z), leq(Z,Y) # globals: X, Y, Z",
            "leq(X,Y), Y = Z # globals: X, Y, Z",
            "leq(X,Y), leq(Y,Z), leq(Z,Y), leq(X,Z) # globals: X, Y, Z",
        )
    ]
    ok = ok and len(fig_b) == 1
    if ok:
        v = by_index[fig_b[0]]
        ok = v.valley.labels() == ([], ["antisymmetry", "duplicate"])
    # Closings use only rules strictly below the peak's own labels.
    if ok:
        for v, pk in zip(rep.verdicts, rep.peaks):
            left_labels, right_labels = v.valley.labels()
            top = max((pk.rule_left, pk.rule_right), key=leq.rule_names().index)
            for label in left_labels + right_labels:
                ok = ok and (order.strictly_greater(top, label) or label == top)
    _verdict(2, ok)


def test_criterion_3_strong_confluence_fails_on_leq(leq):
    rep = check_strong_confluence(leq, BUDGET)
    ok = not rep.established
    failing = [
        (rep.peaks[v.index], v) for v in rep.verdicts if not v.closed
    ]
    example = [
        (pk, v)
        for pk, v in failing
        if (pk.rule_left, pk.rule_right) == ("antisymmetry", "transitivity")
        and peak_like(
            pk,
            "leq(X,Y), leq(Y,X) # globals: X, Y",
            "X = Y # globals: X, Y",
            "leq(X,Y), leq(Y,X), leq(X,X) # globals: X, Y",
        )
    ]
    ok = ok and len(example) == 1
    if ok:
        _, v = example[0]
        ok = "left_reduct_admits_no_step" in v.notes
    _verdict(3, ok)


def test_criterion_4_dining_philosophers(philos):
    peaks = critical_peaks(philos, philos)
    ok = bool(peaks) and all(
        (pk.rule_left, pk.rule_right) == ("eat", "eat") for pk in peaks
    )

    part = Partition.for_program(philos, coinductive=["eat", "thk"])
    order = RulePreorder.from_declarations(philos.rule_names(), [("eat", ">", "thk")])
    rep = check_rule_decreasing(philos, part, order, BUDGET)
    ok = ok and rep.established and rep.outcome == "CONFLUENT"

    anc = "frk(X), frk(Y), frk(Z), thk(X,Y,I), thk(Y,Z,J) # globals: X, Y, Z, I, J"
    left = "frk(Z), eat(X,Y,I+1), thk(Y,Z,J) # globals: X, Y, Z, I, J"
    right = "frk(X), thk(X,Y,I), eat(Y,Z,J+1) # globals: X, Y, Z, I, J"
    shared_fork = [
        i
        for i, pk in enumerate(rep.peaks)
        if peak_like(pk, anc, left, right) or peak_like(pk, anc, right, left)
    ]
    ok = ok and len(shared_fork) == 1
    if ok:
        v = next(v for v in rep.verdicts if v.index == shared_fork[0])
        ok = v.valley.labels() == (["thk", "eat", "thk"], ["thk", "eat", "thk"])
    _verdict(4, ok)


def test_criterion_5_pminus(pminus):
    peaks = critical_peaks(pminus, pminus)
    ok = len(peaks) == 1

    rep = check_rule_decreasing(pminus, Partition.for_program(pminus), None, BUDGET)
    ok = ok and rep.established and rep.termination.status == "VERIFIED"

    part = Partition.for_program(pminus, coinductive=["sminus"])
    rep = check_rule_decreasing(
        pminus, part, None, BUDGET, enumerate_orders=True
    )
    fields = dict(admissible_fields(rep))
    ok = (
        ok
        and not rep.established
        and fields.get("found") == "false"
        and fields.get("orders_tried") == "1"
    )
    # Forcing duplicate coinductive as well widens the order space; every
    # admissible order must still be exhausted without success.
    both = Partition.for_program(pminus, coinductive=["duplicate", "sminus"])
    rep = check_rule_decreasing(pminus, both, None, BUDGET, enumerate_orders=True)
    fields = dict(admissible_fields(rep))
    ok = (
        ok
        and not rep.established
        and fields.get("found") == "false"
        and fields.get("orders_tried") == "3"
    )
    _verdict(5, ok)


def test_criterion_6_pplus(pplus):
    peaks = critical_peaks(pplus, pplus)
    ok = len(peaks) == 1

    for inductive in (["duplicate", "splus"], ["splus"]):
        part = Partition.for_program(pplus, inductive=inductive)
        rep = check_rule_decreasing(pplus, part, None, BUDGET)
        ok = ok and not rep.established and rep.termination.status == "REFUTED"
        ok = ok and rep.termination.witness == "splus"

    for coinductive in (["splus"], ["duplicate", "splus"]):
        part = Partition.for_program(pplus, coinductive=coinductive)
        rep = check_rule_decreasing(pplus, part, None, BUDGET, enumerate_orders=True)
        ok = ok and not rep.established
        ok = ok and dict(admissible_fields(rep)).get("found") == "false"
        ok = ok and all(not v.closed for v in rep.verdicts if v.index == 0)
    _verdict(6, ok)


# ---------------------------------------------------------------------------
# Criterion 7: property suites, each with at least 200 randomized cases.

def test_criterion_7a_unifier_laws():
    from helpers import enumerate_unifiers, small_universe

    rng = random.Random(101)
    universe = small_universe(1)
    cases = 0
    while cases < 220:
        pairs = [
            (
                random_term(rng, ["X", "Y", "Z"], 2),
                random_term(rng, ["X", "Y", "Z"], 2),
            )
            for _ in range(rng.randint(1, 2))
        ]
        sigma = unify(pairs)
        theta = naive_unify_pairs(pairs)
        assert (sigma is None) == (theta is None)
        cases += 1
        variables = set().union(*(term_vars(l) | term_vars(r) for l, r in pairs))
        if sigma is None:
            if len(variables) <= 2 and cases % 4 == 0:
                assert enumerate_unifiers(pairs, variables, universe) == []
            continue
        for l, r in pairs:
            assert apply(sigma, l) == apply(sigma, r)
        for v, img in sigma.items():
            assert img != Var(v)
            assert apply(sigma, img) == img
        assert instance_of(sigma, theta, variables)
        assert instance_of(theta, sigma, variables)
        # Minimality against brute-force enumeration on small instances.
        if len(variables) <= 2 and cases % 4 == 0:
            for ground in enumerate_unifiers(pairs, variables, universe):
                assert instance_of(sigma, ground, variables)
    print("ACCEPTANCE 7a PASS")


def test_criterion_7b_state_equivalence_properties():
    rng = random.Random(103)
    states = [random_state(rng) for _ in range(80)]
    cases = 0
    for s in states:
        c = canonicalize(s)
        assert canonicalize(c.as_state()) == c
        assert equivalent(s, c.as_state())
        assert equivalent(s, s)
        cases += 1
    while cases < 220:
        s1, s2 = rng.choice(states), rng.choice(states)
        assert equivalent(s1, s2) == equivalent(s2, s1)
        s = rng.choice(states)
        ren = {
            v: Var(f"R{i}")
            for i, v in enumerate(sorted(s.free_vars() - s.globals))
        }
        alpha = State(
            tuple(a.subst(ren) for a in s.atoms),
            tuple(e.subst(ren) for e in s.builtins),
            s.globals,
        )
        shuffled = list(alpha.atoms)
        rng.shuffle(shuffled)
        double = State(tuple(shuffled), alpha.builtins, alpha.globals)
        assert equivalent(s, alpha) and equivalent(alpha, double) and equivalent(s, double)
        cases += 1
    print("ACCEPTANCE 7b PASS")


def test_criterion_7c_monotonicity_of_transitions(leq, philos, pminus):
    from chrdc.state import compose

    rng = random.Random(107)
    programs = [(leq, [("leq", 2)]), (philos, [("frk", 1), ("thk", 3), ("eat", 3)]),
                (pminus, [("p", 1)])]
    a, b = Compound("a"), Compound("b")
    cases = 0
    while cases < 200:
        program, sig = programs[rng.randrange(len(programs))]

        def arg(pool):
            roll = rng.random()
            if roll < 0.5:
                return rng.choice([a, b])
            return Var(rng.choice(pool))

        atoms = tuple(
            Atom(p, tuple(arg(["G1", "G2"]) for _ in range(k)))
            for p, k in (rng.choice(sig) for _ in range(rng.randint(1, 3)))
        )
        s1 = State(atoms, (), frozenset({"G1", "G2"}))
        steps = applicable_steps(program, s1)
        if not steps:
            continue
        s2 = steps[rng.randrange(len(steps))].target
        extra_atoms = tuple(
            Atom(p, tuple(arg(["G1", "M1"]) for _ in range(k)))
            for p, k in (rng.choice(sig) for _ in range(rng.randint(0, 2)))
        )
        s_extra = State(extra_atoms, (), frozenset({"G1", "G2", "M1"}))
        quantified = frozenset(rng.sample(["G1", "G2"], rng.randint(0, 2)))
        big1 = compose(canonicalize(s1).as_state(), s_extra, quantified)
        big2 = compose(s2.as_state(), s_extra, quantified)
        assert any(
            equivalent(t.target, big2) for t in applicable_steps(program, big1)
        )
        cases += 1
    print("ACCEPTANCE 7c PASS")


def test_criterion_7d_peaks_replay_one_step(leq, philos, pminus, pplus):
    rng = random.Random(109)
    programs = [leq, philos, pminus, pplus]
    replays = 0
    guard = 0
    while replays < 200 and guard < 500:
        guard += 1
        program = (
            programs[guard - 1] if guard <= len(programs) else random_tiny_program(rng)
        )
        for pk in critical_peaks(program, program):
            left = applicable_steps(program, pk.ancestor, allowed={pk.rule_left})
            assert any(equivalent(s.target, pk.left) for s in left)
            right = applicable_steps(program, pk.ancestor, allowed={pk.rule_right})
            assert any(equivalent(s.target, pk.right) for s in right)
            replays += 2
    assert replays >= 200
    print("ACCEPTANCE 7d PASS")


def test_criterion_7e_star_vs_brute_force():
    rng = random.Random(113)
    carrier = ["r0", "r1", "r2", "r3"]

    def brute_side(labels, primary, secondary, order):
        n = len(labels)
        for i in range(n + 1):
            for j in range(i, min(i + 2, n + 1)):
                prefix, mid, tail = labels[:i], labels[i:j], labels[j:]
                if not all(
                    order.geq(primary, g) and not order.geq(g, primary) for g in prefix
                ):
                    continue
                if mid and not order.geq(secondary, mid[0]):
                    continue
                if all(
                    (order.geq(primary, g) and not order.geq(g, primary))
                    or (order.geq(secondary, g) and not order.geq(g, secondary))
                    for g in tail
                ):
                    return True
        return False

    for _ in range(260):
        pairs = [
            (rng.choice(carrier), rng.choice(carrier)) for _ in range(rng.randint(0, 5))
        ]
        order = RulePreorder(carrier, pairs)
        left = [rng.choice(carrier) for _ in range(rng.randint(0, 6))]
        right = [rng.choice(carrier) for _ in range(rng.randint(0, 6))]
        alpha, beta = rng.choice(carrier), rng.choice(carrier)
        expected = brute_side(left, alpha, beta, order) and brute_side(
            right, beta, alpha, order
        )
        assert matches_star(left, right, alpha, beta, order) == expected
    print("ACCEPTANCE 7e PASS")


def test_criterion_7f_certificates_replay(leq, philos, pminus):
    rng = random.Random(127)
    certificates = 0

    def consume(program, rep):
        nonlocal certificates
        for v in rep.verdicts:
            if v.valley is None:
                continue
            meet_l = replay(program, v.valley.left)
            meet_r = replay(program, v.valley.right)
            assert equivalent(meet_l, meet_r)
            certificates += 1

    part = Partition.for_program(leq, coinductive=["transitivity"])
    order = RulePreorder.from_declarations(
        leq.rule_names(),
        [("transitivity", ">", r) for r in ("duplicate", "reflexivity", "antisymmetry")],
    )
    consume(leq, check_rule_decreasing(leq, part, order, BUDGET))
    consume(leq, check_strong_confluence(leq, BUDGET))
    phil_part = Partition.for_program(philos, coinductive=["eat", "thk"])
    phil_order = RulePreorder.from_declarations(
        philos.rule_names(), [("eat", ">", "thk")]
    )
    consume(philos, check_rule_decreasing(philos, phil_part, phil_order, BUDGET))
    consume(pminus, check_local_confluence(pminus, BUDGET))

    guard = 0
    while certificates < 200 and guard < 1500:
        guard += 1
        program = random_tiny_program(rng)
        consume(program, check_local_confluence(program, BUDGET, assume_terminating=True))
        consume(program, check_strong_confluence(program, BUDGET))
    assert certificates >= 200
    print("ACCEPTANCE 7f PASS")


def test_criterion_7g_peak_completeness_oracle():
    from test_peaks import _embeds, _overlapping_pairs
    from helpers import random_ground_state

    started = time.time()
    rng = random.Random(131)
    cases = 0
    programs = 0
    while (programs < 400 and cases < 220) and time.time() - started < 50:
        programs += 1
        program = random_tiny_program(rng)
        peaks = critical_peaks(program, program)
        for _ in range(6):
            state = random_ground_state(rng)
            for st1, st2 in _overlapping_pairs(program, state):
                cases += 1
                if st1.rule_name == st2.rule_name and equivalent(
                    st1.target, st2.target
                ):
                    continue
                covered = False
                for pk in peaks:
                    if (pk.rule_left, pk.rule_right) == (
                        st1.rule_name,
                        st2.rule_name,
                    ) and _embeds((program, program), pk, state, st1.target, st2.target):
                        covered = True
                        break
                    if (pk.rule_left, pk.rule_right) == (
                        st2.rule_name,
                        st1.rule_name,
                    ) and _embeds((program, program), pk, state, st2.target, st1.target):
                        covered = True
                        break
                assert covered
    assert cases >= 200
    assert time.time() - started < 60
    print("ACCEPTANCE 7g PASS")


def test_criterion_8_modularity():
    rep = check_modularity(load("mod_reflex.chr"), load("mod_dup.chr"), BUDGET)
    ok = rep.established and len(rep.peaks) == 1

    rep = check_modularity(load("disjoint_p.chr"), load("disjoint_q.chr"), BUDGET)
    ok = ok and rep.established and not rep.peaks

    rep = check_modularity(load("mod_splus.chr"), load("mod_sminus.chr"), BUDGET)
    ok = ok and rep.established and len(rep.peaks) == 1

    p, q = load("mod_viol_p.chr"), load("mod_viol_q.chr")
    rep = check_modularity(p, q, BUDGET)
    ok = ok and not rep.established
    # Oracle: the violating peak is joinable without the side restrictions,
    # and every unrestricted valley needs at least two p-steps on the
    # right or any p-step on the left.
    (pk,) = rep.peaks
    from chrdc.analysis import join_search

    union = parse_program(
        "r1 @ a <=> b.\nr2 @ d <=> e.\nr3 @ e <=> b.\nq1 @ a <=> d.\n"
    )
    free = join_search(pk, any_sides(union), "JOINABLE", BUDGET)
    ok = ok and free.status == "JOINABLE"
    left_labels, right_labels = free.valley.labels()
    p_rules = set(p.rule_names())
    ok = ok and (
        len([l for l in right_labels if l in p_rules]) >= 2
        or any(l in p_rules for l in left_labels)
    )
    _verdict(8, ok)


def test_criterion_9_determinism_of_machine_reports():
    scenarios = [
        ["check", "--mode", "decreasing", fixture_path("leq.chr"),
         "--config", fixture_path("leq_decreasing.cfg")],
        ["check", "--mode", "decreasing", fixture_path("leq.chr"),
         "--config", fixture_path("leq_strong_rd.cfg")],
        ["check", "--mode", "strong", fixture_path("leq.chr")],
        ["check", "--mode", "decreasing", fixture_path("philos.chr"),
         "--config", fixture_path("philos.cfg")],
        ["peaks", fixture_path("philos.chr")],
        ["check", "--mode", "decreasing", fixture_path("pminus.chr"),
         "--config", fixture_path("pminus_allind.cfg")],
        ["check", "--mode", "decreasing", fixture_path("pminus.chr"),
         "--config", fixture_path("pminus_coind.cfg")],
        ["check", "--mode", "decreasing", fixture_path("pplus.chr"),
         "--config", fixture_path("pplus_ind.cfg")],
        ["check", "--mode", "decreasing", fixture_path("pplus.chr"),
         "--config", fixture_path("pplus_allcoind.cfg")],
        ["check", "--mode", "modular", fixture_path("mod_reflex.chr"),
         fixture_path("mod_dup.chr")],
        ["check", "--mode", "modular", fixture_path("mod_splus.chr"),
         fixture_path("mod_sminus.chr")],
        ["check", "--mode", "modular", fixture_path("mod_viol_p.chr"),
         fixture_path("mod_viol_q.chr")],
    ]
    ok = True
    for scenario in scenarios:
        cmd = [sys.executable, "-m", "chrdc.cli"] + scenario + ["--format", "machine"]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        ok = ok and first.stdout == second.stdout and first.stdout != b""
        ok = ok and first.returncode == second.returncode
    _verdict(9, ok)
