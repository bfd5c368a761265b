from __future__ import annotations

import itertools
import random

import pytest

import chrdc.analysis
from chrdc.analysis import (
    SearchBudget,
    capped,
    check_local_confluence,
    check_modularity,
    check_rule_decreasing,
    check_strong_confluence,
    join_search,
    matches_star,
    star,
)
from chrdc.engine import applicable_steps, replay
from chrdc.orders import Partition, RulePreorder
from chrdc.peaks import CriticalPeak, critical_peaks
from chrdc.reports import admissible_fields
from chrdc.state import canonicalize, equivalent
from chrdc.syntax import parse_program, parse_state
from conftest import load
from helpers import (
    any_sides, peak_like, plain_closing, random_tiny_program, star_sides, with_propagation,
)

BUDGET = SearchBudget()


def leq_order(names):
    return RulePreorder.from_declarations(
        names, [("transitivity", ">", r) for r in ("duplicate", "reflexivity", "antisymmetry")]
    )


# ---------------------------------------------------------------------------
# matches_star

def test_star_accepts_the_shared_fork_closing():
    order = RulePreorder.from_declarations(["eat", "thk"], [("eat", ">", "thk")])
    assert matches_star(["thk", "eat", "thk"], ["thk", "eat", "thk"], "eat", "eat", order)


def test_star_accepts_empty_reductions():
    order = RulePreorder.discrete(["eat", "thk"])
    assert matches_star([], [], "eat", "thk", order)


def test_star_rejects_two_copies_of_own_label():
    order = RulePreorder.from_declarations(["eat", "thk"], [("eat", ">", "thk")])
    assert not matches_star(["eat", "eat"], [], "eat", "eat", order)


def test_star_agrees_with_brute_force_enumeration():
    rng = random.Random(13)
    carrier = ["r0", "r1", "r2", "r3"]

    def brute_side(labels, primary, secondary, order):
        def strictly_below(g, k):
            return order.geq(k, g) and not order.geq(g, k)

        n = len(labels)
        for i in range(n + 1):
            for j in range(i, min(i + 2, n + 1)):
                prefix, mid, tail = labels[:i], labels[i:j], labels[j:]
                if not all(strictly_below(g, primary) for g in prefix):
                    continue
                if mid and not order.geq(secondary, mid[0]):
                    continue
                if all(
                    strictly_below(g, primary) or strictly_below(g, secondary)
                    for g in tail
                ):
                    return True
        return False

    for _ in range(300):
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


# ---------------------------------------------------------------------------
# join_search

def test_join_search_pminus_valley(pminus):
    (pk,) = critical_peaks(pminus, pminus)
    v = join_search(pk, any_sides(pminus), "JOINABLE", BUDGET)
    assert v.status == "JOINABLE"
    assert v.valley.labels() == (["sminus"], ["sminus", "duplicate"])
    meet_left = replay(pminus, v.valley.left)
    meet_right = replay(pminus, v.valley.right)
    assert equivalent(meet_left, meet_right)
    assert peak_like(pk, "p(s(X)), p(s(X)) # globals: X", "p(s(X)) # globals: X",
                     "p(s(X)), p(X) # globals: X")
    assert len(meet_left.atoms) == 1


def example4_peak(leq):
    for pk in critical_peaks(leq, leq):
        if (pk.rule_left, pk.rule_right) == ("antisymmetry", "transitivity") and peak_like(
            pk,
            "leq(X,Y), leq(Y,X) # globals: X, Y",
            "X = Y # globals: X, Y",
            "leq(X,Y), leq(Y,X), leq(X,X) # globals: X, Y",
        ):
            return pk
    raise AssertionError("example peak not found")


def test_join_search_single_step_fails_on_example_peak(leq):
    pk = example4_peak(leq)
    side = (leq, capped(leq.rule_names(), 1))
    v = join_search(pk, (side, side), "STRONGLY_JOINABLE", BUDGET)
    assert v.status == "NOT_CLOSED"
    assert "left_reduct_admits_no_step" in v.notes
    assert v.exhausted


def test_join_search_star_closes_example_peak(leq):
    pk = example4_peak(leq)
    order = leq_order(leq.rule_names())
    v = join_search(pk, star_sides(leq, pk, order), "DECREASING", BUDGET)
    assert v.status == "DECREASING"
    assert v.valley.labels() == ([], ["reflexivity", "antisymmetry"])


def _peak(rule_left, rule_right, ancestor, left, right):
    return CriticalPeak(
        rule_left, rule_right, parse_state(ancestor),
        canonicalize(parse_state(left)), canonicalize(parse_state(right)),
    )


def test_capped_accepts_traces_up_to_its_cap():
    labels = ["a", "b"]
    for n in range(4):
        auto = capped(labels, n)
        for length in range(6):
            for trace in itertools.product(labels, repeat=length):
                assert chrdc.analysis._accepts(auto, trace) == (length <= n), (n, trace)
        assert not chrdc.analysis._accepts(auto, ["c"])
    # A peak whose only closing takes three steps on the left.
    program = parse_program("""
    s @ go <=> a.
    t @ go <=> d.
    r1 @ a <=> b.
    r2 @ b <=> c.
    r3 @ c <=> d.
    """)
    (pk,) = critical_peaks(program, program)
    assert (pk.rule_left, pk.rule_right) == ("s", "t")
    verdicts = {}
    for n in (2, 3):
        side = (program, capped(program.rule_names(), n))
        verdicts[n] = join_search(pk, (side, side), "JOINABLE", BUDGET)
    assert verdicts[2].status == "NOT_CLOSED"
    assert verdicts[3].status == "JOINABLE"
    assert verdicts[3].valley.labels() == (["r1", "r2", "r3"], [])


def test_early_stop_keeps_the_least_key_over_both_star_phases():
    # The right reduct meets the left one at depth 2 through [a, b] first,
    # then through [a, a], whose key is less: the search keeps expanding
    # the parents that may still give a smaller key.
    program = parse_program("""
    a @ n(X) <=> n(f(X)).
    b @ n(f(X)), n(Y) <=> n(X), n(f(f(Y))).
    c @ zc <=> true.
    d @ zd <=> true.
    """)
    order = RulePreorder.from_declarations(program.rule_names(), [("d", ">", "a"), ("c", ">=", "b")])
    pk = _peak("c", "d", "n(1), n(2)", "n(1), n(f(f(2)))", "n(1), n(2)")
    sides = ((program, star("c", "d", order)), (program, star("d", "c", order)))
    v = join_search(pk, sides, "DECREASING", BUDGET)
    assert v.valley.labels() == ([], ["a", "a"])
    assert equivalent(replay(program, v.valley.left), replay(program, v.valley.right))


def test_ties_keep_the_first_derivation_met_per_state_and_phase():
    # [k, hi] and [k, lo] both reach the left reduct. `k` on u(a) comes
    # first, and `hi` from its target reaches the reduct before `lo` does
    # from the target of `k` on u(b). Each (state, phase) keeps the first
    # derivation met, so the lex-least [k, lo] is never a candidate.
    program = parse_program("""
    lo @ m \\ u(a) <=> s(a).
    hi @ m \\ u(b) <=> s(b).
    k @ u(X) <=> s(X), m.
    """)
    pk = _peak("k", "k", "u(a), u(b)", "m, s(a), s(b)", "u(a), u(b)")
    v = join_search(pk, any_sides(program), "JOINABLE", BUDGET)
    assert v.valley.labels() == ([], ["k", "hi"])


def test_a_decided_valley_within_max_states_is_kept(leq):
    pk = critical_peaks(leq, leq)[9]
    assert (pk.rule_left, pk.rule_right) == ("antisymmetry", "transitivity")
    full = join_search(pk, any_sides(leq), "JOINABLE", BUDGET, 9)
    assert full.valley.labels() == ([], ["antisymmetry", "duplicate"])
    # The left root is met in the right side's first expansion at depth 2
    # and no later parent can give a smaller key, so the search returns
    # before its budget runs out; the whole level took max_states 24.
    assert not join_search(pk, any_sides(leq), "JOINABLE", SearchBudget(8, 6), 9).closed
    for states in (7, 8, 24):
        v = join_search(pk, any_sides(leq), "JOINABLE", SearchBudget(8, states), 9)
        assert v.valley == full.valley
    assert equivalent(replay(leq, v.valley.left), replay(leq, v.valley.right))


def test_a_valley_is_returned_once_decided_before_its_siblings_count():
    # `r0` fires first from the right reduct and meets the left one: no
    # later child can have a smaller key, so x1 and x2 are never added.
    program = parse_program("r0 @ go <=> done.\nr1 @ go <=> x1.\nr2 @ go <=> x2.\n")
    pk = _peak("r0", "r1", "go", "done", "go")
    v = join_search(pk, any_sides(program), "JOINABLE", SearchBudget(8, 2))
    assert v.valley.labels() == ([], ["r0"])


def test_a_tactic_prefix_does_not_meet_the_other_reduct():
    # r0 takes the right reduct to the left one, but only as a proper
    # prefix of the tactic's one alternative: the tactic does not close
    # the peak, and the search without it does.
    program = parse_program("r0 @ go <=> done.\nr1 @ done <=> go.\n")
    pk = _peak("r0", "r1", "go", "done", "go")
    v = join_search(pk, any_sides(program), "JOINABLE", BUDGET, tactic=([[]], [["r0", "r1"]]))
    assert v.valley.labels() == ([], ["r0"])
    assert v.notes == ()


def test_an_undecided_valley_is_dropped_with_its_cut_level():
    # As in the tie-break test, [k, hi] is met at depth 2 before the
    # second parent, which could still give a smaller key, is expanded. A
    # budget cut before that drops the level as a whole, so the left
    # side's level 1 is compared next and no valley is claimed.
    program = parse_program("""
    lo @ m \\ u(a) <=> s(a).
    hi @ m \\ u(b) <=> s(b).
    k @ u(X) <=> s(X), m.
    e @ m, s(a), s(b) <=> done.
    """)
    pk = _peak("k", "k", "u(a), u(b)", "m, s(a), s(b)", "u(a), u(b)")
    assert not join_search(pk, any_sides(program), "JOINABLE", SearchBudget(8, 5)).closed
    v = join_search(pk, any_sides(program), "JOINABLE", SearchBudget(8, 6))
    assert v.valley.labels() == ([], ["k", "hi"])


def test_search_work_on_leq_local_is_pinned(leq, monkeypatch):
    stepping, calls, steps = chrdc.analysis.applicable_steps, [], []

    def counting_steps(*args):
        out = stepping(*args)
        calls.append(args)
        steps.extend(out)
        return out

    monkeypatch.setattr(chrdc.analysis, "applicable_steps", counting_steps)
    check_local_confluence(leq, BUDGET)
    # 54 calls and 190 steps when each closing search built its last
    # level in full.
    assert (len(calls), len(steps)) == (36, 76)
    del calls[:], steps[:]
    part = Partition.for_program(leq, coinductive=["transitivity"])
    check_rule_decreasing(leq, part, leq_order(leq.rule_names()), BUDGET)
    # 46 and 42 in full; 39 and 35 when a parent whose least key only ties
    # the least met is expanded too.
    assert (len(calls), len(steps)) == (37, 33)


# ---------------------------------------------------------------------------
# criteria

def test_local_confluence_pminus(pminus):
    rep = check_local_confluence(pminus, BUDGET)
    assert rep.established and rep.outcome == "CONFLUENT"
    assert rep.termination.status == "VERIFIED"


def test_local_confluence_rejects_leq(leq):
    rep = check_local_confluence(leq, BUDGET)
    assert not rep.established
    assert rep.termination.status == "REFUTED"
    assert rep.termination.witness == "transitivity"


def test_local_confluence_empty_program():
    rep = check_local_confluence(parse_program("% nothing"), BUDGET)
    assert rep.established


def test_strong_confluence_no_peaks():
    rep = check_strong_confluence(parse_program("one @ p(X) <=> q(X)."), BUDGET)
    assert rep.established


def test_strong_confluence_fails_on_leq_with_example_peak(leq):
    rep = check_strong_confluence(leq, BUDGET)
    assert not rep.established
    failing = [
        rep.peaks[v.index]
        for v in rep.verdicts
        if not v.closed
    ]
    assert any(
        peak_like(
            pk,
            "leq(X,Y), leq(Y,X) # globals: X, Y",
            "X = Y # globals: X, Y",
            "leq(X,Y), leq(Y,X), leq(X,X) # globals: X, Y",
        )
        for pk in failing
        if (pk.rule_left, pk.rule_right) == ("antisymmetry", "transitivity")
    )


def test_strong_confluence_fails_on_philos(philos):
    rep = check_strong_confluence(philos, BUDGET)
    assert not rep.established


def test_rule_decreasing_leq_with_example_partition(leq):
    part = Partition.for_program(leq, coinductive=["transitivity"])
    rep = check_rule_decreasing(leq, part, leq_order(leq.rule_names()), BUDGET)
    assert rep.established
    assert rep.criterion == "rule_decreasing"
    assert rep.termination.status == "VERIFIED"


def test_rule_decreasing_leq_all_coinductive(leq):
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
    assert rep.established
    assert rep.criterion == "strongly_rule_decreasing"
    # Certificates stay strictly below the peak labels.
    for v in rep.verdicts:
        for label in v.valley.labels()[0] + v.valley.labels()[1]:
            assert order.strictly_greater("transitivity", label) or label == "transitivity"


def test_rule_decreasing_philos(philos):
    part = Partition.for_program(philos, coinductive=["eat", "thk"])
    order = RulePreorder.from_declarations(philos.rule_names(), [("eat", ">", "thk")])
    rep = check_rule_decreasing(philos, part, order, BUDGET)
    assert rep.established
    assert all(v.status == "DECREASING" for v in rep.verdicts)


def test_rule_decreasing_inadmissible_order_is_definite(leq):
    part = Partition.for_program(leq, coinductive=["transitivity"])
    rep = check_rule_decreasing(leq, part, RulePreorder.discrete(leq.rule_names()), BUDGET)
    assert not rep.established
    assert not rep.admissibility.ok
    assert rep.verdicts == ()


def test_rule_decreasing_pplus_never_works(pplus):
    rep = check_rule_decreasing(pplus, Partition.for_program(pplus), None, BUDGET)
    assert not rep.established
    assert rep.termination.status == "REFUTED"
    rep = check_rule_decreasing(
        pplus,
        Partition.for_program(pplus, coinductive=["splus"]),
        None,
        BUDGET,
        enumerate_orders=True,
    )
    assert not rep.established
    assert dict(admissible_fields(rep))["found"] == "false"


def test_rule_decreasing_with_tactic(philos):
    part = Partition.for_program(philos, coinductive=["eat", "thk"])
    order = RulePreorder.from_declarations(philos.rule_names(), [("eat", ">", "thk")])
    seq = [["thk", "eat", "thk"]]
    tactics = {0: (seq, seq)}
    rep = check_rule_decreasing(philos, part, order, BUDGET, tactics=tactics)
    assert rep.established
    assert "tactic" in rep.verdicts[0].notes
    # A useless tactic falls back to the automaton search.
    bad = {0: ([["thk", "thk"]], [["thk", "thk"]])}
    rep = check_rule_decreasing(philos, part, order, BUDGET, tactics=bad)
    assert rep.established
    assert "tactic" not in rep.verdicts[0].notes


@pytest.mark.parametrize(
    "alternatives, via_tactic",
    [
        ([["thk"], ["thk", "eat", "thk"]], True),
        # A proper prefix of an alternative does not end a trace.
        ([["thk", "eat"], ["thk", "eat", "thk", "eat"]], False),
    ],
)
def test_tactic_closes_only_on_a_whole_alternative(philos, alternatives, via_tactic):
    part = Partition.for_program(philos, coinductive=["eat", "thk"])
    order = RulePreorder.from_declarations(philos.rule_names(), [("eat", ">", "thk")])
    tactics = {0: (alternatives, alternatives)}
    rep = check_rule_decreasing(philos, part, order, BUDGET, tactics=tactics)
    v = rep.verdicts[0]
    assert rep.established
    assert ("tactic" in v.notes) == via_tactic
    assert v.valley.labels() == (["thk", "eat", "thk"], ["thk", "eat", "thk"])


def test_modularity_examples():
    rep = check_modularity(load("mod_reflex.chr"), load("mod_dup.chr"), BUDGET)
    assert rep.established
    assert len(rep.peaks) == 1
    assert rep.verdicts[0].status == "JOINABLE"

    rep = check_modularity(load("disjoint_p.chr"), load("disjoint_q.chr"), BUDGET)
    assert rep.established
    assert rep.peaks == ()

    rep = check_modularity(load("mod_splus.chr"), load("mod_sminus.chr"), BUDGET)
    assert rep.established
    (v,) = rep.verdicts
    labels = v.valley.labels()
    assert all(l == "sminus" for l in labels[0])
    assert len(labels[1]) <= 1


def test_modularity_violating_pair_not_established():
    p, q = load("mod_viol_p.chr"), load("mod_viol_q.chr")
    rep = check_modularity(p, q, BUDGET)
    assert not rep.established
    # The peak does close when the side restrictions are lifted.
    (pk,) = rep.peaks
    union = parse_program(
        "r1 @ a <=> b.\nr2 @ d <=> e.\nr3 @ e <=> b.\nq1 @ a <=> d.\n"
    )
    free = join_search(pk, any_sides(union), "JOINABLE", BUDGET)
    assert free.status == "JOINABLE"
    assert len([l for l in free.valley.labels()[1] if l in ("r1", "r2", "r3")]) >= 2 or len(
        [l for l in free.valley.labels()[0] if l in ("r1", "r2", "r3")]
    ) >= 1


def test_modularity_rejects_shared_rule_names(pminus):
    with pytest.raises(ValueError):
        check_modularity(pminus, pminus, BUDGET)


# ---------------------------------------------------------------------------
# cross-cutting properties

def test_certificates_replay_to_equivalent_meets(leq, philos, pminus):
    count = 0
    scenarios = []
    part = Partition.for_program(leq, coinductive=["transitivity"])
    scenarios.append((leq, check_rule_decreasing(leq, part, leq_order(leq.rule_names()), BUDGET)))
    phil_part = Partition.for_program(philos, coinductive=["eat", "thk"])
    phil_order = RulePreorder.from_declarations(philos.rule_names(), [("eat", ">", "thk")])
    scenarios.append((philos, check_rule_decreasing(philos, phil_part, phil_order, BUDGET)))
    scenarios.append((pminus, check_local_confluence(pminus, BUDGET)))
    scenarios.append((leq, check_strong_confluence(leq, BUDGET)))
    for program, rep in scenarios:
        for v in rep.verdicts:
            if v.valley is None:
                continue
            left = replay(program, v.valley.left)
            right = replay(program, v.valley.right)
            assert equivalent(left, right)
            count += 1
    assert count >= 20


def test_star_certificates_satisfy_matches_star(leq):
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
    assert rep.established
    for v, pk in zip(rep.verdicts, rep.peaks):
        lt, rt = v.valley.labels()
        assert matches_star(lt, rt, pk.rule_left, pk.rule_right, order)


def test_strong_implies_decreasing_with_discrete_order():
    corpus = [
        parse_program("r1 @ a <=> c.\nr2 @ a <=> c."),
        parse_program("one @ p(X) <=> q(X)."),
        parse_program("% empty"),
        parse_program("mk @ p(X) <=> q(X).\nrm @ r(X) <=> s(X)."),
    ]
    for program in corpus:
        strong = check_strong_confluence(program, BUDGET)
        if not strong.established:
            continue
        part = Partition.for_program(program, coinductive=program.rule_names())
        rep = check_rule_decreasing(
            program, part, RulePreorder.discrete(program.rule_names()), BUDGET
        )
        assert rep.established, program


def test_verdicts_monotone_in_budget(leq, pminus, philos):
    small = SearchBudget(max_depth=3, max_states=200)
    large = SearchBudget(max_depth=10, max_states=5000)
    scenarios = []
    part = Partition.for_program(leq, coinductive=["transitivity"])
    order = leq_order(leq.rule_names())
    for budget in (small, large):
        scenarios.append(check_rule_decreasing(leq, part, order, budget).established)
    assert scenarios[0] <= scenarios[1]
    phil_part = Partition.for_program(philos, coinductive=["eat", "thk"])
    phil_order = RulePreorder.from_declarations(philos.rule_names(), [("eat", ">", "thk")])
    est = [
        check_rule_decreasing(philos, phil_part, phil_order, b).established
        for b in (small, large)
    ]
    assert est[0] <= est[1]
    got = [check_local_confluence(pminus, b).established for b in (small, large)]
    assert got[0] <= got[1]


def _all_traces(program, state, allowed, depth):
    """Plain DFS enumeration of every label trace up to `depth`."""
    from chrdc.state import canonicalize

    start = canonicalize(state)
    out = [((), start)]

    def rec(cur, trace):
        if len(trace) >= depth:
            return
        for st in applicable_steps(program, cur, allowed):
            out.append((trace + (st.rule_name,), st.target))
            rec(st.target, trace + (st.rule_name,))

    rec(start, ())
    return out


def _brute_minimal_valley(program, peak, allowed, depth, accept):
    """Minimal (total length, then label-position lex) meeting trace pair."""
    index = {r.name: i for i, r in enumerate(program.rules)}
    left = _all_traces(program, peak.left, allowed, depth)
    right = _all_traces(program, peak.right, allowed, depth)
    buckets = {}
    for trace, state in right:
        buckets.setdefault(state, []).append((trace, state))
    best = None
    for lt, ls in left:
        for rt, rs in buckets.get(ls, []):
            if not accept(lt, rt):
                continue
            if not equivalent(ls, rs):
                continue
            key = (
                len(lt) + len(rt),
                tuple(index[l] for l in lt),
                tuple(index[l] for l in rt),
            )
            if best is None or key < best:
                best = key
    return best


def test_certificates_are_minimal_and_lex_least(leq, pminus):
    order = RulePreorder.from_declarations(
        leq.rule_names(),
        [
            ("transitivity", ">", "duplicate"),
            ("duplicate", ">", "antisymmetry"),
            ("antisymmetry", ">", "reflexivity"),
        ],
    )
    index = {r.name: i for i, r in enumerate(leq.rules)}
    for i, pk in enumerate(critical_peaks(leq, leq)):
        v = join_search(pk, star_sides(leq, pk, order), "DECREASING", BUDGET, index=i)
        assert v.closed
        lt, rt = v.valley.labels()
        total = len(lt) + len(rt)
        if total > 3:
            continue  # keep the brute force tractable
        best = _brute_minimal_valley(
            leq, pk, leq.rule_names(), max(total, 1),
            accept=lambda a, b: matches_star(a, b, pk.rule_left, pk.rule_right, order),
        )
        found = (
            total,
            tuple(index[l] for l in lt),
            tuple(index[l] for l in rt),
        )
        assert best == found, (i, best, found)

    (pk,) = critical_peaks(pminus, pminus)
    v = join_search(pk, any_sides(pminus), "JOINABLE", BUDGET)
    idx = {r.name: i for i, r in enumerate(pminus.rules)}
    lt, rt = v.valley.labels()
    best = _brute_minimal_valley(
        pminus, pk, pminus.rule_names(), 3, accept=lambda a, b: True
    )
    assert best == (
        len(lt) + len(rt),
        tuple(idx[l] for l in lt),
        tuple(idx[l] for l in rt),
    )


def test_join_search_agrees_with_naive_reachability():
    rng = random.Random(83)
    small = SearchBudget(max_depth=3, max_states=400)
    checked = 0
    for _ in range(40):
        program = random_tiny_program(rng)
        for i, pk in enumerate(critical_peaks(program, program)):
            v = join_search(pk, any_sides(program), "JOINABLE", small, index=i)
            best = _brute_minimal_valley(
                program, pk, program.rule_names(), 3, accept=lambda a, b: True
            )
            if v.closed:
                lt, rt = v.valley.labels()
                assert best is not None
                assert best[0] == len(lt) + len(rt)
            else:
                # The searcher explores up to depth 3 per side; any meet the
                # naive enumeration finds there would contradict it.
                assert best is None
            checked += 1
    assert checked >= 25


def test_pminus_confluence_verdict_holds_semantically(pminus):
    # The analyzer reports CONFLUENT for a terminating program; brute-force
    # the claim: every reachable normal form of a state is the same one.
    from helpers import reachable
    from chrdc.state import State
    from chrdc.syntax import Atom
    from chrdc.terms import Compound

    assert check_local_confluence(pminus, BUDGET).established

    def nest(k):
        t = Compound("a")
        for _ in range(k):
            t = Compound("s", (t,))
        return t

    rng = random.Random(97)
    for _ in range(60):
        atoms = tuple(
            Atom("p", (nest(rng.randint(0, 3)),)) for _ in range(rng.randint(1, 4))
        )
        state = State(atoms, (), frozenset())
        res = reachable(pminus, state, max_depth=20, max_states=500)
        assert not res.depth_truncated and not res.states_truncated
        normal_forms = [
            c for c, _ in res.entries if not applicable_steps(pminus, c)
        ]
        assert normal_forms
        assert all(equivalent(normal_forms[0], c) for c in normal_forms[1:])


def test_philos_verdict_matches_sampled_local_peaks(philos):
    # The program is not terminating, so confluence itself is not finitely
    # checkable; sample reachable states and confirm every local peak
    # rejoins, which the decreasing-diagram verdict promises.
    from helpers import reachable
    from chrdc.syntax import parse_state

    init = parse_state("frk(1), thk(1,2,0), frk(2), thk(2,1,0)")
    res = reachable(philos, init, max_depth=3, max_states=100)
    small = SearchBudget(max_depth=4, max_states=600)
    checked = 0
    for state, _ in res.entries:
        steps = applicable_steps(philos, state)
        for a in steps:
            for b in steps:
                left = _Closer(philos, a.target, b.target, small)
                assert left.meets(), (state, a.rule_name, b.rule_name)
                checked += 1
    assert checked >= 9


class _Closer:
    """Tiny joinability probe used by the semantic sampling test."""

    def __init__(self, program, left, right, budget):
        from helpers import reachable

        self.a = reachable(program, left, max_depth=budget.max_depth,
                           max_states=budget.max_states)
        self.b = reachable(program, right, max_depth=budget.max_depth,
                           max_states=budget.max_states)

    def meets(self) -> bool:
        seen = {}
        for c, _ in self.a.entries:
            seen.setdefault(c, []).append(c)
        for c, _ in self.b.entries:
            for other in seen.get(c, []):
                if equivalent(c, other):
                    return True
        return False


def test_random_programs_keep_verdicts_budget_monotone():
    rng = random.Random(59)
    small = SearchBudget(max_depth=2, max_states=60)
    large = SearchBudget(max_depth=6, max_states=1000)
    flips = 0
    for _ in range(30):
        program = random_tiny_program(rng)
        lo = check_local_confluence(program, small, assume_terminating=True)
        hi = check_local_confluence(program, large, assume_terminating=True)
        assert lo.established <= hi.established
        flips += int(lo.established != hi.established)
    # not an assertion target, just exercising both branches
    assert flips >= 0


def test_join_search_agrees_with_the_plain_closing_search():
    # Every level built in full, and the least (left key, right key) over
    # all candidates of the least total, as the search did before it
    # stopped early; compared where max_states did not cut the plain walk.
    rng = random.Random(5)
    budget = SearchBudget(max_depth=3, max_states=300)
    compared = closed = 0
    for n in range(80):
        program = random_tiny_program(rng)
        if n % 2:
            program = with_propagation(program)
        names = program.rule_names()
        order = RulePreorder.from_levels(names, {name: rng.randrange(3) for name in names})
        for pk in critical_peaks(program, program):
            for sides in (any_sides(program), star_sides(program, pk, order)):
                valley, exhausted, cut = plain_closing(pk, sides, budget)
                if cut:
                    continue
                v = join_search(pk, sides, "JOINABLE", budget)
                assert v.valley == valley, (program, pk)
                assert v.exhausted == (valley is None and exhausted)
                compared += 1
                closed += valley is not None
    assert compared >= 400 and closed >= 150
