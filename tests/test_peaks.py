from __future__ import annotations

import hashlib
import itertools
import random
import time
from collections import Counter

from chrdc.engine import applicable_steps, fire
from chrdc.orders import Partition
from chrdc.peaks import (
    CriticalPeak,
    _ancestor,
    _head_vars,
    _head_swaps,
    _overlaps,
    _peak_key,
    _rule_pairs,
    _shape,
    _spreadsheet_name,
    classify,
    critical_peaks,
)
from chrdc.state import _canonical_renaming, canonical_text, canonicalize, equivalent
from chrdc.syntax import Atom, Eq, Program, Rule, parse_program
from chrdc.terms import Compound, Var, rename_apart
from conftest import load
from helpers import (
    CONSTANTS,
    count_calls,
    lex_leader_skips,
    naive_unify_pairs,
    orient,
    peak_like,
    random_tiny_program,
    states_mod_globals,
    with_propagation,
)


def test_pminus_has_a_single_peak(pminus):
    peaks = critical_peaks(pminus, pminus)
    assert len(peaks) == 1
    (pk,) = peaks
    assert (pk.rule_left, pk.rule_right) == ("duplicate", "sminus")
    assert peak_like(
        pk,
        "p(s(X)), p(s(X)) # globals: X",
        "p(s(X)) # globals: X",
        "p(s(X)), p(X) # globals: X",
    )


def test_pplus_has_a_single_peak(pplus):
    peaks = critical_peaks(pplus, pplus)
    assert len(peaks) == 1
    (pk,) = peaks
    assert peak_like(
        pk,
        "p(X), p(X) # globals: X",
        "p(X) # globals: X",
        "p(X), p(s(X)) # globals: X",
    )


def test_leq_contains_the_antisymmetry_transitivity_peak(leq):
    peaks = critical_peaks(leq, leq)
    hits = [
        pk
        for pk in peaks
        if (pk.rule_left, pk.rule_right) == ("antisymmetry", "transitivity")
        and peak_like(
            pk,
            "leq(X,Y), leq(Y,X) # globals: X, Y",
            "X = Y # globals: X, Y",
            "leq(X,Y), leq(Y,X), leq(X,X) # globals: X, Y",
        )
    ]
    assert len(hits) == 1


def test_disjoint_predicates_yield_no_peaks():
    p = parse_program("mk @ p(X) <=> q(X).")
    q = parse_program("rm @ r(X) <=> s(X).")
    assert critical_peaks(p, q) == []


def test_philos_peaks_all_pair_eat_with_eat(philos):
    peaks = critical_peaks(philos, philos)
    assert peaks
    assert all((pk.rule_left, pk.rule_right) == ("eat", "eat") for pk in peaks)


def test_propagation_with_itself_has_no_peak():
    p = parse_program("transitivity @ leq(X,Y), leq(Y,Z) ==> leq(X,Z).")
    assert critical_peaks(p, p) == []


def test_guard_constrained_overlaps():
    # The overlap equations include both guards: a clash suppresses the
    # peak, agreement instantiates the ancestor.
    clash = parse_program("g1 @ p(X) <=> X = a | q(X).\ng2 @ p(b) <=> r.")
    assert critical_peaks(clash, clash) == []

    meet = parse_program("g1 @ p(X) <=> X = a | q(X).\ng3 @ p(a) <=> r.")
    peaks = critical_peaks(meet, meet)
    assert len(peaks) == 1
    (pk,) = peaks
    assert peak_like(pk, "p(a) # globals:", "q(a) # globals:", "r # globals:")
    steps = applicable_steps(meet, pk.ancestor, allowed={"g1"})
    assert any(equivalent(s.target, pk.left) for s in steps)


def test_guard_needing_unmatchable_variable_yields_no_peak():
    # g4's guard variable never occurs in its head, so the rule can never
    # fire under syntactic entailment and no realizable peak exists.
    from chrdc.syntax import parse_state

    p = parse_program("g4 @ p(X) <=> Y = a | q(X).\ng5 @ p(a) <=> r.")
    assert applicable_steps(p, parse_state("p(a) # globals:"), allowed={"g4"}) == []
    assert critical_peaks(p, p) == []


def test_classify_under_example_partition(leq):
    part = Partition.for_program(leq, coinductive=["transitivity"])
    peaks = critical_peaks(leq, leq)
    by_pair = {}
    for pk in peaks:
        by_pair.setdefault((pk.rule_left, pk.rule_right), pk)
    assert classify(by_pair[("duplicate", "reflexivity")], part) == "inductive"
    assert classify(by_pair[("antisymmetry", "transitivity")], part) == "coinductive"
    all_co = Partition.for_program(leq, coinductive=leq.rule_names())
    assert all(classify(pk, all_co) == "coinductive" for pk in peaks)


def test_every_peak_replays_both_one_step_reducts(leq, philos, pminus, pplus):
    programs = [(leq, leq), (philos, philos), (pminus, pminus), (pplus, pplus)]
    rng = random.Random(17)
    while len(programs) < 40:
        p = random_tiny_program(rng)
        programs.append((p, p))
    checked = 0
    for p, q in programs:
        for pk in critical_peaks(p, q):
            left_steps = applicable_steps(p, pk.ancestor, allowed={pk.rule_left})
            assert any(equivalent(s.target, pk.left) for s in left_steps), pk
            right_steps = applicable_steps(q, pk.ancestor, allowed={pk.rule_right})
            assert any(equivalent(s.target, pk.right) for s in right_steps), pk
            checked += 2
    assert checked >= 60


def _renamed_m(program):
    return Program(tuple(r._replace(name="m" + r.name) for r in program.rules))


def test_emitted_peak_sequence_is_pinned(leq, philos, pminus, pplus):
    # Tactic selectors `#k` and peak indices depend on the emitted order,
    # so any change to the enumerator must keep this digest.
    pairs = [(p, p) for p in (leq, philos, pplus, pminus, load("exhaust.chr"))]
    rng = random.Random(5)
    pairs += [(p, p) for p in (random_tiny_program(rng) for _ in range(400))]
    rng = random.Random(9)
    pairs += [
        (random_tiny_program(rng), _renamed_m(random_tiny_program(rng))) for _ in range(200)
    ]
    for text in (
        "g @ p(X) <=> X = f(Y) | q.\nh @ p(f(Z)) <=> r.",
        "g @ p(X) \\ p(Y) <=> X = s(Y) | q(Y, W).\nh @ p(s(Z)) <=> Z = a | r(Z).",
        "r @ a(X1), b(X2), c(X3), d(X4), e(X5), f(X6) <=> true.",
    ):
        p = parse_program(text)
        pairs.append((p, p))
    digest = hashlib.sha256()
    lines = 0
    for p, q in pairs:
        for pk in critical_peaks(p, q):
            for s in (pk.ancestor, pk.left, pk.right):
                text = f"{pk.rule_left}|{pk.rule_right}|{canonical_text(canonicalize(s))}\n"
                digest.update(text.encode())
                lines += 1
        digest.update(b"--\n")
    assert (lines, digest.hexdigest()) == (
        2340, "27e0e217fed3fd1202dbd4fa0d20cc075be575af27350249108d486c7a844fe4"
    )


def test_peak_key_ignores_how_the_globals_are_named(leq, philos, pminus, pplus):
    # For a rule with itself the key also ignores which reduct is which.
    rng = random.Random(67)
    checked = 0
    for program in (leq, philos, pminus, pplus):
        for pk in critical_peaks(program, program):
            symmetric = pk.rule_left == pk.rule_right
            globs = sorted(pk.ancestor.globals)
            for _ in range(5):
                images = globs[:]
                rng.shuffle(images)
                ren = {g: Var(h) for g, h in zip(globs, images)}
                left = canonicalize(pk.left.as_state().subst(ren))
                right = canonicalize(pk.right.as_state().subst(ren))
                renamed = pk._replace(ancestor=pk.ancestor.subst(ren), left=left, right=right)
                assert _peak_key(renamed, symmetric) == _peak_key(pk, symmetric)
                if symmetric:
                    swapped = renamed._replace(left=right, right=left)
                    assert _peak_key(swapped, True) == _peak_key(pk, True)
                checked += 1
    assert checked >= 90


def _fired_overlaps(c1, c2):
    """Every overlap of a renamed rule pair on which both rules fire, with
    no deduplication of any kind."""
    for sel1, sel2, sigma in _overlaps(c1, c2):
        ancestor, pos1, pos2 = _ancestor(c1, c2, sel1, sel2, sigma, _head_vars(c1, c2))
        left, right = fire(c1, ancestor, pos1), fire(c2, ancestor, pos2)
        if left is not None and right is not None:
            yield CriticalPeak(c1.name, c2.name, ancestor, left.target, right.target)


def _has_automorphism(ancestor) -> bool:
    """Whether a renaming of the globals other than the identity maps the
    ancestor's atoms onto themselves, tried exhaustively."""
    globs = sorted(ancestor.globals)
    atoms = Counter(ancestor.atoms)
    for perm in itertools.permutations(globs):
        mapping = {g: Var(h) for g, h in zip(globs, perm) if g != h}
        if mapping and Counter(a.subst(mapping) for a in ancestor.atoms) == atoms:
            return True
    return False


def test_peak_key_matches_the_renaming_oracle(leq, philos, pminus, pplus):
    # Within a rule pair, two keys are equal exactly when the triples agree
    # up to one renaming of the globals, for a rule with itself also after
    # swapping one triple's reducts; equal keys imply equal shapes. An
    # ancestor whose labelling `_peak_key` takes as its only one has no
    # automorphism but the identity. Both key paths run often: the
    # ancestor's own labelling (leq) and one labelling of all three states
    # (philos eat/eat). The last fixed program names its predicates like
    # the key's markers.
    rng = random.Random(83)
    markers = parse_program(
        "a @ p(X, Y) <=> left, q(X).\n"
        "b @ p(X, Y) <=> right, q(Y).\n"
        "s @ q(X), q(Y) <=> side, global.\n"
    )
    programs = [leq, philos, pminus, pplus, load("exhaust.chr"), markers]
    programs += [random_tiny_program(rng) for _ in range(40)]
    paths = Counter()
    for program in programs:
        for c1, c2, same_rule in _rule_pairs(program, program):
            peaks = list(_fired_overlaps(c1, c2))
            keys = [_peak_key(pk, same_rule) for pk in peaks]
            for pk in peaks:
                # Every variable of an ancestor is a global.
                assert pk.ancestor.free_vars() == pk.ancestor.globals
                _, unique = _canonical_renaming(list(pk.ancestor.atoms), [], frozenset())
                assert not (unique and _has_automorphism(pk.ancestor))
                paths[unique] += 1
            for (a, key_a), (b, key_b) in itertools.combinations(zip(peaks, keys), 2):
                triple = (b.ancestor, b.left, b.right)
                same = states_mod_globals((a.ancestor, a.left, a.right), triple) or (
                    same_rule and states_mod_globals((a.ancestor, a.right, a.left), triple)
                )
                assert (key_a == key_b) == same, (a, b)
                if same:
                    assert _shape(a, same_rule) == _shape(b, same_rule)
    assert paths[True] >= 20 and paths[False] >= 20


def test_distinct_predicate_heads_cost_work_per_peak(monkeypatch):
    # A walk over every bijection between equal-sized head subsets makes
    # 1,441,728 overlap attempts here and takes seconds. Each peak's
    # ancestor is built once; the count pins the work beside the time bound.
    import chrdc.peaks

    calls = count_calls(monkeypatch, chrdc.peaks, "_ancestor")
    heads = ", ".join(f"c{i}(X{i},X{i + 1})" for i in range(8))
    p = parse_program(f"r @ {heads} <=> true.")
    start = time.perf_counter()
    peaks = critical_peaks(p, p)
    assert time.perf_counter() - start < 0.5
    assert len(peaks) == 234
    assert calls["_ancestor"] == 234


def test_symmetric_heads_cost_work_per_orbit(monkeypatch):
    # Each of the 720 orders of the six heads gives an overlap of the rule
    # with itself; without the head swaps that map one onto another the
    # peaks of this rule take seconds. An ancestor is built per orbit of
    # the swaps and the mirror, one per peak; the count pins the work
    # beside the time bound.
    import chrdc.peaks

    calls = count_calls(monkeypatch, chrdc.peaks, "_ancestor")
    heads = ", ".join(f"e(X{i})" for i in range(6))
    p = parse_program(f"r @ {heads} <=> d(X0), d(X1).")
    start = time.perf_counter()
    peaks = critical_peaks(p, p)
    assert time.perf_counter() - start < 2
    assert len(peaks) == 38
    assert calls["_ancestor"] == 38


def test_seven_symmetric_heads_unify_few_overlaps(monkeypatch):
    # The 7-head rule has 130,921 overlaps with itself. The walk cuts
    # every branch that a head swap maps onto an earlier one before
    # unifying it, so it unifies 67 overlaps and builds 48 ancestors for
    # 48 peaks.
    import chrdc.peaks

    calls = count_calls(monkeypatch, chrdc.peaks, "unify", "_ancestor")
    heads = ", ".join(f"e(X{i})" for i in range(7))
    p = parse_program(f"r @ {heads} <=> d(X0), d(X1).")
    start = time.perf_counter()
    peaks = critical_peaks(p, p)
    assert time.perf_counter() - start < 1
    assert len(peaks) == 48
    assert calls["unify"] == 67
    assert calls["_ancestor"] == 48


def _count_unified_pairs(monkeypatch) -> Counter:
    """Wrap `unify` as `chrdc.peaks` calls it so that each call adds the
    number of term pairs it is handed, under "pairs"."""
    import chrdc.peaks

    counted: Counter = Counter()

    def counting(pairs, *args, _unify=chrdc.peaks.unify):
        pairs = list(pairs)
        counted["pairs"] += len(pairs)
        return _unify(pairs, *args)

    monkeypatch.setattr(chrdc.peaks, "unify", counting)
    return counted


def test_chained_heads_key_fewer_peaks_than_they_emit(monkeypatch):
    # No head swap holds here; the mirror alone halves the self-overlaps
    # that reach an ancestor, and a key is built only for a peak whose
    # shape an earlier peak has, 348 of them for 674 peaks. Each branch of
    # the walk hands `unify` only the argument pairs of the head pair it
    # places, 3,090 pairs in all (10,450 when each branch solved its whole
    # prefix again).
    import chrdc.peaks

    calls = count_calls(monkeypatch, chrdc.peaks, "_ancestor", "_peak_key")
    unified = _count_unified_pairs(monkeypatch)
    heads = ", ".join(f"c(X{i},X{i + 1})" for i in range(5))
    p = parse_program(f"r @ {heads} <=> true.")
    start = time.perf_counter()
    peaks = critical_peaks(p, p)
    assert time.perf_counter() - start < 2
    assert len(peaks) == 674
    assert (calls["_ancestor"], calls["_peak_key"]) == (800, 348)
    assert unified["pairs"] == 3090


def test_philos_builds_no_key(philos, monkeypatch):
    # The mirror pair was philos' only shape collision, so no key is built.
    # `unify` is handed 18 term pairs (40 when each branch solved its whole
    # prefix again).
    import chrdc.peaks

    calls = count_calls(monkeypatch, chrdc.peaks, "_ancestor", "fire", "_peak_key")
    unified = _count_unified_pairs(monkeypatch)
    start = time.perf_counter()
    assert len(critical_peaks(philos, philos)) == 5
    assert time.perf_counter() - start < 0.5
    assert [calls[n] for n in ("_ancestor", "fire", "_peak_key")] == [5, 10, 0]
    assert unified["pairs"] == 18


def test_head_swaps_map_the_rule_onto_itself():
    cases = {
        "r @ e(X, Y), e(Y, X) <=> X = Y.": [(0, 1)],
        # The swap must keep each head kept or removed.
        "r @ e(X, Y) \\ e(Y, X) <=> true.": [],
        "r @ e(X, Y), e(Y, X) ==> d(X, Y), d(Y, X).": [(0, 1)],
        # Guard and built-in body as sets of unordered equations.
        "r @ e(X), e(Y) <=> X = Y | true.": [(0, 1)],
        "r @ e(X), e(Y) <=> X = a | true.": [],
        "r @ e(X), e(Y) <=> X = W, W = Y.": [(0, 1)],
        "r @ e(X), e(Y) <=> X = f(W).": [],
        # The user body as a multiset; a variable no head holds stays fixed.
        "r @ e(X), e(Y) <=> d(X, W), d(Y, W), d(X, W).": [],
        "r @ e(X), e(Y) <=> d(X, W), d(Y, W).": [(0, 1)],
        "r @ e(X), e(Y), e(Z) <=> d(X).": [(1, 2)],
        # A variable is renamed only to a variable, and heads that share
        # a variable with a third head cannot swap.
        "r @ e(f(X)), e(Y) <=> true.": [],
        "r @ c(X, Y), c(Y, Z), c(Z, W) <=> true.": [],
        "r @ c(X, Y), c(Z, Y), c(Y, W) <=> true.": [(0, 1)],
        "r @ e(X), p(Y), e(Z) <=> d(X, Y), d(Z, Y).": [(0, 2)],
    }
    for text, swaps in cases.items():
        (rule,) = parse_program(text).rules
        assert _head_swaps(rule) == swaps, text


def test_head_swaps_save_work_on_leq(leq, monkeypatch):
    # Only antisymmetry's two heads swap onto each other; its overlaps
    # that the swap maps onto earlier ones are cut before their ancestor
    # is built. The mirror runs with or without the swaps.
    import chrdc.peaks

    assert [_head_swaps(r) for r in leq.rules] == [[], [], [(0, 1)], []]
    names = ("_ancestor", "fire", "_shape", "_peak_key")
    calls = count_calls(monkeypatch, chrdc.peaks, *names)
    pruned, pruned_calls = critical_peaks(leq, leq), [calls[n] for n in names]
    calls.clear()
    monkeypatch.setattr(chrdc.peaks, "_head_swaps", lambda rule: [])
    assert critical_peaks(leq, leq) == pruned
    assert [calls[n] for n in names] == [24, 36, 16, 8]
    assert pruned_calls == [15, 24, 12, 0]


def _symmetric_program(rng: random.Random) -> Program:
    """One or two rules over one or two head predicates. A rule's second
    head is mostly its first with two variables exchanged; its guard,
    built-in body and user body get that exchange's images of their items
    half of the time, so some rules map onto themselves under the swap of
    the two heads and some miss by one item. Heads are shuffled and kept
    or removed at random, so propagation and simpagation rules and swaps
    across a kept and a removed head occur too."""
    preds = [("e", 2), ("f", 1)][: rng.randint(1, 2)]
    pool = ["X", "Y", "Z"]

    def term():
        roll = rng.random()
        if roll < 0.65:
            return Var(rng.choice(pool))
        if roll < 0.85:
            return rng.choice(CONSTANTS[:2])
        return Compound("s", (Var(rng.choice(pool)),))

    def atom():
        pred, arity = rng.choice(preds)
        return Atom(pred, tuple(term() for _ in range(arity)))

    def some(make, most):
        return [make() for _ in range(rng.randint(0, most))]

    rules = []
    for k in range(rng.randint(1, 2)):
        x, y = rng.sample(pool, 2)
        swap = {x: Var(y), y: Var(x)}
        first = atom()
        heads = [first, first.subst(swap) if rng.random() < 0.8 else atom()]
        heads += some(atom, 1)
        rng.shuffle(heads)
        n_kept = rng.randint(0, len(heads))
        parts = [
            some(lambda: Eq(Var(rng.choice(pool)), term()), 1),
            some(lambda: Atom("d", (term(), Var(rng.choice(pool + ["W"])))), 2),
            some(lambda: Eq(Var(rng.choice(pool + ["W"])), term()), 1),
        ]
        for part in parts:
            if rng.random() < 0.5:
                part += [item.subst(swap) for item in part]
        guard, user_body, builtin_body = (tuple(part) for part in parts)
        kept, removed = tuple(heads[:n_kept]), tuple(heads[n_kept:])
        rules.append(Rule(f"r{k}", kept, removed, guard, user_body, builtin_body))
    return Program(tuple(rules))


def _peak_lines(peaks) -> list[str]:
    return [
        f"{pk.rule_left}|{pk.rule_right}|{canonical_text(canonicalize(s))}"
        for pk in peaks
        for s in (pk.ancestor, pk.left, pk.right)
    ]


def _symmetry_pairs():
    """Pairs of programs on which head swaps often hold and often fail by
    one condition, and pairs of tiny programs with and without
    propagation rules."""
    rng = random.Random(113)
    symmetric = [(p, p) for p in (_symmetric_program(rng) for _ in range(400))]
    symmetric += [
        (_symmetric_program(rng), _renamed_m(_symmetric_program(rng))) for _ in range(60)
    ]
    rng = random.Random(131)
    tiny = [random_tiny_program(rng) for _ in range(150)]
    return symmetric, [(p, p) for p in tiny + [with_propagation(p) for p in tiny[:75]]]


def test_head_swap_pruning_keeps_every_peak(monkeypatch):
    # The peaks with the head swaps and the mirror must be the peaks of the
    # full walk, in the same order and with the same ancestors.
    import chrdc.peaks

    symmetric, tiny = _symmetry_pairs()
    pairs = symmetric + tiny
    cut = 0
    for p, q in symmetric:
        cut += any(
            len(_overlaps(c1, c2, _head_swaps(c1), _head_swaps(c2))) < len(_overlaps(c1, c2))
            for c1, c2, _ in _rule_pairs(p, q)
        )
    pruned = [critical_peaks(p, q) for p, q in pairs]
    full_walk = chrdc.peaks._overlaps
    monkeypatch.setattr(chrdc.peaks, "_overlaps", lambda c1, c2, *symmetries: full_walk(c1, c2))
    full = [critical_peaks(p, q) for p, q in pairs]
    assert [_peak_lines(x) for x in pruned] == [_peak_lines(x) for x in full]
    assert pruned == full
    # With seed 113 the swaps cut an overlap for 141 of the 460 pairs of
    # symmetric programs, which have 1,760 peaks.
    assert cut >= 120
    assert sum(map(len, full[: len(symmetric)])) >= 1500


def test_cut_walk_leaves_out_exactly_the_lex_leader_skips():
    # The oracle applies each symmetry to a whole overlap; the walk decides
    # the swaps on a prefix and the mirror on each overlap it lists.
    skipped = Counter()
    symmetric, tiny = _symmetry_pairs()
    for p, q in symmetric + tiny:
        for c1, c2, same_rule in _rule_pairs(p, q):
            swaps1, swaps2 = _head_swaps(c1), _head_swaps(c2)
            full = _overlaps(c1, c2)
            kept = [
                o for o in full if not lex_leader_skips(o[0], o[1], swaps1, swaps2, same_rule)
            ]
            assert _overlaps(c1, c2, swaps1, swaps2, same_rule) == kept, (c1, c2)
            for sel1, sel2, _ in full:
                skipped["mirror"] += lex_leader_skips(sel1, sel2, (), (), same_rule)
                skipped["swaps"] += lex_leader_skips(sel1, sel2, swaps1, swaps2, False)
    # With these seeds the mirror skips 1,548 and the swaps 1,439 of the
    # 8,977 overlaps.
    assert skipped["mirror"] >= 1200 and skipped["swaps"] >= 1200


def _head_pairings(c1, c2):
    """Every nonempty one-to-one pairing of heads of `c1` with heads of `c2`
    of one predicate and arity, as increasing `sel1` and its partners."""
    heads1, heads2 = c1.heads, c2.heads
    for size in range(1, min(len(heads1), len(heads2)) + 1):
        for sel1 in itertools.combinations(range(len(heads1)), size):
            for sel2 in itertools.permutations(range(len(heads2)), size):
                if all(
                    (heads1[i].pred, len(heads1[i].args)) == (heads2[j].pred, len(heads2[j].args))
                    for i, j in zip(sel1, sel2)
                ):
                    yield sel1, sel2


def test_overlap_unifiers_match_an_independent_oracle():
    # The walk extends the unifier of a prefix by one head pair at a time.
    # The oracle solves both guards and every paired head's arguments at
    # once and re-orients the result: the full walk lists exactly the
    # pairings the oracle solves, each with its unifier, and the cut walk
    # lists some of them with the same unifiers.
    rng = random.Random(151)
    guarded = []
    while len(guarded) < 40:
        p = random_tiny_program(rng)
        if any(r.guard for r in p.rules):
            guarded.append((p, p))
    symmetric, tiny = _symmetry_pairs()
    checked = Counter()
    for p, q in symmetric + tiny + guarded:
        for c1, c2, same_rule in _rule_pairs(p, q):
            keep = frozenset(v for a in c1.heads + c2.heads for v in a.iter_vars())
            guards = [(g.lhs, g.rhs) for g in c1.guard + c2.guard]
            expected = {}
            for sel1, sel2 in _head_pairings(c1, c2):
                pairs = guards + [
                    pair
                    for i, j in zip(sel1, sel2)
                    for pair in zip(c1.heads[i].args, c2.heads[j].args)
                ]
                theta = naive_unify_pairs(pairs)
                if theta is not None:
                    expected[sel1, sel2] = orient(theta, keep)
            listed = {(sel1, sel2): sigma for sel1, sel2, sigma in _overlaps(c1, c2)}
            assert listed == expected, (c1, c2)
            for sel1, sel2, sigma in _overlaps(c1, c2, _head_swaps(c1), _head_swaps(c2), same_rule):
                assert sigma == expected[sel1, sel2], (c1, c2, sel1, sel2)
            checked["overlaps"] += len(listed)
            checked["guarded"] += len(listed) if guards else 0
            checked["multi-pair"] += sum(len(sel1) > 1 for sel1, _ in listed)
    # With these seeds the full walks list 9,149 overlaps: 4,921 pair two
    # heads or more, and 4,196 come with a guard.
    assert checked["overlaps"] >= 8000
    assert checked["multi-pair"] >= 4000 and checked["guarded"] >= 3000


def _every_rule_pair(p, q):
    """`_rule_pairs` without skipping a pair of rules that both remove
    nothing."""
    for i1, r1 in enumerate(p.rules):
        c1 = rename_apart(set(), r1)
        preds = {(a.pred, len(a.args)) for a in r1.heads}
        for i2, r2 in enumerate(q.rules):
            if p is q and i2 < i1:
                continue
            if any((a.pred, len(a.args)) in preds for a in r2.heads):
                yield c1, rename_apart(set(c1.variables()), r2), p is q and i1 == i2


def test_skipping_pairs_that_remove_nothing_keeps_every_peak(monkeypatch, leq):
    # Every overlap of two rules that both remove nothing keeps all heads
    # on both sides, which `_candidates` drops first; the peaks and their
    # order must be those of the walk over every pair.
    import chrdc.peaks

    rng = random.Random(127)
    programs = [with_propagation(random_tiny_program(rng)) for _ in range(150)]
    pairs = [(p, p) for p in programs + [leq]]
    pairs += [(p, _renamed_m(q)) for p, q in zip(programs, programs[1:])]
    skipped = sum(len([*_every_rule_pair(p, q)]) - len([*_rule_pairs(p, q)]) for p, q in pairs)
    walked = [critical_peaks(p, q) for p, q in pairs]
    monkeypatch.setattr(chrdc.peaks, "_rule_pairs", _every_rule_pair)
    full = [critical_peaks(p, q) for p, q in pairs]
    assert [_peak_lines(x) for x in walked] == [_peak_lines(x) for x in full]
    assert walked == full
    # With this seed 537 pairs are skipped, and the pairs have 1,197 peaks.
    assert skipped >= 450 and sum(map(len, full)) >= 1000


def test_global_names_are_bijective_base_26():
    assert [_spreadsheet_name(i) for i in (0, 25, 26, 51, 701, 702, 18277, 18278)] == [
        "A", "Z", "AA", "AZ", "ZZ", "AAA", "ZZZ", "AAAA"
    ]
    assert len({_spreadsheet_name(i) for i in range(20000)}) == 20000


def test_kept_peaks_differ_up_to_global_renaming(leq, philos, pminus, pplus):
    rng = random.Random(71)
    programs = [leq, philos, pminus, pplus] + [random_tiny_program(rng) for _ in range(20)]
    for program in programs:
        peaks = critical_peaks(program, program)
        for a, b in itertools.combinations(peaks, 2):
            if (a.rule_left, a.rule_right) != (b.rule_left, b.rule_right):
                continue
            triple = (a.ancestor, a.left, a.right)
            assert not states_mod_globals(triple, (b.ancestor, b.left, b.right))
            if a.rule_left == a.rule_right:
                assert not states_mod_globals(triple, (b.ancestor, b.right, b.left))


def test_cross_program_peaks_are_mirror_images():
    rng = random.Random(29)
    found = 0
    for _ in range(40):
        p = random_tiny_program(rng)
        q = _renamed_m(random_tiny_program(rng))
        fwd = critical_peaks(p, q)
        bwd = critical_peaks(q, p)
        assert len(fwd) == len(bwd)
        for pk in fwd:
            mirror_hits = [
                other
                for other in bwd
                if (other.rule_left, other.rule_right)
                == (pk.rule_right, pk.rule_left)
                and states_mod_globals(
                    (other.ancestor, other.left, other.right),
                    (pk.ancestor, pk.right, pk.left),
                )
            ]
            assert mirror_hits, pk
            found += 1
    assert found >= 20


def _overlapping_pairs(program, state):
    steps = applicable_steps(program, state)
    for st1, st2 in itertools.product(steps, steps):
        pos1 = set(st1.matched_kept) | set(st1.matched_removed)
        pos2 = set(st2.matched_kept) | set(st2.matched_removed)
        shared = pos1 & pos2
        if not shared:
            continue
        removed = set(st1.matched_removed) | set(st2.matched_removed)
        if not shared & removed:
            continue  # kept-only sharing commutes directly
        yield st1, st2


def _embeds(program_pair, peak, state, target_left, target_right):
    """Check the quantified-conjunction embedding of a critical peak into a
    concrete local peak, independently of how the generator built it."""
    from chrdc.state import State, compose
    from chrdc.syntax import Eq
    from chrdc.terms import Var, fresh_mapping, match

    cst = canonicalize(state)
    avoid = set(cst.globals) | {v for a in cst.atoms for v in a.iter_vars()}
    for s in (peak.ancestor, peak.left.as_state(), peak.right.as_state()):
        avoid |= s.all_vars()
    anc_c = canonicalize(peak.ancestor)
    anc_vars: dict[str, None] = {}
    for a in anc_c.atoms:
        for v in a.iter_vars():
            anc_vars.setdefault(v)
    ren = fresh_mapping(avoid, list(anc_vars))
    anc_atoms = [a.subst(ren) for a in anc_c.atoms]
    glob_anc = frozenset(v.name for v in ren.values())

    def lift(reduct):
        rc = canonicalize(reduct)
        ren2 = dict(ren)
        body_locals = [
            v
            for a in rc.atoms
            for v in a.iter_vars()
            if v not in anc_vars and v not in ren2
        ]
        ren2.update(fresh_mapping(avoid | glob_anc, body_locals))
        atoms = tuple(a.subst(ren2) for a in rc.atoms)
        eqs = tuple(e.subst(ren2) for e in rc.residuals)
        return State(atoms, eqs, glob_anc)

    left_lifted, right_lifted = lift(peak.left), lift(peak.right)
    anc_state = State(tuple(anc_atoms), (), glob_anc)

    k = len(anc_atoms)
    positions = list(range(len(cst.atoms)))
    for chosen in itertools.permutations(positions, k):
        tau = {}
        for pat, i in zip(anc_atoms, chosen):
            concrete = cst.atoms[i]
            if pat.pred != concrete.pred or len(pat.args) != len(concrete.args):
                tau = None
                break
            tau = match(zip(pat.args, concrete.args), tau)
            if tau is None:
                break
        if tau is None:
            continue
        rest = tuple(a for i, a in enumerate(cst.atoms) if i not in set(chosen))
        tau_eqs = tuple(Eq(Var(v), t) for v, t in sorted(tau.items()))
        context = State(rest, tau_eqs + cst.residuals, cst.globals | glob_anc)
        try:
            composed_anc = compose(anc_state, context, glob_anc)
            composed_left = compose(left_lifted, context, glob_anc)
            composed_right = compose(right_lifted, context, glob_anc)
        except ValueError:
            continue
        if (
            equivalent(composed_anc, cst)
            and equivalent(composed_left, target_left)
            and equivalent(composed_right, target_right)
        ):
            return True
    return False


def test_completeness_oracle_on_tiny_programs():
    from helpers import random_ground_state

    rng = random.Random(41)
    cases = 0
    for _ in range(25):
        program = random_tiny_program(rng)
        peaks = critical_peaks(program, program)
        for _ in range(4):
            state = random_ground_state(rng)
            for st1, st2 in _overlapping_pairs(program, state):
                cases += 1
                if st1.rule_name == st2.rule_name and equivalent(
                    st1.target, st2.target
                ):
                    continue  # discharged as trivially joinable
                covered = False
                for pk in peaks:
                    if (pk.rule_left, pk.rule_right) == (st1.rule_name, st2.rule_name):
                        if _embeds((program, program), pk, state, st1.target, st2.target):
                            covered = True
                            break
                    if (pk.rule_left, pk.rule_right) == (st2.rule_name, st1.rule_name):
                        if _embeds((program, program), pk, state, st2.target, st1.target):
                            covered = True
                            break
                assert covered, (program, state, st1.rule_name, st2.rule_name)
    assert cases >= 30
