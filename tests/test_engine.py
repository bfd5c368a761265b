from __future__ import annotations

import random
from collections import Counter

import pytest

from chrdc.engine import (
    Derivation,
    ReplayError,
    applicable_steps,
    fire,
    replay,
)
from chrdc.peaks import critical_peaks
from chrdc.state import CanonicalState, State, canonical_text, canonicalize, equivalent
from chrdc.syntax import Atom, Program, Rule, parse_program, parse_state
from chrdc.terms import Compound, Var, iter_vars
from conftest import load
from helpers import (
    first_of_class,
    injective_steps,
    oracle_step,
    random_atom,
    random_ground_state,
    random_state,
    random_tiny_program,
    reachable,
    with_propagation,
)


def test_leq_query_has_antisymmetry_and_transitivity_steps(leq):
    s = parse_state("leq(X,Y), leq(Y,X) # globals: X, Y")
    steps = applicable_steps(leq, s)
    by_rule = {}
    for st in steps:
        by_rule.setdefault(st.rule_name, []).append(st)
    assert set(by_rule) == {"antisymmetry", "transitivity"}
    anti_target = parse_state("X = Y # globals: X, Y")
    assert any(equivalent(st.target, anti_target) for st in by_rule["antisymmetry"])
    trans_target = parse_state("leq(X,Y), leq(Y,X), leq(X,X) # globals: X, Y")
    assert any(equivalent(st.target, trans_target) for st in by_rule["transitivity"])


def test_eat_step_keeps_increment_symbolic(philos):
    s = parse_state("frk(X), frk(Y), thk(X,Y,I) # globals: X, Y, I")
    steps = applicable_steps(philos, s, allowed={"eat"})
    assert len(steps) == 1
    target = steps[0].target
    assert len(target.atoms) == 1
    atom = target.atoms[0]
    assert atom.pred == "eat"
    assert atom.args[2] == Compound("+", (Var("I"), Compound("1")))


@pytest.mark.parametrize("store", ["leq(a, b), p(a)", "leq(a, b), leq(a, c)"])
def test_fire_is_none_where_a_head_does_not_match(leq, store):
    # antisymmetry's second head leq(Y, X) meets another predicate, then
    # leq(a, c) where leq(b, a) is needed.
    (rule,) = [r for r in leq.rules if r.name == "antisymmetry"]
    state = parse_state(f"{store} # globals:")
    assert fire(rule, state, (0, 1)) is None
    assert fire(rule, parse_state("leq(a, b), leq(b, a) # globals:"), (0, 1)) is not None


def test_inconsistent_state_is_a_fixpoint(leq):
    s = parse_state("leq(X,Y), false # globals:")
    assert canonicalize(s).bottom
    assert applicable_steps(leq, s) == []


def test_propagation_refires_on_own_output(leq):
    s = parse_state("leq(A,B), leq(B,C) # globals: A, B, C")
    first = [t for t in applicable_steps(leq, s) if t.rule_name == "transitivity"]
    assert first
    target = first[0].target
    again = [t for t in applicable_steps(leq, target) if t.rule_name == "transitivity"]
    assert again  # the same match is still available


def test_matcher_never_binds_state_variables(pminus):
    # p(X) in the store cannot be forced to look like p(s(_)).
    s = parse_state("p(X) # globals: X")
    assert applicable_steps(pminus, s, allowed={"sminus"}) == []
    ground = parse_state("p(s(a)) # globals:")
    assert len(applicable_steps(pminus, ground, allowed={"sminus"})) == 1


def test_guard_requires_syntactic_entailment():
    p = parse_program("r @ p(X) <=> X = a | q(X).")
    assert applicable_steps(p, parse_state("p(b) # globals:")) == []
    assert applicable_steps(p, parse_state("p(X) # globals: X")) == []
    hits = applicable_steps(p, parse_state("p(a) # globals:"))
    assert len(hits) == 1
    assert equivalent(hits[0].target, parse_state("q(a) # globals:"))


def test_replay_empty_derivation(pminus):
    src = canonicalize(parse_state("p(s(a)), p(a) # globals:"))
    assert replay(pminus, Derivation(src)) == src


def test_replay_closing_sequence(philos):
    # Left closing of the shared-fork peak: thk, eat, thk.
    left = parse_state("frk(Z), eat(X,Y,I+1), thk(Y,Z,J) # globals: X, Y, Z, I, J")
    cur = canonicalize(left)
    deriv = Derivation(cur)
    for rule, pick in (("thk", 0), ("eat", -1), ("thk", 0)):
        steps = applicable_steps(philos, cur, allowed={rule})
        assert steps
        step = steps[pick]
        deriv = Derivation(deriv.source, deriv.steps + (step,))
        cur = step.target
    bottom = parse_state(
        "frk(X), frk(Y), frk(Z), thk(X,Y,I+1), thk(Y,Z,J+1) # globals: X, Y, Z, I, J"
    )
    assert equivalent(cur, bottom)
    assert replay(philos, deriv) == cur


def test_replay_detects_corruption(pminus, pplus):
    src = canonicalize(parse_state("p(s(a)) # globals:"))
    (step,) = applicable_steps(pminus, src, allowed={"sminus"})
    good = Derivation(src, (step,))
    assert replay(pminus, good) == step.target
    renamed = step._replace(rule_name="missing")
    with pytest.raises(ReplayError):
        replay(pminus, Derivation(src, (renamed,)))
    # Same positions, different program: the rule no longer matches.
    with pytest.raises(ReplayError):
        replay(pplus, Derivation(src, (step._replace(rule_name="splus"),)))


def test_reachable_depth_zero(pminus):
    s = parse_state("p(s(X)), p(X) # globals: X")
    res = reachable(pminus, s, max_depth=0)
    assert len(res.entries) == 1


def test_reachable_includes_two_step_target(pminus):
    s = parse_state("p(s(X)), p(X) # globals: X")
    res = reachable(pminus, s, max_depth=2)
    goal = parse_state("p(X) # globals: X")
    assert any(equivalent(c, goal) for c, _ in res.entries)
    shallow = reachable(pminus, s, max_depth=1)
    assert not any(equivalent(c, goal) for c, _ in shallow.entries)
    assert shallow.depth_truncated


def test_reachable_respects_state_budget(pplus):
    res = reachable(pplus, parse_state("p(a) # globals:"), max_depth=50, max_states=10)
    assert res.states_truncated
    assert len(res.entries) <= 10


def test_steps_replay_to_their_targets_randomized(leq, philos, pminus, pplus):
    rng = random.Random(5)
    programs = [leq, philos, pminus, pplus]
    sigs = {
        id(leq): [("leq", 2)],
        id(philos): [("frk", 1), ("thk", 3), ("eat", 3)],
        id(pminus): [("p", 1)],
        id(pplus): [("p", 1)],
    }
    a, b = Compound("a"), Compound("b")
    checked = 0
    while checked < 250:
        program = rng.choice(programs)

        def arg(pool=("G", "H")):
            r = rng.random()
            if r < 0.4:
                return rng.choice([a, b])
            if r < 0.6:
                return Compound("s", (rng.choice([a, b]),))
            return Var(rng.choice(pool))

        atoms = []
        for _ in range(rng.randint(1, 3)):
            pred, arity = rng.choice(sigs[id(program)])
            atoms.append(Atom(pred, tuple(arg() for _ in range(arity))))
        s = State(tuple(atoms), (), frozenset({"G"}))
        src = canonicalize(s)
        for step in applicable_steps(program, src):
            assert replay(program, Derivation(src, (step,))) == step.target
            checked += 1


def test_step_targets_stable_under_equivalence(leq, philos):
    rng = random.Random(9)
    for program, text in (
        (leq, "leq(A,B), leq(B,A), leq(A,A) # globals: A, B"),
        (philos, "frk(X), frk(Y), frk(Z), thk(X,Y,I), thk(Y,Z,J) # globals: X, Y, Z, I, J"),
    ):
        s1 = parse_state(text)
        perm = list(s1.atoms)
        rng.shuffle(perm)
        ren = {v: Var(f"Q{i}") for i, v in enumerate(sorted(s1.free_vars() - s1.globals))}
        s2 = State(tuple(a.subst(ren) for a in perm), s1.builtins, s1.globals)
        t1 = [st.target for st in applicable_steps(program, s1)]
        t2 = [st.target for st in applicable_steps(program, s2)]
        assert len(t1) == len(t2)
        unmatched = list(t2)
        for t in t1:
            for i, u in enumerate(unmatched):
                if equivalent(t, u):
                    del unmatched[i]
                    break
            else:
                raise AssertionError("target multiset mismatch")
        assert not unmatched


@pytest.mark.parametrize("name", ["_V0", "_V1"])
def test_renaming_apart_avoids_the_fresh_names_of_the_state(name):
    # A renaming that ignored the state's fresh names would give q(_V1, _V1).
    program = parse_program("r @ p(X) ==> q(X, Y).")
    (rule,) = program.rules
    state = State((Atom("p", (Var(name),)),), (), frozenset({name}))
    expected = f"<p({name}), q({name}, L0) # globals: {name}>"
    (step,) = applicable_steps(program, state)
    assert canonical_text(step.target) == expected
    assert canonical_text(fire(rule, state, (0,)).target) == expected


def _one_step(program, text, rule):
    src = canonicalize(parse_state(text))
    (step,) = applicable_steps(program, src, allowed={rule})
    return src, step


def test_replay_rejects_a_position_out_of_range(pminus):
    src, step = _one_step(pminus, "p(s(a)) # globals:", "sminus")
    with pytest.raises(ReplayError):
        replay(pminus, Derivation(src, (step._replace(matched_removed=(1,)),)))


def test_replay_rejects_a_repeated_position(pminus):
    src = canonicalize(parse_state("p(a), p(a) # globals:"))
    step = applicable_steps(pminus, src, allowed={"duplicate"})[0]
    assert replay(pminus, Derivation(src, (step,))) == step.target
    repeated = step._replace(matched_removed=step.matched_kept)
    with pytest.raises(ReplayError):
        replay(pminus, Derivation(src, (repeated,)))


def test_replay_rejects_a_step_at_a_later_copy_of_an_equal_atom(pminus):
    # A later copy gives the same target, but the relation has one step per
    # rule and per tuple of matched atoms, at the first copies.
    src = canonicalize(parse_state("p(s(a)), p(s(a)) # globals:"))
    (step,) = applicable_steps(pminus, src, allowed={"sminus"})
    assert step.matched_removed == (0,)
    assert replay(pminus, Derivation(src, (step,))) == step.target
    (sminus,) = [r for r in pminus.rules if r.name == "sminus"]
    later = fire(sminus, src.as_state(), (1,))
    assert later == step._replace(matched_removed=(1,))
    with pytest.raises(ReplayError):
        replay(pminus, Derivation(src, (later,)))

    src = canonicalize(parse_state("p(a), p(a), p(a) # globals:"))
    (step,) = applicable_steps(pminus, src, allowed={"duplicate"})
    assert (step.matched_kept, step.matched_removed) == ((0,), (1,))
    (duplicate,) = [r for r in pminus.rules if r.name == "duplicate"]
    for kept, removed in ((0, 2), (1, 0), (1, 2), (2, 0), (2, 1)):
        later = fire(duplicate, src.as_state(), (kept, removed))
        assert later == step._replace(matched_kept=(kept,), matched_removed=(removed,))
        with pytest.raises(ReplayError):
            replay(pminus, Derivation(src, (later,)))


def test_every_certificate_from_check_on_the_fixtures_replays(monkeypatch):
    import chrdc.cli
    from chrdc.syntax import parse_program_file
    from test_golden import SCENARIOS, _run

    reports = []
    monkeypatch.setattr(chrdc.cli, "_emit", lambda report, *_: reports.append(report))
    replayed = 0
    for argv, expected_code in SCENARIOS.values():
        if argv[0] != "check":
            continue
        assert _run(argv)[0] == expected_code
        rules = [r for f in argv if f.endswith(".chr") for r in parse_program_file(f).rules]
        program = Program(tuple(rules))
        for verdict in reports.pop().verdicts:
            if verdict.valley is not None:
                left = replay(program, verdict.valley.left)
                assert left == replay(program, verdict.valley.right)
                replayed += 1
    assert replayed > 20


def test_replay_rejects_a_guard_that_no_longer_holds():
    fires = parse_program("r @ p(X) <=> X = a | q(X).")
    blocked = parse_program("r @ p(X) <=> X = b | q(X).")
    src, step = _one_step(fires, "p(a) # globals:", "r")
    assert replay(fires, Derivation(src, (step,))) == step.target
    with pytest.raises(ReplayError):
        replay(blocked, Derivation(src, (step,)))


def test_replay_rejects_a_changed_target(pminus):
    src, step = _one_step(pminus, "p(s(a)) # globals:", "sminus")
    other = canonicalize(parse_state("p(b) # globals:"))
    with pytest.raises(ReplayError):
        replay(pminus, Derivation(src, (step._replace(target=other),)))


def test_replay_rejects_a_step_from_the_inconsistent_state(pminus):
    _, step = _one_step(pminus, "p(s(a)) # globals:", "sminus")
    bottom = canonicalize(parse_state("p(s(a)), false # globals:"))
    assert bottom.bottom
    with pytest.raises(ReplayError):
        replay(pminus, Derivation(bottom, (step,)))


def _oracle_target(program, source, step):
    """The target of `step` from the canonical `source`, built from the rule
    itself by `helpers.oracle_step` at the step's kept and removed positions."""
    (rule,) = [r for r in program.rules if r.name == step.rule_name]
    pos = step.matched_kept + step.matched_removed
    assert len(step.matched_kept) == len(rule.kept)
    assert len(pos) == len(rule.heads) == len(set(pos))
    oracle = oracle_step(rule, source, pos)
    assert oracle is not None
    return oracle.target


def _assert_steps_match_the_oracle(program, state):
    source = canonicalize(state)
    steps = applicable_steps(program, state)
    for step in steps:
        assert step.target == _oracle_target(program, source, step)
    return steps


# Propagation (`p*`) and simplification (`s*`) rules whose user body holds
# a variable that no head holds (`*new*`), and rules whose body holds none.
_BODY_VARIABLES = parse_program("""
pnew @ p(X) ==> q(X, Y).
pold @ p(X) ==> q(X, X).
pnew2 @ p(X), q(X, Y) ==> p(Z), q(Y, Z).
pold2 @ q(X, Y) ==> q(Y, X), p(X).
snew @ p(X) <=> q(X, Y).
sold @ p(X) <=> q(X, a).
snew2 @ p(X) \\ q(X, Y) <=> q(Y, Z).
sold2 @ p(X) \\ q(X, Y) <=> p(Y).
""")


def test_step_targets_match_an_independent_oracle():
    rng = random.Random(11)
    checked = 0
    # (propagation, body adds variables, source has locals) of the steps seen
    covered = set()
    for _ in range(200):
        program = with_propagation(random_tiny_program(rng))
        states = [random_state(rng), random_ground_state(rng)]
        plain = random_ground_state(rng)
        # Every variable global: no locals and no residuals.
        states.append(State(plain.atoms, (), frozenset(plain.free_vars())))
        # Duplicate atoms, and a global that no atom holds.
        states.append(State(plain.atoms + plain.atoms[:1], (), plain.globals))
        states.append(State(plain.atoms, (), plain.globals | {"D"}))
        with_eq = random_state(rng)
        states.append(State(plain.atoms + with_eq.atoms, with_eq.builtins, with_eq.globals))
        for state in states:
            checked += len(_assert_steps_match_the_oracle(program, state))
            source = canonicalize(state)
            has_locals = not source.globals.issuperset(source.as_state().iter_vars())
            for step in _assert_steps_match_the_oracle(_BODY_VARIABLES, state):
                covered.add((step.rule_name[0] == "p", "new" in step.rule_name, has_locals))
    assert checked > 800
    assert len(covered) == 8


def _exhaust_peak_states():
    """`exhaust.chr` and the states within 3 steps of its peaks' states."""
    program = load("exhaust.chr")
    states = []
    for peak in critical_peaks(program, program):
        for start in (peak.ancestor, peak.left, peak.right):
            reach = reachable(program, start, max_depth=3, max_states=60)
            states += [cst for cst, _ in reach.entries]
    return program, states


def test_step_targets_match_the_oracle_from_the_exhaust_peak():
    program, states = _exhaust_peak_states()
    checked = sum(len(_assert_steps_match_the_oracle(program, cst)) for cst in states)
    assert checked > 100


def test_steps_from_the_exhaust_peak_are_counted():
    # One step per rule and per tuple of matched atoms. Building a step for
    # each copy of an equal atom, as the relation once did, counts 602.
    program, states = _exhaust_peak_states()
    steps = sum(len(applicable_steps(program, cst)) for cst in states)
    assert (len(states), steps) == (73, 330)


def test_steps_that_add_the_same_atoms_share_one_target(monkeypatch):
    import chrdc.engine

    program, states = _exhaust_peak_states()
    successors = chrdc.engine.successors
    added = []  # (removed positions, added atoms, added built-ins) per step

    def recording(source):
        target = successors(source)

        def record(removed, atoms, builtins, insert):
            added.append((removed, atoms, builtins))
            return target(removed, atoms, builtins, insert)

        return record

    monkeypatch.setattr(chrdc.engine, "successors", recording)
    shared = 0
    for cst in states:
        added.clear()
        steps = applicable_steps(program, cst)
        assert len(added) == len(steps)
        first: dict = {}
        for key, step in zip(added, steps):
            assert key[0] == step.matched_removed
            assert step.target == _oracle_target(program, cst, step)
            earlier = first.setdefault(key, step.target)
            assert earlier is step.target
        shared += len(steps) - len(first)
    # Of the 330 steps, this many add what an earlier step from the same
    # source added, and reuse its target.
    assert shared == 48


# Rules with several heads on one predicate, for stores with equal atoms.
_ONE_PREDICATE = parse_program("""
pair @ p(X), p(Y) <=> q(X, Y).
same @ p(X) \\ p(X) <=> true.
three @ p(X), p(Y) \\ p(Z) <=> q(X, Z).
""")


def _assert_first_of_each_class(program, state):
    """The steps are exactly the first of each class of injective matches
    that agree atom for atom, in order, and have the (rule, target) pairs
    of all of them; returns how many matches repeat a class."""
    source = canonicalize(state)
    every = injective_steps(program, source)
    steps = applicable_steps(program, state)
    assert steps == first_of_class(every, source)
    assert {(s.rule_name, s.target) for s in steps} == {(s.rule_name, s.target) for s in every}
    return len(every) - len(steps)


def test_steps_are_the_first_of_each_class_of_equal_matches():
    rng = random.Random(23)
    one_predicate = with_propagation(_ONE_PREDICATE)
    repeats = 0
    for _ in range(100):
        programs = [with_propagation(random_tiny_program(rng)), one_predicate]
        plain = random_ground_state(rng)
        copies = tuple(rng.choice(plain.atoms) for _ in range(rng.randint(1, 3)))
        mixed = random_state(rng)
        states = [
            State(plain.atoms + copies, (), plain.globals),
            State(plain.atoms * 2, (), frozenset(plain.free_vars())),
            State(mixed.atoms + mixed.atoms[:2], mixed.builtins, mixed.globals),
        ]
        for program in programs:
            for state in states:
                repeats += _assert_first_of_each_class(program, state)
    assert repeats > 500


def test_propagation_targets_skip_canonicalize_on_the_exhaust_peak(monkeypatch):
    import sys

    import chrdc.engine
    import chrdc.state
    from chrdc.analysis import SearchBudget, check_local_confluence

    program = load("exhaust.chr")
    calls, steps = [], []
    canonical, stepping = chrdc.state.canonicalize, chrdc.engine.applicable_steps

    def counting_canonicalize(*args):
        calls.append(args)
        return canonical(*args)

    def counting_steps(*args):
        out = stepping(*args)
        steps.extend(out)
        return out

    # Modules that imported the names hold their own bindings to them.
    for name, module in list(sys.modules.items()):
        if name.startswith("chrdc."):
            if getattr(module, "canonicalize", None) is canonical:
                monkeypatch.setattr(module, "canonicalize", counting_canonicalize)
            if getattr(module, "applicable_steps", None) is stepping:
                monkeypatch.setattr(module, "applicable_steps", counting_steps)
    check_local_confluence(program, SearchBudget(8, 40), assume_terminating=True)
    assert steps
    # 18 calls for 65 steps, 125 when every target was canonicalized. Only
    # the peak's two reducts are built from scratch; the other 16 calls
    # are `applicable_steps` taking a state that is already canonical, and
    # every step target is an ordered insert.
    assert len(steps) == 65
    assert len(calls) == 18
    assert sum(not isinstance(args[0], CanonicalState) for args in calls) == 2


# Rules over the `random_state` signature for the derived-steps property:
# a simplification that puts back what it removes, a guard, compound head
# arguments with repeated variables, a built-in body and a new variable.
_KERNEL = parse_program("""
readd @ q(X, Y) <=> p(X), q(X, Y).
guarded @ p(X) \\ q(X, Y) <=> Y = a | r.
pair @ q(g(X, X), Y), p(Y) ==> q(Y, X).
nest @ p(f(X)), q(X, X) ==> p(g(X, X)).
bind @ q(X, Y) ==> X = Y.
grow @ r ==> p(W), q(W, a).
""")


def _restricted(program, allowed):
    return Program(tuple(r for r in program.rules if allowed is None or r.name in allowed))


def _compound_with_repeats(rule):
    """Whether a compound head argument holds a variable met twice in the heads."""
    seen = Counter(v for a in rule.heads for v in a.iter_vars())
    return any(
        isinstance(t, Compound) and any(seen[v] > 1 for v in iter_vars(t))
        for a in rule.heads
        for t in a.args
    )


def test_derived_steps_are_the_first_of_each_class(monkeypatch):
    import chrdc.engine

    inherited = chrdc.engine._inherited
    merges = []  # what each call's merge walk found, None when it fell back

    def recording(*args):
        merges.append(inherited(*args))
        return merges[-1]

    monkeypatch.setattr(chrdc.engine, "_inherited", recording)
    rng = random.Random(41)
    covered = set()
    flags = Counter()  # the no-locals flags that derived children inherited
    for _ in range(120):
        program = with_propagation(random_tiny_program(rng))
        program = Program(program.rules + _KERNEL.rules)
        names = program.rule_names()
        for state in (random_state(rng), random_ground_state(rng), random_state(rng, 6)):
            source = canonicalize(state)
            if source.bottom:
                continue
            allowed = None if rng.random() < 0.6 else rng.sample(names, len(names) - 1)
            parent = applicable_steps(program, source, allowed)
            # The parent's step targets, and the parent with a copy of one
            # of its atoms and an atom over its globals added.
            children = [(step.target, step) for step in parent]
            extra = (rng.choice(source.atoms),) if source.atoms else ()
            extra += (random_atom(rng, sorted(source.globals), depth=1),)
            grown = State(source.atoms + extra, source.residuals, source.globals)
            children.append((canonicalize(grown), None))
            for child, step in children:
                sub = allowed
                if rng.random() < 0.3:
                    sub = rng.sample(names, rng.randint(1, len(names)))
                merges.clear()
                steps = applicable_steps(program, child, sub, parent)
                expected = first_of_class(injective_steps(_restricted(program, sub), child), child)
                assert steps == expected
                assert steps == applicable_steps(program, child, sub)
                _assert_plans_for_own_fresh_names(program, child, sub, steps)
                if not merges or merges[0] is None:
                    continue
                if steps.no_locals is not None:
                    only_globals = {v for a in child.atoms for v in a.iter_vars()} <= child.globals
                    assert steps.no_locals == only_globals
                    flags[only_globals] += 1
                    flags["turned"] += bool(parent.no_locals and not only_globals)
                _, added = merges[0]
                if step is not None:
                    covered.add("simplification" if step.matched_removed else "propagation")
                if any(child.atoms[i] in source.atoms for i in added):
                    covered.add("equal atom inserted")
                if child.residuals:
                    covered.add("built-ins")
                if not child.globals.issuperset(child.as_state().iter_vars()):
                    covered.add("locals")
                for rule in program.rules:
                    if any(s.rule_name == rule.name for s in steps):
                        if rule.guard:
                            covered.add("guards")
                        if _compound_with_repeats(rule):
                            covered.add("compound head arguments with repeated variables")
    assert covered == {
        "propagation", "simplification", "equal atom inserted", "built-ins", "locals",
        "guards", "compound head arguments with repeated variables",
    }
    # A derived child's flag is its parent's, checked on the added atoms
    # only. Both answers occur (66 True, 50 False), and 4 children turn
    # their parent's True into False by adding a local.
    assert flags[True] >= 60 and flags[False] >= 40 and flags["turned"] >= 4


def _assert_plans_for_own_fresh_names(program, state, allowed, steps):
    """Each allowed rule's plan is the one compiled for the fresh names of
    `state` itself, whatever parent the steps were derived from."""
    from chrdc.engine import _compiled, _fresh_names

    fresh = _fresh_names(canonicalize(state).as_state())
    for rule, plan in zip(program.rules, steps.plans):
        if allowed is None or rule.name in allowed:
            assert plan == _compiled(rule, fresh)
        else:
            assert plan is None


def test_compiled_head_plans_agree_with_match():
    from chrdc.engine import _compiled
    from chrdc.terms import match, rename_apart

    rng = random.Random(43)
    a, b = Compound("a"), Compound("b")

    def pattern(depth=1):
        roll = rng.random()
        if roll < 0.45 or depth == 0:
            return Var(rng.choice("XYZ"))
        if roll < 0.6:
            return rng.choice([a, b, Compound("f", (b,))])
        if roll < 0.8:
            return Compound("f", (pattern(depth - 1),))
        return Compound("g", (pattern(depth - 1), pattern(depth - 1)))

    def instance(t, theta):
        """`t` under `theta`, sometimes with one subterm replaced."""
        if rng.random() < 0.1:
            return rng.choice([a, b, Var("G"), Compound("f", (a,))])
        if isinstance(t, Var):
            return theta[t.name]
        return Compound(t.functor, tuple(instance(x, theta) for x in t.args))

    def kinds(heads):
        """What the matcher does with each head argument: bind a variable
        met first, compare with a bound variable, compare with a ground
        term, or match a compound that holds variables."""
        seen = set()
        for head in heads:
            for arg in head.args:
                names = list(iter_vars(arg))
                if isinstance(arg, Var):
                    yield "bound" if arg.name in seen else "bind"
                else:
                    yield "match" if names else "ground"
                seen.update(names)

    outcomes = set()  # (what the matcher does with an argument, matched)
    for _ in range(600):
        heads = tuple(
            Atom(pred, tuple(pattern() for _ in range(n)))
            for pred, n in rng.sample([("p", 1), ("q", 2), ("r", 3)], rng.randint(1, 2))
        )
        # The body shows the matcher's bindings of the head variables.
        names = sorted({v for h in heads for v in h.iter_vars()})
        rule = Rule("h", (), heads, (), (Atom("b", tuple(Var(v) for v in names)),), ())
        renamed = rename_apart(set(), rule)
        plan = _compiled(rule, frozenset())
        theta = {v: rng.choice([a, b, Var("G"), Compound("g", (a, Var("H")))]) for v in "XYZ"}
        atoms = tuple(Atom(h.pred, tuple(instance(t, theta) for t in h.args)) for h in heads)
        expected = match(
            [(p, t) for h, at in zip(renamed.heads, atoms) for p, t in zip(h.args, at.args)]
        )
        found = plan.run(atoms, None, tuple(range(len(atoms))), False)
        ok = bool(found)
        assert ok == (expected is not None)
        if ok:
            [(pos, ((body,), builtins))] = found
            assert (pos, builtins) == (tuple(range(len(atoms))), ())
            assert body.args == tuple(expected[v.name] for v in renamed.user_body[0].args)
        outcomes.update((kind, ok) for kind in kinds(heads))
    assert outcomes == {(k, ok) for k in ("bind", "bound", "ground", "match") for ok in (True, False)}


def test_exhaust_search_derives_steps_from_the_parent(monkeypatch):
    import chrdc.engine
    from chrdc.analysis import SearchBudget, check_local_confluence

    program = load("exhaust.chr")
    inherited, compiled = chrdc.engine._inherited, chrdc.engine._compiled
    merges = []
    offered = []  # per matcher call: the store's size and how many atoms its last head may take

    def recording_merge(parent, *args):
        merges.append((parent, inherited(parent, *args)))
        return merges[-1][1]

    def counting(plan):
        def run(atoms, added=None, *rest):
            offered.append((len(atoms), len(atoms) if added is None else len(added)))
            return plan.run(atoms, added, *rest)

        return plan._replace(run=run)

    def search():
        offered.clear()
        return check_local_confluence(program, SearchBudget(8, 40), assume_terminating=True)

    monkeypatch.setattr(chrdc.engine, "_compiled", lambda *args: counting(compiled(*args)))
    monkeypatch.setattr(chrdc.engine, "_inherited", lambda *args: None)
    full, full_offered = search(), list(offered)
    monkeypatch.setattr(chrdc.engine, "_inherited", recording_merge)
    assert search() == full
    # Every expansion below a root has a parent, and each child, made by a
    # propagation step, holds its parent's atoms: its heads are matched
    # only where they take an added atom.
    assert len(merges) == 16
    assert sum(parent is not None for parent, _ in merges) == 14
    assert sum(merge is not None for _, merge in merges) == 14
    # In full, the last head of each rule's matcher may take every atom of
    # the store; in each of the 14 derived expansions, only the added ones.
    assert all(store == tried for store, tried in full_offered)
    assert sum(store > tried for store, tried in offered) == 14 * len(program.rules)
    assert (sum(t for _, t in full_offered), sum(t for _, t in offered)) == (221, 62)


def test_exhaust_search_walks_only_states_not_derived(monkeypatch):
    # Whether a store's atoms hold only globals is found by a walk over
    # them on a state enumerated in full, and taken from the parent and
    # the added atoms on a derived one.
    import chrdc.engine
    from chrdc.analysis import SearchBudget, check_local_confluence

    program = load("exhaust.chr")
    inherited, only_globals = chrdc.engine._inherited, chrdc.engine._only_globals
    calls = []  # per `applicable_steps` call: its source, whether derived, full walks

    def recording_merge(parent, program, cst, allowed):
        merge = inherited(parent, program, cst, allowed)
        calls.append([cst, merge is not None, 0])
        return merge

    def counting_walks(atoms, globs):
        atoms = list(atoms)
        if atoms == list(calls[-1][0].atoms):
            calls[-1][2] += 1
        return only_globals(atoms, globs)

    monkeypatch.setattr(chrdc.engine, "_inherited", recording_merge)
    monkeypatch.setattr(chrdc.engine, "_only_globals", counting_walks)
    check_local_confluence(program, SearchBudget(8, 40), assume_terminating=True)
    assert len(calls) == 16
    assert sum(derived for _, derived, _ in calls) == 14
    assert all(walks <= 1 for _, _, walks in calls)
    assert sum(walks for _, derived, walks in calls if derived) == 0
    assert sum(walks for _, _, walks in calls) == 2


def test_a_child_with_other_fresh_names_is_enumerated_in_full():
    # The parent renames `r` apart from no fresh name, so its body variable
    # is `_V1`; in the child `_V1` is a global, and an inherited step would
    # give q(a, _V1) where the rule adds a new local.
    program = parse_program("r @ p(X) ==> q(X, Y).")
    parent = applicable_steps(program, parse_state("p(a) # globals:"))
    fresh = Atom("p", (Var("_V1"),))
    child = canonicalize(State((Atom("p", (Compound("a"),)), fresh), (), frozenset({"_V1"})))
    steps = applicable_steps(program, child, None, parent)
    assert steps == applicable_steps(program, child)
    assert [canonical_text(s.target) for s in steps] == [
        "<p(_V1), p(a), q(_V1, L0) # globals: _V1>",
        "<p(_V1), p(a), q(a, L0) # globals: _V1>",
    ]
    # The child does not take the parent's plan, made for no fresh names.
    _assert_plans_for_own_fresh_names(program, child, None, steps)
    assert steps.plans != parent.plans


def test_inserts_agree_with_canonicalize_on_integer_and_plus_terms(monkeypatch):
    # No test generator makes integer or `+` terms. Beside a variable they
    # sort first, so an ordered insert that disagreed with `canonicalize`
    # on the order of such atoms would give a target that the oracle's,
    # canonicalized from scratch, does not equal.
    import chrdc.engine

    program = parse_program("g @ p(Y) ==> p(1), p(Y+1).")
    inherited, merges = chrdc.engine._inherited, []

    def recording(*args):
        merges.append(inherited(*args))
        return merges[-1]

    monkeypatch.setattr(chrdc.engine, "_inherited", recording)
    level = {canonicalize(parse_state("p(X) # globals: X")): None}
    for _ in range(4):
        children = {}
        for source, parent in level.items():
            steps = applicable_steps(program, source, None, parent)
            assert steps == applicable_steps(program, source)
            for step in steps:
                assert step.target == _oracle_target(program, source, step)
                children.setdefault(step.target, steps)
        level = children
    assert len(level) == 20
    # The steps of the 1 + 3 + 8 children were derived from their parents'.
    assert sum(m is not None for m in merges) == 12


def _assert_steps_match_the_oracle_and_replay(program, text):
    source = canonicalize(parse_state(text))
    steps = applicable_steps(program, source)
    assert steps == first_of_class(injective_steps(program, source), source)
    for step in steps:
        assert replay(program, Derivation(source, (step,))) == step.target
    return steps


def test_a_rule_of_25_chained_heads_steps_as_the_oracle():
    # More heads than CPython nests loops in one function. A loop at a3
    # gives two more chains, and a copy of the first link repeats a class.
    program = parse_program("r @ " + ", ".join(f"c(X{k}, X{k + 1})" for k in range(25)) + " <=> true.")
    links = [f"c(a{k}, a{k + 1})" for k in range(25)] + ["c(a3, a3)", "c(a0, a1)"]
    steps = _assert_steps_match_the_oracle_and_replay(program, ", ".join(links) + " # globals:")
    assert [len(step.target.atoms) for step in steps] == [2, 2, 2]
    assert "step24(" in steps.plans[0].source


def test_a_rule_with_a_term_nested_150_deep_steps_as_the_oracle():
    deep = "X"
    for _ in range(150):
        deep = f"f({deep})"
    ground = deep.replace("X", "a")
    program = parse_program(
        f"grow @ p(X) ==> q({deep}), X = {ground}.\nshrink @ q({ground}) \\ p(X) <=> X = a | q(X).\n"
    )
    steps = _assert_steps_match_the_oracle_and_replay(program, f"p(a), p(b), q({ground}) # globals:")
    assert [s.rule_name for s in steps] == ["grow", "grow", "shrink"]


# Every name in a generated matcher: these keywords and names, and
# generated identifiers made of one of a few letters and a number.
_MATCHER_NAMES = {
    "def", "for", "in", "if", "else", "is", "not", "or", "and", "continue", "return", "None",
    "True", "step", "atoms", "added", "fixed", "skip", "out", "append", "range", "len", "i",
    "p", "m", "apply", "match", "new", "Atom", "Eq",
}


def _assert_only_generated_text(source):
    import io
    import re
    import tokenize

    layout = {tokenize.OP, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
              tokenize.ENDMARKER}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            assert tok.string in _MATCHER_NAMES or re.fullmatch(r"(step|[acditv])[0-9]+", tok.string), tok
        elif tok.type == tokenize.NUMBER:
            assert tok.string.isdigit(), tok
        else:
            assert tok.type in layout, tok


def test_generated_matchers_hold_no_program_text():
    from chrdc.engine import _compiled

    hostile = parse_program(
        "import @ exec(__class__, lambda) \\ lambda(__class__, X) <=> X = __class__ | "
        "import(X, exec), X = def(__import__).\n"
        "lambda @ import(__import__, Y) ==> exec(__import__, def(Y)).\n"
    )
    steps = _assert_steps_match_the_oracle_and_replay(
        hostile, "exec(a, lambda), lambda(a, a), import(b, c) # globals:"
    )
    assert [s.rule_name for s in steps] == ["import", "lambda"]
    rng = random.Random(47)
    programs = [hostile, _KERNEL, _ONE_PREDICATE] + [
        with_propagation(random_tiny_program(rng)) for _ in range(60)
    ]
    sources = set()
    for program in programs:
        for rule in program.rules:
            for fresh in (frozenset(), frozenset({"_V0", "_V2"})):
                sources.add(_compiled(rule, fresh).source)
    for source in sources:
        _assert_only_generated_text(source)
    assert len(sources) > 80
