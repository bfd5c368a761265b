from __future__ import annotations

import hashlib
import random
import time

import pytest

from chrdc.engine import applicable_steps
from chrdc.state import (
    INCONSISTENT,
    CanonicalState,
    State,
    canonical_text,
    canonicalize,
    compose,
    equivalent,
    state_text,
)
from chrdc.syntax import Atom, Eq, parse_state
from chrdc.terms import Compound, Var
from helpers import (
    brute_equivalent,
    check_value_semantics,
    random_atom,
    random_state,
    random_term,
)


a, b = Compound("a"), Compound("b")


def st(text: str) -> State:
    return parse_state(text)


def test_canonicalize_applies_solved_store():
    c = canonicalize(st("p(X), X = a # globals:"))
    assert c.atoms == (Atom("p", (a,)),)
    assert c.residuals == ()
    assert not c.bottom


def test_inconsistent_states_are_one_class():
    c1 = canonicalize(st("p(Y), false # globals: X"))
    c2 = canonicalize(st("q(X), false # globals:"))
    assert c1.bottom and c2.bottom
    assert c1 == c2 == INCONSISTENT
    assert canonical_text(c1) == "<false>"


def test_alpha_variants_have_identical_canonical_forms():
    c1 = canonicalize(st("leq(U,V) # globals:"))
    c2 = canonicalize(st("leq(A,B) # globals:"))
    assert c1 == c2


def test_global_binding_is_kept_as_residual():
    c = canonicalize(st("X = f(Y) # globals: X"))
    assert c.atoms == ()
    assert len(c.residuals) == 1
    assert c.residuals[0].lhs == Var("X")
    assert c.globals == {"X"}


def test_variable_chains_through_locals_collapse():
    # A local acting as a middleman between two globals must not survive.
    s1 = st("X = Z, Y = Z # globals: X, Y")
    s2 = st("X = Y # globals: X, Y")
    assert canonicalize(s1) == canonicalize(s2)
    assert equivalent(s1, s2)


def test_dead_globals_are_dropped():
    s1 = st("p(a) # globals: X")
    s2 = st("p(a) # globals:")
    assert canonicalize(s1) == canonicalize(s2)
    assert equivalent(s1, s2)


def test_equivalent_accepts_redundant_equation():
    s1 = st("leq(X,Y), leq(Y,X) # globals: X, Y")
    s2 = st("leq(X,Y), leq(Y,X), X = X, Z = Z # globals: X, Y")
    assert equivalent(s1, s2)


def test_two_locals_differ_from_one():
    s1 = st("p(X), p(Y) # globals:")
    s2 = st("p(X), p(X) # globals:")
    assert not equivalent(s1, s2)


def test_inconsistent_only_matches_inconsistent():
    s = st("p(a) # globals:")
    bad = st("false # globals:")
    assert not equivalent(s, bad)
    assert equivalent(bad, st("q(b), false # globals:"))


def test_globals_matter_for_equivalence():
    assert not equivalent(st("p(X) # globals: X"), st("p(Y) # globals: Y"))
    assert equivalent(st("p(X) # globals:"), st("p(Y) # globals:"))


def test_duplicate_atom_ambiguity_falls_back_to_bijection():
    # Same state written with permuted locals; the presort may label the
    # locals differently, yet they must stay equivalent.
    s1 = State(
        (
            Atom("q", (Var("X"), Var("Y"))),
            Atom("q", (Var("Y"), Var("X"))),
            Atom("p", (Var("X"),)),
        ),
        (),
        frozenset(),
    )
    s2 = State(
        (
            Atom("q", (Var("B"), Var("A"))),
            Atom("q", (Var("A"), Var("B"))),
            Atom("p", (Var("B"),)),
        ),
        (),
        frozenset(),
    )
    assert equivalent(s1, s2)
    assert not equivalent(
        s1,
        State(s1.atoms[:2] + (Atom("p", (Var("Y"),)), Atom("p", (Var("X"),))), (), frozenset()),
    )


def test_directed_path_needs_the_bijection_fallback():
    # The two-edge path written forwards and backwards. Labelling locals
    # by first occurrence gave these two different forms; a canonical
    # labelling gives one. A fork of the same shape must still be
    # distinguished.
    path = State(
        (Atom("e", (Var("X"), Var("Y"))), Atom("e", (Var("Y"), Var("Z")))),
        (),
        frozenset(),
    )
    reversed_path = State(
        (Atom("e", (Var("C"), Var("B"))), Atom("e", (Var("B"), Var("A")))),
        (),
        frozenset(),
    )
    fork = State(
        (Atom("e", (Var("X"), Var("Y"))), Atom("e", (Var("X"), Var("Z")))),
        (),
        frozenset(),
    )
    assert canonicalize(path) == canonicalize(reversed_path)
    assert equivalent(path, reversed_path)
    assert not equivalent(path, fork)


def test_canonicalize_is_a_fixpoint_on_random_states():
    rng = random.Random(23)
    for _ in range(300):
        s = random_state(rng)
        c = canonicalize(s)
        assert canonicalize(c.as_state()) == c
        assert equivalent(s, c.as_state())


def test_a_canonical_store_is_sorted_by_value():
    # Atoms compare as tuples: `+` and integer functors sort before
    # variable names, and lower-case functors after them.
    c = canonicalize(st("p(a), p(X), p(1), p(X+1) # globals: X"))
    assert canonical_text(c) == "<p(X+1), p(1), p(X), p(a) # globals: X>"
    rng = random.Random(29)
    for _ in range(300):
        c = canonicalize(random_state(rng))
        assert list(c.atoms) == sorted(c.atoms)


def test_several_residuals_are_sorted_and_named_alike():
    # One equation leaves at most one residual: 0 of 300 canonical
    # `random_state` states at this seed hold two. With two more equations
    # the residuals' order shows, and must not depend on the names of the
    # locals or on the order of the stores.
    rng = random.Random(29)
    assert sum(len(canonicalize(random_state(rng)).residuals) > 1 for _ in range(300)) == 0
    several = 0
    for _ in range(300):
        s = random_state(rng, more_eqs=2)
        c = canonicalize(s)
        if len(c.residuals) < 2:
            continue
        several += 1
        assert list(c.residuals) == sorted(c.residuals)
        assert canonicalize(c.as_state()) == c
        for _ in range(3):
            assert canonicalize(_variant(rng, s)) == c
    assert several == 44


def test_equivalence_relation_properties_sampled():
    rng = random.Random(31)
    states = [random_state(rng) for _ in range(60)]
    for s in states:
        assert equivalent(s, s)
    for _ in range(200):
        s1, s2 = rng.choice(states), rng.choice(states)
        assert equivalent(s1, s2) == equivalent(s2, s1)
    # Transitivity on triples built to be pairwise comparable.
    for _ in range(200):
        s = random_state(rng)
        ren = {v: Var(f"R{i}") for i, v in enumerate(sorted(s.free_vars() - s.globals))}
        s_alpha = State(
            tuple(atm.subst(ren) for atm in s.atoms),
            tuple(e.subst(ren) for e in s.builtins),
            s.globals,
        )
        shuffled = list(s_alpha.atoms)
        rng.shuffle(shuffled)
        s_shuf = State(tuple(shuffled), s_alpha.builtins, s_alpha.globals)
        assert equivalent(s, s_alpha)
        assert equivalent(s_alpha, s_shuf)
        assert equivalent(s, s_shuf)


def _random_store(rng: random.Random) -> State:
    """Up to six locals and two globals: edges, marks, duplicated atoms
    and sometimes a residual equation."""
    locals_ = [f"X{i}" for i in range(rng.randint(1, 6))]
    pool = locals_ + ["G", "H"]
    atoms = []
    for _ in range(rng.randint(1, 7)):
        roll = rng.random()
        if roll < 0.5:
            atoms.append(Atom("e", (Var(rng.choice(pool)), Var(rng.choice(locals_)))))
        elif roll < 0.8:
            atoms.append(Atom("p", (Var(rng.choice(locals_)),)))
        else:
            v = rng.choice(pool)
            atoms.append(Atom("q", (Var(v), Compound("f", (Var(v),)))))
        if rng.random() < 0.3:
            atoms.append(atoms[-1])
    eqs = []
    if rng.random() < 0.4:
        eqs.append(Eq(Var(rng.choice(["G", "H"])), rng.choice([Var(rng.choice(pool)), a])))
    return State(tuple(atoms), tuple(eqs), frozenset({"G", "H"}))


def _successor_store(rng: random.Random, size: int = 6, most: int = 2) -> State:
    """Locals each with as many out-edges as in-edges: the edges of one to
    `most` random permutations. Colour refinement alone cannot split them,
    and with two or more permutations the locals are rarely all alike."""
    names = [f"X{i}" for i in range(size)]
    atoms = []
    for _ in range(rng.randint(1, most)):
        succ = names[:]
        rng.shuffle(succ)
        atoms += [Atom("e", (Var(x), Var(y))) for x, y in zip(names, succ)]
    return State(tuple(atoms), (), frozenset())


def _variant(rng: random.Random, s: State) -> State:
    """The same state with its locals renamed and its stores shuffled."""
    locs = sorted(s.free_vars() - s.globals)
    images = [f"R{i}" for i in range(len(locs))]
    rng.shuffle(images)
    t = s.subst({v: Var(w) for v, w in zip(locs, images)})
    atoms, eqs = list(t.atoms), list(t.builtins)
    rng.shuffle(atoms)
    rng.shuffle(eqs)
    return State(tuple(atoms), tuple(eqs), t.globals)


def _mutant(rng: random.Random, s: State) -> State:
    """The state with one atom replaced by a copy of another, or rewired."""
    atoms = list(s.atoms)
    i = rng.randrange(len(atoms))
    if rng.random() < 0.5:
        atoms[i] = atoms[rng.randrange(len(atoms))]
    elif atoms[i].args:
        names = sorted(s.free_vars()) or ["X0"]
        args = list(atoms[i].args)
        args[rng.randrange(len(args))] = Var(rng.choice(names))
        atoms[i] = Atom(atoms[i].pred, tuple(args))
    return State(tuple(atoms), s.builtins, s.globals)


def test_equivalent_agrees_with_brute_force_oracle():
    rng = random.Random(89)
    outcomes = {True: 0, False: 0}
    for n in range(200):
        s = _successor_store(rng) if n % 4 == 0 else _random_store(rng)
        c = canonicalize(s)
        assert canonicalize(c) is c
        assert canonicalize(c.as_state()) == c
        others = [_variant(rng, s), _mutant(rng, s), _mutant(rng, _variant(rng, s))]
        if n % 4 == 0:
            others.append(_successor_store(rng))
        for t in others:
            expected = brute_equivalent(s, t)
            assert equivalent(s, t) == expected, (canonical_text(c), canonical_text(canonicalize(t)))
            assert equivalent(t, s) == expected
            outcomes[expected] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_a_store_without_built_ins_has_the_solved_form():
    # One trivially true equation sends canonicalize through unify and
    # substitution; with no built-ins at all the form must not change.
    # Dropping the equations leaves dead globals, and successor stores hold
    # only locals.
    rng = random.Random(41)
    trivial = (Eq(a, a),)
    states = [random_state(rng) for _ in range(2000)]
    states += [_successor_store(rng, size=rng.randint(1, 8), most=3) for _ in range(200)]
    states.append(State((Atom("p", (Var("X"), a)),), (), frozenset({"X", "Y"})))
    for s in states:
        bare = State(s.atoms, (), s.globals)
        solved = State(s.atoms, trivial, s.globals)
        assert canonicalize(bare) == canonicalize(solved), canonical_text(canonicalize(solved))


def test_canonical_form_ignores_names_beyond_the_oracle():
    rng = random.Random(97)
    for _ in range(60):
        s = _successor_store(rng, size=rng.randint(7, 9), most=3)
        c = canonicalize(s)
        for _ in range(3):
            assert canonicalize(_variant(rng, s)) == c


def test_solved_form_is_pinned():
    # Which member names each variable class, and which names the locals
    # get, are fixed choices that every report depends on; any change to
    # how the store is solved or the locals are named must keep this
    # digest. Globals named L0, L1, L2 make the locals' names skip them.
    rng = random.Random(3)
    pool = ["X", "Y", "Z", "W", "L0", "L1", "L2"]
    digest = hashlib.sha256()
    for _ in range(1500):
        atoms = tuple(random_atom(rng, pool, depth=1) for _ in range(rng.randint(0, 4)))
        eqs = []
        for _ in range(rng.randint(1, 4)):
            v, w = Var(rng.choice(pool)), Var(rng.choice(pool))
            eqs.append(Eq(v, rng.choice([w, random_term(rng, pool, 2)])))
        eqs = tuple(Eq(e.rhs, e.lhs) if rng.random() < 0.5 else e for e in eqs)
        globals_ = frozenset(v for v in pool if rng.random() < 0.4)
        digest.update(f"{canonical_text(canonicalize(State(atoms, eqs, globals_)))}\n".encode())
    assert digest.hexdigest() == (
        "df32a1605b4e75156f1edf5a5a972e63d95bf57d89c32f9a0c5291ff392333c4"
    )


def test_canonical_form_with_repeated_shapes_is_a_fixpoint():
    # First-occurrence labelling gave this state a form that
    # canonicalized again to a different one.
    c = canonicalize(
        st("p(f(a)), q(X, g(a, b)), q(Y, Y), q(W, X), q(W, Z), p(f(b)) # globals: W, Z")
    )
    assert canonicalize(c.as_state()) == c
    assert canonicalize(c) is c


def _cycle(names: list[str]) -> tuple[Atom, ...]:
    return tuple(Atom("p", (Var(x), Var(y))) for x, y in zip(names, names[1:] + names[:1]))


def _names(n: int, prefix: str = "X") -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def _hung_cycles(prefix: str) -> State:
    hub = Var(f"{prefix}H")
    atoms = [Atom("h", (hub,))]
    for k in range(5):
        ring = _names(3, f"{prefix}{k}_")
        atoms += _cycle(ring) + (Atom("r", (hub, Var(ring[0]))),)
    return State(tuple(atoms), (), frozenset())


@pytest.mark.parametrize("left, right, expected, refinements", [
    (_cycle(_names(9)), _cycle(_names(4)) + _cycle(_names(5, "Y")), False, 25),
    (sum((_cycle(_names(3, f"C{k}_")) for k in range(4)), ()), _cycle(_names(12)), False, 35),
    (_hung_cycles("A").atoms, _hung_cycles("B").atoms[::-1], True, 64),
    (tuple(Atom("q", (Var(v),)) for v in _names(8)),
     tuple(Atom("q", (Var(v),)) for v in _names(8, "Y")[::-1]), True, 18),
], ids=["9-cycle", "3-cycles", "hung-cycles", "8-copies"])
def test_symmetric_stores_are_compared_quickly(left, right, expected, refinements, monkeypatch):
    # Automorphisms prune the labelling search; the count of colourings
    # (`_positions` calls) pins the work beside the time bound.
    import chrdc.state

    coloured = []

    def counting(values, _f=chrdc.state._positions):
        coloured.append(len(values))
        return _f(values)

    monkeypatch.setattr(chrdc.state, "_positions", counting)
    start = time.perf_counter()
    assert equivalent(State(left, (), frozenset()), State(right, (), frozenset())) == expected
    assert time.perf_counter() - start < 1.0
    assert len(coloured) == refinements


def test_state_text_renames_internal_locals():
    from chrdc.state import state_text
    from chrdc.syntax import parse_state

    s = State((Atom("p", (Var("_V3"), Var("X"))),), (), frozenset({"X"}))
    text = state_text(s)
    assert "_V" not in text
    assert equivalent(parse_state(text), s)


def test_compose_examples():
    s = compose(st("p(X) # globals: X"), st("q(Y) # globals: Y"), frozenset())
    assert equivalent(s, st("p(X), q(Y) # globals: X, Y"))
    s = compose(st("p(X) # globals: X"), st("q(X) # globals: X"), frozenset({"X"}))
    assert s.globals == frozenset()
    assert equivalent(s, st("p(X), q(X) # globals:"))


def test_compose_rejects_shared_locals():
    with pytest.raises(ValueError):
        compose(st("p(X) # globals:"), st("q(X) # globals:"), frozenset())


def test_monotonicity_of_transitions_under_composition(leq, philos, pminus):
    rng = random.Random(47)
    programs = [leq, philos, pminus]
    preds = {
        id(leq): [("leq", 2)],
        id(philos): [("frk", 1), ("thk", 3), ("eat", 3)],
        id(pminus): [("p", 1)],
    }
    checked = 0
    while checked < 200:
        program = rng.choice(programs)
        sig = preds[id(program)]

        def arg(pool):
            roll = rng.random()
            if roll < 0.5:
                return rng.choice([a, b])
            return Var(rng.choice(pool))

        atoms = []
        for _ in range(rng.randint(1, 3)):
            pred, arity = rng.choice(sig)
            atoms.append(Atom(pred, tuple(arg(["G1", "G2"]) for _ in range(arity))))
        s1 = State(tuple(atoms), (), frozenset({"G1", "G2"}))
        steps = applicable_steps(program, s1)
        if not steps:
            continue
        step = steps[rng.randrange(len(steps))]
        s2 = step.target

        extra = []
        for _ in range(rng.randint(0, 2)):
            pred, arity = rng.choice(sig)
            extra.append(Atom(pred, tuple(arg(["G1", "M1"]) for _ in range(arity))))
        extra_eqs = []
        if rng.random() < 0.3:
            extra_eqs.append(Eq(Var("G1"), rng.choice([a, b])))
        shared = {"G1", "G2"}
        s_extra = State(tuple(extra), tuple(extra_eqs), frozenset(shared | {"M1"}))
        quantified = frozenset(rng.sample(sorted(shared), rng.randint(0, 2)))

        big1 = compose(canonicalize(s1).as_state(), s_extra, quantified)
        big2 = compose(s2.as_state(), s_extra, quantified)
        if canonicalize(big1).bottom:
            assert canonicalize(big2).bottom
            checked += 1
            continue
        targets = [t.target for t in applicable_steps(program, big1)]
        assert any(equivalent(t, big2) for t in targets), (
            canonical_text(canonicalize(big1)),
            canonical_text(canonicalize(big2)),
        )
        checked += 1


def test_states_and_canonical_states_are_values():
    rng = random.Random(97)
    states = [random_state(rng, max_atoms=2) for _ in range(150)]
    check_value_semantics(states, state_text)
    canonical = [canonicalize(s) for s in states]
    check_value_semantics(canonical, canonical_text)
    # A state never equals a canonical state with the same stores.
    for s, c in zip(states, canonical):
        assert s != c and c != s and c.as_state() != c
    assert len({INCONSISTENT, INCONSISTENT.as_state()}) == 2


@pytest.mark.parametrize("field", ["atoms", "builtins", "globals"])
def test_setting_a_field_of_a_state_raises(field):
    s = st("p(X), X = a # globals: X")
    with pytest.raises(AttributeError):
        setattr(s, field, ())


@pytest.mark.parametrize("field", ["atoms", "residuals", "globals", "bottom"])
def test_setting_a_field_of_a_canonical_state_raises(field):
    c = canonicalize(st("p(X) # globals: X"))
    with pytest.raises(AttributeError):
        setattr(c, field, ())
    assert c == CanonicalState((Atom("p", (Var("X"),)),), (), frozenset({"X"}))
