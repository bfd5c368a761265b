"""Shared test utilities: independent oracles and random generators.

The oracles here deliberately avoid the production code paths they
check: a recursive eager-substitution unifier, a standalone instance
matcher, and brute-force enumerators.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from chrdc.analysis import capped, star
from chrdc.engine import Derivation, LabeledStep, applicable_steps
from chrdc.syntax import Atom, Eq, Program, Rule
from chrdc.state import CanonicalState, State, canonicalize, equivalent
from chrdc.terms import Compound, Term, Var, iter_vars, rename_apart


# ---------------------------------------------------------------------------
# Independent unification oracle (recursive Robinson, eager substitution)

def naive_apply(s: dict, t: Term) -> Term:
    # Full normalization; terminates because oracle substitutions are acyclic.
    if isinstance(t, Var):
        bound = s.get(t.name)
        return t if bound is None else naive_apply(s, bound)
    return Compound(t.functor, tuple(naive_apply(s, a) for a in t.args))


def naive_vars(t: Term) -> list[str]:
    """Every variable occurrence of `t`, left to right, by plain recursion."""
    if isinstance(t, Var):
        return [t.name]
    return [v for a in t.args for v in naive_vars(a)]


def _naive_compose(r: dict, s: dict) -> dict:
    out = {}
    for k, v in r.items():
        nv = naive_apply(s, v)
        if nv != Var(k):
            out[k] = nv
    for k, v in s.items():
        if k not in r and v != Var(k):
            out[k] = v
    return out


def naive_unify(l: Term, r: Term) -> Optional[dict]:
    if isinstance(l, Var):
        if l == r:
            return {}
        if _occurs_in(l.name, r):
            return None
        return {l.name: r}
    if isinstance(r, Var):
        return naive_unify(r, l)
    if l.functor != r.functor or len(l.args) != len(r.args):
        return None
    subst: dict = {}
    for la, ra in zip(l.args, r.args):
        sub = naive_unify(naive_apply(subst, la), naive_apply(subst, ra))
        if sub is None:
            return None
        subst = _naive_compose(subst, sub)
    return subst


def naive_unify_pairs(pairs) -> Optional[dict]:
    subst: dict = {}
    for l, r in pairs:
        sub = naive_unify(naive_apply(subst, l), naive_apply(subst, r))
        if sub is None:
            return None
        subst = _naive_compose(subst, sub)
    return subst


def orient(sigma: dict, keep: frozenset[str]) -> dict:
    """An idempotent mgu re-oriented so each class of variables bound to a
    variable is named by its smallest member in `keep`, else by its
    smallest member: a second pass over a finished unifier, independent of
    how `unify` binds as it goes."""
    classes: dict[str, list[str]] = {}
    for v, t in sigma.items():
        if isinstance(t, Var):
            classes.setdefault(t.name, []).append(v)
    rename: dict = {}
    for rep, members in classes.items():
        candidates = sorted(members + [rep])
        kept = [c for c in candidates if c in keep]
        chosen = kept[0] if kept else candidates[0]
        for c in candidates:
            if c != chosen:
                rename[c] = Var(chosen)
    out = {v: naive_apply(rename, t) for v, t in sigma.items() if not isinstance(t, Var)}
    out.update(rename)
    return {v: t for v, t in out.items() if t != Var(v)}


def _occurs_in(name: str, t: Term) -> bool:
    if isinstance(t, Var):
        return t.name == name
    return any(_occurs_in(name, a) for a in t.args)


def instance_of(general: dict, special: dict, variables) -> bool:
    """Whether `special` equals `general` composed with some substitution."""
    delta: dict = {}
    for v in variables:
        pat = naive_apply(general, Var(v))
        tgt = naive_apply(special, Var(v))
        delta = _match_into(pat, tgt, delta)
        if delta is None:
            return False
    return True


def _match_into(pat: Term, tgt: Term, bind: Optional[dict]) -> Optional[dict]:
    if bind is None:
        return None
    if isinstance(pat, Var):
        if pat.name in bind:
            return bind if bind[pat.name] == tgt else None
        out = dict(bind)
        out[pat.name] = tgt
        return out
    if not isinstance(tgt, Compound):
        return None
    if pat.functor != tgt.functor or len(pat.args) != len(tgt.args):
        return None
    for pa, ta in zip(pat.args, tgt.args):
        bind = _match_into(pa, ta, bind)
        if bind is None:
            return None
    return bind


# ---------------------------------------------------------------------------
# Brute-force state equivalence oracle (every bijection between locals)

BRUTE_MAX_LOCALS = 6


def _solved_view(s: State):
    """The state solved by the oracle unifier: its atoms and the image of
    every global still constrained, or None when the store is inconsistent."""
    sigma = naive_unify_pairs([(e.lhs, e.rhs) for e in s.builtins])
    if sigma is None:
        return None
    atoms = [Atom(a.pred, tuple(naive_apply(sigma, t) for t in a.args)) for a in s.atoms]
    images = {g: naive_apply(sigma, Var(g)) for g in s.globals}
    counts = Counter(v for a in atoms for v in a.iter_vars())
    counts.update(v for t in images.values() for v in iter_vars(t))
    # A global whose image is a variable met nowhere else says nothing.
    images = {
        g: t for g, t in images.items() if not (isinstance(t, Var) and counts[t.name] == 1)
    }
    return atoms, images


def _rename_match(t1: Term, t2: Term, m: Optional[dict]) -> Optional[dict]:
    """Extend the variable bijection `m` so that it renames t1 into t2."""
    if m is None:
        return None
    if isinstance(t1, Var) and isinstance(t2, Var):
        if m.get(t1.name, t2.name) != t2.name:
            return None
        if t1.name not in m and t2.name in m.values():
            return None
        return {**m, t1.name: t2.name}
    if isinstance(t1, Var) or isinstance(t2, Var):
        return None
    if t1.functor != t2.functor or len(t1.args) != len(t2.args):
        return None
    for a1, a2 in zip(t1.args, t2.args):
        m = _rename_match(a1, a2, m)
    return m


def brute_equivalent(s1: State, s2: State) -> bool:
    """State equivalence by brute force: solve both stores, fix the variables
    the globals' images force, and try every bijection between the rest."""
    v1, v2 = _solved_view(s1), _solved_view(s2)
    if v1 is None or v2 is None:
        return v1 is None and v2 is None
    (atoms1, images1), (atoms2, images2) = v1, v2
    if images1.keys() != images2.keys() or len(atoms1) != len(atoms2):
        return False
    pinned: Optional[dict] = {}
    for g in images1:
        pinned = _rename_match(images1[g], images2[g], pinned)
    if pinned is None:
        return False
    rest1 = sorted({v for a in atoms1 for v in a.iter_vars()} - pinned.keys())
    rest2 = sorted({v for a in atoms2 for v in a.iter_vars()} - set(pinned.values()))
    if len(rest1) != len(rest2):
        return False
    assert len(rest1) <= BRUTE_MAX_LOCALS, "too many locals for the brute-force oracle"
    target = Counter(atoms2)
    for perm in itertools.permutations(rest2):
        m = {v: Var(w) for v, w in {**pinned, **dict(zip(rest1, perm))}.items()}
        renamed = []
        for atom in atoms1:
            renamed.append(atom.subst(m))
            if renamed[-1] not in target:
                break
        else:
            if Counter(renamed) == target:
                return True
    return False


# ---------------------------------------------------------------------------
# Random structure generators (deterministic given the rng)

CONSTANTS = [Compound("a"), Compound("b"), Compound("c")]


def random_term(rng: random.Random, var_pool: list[str], depth: int = 2) -> Term:
    roll = rng.random()
    if depth <= 0 or roll < 0.4:
        if var_pool and roll < 0.25:
            return Var(rng.choice(var_pool))
        return rng.choice(CONSTANTS)
    if roll < 0.7:
        return Compound("f", (random_term(rng, var_pool, depth - 1),))
    return Compound(
        "g",
        (
            random_term(rng, var_pool, depth - 1),
            random_term(rng, var_pool, depth - 1),
        ),
    )


def random_atom(rng: random.Random, var_pool: list[str], depth: int = 2) -> Atom:
    pred, arity = rng.choice([("p", 1), ("q", 2), ("r", 0)])
    return Atom(pred, tuple(random_term(rng, var_pool, depth) for _ in range(arity)))


def random_state(rng: random.Random, max_atoms: int = 4, more_eqs: int = 0) -> State:
    """Up to `max_atoms` atoms over four variables, some of them global,
    and an equation with probability 0.4. One equation leaves at most one
    residual; `more_eqs` adds that many more, drawn after it, so a caller
    that does not ask for them draws what it always drew."""
    pool = ["X", "Y", "Z", "W"]
    atoms = tuple(
        random_atom(rng, pool, depth=1) for _ in range(rng.randint(0, max_atoms))
    )
    eqs = []
    if rng.random() < 0.4:
        eqs.append(Eq(Var(rng.choice(pool)), random_term(rng, pool, 1)))
    for _ in range(more_eqs):
        eqs.append(Eq(Var(rng.choice(pool)), random_term(rng, pool, 1)))
    used = sorted({v for a in atoms for v in a.iter_vars()}
                  | {v for e in eqs for v in e.iter_vars()})
    globals_ = frozenset(v for v in used if rng.random() < 0.5)
    return State(atoms, tuple(eqs), globals_)


def random_tiny_program(rng: random.Random) -> Program:
    """Programs at the scale of the peak-completeness oracle: at most two
    rules, heads of at most two atoms, depth-one argument terms."""
    sig = [("p", 1), ("q", 2)]
    pool = ["X", "Y"]

    def tiny_term() -> Term:
        roll = rng.random()
        if roll < 0.45:
            return Var(rng.choice(pool))
        if roll < 0.8:
            return rng.choice(CONSTANTS[:2])
        return Compound("s", (Var(rng.choice(pool)),))

    def tiny_atom() -> Atom:
        pred, arity = rng.choice(sig)
        return Atom(pred, tuple(tiny_term() for _ in range(arity)))

    rules = []
    for i in range(rng.randint(1, 2)):
        total_heads = rng.randint(1, 2)
        kept_n = rng.randint(0, total_heads - 1) if rng.random() < 0.4 else 0
        kept = tuple(tiny_atom() for _ in range(kept_n))
        removed = tuple(tiny_atom() for _ in range(total_heads - kept_n))
        if not removed and not kept:
            removed = (tiny_atom(),)
        guard = ()
        if rng.random() < 0.15:
            guard = (Eq(Var(rng.choice(pool)), rng.choice(CONSTANTS[:2])),)
        body_atoms = tuple(tiny_atom() for _ in range(rng.randint(0, 2)))
        body_eqs = ()
        if rng.random() < 0.2:
            body_eqs = (Eq(Var(rng.choice(pool)), rng.choice(CONSTANTS[:2])),)
        rules.append(Rule(f"r{i}", kept, removed, guard, body_atoms, body_eqs))
    return Program(tuple(rules))


def with_propagation(program: Program) -> Program:
    """`program` plus, for each rule, the propagation rule keeping all of
    its heads; the tiny programs alone always remove a head."""
    kept_all = tuple(
        Rule(f"{r.name}k", r.heads, (), r.guard, r.user_body, r.builtin_body)
        for r in program.rules
    )
    return Program(program.rules + kept_all)


def small_universe(depth: int = 1) -> list[Term]:
    """Every ground term over {a, b, f/1, g/2} up to the given depth."""
    terms: list[Term] = CONSTANTS[:2]
    for _ in range(depth):
        layer = [Compound("f", (t,)) for t in terms]
        layer += [Compound("g", (s, t)) for s in terms[:2] for t in terms[:2]]
        terms = terms + layer
    return terms


def enumerate_unifiers(pairs, variables, universe) -> list[dict]:
    """Brute force: every ground substitution that makes all pairs equal."""
    out = []
    variables = sorted(variables)
    for images in itertools.product(universe, repeat=len(variables)):
        theta = dict(zip(variables, images))
        if all(naive_apply(theta, l) == naive_apply(theta, r) for l, r in pairs):
            out.append(theta)
    return out


def states_mod_globals(states1, states2) -> bool:
    """Whether two sequences of states sharing their globals are pairwise
    equivalent after one bijective renaming of the second's globals,
    tried exhaustively and applied to every state alike."""
    g1, g2 = sorted(states1[0].globals), sorted(states2[0].globals)
    if len(g1) != len(g2):
        return False
    for perm in itertools.permutations(g1):
        mapping = {src: Var(dst) for src, dst in zip(g2, perm)}
        if all(
            equivalent(a, canonicalize(b).as_state().subst(mapping))
            for a, b in zip(states1, states2)
        ):
            return True
    return False


def equivalent_mod_globals(s1: State, s2) -> bool:
    """State equivalence up to a bijective renaming of global variables."""
    return states_mod_globals((s1,), (s2,))


def peak_like(pk, anc_text: str, left_text: str, right_text: str) -> bool:
    """Whether a peak matches the three states, read up to global renaming
    applied consistently across the ancestor/left/right triple."""
    from chrdc.syntax import parse_state

    expected = [parse_state(t) for t in (anc_text, left_text, right_text)]
    return states_mod_globals(expected, (pk.ancestor, pk.left, pk.right))


def any_sides(program: Program):
    """`join_search` sides: steps of `program`, any labels, any length."""
    side = (program, capped(program.rule_names()))
    return side, side


def star_sides(program: Program, pk, order):
    """`join_search` sides of the decreasing-diagram shape of `pk` under `order`."""
    a, b = pk.rule_left, pk.rule_right
    return (program, star(a, b, order)), (program, star(b, a, order))


def random_ground_state(rng: random.Random, max_atoms: int = 3) -> State:
    """Small states over the tiny-program signature, mildly non-ground."""
    pool = ["U", "V"]

    def arg() -> Term:
        roll = rng.random()
        if roll < 0.5:
            return rng.choice(CONSTANTS[:2])
        if roll < 0.75:
            return Var(rng.choice(pool))
        return Compound("s", (rng.choice(CONSTANTS[:2]),))

    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        pred, arity = rng.choice([("p", 1), ("q", 2)])
        atoms.append(Atom(pred, tuple(arg() for _ in range(arity))))
    used = sorted({v for a in atoms for v in a.iter_vars()})
    globals_ = frozenset(v for v in used if rng.random() < 0.6)
    return State(tuple(atoms), (), globals_)


# ---------------------------------------------------------------------------
# Overlaps that a symmetry maps onto an earlier one, on whole overlaps

def _overlap_order(pairs) -> tuple:
    """Where the overlap with these (head of the first rule, head of the
    second) pairs comes in the walk over sizes, subsets and bijections:
    (size, first heads, second heads as a set, second heads in pair order)."""
    sel1, sel2 = zip(*sorted(pairs))
    return len(sel1), sel1, tuple(sorted(sel2)), sel2


def lex_leader_skips(sel1, sel2, swaps1, swaps2, mirror: bool) -> bool:
    """Whether the overlap pairing heads `sel1` with heads `sel2` is not
    the least of its images: whether exchanging the heads of one pair in
    `swaps1` (of the first rule) or in `swaps2` (of the second), or with
    `mirror` reading every pair from the other copy of a rule paired with
    itself, gives an overlap that comes earlier. Each image is built from
    the whole set of head pairs."""
    pairs = list(zip(sel1, sel2))
    images = [[(b, a) for a, b in pairs]] if mirror else []
    for h, k in swaps1:
        exchange = {h: k, k: h}
        images.append([(exchange.get(a, a), b) for a, b in pairs])
    for h, k in swaps2:
        exchange = {h: k, k: h}
        images.append([(a, exchange.get(b, b)) for a, b in pairs])
    own = _overlap_order(pairs)
    return any(_overlap_order(image) < own for image in images)


# ---------------------------------------------------------------------------
# Counting calls

def count_calls(monkeypatch, module, *names) -> Counter:
    """Wrap each function `names` of `module` by `monkeypatch` so that every
    call adds one to the returned counter under its name."""
    calls: Counter = Counter()
    for name in names:
        def counting(*args, _f=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


# ---------------------------------------------------------------------------
# Admissible total preorders by brute force

@functools.lru_cache(maxsize=None)
def _surjective_levels(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        levels
        for levels in itertools.product(range(k), repeat=n)
        if set(levels) == set(range(k))
    )


def product_admissible_levels(names: list[str], part) -> Iterable[tuple[int, ...]]:
    """Level tuples of the admissible total preorders on `names`: every
    tuple of `itertools.product(range(k), repeat=n)` for k = 1..n, kept
    when it uses every level and puts each coinductive rule strictly above
    each inductive one."""
    n = len(names)
    for k in range(1, n + 1):
        for levels in _surjective_levels(n, k):
            level = dict(zip(names, levels))
            if any(
                level[rc] <= level[ri]
                for rc in part.coinductive
                for ri in part.inductive
            ):
                continue
            yield levels


# ---------------------------------------------------------------------------
# Steps by brute force: every injective head match, and the first of each
# class of matches that agree atom for atom

def oracle_step(rule: Rule, source: CanonicalState, pos) -> Optional[LabeledStep]:
    """The step of `rule` from the canonical `source` with its heads, kept
    then removed, at the distinct positions `pos`, built from the rule
    itself: renamed apart from every variable of the source, matched by the
    oracle matcher, its guard checked, its body adjoined to the kept atoms
    and the result canonicalized. None when a head does not match or the
    guard fails."""
    state = source.as_state()
    renamed = rename_apart(state.all_vars(), rule)
    theta: Optional[dict] = {}
    for head, i in zip(renamed.heads, pos):
        atom = state.atoms[i]
        if (atom.pred, len(atom.args)) != (head.pred, len(head.args)):
            return None
        for pat, tgt in zip(head.args, atom.args):
            theta = _match_into(pat, tgt, theta)
    if theta is None:
        return None
    if any(naive_apply(theta, e.lhs) != naive_apply(theta, e.rhs) for e in renamed.guard):
        return None
    n_kept = len(renamed.kept)
    removed = tuple(pos[n_kept:])
    kept = [a for i, a in enumerate(state.atoms) if i not in removed]
    body = [Atom(a.pred, tuple(naive_apply(theta, t) for t in a.args)) for a in renamed.user_body]
    eqs = tuple(
        Eq(naive_apply(theta, e.lhs), naive_apply(theta, e.rhs)) for e in renamed.builtin_body
    )
    target = canonicalize(State(tuple(kept + body), state.builtins + eqs, state.globals))
    return LabeledStep(rule.name, tuple(pos[:n_kept]), removed, target)


def injective_steps(program: Program, source: CanonicalState) -> list[LabeledStep]:
    """Every step from the canonical `source`: each rule in program order,
    at every tuple of distinct store positions in lexicographic order, as
    `itertools.permutations` lists them. Equal atoms give one step per
    copy. A prefix of positions whose heads the oracle matcher cannot
    match is not extended: `oracle_step` rejects every tuple that starts
    with it, and a rule of many heads would otherwise take factorial time."""
    if source.bottom:
        return []
    state = source.as_state()
    out = []

    def extend(rule: Rule, heads, pos: tuple[int, ...], theta: dict) -> None:
        if len(pos) == len(heads):
            step = oracle_step(rule, source, pos)
            if step is not None:
                out.append(step)
            return
        head = heads[len(pos)]
        for i, atom in enumerate(state.atoms):
            if i in pos or (atom.pred, len(atom.args)) != (head.pred, len(head.args)):
                continue
            bind: Optional[dict] = theta
            for pat, tgt in zip(head.args, atom.args):
                bind = _match_into(pat, tgt, bind)
            if bind is not None:
                extend(rule, heads, pos + (i,), bind)

    for rule in program.rules:
        extend(rule, rename_apart(state.all_vars(), rule).heads, (), {})
    return out


def first_of_class(steps: Iterable[LabeledStep], source: CanonicalState) -> list[LabeledStep]:
    """The first of `steps` from `source` in each class of one rule and one
    tuple of matched atoms, in their order."""
    seen, out = set(), []
    for step in steps:
        pos = step.matched_kept + step.matched_removed
        key = (step.rule_name, tuple(source.atoms[i] for i in pos))
        if key not in seen:
            seen.add(key)
            out.append(step)
    return out


# ---------------------------------------------------------------------------
# Bounded reachability, for oracles that need every reachable state

@dataclass
class ReachResult:
    entries: list[tuple[CanonicalState, Derivation]]
    depth_truncated: bool = False
    states_truncated: bool = False


def reachable(
    program: Program,
    state: Union[State, CanonicalState],
    allowed: Optional[Iterable[str]] = None,
    max_depth: int = 8,
    max_states: int = 2000,
) -> ReachResult:
    """Breadth-first closure of the step relation, deduplicated by canonical form."""
    start = canonicalize(state)
    result = ReachResult(entries=[(start, Derivation(start))])
    seen = {start}
    frontier = [0]
    depth = 0
    while frontier:
        if depth >= max_depth:
            result.depth_truncated = True
            break
        depth += 1
        next_frontier: list[int] = []
        for idx in frontier:
            cst, deriv = result.entries[idx]
            for step in applicable_steps(program, cst, allowed):
                if step.target in seen:
                    continue
                if len(result.entries) >= max_states:
                    result.states_truncated = True
                    return result
                longer = Derivation(deriv.source, deriv.steps + (step,))
                result.entries.append((step.target, longer))
                seen.add(step.target)
                next_frontier.append(len(result.entries) - 1)
        frontier = next_frontier
    return result


# ---------------------------------------------------------------------------
# The closing search with every level built in full, for `join_search`

def _plain_levels(program: Program, auto, root: CanonicalState, max_depth: int, room: int):
    """The levels of a breadth-first walk from `root` up to `max_depth`,
    each built in full: per level, the (state, phase, steps) of the
    children whose (state, phase) no earlier node had, in parent order,
    then step order, then phase order. Also whether the walk ran out of
    children, and how many states it added; it stops once that passes
    `room`."""
    levels = [[(root, auto.start, ())]]
    seen = {(root, auto.start)}
    added = 0
    while len(levels) <= max_depth and added <= room:
        level = []
        for state, phase, steps in levels[-1]:
            allowed = auto.moves[phase].keys()
            if not allowed:
                continue
            for step in applicable_steps(program, state, allowed):
                for nxt in auto.next(phase, step.rule_name):
                    if (step.target, nxt) not in seen:
                        seen.add((step.target, nxt))
                        level.append((step.target, nxt, steps + (step,)))
        if not level:
            return levels, True, added
        added += len(level)
        levels.append(level)
    return levels, False, added


def plain_closing(peak, sides, budget):
    """The least valley of `peak` whose traces the automata of `sides`
    accept: the least total length, then the least (left key, right key),
    where a key is the trace's rule positions, the first found among
    equal keys when splits go from 0 up. Each side's levels are built in
    full to `budget.max_depth` with `applicable_steps`.

    Returns the valley as a pair of derivations or None, whether both
    sides ran out of steps, and whether `budget.max_states` cut the walk;
    the first two are meaningless when it did."""
    room = budget.max_states - 2
    walks = []
    for (program, auto), root in zip(sides, (peak.left, peak.right)):
        levels, done, added = _plain_levels(program, auto, root, budget.max_depth, room)
        room -= added
        index = {r.name: i for i, r in enumerate(program.rules)}
        walks.append((levels, done, auto, index))
    if room < 0:
        return None, False, True
    (left, l_done, l_auto, l_index), (right, r_done, r_auto, r_index) = walks
    for total in range(len(left) + len(right) - 1):
        found = []
        for l_depth in range(max(0, total - len(right) + 1), min(total, len(left) - 1) + 1):
            for l_state, l_phase, l_steps in left[l_depth]:
                if not l_auto.accepting(l_phase):
                    continue
                for r_state, r_phase, r_steps in right[total - l_depth]:
                    if r_state == l_state and r_auto.accepting(r_phase):
                        key = (
                            tuple(l_index[s.rule_name] for s in l_steps),
                            tuple(r_index[s.rule_name] for s in r_steps),
                        )
                        found.append((key, l_steps, r_steps))
        if found:
            _, l_steps, r_steps = min(found, key=lambda f: f[0])
            return (Derivation(peak.left, l_steps), Derivation(peak.right, r_steps)), False, False
    return None, l_done and r_done, False


def check_value_semantics(values: list, text) -> None:
    """`==` on `values` agrees with equality of their printed form `text`,
    equal values hash equal, and each value works as a set member and a
    dict key."""
    texts = [text(v) for v in values]
    for v, tv in zip(values, texts):
        for w, tw in zip(values, texts):
            assert (v == w) == (tv == tw), (tv, tw)
            if tv == tw:
                assert hash(v) == hash(w), tv
    assert len(set(values)) == len(set(texts))
    by_value = {v: t for v, t in zip(values, texts)}
    assert all(by_value[v] == t for v, t in zip(values, texts))
