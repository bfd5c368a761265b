"""Labeled transition relation, derivations and their replay.

A step fires a rule on a canonical state: the rule is renamed apart,
its head atoms are matched onto distinct store positions (binding rule
variables only), guard equations must be syntactically satisfied after
matching, and the target adjoins the body. The store stays a multiset,
but matches that agree atom for atom are one step: the relation has one
step per rule and per tuple of matched atoms, at the first positions of
equal atoms. Propagation rules re-fire on their own output; no token
store is kept, so the relation is faithfully the abstract one and
derivations can loop.

Renaming apart picks only fresh (`FRESH_PREFIX`) names, so a rule is
renamed once per set of fresh names in the state, and compiled then, as
CHR compilers compile head matching per rule (Holzbaur, García de la
Banda, Stuckey and Duck, TPLP 5, 2005). The plan gives each head
argument one instruction: bind a variable met first, compare with a
bound variable, compare with a ground term, or `terms.match` a compound
that holds variables. The renamed guard and body are the template that
a match instantiates. A head is tried only on atoms of its predicate and
arity, depth first, the first head outermost.

Which rules match where, and what they add, depend only on a state's
atoms and its fresh names. So a child's steps are derived from its
parent's, as semi-naive evaluation and the TREAT matcher do (Miranker,
AAAI 1987), when one merge walk finds the parent's atoms in order among
the child's, the globals are the same and the child's allowed rules are
among the parent's. The parent's matches are kept, their positions
moved by the merge; only matches that take an added atom are searched,
and the two are merged per rule by position. Anything else is
enumerated in full.

Targets come from the source's `state.successors`, which builds each
distinct target once and inserts the atoms of a propagation step in
order where that is exact, so steps that add the same atoms share one
target. Steps and derivations are `NamedTuple` values, cheap to build
and compared in C.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .state import CanonicalState, State, canonicalize, successors
from .syntax import Atom, Eq, Program, Rule
from .terms import FRESH_PREFIX, Subst, Term, Var, apply, iter_vars, match, rename_apart


class ReplayError(Exception):
    pass


class LabeledStep(NamedTuple):
    """A step: its rule, the store positions its kept and removed heads
    matched, and its canonical target. Compares by items, as a 4-tuple."""

    rule_name: str
    matched_kept: tuple[int, ...]
    matched_removed: tuple[int, ...]
    target: CanonicalState


class Derivation(NamedTuple):
    """A canonical source and the steps taken from it. Compares by items,
    as a 2-tuple."""

    source: CanonicalState
    steps: tuple[LabeledStep, ...] = ()

    def labels(self) -> list[str]:
        return [s.rule_name for s in self.steps]


# The instruction for one head argument: bind a variable met first, compare
# with a bound variable, compare with a ground term, match a compound. An
# instruction is (kind, argument index, operand); a head is its predicate,
# its arity and one instruction per argument.
_BIND, _BOUND, _GROUND, _MATCH = range(4)
_Op = tuple[int, int, object]
_Head = tuple[str, int, tuple[_Op, ...]]


class _Plan(NamedTuple):
    """A rule renamed apart and compiled: its heads, kept then removed, and
    the template a match instantiates. `new_vars` tells whether the user
    body holds a variable that no head holds."""

    name: str
    n_kept: int
    heads: tuple[_Head, ...]
    guard: tuple[Eq, ...]
    body: tuple[Atom, ...]
    builtins: tuple[Eq, ...]
    new_vars: bool


def _fresh_names(state: State) -> frozenset[str]:
    return frozenset(v for v in state.all_vars() if v.startswith(FRESH_PREFIX))


@lru_cache(maxsize=1024)
def _compiled(rule: Rule, fresh: frozenset[str]) -> _Plan:
    """`rule` renamed apart from a state whose fresh names are `fresh`, and
    compiled; renaming picks only fresh names, so it cannot capture any
    other. A compound's operand is the pattern and its variables bound
    before it."""
    renamed = rename_apart(set(fresh), rule)
    bound: set[str] = set()
    heads = []
    for head in renamed.heads:
        ops: list[_Op] = []
        for k, arg in enumerate(head.args):
            if isinstance(arg, Var):
                ops.append((_BOUND if arg.name in bound else _BIND, k, arg.name))
                bound.add(arg.name)
                continue
            names = dict.fromkeys(iter_vars(arg))
            if names:
                ops.append((_MATCH, k, (arg, tuple(v for v in names if v in bound))))
                bound.update(names)
            else:
                ops.append((_GROUND, k, arg))
        heads.append((head.pred, len(head.args), tuple(ops)))
    new_vars = any(v not in bound for a in renamed.user_body for v in a.iter_vars())
    return _Plan(
        renamed.name, len(renamed.kept), tuple(heads), renamed.guard,
        renamed.user_body, renamed.builtin_body, new_vars,
    )


def _match_into(ops: Sequence[_Op], args: Sequence[Term], theta: Subst) -> bool:
    """Whether one head's plan matches an atom's `args`, binding in `theta`
    the variables the head meets first. A failed match may leave some of
    them bound; no earlier head holds them, and the next try rebinds them."""
    for op, k, x in ops:
        a = args[k]
        if op == _BIND:
            theta[x] = a
        elif op == _BOUND:
            if theta[x] != a:
                return False
        elif op == _GROUND:
            if x != a:
                return False
        else:
            pattern, prior = x
            found = match(((pattern, a),))
            if found is None or any(found[v] != theta[v] for v in prior):
                return False
            theta.update(found)
    return True


def _matches(
    heads: Sequence[_Head],
    atoms: Sequence[Atom],
    theta: Subst,
    used: tuple[int, ...] = (),
    added: Optional[Sequence[int]] = None,
) -> Iterator[tuple[int, ...]]:
    """Injective assignments of heads to store positions, in lexicographic
    order, one per tuple of matched atoms: equal atoms sit side by side in a
    canonical store, and a head skips a copy whose predecessor no earlier
    head took, so each tuple comes at its first positions. `theta` holds
    the bindings of the assignment just yielded. With `added`, only those
    that take one of its positions: the last head tries only them when no
    earlier head took one."""
    (pred, arity, ops), rest = heads[0], heads[1:]
    for i in range(len(atoms)) if added is None or rest else added:
        atom = atoms[i]
        if atom.pred != pred or len(atom.args) != arity or i in used:
            continue
        if i and atom == atoms[i - 1] and i - 1 not in used:
            continue
        if not _match_into(ops, atom.args, theta):
            continue
        if rest:
            yield from _matches(
                rest, atoms, theta, used + (i,), None if added is None or i in added else added
            )
        else:
            yield used + (i,)


# What a step adds: its atoms and its built-ins.
_Body = tuple[tuple[Atom, ...], tuple[Eq, ...]]


def _body(plan: _Plan, theta: Subst) -> Optional[_Body]:
    """What the step of `plan` with the bindings `theta` adds, or None when
    its guard fails."""
    if plan.guard and any(apply(theta, e.lhs) != apply(theta, e.rhs) for e in plan.guard):
        return None
    atoms = tuple([a.subst(theta) for a in plan.body])
    builtins = plan.builtins and tuple([e.subst(theta) for e in plan.builtins])
    return atoms, builtins


def _step(
    plan: _Plan,
    pos: tuple[int, ...],
    body: _Body,
    target: Callable[..., CanonicalState],
) -> LabeledStep:
    """The step of `plan` at `pos` that adds `body`, its target built by
    the source's `successors`."""
    kept, removed = pos[:plan.n_kept], pos[plan.n_kept:]
    return LabeledStep(plan.name, kept, removed, target(removed, *body, plan.new_vars))


def fire(
    rule: Rule, state: State, pos: tuple[int, ...], fresh: Optional[frozenset[str]] = None
) -> Optional[LabeledStep]:
    """The step of `rule` with its heads, kept then removed, on the atoms of
    `state` at `pos` (distinct positions, one per head), or None when they
    do not match or the guard fails. Match positions index `state.atoms`.
    `fresh` is the state's fresh names, found by a walk over it if None."""
    plan = _compiled(rule, _fresh_names(state) if fresh is None else fresh)
    theta: Subst = {}
    for (pred, arity, ops), i in zip(plan.heads, pos):
        atom = state.atoms[i]
        if atom.pred != pred or len(atom.args) != arity or not _match_into(ops, atom.args, theta):
            return None
    body = _body(plan, theta)
    return None if body is None else _step(plan, pos, body, successors(state))


class Steps(list):
    """The steps from one state, as `applicable_steps` lists them, with what
    a call for a child needs to derive its steps from them: the program,
    the canonical source, the allowed rules (None for all), per rule of
    the program its matches that pass the guard as (positions, what the
    step adds) or None for a rule not allowed."""

    __slots__ = ("program", "source", "allowed", "fired")


def _inherited(
    parent: Optional[Steps], program: Program, cst: CanonicalState, allowed: Optional[frozenset]
) -> Optional[tuple[list[int], list[int]]]:
    """The positions of the parent's atoms among `cst`'s, matched in order
    by one merge walk that takes the first equal atom, and the positions of
    the added atoms; None when the steps of `cst` cannot be derived from
    the `parent`'s. The first-copy skip stays exact: an added atom never
    comes just before an equal atom of the parent."""
    if parent is None or parent.program is not program or parent.source.bottom:
        return None
    if cst.globals != parent.source.globals:
        return None
    if parent.allowed is not None and (allowed is None or not allowed <= parent.allowed):
        return None
    old = parent.source.atoms
    remap: list[int] = []
    added: list[int] = []
    for i, atom in enumerate(cst.atoms):
        if len(remap) < len(old) and atom == old[len(remap)]:
            remap.append(i)
        else:
            added.append(i)
    return (remap, added) if len(remap) == len(old) else None


def applicable_steps(
    program: Program,
    state: Union[State, CanonicalState],
    allowed: Optional[Iterable[str]] = None,
    parent: Optional[Steps] = None,
) -> Steps:
    """Every step from the canonical state: one per rule and per tuple of
    atoms its heads match injectively, at the first positions of equal
    atoms, by rule and then by positions. Steps on distinct atoms may still
    share a target; deduplication is the searcher's business. The
    inconsistent state is absorbing and reported as a fixpoint (no steps).
    Targets come from one `state.successors` of the canonical state: a
    propagation step from a state with no locals and no residuals costs an
    ordered insert.

    `parent` is this function's result for another state, such as one
    with a step to this one. The steps are derived from it where that is
    exact and enumerated in full otherwise; the list is the same.
    """
    cst = canonicalize(state)
    out = Steps()
    out.program, out.source, out.fired = program, cst, []
    out.allowed = allowed_set = None if allowed is None else frozenset(allowed)
    if cst.bottom:
        return out
    target = successors(cst)
    # Every variable of a canonical state that is not a global is an `L` name.
    fresh = frozenset(g for g in cst.globals if g.startswith(FRESH_PREFIX))
    derived = _inherited(parent, program, cst, allowed_set)
    remap, added = derived or (None, None)

    for r, rule in enumerate(program.rules):
        if allowed_set is not None and rule.name not in allowed_set:
            out.fired.append(None)
            continue
        plan = _compiled(rule, fresh)
        theta: Subst = {}
        fired = [
            (pos, body)
            for pos in _matches(plan.heads, cst.atoms, theta, (), added)
            if (body := _body(plan, theta)) is not None
        ]
        if derived is not None:
            kept = [(tuple([remap[i] for i in pos]), body) for pos, body in parent.fired[r]]
            fired = sorted(kept + fired, key=itemgetter(0)) if fired else kept
        out.fired.append(fired)
        out.extend([_step(plan, pos, body, target) for pos, body in fired])
    return out


def replay(program: Program, derivation: Derivation) -> CanonicalState:
    """Check a derivation against the transition relation.

    Each recorded step (rule, match positions and target) must be one of
    `applicable_steps` from the current state; otherwise the certificate
    is corrupt and ReplayError is raised.
    """
    cur = canonicalize(derivation.source)
    for i, step in enumerate(derivation.steps):
        if step not in applicable_steps(program, cur, [step.rule_name]):
            raise ReplayError(f"step {i} ({step.rule_name}) is not a step from its source")
        cur = step.target
    return cur
