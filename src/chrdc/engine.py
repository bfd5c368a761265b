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
renamed once per set of fresh names in the state and the result reused.
A head is tried only on atoms of its predicate and arity. Targets come
from the source's `state.successors`, which builds each distinct target
once and inserts the atoms of a propagation step in order where that is
exact, so steps that add the same atoms share one target. Steps and
derivations are `NamedTuple` values, cheap to build and compared in C.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .state import CanonicalState, State, canonicalize, successors
from .syntax import Atom, Program, Rule
from .terms import FRESH_PREFIX, Subst, apply, match, rename_apart


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


def _match_heads(
    heads: Sequence[Atom],
    store: Sequence[Atom],
    theta: Subst,
    used: tuple[int, ...],
) -> Iterable[tuple[tuple[int, ...], Subst]]:
    """Injective assignments of head occurrences to store positions, one
    per tuple of matched atoms: equal atoms sit side by side in a canonical
    store, and a head skips a copy whose predecessor no earlier head took,
    so each tuple comes at its lexicographically first positions."""
    if not heads:
        yield used, theta
        return
    head, rest = heads[0], heads[1:]
    pred, arity = head.pred, len(head.args)
    for i, atom in enumerate(store):
        if atom.pred != pred or len(atom.args) != arity or i in used:
            continue
        if i and atom == store[i - 1] and i - 1 not in used:
            continue
        extended = match(zip(head.args, atom.args), theta)
        if extended is None:
            continue
        if rest:
            yield from _match_heads(rest, store, extended, used + (i,))
        else:
            yield used + (i,), extended


def _match_atom(head: Atom, atom: Atom, theta: Subst) -> Optional[Subst]:
    if atom.pred != head.pred or len(atom.args) != len(head.args):
        return None
    return match(zip(head.args, atom.args), theta)


def _fresh_names(state: State) -> frozenset[str]:
    return frozenset(v for v in state.all_vars() if v.startswith(FRESH_PREFIX))


@lru_cache(maxsize=1024)
def _renamed(rule: Rule, fresh: frozenset[str]) -> tuple[Rule, bool]:
    """`rule` renamed apart from a state whose fresh names are `fresh`, and
    whether its user body holds a variable that no head holds; renaming
    picks only fresh names, so it cannot capture any other."""
    renamed = rename_apart(set(fresh), rule)
    head_vars = {v for a in renamed.heads for v in a.iter_vars()}
    return renamed, any(v not in head_vars for a in renamed.user_body for v in a.iter_vars())


def _fire(
    renamed: Rule,
    new_vars: bool,
    pos: tuple[int, ...],
    theta: Subst,
    target: Callable[..., CanonicalState],
) -> Optional[LabeledStep]:
    """The step of `renamed`, whose user body holds a variable that no head
    holds when `new_vars`, and whose heads, kept then removed, `theta`
    matches onto the source's atoms at `pos`, with its target built by the
    source's `successors`; None when the guard fails."""
    if renamed.guard and any(apply(theta, e.lhs) != apply(theta, e.rhs) for e in renamed.guard):
        return None
    n_kept = len(renamed.kept)
    atoms = tuple([a.subst(theta) for a in renamed.user_body])
    builtins = renamed.builtin_body and tuple([e.subst(theta) for e in renamed.builtin_body])
    removed = pos[n_kept:]
    target_state = target(removed, atoms, builtins, new_vars)
    return LabeledStep(renamed.name, pos[:n_kept], removed, target_state)


def fire(
    rule: Rule, state: State, pos: tuple[int, ...], fresh: Optional[frozenset[str]] = None
) -> Optional[LabeledStep]:
    """The step of `rule` with its heads, kept then removed, on the atoms of
    `state` at `pos` (distinct positions, one per head), or None when they
    do not match or the guard fails. Match positions index `state.atoms`.
    `fresh` is the state's fresh names, found by a walk over it if None."""
    renamed, new_vars = _renamed(rule, _fresh_names(state) if fresh is None else fresh)
    theta: Optional[Subst] = {}
    for head, i in zip(renamed.heads, pos):
        theta = _match_atom(head, state.atoms[i], theta)
        if theta is None:
            return None
    return _fire(renamed, new_vars, pos, theta, successors(state))


def applicable_steps(
    program: Program,
    state: Union[State, CanonicalState],
    allowed: Optional[Iterable[str]] = None,
) -> list[LabeledStep]:
    """Every step from the canonical state: one per rule and per tuple of
    atoms its heads match injectively, at the first positions of equal
    atoms. Steps on distinct atoms may still share a target; deduplication
    is the searcher's business. The inconsistent state is
    absorbing and reported as a fixpoint (no steps). Targets come from one
    `state.successors` of the canonical state: a propagation step from a
    state with no locals and no residuals costs an ordered insert.
    """
    cst = canonicalize(state)
    if cst.bottom:
        return []
    allowed_set = set(allowed) if allowed is not None else None
    source = cst.as_state()
    # Every variable of a canonical state that is not a global is an `L` name.
    fresh = frozenset(g for g in cst.globals if g.startswith(FRESH_PREFIX))
    target = successors(cst)

    out: list[LabeledStep] = []
    for rule in program.rules:
        if allowed_set is not None and rule.name not in allowed_set:
            continue
        renamed, new_vars = _renamed(rule, fresh)
        for pos, theta in _match_heads(renamed.heads, source.atoms, {}, ()):
            step = _fire(renamed, new_vars, pos, theta, target)
            if step is not None:
                out.append(step)
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
