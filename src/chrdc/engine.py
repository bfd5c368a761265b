"""Labeled transition relation, derivations and their replay.

A step fires a rule on a canonical state: the rule is renamed apart,
its head atoms are matched injectively onto distinct store positions
(binding rule variables only), guard equations must be syntactically
satisfied after matching, and the target adjoins the body. Propagation
rules re-fire on their own output; no token store is kept, so the
relation is faithfully the abstract one and derivations can loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .state import CanonicalState, State, canonicalize
from .syntax import Atom, Program, Rule
from .terms import Subst, apply, fresh_mapping, match


class ReplayError(Exception):
    pass


@dataclass(frozen=True)
class LabeledStep:
    rule_name: str
    matched_kept: tuple[int, ...]
    matched_removed: tuple[int, ...]
    target: CanonicalState


@dataclass(frozen=True)
class Derivation:
    source: CanonicalState
    steps: tuple[LabeledStep, ...] = ()

    def labels(self) -> list[str]:
        return [s.rule_name for s in self.steps]

    def extend(self, step: LabeledStep) -> "Derivation":
        return Derivation(self.source, self.steps + (step,))


def _match_heads(
    heads: Sequence[Atom],
    store: Sequence[Atom],
    theta: Subst,
    used: tuple[int, ...],
) -> Iterable[tuple[tuple[int, ...], Subst]]:
    """All injective assignments of head occurrences to store positions."""
    if not heads:
        yield used, theta
        return
    head = heads[0]
    for i, atom in enumerate(store):
        if i in used or atom.pred != head.pred or len(atom.args) != len(head.args):
            continue
        extended = match(zip(head.args, atom.args), theta)
        if extended is None:
            continue
        yield from _match_heads(heads[1:], store, extended, used + (i,))


def _step_for(
    renamed: Rule,
    cst: CanonicalState,
    kept_pos: tuple[int, ...],
    removed_pos: tuple[int, ...],
    theta: Subst,
) -> LabeledStep:
    removed = set(removed_pos)
    atoms = [a for i, a in enumerate(cst.atoms) if i not in removed]
    atoms += [a.subst(theta) for a in renamed.user_body]
    builtins = cst.residuals + tuple(e.subst(theta) for e in renamed.builtin_body)
    target = canonicalize(State(tuple(atoms), builtins, cst.globals))
    return LabeledStep(renamed.name, kept_pos, removed_pos, target)


def applicable_steps(
    program: Program,
    state: Union[State, CanonicalState],
    allowed: Optional[Iterable[str]] = None,
) -> list[LabeledStep]:
    """Every (rule, injective head match) step from the canonical state.

    Duplicate store atoms yield distinct steps with equivalent targets;
    deduplication is the searcher's business. The inconsistent state is
    absorbing and reported as a fixpoint (no steps).
    """
    cst = canonicalize(state)
    if cst.bottom:
        return []
    allowed_set = set(allowed) if allowed is not None else None
    avoid = cst.as_state().all_vars()

    out: list[LabeledStep] = []
    for rule in program.rules:
        if allowed_set is not None and rule.name not in allowed_set:
            continue
        renamed = rule.subst(fresh_mapping(avoid, rule.variables()))
        n_kept = len(renamed.kept)
        for pos, theta in _match_heads(renamed.kept + renamed.removed, cst.atoms, {}, ()):
            guard_ok = all(
                apply(theta, e.lhs) == apply(theta, e.rhs) for e in renamed.guard
            )
            if not guard_ok:
                continue
            out.append(
                _step_for(renamed, cst, pos[:n_kept], pos[n_kept:], theta)
            )
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
