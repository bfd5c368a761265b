"""Critical-peak generation by superposition of two rules' heads.

For every ordered rule pair, every choice of equal-sized sub-multisets
of the two heads and every bijection between them, the induced
equations plus both guards are solved; a satisfiable, non-trivial
overlap yields a peak. The solved substitution is applied throughout
and merged head variables are projected away, so peaks read the way
diagrams are usually drawn. The emitted list is deduplicated by a set
of canonical peak keys (`_peak_key`), one lookup per peak:

  * peaks equal up to one bijective renaming of their globals across
    the whole ancestor/left/right triple are kept once,
  * mirror images are collapsed when analyzing a program against
    itself (the analyses are symmetric in the two sides), and
  * self-overlaps of a rule with itself whose reducts are already
    equivalent are discharged as trivially joinable and dropped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .orders import Partition
from .state import State, canonicalize, equivalent, _orient
from .syntax import Atom, Eq, Program, Rule
from .terms import Subst, Term, Var, apply, fresh_mapping, unify


@dataclass(frozen=True)
class CriticalPeak:
    rule_left: str
    rule_right: str
    ancestor: State
    left: State
    right: State


def classify(peak: CriticalPeak, partition: Partition) -> str:
    if peak.rule_left in partition.coinductive or peak.rule_right in partition.coinductive:
        return "coinductive"
    return "inductive"


def _spreadsheet_name(i: int) -> str:
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    if i < 26:
        return letters[i]
    return letters[i // 26 - 1] + letters[i % 26]


def _cosmetic_rename(globals_order: list[str], states: list[State]) -> list[State]:
    mapping: Subst = {
        g: Var(_spreadsheet_name(i)) for i, g in enumerate(globals_order)
    }
    return [s.subst(mapping) for s in states]


def _peak_key(peak: CriticalPeak, swap: bool = False) -> tuple:
    """The peak's canonical form up to one renaming of the globals of all
    three states: atoms tagged by state (left and right swap for the
    mirror), locals renamed apart, a marker atom per global, all read with
    no globals. `_orient` names a residual variable class by its smallest
    member, which a renaming need not keep, so each member is bound to
    one fresh variable of the class instead."""
    parts = [peak.ancestor, peak.right, peak.left] if swap else [
        peak.ancestor, peak.left, peak.right
    ]
    globs = sorted(peak.ancestor.globals)
    atoms = [Atom("#global", (Var(g),)) for g in globs]
    avoid = set(globs)
    for i, part in enumerate(parts):
        c = canonicalize(part)
        if c.bottom:
            atoms.append(Atom(f"{i}#false"))
            continue
        classes: dict[str, list[str]] = {}
        for e in c.residuals:
            if isinstance(e.rhs, Var):
                classes.setdefault(e.rhs.name, [e.rhs.name]).append(e.lhs.name)
        names = [v for x in (*c.atoms, *c.residuals) for v in x.iter_vars()]
        ren = fresh_mapping(avoid, [v for v in names if v not in c.globals] + list(classes))
        avoid.update(v.name for v in ren.values())
        for rep, members in classes.items():
            atoms.extend(Atom(f"{i}#=", (Var(m), ren[rep])) for m in members)
        atoms.extend(Atom(f"{i}#{a.pred}", a.subst(ren).args) for a in c.atoms)
        atoms.extend(
            Atom(f"{i}#=", (e.lhs, apply(ren, e.rhs)))
            for e in c.residuals
            if not isinstance(e.rhs, Var)
        )
    return (peak.rule_left, peak.rule_right, canonicalize(State(tuple(atoms), (), frozenset())))


def _rule_fires_after(rule_copy: Rule, sigma: Subst, taken: set[str]) -> bool:
    """Mirror of the engine's guard check on the instantiated ancestor.

    The matcher binds only variables occurring in the heads; other guard
    variables stay fresh, so a guard that needs them bound can never be
    syntactically entailed and the overlap yields no realizable step.
    """
    head_vars = {v for a in rule_copy.kept + rule_copy.removed for v in a.iter_vars()}
    guard_vars: dict[str, None] = {}
    for g in rule_copy.guard:
        for v in g.iter_vars():
            if v not in head_vars:
                guard_vars.setdefault(v)
    freshen = fresh_mapping(taken | head_vars, list(guard_vars))
    theta = {v: sigma[v] for v in head_vars if v in sigma}
    for g in rule_copy.guard:
        lhs = apply(theta, apply(freshen, g.lhs))
        rhs = apply(theta, apply(freshen, g.rhs))
        if lhs != rhs:
            return False
    return True


def _build_peak(
    r1: Rule, r2: Rule, sel1: tuple[int, ...], sel2: tuple[int, ...]
) -> Optional[CriticalPeak]:
    """Peak for one overlap choice, or None when the equations clash."""
    avoid: set[str] = set()
    ren1 = fresh_mapping(avoid, r1.variables())
    avoid.update(v.name for v in ren1.values())
    ren2 = fresh_mapping(avoid, r2.variables())
    c1 = r1.subst(ren1)
    c2 = r2.subst(ren2)
    heads1 = c1.kept + c1.removed
    heads2 = c2.kept + c2.removed

    pairs: list[tuple[Term, Term]] = []
    for i, j in zip(sel1, sel2):
        a1, a2 = heads1[i], heads2[j]
        if a1.pred != a2.pred or len(a1.args) != len(a2.args):
            return None
        pairs.extend(zip(a1.args, a2.args))
    for g in c1.guard + c2.guard:
        pairs.append((g.lhs, g.rhs))
    sigma = unify(pairs)
    if sigma is None:
        return None

    head_vars: dict[str, None] = {}
    for a in heads1 + heads2:
        for v in a.iter_vars():
            head_vars.setdefault(v)
    xbar = frozenset(head_vars)
    sigma = _orient(sigma, xbar)
    taken = set(c1.variables()) | set(c2.variables())
    if not (_rule_fires_after(c1, sigma, taken) and _rule_fires_after(c2, sigma, taken)):
        return None
    globals_order = [v for v in head_vars if v not in sigma]

    sel1_set = set(sel1)
    sel2_set = set(sel2)
    h1_delta = [heads1[i] for i in range(len(heads1)) if i not in sel1_set]
    h1_cap = [heads1[i] for i in sel1]
    h2_delta = [heads2[j] for j in range(len(heads2)) if j not in sel2_set]

    def inst(atoms) -> tuple[Atom, ...]:
        return tuple(a.subst(sigma) for a in atoms)

    def inst_eqs(eqs) -> tuple[Eq, ...]:
        return tuple(e.subst(sigma) for e in eqs)

    globs = frozenset(globals_order)
    ancestor = State(inst(h1_delta + h1_cap + h2_delta), (), globs)
    left = State(
        inst(list(c1.kept) + list(c1.user_body) + h2_delta),
        inst_eqs(c1.builtin_body),
        globs,
    )
    right = State(
        inst(list(c2.kept) + list(c2.user_body) + h1_delta),
        inst_eqs(c2.builtin_body),
        globs,
    )
    ancestor, left, right = _cosmetic_rename(globals_order, [ancestor, left, right])
    return CriticalPeak(r1.name, r2.name, ancestor, left, right)


def critical_peaks(p: Program, q: Program) -> list[CriticalPeak]:
    """All critical peaks between `p` and `q`, deterministically ordered."""
    same_program = p == q
    out: list[CriticalPeak] = []
    seen: set[tuple] = set()
    for i1, r1 in enumerate(p.rules):
        for i2, r2 in enumerate(q.rules):
            if same_program and i2 < i1:
                continue
            same_rule = same_program and i1 == i2
            n1 = len(r1.kept) + len(r1.removed)
            n2 = len(r2.kept) + len(r2.removed)
            for size in range(1, min(n1, n2) + 1):
                for sel1 in itertools.combinations(range(n1), size):
                    for sel2_base in itertools.combinations(range(n2), size):
                        for sel2 in itertools.permutations(sel2_base):
                            trivial = all(i < len(r1.kept) for i in sel1) and all(
                                j < len(r2.kept) for j in sel2
                            )
                            if trivial:
                                continue
                            peak = _build_peak(r1, r2, sel1, sel2)
                            if peak is None:
                                continue
                            if same_rule and equivalent(peak.left, peak.right):
                                continue
                            key = _peak_key(peak)
                            if key in seen or (same_rule and _peak_key(peak, True) in seen):
                                continue
                            seen.add(key)
                            out.append(peak)
    return out
