"""Critical-peak generation by superposition of two rules' heads.

For every ordered rule pair, every choice of equal-sized sub-multisets
of the two heads and every bijection between them, the induced
equations plus both guards are solved; a satisfiable, non-trivial
overlap yields a peak. The solved substitution is applied throughout
and merged head variables are projected away, so peaks read the way
diagrams are usually drawn. The emitted list is deduplicated:

  * up to a bijective renaming of the peak's global variables applied
    to the whole ancestor/left/right triple,
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
from .syntax import Atom, Eq, Program, Rule, atom_text, eq_text
from .terms import Subst, Term, Var, apply, fresh_mapping, unify


@dataclass(frozen=True)
class CriticalPeak:
    rule_left: str
    rule_right: str
    ancestor: State
    left: State
    right: State
    overlap_left: tuple[int, ...]
    overlap_right: tuple[int, ...]


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


def _shape(state: State) -> tuple:
    cst = canonicalize(state)
    if cst.bottom:
        return ("<false>",)
    wild = {v: Var("_") for a in cst.atoms for v in a.iter_vars()}
    for e in cst.residuals:
        for v in e.iter_vars():
            wild[v] = Var("_")
    atoms = tuple(sorted(atom_text(a.subst(wild)) for a in cst.atoms))
    eqs = tuple(sorted(eq_text(e.subst(wild)) for e in cst.residuals))
    return (atoms, eqs)


def _peaks_equal(a: CriticalPeak, b: CriticalPeak, swap_b: bool) -> bool:
    b_left, b_right = (b.right, b.left) if swap_b else (b.left, b.right)
    ga = sorted(a.ancestor.globals)
    gb = sorted(b.ancestor.globals)
    if len(ga) != len(gb):
        return False
    if _shape(a.ancestor) != _shape(b.ancestor):
        return False
    if _shape(a.left) != _shape(b_left) or _shape(a.right) != _shape(b_right):
        return False
    anc_a = canonicalize(a.ancestor)
    left_a = canonicalize(a.left)
    right_a = canonicalize(a.right)
    for perm in itertools.permutations(ga):
        mapping: Subst = {src: Var(dst) for src, dst in zip(gb, perm)}
        if not equivalent(anc_a, b.ancestor.subst(mapping)):
            continue
        if equivalent(left_a, b_left.subst(mapping)) and equivalent(
            right_a, b_right.subst(mapping)
        ):
            return True
    return False


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
    return CriticalPeak(r1.name, r2.name, ancestor, left, right, sel1, sel2)


def critical_peaks(p: Program, q: Program) -> list[CriticalPeak]:
    """All critical peaks between `p` and `q`, deterministically ordered."""
    same_program = p == q
    out: list[CriticalPeak] = []
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
                            duplicate = False
                            for prev in out:
                                if (prev.rule_left, prev.rule_right) != (
                                    peak.rule_left,
                                    peak.rule_right,
                                ):
                                    continue
                                if _peaks_equal(prev, peak, swap_b=False):
                                    duplicate = True
                                    break
                                if same_rule and _peaks_equal(prev, peak, swap_b=True):
                                    duplicate = True
                                    break
                            if not duplicate:
                                out.append(peak)
    return out
