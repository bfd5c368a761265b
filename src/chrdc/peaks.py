"""Critical-peak generation by superposition of two rules' heads.

Each rule pair is renamed apart once. For every choice of equal-sized
sub-multisets of the two heads and every bijection between them, the
induced equations plus both guards are solved. A satisfiable, non-trivial
overlap gives the ancestor: the instantiated heads, whose remaining head
variables are the globals A, B, ... The reducts are the engine's steps of
the two rules from it (`engine.fire`); if either rule does not fire, there
is no peak. The emitted list is deduplicated by a set of canonical peak
keys (`_peak_key`), one lookup per peak:

  * peaks equal up to one bijective renaming of their globals across
    the whole ancestor/left/right triple are kept once,
  * mirror images are collapsed when one program object is analyzed
    against itself (the analyses are symmetric in the two sides), and
  * self-overlaps of a rule with itself whose reducts are already
    equivalent are discharged as trivially joinable and dropped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .engine import fire
from .orders import Partition
from .state import CanonicalState, State, canonicalize, _orient
from .syntax import Atom, Program, Rule
from .terms import Term, Var, apply, compose, fresh_mapping, rename_apart, unify


@dataclass(frozen=True)
class CriticalPeak:
    rule_left: str
    rule_right: str
    ancestor: State
    left: CanonicalState
    right: CanonicalState


def classify(peak: CriticalPeak, partition: Partition) -> str:
    if peak.rule_left in partition.coinductive or peak.rule_right in partition.coinductive:
        return "coinductive"
    return "inductive"


def _spreadsheet_name(i: int) -> str:
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    if i < 26:
        return letters[i]
    return letters[i // 26 - 1] + letters[i % 26]


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


def _build_peak(
    c1: Rule, c2: Rule, sel1: tuple[int, ...], sel2: tuple[int, ...]
) -> Optional[CriticalPeak]:
    """Peak for one overlap choice of two rules renamed apart, or None when
    the equations clash or either rule does not fire on the overlap."""
    heads1, heads2 = c1.heads, c2.heads
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

    head_vars = dict.fromkeys(v for a in heads1 + heads2 for v in a.iter_vars())
    sigma = _orient(sigma, frozenset(head_vars))
    names = {
        g: Var(_spreadsheet_name(i)) for i, g in enumerate(v for v in head_vars if v not in sigma)
    }
    sigma = compose(sigma, names)
    unshared = [j for j in range(len(heads2)) if j not in sel2]
    ancestor = State(
        tuple(a.subst(sigma) for a in heads1 + tuple(heads2[j] for j in unshared)),
        (),
        frozenset(v.name for v in names.values()),
    )
    pos2 = dict(zip(sel2, sel1))
    pos2.update((j, len(heads1) + k) for k, j in enumerate(unshared))
    left = fire(c1, ancestor, tuple(range(len(heads1))))
    right = fire(c2, ancestor, tuple(pos2[j] for j in range(len(heads2))))
    if left is None or right is None:
        return None
    return CriticalPeak(c1.name, c2.name, ancestor, left.target, right.target)


def critical_peaks(p: Program, q: Program) -> list[CriticalPeak]:
    """All critical peaks between `p` and `q`, deterministically ordered.
    Self peaks are asked for by passing one program object as both."""
    same_program = p is q
    out: list[CriticalPeak] = []
    seen: set[tuple] = set()
    for i1, r1 in enumerate(p.rules):
        c1 = rename_apart(set(), r1)
        for i2, r2 in enumerate(q.rules):
            if same_program and i2 < i1:
                continue
            c2 = rename_apart(set(c1.variables()), r2)
            same_rule = same_program and i1 == i2
            n1, n2 = len(c1.heads), len(c2.heads)
            for size in range(1, min(n1, n2) + 1):
                for sel1 in itertools.combinations(range(n1), size):
                    for sel2_base in itertools.combinations(range(n2), size):
                        for sel2 in itertools.permutations(sel2_base):
                            trivial = all(i < len(c1.kept) for i in sel1) and all(
                                j < len(c2.kept) for j in sel2
                            )
                            if trivial:
                                continue
                            peak = _build_peak(c1, c2, sel1, sel2)
                            if peak is None:
                                continue
                            if same_rule and peak.left == peak.right:
                                continue
                            key = _peak_key(peak)
                            if key in seen or (same_rule and _peak_key(peak, True) in seen):
                                continue
                            seen.add(key)
                            out.append(peak)
    return out
