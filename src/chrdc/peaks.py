"""Critical-peak generation by superposition of two rules' heads.

Each rule pair whose heads share a predicate and arity is renamed apart
once; any other pair has no overlap. An overlap that keeps every head on
both sides is no peak, as both steps leave the ancestor whole, so a pair
of rules that both remove nothing is skipped too. A backtracking
enumerator (`_overlaps`) pairs heads one to one, only within a predicate
and arity. It solves both guards once and extends the solved form of a
branch's prefix by each head pair it places (`unify`'s `solved`), ending
a branch at its first clash. Overlaps come in the order of a plain walk
over sizes, subsets and bijections, which tactic selectors and peak
indices depend on. A satisfiable, non-trivial overlap gives the
ancestor: the instantiated heads, whose variables are the globals A, B,
... (a guard variable that no head holds is never in it, or that rule
could not fire). Each atom is substituted once, by the unifier composed
with the naming of the globals. The reducts are the engine's steps of
the two rules from it (`engine.fire`); if either rule does not fire,
there is no peak.

An overlap is dropped before firing when an earlier one of the rule pair
had the same ancestor atoms and, for each rule, matched the same atoms by
value: its reducts are the same. A self-overlap whose two sides match the
same atoms (read off the unifier before the ancestor is built) or give
equal reducts is trivially joinable and dropped. The
rest are deduplicated up to one bijective renaming of the globals across
the whole ancestor/left/right triple, and for a rule with itself up to
mirror images too (the analyses are symmetric in the two sides). A peak
gets its key (`_peak_key`) only when a peak kept before it has its shape
(`_shape`), a cheap invariant of the key built on plain tuples. The key
is the ancestor's canonical form with both reducts renamed by its
labelling when that labelling is its only one, else one canonical
labelling of all three states read together.

Overlaps that a symmetry maps onto earlier ones are left out before
their ancestor is built, the lex-leader rule of symmetry breaking
(Crawford, Ginsberg, Luks and Roy, KR 1996). For a rule with itself,
the mirror of an overlap reads its head pairs from the other copy,
`sorted(zip(sel2, sel1))`. A head swap of a rule (`_head_swaps`, found
once per rule) is a pair of its heads, both kept or both removed and of
one predicate and arity, with a bijective renaming of the head
variables (variables that no head holds stay fixed) that maps the heads
onto the heads with those two exchanged, the guard and the built-in
body onto themselves as sets of unordered equations, and the user body
onto itself as a multiset. An overlap is left out when its mirror or
its image under one swap of either rule comes earlier in `_overlaps`'
order. This is exact. The two copies are one rule renamed apart, so
exchanging their variables maps an overlap's equations, with both
guards, onto its mirror's; the mirror's ancestor is the overlap's with
the globals renamed and atoms reordered, and its reducts are the
overlap's exchanged, which a self peak's key does not tell apart. A
swap's renaming likewise maps the overlap's equations onto the earlier
one's, and since it maps its rule onto itself, each rule fires on the
same atoms, kept or removed alike, to the same reducts up to that
renaming. Either way the earlier overlap gives a peak with the same
key, which deduplication has met before the left-out overlap comes, or
no peak, and then neither does the left-out one. An earlier overlap
that is itself left out, or dropped for the atoms of one before it,
passes this on to one earlier still, and an overlap missing from the
`seen` set only costs a later one its firing.

The swaps are decided on prefixes inside `_overlaps`' walk, as in
orderly generation (McKay, *Isomorph-free exhaustive generation*, J.
Algorithms 26, 1998): the branch that places head k of a swap (h, k),
h < k, is cut before it is unified when, for a swap of the first rule,
h was passed over or is partnered with a later head than k is, or, for
a swap of the second rule, h is not yet placed. The first rule's heads
are placed in increasing order, so at that point the prefix fixes
everything the whole-overlap test reads, and each overlap in a cut
branch is one that the swap maps onto an earlier overlap: a cut branch
holds no overlap that is first in its orbit. Conversely, each overlap
that a swap maps onto an earlier one places k under such a prefix. The
mirror reads the whole selection and is tested on each overlap listed.
So the peaks, their order and their ancestors are those of the unpruned
walk. A rule whose only symmetries are longer cycles of heads is left
unpruned.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterator, NamedTuple, Sequence

from .engine import fire
from .orders import Partition
from .state import CanonicalState, State, _canonical_renaming, canonicalize
from .syntax import Atom, Program, Rule
from .terms import (
    Subst, Term, Var, apply, fresh_mapping, iter_vars, match, rename_apart, unify,
)


class CriticalPeak(NamedTuple):
    """One critical peak. Compares by items, as a 5-tuple."""

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
    """A, ..., Z, AA, ..., ZZ, AAA, ...: bijective base 26."""
    name = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        name = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"[r] + name
    return name


@lru_cache(maxsize=None)
def _global(i: int) -> Var:
    """The ancestor's global variable number `i`."""
    return Var(_spreadsheet_name(i))


def _peak_key(peak: CriticalPeak, symmetric: bool) -> tuple:
    """The peak's canonical form up to one renaming of the globals of all
    three states, and with `symmetric` up to swapping the reducts too.

    When the ancestor's canonical labelling is its only one, the renaming
    between two peaks with one ancestor form is fixed, so the key is that
    form plus both reducts renamed by the labelling. Otherwise all three
    states are read as one with no globals: a marker atom per global and
    per reduct, ancestor atoms tagged `0#`, reduct atoms tagged `1#` and
    led by their reduct's marker variable (one marker for both reducts
    when `symmetric`), locals renamed apart. No user predicate meets a
    marker, whose name has no digit before the `#`. `unify` names a
    residual variable class by its smallest member, which a renaming need
    not keep, so each member is bound to one fresh variable of the class
    instead."""
    ancestor = peak.ancestor
    renaming, unique = _canonical_renaming(list(ancestor.atoms), [], frozenset())
    if unique:
        # The prefix keeps the labels apart from the reducts' own locals.
        renaming = {v: Var("#" + t.name) for v, t in renaming.items()}
        reducts = [canonicalize(r.as_state().subst(renaming)) for r in (peak.left, peak.right)]
        form = tuple(sorted(a.subst(renaming) for a in ancestor.atoms))
        return form, frozenset(reducts) if symmetric else tuple(reducts)
    globs = sorted(ancestor.globals)
    atoms = [Atom("#global", (Var(g),)) for g in globs]
    atoms.extend(Atom(f"0#{a.pred}", a.args) for a in ancestor.atoms)
    avoid = set(globs)
    sides = fresh_mapping(avoid, ["left", "right"])
    avoid.update(v.name for v in sides.values())
    for name, c in (("left", peak.left), ("right", peak.right)):
        side = sides[name]
        atoms.append(Atom("#side" if symmetric else f"#{name}", (side,)))
        if c.bottom:
            atoms.append(Atom("#false", (side,)))
            continue
        classes: dict[str, list[str]] = {}
        for e in c.residuals:
            if isinstance(e.rhs, Var):
                classes.setdefault(e.rhs.name, [e.rhs.name]).append(e.lhs.name)
        names = [v for x in (*c.atoms, *c.residuals) for v in x.iter_vars()]
        ren = fresh_mapping(avoid, [v for v in names if v not in c.globals] + list(classes))
        avoid.update(v.name for v in ren.values())
        for rep, members in classes.items():
            atoms.extend(Atom("#=", (side, Var(m), ren[rep])) for m in members)
        atoms.extend(Atom(f"1#{a.pred}", (side, *a.subst(ren).args)) for a in c.atoms)
        atoms.extend(
            Atom("#=", (side, e.lhs, apply(ren, e.rhs)))
            for e in c.residuals
            if not isinstance(e.rhs, Var)
        )
    return canonicalize(State(tuple(atoms), (), frozenset()))


def _head_vars(c1: Rule, c2: Rule) -> tuple[str, ...]:
    """The variables of both rules' heads, in order of first occurrence."""
    return tuple(dict.fromkeys(v for a in c1.heads + c2.heads for v in a.iter_vars()))


def _overlaps(
    c1: Rule, c2: Rule, swaps1: _Swaps = (), swaps2: _Swaps = (), mirror: bool = False
) -> list[tuple[tuple[int, ...], tuple[int, ...], Subst]]:
    """Every overlap of two rules renamed apart whose equations, with both
    guards, unify: heads `sel1` of `c1` paired one to one with heads `sel2`
    of `c2`, and the unifier, which names each variable class by a head
    variable where it holds one. Heads pair only within a predicate and
    arity, and a branch ends at its first clash. Ordered by size, `sel1`,
    `sorted(sel2)`, then `sel2`, as a walk over equal-sized subsets and
    their bijections would meet them. The guards are solved once, and each
    branch extends the unifier of its prefix by the head pair it places.

    Leaves out each overlap that a head swap of `c1` (`swaps1`) or of
    `c2` (`swaps2`) maps onto an earlier one, cutting its branch where
    head k of a swap (h, k) is placed, and with `mirror`, for a rule with
    itself, each overlap whose mirror image is earlier."""
    heads1, heads2 = c1.heads, c2.heads
    keep = frozenset(_head_vars(c1, c2))
    guards = [(g.lhs, g.rhs) for g in c1.guard + c2.guard]
    solved = unify(guards, keep) if guards else {}
    if solved is None:
        return []
    found: list[tuple[tuple, Subst]] = []

    def extend(start: int, sel1: tuple[int, ...], sel2: tuple[int, ...], solved: Subst) -> None:
        for i in range(start, len(heads1)):
            a1 = heads1[i]
            for j, a2 in enumerate(heads2):
                if j in sel2 or a2.pred != a1.pred or len(a2.args) != len(a1.args):
                    continue
                # A swap (h, k) maps every overlap below placing head k at j
                # onto an earlier one: for `c1` when head h was passed over
                # or partners a head after j, for `c2` when h is not placed.
                if any(k == i and (h not in sel1 or j < sel2[sel1.index(h)]) for h, k in swaps1):
                    continue
                if any(k == j and h not in sel2 for h, k in swaps2):
                    continue
                sigma = unify(zip(a1.args, a2.args), keep, solved)
                if sigma is None:
                    continue
                s1, s2 = sel1 + (i,), sel2 + (j,)
                order = (s1, tuple(sorted(s2)), s2)
                # The mirror pairs the same heads, read from the second copy.
                if not mirror or (order[1], s1, tuple(t for _, t in sorted(zip(s2, s1)))) >= order:
                    found.append(((len(s1), *order), sigma))
                extend(i + 1, s1, s2, sigma)

    extend(0, (), (), solved)
    found.sort(key=lambda f: f[0])
    return [(order[1], order[3], sigma) for order, sigma in found]


def _ancestor(
    c1: Rule,
    c2: Rule,
    sel1: tuple[int, ...],
    sel2: tuple[int, ...],
    sigma: Subst,
    head_vars: Sequence[str],
) -> tuple[State, tuple[int, ...], tuple[int, ...]]:
    """The ancestor of one overlap with unifier `sigma`, and the positions
    of its atoms that the heads of `c1` and of `c2` match; `head_vars` is
    `_head_vars(c1, c2)`. Each atom is substituted once, through `sigma`
    composed with the naming of the globals."""
    heads1, heads2 = c1.heads, c2.heads
    names = {g: _global(i) for i, g in enumerate([v for v in head_vars if v not in sigma])}
    through = {v: apply(names, t) for v, t in sigma.items()}
    through.update(names)
    unshared = [j for j in range(len(heads2)) if j not in sel2]
    ancestor = State(
        tuple(a.subst(through) for a in heads1 + tuple(heads2[j] for j in unshared)),
        (),
        frozenset(v.name for v in names.values()),
    )
    pos2 = dict(zip(sel2, sel1))
    pos2.update((j, len(heads1) + k) for k, j in enumerate(unshared))
    return ancestor, tuple(range(len(heads1))), tuple(pos2[j] for j in range(len(heads2)))


def _rule_pairs(p: Program, q: Program) -> Iterator[tuple[Rule, Rule, bool]]:
    """Each rule pair that shares a head predicate and arity and in which
    a rule removes a head, renamed apart, and whether it is a rule with
    itself. One program object passed as both asks for self peaks: each
    unordered pair once."""
    same_program = p is q
    for i1, r1 in enumerate(p.rules):
        c1 = rename_apart(set(), r1)
        avoid = set(c1.variables())
        preds = {(a.pred, len(a.args)) for a in r1.heads}
        for i2, r2 in enumerate(q.rules):
            if same_program and i2 < i1 or r1.is_propagation and r2.is_propagation:
                continue
            if any((a.pred, len(a.args)) in preds for a in r2.heads):
                yield c1, rename_apart(avoid, r2), same_program and i1 == i2


# Pairs of head positions, as `_head_swaps` finds them.
_Swaps = Sequence[tuple[int, int]]


def _head_swaps(rule: Rule) -> _Swaps:
    """The pairs of heads, both kept or both removed and of one predicate
    and arity, whose swap with a bijective renaming of the head variables
    maps `rule` onto itself: heads onto heads, the guard and the built-in
    body onto themselves as sets of unordered equations, the user body
    onto itself as a multiset. Variables that no head holds stay fixed."""

    def rest(r: Rule) -> tuple:
        unordered = [{frozenset(e) for e in eqs} for eqs in (r.guard, r.builtin_body)]
        return unordered, sorted(r.user_body)

    heads, n_kept = rule.heads, len(rule.kept)
    swaps = []
    for i, j in combinations(range(len(heads)), 2):
        a, b = heads[i], heads[j]
        if (i < n_kept) != (j < n_kept) or a.pred != b.pred or len(a.args) != len(b.args):
            continue
        image = list(heads)
        image[i], image[j] = b, a
        # A renaming that maps the heads onto the heads is onto their
        # variables, so it is bijective.
        pi = match((s, t) for h, g in zip(heads, image) for s, t in zip(h.args, g.args))
        if pi is None or not all(isinstance(t, Var) for t in pi.values()):
            continue
        if rest(rule.subst(pi)) == rest(rule):
            swaps.append((i, j))
    return swaps


def _candidates(
    c1: Rule, c2: Rule, same_rule: bool, swaps1: _Swaps, swaps2: _Swaps
) -> Iterator[CriticalPeak]:
    """The peaks of one rule pair in order, before key deduplication;
    `swaps1` and `swaps2` are the rules' head swaps."""
    n_kept1, n_kept2 = len(c1.kept), len(c2.kept)
    head_vars = _head_vars(c1, c2)
    # A rule with itself: each head variable of the first copy and its
    # image in the second, which hold their heads' variables in one order.
    n = len(head_vars) // 2
    twins = [(Var(x), Var(y)) for x, y in zip(head_vars[:n], head_vars[n:])] if same_rule else ()
    seen: set[tuple] = set()
    for sel1, sel2, sigma in _overlaps(c1, c2, swaps1, swaps2, same_rule):
        if all(i < n_kept1 for i in sel1) and all(j < n_kept2 for j in sel2):
            continue
        # The unifier arrives oriented, so the two sides of a self-overlap
        # match the same atoms exactly when its heads agree under it, that
        # is when each head variable and its image do.
        if same_rule and all(sigma.get(x.name, x) == sigma.get(y.name, y) for x, y in twins):
            continue
        ancestor, pos1, pos2 = _ancestor(c1, c2, sel1, sel2, sigma, head_vars)
        matched = tuple(ancestor.atoms[i] for i in pos1), tuple(ancestor.atoms[j] for j in pos2)
        overlap = tuple(sorted(ancestor.atoms)), tuple(sorted(matched)) if same_rule else matched
        if overlap in seen:
            continue
        seen.add(overlap)
        # The ancestor's variables are its globals A, B, ..., none of them fresh.
        left, right = fire(c1, ancestor, pos1, frozenset()), fire(c2, ancestor, pos2, frozenset())
        if left is None or right is None or (same_rule and left.target == right.target):
            continue
        yield CriticalPeak(c1.name, c2.name, ancestor, left.target, right.target)


# A variable of a reduct in `_shape`: unlike every term, its first item
# is not a functor, which is never empty.
_BLANK = ("",)


def _plain(terms: Sequence[Term], marks: dict[str, tuple]) -> tuple:
    """`terms` as plain tuples, each variable replaced by its mark in
    `marks`, or by `_BLANK` when it has none."""
    return tuple([
        marks.get(t.name, _BLANK) if isinstance(t, Var)
        else (t.functor, _plain(t.args, marks)) if t.args else t
        for t in terms
    ])


def _shape(peak: CriticalPeak, symmetric: bool) -> tuple:
    """A cheap invariant of `_peak_key`, on plain tuples: the ancestor's
    atoms with each variable replaced by the argument places it occurs
    at, and each reduct's atoms and residuals with every variable blanked
    out, the reducts unordered when `symmetric`. Peaks with equal keys
    have equal shapes."""
    atoms = peak.ancestor.atoms
    places: dict[str, list[tuple[str, int]]] = {}
    for a in atoms:
        for k, t in enumerate(a.args):
            for v in iter_vars(t):
                places.setdefault(v, []).append((a.pred, k))
    # A mark's first item is empty, so no term equals it or sorts with it.
    marks = {v: ("", tuple(sorted(p))) for v, p in places.items()}
    ancestor = sorted([(a.pred, _plain(a.args, marks)) for a in atoms])
    reducts = tuple(
        (c.bottom, tuple(sorted(
            [(a.pred, _plain(a.args, {})) for a in c.atoms]
            + [("=", _plain(e, {})) for e in c.residuals]
        )))
        for c in (peak.left, peak.right)
    )
    return tuple(ancestor), frozenset(reducts) if symmetric else reducts


def critical_peaks(p: Program, q: Program) -> list[CriticalPeak]:
    """All critical peaks between `p` and `q`, deterministically ordered.
    Self peaks are asked for by passing one program object as both. A peak
    gets a key only when a peak kept before it has its shape."""
    # Head swaps are pairs of head positions, which renaming apart keeps,
    # so each rule's are found once, by its name within its program.
    swaps_p = {r.name: _head_swaps(r) for r in p.rules}
    swaps_q = swaps_p if p is q else {r.name: _head_swaps(r) for r in q.rules}
    out: list[CriticalPeak] = []
    for c1, c2, same_rule in _rule_pairs(p, q):
        first: dict[tuple, CriticalPeak] = {}
        keys: dict[tuple, set[tuple]] = {}
        for peak in _candidates(c1, c2, same_rule, swaps_p[c1.name], swaps_q[c2.name]):
            shape = _shape(peak, same_rule)
            if shape not in first:
                first[shape] = peak
                out.append(peak)
                continue
            if shape not in keys:
                keys[shape] = {_peak_key(first[shape], same_rule)}
            key = _peak_key(peak, same_rule)
            if key not in keys[shape]:
                keys[shape].add(key)
                out.append(peak)
    return out
