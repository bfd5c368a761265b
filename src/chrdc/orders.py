"""Rule partitions, finite preorders on rule names, and termination checks.

The inductive part of a program must terminate; the check uses a
deliberately simple lexicographic measure on the user store, first the
number of atoms, then the total term size. Anything the measure cannot
verify needs an explicit assumption flag, which is echoed in reports.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .syntax import Atom, Program, Rule
from .terms import term_size


class Partition(NamedTuple):
    inductive: frozenset[str]
    coinductive: frozenset[str]

    @staticmethod
    def for_program(
        program: Program,
        inductive: Optional[Iterable[str]] = None,
        coinductive: Optional[Iterable[str]] = None,
    ) -> "Partition":
        """Build a partition, filling the unspecified side with the rest.

        With neither side given, every rule is inductive.
        """
        names = set(program.rule_names())
        ind = None if inductive is None else frozenset(inductive)
        coind = None if coinductive is None else frozenset(coinductive)
        for given in (ind, coind):
            if given is not None and not given <= names:
                unknown = sorted(given - names)
                raise ValueError(f"unknown rule names in partition: {unknown}")
        if ind is None and coind is None:
            return Partition(frozenset(names), frozenset())
        if ind is None:
            ind = frozenset(names - coind)
        if coind is None:
            coind = frozenset(names - ind)
        if ind & coind:
            raise ValueError(f"rules in both parts: {sorted(ind & coind)}")
        if ind | coind != names:
            missing = sorted(names - (ind | coind))
            raise ValueError(f"rules in neither part: {missing}")
        return Partition(ind, coind)


class RulePreorder:
    """Reflexive-transitive closure of declared pairs on a finite carrier,
    kept as each element's down-set."""

    def __init__(self, carrier: Iterable[str], geq_pairs: Iterable[tuple[str, str]]):
        self.carrier = tuple(carrier)
        below = {a: {a} for a in self.carrier}
        for a, b in geq_pairs:
            below[a].add(b)
        for k in self.carrier:
            for bs in below.values():
                if k in bs:
                    bs |= below[k]
        self._down_eq = {a: frozenset(bs) for a, bs in below.items()}
        self._down_strict = {
            a: frozenset(c for c in bs if a not in below[c]) for a, bs in below.items()
        }

    @staticmethod
    def from_declarations(
        carrier: Iterable[str], declarations: Iterable[tuple[str, str, str]]
    ) -> "RulePreorder":
        """Closure of `a > b` / `a >= b` lines; a declared strict pair that
        collapses to an equivalence under closure is rejected."""
        carrier = tuple(carrier)
        names = set(carrier)
        pairs = []
        strict_wanted = []
        for a, op, b in declarations:
            for n in (a, b):
                if n not in names:
                    raise ValueError(f"unknown rule name in order: {n!r}")
            pairs.append((a, b))
            if op == ">":
                strict_wanted.append((a, b))
        order = RulePreorder(carrier, pairs)
        for a, b in strict_wanted:
            if not order.strictly_greater(a, b):
                raise ValueError(f"declared {a} > {b} but the closure makes them equivalent")
        return order

    @staticmethod
    def discrete(carrier: Iterable[str]) -> "RulePreorder":
        return RulePreorder(carrier, ())

    @staticmethod
    def from_levels(carrier: Iterable[str], level: dict[str, int]) -> "RulePreorder":
        """The total preorder `a >= b` iff `level[a] >= level[b]`. It is
        transitive already, so its down-sets are read off the level map
        without the closure loop. The order walk builds one per evaluated
        order; through `__init__` instead, the walk of
        `test_closing_order_past_the_bound_is_found` takes about five
        times as long."""
        carrier = tuple(carrier)
        eq = {lv: frozenset(b for b in carrier if level[b] <= lv) for lv in set(level.values())}
        strict = {lv: frozenset(b for b in carrier if level[b] < lv) for lv in eq}
        order = RulePreorder.__new__(RulePreorder)
        order.carrier = carrier
        order._down_eq = {a: eq[level[a]] for a in carrier}
        order._down_strict = {a: strict[level[a]] for a in carrier}
        return order

    def geq(self, a: str, b: str) -> bool:
        return b in self._down_eq[a]

    def strictly_greater(self, a: str, b: str) -> bool:
        return b in self._down_strict[a]

    def down_strict(self, keys: Iterable[str]) -> frozenset[str]:
        return frozenset().union(*(self._down_strict[k] for k in keys))

    def down_eq(self, keys: Iterable[str]) -> frozenset[str]:
        return frozenset().union(*(self._down_eq[k] for k in keys))

    def pairs_text(self) -> list[str]:
        """Strict pairs of the closure, a compact printable summary."""
        out = []
        for a in self.carrier:
            for b in self.carrier:
                if a != b and self.strictly_greater(a, b):
                    out.append(f"{a}>{b}")
        return out


class AdmissibilityResult(NamedTuple):
    ok: bool
    witness: Optional[tuple[str, str]] = None


def is_admissible(order: RulePreorder, part: Partition) -> AdmissibilityResult:
    """Every coinductive rule must sit strictly above every inductive one."""
    for rc in sorted(part.coinductive):
        for ri in sorted(part.inductive):
            if not order.strictly_greater(rc, ri):
                return AdmissibilityResult(False, (rc, ri))
    return AdmissibilityResult(True)


# The order search evaluates orders and cuts failing branches, at most this
# many of the two together; the report says `truncated` when the walk
# stopped at this bound before it was decided.
MAX_ORDERS = 10_000


# cut(position, levels so far) -> whether to drop the branch
Cut = Callable[[int, list[int]], bool]


def fubini(n: int) -> int:
    """Number of total preorders (ordered set partitions) of n elements."""
    counts = [1]
    for i in range(1, n + 1):
        counts.append(sum(math.comb(i, j) * counts[i - j] for j in range(1, i + 1)))
    return counts[n]


def _admissible_levels(
    coinductive: list[bool], k: int, cut: Optional[Cut] = None
) -> Iterator[list[int]]:
    """Surjective maps onto range(k) that put every coinductive position
    above every inductive one, in lexicographic order.

    Levels are assigned left to right; a branch is cut as soon as no
    completion exists. In a completion the inductive rules fill exactly
    the levels below some threshold t and the coinductive ones the rest,
    so a branch lives while some t fits between the levels used so far
    and leaves no more free levels on either side than rules remain.
    `cut(i, levels)` then sees each live branch once position i has its
    level, before the branch is extended or yielded, and drops the branch
    when it returns True."""
    n = len(coinductive)
    rest_co = [sum(coinductive[i:]) for i in range(n + 1)]
    rest_ind = [n - i - rest_co[i] for i in range(n + 1)]
    t_min = 1 if rest_ind[0] else 0
    t_max = k - 1 if rest_co[0] else k
    used = [0] * k
    levels: list[int] = []

    def completable(i: int, top_ind: int, bottom_co: int) -> bool:
        for t in range(max(t_min, top_ind + 1), min(t_max, bottom_co) + 1):
            if used[:t].count(0) <= rest_ind[i] and used[t:].count(0) <= rest_co[i]:
                return True
        return False

    def extend(i: int, top_ind: int, bottom_co: int) -> Iterator[list[int]]:
        if i == n:
            yield levels
            return
        for lv in range(k):
            if coinductive[i]:
                top, bottom = top_ind, min(bottom_co, lv)
            else:
                top, bottom = max(top_ind, lv), bottom_co
            used[lv] += 1
            levels.append(lv)
            if completable(i + 1, top, bottom) and (cut is None or not cut(i, levels)):
                yield from extend(i + 1, top, bottom)
            levels.pop()
            used[lv] -= 1

    yield from extend(0, -1, k)


def admissible_total_preorders(
    program: Program, part: Partition, cut: Optional[Cut] = None
) -> Iterator[RulePreorder]:
    """All admissible total preorders on the rule names, lazily, as level
    maps in lexicographic order of the level tuples for k = 0, 1, ...
    levels. An admissible order stacks a total preorder of the coinductive
    rules on one of the inductive rules, so there are Fubini(#inductive) *
    Fubini(#coinductive) of them. `cut` drops branches of the walk, with
    positions in `program.rule_names()` order (see `_admissible_levels`).

    Enumerating total preorders is complete here: any admissible preorder
    extends to a total one that preserves its strict pairs, and the
    decreasingness conditions only gain from added comparabilities.
    """
    names = program.rule_names()
    coinductive = [name in part.coinductive for name in names]
    for k in range(len(names) + 1):
        for levels in _admissible_levels(coinductive, k, cut):
            yield RulePreorder.from_levels(names, dict(zip(names, levels)))


class TerminationResult(NamedTuple):
    status: str  # VERIFIED | ASSUMED | REFUTED
    witness: Optional[str] = None

    @property
    def acceptable(self) -> bool:
        return self.status in ("VERIFIED", "ASSUMED")


def _rule_measure_decreases(rule: Rule) -> bool:
    """Strict decrease of (atom count, user-store size) for every instance."""
    removed_count = len(rule.removed)
    body_count = len(rule.user_body)
    if body_count < removed_count:
        return True
    if body_count > removed_count:
        return False
    # Equal atom count: sizes must shrink for every instantiation of the
    # head variables, and the built-in body must not rebind anything.
    if rule.builtin_body:
        return False
    head_occ, removed_occ, body_occ = (
        Counter(v for a in atoms for v in a.iter_vars())
        for atoms in (rule.heads, rule.removed, rule.user_body)
    )
    if any(v in head_occ and n > removed_occ[v] for v, n in body_occ.items()):
        return False
    return _store_size(rule.user_body) < _store_size(rule.removed)


def _store_size(atoms: Iterable[Atom]) -> int:
    """One per atom plus the sizes of its arguments."""
    return sum(1 + sum(term_size(x) for x in a.args) for a in atoms)


def check_inductive_termination(
    program: Program, part: Partition, assume_terminating: bool = False
) -> TerminationResult:
    for rule in program.rules:
        if rule.name not in part.inductive:
            continue
        if not _rule_measure_decreases(rule):
            if assume_terminating:
                return TerminationResult("ASSUMED", rule.name)
            return TerminationResult("REFUTED", rule.name)
    return TerminationResult("VERIFIED")
