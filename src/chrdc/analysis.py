"""Joinability search, the decreasing-diagram pattern, and the four criteria.

A closing of a peak is searched by a bidirectional bounded BFS from
the two reducts. Each side is a program and a small trace automaton
that constrains the labels a closing may use, so invalid reductions are
pruned instead of post-filtered. Each criterion builds its own pair of
sides with `capped` and `star` and hands it to `join_search`:

  * local       any number of steps on each side,
  * strong      at most one step on each side,
  * decreasing  any number of inductive steps on an inductive peak; on a
                coinductive peak the decreasing-diagram shape (`star`):
                labels split into a prefix strictly below the peak's own
                label, at most one label below-or-equal the opposite
                label, and a tail strictly below one of the two,
  * modular     steps of one program on the left, at most one step of
                the other program on the right,
  * tactics     user-supplied label sequences (`trie`), tried first.

Certificates are deterministic: the valley with the smallest combined
length wins. Each (state, phase) of a side keeps the first derivation
the breadth-first search meets, and among the valleys of that length
the least pair (left key, right key) wins, a key being the trace's rule
positions in the program; this is not always the lexicographically
least pair of traces. `max_depth` bounds each side's trace length and
`max_states` the states both sides add together, their roots included;
a valley decided before either bound is reached is returned. Negative
peak verdicts mean "not established within budget", never
"non-confluent". An admissibility refutation is definite. A
termination refutation (`REFUTED`) names an inductive rule on which the
(atoms, size) measure does not decrease; it does not mean the program
loops: `r @ p(X) <=> q(X).` stops after one step, yet is refuted.
`assume_terminating` records termination as an assumption instead.

A report holds verdicts, a termination result and an admissibility
result, and derives from them what it concludes: whether the criterion
is established, which criterion it names and what it assumes.
"""

from __future__ import annotations

import itertools
from typing import (
    Callable, Collection, Hashable, Iterable, Iterator, Mapping, NamedTuple, Optional,
    Sequence, Union,
)

from .engine import Derivation, LabeledStep, Steps, applicable_steps
from .orders import (
    MAX_ORDERS,
    AdmissibilityResult,
    Partition,
    RulePreorder,
    TerminationResult,
    admissible_total_preorders,
    check_inductive_termination,
    fubini,
    is_admissible,
)
from .peaks import CriticalPeak, classify, critical_peaks
from .state import CanonicalState, State
from .syntax import Program


class SearchBudget(NamedTuple):
    max_depth: int = 8
    max_states: int = 2000


class Valley(NamedTuple):
    left: Derivation
    right: Derivation

    def labels(self) -> tuple[list[str], list[str]]:
        return (self.left.labels(), self.right.labels())


# The statuses a closing earns, by criterion, and an open peak's.
CLOSED_STATUSES = JOINABLE, DECREASING, STRONGLY_JOINABLE = (
    "JOINABLE", "DECREASING", "STRONGLY_JOINABLE"
)
NOT_CLOSED = "NOT_CLOSED"


class PeakVerdict(NamedTuple):
    """The closing search's outcome on peak `index` of its report."""

    index: int
    status: str  # one of CLOSED_STATUSES, or NOT_CLOSED
    valley: Optional[Valley] = None
    notes: tuple[str, ...] = ()
    exhausted: bool = False

    @property
    def closed(self) -> bool:
        return self.status in CLOSED_STATUSES


# ---------------------------------------------------------------------------
# Trace automata

class _Automaton(NamedTuple):
    """`moves[phase][label]` gives the phases after reading `label` in
    `phase`; `accepts` holds the accepting phases, None meaning all."""

    moves: Mapping[Hashable, Mapping[str, tuple]]
    start: Hashable = 0
    accepts: Optional[frozenset] = None

    def next(self, phase, label) -> tuple:
        return self.moves[phase].get(label, ())

    def accepting(self, phase) -> bool:
        return self.accepts is None or phase in self.accepts


def capped(allowed: Collection[str], cap: Optional[int] = None) -> _Automaton:
    """Up to `cap` steps labelled from `allowed`; any number without a cap."""
    if cap is None:
        return _Automaton({0: dict.fromkeys(allowed, (0,))})
    return _Automaton(
        {i: dict.fromkeys(allowed if i < cap else (), (i + 1,)) for i in range(cap + 1)}
    )


def star(primary: str, secondary: str, order: RulePreorder) -> _Automaton:
    """One closing side of a decreasing diagram: a prefix strictly below
    `primary`, at most one step below-or-equal `secondary`, and a tail
    strictly below either. Prefix labels stay in phase 0; the middle step
    or a tail label moves to phase 1, which reads only tail labels."""
    prefix = order.down_strict([primary])
    tail = order.down_strict([primary, secondary])
    onward = order.down_eq([secondary]) | tail
    first = {
        label: ((0,) if label in prefix else ()) + ((1,) if label in onward else ())
        for label in prefix | onward
    }
    return _Automaton({0: first, 1: dict.fromkeys(tail, (1,))})


def trie(sequences: Iterable[Sequence[str]]) -> _Automaton:
    """Exactly the given label sequences; a phase is the prefix read so far."""
    seqs = frozenset(tuple(s) for s in sequences)
    moves: dict[tuple, dict[str, tuple]] = {(): {}}
    for seq in seqs:
        for n, label in enumerate(seq):
            moves[seq[:n]][label] = (seq[: n + 1],)
            moves.setdefault(seq[: n + 1], {})
    return _Automaton(moves, (), seqs)


def _accepts(auto: _Automaton, labels: Sequence[str]) -> bool:
    """Whether some run of the automaton reads `labels` and ends accepting."""
    phases = {auto.start}
    for label in labels:
        phases = {nxt for phase in phases for nxt in auto.next(phase, label)}
    return any(auto.accepting(phase) for phase in phases)


def matches_star(
    left_labels: Sequence[str],
    right_labels: Sequence[str],
    alpha: str,
    beta: str,
    order: RulePreorder,
) -> bool:
    """Whether a valley's label traces witness a decreasing diagram for
    a peak whose sides were produced by `alpha` (left) and `beta` (right)."""
    return _accepts(star(alpha, beta, order), left_labels) and _accepts(
        star(beta, alpha, order), right_labels
    )


# ---------------------------------------------------------------------------
# Bidirectional leveled search

class _Node(NamedTuple):
    """A search node; the root has no parent and no step. Derivations and
    trace keys are read off the parent chain, only once a valley is met."""

    state: CanonicalState
    phase: Hashable
    parent: Optional["_Node"]
    step: Optional[LabeledStep]


class _Side:
    def __init__(self, program: Program, auto: _Automaton, root: CanonicalState, indexed=False):
        self.program = program
        self.auto = auto
        self.index = {r.name: i for i, r in enumerate(program.rules)}
        node = _Node(root, auto.start, None, None)
        self.levels: list[list[_Node]] = [[node]]
        # Per level, state -> nodes; kept only on the side that is looked up.
        self.by_state = [{root: [node]}] if indexed else None
        self.visited: set = {(root, auto.start)}
        # The steps of the last level's nodes, by node id, for their children.
        self.expanded: dict[int, Steps] = {}
        self.exhausted = False
        self.truncated = False
        # The state the other side's last level may stop on: the root's,
        # when an empty trace is accepted.
        self.goal = root if auto.accepting(auto.start) else None
        # The least-keyed node on a goal, once decided.
        self.met: Optional[_Node] = None

    def ensure_level(self, depth: int, budget: SearchBudget, counter: dict, goal=None) -> bool:
        """Compute levels up to `depth`; True when that level exists. A level
        built with a `goal` may stop early: True as well when its
        least-keyed accepting node on `goal` is decided, which is left in
        `met`; that partial level is not kept."""
        while len(self.levels) <= depth:
            if self.exhausted or self.truncated:
                return False
            if len(self.levels) > budget.max_depth:
                self.truncated = True
                return False
            new_nodes: list[_Node] = []
            for child in self._children(goal):
                if counter["states"] >= budget.max_states:
                    self.truncated = True
                    self.met = None
                    return False
                counter["states"] += 1
                new_nodes.append(child)
            if self.met is not None:
                return True
            if not new_nodes:
                self.exhausted = True
                return False
            self.levels.append(new_nodes)
            if self.by_state is not None:
                by_state: dict[CanonicalState, list[_Node]] = {}
                for node in new_nodes:
                    by_state.setdefault(node.state, []).append(node)
                self.by_state.append(by_state)
        return True

    def _children(self, goal: Optional[CanonicalState] = None) -> Iterator[_Node]:
        """The unvisited children of the last level's nodes, in order; a
        child counts as visited once generated. Each node's steps are
        derived from its parent's where the engine can.

        An accepting child on `goal` is met instead of yielded, and `met`
        keeps the least-keyed one, the first among equal keys. A parent's
        steps come in rule order, so its children after a met one have
        keys no less, and a child's key is at least its parent's followed
        by 0. Children stop once no parent left can give a key below the
        least met, which is then decided. Until then every parent is
        expanded, so each (state, phase) keeps the first derivation met,
        as in a full level."""
        parents, self.expanded = self.expanded, {}
        level = self.levels[-1]
        floors: list[tuple[int, ...]] = []  # per position, the least parent key from there on

        def decided(i: int) -> bool:
            return i == len(level) or floors[i] + (0,) >= best

        for i, node in enumerate(level):
            if floors and decided(i):
                return
            moves = self.auto.moves[node.phase]
            if not moves:
                continue
            steps = applicable_steps(
                self.program, node.state, moves.keys(), parents.get(id(node.parent))
            )
            self.expanded[id(node)] = steps
            for step in steps:
                for phase in moves.get(step.rule_name, ()):
                    if (step.target, phase) in self.visited:
                        continue
                    self.visited.add((step.target, phase))
                    child = _Node(step.target, phase, node, step)
                    if step.target != goal or not self.auto.accepting(phase):
                        yield child
                        continue
                    key = self.key(child)
                    if not floors:
                        keys = map(self.key, reversed(level))
                        floors = list(itertools.accumulate(keys, min))[::-1]
                    if self.met is None or key < best:
                        self.met, best = child, key
                    if decided(i + 1):
                        return

    def derivation(self, node: _Node) -> Derivation:
        """The derivation from the root to `node`, read off its parents."""
        steps: list[LabeledStep] = []
        while node.parent is not None:
            steps.append(node.step)
            node = node.parent
        return Derivation(node.state, tuple(reversed(steps)))

    def key(self, node: _Node) -> tuple[int, ...]:
        """The rule positions of the trace from the root to `node`."""
        return tuple(self.index[step.rule_name] for step in self.derivation(node).steps)


def _closing_search(
    sides: tuple[tuple[Program, _Automaton], tuple[Program, _Automaton]],
    peak: CriticalPeak,
    budget: SearchBudget,
) -> tuple[Optional[Valley], bool]:
    """Minimal valley between the peak's reducts, plus a definite-failure flag.

    At each total depth, the splits are compared from 0 up, and the least
    (left key, right key) over all their valleys wins. Split 0 pairs the
    left root with the new right level: its empty left key beats every
    other split, so that level is built with the left root as its goal and
    a decided valley there is returned at once. The last split does the
    same on the left when no earlier split of its total has a valley.

    The failure flag is True only when both search spaces were fully
    explored without truncation, making the non-joinability exact."""
    left = _Side(*sides[0], peak.left)
    right = _Side(*sides[1], peak.right, indexed=True)
    counter = {"states": 2}
    for total in itertools.count():
        candidates: list[tuple[_Node, _Node]] = []
        for l_depth in range(total + 1):
            r_depth = total - l_depth
            # A new level stops on the other root where its valley wins outright.
            l_goal = right.goal if l_depth == total and not candidates else None
            r_goal = left.goal if l_depth == 0 else None
            if not (
                left.ensure_level(l_depth, budget, counter, l_goal)
                and right.ensure_level(r_depth, budget, counter, r_goal)
            ):
                continue
            if left.met or right.met:
                candidates = [(left.met or left.levels[0][0], right.met or right.levels[0][0])]
                break
            for lnode in left.levels[l_depth]:
                if not left.auto.accepting(lnode.phase):
                    continue
                for rnode in right.by_state[r_depth].get(lnode.state, []):
                    if right.auto.accepting(rnode.phase):
                        candidates.append((lnode, rnode))
        if candidates:
            # min keeps the first found among equal keys
            lnode, rnode = min(candidates, key=lambda c: (left.key(c[0]), right.key(c[1])))
            return Valley(left.derivation(lnode), right.derivation(rnode)), False
        # A stopped side has all its levels; past their summed depths no
        # pair of levels is left to compare.
        stopped = [side.truncated or side.exhausted for side in (left, right)]
        if all(stopped) and total >= len(left.levels) + len(right.levels) - 2:
            return None, left.exhausted and right.exhausted


# ---------------------------------------------------------------------------
# The per-peak search

def join_search(
    peak: CriticalPeak,
    sides: tuple[tuple[Program, _Automaton], tuple[Program, _Automaton]],
    status: str,
    budget: SearchBudget,
    index: int = 0,
    tactic: Optional[tuple[list, list]] = None,
    notes: tuple[str, str] = ("left_reduct_admits_no_step", "right_reduct_admits_no_step"),
) -> PeakVerdict:
    """Search one closing of `peak` whose left and right label traces the
    automata of `sides`, each a (program, automaton) pair, accept; a
    closing earns `status`. Without one, `notes` name the reducts from
    which their side's program has no step.

    A tactic's label sequences are searched first; their valley counts
    only when the automata of `sides` accept its traces."""
    attempts = [(sides, ())]
    if tactic is not None:
        tactic_sides = tuple(
            (prog, trie(seqs)) for (prog, _), seqs in zip(sides, tactic)
        )
        attempts.insert(0, (tactic_sides, ("tactic",)))
    for attempt, shown in attempts:
        valley, exhausted = _closing_search(attempt, peak, budget)
        if valley is not None and all(
            _accepts(auto, labels) for (_, auto), labels in zip(sides, valley.labels())
        ):
            break
    if valley is None:
        shown = tuple(
            note
            for note, (prog, _), reduct in zip(notes, sides, (peak.left, peak.right))
            if not applicable_steps(prog, reduct)
        )
    return PeakVerdict(
        index, NOT_CLOSED if valley is None else status, valley, shown, exhausted
    )


# ---------------------------------------------------------------------------
# Reports

class OrderSearch(NamedTuple):
    """The walk over admissible orders: whether it stopped undecided after
    `MAX_ORDERS` orders evaluated or branches cut. Whether an order closed
    every peak is the report's `established`."""

    truncated: bool


# The criterion each mode's report names; see `Report.criterion`.
_CRITERIA = {
    "peaks": "peaks",
    "local": "locally_confluent",
    "strong": "strongly_confluent",
    "decreasing": "rule_decreasing",
    "modular": "modular_union_confluent",
}


class Report(NamedTuple):
    """A criterion's or a peak listing's report. A peak's class is read off
    `partition`, `cross` without one; `budget` bounded every search. What
    the report concludes is derived from what it holds, so it cannot claim
    confluence beside an open verdict, a refuted termination or an
    inadmissible order."""

    mode: str
    partition: Optional[Partition] = None
    order: Optional[RulePreorder] = None
    termination: Optional[TerminationResult] = None
    admissibility: Optional[AdmissibilityResult] = None
    order_search: Optional[OrderSearch] = None
    peaks: tuple[CriticalPeak, ...] = ()
    verdicts: tuple[PeakVerdict, ...] = ()
    budget: Optional[SearchBudget] = None

    @property
    def established(self) -> bool:
        return (
            (self.termination is None or self.termination.acceptable)
            and (self.admissibility is None or self.admissibility.ok)
            and all(v.closed for v in self.verdicts)
        )

    @property
    def outcome(self) -> str:
        return "CONFLUENT" if self.established else "NOT_ESTABLISHED"

    @property
    def criterion(self) -> str:
        """The mode's criterion; with no inductive rule a decreasing
        diagram closes every peak in one step per side, the strong variant."""
        part = self.partition
        if self.mode == "decreasing" and part is not None and not part.inductive:
            return "strongly_rule_decreasing"
        return _CRITERIA[self.mode]

    @property
    def assumptions(self) -> tuple[str, ...]:
        """What the verdict rests on without checking it: the component
        programs' confluence under modularity, an assumed termination."""
        if self.mode == "modular":
            return ("p_confluent", "q_confluent")
        if self.termination is not None and self.termination.status == "ASSUMED":
            return ("termination_assumed",)
        return ()


def check_local_confluence(
    program: Program, budget: SearchBudget, assume_terminating: bool = False
) -> Report:
    """Newman-style check: terminating plus joinable critical peaks."""
    part = Partition.for_program(program)
    term = check_inductive_termination(program, part, assume_terminating)
    peaks = tuple(critical_peaks(program, program))
    side = (program, capped(program.rule_names()))
    verdicts = tuple(
        join_search(pk, (side, side), JOINABLE, budget, i) for i, pk in enumerate(peaks)
    )
    return Report("local", part, termination=term, peaks=peaks, verdicts=verdicts, budget=budget)


def check_strong_confluence(program: Program, budget: SearchBudget) -> Report:
    part = Partition.for_program(program)
    peaks = tuple(critical_peaks(program, program))
    side = (program, capped(program.rule_names(), 1))
    verdicts = tuple(
        join_search(pk, (side, side), STRONGLY_JOINABLE, budget, i)
        for i, pk in enumerate(peaks)
    )
    return Report("strong", part, peaks=peaks, verdicts=verdicts, budget=budget)


def live_rules(
    program: Program, states: Iterable[Union[State, CanonicalState]]
) -> frozenset[str]:
    """Rules that may fire from some state reachable from `states`: the least
    set whose rules' head predicates all occur in `states` or in the user
    body of a rule of the set. Any other rule never yields a step there."""
    preds = {a.pred for s in states for a in s.atoms}
    live: set[str] = set()
    grew = True
    while grew:
        grew = False
        for rule in program.rules:
            if rule.name not in live and all(a.pred in preds for a in rule.heads):
                live.add(rule.name)
                preds.update(a.pred for a in rule.user_body)
                grew = True
    return frozenset(live)


class _OrderWalk:
    """The walk over admissible orders for the coinductive peaks' star
    searches, cutting branches that hold only failing orders.

    A peak's star verdict depends only on how its live rules compare with
    its two rules, so its key is fixed once the walk has set the levels of
    these, its relevant rules. A branch is cut there when the key is known
    to fail, and the rest of a branch is cut once an order in it failed on
    a peak whose key the branch has fixed. The first closing order is thus
    the one a plain walk finds, and only evaluated orders search new keys.
    The walk stops at `MAX_ORDERS` evaluated orders and cut branches
    together (`truncated`), or once a peak has failed under every
    admissible relative order of its relevant rules, since then no order
    closes it."""

    def __init__(
        self, program: Program, part: Partition, peaks: Sequence[CriticalPeak],
        coinductive: list[int], closing: Callable[[int, RulePreorder], PeakVerdict],
    ):
        self.program, self.part, self.coinductive, self.closing = (
            program, part, coinductive, closing
        )
        names = program.rule_names()
        pos = {name: p for p, name in enumerate(names)}
        self.compared: dict[int, tuple[int, int, list[int]]] = {}
        self.relevant: dict[int, list[int]] = {}
        self.patterns: dict[int, int] = {}
        self.ends: list[list[int]] = [[] for _ in names]
        for i in coinductive:
            a, b = pos[peaks[i].rule_left], pos[peaks[i].rule_right]
            live = sorted(pos[c] for c in live_rules(program, (peaks[i].left, peaks[i].right)))
            self.compared[i] = (a, b, live)
            self.relevant[i] = rel = sorted({a, b, *live})
            co = sum(names[p] in part.coinductive for p in rel)
            self.patterns[i] = fubini(len(rel) - co) * fubini(co)
            self.ends[rel[-1]].append(i)
        self.searched: dict[tuple, PeakVerdict] = {}
        self.keys: dict[int, tuple] = {}
        self.failing: dict[int, set[tuple]] = {i: set() for i in coinductive}
        self.levels: list[int] = []
        # The branch's levels up to position `failed` make an evaluated
        # order fail; len(names) when they do not.
        self.failed = len(names)
        self.spent = 0
        self.stopped = self.truncated = False

    def _key(self, i: int) -> tuple:
        a, b, live = self.compared[i]
        lv = self.levels
        return (i, tuple(
            ((lv[c] > lv[a]) - (lv[c] < lv[a]), (lv[c] > lv[b]) - (lv[c] < lv[b]))
            for c in live
        ))

    def _spend(self) -> bool:
        """Count an evaluated order or a cut branch; False at the bound."""
        if self.spent == MAX_ORDERS:
            self.stopped = self.truncated = True
            return False
        self.spent += 1
        return True

    def _fail(self, i: int) -> None:
        """Note the relative order of peak i's relevant rules as failing."""
        levels = [self.levels[p] for p in self.relevant[i]]
        ranks = sorted(set(levels))
        self.failing[i].add(tuple(ranks.index(lv) for lv in levels))
        if len(self.failing[i]) == self.patterns[i]:
            self.stopped = True

    def cut(self, p: int, levels: list[int]) -> bool:
        """The `orders.Cut` of the walk, which also notes each branch's keys."""
        if self.stopped:
            return True
        if p > self.failed:
            self._spend()
            return True
        self.failed = len(self.ends)
        self.levels = levels
        for i in self.ends[p]:
            self.keys[i] = key = self._key(i)
            verdict = self.searched.get(key)
            if verdict is not None and not verdict.closed:
                if self._spend():
                    self._fail(i)
                return True
        return False

    def run(self, first_only: bool) -> tuple[RulePreorder, dict[int, PeakVerdict]]:
        """The first order that closes every coinductive peak with its
        verdicts, else the first order with its verdicts."""
        chosen = None
        for cand in admissible_total_preorders(self.program, self.part, cut=self.cut):
            if not self._spend():
                break
            co = {}
            for i in self.coinductive:
                key = self.keys[i]
                if key not in self.searched:
                    self.searched[key] = self.closing(i, cand)
                co[i] = self.searched[key]
                if not co[i].closed:
                    self._fail(i)
                    self.failed = min(self.failed, self.relevant[i][-1])
                    if chosen is not None:
                        break  # only the first order's verdicts are shown
            if all(v.closed for v in co.values()):
                return cand, co
            chosen = chosen or (cand, co)
            if first_only or self.stopped:
                break
        # The walk is never empty: even the empty program has its
        # Fubini(0) * Fubini(0) = 1 admissible order.
        return chosen


def check_rule_decreasing(
    program: Program,
    part: Partition,
    order: Optional[RulePreorder],
    budget: SearchBudget,
    tactics: Optional[dict[int, tuple[list, list]]] = None,
    enumerate_orders: bool = False,
    assume_terminating: bool = False,
    peaks: Optional[Sequence[CriticalPeak]] = None,
) -> Report:
    """`peaks`, when given, must be `critical_peaks(program, program)`."""
    if order is not None and enumerate_orders:
        raise ValueError("enumerate_orders searches for the order; do not give one")
    if peaks is None:
        peaks = critical_peaks(program, program)
    classes = [classify(pk, part) for pk in peaks]
    term = check_inductive_termination(program, part, assume_terminating)

    if enumerate_orders:
        adm = AdmissibilityResult(True)
    else:
        shown = order if order is not None else RulePreorder.discrete(program.rule_names())
        adm = is_admissible(shown, part)

    def report(verdicts, shown_order, search) -> Report:
        return Report(
            "decreasing", part, shown_order, termination=term, admissibility=adm,
            order_search=search, peaks=tuple(peaks),
            verdicts=tuple(verdicts[i] for i in sorted(verdicts)), budget=budget,
        )

    if not adm.ok or not term.acceptable:
        return report({}, order, OrderSearch(False) if enumerate_orders else None)

    tactics = tactics or {}
    inductive = [i for i, cls in enumerate(classes) if cls == "inductive"]
    coinductive = [i for i, cls in enumerate(classes) if cls == "coinductive"]
    side = (program, capped(part.inductive))
    verdicts = {
        i: join_search(peaks[i], (side, side), JOINABLE, budget, i, tactics.get(i))
        for i in inductive
    }
    inductive_ok = all(v.closed for v in verdicts.values())

    def closing(i: int, cand: RulePreorder) -> PeakVerdict:
        a, b = peaks[i].rule_left, peaks[i].rule_right
        sides = ((program, star(a, b, cand)), (program, star(b, a, cand)))
        return join_search(peaks[i], sides, DECREASING, budget, i, tactics.get(i))

    if enumerate_orders:
        # enumeration cannot help once an inductive peak failed
        walk = _OrderWalk(program, part, peaks, coinductive, closing)
        shown, co = walk.run(first_only=not inductive_ok)
        verdicts.update(co)
        search = OrderSearch(walk.truncated)
    else:
        verdicts.update((i, closing(i, shown)) for i in coinductive)
        search = None
    return report(verdicts, shown, search)


def check_modularity(p: Program, q: Program, budget: SearchBudget) -> Report:
    """Cross peaks must close with q-steps on the left, at most one p-step
    on the right; the component programs' confluence is assumed, not checked."""
    overlap = set(p.rule_names()) & set(q.rule_names())
    if overlap:
        raise ValueError(f"programs share rule names: {sorted(overlap)}")
    peaks = tuple(critical_peaks(p, q))
    sides = ((q, capped(q.rule_names())), (p, capped(p.rule_names(), 1)))
    notes = ("left_reduct_admits_no_q_step", "right_reduct_admits_no_p_step")
    verdicts = tuple(
        join_search(pk, sides, JOINABLE, budget, i, notes=notes) for i, pk in enumerate(peaks)
    )
    return Report("modular", peaks=peaks, verdicts=verdicts, budget=budget)
