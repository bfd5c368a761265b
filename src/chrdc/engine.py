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
renamed once per set of fresh names in the state, and compiled then into
Python source, as CHR compilers turn each rule's heads into host code
(Holzbaur, García de la Banda, Stuckey and Duck, TPLP 5, 2005; Schrijvers
and Demoen, CHR 2004). The generated matcher has one loop per head, the
first head outermost, over the atoms of its predicate and arity, and
per head argument one test: bind a variable met first, compare with a
bound variable, compare with a ground term, or `terms.match` a compound
that holds variables. A match whose guard holds builds the body's atoms
and built-ins directly. `applicable_steps`, `fire` and `replay` all run
it, the last two at fixed positions. Its source holds no program text:
predicates, terms and variable names are namespace constants. Two bounds
hold for any rule, below CPython's limits of 20 nested blocks and 200
nested brackets: at most `_HEADS_PER_FUNCTION` loops nest in one
function, and the next heads go on in another; and a term is never
written out, so brackets nest only a few levels. Rules of one shape
share one code object.

Which rules match where, and what they add, depend only on a state's
atoms and its fresh names. So a child's steps are derived from its
parent's, as semi-naive evaluation and the TREAT matcher do (Miranker,
AAAI 1987), when one merge walk finds the parent's atoms in order among
the child's, the globals are the same and the child's allowed rules are
among the parent's. The parent's matches are kept, their positions
moved by the merge; only matches that take an added atom are searched,
and the two are merged per rule by position. Anything else is
enumerated in full. A derived child takes the rest of what its parent
found: with the same globals it has the same fresh names, so the
parent's plans are its own, and its atoms hold only globals exactly
when the parent's and the added ones do, so only the added are walked.

Targets of `applicable_steps` come from the source's `state.successors`,
which builds each distinct target once, so steps that add the same atoms
share one target; `fire` builds its one target directly. A step of a
rule that removes no head and adds neither built-ins nor new variables,
from a store with no residuals whose atoms hold only globals, inserts
its atoms in order. Steps and derivations are `NamedTuple` values, cheap
to build and compared in C.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from types import CodeType
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .state import CanonicalState, State, canonicalize, successors
from .syntax import Atom, Eq, Program, Rule
from .terms import FRESH_PREFIX, Term, Var, apply, iter_vars, match, rename_apart


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


# What a step adds: its atoms and its built-ins.
_Body = tuple[tuple[Atom, ...], tuple[Eq, ...]]


class _Plan(NamedTuple):
    """A rule renamed apart and compiled. `run(atoms, added=None,
    fixed=None, skip=True)` is its generated matcher, whose text is
    `source`: it lists (positions, what the step adds) for each match of
    the heads, kept then removed, that passes the guard, in the order of
    the positions. With `added`, only matches that take one of those
    positions; with `fixed`, only the match at those positions; without
    `skip`, a head may take a copy of an equal atom whose predecessor no
    earlier head took. `inserts` tells
    whether the rule removes no head and adds neither built-ins nor a
    variable that no head holds: from a store with no residuals whose
    atoms hold only globals, every matched variable is a global, so its
    targets are the source with the added atoms inserted in order."""

    name: str
    n_kept: int
    inserts: bool
    source: str
    run: Callable[..., list[tuple[tuple[int, ...], _Body]]]


# Heads matched in one generated function; the rest go on in the next, so
# a rule of any length stays below CPython's limit of 20 nested loops.
_HEADS_PER_FUNCTION = 8


def _generated(rule: Rule) -> tuple[str, dict[str, object]]:
    """The source of the matcher of the renamed `rule`, and the namespace it
    runs in. Each predicate, ground term and variable name is a namespace
    constant `c0`, ..., and each head variable a local `v0`, ..., so the
    source holds no program text. A compound that holds variables is
    matched by `terms.match` and built by `terms.apply`, so no term nests
    the source's brackets."""
    namespace: dict[str, object] = {
        "apply": apply, "match": match, "new": tuple.__new__, "Atom": Atom, "Eq": Eq,
    }
    consts: dict[tuple[type, object], str] = {}

    def const(value: object) -> str:
        # Keyed by type as well: an atom equals the compound of its items.
        name = consts.setdefault((type(value), value), f"c{len(consts)}")
        namespace[name] = value
        return name

    ident: dict[str, str] = {}  # head variable -> its local, once bound
    lines: list[str] = []
    pad = ""  # the indentation of the current head's loop body

    def bind(v: str, value: str) -> None:
        ident[v] = f"v{len(ident)}"
        lines.append(f"{pad}{ident[v]} = {value}")

    def held(names: Iterable[str]) -> list[str]:
        return [v for v in dict.fromkeys(names) if v in ident]

    def tup(items: Sequence[str]) -> str:
        return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"

    def term(t: Term) -> str:
        if isinstance(t, Var) and t.name in ident:
            return ident[t.name]
        bound = held(iter_vars(t))
        if not bound:
            return const(t)
        return f"apply({{{', '.join(f'{const(v)}: {ident[v]}' for v in bound)}}}, {const(t)})"

    def built(items: Sequence[Union[Atom, Eq]]) -> str:
        if not items:
            return "()"
        if not held(v for item in items for v in item.iter_vars()):
            return const(tuple(items))
        return tup([
            const(a) if not held(a.iter_vars())
            else f"new(Eq, ({term(a.lhs)}, {term(a.rhs)}))" if isinstance(a, Eq)
            else f"new(Atom, ({const(a.pred)}, {tup([term(t) for t in a.args])}))"
            for a in items
        ])

    heads, n = rule.heads, len(rule.heads)
    # Head k's loop runs over `dk`: every position, or the one fixed for it.
    domains = [f"d{k}" for k in range(n)]
    lines += [
        "def step(atoms, added=None, fixed=None, skip=True):",
        "    out = []",
        "    if fixed is None:",
        f"        {' = '.join(domains)} = range(len(atoms))",
        "    else:",
        f"        {', '.join(domains)} = {', '.join(f'fixed[{k}:{k + 1}]' for k in range(n))}",
    ]
    depth = 1
    for k, head in enumerate(heads):
        if k and k % _HEADS_PER_FUNCTION == 0:
            # The next function takes what the loops so far have bound.
            params = ["atoms", "added", "skip", "out"] + domains[k:]
            params += [f"i{j}" for j in range(k)] + list(ident.values())
            lines.append("    " * depth + f"step{k}({', '.join(params)})")
            lines += ["    return out", "", f"def step{k}({', '.join(params)}):"]
            depth = 1
        pad = "    " * (depth + 1)
        earlier = range(k)
        domain = domains[k]
        if k == n - 1:
            # With `added`, the last head takes only added atoms, unless an
            # earlier head took one.
            domain += " if added is None" + "".join(f" or i{j} in added" for j in earlier)
            domain += " else added"
        lines += [
            "    " * depth + f"for i{k} in {domain}:",
            f"{pad}a{k} = atoms[i{k}]",
            f"{pad}p, t{k} = a{k}",
            f"{pad}if p != {const(head.pred)} or len(t{k}) != {len(head.args)}"
            + "".join(f" or i{k} == i{j}" for j in earlier) + ": continue",
            f"{pad}if skip and i{k} and a{k} == atoms[i{k} - 1]"
            + "".join(f" and i{k} - 1 != i{j}" for j in earlier) + ": continue",
        ]
        for j, arg in enumerate(head.args):
            x = f"t{k}[{j}]"
            if isinstance(arg, Var) and arg.name not in ident:
                bind(arg.name, x)
            elif isinstance(arg, Var) or not any(iter_vars(arg)):
                lines.append(f"{pad}if {x} != {term(arg)}: continue")
            else:
                tests = "".join(f" or m[{const(v)}] != {ident[v]}" for v in held(iter_vars(arg)))
                lines.append(f"{pad}m = match((({const(arg)}, {x}),))")
                lines.append(f"{pad}if m is None{tests}: continue")
                for v in dict.fromkeys(iter_vars(arg)):
                    if v not in ident:
                        bind(v, f"m[{const(v)}]")
        depth += 1
    lines += [f"{pad}if {term(e.lhs)} != {term(e.rhs)}: continue" for e in rule.guard]
    adds = f"({built(rule.user_body)}, {built(rule.builtin_body)})"
    lines.append("    " * depth + f"out.append(({tup([f'i{k}' for k in range(n)])}, {adds}))")
    lines.append("    return out")
    return "\n".join(lines) + "\n", namespace


def _fresh_names(state: State) -> frozenset[str]:
    return frozenset(v for v in state.all_vars() if v.startswith(FRESH_PREFIX))


@lru_cache(maxsize=1024)
def _code(source: str) -> CodeType:
    """The compiled `source`: rules of one shape share it, and so does one
    rule renamed apart from other fresh names, since a matcher holds no
    program text. Its file name holds the hash of `source`, since
    profilers tell functions apart by file, line and name."""
    return compile(source, f"<generated matcher {hash(source) & 0xFFFFFFFF:08x}>", "exec")


@lru_cache(maxsize=1024)
def _compiled(rule: Rule, fresh: frozenset[str]) -> _Plan:
    """`rule` renamed apart from a state whose fresh names are `fresh`, and
    compiled; renaming picks only fresh names, so it cannot capture any
    other."""
    renamed = rename_apart(set(fresh), rule)
    source, namespace = _generated(renamed)
    exec(_code(source), namespace)
    bound = {v for a in renamed.heads for v in a.iter_vars()}
    new_vars = any(v not in bound for a in renamed.user_body for v in a.iter_vars())
    inserts = not renamed.removed and not renamed.builtin_body and not new_vars
    return _Plan(renamed.name, len(renamed.kept), inserts, source, namespace["step"])


def fire(
    rule: Rule, state: State, pos: tuple[int, ...], fresh: Optional[frozenset[str]] = None
) -> Optional[LabeledStep]:
    """The step of `rule` with its heads, kept then removed, on the atoms of
    `state` at `pos` (distinct positions, one per head), or None when they
    do not match or the guard fails. Match positions index `state.atoms`.
    `fresh` is the state's fresh names, found by a walk over it if None."""
    plan = _compiled(rule, _fresh_names(state) if fresh is None else fresh)
    return _fired(plan, state, pos, False)


def _fired(plan: _Plan, state: State, pos: tuple[int, ...], skip: bool) -> Optional[LabeledStep]:
    """The step of `plan` at `pos`, built by its matcher with the positions
    fixed; with `skip`, None as well where a head takes a copy of an equal
    atom whose predecessor no earlier head took, as `applicable_steps`
    does. Its one target is canonicalized directly."""
    found = plan.run(state.atoms, None, pos, skip)
    if not found:
        return None
    ((_, (atoms, builtins)),) = found
    kept, removed = pos[:plan.n_kept], pos[plan.n_kept:]
    rest = tuple([a for i, a in enumerate(state.atoms) if i not in removed])
    target = canonicalize(State(rest + atoms, state.builtins + builtins, state.globals))
    return LabeledStep(plan.name, kept, removed, target)


class Steps(list):
    """The steps from one state, as `applicable_steps` lists them, with what
    a call for a child needs to derive its steps from them: the program,
    the canonical source, the allowed rules (None for all); per rule of
    the program its plan and its matches that pass the guard as
    (positions, what the step adds), both None for a rule not allowed;
    and whether the source's atoms hold only globals, None when that was
    neither inherited nor needed."""

    __slots__ = ("program", "source", "allowed", "plans", "fired", "no_locals")


def _only_globals(atoms: Iterable[Atom], globs: frozenset[str]) -> bool:
    """Whether `atoms` hold no variable but the globals `globs`."""
    return all(globs.issuperset(a.iter_vars()) for a in atoms)


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
    step that removes nothing and adds neither built-ins nor new
    variables, from a state with no residuals whose atoms hold only
    globals, costs an ordered insert. Whether the atoms hold only globals
    is found by a walk over them when the first such step comes.

    `parent` is this function's result for another state, such as one
    with a step to this one. The steps are derived from it where that is
    exact and enumerated in full otherwise; the list is the same. A
    derived state also takes the parent's plans, and whether its atoms
    hold only globals from the parent's answer and its added atoms.
    """
    cst = canonicalize(state)
    out = Steps()
    out.program, out.source, out.plans, out.fired = program, cst, [], []
    out.allowed = allowed_set = None if allowed is None else frozenset(allowed)
    out.no_locals = None
    if cst.bottom:
        return out
    target = successors(cst)
    globs = cst.globals
    derived = _inherited(parent, program, cst, allowed_set)
    if derived is None:
        # Every variable of a canonical state that is not a global is an `L` name.
        fresh = frozenset(g for g in globs if g.startswith(FRESH_PREFIX))
        remap = added = no_locals = None
    else:
        # The globals are the parent's, and so are the fresh names and plans.
        remap, added = derived
        no_locals = parent.no_locals and _only_globals([cst.atoms[i] for i in added], globs)

    for r, rule in enumerate(program.rules):
        if allowed_set is not None and rule.name not in allowed_set:
            out.plans.append(None)
            out.fired.append(None)
            continue
        plan = _compiled(rule, fresh) if derived is None else parent.plans[r]
        fired = plan.run(cst.atoms, added)
        if derived is not None:
            kept = [(tuple([remap[i] for i in pos]), body) for pos, body in parent.fired[r]]
            fired = sorted(kept + fired, key=itemgetter(0)) if fired else kept
        out.plans.append(plan)
        out.fired.append(fired)
        if not fired:
            continue
        insert = False
        if plan.inserts and not cst.residuals:
            if no_locals is None:
                no_locals = _only_globals(cst.atoms, globs)
            insert = no_locals
        name, n = plan.name, plan.n_kept
        for pos, (atoms, builtins) in fired:
            removed = pos[n:]
            out.append(
                LabeledStep(name, pos[:n], removed, target(removed, atoms, builtins, insert))
            )
    out.no_locals = no_locals
    return out


def replay(program: Program, derivation: Derivation) -> CanonicalState:
    """Check a derivation against the transition relation.

    Each recorded step (rule, match positions and target) must be one of
    `applicable_steps` from the current state; otherwise the certificate
    is corrupt and ReplayError is raised. The rules of the step's name are
    fired at its positions, with the first-copy skip of `applicable_steps`.
    """
    cur = canonicalize(derivation.source)
    for i, step in enumerate(derivation.steps):
        state, pos = cur.as_state(), step.matched_kept + step.matched_removed
        fired = not cur.bottom and all(0 <= p < len(cur.atoms) for p in pos) and any(
            _fired(_compiled(rule, _fresh_names(state)), state, pos, True) == step
            for rule in program.rules
            if rule.name == step.rule_name and len(rule.heads) == len(pos)
        )
        if not fired:
            raise ReplayError(f"step {i} ({step.rule_name}) is not a step from its source")
        cur = step.target
    return cur
