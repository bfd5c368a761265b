"""CHR states, structural equivalence, and quantified conjunction.

A state is a user store (multiset of atoms), a built-in store
(conjunction of equations), and a set of global variables; every other
variable is local, read existentially. Two states are equivalent exactly
when their canonical forms are equal. To canonicalize, the built-in
store is solved by `unify` keeping the globals, so each class of equal
variables is named by its smallest global, or by its smallest member
when it holds none. The solution is applied everywhere, the residual
constraints on globals are kept, and the store is sorted by value:
atoms and residuals are tuples, compared in C. A state with no
built-ins skips solving: its atoms are kept as they are.

Step targets come from `successors`, which builds each distinct target
of one source once: steps that remove the same atoms and add the same
atoms and built-ins share it. A target from a canonical state with no
locals and no residuals, by a step that removes nothing and adds
neither built-ins nor new variables, is the source with the new atoms
inserted in order: there is nothing to solve, prune or label. The
caller, which knows the step's rule, says when that holds.

Locals get a canonical labelling by individualisation and refinement
(McKay and Piperno, *Practical graph isomorphism II*, 2014), per
component of atoms linked by shared locals: colour refinement splits
the locals by how they occur, a class left with several members has
each individualised in turn, and the smallest form over the leaves
wins. Two leaves with one form yield an automorphism that prunes its
orbits. Components are then ordered by form, so identical ones cost no
permutation search. Only Cai-Fürer-Immerman-style inputs make this
exponential; states with no locals skip it.

`State` and `CanonicalState` are `NamedTuple` value types, so the search's
visited-set lookups hash and compare in C. They compare equal by items
across types, but a `State` has three items and a `CanonicalState` four,
so the two are never equal.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Iterator, Mapping, NamedTuple, Union

from .syntax import Atom, Eq, conjunction_text
from .terms import FRESH_PREFIX, Compound, Subst, Term, Var, fresh_mapping, unify


class State(NamedTuple):
    """A user store, a built-in store and the global variables. Compares
    by items, as a 3-tuple."""

    atoms: tuple[Atom, ...]
    builtins: tuple[Eq, ...]
    globals: frozenset[str]

    def iter_vars(self) -> Iterator[str]:
        for a in self.atoms:
            yield from a.iter_vars()
        for e in self.builtins:
            yield from e.iter_vars()

    def free_vars(self) -> set[str]:
        return set(self.iter_vars())

    def all_vars(self) -> set[str]:
        return self.free_vars() | self.globals

    def subst(self, s: Mapping[str, Term]) -> "State":
        renamed_globals = []
        for g in self.globals:
            img = s.get(g)
            if img is None:
                renamed_globals.append(g)
            elif isinstance(img, Var):
                renamed_globals.append(img.name)
            else:
                raise ValueError("cannot substitute a global variable by a non-variable")
        return State(
            tuple(a.subst(s) for a in self.atoms),
            tuple(e.subst(s) for e in self.builtins),
            frozenset(renamed_globals),
        )


class CanonicalState(NamedTuple):
    """Normal form of a state; `bottom` marks the inconsistent class.
    Compares by items, as a 4-tuple."""

    atoms: tuple[Atom, ...] = ()
    residuals: tuple[Eq, ...] = ()
    globals: frozenset[str] = frozenset()
    bottom: bool = False

    def as_state(self) -> State:
        if self.bottom:
            return State((), (Eq(Compound("0"), Compound("1")),), frozenset())
        return State(self.atoms, self.residuals, self.globals)


INCONSISTENT = CanonicalState(bottom=True)

_LOCAL_PREFIX = "L"


def _skeleton(t: Term, globs: frozenset[str]) -> tuple:
    """The term with every local blanked out; globals keep their names."""
    if isinstance(t, Var):
        return (0, t.name) if t.name in globs else (0,)
    return (1, t.functor, tuple(_skeleton(a, globs) for a in t.args))


def _positions(values: dict) -> dict:
    """Each value replaced by the number of strictly smaller values: a
    colouring that keeps the values' order."""
    first: dict = {}
    for i, val in enumerate(sorted(values.values())):
        first.setdefault(val, i)
    return {k: first[val] for k, val in values.items()}


def _root(parent: dict[str, str], v: str) -> str:
    """Union-find representative of `v`, halving the path on the way."""
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]
    return v


def _label(items: list[tuple[int, tuple[str, ...]]]) -> tuple[tuple, dict[str, int], bool]:
    """Smallest form of one component over the leaves of its
    individualisation-refinement tree, the labelling that gives it, and
    whether the root refinement is already discrete (the tree is one leaf).
    An item is an atom's skeleton rank and its locals in occurrence order."""
    occurrences: dict[str, list[tuple[int, int]]] = {}
    for i, (_, occ) in enumerate(items):
        for k, v in enumerate(occ):
            occurrences.setdefault(v, []).append((i, k))

    def refine(colour: dict[str, int]) -> dict[str, int]:
        while True:
            keys = [(skel, tuple(colour[v] for v in occ)) for skel, occ in items]
            new = _positions({
                v: (colour[v], tuple(sorted((keys[i], k) for i, k in occs)))
                for v, occs in occurrences.items()
            })
            if len(set(new.values())) == len(set(colour.values())):
                return new
            colour = new

    leaves: dict[tuple, tuple[list[str], dict[str, int]]] = {}
    automorphisms: list[dict[str, str]] = []

    def search(colour: dict[str, int], path: list[str]) -> int:
        """Explore one node; returns the depth the search resumes at."""
        cells: dict[int, list[str]] = {}
        for v in sorted(colour):
            cells.setdefault(colour[v], []).append(v)
        split = [cell for _, cell in sorted(cells.items()) if len(cell) > 1]
        if not split:
            form = tuple(sorted((skel, tuple(colour[v] for v in occ)) for skel, occ in items))
            if form not in leaves:
                leaves[form] = (path, colour)
                return len(path)
            # Two leaves with one form: the map between them is an
            # automorphism, taking the earlier branch onto this one.
            other_path, other = leaves[form]
            by_label = {i: v for v, i in colour.items()}
            automorphisms.append({v: by_label[i] for v, i in other.items()})
            return next(d for d, (u, w) in enumerate(zip(path, other_path)) if u != w)
        tried: list[str] = []
        for v in split[0]:
            orbits = {u: u for u in colour}
            for g in automorphisms:
                if all(g[u] == u for u in path):
                    for x, y in g.items():
                        orbits[_root(orbits, x)] = _root(orbits, y)
            if any(_root(orbits, u) == _root(orbits, v) for u in tried):
                continue
            tried.append(v)
            child = {u: c + 1 if c == colour[v] and u != v else c for u, c in colour.items()}
            resume = search(refine(child), path + [v])
            if resume < len(path):
                return resume
        return len(path)

    root = refine({v: 0 for v in occurrences})
    search(root, [])
    form = min(leaves)
    return form, leaves[form][1], len(set(root.values())) == len(root)


def _canonical_renaming(
    atoms: list[Atom], residuals: list[Eq], globs: frozenset[str]
) -> tuple[Subst, bool]:
    """Rename the locals to L0, L1, ... by `fresh_mapping`, which skips
    global names: components are labelled apart, then numbered in the
    order of their forms. Also whether this is the only renaming that
    gives the canonical form: the root refinement of every component is
    discrete and no two components share a form, so the only automorphism
    is the identity. Both tests are invariant under renaming."""
    skeletons = [(0, a.pred, tuple(_skeleton(x, globs) for x in a.args)) for a in atoms]
    skeletons += [(1, _skeleton(e.lhs, globs), _skeleton(e.rhs, globs)) for e in residuals]
    ranks = _positions(dict(enumerate(skeletons)))
    occs = [tuple(v for v in x.iter_vars() if v not in globs) for x in [*atoms, *residuals]]
    parent = {v: v for occ in occs for v in occ}
    for occ in occs:
        for v in occ[1:]:
            parent[_root(parent, v)] = _root(parent, occ[0])
    components: dict[str, list] = {}
    for i, occ in enumerate(occs):
        if occ:
            components.setdefault(_root(parent, occ[0]), []).append((ranks[i], occ))
    labelled = sorted(map(_label, components.values()), key=lambda r: r[0])
    ordered = [v for _, labels, _ in labelled for v in sorted(labels, key=labels.__getitem__)]
    renaming = fresh_mapping(globs, ordered, _LOCAL_PREFIX)
    unique = all(discrete for _, _, discrete in labelled) and all(
        a[0] != b[0] for a, b in zip(labelled, labelled[1:])
    )
    return renaming, unique


def canonicalize(s: Union[State, CanonicalState]) -> CanonicalState:
    if isinstance(s, CanonicalState):
        return s
    atoms, residuals = list(s.atoms), []
    if s.builtins:
        sigma = unify([(e.lhs, e.rhs) for e in s.builtins], s.globals)
        if sigma is None:
            return INCONSISTENT
        atoms = [a.subst(sigma) for a in atoms]
        residuals = [Eq(Var(g), sigma[g]) for g in sorted(s.globals) if g in sigma]

    alive: set[str] = set()
    for a in atoms:
        alive.update(a.iter_vars())
    for e in residuals:
        alive.update(e.iter_vars())
    globs = frozenset(g for g in s.globals if g in alive)
    if alive - globs:
        renaming, _ = _canonical_renaming(atoms, residuals, globs)
        atoms = [a.subst(renaming) for a in atoms]
        residuals = [e.subst(renaming) for e in residuals]
    atoms.sort()
    residuals.sort()
    return CanonicalState(tuple(atoms), tuple(residuals), globs)


def successors(source: Union[State, CanonicalState]) -> Callable[..., CanonicalState]:
    """The canonical target of a step from `source`, given the positions
    of the atoms the step removes, the atoms and built-ins it adds and
    whether the target is the source with those atoms inserted in order.

    Each distinct (removed, atoms, built-ins) is built once and its target
    reused: steps that match other atoms often add the same ones. The
    caller says when a target is an insert, which is exact when the source
    is canonical with no residuals, its atoms and the added ones hold only
    globals, and the step removes nothing and adds no built-ins. Every
    other target is canonicalized.
    """
    state = source.as_state() if isinstance(source, CanonicalState) else source
    globs = state.globals
    built: dict[tuple, CanonicalState] = {}

    def target(
        removed: tuple[int, ...], atoms: tuple[Atom, ...], builtins: tuple[Eq, ...], insert: bool
    ) -> CanonicalState:
        memo = (removed, atoms, builtins)
        found = built.get(memo)
        if found is not None:
            return found
        if insert:
            out = list(state.atoms)
            for a in atoms:
                insort(out, a)
            found = CanonicalState(tuple(out), (), globs)
        else:
            kept = tuple(a for i, a in enumerate(state.atoms) if i not in removed)
            found = canonicalize(State(kept + atoms, state.builtins + builtins, globs))
        built[memo] = found
        return found

    return target


def equivalent(s1: Union[State, CanonicalState], s2: Union[State, CanonicalState]) -> bool:
    return canonicalize(s1) == canonicalize(s2)


def compose(s1: State, s2: State, quantified: frozenset[str] | set[str]) -> State:
    """Quantified conjunction: union the stores, then localize `quantified`.

    Shared variables must be global on both sides; callers rename locals
    apart first.
    """
    shared = s1.free_vars() & s2.free_vars()
    if not shared <= (s1.globals & s2.globals):
        offending = sorted(shared - (s1.globals & s2.globals))
        raise ValueError(
            f"compose: variables {offending} are shared but not global in both states"
        )
    return State(
        s1.atoms + s2.atoms,
        s1.builtins + s2.builtins,
        (s1.globals | s2.globals) - frozenset(quantified),
    )


# ---------------------------------------------------------------------------
# Display

def _surface_locals(s: State) -> State:
    """Rename internally generated local variables to parseable names."""
    reserved = [
        v
        for v in dict.fromkeys(s.iter_vars())
        if v.startswith(FRESH_PREFIX) and v not in s.globals
    ]
    if not reserved:
        return s
    return s.subst(fresh_mapping(s.all_vars(), reserved, _LOCAL_PREFIX))


def state_text(s: State) -> str:
    """Parseable rendering; `parse_state` of it is equivalent to `s`."""
    s = _surface_locals(s)
    body = conjunction_text(s.atoms, s.builtins)
    globs = ", ".join(sorted(s.globals))
    return f"{body} # globals: {globs}" if globs else f"{body} # globals:"


def canonical_text(c: CanonicalState) -> str:
    if c.bottom:
        return "<false>"
    body = conjunction_text(c.atoms, c.residuals)
    globs = ", ".join(sorted(c.globals))
    if globs:
        return f"<{body} # globals: {globs}>"
    return f"<{body}>"
