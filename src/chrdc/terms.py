"""First-order terms, substitutions, and syntactic unification.

The constraint theory is Herbrand equality over free constructors:
integer literals and `+` are ordinary functors, nothing is evaluated.
A substitution is a plain dict mapping variable names to terms; the
functions below keep substitutions idempotent and free of self-bindings.

`Var` and `Compound` are `NamedTuple` value types, so hashing and
equality run in C, recursing through nested tuples. Like any tuples they
compare equal by items across types: a `Compound` equals an `Atom` with
the same items. A `Var` (one item) never equals a `Compound` (two), and
no set, dict or `==` in chrdc mixes terms with atoms.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, NamedTuple, Optional


class Var(NamedTuple):
    """A variable, by name. Compares by items, as a 1-tuple."""

    name: str

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


class Compound(NamedTuple):
    """A functor applied to arguments. Compares by items, as a 2-tuple."""

    functor: str
    args: tuple["Term", ...] = ()

    def __repr__(self) -> str:
        if not self.args:
            return f"Compound({self.functor!r})"
        return f"Compound({self.functor!r}, {self.args!r})"


Term = Var | Compound
Subst = dict[str, Term]

# Variables with this prefix are generated internally and rejected by
# the parser, so renaming apart can never collide with source text.
FRESH_PREFIX = "_V"


def iter_vars(t: Term) -> Iterator[str]:
    """Yield variable names of `t` in left-to-right occurrence order."""
    if isinstance(t, Var):
        yield t.name
    else:
        yield from iter_all_vars(t.args)


def iter_all_vars(terms: Iterable[Term]) -> Iterator[str]:
    """`iter_vars` of each of `terms` in turn. Variables and constants are
    handled inline; only a compound with arguments costs a nested walk."""
    for a in terms:
        if isinstance(a, Var):
            yield a.name
        elif a.args:
            yield from iter_all_vars(a.args)


def term_vars(t: Term) -> set[str]:
    return set(iter_vars(t))


def term_size(t: Term) -> int:
    """Number of symbols, counting every variable occurrence as 1."""
    if isinstance(t, Var):
        return 1
    return 1 + sum(term_size(a) for a in t.args)


def apply(s: Mapping[str, Term], t: Term) -> Term:
    """Homomorphic replacement of bound variables in `t`."""
    if isinstance(t, Var):
        return s.get(t.name, t)
    if not t.args:
        return t
    return Compound(t.functor, apply_all(s, t.args))


def apply_all(s: Mapping[str, Term], terms: Iterable[Term]) -> tuple[Term, ...]:
    """`apply` to each of `terms`. Variables and constants are handled
    inline; only a compound with arguments costs a recursive call."""
    return tuple([
        s.get(a.name, a) if isinstance(a, Var) else apply(s, a) if a.args else a
        for a in terms
    ])


def _occurs(name: str, t: Term, bind: Subst) -> bool:
    stack = [t]
    while stack:
        cur = stack.pop()
        while isinstance(cur, Var) and cur.name in bind:
            cur = bind[cur.name]
        if isinstance(cur, Var):
            if cur.name == name:
                return True
        else:
            stack.extend(cur.args)
    return False


def _resolve(t: Term, bind: Subst, memo: dict[str, Term]) -> Term:
    if isinstance(t, Var):
        if t.name in memo:
            return memo[t.name]
        if t.name in bind:
            r = _resolve(bind[t.name], bind, memo)
            memo[t.name] = r
            return r
        return t
    if not t.args:
        return t
    return Compound(t.functor, tuple(_resolve(a, bind, memo) for a in t.args))


def unify(
    pairs: Iterable[tuple[Term, Term]],
    keep: frozenset[str] = frozenset(),
    solved: Optional[Subst] = None,
) -> Optional[Subst]:
    """Most general unifier of all pairs, or None on clash/occurs check.

    The result is idempotent and never binds a variable to itself.
    Failure is an ordinary value, not an exception. A variable is bound to
    a term, and of two variables the later in the order "in `keep` first,
    then by name" is bound to the earlier, so each class of variables left
    equal is named by its first member. The result is therefore the same
    for any order or orientation of the pairs.

    `solved` is this function's result for earlier pairs under the same
    `keep`. It is extended by `pairs`, one equation at a time, as a solved
    form is (Martelli and Montanari, TOPLAS 4, 1982), and not solved
    again: it binds each variable to its final term and names each class
    by its first member, so the result is that of all pairs together.
    """
    bind: Subst = dict(solved) if solved else {}
    work = list(pairs)
    work.reverse()
    while work:
        l, r = work.pop()
        while isinstance(l, Var) and l.name in bind:
            l = bind[l.name]
        while isinstance(r, Var) and r.name in bind:
            r = bind[r.name]
        if l == r:
            continue
        if isinstance(r, Var) and (
            not isinstance(l, Var) or (l.name not in keep, l.name) < (r.name not in keep, r.name)
        ):
            l, r = r, l
        if isinstance(l, Var):
            if _occurs(l.name, r, bind):
                return None
            bind[l.name] = r
        else:
            if l.functor != r.functor or len(l.args) != len(r.args):
                return None
            work.extend(reversed(list(zip(l.args, r.args))))
    # The occurs check leaves no cycle, so no variable resolves to itself.
    memo: dict[str, Term] = {}
    return {v: _resolve(t, bind, memo) for v, t in bind.items()}


def match(pairs: Iterable[tuple[Term, Term]], bind: Optional[Subst] = None) -> Optional[Subst]:
    """One-way matching: bind pattern variables so each pattern equals its term.

    Variables on the term side are treated as constants. Returns the
    extended binding, or None when no consistent binding exists.
    """
    out: Subst = dict(bind) if bind else {}
    work = list(pairs)
    work.reverse()
    while work:
        p, t = work.pop()
        if isinstance(p, Var):
            if p.name in out:
                if out[p.name] != t:
                    return None
            else:
                out[p.name] = t
        else:
            if not isinstance(t, Compound):
                return None
            if p.functor != t.functor or len(p.args) != len(t.args):
                return None
            work.extend(reversed(list(zip(p.args, t.args))))
    return out


def fresh_mapping(avoid: set[str], names: Iterable[str], prefix: str = FRESH_PREFIX) -> Subst:
    """Injective renaming of `names` to fresh variables outside `avoid`.

    Fresh names are `prefix` plus a counter; the counter only moves
    forward, so the mapping is deterministic for a given input.
    """
    used = set(avoid)
    out: Subst = {}
    counter = 0
    for n in names:
        if n in out:
            continue
        while f"{prefix}{counter}" in used:
            counter += 1
        fresh = f"{prefix}{counter}"
        counter += 1
        used.add(fresh)
        out[n] = Var(fresh)
    return out


def rename_apart(avoid: set[str], value):
    """Alpha-rename every variable of `value` away from `avoid`: a term, or
    a value exposing `variables()` and `subst()` (a rule)."""
    if isinstance(value, (Var, Compound)):
        return apply(fresh_mapping(avoid, iter_vars(value)), value)
    return value.subst(fresh_mapping(avoid, value.variables()))
