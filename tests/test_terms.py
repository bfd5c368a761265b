from __future__ import annotations

import ast
import random
import subprocess
import sys

import pytest

from chrdc.syntax import Atom, Eq, atom_text, eq_text, term_text
from chrdc.terms import (
    Compound,
    Var,
    apply,
    fresh_mapping,
    iter_vars,
    match,
    term_size,
    term_vars,
    unify,
)
from helpers import (
    _match_into,
    check_value_semantics,
    instance_of,
    naive_apply,
    naive_unify_pairs,
    naive_vars,
    orient,
    random_atom,
    random_term,
)


def f(*args):
    return Compound("f", args)


def leq(x, y):
    return Compound("leq", (x, y))


a, b = Compound("a"), Compound("b")
X, Y, Z = Var("X"), Var("Y"), Var("Z")
X1, Y1 = Var("X1"), Var("Y1")


def test_unify_forced_by_matching():
    sigma = unify([(f(X, b), f(a, Y))])
    assert sigma == {"X": a, "Y": b}


def test_unify_occurs_check_fails():
    assert unify([(X, f(X))]) is None


def test_unify_clash_fails():
    assert unify([(f(a), f(b))]) is None
    assert unify([(a, f(X))]) is None


def test_unify_chained_pairs_is_mgu():
    pairs = [(leq(X1, Y1), leq(X, Y)), (leq(Y1, X1), leq(Y, Z))]
    sigma = unify(pairs)
    assert sigma is not None
    # Unifies every pair.
    for l, r in pairs:
        assert apply(sigma, l) == apply(sigma, r)
    # Most general: the independent oracle's result must be an instance
    # of sigma and vice versa (equal up to renaming).
    theta = naive_unify_pairs(pairs)
    variables = {"X", "Y", "Z", "X1", "Y1"}
    assert instance_of(sigma, theta, variables)
    assert instance_of(theta, sigma, variables)


def test_apply_examples():
    assert apply({"X": a}, f(X, Y)) == f(a, Y)
    assert apply({}, f(X)) == f(X)
    assert apply({"X": a, "Y": b}, leq(X, Y)) == leq(a, b)


def test_apply_is_idempotent_after_unify():
    rng = random.Random(7)
    for _ in range(300):
        t1 = random_term(rng, ["X", "Y", "Z"], 2)
        t2 = random_term(rng, ["X", "Y", "Z"], 2)
        sigma = unify([(t1, t2)])
        if sigma is None:
            assert naive_unify_pairs([(t1, t2)]) is None
            continue
        assert apply(sigma, t1) == apply(sigma, t2)
        for t in (t1, t2):
            once = apply(sigma, t)
            assert apply(sigma, once) == once
        for v, img in sigma.items():
            assert img != Var(v)


def test_every_enumerated_unifier_is_an_instance_of_the_mgu():
    from helpers import enumerate_unifiers, small_universe

    rng = random.Random(19)
    universe = small_universe(1)
    solvable = 0
    for _ in range(120):
        pairs = [(random_term(rng, ["X", "Y"], 1), random_term(rng, ["X", "Y"], 1))]
        variables = term_vars(pairs[0][0]) | term_vars(pairs[0][1])
        sigma = unify(pairs)
        ground = enumerate_unifiers(pairs, variables, universe)
        if sigma is None:
            assert ground == []
            continue
        solvable += 1
        for theta in ground:
            assert instance_of(sigma, theta, variables)
    assert solvable > 30


def test_unify_agrees_with_oracle_and_is_most_general():
    rng = random.Random(11)
    checked = 0
    for _ in range(300):
        pairs = [
            (random_term(rng, ["X", "Y"], 2), random_term(rng, ["X", "Y", "Z"], 2))
        ]
        sigma = unify(pairs)
        theta = naive_unify_pairs(pairs)
        assert (sigma is None) == (theta is None)
        if sigma is None:
            continue
        variables = term_vars(pairs[0][0]) | term_vars(pairs[0][1])
        assert instance_of(sigma, theta, variables)
        checked += 1
    assert checked > 50


def test_unify_names_each_class_by_its_first_member():
    # Of two variables `unify` binds the later in the order "in `keep`
    # first, then by name", so the result equals the oracle's unifier
    # re-oriented afterwards, and no order or orientation of the pairs
    # changes it. Extending the solved form of a prefix by the rest of the
    # pairs gives the same result, failure included.
    rng = random.Random(37)
    pool = ["X", "Y", "Z", "W", "V"]

    # Each fails or ties only once the second pair extends the first's
    # solved form: a clash, an occurs check, and a class named by its
    # member in `keep`, which is not its first by name.
    fixed = [
        ([(X, f(Y)), (X, a)], frozenset()),
        ([(X, f(Y)), (Y, X)], frozenset()),
        ([(Z, Y), (X, Z)], frozenset({"Y"})),
    ]

    def inputs():
        for _ in range(3000):
            pairs = []
            for _ in range(rng.randint(1, 4)):
                side = Var(rng.choice(pool))
                other = rng.choice([Var(rng.choice(pool)), random_term(rng, pool, 2)])
                pairs.append((side, other) if rng.random() < 0.5 else (other, side))
            yield pairs, frozenset(v for v in pool if rng.random() < 0.3)
        yield from fixed

    solvable = classes = extensions_fail = 0
    for pairs, keep in inputs():
        sigma = unify(pairs, keep)
        theta = naive_unify_pairs(pairs)
        assert (sigma is None) == (theta is None)
        for k in range(len(pairs) + 1):
            solved = unify(pairs[:k], keep)
            extended = None if solved is None else unify(pairs[k:], keep, solved)
            assert extended == sigma, (pairs, keep, k)
            extensions_fail += solved is not None and sigma is None
        if sigma is None:
            continue
        solvable += 1
        classes += any(isinstance(t, Var) for t in sigma.values())
        assert sigma == orient(theta, keep), (pairs, keep)
        for _ in range(3):
            mixed = [(r, l) if rng.random() < 0.5 else (l, r) for l, r in pairs]
            rng.shuffle(mixed)
            assert unify(mixed, keep) == sigma
    assert [unify(pairs[1:], keep, unify(pairs[:1], keep)) for pairs, keep in fixed] == [
        None, None, {"X": Y, "Z": Y}
    ]
    assert solvable > 2000 and classes > 1200, (solvable, classes)
    # With seed 37, 1,494 extensions of a solvable prefix fail.
    assert extensions_fail > 1200, extensions_fail


def test_term_walks_agree_with_naive_versions():
    # Variables and constants are handled inline; only compounds recurse.
    # Terms here hold constants, nested compounds, repeated variables and
    # variables at depth, which a walk that skipped a nested argument
    # would miss.
    rng = random.Random(29)
    pool = ["X", "Y", "Z"]
    deep = matched = 0
    for _ in range(400):
        terms = [random_term(rng, pool, depth=rng.randint(0, 4)) for _ in range(3)]
        # Images hold no variable of the domain, so one pass is the full
        # normal form that `naive_apply` computes.
        s = {
            v: random_term(rng, ["U", "W"], depth=2)
            for v in pool
            if rng.random() < 0.6
        }
        atom, eq = Atom("p", tuple(terms)), Eq(terms[0], terms[1])
        for t in terms:
            assert apply(s, t) == naive_apply(s, t)
            assert list(iter_vars(t)) == naive_vars(t)
            # A variable inside a compound argument.
            deep += any(isinstance(x, Compound) and naive_vars(x) for x in getattr(t, "args", ()))
        assert atom.subst(s) == Atom("p", tuple(naive_apply(s, t) for t in terms))
        assert eq.subst(s) == Eq(naive_apply(s, terms[0]), naive_apply(s, terms[1]))
        assert list(atom.iter_vars()) == [v for t in terms for v in naive_vars(t)]
        assert list(eq.iter_vars()) == naive_vars(terms[0]) + naive_vars(terms[1])
        # Match the first two terms against an instance of them, and against
        # two other terms, which mostly fail.
        pattern = terms[:2]
        for target in ([naive_apply(s, t) for t in pattern], [terms[2], terms[1]]):
            expected: dict | None = {}
            for pat, tgt in zip(pattern, target):
                expected = _match_into(pat, tgt, expected)
            assert match(zip(pattern, target)) == expected
            matched += expected is not None
    assert deep > 150 and 420 < matched < 780


def test_match_binds_pattern_side_only():
    got = match([(leq(X, Y), leq(a, Z))])
    assert got == {"X": a, "Y": Z}
    assert match([(leq(X, X), leq(a, b))]) is None
    assert match([(a, X)]) is None


def test_fresh_mapping_avoids_and_is_injective():
    avoid = {"X", "_V0", "_V2"}
    m = fresh_mapping(avoid, ["X", "Y", "X"])
    names = [v.name for v in m.values()]
    assert len(m) == 2
    assert len(set(names)) == 2
    assert not set(names) & avoid
    assert all(n.startswith("_V") for n in names)


def test_fresh_mapping_preserves_shape():
    t = leq(X, f(Y))
    m = fresh_mapping({"X"}, sorted(term_vars(t)))
    renamed = apply(m, t)
    assert renamed != t
    assert term_size(renamed) == term_size(t)
    back = {v.name: Var(k) for k, v in m.items()}
    assert apply(back, renamed) == t


def test_term_size():
    assert term_size(X) == 1
    assert term_size(a) == 1
    assert term_size(f(a, X)) == 3


def test_rename_apart_terms_and_rules():
    from chrdc.terms import rename_apart
    from chrdc.syntax import parse_program

    renamed = rename_apart({"X"}, leq(X, Y))
    assert isinstance(renamed, Compound)
    vs = term_vars(renamed)
    assert "X" not in vs and len(vs) == 2

    rule = parse_program("anti @ leq(X,Y), leq(Y,X) <=> X = Y.").rules[0]
    fresh = rename_apart({"X", "Y"}, rule)
    assert not set(fresh.variables()) & {"X", "Y"}
    assert len(fresh.variables()) == len(rule.variables())
    assert [a.pred for a in fresh.removed] == [a.pred for a in rule.removed]


def test_terms_atoms_and_equations_are_values():
    rng = random.Random(89)
    pool = ["X", "Y"]
    terms = [random_term(rng, pool, depth=2) for _ in range(120)]
    check_value_semantics(terms, term_text)
    check_value_semantics([random_atom(rng, pool, depth=1) for _ in range(120)], atom_text)
    eqs = [Eq(random_term(rng, pool, 1), random_term(rng, pool, 1)) for _ in range(120)]
    check_value_semantics(eqs, eq_text)
    # A variable never equals a constant of the same name.
    assert Var("a") != Compound("a") and Compound("a") != Var("a")
    assert len({Var("a"), Compound("a")}) == 2


@pytest.mark.parametrize(
    "value, field",
    [(X, "name"), (f(a), "functor"), (f(a), "args"), (Atom("p", (a,)), "pred"),
     (Atom("p", (a,)), "args"), (Eq(X, a), "lhs"), (Eq(X, a), "rhs")],
)
def test_setting_a_field_of_a_term_atom_or_equation_raises(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, a)


def test_fresh_imports_leave_one_copy_of_each_module():
    # The benchmark's set-up imports chrdc afresh 15 times in one process;
    # an alias cached by `typing` would keep every copy of `chrdc.terms`.
    code = """
import collections, gc, importlib, sys
for _ in range(15):
    for name in [n for n in sys.modules if n == "chrdc" or n.startswith("chrdc.")]:
        del sys.modules[name]
    importlib.import_module("chrdc.cli")
gc.collect()
names = collections.Counter(
    o["__name__"] for o in gc.get_objects()
    if isinstance(o, dict) and "__spec__" in o and str(o.get("__name__")).startswith("chrdc")
)
print(sorted(names.items()))
"""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    counts = dict(ast.literal_eval(out))
    assert "chrdc.terms" in counts
    assert {name: n for name, n in counts.items() if n != 1} == {}
