from __future__ import annotations

import random

import pytest

from chrdc.state import equivalent
from chrdc.syntax import (
    Atom,
    Eq,
    ParseError,
    Rule,
    parse_program,
    parse_state,
    program_text,
    rule_text,
    term_text,
)
from chrdc.terms import Compound, Var


def test_antisymmetry_rule_shape():
    p = parse_program("antisymmetry @ leq(X,Y), leq(Y,X) <=> X = Y.")
    (r,) = p.rules
    assert not r.is_propagation
    assert r.kept == ()
    assert r.removed == (
        Atom("leq", (Var("X"), Var("Y"))),
        Atom("leq", (Var("Y"), Var("X"))),
    )
    assert r.user_body == ()
    assert r.builtin_body == (Eq(Var("X"), Var("Y")),)


def test_transitivity_rule_shape():
    p = parse_program("transitivity @ leq(X,Y), leq(Y,Z) ==> leq(X,Z).")
    (r,) = p.rules
    assert r.is_propagation
    assert r.kept == (
        Atom("leq", (Var("X"), Var("Y"))),
        Atom("leq", (Var("Y"), Var("Z"))),
    )
    assert r.removed == ()
    assert r.user_body == (Atom("leq", (Var("X"), Var("Z"))),)


def test_simpagation_and_guard_and_semicolon():
    p = parse_program("r @ k(X) \\ h(X,Y) <=> X = a | b(Y) ; Y = X.")
    (r,) = p.rules
    assert r.kept == (Atom("k", (Var("X"),)),)
    assert r.removed == (Atom("h", (Var("X"), Var("Y"))),)
    assert r.guard == (Eq(Var("X"), Compound("a")),)
    assert r.user_body == (Atom("b", (Var("Y"),)),)
    assert r.builtin_body == (Eq(Var("Y"), Var("X")),)


def test_both_heads_empty_rejected():
    with pytest.raises(ParseError) as exc:
        parse_program("bad @ <=> true.")
    assert "both heads empty" in str(exc.value)


def test_duplicate_rule_name_rejected():
    with pytest.raises(ParseError) as exc:
        parse_program("r @ p(X) <=> true.\nr @ q(X) <=> true.")
    assert "duplicate rule name" in str(exc.value)


def test_arity_clash_rejected():
    with pytest.raises(ParseError) as exc:
        parse_program("r @ p(X) <=> true.\nr2 @ p(X,Y) <=> true.")
    assert "arity" in str(exc.value)


@pytest.mark.parametrize(
    "text, message",
    [
        ("r @ p(X), p(X, Y) <=> true.", "1:11: predicate p/2 clashes with earlier use at arity 1"),
        ("r @ p(f(X), f(X, Y)) <=> true.", "1:13: functor f/2 clashes with earlier use at arity 1"),
    ],
)
def test_arity_clash_message_names_the_symbol_and_both_arities(text, message):
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    assert str(exc.value) == message


def test_reserved_variable_prefix_rejected():
    with pytest.raises(ParseError) as exc:
        parse_program("r @ p(_V1) <=> true.")
    assert "reserved" in str(exc.value)


def test_malformed_token_has_position():
    with pytest.raises(ParseError) as exc:
        parse_program("r @ p(X) <=> $.")
    assert exc.value.line == 1
    assert "malformed" in str(exc.value)


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_program, "r @ p(X) <=> true", "1:18: expected '.', found end of input"),
        (parse_program, "r @ p(X) <=> q(", "1:16: expected a term, found end of input"),
        (parse_program, "r @ 1 <=> true.", "1:5: expected an atom, found '1'"),
        (parse_program, "r @ p(X) <=> , .", "1:14: expected an atom or equation, found ','"),
        (parse_program, "r @ p(X) q(X).", "1:10: expected '\\', '<=>' or '==>'"),
        (parse_program, "r @ p(X <=> true.", "1:9: expected ')', found '<=>'"),
        (parse_state, "p(a) # glob: X", "1:8: expected 'globals' after '#'"),
        (parse_state, "p(a) # globals X", "1:16: expected ':', found 'X'"),
        (parse_state, "p(a) q(b)", "1:6: expected end of input, found 'q'"),
        (parse_state, "leq(X", "1:6: expected ')', found end of input"),
    ],
)
def test_parse_error_messages(parse, text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


def test_integer_and_plus_sugar():
    p = parse_program("eat @ thk(X,Y,I), frk(X), frk(Y) <=> eat(X,Y,I+1).")
    (r,) = p.rules
    body_atom = r.user_body[0]
    assert body_atom.args[2] == Compound("+", (Var("I"), Compound("1")))


def test_plus_is_left_associative():
    p = parse_program("r @ p(X) <=> q(X+1+2).")
    arg = p.rules[0].user_body[0].args[0]
    assert arg == Compound(
        "+", (Compound("+", (Var("X"), Compound("1"))), Compound("2"))
    )
    assert term_text(arg) == "X+1+2"
    right = Compound("+", (Var("X"), Compound("+", (Compound("1"), Compound("2")))))
    assert term_text(right) == "X+(1+2)"


def test_false_in_body_is_inconsistency():
    p = parse_program("r @ p(X) <=> false.")
    (r,) = p.rules
    assert r.builtin_body == (Eq(Compound("0"), Compound("1")),)


def test_parse_state_with_globals_clause():
    s = parse_state("leq(X,Y), leq(Y,X) # globals: X, Y")
    assert s.atoms == (
        Atom("leq", (Var("X"), Var("Y"))),
        Atom("leq", (Var("Y"), Var("X"))),
    )
    assert s.globals == frozenset({"X", "Y"})


def test_parse_state_defaults_globals_to_free_vars():
    s = parse_state("frk(1), thk(1,2,0), frk(2), thk(2,1,0)")
    assert len(s.atoms) == 4
    assert s.globals == frozenset()
    s2 = parse_state("p(X), q(X, Y)")
    assert s2.globals == {"X", "Y"}


def test_parse_state_empty_globals_clause_makes_locals():
    s = parse_state("p(X) # globals:")
    assert s.globals == frozenset()


def test_program_pretty_round_trip_fixture(leq, philos, pminus, pplus):
    for program in (leq, philos, pminus, pplus):
        assert parse_program(program_text(program)) == program


def test_rule_pretty_forms():
    src = "r @ k(X) \\ h(X) <=> a(X).\nprop @ k(X) ==> h2(X), X = a.\nempty @ h(X) <=> true."
    p = parse_program(src)
    assert parse_program(program_text(p)) == p
    assert "==>" in rule_text(p.rules[1])
    assert "\\" in rule_text(p.rules[0])
    assert rule_text(p.rules[2]).endswith("<=> true.")


def test_state_pretty_round_trip_is_equivalent():
    from chrdc.state import state_text

    rng = random.Random(3)
    from helpers import random_state

    for _ in range(150):
        s = random_state(rng)
        again = parse_state(state_text(s))
        assert equivalent(s, again)


def test_comment_and_whitespace_tolerance():
    p = parse_program("% header\n  r @ p(X) <=> true. % trailing\n\n% tail\n")
    assert [r.name for r in p.rules] == ["r"]


@pytest.mark.parametrize(
    "text", ["r @ p(f(X)) <=> f(X, Y).", "r @ f(X, Y) <=> p(f(X))."]
)
def test_body_atom_may_reuse_a_functor_name_at_another_arity(text):
    (r,) = parse_program(text).rules
    assert Atom("f", (Var("X"), Var("Y"))) in r.heads + r.user_body
    assert r.builtin_body == ()


@pytest.mark.parametrize("text", ["p(f(a)), f(a, b)", "f(a, b), p(f(a))"])
def test_query_atom_may_reuse_a_functor_name_at_another_arity(text):
    s = parse_state(text)
    assert Atom("f", (Compound("a"), Compound("b"))) in s.atoms
    assert s.builtins == ()


def _earlier():
    return parse_program("r @ p(f(X)) <=> true.")


@pytest.mark.parametrize(
    "text, message",
    [
        ("s @ q(X) <=> true.\nt @ q(X), p(X, Y) <=> true.",
         "2:11: predicate p/2 clashes with earlier use at arity 1"),
        ("s @ q(X) <=> true.\nt @ q(X) <=> X = f(a, b).",
         "2:18: functor f/2 clashes with earlier use at arity 1"),
    ],
)
def test_program_is_read_against_the_arities_before_it(text, message):
    with pytest.raises(ParseError) as exc:
        parse_program(text, _earlier().arities)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("q(a),\n  p(a, b)", "2:3: predicate p/2 clashes with earlier use at arity 1"),
        ("p(a), q(f) # globals:", "1:9: functor f/0 clashes with earlier use at arity 1"),
    ],
)
def test_query_is_read_against_the_program_arities(text, message):
    with pytest.raises(ParseError) as exc:
        parse_state(text, _earlier().arities)
    assert str(exc.value) == message


def test_arities_hold_every_program_read_so_far():
    first = _earlier()
    second = parse_program("s @ q(g(X)) <=> p(X).", first.arities)
    assert first.arities == ({"p": 1}, {"f": 1})
    assert second.arities == ({"p": 1, "q": 1}, {"f": 1, "g": 1})
    parse_state("q(g(a)), p(f(b))", second.arities)
    assert second.arities == ({"p": 1, "q": 1}, {"f": 1, "g": 1})


@pytest.mark.parametrize(
    "text, col",
    [
        ("r @ p(X) <=> q(X) | true.", 10),
        ("r @ k(X) \\ p(X) <=> X = a, q(X) | true.", 17),
        ("r @ p(X) ==> q(X), X = a | true.", 10),
    ],
)
def test_guard_with_an_atom_is_rejected_at_the_arrow(text, col):
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    assert (exc.value.line, exc.value.col) == (1, col)
    assert exc.value.message == "guards may only contain equations"


@pytest.mark.parametrize(
    "body, user_body, builtin_body",
    [
        ("true", (), ()),
        ("false", (), (Eq(Compound("0"), Compound("1")),)),
        ("true(X)", (Atom("true", (Var("X"),)),), ()),
        ("true = X", (), (Eq(Compound("true"), Var("X")),)),
        ("false + a = b",
         (), (Eq(Compound("+", (Compound("false"), Compound("a"))), Compound("b")),)),
        ("true, q(X), true", (Atom("q", (Var("X"),)),), ()),
    ],
)
def test_true_and_false_alone_against_other_uses_of_the_names(body, user_body, builtin_body):
    (r,) = parse_program(f"r @ p(X) <=> {body}.").rules
    assert (r.user_body, r.builtin_body) == (user_body, builtin_body)


def test_semicolon_separates_query_items():
    s = parse_state("p(X); X = a; q # globals: X")
    assert s.atoms == (Atom("p", (Var("X"),)), Atom("q"))
    assert s.builtins == (Eq(Var("X"), Compound("a")),)


def _random_rule(rng: random.Random, name: str, signature: dict) -> Rule:
    """A rule over `signature`, name -> (predicate arity, functor arity),
    so that every name is a predicate at one arity and a functor at
    another."""
    names = sorted(signature)
    pool = ["X", "Y", "Z"]

    def term(depth: int):
        roll = rng.random()
        if roll < 0.3 or depth == 0:
            return Var(rng.choice(pool)) if roll < 0.2 else Compound(str(rng.randrange(3)))
        if roll < 0.4:
            return Compound("+", (term(depth - 1), term(depth - 1)))
        f = rng.choice(names)
        return Compound(f, tuple(term(depth - 1) for _ in range(signature[f][1])))

    def atom():
        p = rng.choice(names)
        return Atom(p, tuple(term(2) for _ in range(signature[p][0])))

    def atoms(least: int):
        return tuple(atom() for _ in range(rng.randint(least, 3)))

    def eqs():
        return tuple(Eq(term(2), term(2)) for _ in range(rng.randint(0, 2)))

    kept, removed = rng.choice([(atoms(1), ()), ((), atoms(1)), (atoms(1), atoms(1))])
    return Rule(name, kept, removed, eqs(), atoms(0), eqs())


@pytest.mark.parametrize("seed", range(20))
def test_random_rules_round_trip_through_rule_text(seed):
    rng = random.Random(seed)
    signature = {}
    for name in ("f", "g", "h", "k"):
        pred, fun = rng.sample(range(3), 2)
        signature[name] = (pred, fun)
    rules = tuple(_random_rule(rng, f"r{i}", signature) for i in range(8))
    text = "\n".join(rule_text(r) for r in rules)
    assert parse_program(text).rules == rules, text
