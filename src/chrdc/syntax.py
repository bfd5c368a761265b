"""Parser and pretty-printer for CHR programs and query states.

Surface syntax, Prolog-adjacent:

    % comment until end of line
    name @ kept \\ removed <=> guard | body .      simplification
    name @ removed <=> body .                      simplification, empty kept head
    name @ kept ==> guard | body .                 propagation

Variables match [A-Z_][A-Za-z0-9_]*, functors and predicates are
lowercase identifiers or integer literals, `+` is infix sugar for the
binary functor of the same name. A body is a comma list mixing user
atoms and `=` equations (`;` is accepted as a separator too); `true`
is the empty conjunction and `false` the inconsistent one. Queries are
written the same way with an optional `# globals: X, Y` suffix.

`Atom` and `Eq` are `NamedTuple` value types, like the terms they hold:
hashing and equality run in C. They compare equal by items across
types, so `Atom("p", args) == Compound("p", args)`; no set, dict or
`==` in chrdc mixes atoms with terms. `Rule` and `Program` are
`NamedTuple`s as well. A program compares by its rules and by its arity
tables, which only the parser fills, so two programs the parser read
from the same text in the same context are equal.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Union

from .terms import Compound, Term, Var, apply_all, iter_all_vars, FRESH_PREFIX


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Atom(NamedTuple):
    """A user constraint. Compares by items, so it equals a `Compound` of
    the same functor and arguments."""

    pred: str
    args: tuple[Term, ...] = ()

    def subst(self, s: Mapping[str, Term]) -> "Atom":
        return Atom(self.pred, apply_all(s, self.args))

    def iter_vars(self) -> Iterator[str]:
        return iter_all_vars(self.args)


class Eq(NamedTuple):
    """A built-in equation. Compares by items, as a 2-tuple."""

    lhs: Term
    rhs: Term

    def subst(self, s: Mapping[str, Term]) -> "Eq":
        return Eq._make(apply_all(s, self))

    def iter_vars(self) -> Iterator[str]:
        return iter_all_vars(self)


class Rule(NamedTuple):
    """A named rule. Compares by items, as a 6-tuple."""

    name: str
    kept: tuple[Atom, ...]
    removed: tuple[Atom, ...]
    guard: tuple[Eq, ...]
    user_body: tuple[Atom, ...]
    builtin_body: tuple[Eq, ...]

    @property
    def is_propagation(self) -> bool:
        return not self.removed

    @property
    def heads(self) -> tuple[Atom, ...]:
        return self.kept + self.removed

    def variables(self) -> list[str]:
        """Variable names in first-occurrence order."""
        seen: dict[str, None] = {}
        for part in (self.kept, self.removed, self.guard, self.user_body, self.builtin_body):
            for item in part:
                for v in item.iter_vars():
                    seen.setdefault(v)
        return list(seen)

    def subst(self, s: Mapping[str, Term]) -> "Rule":
        return Rule(
            self.name,
            tuple(a.subst(s) for a in self.kept),
            tuple(a.subst(s) for a in self.removed),
            tuple(e.subst(s) for e in self.guard),
            tuple(a.subst(s) for a in self.user_body),
            tuple(e.subst(s) for e in self.builtin_body),
        )


# Predicate and functor arity tables, name -> arity, as the parser fills them.
Arities = tuple[dict[str, int], dict[str, int]]


class Program(NamedTuple):
    rules: tuple[Rule, ...]
    # The parser's tables: those of the programs read before this one plus
    # this one's, so that later files and queries are checked against them;
    # None for a program built without the parser.
    arities: Optional[Arities] = None

    def rule_names(self) -> list[str]:
        return [r.name for r in self.rules]


# ---------------------------------------------------------------------------
# Tokenizer

# Each token kind in match order, with its pattern and its name in error
# messages. Whitespace and comments are dropped, so no message names them;
# EOF ends every input and has no pattern.
_TOKENS = (
    ("WS", r"\s+", None),
    ("COMMENT", r"%[^\n]*", None),
    ("SIMP", r"<=>", "'<=>'"),
    ("PROP", r"==>", "'==>'"),
    ("VAR", r"[A-Z_][A-Za-z0-9_]*", "a variable"),
    ("NAME", r"[a-z][A-Za-z0-9_]*", "an identifier"),
    ("INT", r"\d+", "an integer"),
    ("AT", r"@", "'@'"),
    ("BSLASH", r"\\", "'\\'"),
    ("PIPE", r"\|", "'|'"),
    ("COMMA", r",", "','"),
    ("SEMI", r";", "';'"),
    ("LPAREN", r"\(", "'('"),
    ("RPAREN", r"\)", "')'"),
    ("DOT", r"\.", "'.'"),
    ("EQ", r"=", "'='"),
    ("PLUS", r"\+", "'+'"),
    ("HASH", r"#", "'#'"),
    ("COLON", r":", "':'"),
    ("EOF", None, "end of input"),
)
_TOKEN_RE = re.compile(
    "|".join(f"(?P<{kind}>{pattern})" for kind, pattern, _ in _TOKENS if pattern)
)
_TOKEN_NAMES = {kind: name for kind, _, name in _TOKENS}


class _Tok(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"malformed token {text[pos]!r}", line, col)
        kind = m.lastgroup or ""
        value = m.group()
        if kind not in ("WS", "COMMENT"):
            toks.append(_Tok(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    toks.append(_Tok("EOF", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, text: str, arities: Optional[Arities] = None):
        self.toks = _tokenize(text)
        self.pos = 0
        # Copies, so that the tables of what was read before stay as they were.
        preds, funs = arities or ({}, {})
        self.pred_arity: dict[str, int] = dict(preds)
        self.fun_arity: dict[str, int] = dict(funs)

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> _Tok:
        if self.peek().kind != kind:
            raise self.unexpected(_TOKEN_NAMES[kind])
        return self.next()

    def error(self, msg: str) -> ParseError:
        t = self.peek()
        return ParseError(msg, t.line, t.col)

    def unexpected(self, what: str) -> ParseError:
        """`expected <what>, found <the next token>`, at that token."""
        t = self.peek()
        found = _TOKEN_NAMES["EOF"] if t.kind == "EOF" else repr(t.value)
        return self.error(f"expected {what}, found {found}")

    # -- terms ------------------------------------------------------------

    def parse_var(self) -> Var:
        t = self.expect("VAR")
        if t.value.startswith(FRESH_PREFIX):
            raise ParseError(
                f"variable prefix {FRESH_PREFIX!r} is reserved", t.line, t.col
            )
        return Var(t.value)

    def _check_arity(self, kind: str, table: dict[str, int], arity: int, tok: _Tok) -> None:
        """Record `tok`'s symbol at `arity`; a second arity is an error."""
        prev = table.get(tok.value)
        if prev is not None and prev != arity:
            raise ParseError(
                f"{kind} {tok.value}/{arity} clashes with earlier use at arity {prev}",
                tok.line, tok.col,
            )
        table[tok.value] = arity

    def parse_primary(self) -> Term:
        t = self.peek()
        if t.kind == "VAR":
            return self.parse_var()
        if t.kind == "INT":
            self.next()
            self._check_arity("functor", self.fun_arity, 0, t)
            return Compound(t.value)
        if t.kind == "LPAREN":
            self.next()
            inner = self.parse_term()
            self.expect("RPAREN")
            return inner
        if t.kind == "NAME":
            self.next()
            if self.peek().kind == "LPAREN":
                self.next()
                args = [self.parse_term()]
                while self.peek().kind == "COMMA":
                    self.next()
                    args.append(self.parse_term())
                self.expect("RPAREN")
                self._check_arity("functor", self.fun_arity, len(args), t)
                return Compound(t.value, tuple(args))
            self._check_arity("functor", self.fun_arity, 0, t)
            return Compound(t.value)
        raise self.unexpected("a term")

    def parse_term(self) -> Term:
        left = self.parse_primary()
        while self.peek().kind == "PLUS":
            self.next()
            right = self.parse_primary()
            left = Compound("+", (left, right))
        return left

    # -- atoms and items ---------------------------------------------------

    def parse_atom(self) -> Atom:
        t = self.peek()
        if t.kind != "NAME":
            raise self.unexpected("an atom")
        self.next()
        args: list[Term] = []
        if self.peek().kind == "LPAREN":
            self.next()
            args.append(self.parse_term())
            while self.peek().kind == "COMMA":
                self.next()
                args.append(self.parse_term())
            self.expect("RPAREN")
        self._check_arity("predicate", self.pred_arity, len(args), t)
        return Atom(t.value, tuple(args))

    def _opens_equation(self) -> bool:
        """Whether the item at a name is an equation: `=` or `+`, which no
        atom allows, follows the name and its argument list."""
        toks, i = self.toks, self.pos + 1
        if toks[i].kind == "LPAREN":
            depth, i = 1, i + 1
            while depth and toks[i].kind != "EOF":
                depth += (toks[i].kind == "LPAREN") - (toks[i].kind == "RPAREN")
                i += 1
        return toks[i].kind in ("EQ", "PLUS")

    def parse_item(self) -> Union[Atom, Eq, None]:
        """One body or query item: an `Atom`, an `Eq`, or None for `true`."""
        t = self.peek()
        if t.kind == "NAME" and not self._opens_equation():
            if t.value in ("true", "false") and self.toks[self.pos + 1].kind != "LPAREN":
                self.next()
                # An inconsistent store is encoded as a clash between constants.
                return None if t.value == "true" else Eq(Compound("0"), Compound("1"))
            return self.parse_atom()
        if t.kind in ("NAME", "VAR", "INT", "LPAREN"):
            lhs = self.parse_term()
            self.expect("EQ")
            return Eq(lhs, self.parse_term())
        raise self.unexpected("an atom or equation")

    def parse_list(self, parse_one: Callable[[], object], seps=("COMMA",)) -> list:
        """`parse_one`, then again after each separator."""
        out = [parse_one()]
        while self.peek().kind in seps:
            self.next()
            out.append(parse_one())
        return out

    def parse_items(self) -> tuple[tuple[Atom, ...], tuple[Eq, ...]]:
        """A conjunction, split into its atoms and its equations."""
        items = self.parse_list(self.parse_item, ("COMMA", "SEMI"))
        return (
            tuple(i for i in items if isinstance(i, Atom)),
            tuple(i for i in items if isinstance(i, Eq)),
        )

    # -- rules -------------------------------------------------------------

    def parse_rule(self) -> Rule:
        name_tok = self.expect("NAME")
        self.expect("AT")
        if self.peek().kind in ("SIMP", "PROP"):
            raise ParseError("both heads empty", name_tok.line, name_tok.col)
        first = self.parse_list(self.parse_atom)
        kept: list[Atom] = []
        removed: list[Atom] = []
        if self.peek().kind == "BSLASH":
            self.next()
            kept = first
            removed = self.parse_list(self.parse_atom)
            arrow = self.expect("SIMP")
        elif self.peek().kind == "SIMP":
            removed = first
            arrow = self.next()
        elif self.peek().kind == "PROP":
            kept = first
            arrow = self.next()
        else:
            raise self.error("expected '\\', '<=>' or '==>'")

        user_body, builtin_body = self.parse_items()
        guard: tuple[Eq, ...] = ()
        if self.peek().kind == "PIPE":
            self.next()
            if user_body:
                raise ParseError("guards may only contain equations", arrow.line, arrow.col)
            guard = builtin_body
            user_body, builtin_body = self.parse_items()
        self.expect("DOT")
        return Rule(
            name_tok.value, tuple(kept), tuple(removed), guard, user_body, builtin_body
        )

    def parse_program(self) -> Program:
        rules: list[Rule] = []
        names: set[str] = set()
        while self.peek().kind != "EOF":
            t = self.peek()
            rule = self.parse_rule()
            if rule.name in names:
                raise ParseError(f"duplicate rule name {rule.name!r}", t.line, t.col)
            names.add(rule.name)
            rules.append(rule)
        return Program(tuple(rules), (self.pred_arity, self.fun_arity))

    def parse_state_parts(self):
        atoms, eqs = ((), ()) if self.peek().kind in ("HASH", "EOF") else self.parse_items()
        globals_: Optional[list[str]] = None
        if self.peek().kind == "HASH":
            self.next()
            kw = self.expect("NAME")
            if kw.value != "globals":
                raise ParseError("expected 'globals' after '#'", kw.line, kw.col)
            self.expect("COLON")
            globals_ = []
            if self.peek().kind == "VAR":
                globals_ = [v.name for v in self.parse_list(self.parse_var)]
        self.expect("EOF")
        return atoms, eqs, globals_


def parse_program(text: str, arities: Optional[Arities] = None) -> Program:
    """Parse a program. With `arities`, the tables of the programs read
    before it, a name must keep the arity it had there; the result's
    `Program.arities` holds the tables of every program read so far."""
    return _Parser(text, arities).parse_program()


def parse_state(text: str, arities: Optional[Arities] = None):
    """Parse a query state; globals default to all free variables.

    With a program's `arities`, which hold the tables of every program
    read so far, the query must use its names at the same arities."""
    from .state import State

    atoms, eqs, globals_ = _Parser(text, arities).parse_state_parts()
    if globals_ is None:
        globals_ = State(atoms, eqs, frozenset()).free_vars()
    return State(atoms, eqs, frozenset(globals_))


def parse_program_file(path: str, arities: Optional[Arities] = None) -> Program:
    """Parse a program file against `arities` as `parse_program` does, so
    that its `Program.arities` hold the tables of every program read so
    far; a parse error's message names the file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_program(text, arities)
    except ParseError as exc:
        exc.args = (f"{path}:{exc}",)
        raise


# ---------------------------------------------------------------------------
# Pretty-printing

def term_text(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if t.functor == "+" and len(t.args) == 2:
        left, right = t.args
        rtxt = term_text(right)
        if isinstance(right, Compound) and right.functor == "+" and len(right.args) == 2:
            rtxt = f"({rtxt})"
        return f"{term_text(left)}+{rtxt}"
    if not t.args:
        return t.functor
    return f"{t.functor}({', '.join(term_text(a) for a in t.args)})"


def atom_text(a: Atom) -> str:
    if not a.args:
        return a.pred
    return f"{a.pred}({', '.join(term_text(x) for x in a.args)})"


def eq_text(e: Eq) -> str:
    return f"{term_text(e.lhs)} = {term_text(e.rhs)}"


def conjunction_text(atoms: tuple[Atom, ...], eqs: tuple[Eq, ...]) -> str:
    """Atoms, then equations, as a comma list; `true` when both are empty."""
    return ", ".join([*map(atom_text, atoms), *map(eq_text, eqs)]) or "true"


def rule_text(r: Rule) -> str:
    body_txt = conjunction_text(r.user_body, r.builtin_body)
    if r.guard:
        body_txt = f"{conjunction_text((), r.guard)} | {body_txt}"
    if r.is_propagation:
        heads = ", ".join(atom_text(a) for a in r.kept)
        return f"{r.name} @ {heads} ==> {body_txt}."
    removed = ", ".join(atom_text(a) for a in r.removed)
    if r.kept:
        kept = ", ".join(atom_text(a) for a in r.kept)
        return f"{r.name} @ {kept} \\ {removed} <=> {body_txt}."
    return f"{r.name} @ {removed} <=> {body_txt}."


def program_text(p: Program) -> str:
    return "\n".join(rule_text(r) for r in p.rules) + ("\n" if p.rules else "")
