from __future__ import annotations

import itertools
import random
import time

import pytest

from chrdc import analysis
from chrdc.analysis import SearchBudget, check_rule_decreasing, join_search, live_rules
from chrdc.cli import main
from chrdc.config import load_config_file, resolve_tactics
from chrdc.orders import (
    MAX_ORDERS,
    Partition,
    RulePreorder,
    admissible_total_preorders,
    check_inductive_termination,
    fubini,
    is_admissible,
)
from chrdc.peaks import classify, critical_peaks
from chrdc.reports import admissible_fields
from chrdc.syntax import parse_program, parse_state
from conftest import FIXTURES, fixture_path
from helpers import product_admissible_levels, star_sides


def test_partition_fills_missing_side(leq):
    part = Partition.for_program(leq, coinductive=["transitivity"])
    assert part.inductive == {"duplicate", "reflexivity", "antisymmetry"}
    part = Partition.for_program(leq)
    assert part.coinductive == frozenset()
    with pytest.raises(ValueError):
        Partition.for_program(leq, inductive=["nope"])
    with pytest.raises(ValueError):
        Partition.for_program(leq, inductive=["duplicate"], coinductive=["duplicate"])


def test_partition_leaving_a_rule_out_is_rejected(leq):
    with pytest.raises(ValueError, match=r"rules in neither part: \['antisymmetry', 'reflexivity'\]"):
        Partition.for_program(leq, inductive=["duplicate"], coinductive=["transitivity"])


def test_closure_is_reflexive_and_transitive():
    order = RulePreorder("abc", [("a", "b"), ("b", "c")])
    for x in "abc":
        assert order.geq(x, x)
    assert order.geq("a", "c")
    assert order.strictly_greater("a", "c")
    assert not order.geq("c", "a")


def test_declared_strict_pair_must_stay_strict():
    with pytest.raises(ValueError):
        RulePreorder.from_declarations(
            "ab", [("a", ">", "b"), ("b", ">=", "a")]
        )
    order = RulePreorder.from_declarations("ab", [("a", ">=", "b"), ("b", ">=", "a")])
    assert order.geq("a", "b") and order.geq("b", "a")
    assert not order.strictly_greater("a", "b")


def test_strict_part_is_acyclic():
    rng = random.Random(67)
    carrier = ["r0", "r1", "r2", "r3"]
    for _ in range(100):
        pairs = [
            (rng.choice(carrier), rng.choice(carrier)) for _ in range(rng.randint(0, 6))
        ]
        order = RulePreorder(carrier, pairs)
        # A strict cycle would need a > ... > a, impossible for a preorder.
        for a, b in itertools.permutations(carrier, 2):
            assert not (order.strictly_greater(a, b) and order.strictly_greater(b, a))


def test_down_sets_match_brute_force():
    rng = random.Random(71)
    carrier = ["r0", "r1", "r2", "r3"]
    for _ in range(120):
        pairs = [
            (rng.choice(carrier), rng.choice(carrier)) for _ in range(rng.randint(0, 5))
        ]
        order = RulePreorder(carrier, pairs)
        keys = rng.sample(carrier, rng.randint(1, 3))
        brute_eq = {
            c for c in carrier if any(order.geq(k, c) for k in keys)
        }
        brute_strict = {
            c
            for c in carrier
            if any(order.geq(k, c) and not order.geq(c, k) for k in keys)
        }
        assert order.down_eq(keys) == brute_eq
        assert order.down_strict(keys) == brute_strict


def test_admissibility_examples(leq):
    part = Partition.for_program(leq, coinductive=["transitivity"])
    order = RulePreorder.from_declarations(
        leq.rule_names(),
        [("transitivity", ">", r) for r in sorted(part.inductive)],
    )
    assert is_admissible(order, part).ok

    empty_co = Partition.for_program(leq)
    assert is_admissible(RulePreorder.discrete(leq.rule_names()), empty_co).ok

    equal = RulePreorder.from_declarations(
        leq.rule_names(),
        [("transitivity", ">=", "duplicate"), ("duplicate", ">=", "transitivity")],
    )
    res = is_admissible(equal, part)
    assert not res.ok
    assert res.witness == ("transitivity", "antisymmetry")


def test_admissible_enumeration_counts(pminus):
    part = Partition.for_program(pminus, coinductive=["sminus"])
    orders = list(admissible_total_preorders(pminus, part))
    assert len(orders) == 1
    assert orders[0].strictly_greater("sminus", "duplicate")
    all_co = Partition.for_program(pminus, coinductive=pminus.rule_names())
    assert len(list(admissible_total_preorders(pminus, all_co))) == 3


def test_termination_of_leq_inductive_part(leq):
    part = Partition.for_program(leq, coinductive=["transitivity"])
    assert check_inductive_termination(leq, part).status == "VERIFIED"
    whole = Partition.for_program(leq)
    res = check_inductive_termination(leq, whole)
    assert res.status == "REFUTED"
    assert res.witness == "transitivity"
    assert check_inductive_termination(leq, whole, assume_terminating=True).status == "ASSUMED"


def test_termination_pminus_verified_by_size(pminus):
    part = Partition.for_program(pminus)
    assert check_inductive_termination(pminus, part).status == "VERIFIED"


def test_termination_pplus_refuted(pplus):
    part = Partition.for_program(pplus)
    res = check_inductive_termination(pplus, part)
    assert res.status == "REFUTED"
    assert res.witness == "splus"


def test_termination_needs_vacuous_inductive_part_for_thk(philos):
    part = Partition.for_program(philos, coinductive=["eat"])
    res = check_inductive_termination(philos, part)
    assert res.status == "REFUTED"
    assert res.witness == "thk"
    all_co = Partition.for_program(philos, coinductive=["eat", "thk"])
    assert check_inductive_termination(philos, all_co).status == "VERIFIED"


def test_size_measure_requires_clean_builtin_body():
    p = parse_program("r @ p(s(X)) <=> p(X), X = a.")
    res = check_inductive_termination(p, Partition.for_program(p))
    assert res.status == "REFUTED"
    p2 = parse_program("r @ p(s(X)) <=> p(X).")
    assert check_inductive_termination(p2, Partition.for_program(p2)).status == "VERIFIED"


def test_size_measure_counts_variable_occurrences():
    dup_var = parse_program("r @ q(s(X), a) <=> q(X, X).")
    res = check_inductive_termination(dup_var, Partition.for_program(dup_var))
    assert res.status == "REFUTED"
    kept_var = parse_program("r @ k(X) \\ p(s(Y)) <=> p(X).")
    assert check_inductive_termination(kept_var, Partition.for_program(kept_var)).status == "REFUTED"
    fresh_var = parse_program("r @ p(s(X)) <=> p(Y).")
    assert check_inductive_termination(fresh_var, Partition.for_program(fresh_var)).status == "VERIFIED"


@pytest.mark.parametrize(
    "rule, decreases",
    [
        # Each shrinks in size; all but the last are refuted by one guard.
        ("p(f(a), X) <=> p(X, X)", False),  # a head variable is duplicated
        ("q(X) \\ p(f(a, a)) <=> p(X)", False),  # a kept-head variable is copied
        ("p(f(X)) <=> p(X), X = a", False),  # the built-in body binds
        ("p(f(X), Y) <=> p(Y, X)", True),
    ],
)
def test_size_measure_guards_apply_when_the_size_shrinks(rule, decreases):
    p = parse_program(f"r @ {rule}.")
    res = check_inductive_termination(p, Partition.for_program(p))
    assert (res.status == "VERIFIED") == decreases


def test_a_rule_that_rewrites_an_atom_into_itself_is_not_verified(tmp_path, capsys):
    # `r` fires forever from any `p` atom: the measure keeps both its atom
    # count and its size, so it must not decrease strictly.
    text = "r @ p(X) <=> p(X).\n"
    p = parse_program(text)
    assert check_inductive_termination(p, Partition.for_program(p)).status != "VERIFIED"
    program = tmp_path / "loop.chr"
    program.write_text(text)
    assert main(["check", "--mode", "local", str(program)]) == 1
    assert "CONFLUENT" not in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Admissible order enumeration and the order search

def _with_fresh(core: str, m: int, before: bool = False):
    """A core program plus m fresh terminating rules `ri @ ai(X) <=> true.`,
    after the core or, with `before`, ahead of it."""
    fresh = "".join(f"r{i} @ a{i}(X) <=> true.\n" for i in range(m))
    return parse_program(fresh + core if before else core + fresh)


# Its one coinductive peak, al against be on a(X), c(X), closes only when
# be > de: the right side must take a de step before the al step, and the
# star shape admits that only strictly below be.
GADGET = (
    "al @ a(X) <=> b(X).\n"
    "be @ a(X), c(X) <=> d(f(X)).\n"
    "de @ d(f(X)) <=> a(X).\n"
    "ep @ c(X) <=> true.\n"
)
# The same rules with be last: failing and closing orders then differ only
# in the level of the last rule the peak reads.
GADGET_BE_LAST = "".join(GADGET.splitlines(keepends=True)[i] for i in (0, 2, 3, 1))


def _same_relation(order: RulePreorder, names, level: dict) -> bool:
    return all(
        order.geq(a, b) == (level[a] >= level[b])
        and order.strictly_greater(a, b) == (level[a] > level[b])
        for a in names for b in names
    )


def _order_count(part: Partition) -> int:
    return fubini(len(part.inductive)) * fubini(len(part.coinductive))


def test_fubini_numbers():
    assert [fubini(n) for n in range(8)] == [1, 1, 3, 13, 75, 541, 4683, 47293]


def test_admissible_orders_follow_the_product_oracle():
    for n in range(1, 7):
        program = _with_fresh("", n)
        names = program.rule_names()
        for mask in range(2 ** n):
            co = [name for i, name in enumerate(names) if mask >> i & 1]
            part = Partition.for_program(program, coinductive=co)
            expected = list(product_admissible_levels(names, part))
            got = list(admissible_total_preorders(program, part))
            assert len(got) == len(expected) == _order_count(part)
            for order, levels in zip(got, expected):
                assert _same_relation(order, names, dict(zip(names, levels)))


def test_admissible_orders_are_generated_lazily(monkeypatch):
    # The first of Fubini(8) orders builds one order, not all of them; the
    # count pins the work beside the time bound.
    built = []

    def counting(*args, _f=RulePreorder.from_levels):
        built.append(args)
        return _f(*args)

    monkeypatch.setattr(RulePreorder, "from_levels", staticmethod(counting))
    program = _with_fresh("", 8)
    part = Partition.for_program(program, coinductive=["r7"])
    start = time.perf_counter()
    first = next(admissible_total_preorders(program, part))
    assert time.perf_counter() - start < 0.1
    assert len(built) == 1
    names = program.rule_names()
    assert _same_relation(first, names, {n: int(n == "r7") for n in names})


def test_empty_program_has_one_admissible_order():
    empty = parse_program("% empty")
    part = Partition.for_program(empty)
    assert len(list(admissible_total_preorders(empty, part))) == 1
    rep = check_rule_decreasing(empty, part, None, SearchBudget(), enumerate_orders=True)
    assert rep.established
    assert dict(admissible_fields(rep)) == {
        "orders_tried": "1", "found": "true", "order": "discrete"
    }


def test_live_rules():
    program = parse_program(
        "a @ p(X) <=> q(X).\n"
        "b @ q(X) <=> true.\n"
        "c @ p(X), r(X) <=> true.\n"
        "d @ s(X) ==> r(X).\n"
    )
    # b fires only on what a produces; c also needs r, which only d
    # produces, and d needs s.
    assert live_rules(program, [parse_state("p(a)")]) == {"a", "b"}
    assert live_rules(program, [parse_state("p(a)"), parse_state("s(a)")]) == {
        "a", "b", "c", "d"
    }
    assert live_rules(program, [parse_state("r(a)")]) == frozenset()


def _walk_orders(program, part, budget, tactics):
    """The check's choice by a plain walk over the oracle's orders with one
    star search per coinductive peak and order: the first order that closes
    every coinductive peak, else the first order."""
    names = program.rule_names()
    peaks = critical_peaks(program, program)
    co = [i for i, pk in enumerate(peaks) if classify(pk, part) == "coinductive"]
    first = None
    for levels in itertools.islice(product_admissible_levels(names, part), MAX_ORDERS):
        level = dict(zip(names, levels))
        order = RulePreorder(names, [(a, b) for a in names for b in names if level[a] >= level[b]])
        verdicts = {
            i: join_search(
                peaks[i], star_sides(program, peaks[i], order), "DECREASING", budget, i,
                tactics.get(i),
            )
            for i in co
        }
        if all(v.closed for v in verdicts.values()):
            return level, verdicts
        first = first or (level, verdicts)
    return first


@pytest.mark.parametrize("core,coinductive,m", [
    ("pplus.chr", ["splus"], 0),
    ("pplus.chr", ["splus"], 1),
    ("pplus.chr", ["splus"], 2),
    ("pplus.chr", ["duplicate", "splus"], 1),
    ("leq.chr", ["transitivity"], 1),
    ("leq.chr", ["transitivity"], 2),
    ("leq.chr", ["transitivity"], 3),
    ("philos.chr", ["eat", "thk"], 0),
    ("philos.chr", ["eat", "thk"], 2),
    # r0 never fires on a philos peak, so orders that differ only in r0's
    # place share a search before eat > thk closes the peaks.
    ("philos.chr", ["eat", "thk", "r0"], 2),
    # m < 0 puts -m fresh rules ahead of the core, so that the peaks'
    # relevant rules get their levels last.
    pytest.param("pplus.chr", ["splus"], -2, id="pplus.chr-splus-fresh2-first"),
    pytest.param("pplus.chr", ["duplicate", "splus"], -2, id="pplus.chr-both-fresh2-first"),
    pytest.param("leq.chr", ["transitivity"], -3, id="leq.chr-transitivity-fresh3-first"),
    pytest.param("philos.chr", ["eat", "thk"], -2, id="philos.chr-eat-thk-fresh2-first"),
    pytest.param("philos.chr", ["eat", "thk", "r1"], -2, id="philos.chr-r1-fresh2-first"),
    pytest.param(GADGET, ["al"], 3, id="gadget-al-fresh3"),
    pytest.param(GADGET, ["al"], -3, id="gadget-al-fresh3-first"),
    pytest.param(GADGET, ["al", "r0"], 2, id="gadget-al-r0-fresh2"),
    pytest.param(GADGET_BE_LAST, ["al"], 2, id="gadget-be-last-al-fresh2"),
])
def test_order_search_matches_a_plain_walk(core, coinductive, m):
    """`core` is a fixture name or a program's text."""
    text = core if "@" in core else (FIXTURES / core).read_text()
    program = _with_fresh(text, abs(m), before=m < 0)
    part = Partition.for_program(program, coinductive=coinductive)
    tactics = {}
    if core == "philos.chr":
        cfg = load_config_file(fixture_path("philos_tactic.cfg"))
        tactics = resolve_tactics(
            cfg, critical_peaks(program, program), set(program.rule_names())
        )
    budget = SearchBudget()
    rep = check_rule_decreasing(
        program, part, None, budget, tactics=tactics, enumerate_orders=True
    )
    level, verdicts = _walk_orders(program, part, budget, tactics)
    assert _same_relation(rep.order, program.rule_names(), level)
    assert {v.index: v for v in rep.verdicts if v.index in verdicts} == verdicts
    assert dict(admissible_fields(rep))["orders_tried"] == str(_order_count(part))


def _coin_flip_star_search(seed: int):
    """A stand-in for `join_search` whose star verdicts are coin flips on
    what the star shape can matter for: each side's prefix, onward and
    tail labels among the peak's live rules. Other searches are real."""
    real = join_search

    def search(peak, sides, status, budget, index, tactics=None, **kwargs):
        if status != "DECREASING":
            return real(peak, sides, status, budget, index, tactics, **kwargs)
        live = live_rules(sides[0][0], (peak.left, peak.right))
        shape = [index]
        for _, auto in sides:
            first = auto.moves[0]
            shape += [
                sorted(live.intersection(lab for lab, to in first.items() if 0 in to)),
                sorted(live.intersection(lab for lab, to in first.items() if 1 in to)),
                sorted(live.intersection(auto.moves[1])),
            ]
        coin = random.Random(repr((seed, shape))).random() < 0.15
        return analysis.PeakVerdict(index, status if coin else "NOT_CLOSED")

    return search


@pytest.mark.parametrize("seed", range(40))
def test_order_search_matches_a_plain_walk_on_coin_flip_verdicts(monkeypatch, seed):
    # Arbitrary verdicts that depend only on the star shape on the live
    # rules: the cuts must keep the first closing order of a plain walk.
    # Few shapes close, so the walks pass many failing orders first.
    rng = random.Random(seed)
    search = _coin_flip_star_search(seed)
    monkeypatch.setattr(analysis, "join_search", search)
    monkeypatch.setitem(globals(), "join_search", search)
    for core in ("pplus.chr", "leq.chr", "philos.chr", GADGET, GADGET_BE_LAST):
        text = core if "@" in core else (FIXTURES / core).read_text()
        program = _with_fresh(text, rng.randint(0, 2), before=rng.random() < 0.5)
        names = program.rule_names()
        coinductive = rng.sample(names, rng.randint(1, min(3, len(names))))
        part = Partition.for_program(program, coinductive=coinductive)
        budget = SearchBudget(max_depth=4, max_states=200)
        rep = check_rule_decreasing(
            program, part, None, budget, enumerate_orders=True, assume_terminating=True
        )
        level, verdicts = _walk_orders(program, part, budget, {})
        if not all(v.closed for v in rep.verdicts if v.index not in verdicts):
            continue  # a failed inductive peak ends the walk at its first order
        assert _same_relation(rep.order, names, level)
        assert {v.index: v for v in rep.verdicts if v.index in verdicts} == verdicts


def test_closing_order_among_4683_is_found_quickly(monkeypatch):
    pulled = []

    def counting(*args, **kwargs):
        for order in admissible_total_preorders(*args, **kwargs):
            pulled.append(order)
            yield order

    monkeypatch.setattr(analysis, "admissible_total_preorders", counting)
    program = _with_fresh((FIXTURES / "leq.chr").read_text(), 3)
    part = Partition.for_program(program, coinductive=["transitivity"])
    start = time.perf_counter()
    rep = check_rule_decreasing(program, part, None, SearchBudget(), enumerate_orders=True)
    assert time.perf_counter() - start < 1.0
    assert rep.established
    fields = dict(admissible_fields(rep))
    assert fields["orders_tried"] == "4683" and fields["found"] == "true"
    assert len(pulled) == 1  # the first order closes, so no other is built


def test_541_failing_orders_share_one_star_search(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return join_search(*args, **kwargs)

    monkeypatch.setattr(analysis, "join_search", counting)
    program = _with_fresh((FIXTURES / "pplus.chr").read_text(), 4)
    part = Partition.for_program(program, coinductive=["splus"])
    start = time.perf_counter()
    rep = check_rule_decreasing(program, part, None, SearchBudget(), enumerate_orders=True)
    assert time.perf_counter() - start < 1.0
    assert not rep.established
    fields = dict(admissible_fields(rep))
    assert fields["orders_tried"] == "541" and fields["found"] == "false"
    assert len(calls) == len(rep.peaks) == 1


def test_a_peak_failing_under_every_pattern_stops_the_walk(monkeypatch):
    # The duplicate/splus peak's relevant rules are its own two, with one
    # admissible relative order; once the first order fails there, no order
    # can close it. With the fresh rules first they get their levels before
    # the peak's rules, so cuts alone would drop their arrangements one by
    # one until MAX_ORDERS. The counts pin the work beside the time bound.
    pulled, calls = [], []

    def counting(*args, **kwargs):
        for order in admissible_total_preorders(*args, **kwargs):
            pulled.append(order)
            yield order

    def searching(*args, **kwargs):
        calls.append(args[0])
        return join_search(*args, **kwargs)

    monkeypatch.setattr(analysis, "admissible_total_preorders", counting)
    monkeypatch.setattr(analysis, "join_search", searching)
    for m, before, total in ((6, False, "47293"), (7, True, "545835")):
        pulled.clear()
        calls.clear()
        program = _with_fresh((FIXTURES / "pplus.chr").read_text(), m, before)
        part = Partition.for_program(program, coinductive=["splus"])
        start = time.perf_counter()
        rep = check_rule_decreasing(program, part, None, SearchBudget(), enumerate_orders=True)
        assert time.perf_counter() - start < 0.05
        assert admissible_fields(rep) == [("orders_tried", total), ("found", "false")]
        assert len(pulled) == len(calls) == 1


def test_closing_order_past_the_bound_is_found(monkeypatch):
    # With twelve fresh rules after the gadget, 16,384 admissible orders
    # come before the first with be > de; a walk over single orders stops
    # at MAX_ORDERS without it. The cuts leave five orders to evaluate;
    # the counts pin the work beside the time bound.
    program = _with_fresh(GADGET, 12)
    part = Partition.for_program(program, coinductive=["al"])
    first = next(
        n for n, order in enumerate(admissible_total_preorders(program, part))
        if order.strictly_greater("be", "de")
    )
    assert first == 16384 > MAX_ORDERS
    pulled, calls = [], []

    def counting(*args, **kwargs):
        for order in admissible_total_preorders(*args, **kwargs):
            pulled.append(order)
            yield order

    def searching(*args, **kwargs):
        calls.append(args[0])
        return join_search(*args, **kwargs)

    monkeypatch.setattr(analysis, "admissible_total_preorders", counting)
    monkeypatch.setattr(analysis, "join_search", searching)
    start = time.perf_counter()
    rep = check_rule_decreasing(program, part, None, SearchBudget(), enumerate_orders=True)
    assert time.perf_counter() - start < 0.5
    assert (len(pulled), len(calls)) == (5, 6)
    assert rep.established
    fields = dict(admissible_fields(rep))
    assert fields["found"] == "true" and "truncated" not in fields
    names = program.rule_names()
    assert _same_relation(
        rep.order, names, {n: 2 if n == "al" else int(n == "be") for n in names}
    )
    # be > de is needed: de = be and de > be leave the peak open.
    for decls in ((("de", ">=", "be"), ("be", ">=", "de")), (("de", ">", "be"),)):
        decls += tuple(("al", ">", n) for n in names if n != "al")
        order = RulePreorder.from_declarations(names, decls)
        assert not check_rule_decreasing(program, part, order, SearchBudget()).established


def test_an_order_and_enumeration_together_are_rejected(pplus):
    part = Partition.for_program(pplus, coinductive=["splus"])
    order = RulePreorder.from_declarations(pplus.rule_names(), [("splus", ">", "duplicate")])
    with pytest.raises(ValueError, match="enumerate_orders"):
        check_rule_decreasing(pplus, part, order, SearchBudget(), enumerate_orders=True)


def test_later_orders_stop_at_their_first_failing_peak(monkeypatch, philos):
    # eat=thk fails every peak and is shown if nothing closes; thk>eat
    # fails on its first peak; eat>thk closes all five.
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return join_search(*args, **kwargs)

    monkeypatch.setattr(analysis, "join_search", counting)
    part = Partition.for_program(philos, coinductive=["eat", "thk"])
    rep = check_rule_decreasing(philos, part, None, SearchBudget(), enumerate_orders=True)
    assert rep.established
    fields = dict(admissible_fields(rep))
    assert fields["found"] == "true" and fields["order"] == "eat>thk"
    assert len(rep.peaks) == 5
    assert len(calls) == 11


def test_the_walk_stops_at_its_bound_on_an_evaluated_order(monkeypatch, philos):
    # eat=thk is evaluated and fails; at a bound of one the walk then stops
    # at the next order it would evaluate, before any branch is cut.
    monkeypatch.setattr(analysis, "MAX_ORDERS", 1)
    part = Partition.for_program(philos, coinductive=["eat", "thk"])
    rep = check_rule_decreasing(philos, part, None, SearchBudget(), enumerate_orders=True)
    assert not rep.established
    fields = dict(admissible_fields(rep))
    assert (fields["truncated"], fields["found"]) == ("true", "false")


def test_order_enumeration_past_the_bound_is_truncated(tmp_path, capsys, monkeypatch):
    # The gadget needs be > de and philos needs eat > thk, so a closing
    # order has four levels. The fresh rules come first, and for each of
    # their arrangements on two levels the walk cuts the core's failing
    # orders, until it has cut or evaluated MAX_ORDERS of them. Cut
    # branches search nothing; the count pins the work beside the time bound.
    calls = []

    def searching(*args, **kwargs):
        calls.append(args[0])
        return join_search(*args, **kwargs)

    monkeypatch.setattr(analysis, "join_search", searching)
    program = tmp_path / "p.chr"
    program.write_text(
        "".join(f"r{i} @ a{i}(X) <=> true.\n" for i in range(12))
        + GADGET + (FIXTURES / "philos.chr").read_text()
    )
    cfg = tmp_path / "p.cfg"
    cfg.write_text(
        "[partition]\ncoinductive = al, eat, thk\n[options]\nenumerate_orders = true\n"
    )
    start = time.perf_counter()
    code = main(["check", "--mode", "decreasing", str(program), "--config", str(cfg),
                 "--format", "machine"])
    assert time.perf_counter() - start < 2.0
    assert code == 1
    assert len(calls) == 7
    out = capsys.readouterr().out
    head = "orders_tried=2993681482712089 truncated=true found=false\n"
    assert "ADMISSIBLE enumerated " + head in out
    code = main(["check", "--mode", "decreasing", str(program), "--config", str(cfg)])
    assert code == 1
    assert "admissible: yes " + head in capsys.readouterr().out
