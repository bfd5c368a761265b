from __future__ import annotations

import pytest

from chrdc.analysis import (
    NOT_CLOSED,
    Report,
    SearchBudget,
    check_local_confluence,
    check_modularity,
    check_rule_decreasing,
    check_strong_confluence,
)
from chrdc.config import load_config_file
from chrdc.orders import AdmissibilityResult, Partition, RulePreorder, TerminationResult
from chrdc.peaks import critical_peaks
from chrdc.reports import (
    emit_report,
    machine_report,
    parse_machine_report,
    peak_text,
    text_report,
)
from conftest import FIXTURES, load

BUDGET = SearchBudget()


def _decreasing_report(leq):
    part = Partition.for_program(leq, coinductive=["transitivity"])
    order = RulePreorder.from_declarations(
        leq.rule_names(),
        [("transitivity", ">", r) for r in ("duplicate", "reflexivity", "antisymmetry")],
    )
    return check_rule_decreasing(leq, part, order, BUDGET)


def test_machine_records_round_trip(leq, philos, pminus):
    reports = [
        _decreasing_report(leq),
        check_strong_confluence(leq, BUDGET),
        check_local_confluence(pminus, BUDGET),
        check_modularity(load("mod_splus.chr"), load("mod_sminus.chr"), BUDGET),
    ]
    for rep in reports:
        text = machine_report(rep)
        records = parse_machine_report(text)
        assert records
        assert records[-1]["record"] == "VERDICT"
        # Every PEAK id is an integer and statuses are known tokens.
        for rec in records:
            if rec["record"] == "PEAK":
                assert rec["fields"][0].isdigit()
        # Re-parsing the same text is stable.
        assert parse_machine_report(text) == records


def test_machine_report_contains_expected_lines(leq):
    text = machine_report(_decreasing_report(leq))
    lines = text.splitlines()
    assert lines[0] == "ADMISSIBLE true"
    assert lines[1] == "TERMINATION inductive VERIFIED measure=atoms,size"
    assert (
        "PEAK 11 antisymmetry transitivity DECREASING left=[] right=[reflexivity,antisymmetry]"
        in lines
    )
    assert lines[-1] == "VERDICT rule_decreasing CONFLUENT assumptions=[]"


def test_machine_parser_rejects_noise():
    with pytest.raises(ValueError):
        parse_machine_report("WAT 1 2 3\n")
    with pytest.raises(ValueError):
        parse_machine_report("PEAK x antisymmetry transitivity DECREASING\n")
    with pytest.raises(ValueError):
        parse_machine_report("PEAK 0 a b NOT_A_STATUS\n")


@pytest.mark.parametrize(
    "line, message",
    [
        ("VERDICT locally_confluent CONFLUENT assumptions=[] extra",
         "line 1: positional field after key=value: 'extra'"),
        ("VERDICT locally_confluent", "line 1: malformed VERDICT record"),
    ],
)
def test_machine_parser_names_what_is_malformed(line, message):
    with pytest.raises(ValueError) as exc:
        parse_machine_report(line + "\n")
    assert str(exc.value) == message


def test_machine_parser_skips_blank_lines():
    text = "ADMISSIBLE true\n\n  \nVERDICT local CONFLUENT assumptions=[]\n"
    records = parse_machine_report(text)
    assert [r["record"] for r in records] == ["ADMISSIBLE", "VERDICT"]
    assert records[1]["fields"] == ["local", "CONFLUENT"]


def test_peaks_mode_machine_lines(pminus):
    part = Partition.for_program(pminus)
    peaks = critical_peaks(pminus, pminus)
    rep = Report(
        mode="peaks",
        partition=part,
        peaks=tuple(peaks),
    )
    text = machine_report(rep)
    assert text == "PEAK 0 duplicate sminus INDUCTIVE\n"
    assert parse_machine_report(text)[0]["fields"] == [
        "0",
        "duplicate",
        "sminus",
        "INDUCTIVE",
    ]


def test_a_report_cannot_claim_more_than_it_holds(leq):
    # Built by hand from a confluent report's parts: one verdict opened,
    # the termination refuted, the order made inadmissible.
    held = _decreasing_report(leq)
    fields = held._asdict()
    opened = held.verdicts[0]._replace(status=NOT_CLOSED, valley=None)
    cases = {
        "open verdict": dict(fields, verdicts=(opened, *held.verdicts[1:])),
        "refuted termination": dict(
            fields, termination=TerminationResult("REFUTED", "transitivity")
        ),
        "inadmissible order": dict(
            fields, admissibility=AdmissibilityResult(False, ("duplicate", "transitivity"))
        ),
    }
    for case, kwargs in cases.items():
        rep = Report(**kwargs)
        assert not rep.established, case
        assert text_report(rep).endswith("verdict: NOT_ESTABLISHED (rule_decreasing)\n"), case
        assert machine_report(rep).endswith(
            "VERDICT rule_decreasing NOT_ESTABLISHED assumptions=[]\n"
        ), case
    rep = Report(**fields)
    assert all(v.closed for v in rep.verdicts) and rep.established
    assert text_report(rep).endswith("verdict: CONFLUENT (rule_decreasing)\n")
    assert machine_report(rep).endswith("VERDICT rule_decreasing CONFLUENT assumptions=[]\n")
    # Without a partition a decreasing report still names its criterion.
    assert text_report(Report("decreasing")).endswith("verdict: CONFLUENT (rule_decreasing)\n")


def test_an_enumerated_report_cannot_claim_an_order_it_did_not_find(philos):
    # With one verdict opened by hand, the order search's fields must agree
    # with the verdict: no order closed every peak, so none is named.
    cfg = load_config_file(str(FIXTURES / "philos_enumerate.cfg"))
    part = Partition.for_program(philos, cfg.inductive, cfg.coinductive)
    held = check_rule_decreasing(
        philos, part, None, SearchBudget(cfg.max_depth, cfg.max_states),
        enumerate_orders=cfg.enumerate_orders, assume_terminating=cfg.assume_terminating,
    )
    assert "found=true order=eat>thk" in machine_report(held)
    opened = held.verdicts[0]._replace(status=NOT_CLOSED, valley=None)
    rep = held._replace(verdicts=(opened, *held.verdicts[1:]))
    machine, text = machine_report(rep), text_report(rep)
    assert machine.splitlines()[0] == "ADMISSIBLE enumerated orders_tried=3 found=false"
    assert machine.endswith("VERDICT strongly_rule_decreasing NOT_ESTABLISHED assumptions=[]\n")
    assert "admissible: yes orders_tried=3 found=false\n" in text
    assert text.endswith("verdict: NOT_ESTABLISHED (strongly_rule_decreasing)\n")
    assert "order=" not in machine and "order=" not in text


def test_machine_grammar_survives_random_programs():
    import random

    from helpers import random_tiny_program

    rng = random.Random(151)
    for _ in range(40):
        program = random_tiny_program(rng)
        rep = check_local_confluence(program, BUDGET, assume_terminating=True)
        text = machine_report(rep)
        records = parse_machine_report(text)
        assert records[-1]["record"] == "VERDICT"
        peak_ids = [int(r["fields"][0]) for r in records if r["record"] == "PEAK"]
        assert peak_ids == list(range(len(peak_ids)))


def test_text_report_mentions_verdict_and_diagnostic(leq):
    rep = check_strong_confluence(leq, BUDGET)
    text = emit_report(rep, "text")
    assert "verdict: NOT_ESTABLISHED (strongly_confluent)" in text
    assert "left reduct admits no step" in text


def test_peak_text_golden(leq):
    pk = next(
        pk
        for pk in critical_peaks(leq, leq)
        if (pk.rule_left, pk.rule_right) == ("antisymmetry", "transitivity")
        and len(pk.ancestor.atoms) == 2
    )
    golden = (
        "critical peak 11: antisymmetry / transitivity [coinductive]\n"
        "  ancestor: <leq(A, B), leq(B, A) # globals: A, B>\n"
        "  --antisymmetry--> <B = A # globals: A, B>\n"
        "  --transitivity--> <leq(A, A), leq(A, B), leq(B, A) # globals: A, B>"
    )
    assert peak_text(11, pk, "coinductive") == golden


def test_emit_report_rejects_unknown_format(pminus):
    rep = check_local_confluence(pminus, BUDGET)
    with pytest.raises(ValueError):
        emit_report(rep, "yaml")


def test_pretty_dispatches_on_type(leq, pminus):
    from chrdc import parse_state, pretty
    from chrdc.state import INCONSISTENT, canonicalize

    assert pretty(leq).startswith("duplicate @ leq(X, Y) \\ leq(X, Y) <=> true.")
    state = parse_state("p(X), X = a # globals: X")
    assert pretty(state) == "p(X), X = a # globals: X"
    assert pretty(canonicalize(state)) == "<p(a), X = a # globals: X>"
    assert pretty(INCONSISTENT) == "<false>"
    (pk,) = critical_peaks(pminus, pminus)
    assert "--duplicate-->" in pretty(pk)
    assert "verdict:" in pretty(check_local_confluence(pminus, BUDGET))
    with pytest.raises(TypeError):
        pretty(42)
