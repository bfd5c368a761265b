"""Report rendering: human-readable text and line-oriented machine records.

Machine grammar, one record per line, space-separated fields, bracketed
comma lists without spaces:

    PEAK <id> <rule> <rule> <STATUS> [key=value ...]
    TERMINATION inductive <VERIFIED|ASSUMED|REFUTED> measure=atoms,size [witness=rule]
    ADMISSIBLE <true|false|enumerated> [key=value ...]
    VERDICT <criterion> <CONFLUENT|NOT_ESTABLISHED> assumptions=[...]

A `peaks` report holds only PEAK records, whose STATUS is the peak's
class: INDUCTIVE or COINDUCTIVE under the report's partition, CROSS when
it has none. In a `check` report a closed peak has one of
`analysis.CLOSED_STATUSES` (JOINABLE, DECREASING or STRONGLY_JOINABLE)
with `left=[...] right=[...]`, the valley's rule labels; an open one is
NOT_CLOSED with `depth=N states=N`, the report's search budget, then
`exhausted=true` when both search spaces were explored and `notes=[...]`
when a reduct admits no step. ADMISSIBLE `false` carries `witness=`;
ADMISSIBLE `enumerated` carries the order search's fields, all written
by `admissible_fields`: `orders_tried=` the number of admissible orders,
`truncated=true` when the walk stopped undecided after
`orders.MAX_ORDERS` orders evaluated or branches cut, `found=` once the
peaks were searched (termination not refuted), true exactly when the
report is established, and then `order=` the strict pairs of the
closing order found.

Values are bare tokens or bracketed lists; a report is re-parseable by
`parse_machine_report` and emission is byte-stable across runs.
"""

from __future__ import annotations

import re
from typing import Optional

from .analysis import CLOSED_STATUSES, NOT_CLOSED, PeakVerdict, Report, SearchBudget
from .orders import fubini
from .peaks import CriticalPeak, classify
from .state import CanonicalState, State, canonical_text, canonicalize, state_text
from .syntax import Program, program_text


_PEAK_STATUSES = (*CLOSED_STATUSES, NOT_CLOSED, "INDUCTIVE", "COINDUCTIVE", "CROSS")


def _bracket(items) -> str:
    return "[" + ",".join(items) + "]"


def _peak_class(report: Report, peak: CriticalPeak) -> str:
    return "cross" if report.partition is None else classify(peak, report.partition)


def _machine_peak_line(report: Report, v: PeakVerdict) -> str:
    peak, budget = report.peaks[v.index], report.budget
    parts = ["PEAK", str(v.index), peak.rule_left, peak.rule_right, v.status]
    if v.valley is not None:
        left_labels, right_labels = v.valley.labels()
        parts.append("left=" + _bracket(left_labels))
        parts.append("right=" + _bracket(right_labels))
    else:
        if budget is not None:
            parts.append(f"depth={budget.max_depth}")
            parts.append(f"states={budget.max_states}")
        if v.exhausted:
            parts.append("exhausted=true")
        if v.notes:
            parts.append("notes=" + _bracket(v.notes))
    return " ".join(parts)


def admissible_fields(report: Report) -> list[tuple[str, str]]:
    """The order search's key=value fields, the same in both formats;
    `orders_tried` counts the admissible orders of the report's partition."""
    search, part = report.order_search, report.partition
    if search is None:
        return []
    tried = fubini(len(part.inductive)) * fubini(len(part.coinductive))
    fields = [("orders_tried", str(tried))]
    if search.truncated:
        fields.append(("truncated", "true"))
    if report.termination is None or report.termination.acceptable:
        fields.append(("found", "true" if report.established else "false"))
    if report.established:
        fields.append(("order", ",".join(report.order.pairs_text()) or "discrete"))
    return fields


def machine_report(report: Report) -> str:
    lines: list[str] = []
    if report.mode == "peaks":
        for i, peak in enumerate(report.peaks):
            cls = _peak_class(report, peak).upper()
            lines.append(f"PEAK {i} {peak.rule_left} {peak.rule_right} {cls}")
        return "\n".join(lines) + ("\n" if lines else "")
    if report.admissibility is not None:
        fields = admissible_fields(report)
        if report.order_search is not None:
            head = "ADMISSIBLE enumerated"
        elif report.admissibility.ok:
            head = "ADMISSIBLE true"
        else:
            head = "ADMISSIBLE false"
            fields.insert(0, ("witness", ",".join(report.admissibility.witness)))
        lines.append(" ".join([head] + [f"{k}={v}" for k, v in fields]))
    if report.termination is not None:
        t = report.termination
        line = f"TERMINATION inductive {t.status} measure=atoms,size"
        if t.witness:
            line += f" witness={t.witness}"
        lines.append(line)
    for v in report.verdicts:
        lines.append(_machine_peak_line(report, v))
    lines.append(
        f"VERDICT {report.criterion} {report.outcome} assumptions="
        + _bracket(report.assumptions)
    )
    return "\n".join(lines) + "\n"


_RECORD_RE = re.compile(r"^(PEAK|TERMINATION|ADMISSIBLE|VERDICT)(?: (.*))?$")
_FIELD_RE = re.compile(r"^([a-z_]+)=(\[[^\[\]\s]*\]|[^\s\[\]]+)$")


def parse_machine_report(text: str) -> list[dict]:
    """Parse machine output back into records; raises ValueError on noise."""
    records = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        m = _RECORD_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: unrecognized record: {line!r}")
        kind = m.group(1)
        rest = (m.group(2) or "").split(" ") if m.group(2) else []
        positional: list[str] = []
        kv: dict[str, object] = {}
        for tok in rest:
            fm = _FIELD_RE.match(tok)
            if fm:
                key, raw = fm.group(1), fm.group(2)
                if raw.startswith("["):
                    inner = raw[1:-1]
                    kv[key] = inner.split(",") if inner else []
                else:
                    kv[key] = raw
            else:
                if kv:
                    raise ValueError(
                        f"line {lineno}: positional field after key=value: {tok!r}"
                    )
                positional.append(tok)
        if kind == "PEAK":
            if len(positional) != 4 or not positional[0].isdigit():
                raise ValueError(f"line {lineno}: malformed PEAK record")
            if positional[3] not in _PEAK_STATUSES:
                raise ValueError(f"line {lineno}: unknown peak status {positional[3]!r}")
        if kind == "VERDICT" and len(positional) != 2:
            raise ValueError(f"line {lineno}: malformed VERDICT record")
        records.append({"record": kind, "fields": positional, "kv": kv})
    return records


# ---------------------------------------------------------------------------
# Text rendering

def peak_text(index: int, peak: CriticalPeak, classification: Optional[str] = None) -> str:
    tag = f" [{classification}]" if classification else ""
    lines = [
        f"critical peak {index}: {peak.rule_left} / {peak.rule_right}{tag}",
        f"  ancestor: {canonical_text(canonicalize(peak.ancestor))}",
        f"  --{peak.rule_left}--> {canonical_text(peak.left)}",
        f"  --{peak.rule_right}--> {canonical_text(peak.right)}",
    ]
    return "\n".join(lines)


def _verdict_text(v: PeakVerdict, budget: Optional[SearchBudget]) -> str:
    if v.valley is not None:
        left_labels, right_labels = v.valley.labels()
        via = "" if "tactic" not in v.notes else " (tactic)"
        return (
            f"  {v.status}{via}: left closing {_bracket(left_labels)},"
            f" right closing {_bracket(right_labels)}"
        )
    bits = [f"  {v.status}"]
    if v.exhausted:
        bits.append("(search space exhausted)")
    elif budget is not None:
        bits.append(f"(budget: depth {budget.max_depth}, states {budget.max_states})")
    out = " ".join(bits)
    for note in v.notes:
        out += "\n    note: " + note.replace("_", " ")
    return out


def text_report(report: Report) -> str:
    lines: list[str] = []
    if report.mode == "peaks":
        lines.append(f"{len(report.peaks)} critical peak(s)")
        for i, peak in enumerate(report.peaks):
            lines.append(peak_text(i, peak, _peak_class(report, peak)))
        return "\n".join(lines) + "\n"

    lines.append(f"mode: {report.mode}")
    if report.partition is not None and report.mode != "local":
        ind = ", ".join(sorted(report.partition.inductive)) or "(none)"
        co = ", ".join(sorted(report.partition.coinductive)) or "(none)"
        lines.append(f"partition: inductive = {ind}; coinductive = {co}")
    if report.order is not None:
        pairs = ", ".join(report.order.pairs_text()) or "(discrete)"
        lines.append(f"order: {pairs}")
    if report.admissibility is not None:
        if report.admissibility.ok:
            extra = "".join(f" {k}={v}" for k, v in admissible_fields(report))
            lines.append(f"admissible: yes{extra}")
        else:
            rc, ri = report.admissibility.witness
            lines.append(f"admissible: no ({rc} is not strictly above {ri})")
    if report.termination is not None:
        t = report.termination
        suffix = f" (witness: {t.witness})" if t.witness else ""
        lines.append(f"termination of inductive part: {t.status}{suffix} by (atoms, size) measure")
    verdict_by_index = {v.index: v for v in report.verdicts}
    for i, peak in enumerate(report.peaks):
        lines.append(peak_text(i, peak, _peak_class(report, peak)))
        v = verdict_by_index.get(i)
        if v is not None:
            lines.append(_verdict_text(v, report.budget))
        else:
            lines.append("  (not analyzed)")
    lines.append(f"verdict: {report.outcome} ({report.criterion})")
    return "\n".join(lines) + "\n"


# The output formats by name, for `--format`, the config and `emit_report`.
FORMATS = {"text": text_report, "machine": machine_report}


def emit_report(report: Report, fmt: str) -> str:
    if fmt not in FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    return FORMATS[fmt](report)


def pretty(value) -> str:
    """Render any analyzer value as text; parseable where a parser exists."""
    if isinstance(value, Program):
        return program_text(value)
    if isinstance(value, State):
        return state_text(value)
    if isinstance(value, CanonicalState):
        return canonical_text(value)
    if isinstance(value, CriticalPeak):
        return peak_text(0, value)
    if isinstance(value, Report):
        return text_report(value)
    raise TypeError(f"no pretty form for {type(value).__name__}")
