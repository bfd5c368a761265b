"""Analyzer configuration files.

Line-oriented sections:

    [partition]
    inductive = duplicate, reflexivity
    coinductive = transitivity
    [order]
    transitivity > duplicate
    duplicate >= antisymmetry
    [limits]
    max_depth = 8
    max_states = 2000
    [options]
    assume_terminating = false
    enumerate_orders = false
    format = text
    [tactic "peak:eatxeat#0"]
    left = thk, eat, thk
    right = thk, eat, thk

Repeated left=/right= lines inside a tactic section accumulate
alternative sequences, and `[order]` lines accumulate pairs; a key given
twice in `[partition]`, `[limits]` or `[options]` is an error, and so is
`enumerate_orders = true` beside an `[order]` pair, since the declared
order would replace the enumeration. Only a tactic section takes a name
(its selector). `%` starts a comment line. A limit left out keeps
`analysis.SearchBudget`'s default, the value shown above.

`load_config` collects the values it reads and builds its
`AnalysisConfig`, a `NamedTuple`, once at the end, so a config is never
assigned to after it is loaded.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional, Sequence

from .analysis import SearchBudget
from .peaks import CriticalPeak
from .reports import FORMATS


class ConfigError(Exception):
    pass


class TacticDecl(NamedTuple):
    selector: str
    left: list[list[str]]
    right: list[list[str]]


class AnalysisConfig(NamedTuple):
    inductive: Optional[list[str]] = None
    coinductive: Optional[list[str]] = None
    order_decls: Sequence[tuple[str, str, str]] = ()
    max_depth: int = SearchBudget().max_depth
    max_states: int = SearchBudget().max_states
    assume_terminating: bool = False
    enumerate_orders: bool = False
    out_format: str = "text"
    tactics: Sequence[TacticDecl] = ()


_SECTION_RE = re.compile(r'^\[(\w+)(?:\s+"([^"]*)")?\]$')
_KEYVAL_RE = re.compile(r"^(\w+)\s*=\s*(.*)$")
_ORDER_RE = re.compile(r"^(\w+)\s*(>=|>)\s*(\w+)$")


def _name_list(raw: str) -> list[str]:
    raw = raw.strip()
    if not raw:
        return []
    return [part.strip() for part in raw.split(",")]


def _boolean(raw: str, lineno: int) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ConfigError(f"line {lineno}: expected true or false, found {raw!r}")


def load_config(text: str) -> AnalysisConfig:
    fields: dict = {"order_decls": [], "tactics": []}  # AnalysisConfig's, as read
    section: Optional[str] = None
    tactic: Optional[TacticDecl] = None
    seen: dict[tuple[str, str], int] = {}  # (section, key) -> line
    first_pair: Optional[int] = None  # the line of the first [order] pair
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        sm = _SECTION_RE.match(line)
        if sm:
            section = sm.group(1)
            if section == "tactic":
                if sm.group(2) is None:
                    raise ConfigError(f"line {lineno}: tactic section needs a selector")
                tactic = TacticDecl(sm.group(2), [], [])
                fields["tactics"].append(tactic)
            elif section not in ("partition", "order", "limits", "options"):
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            elif sm.group(2) is not None:
                raise ConfigError(f"line {lineno}: section [{section}] takes no name")
            continue
        if section is None:
            raise ConfigError(f"line {lineno}: content before any section")
        if section == "order":
            om = _ORDER_RE.match(line)
            if om is None:
                raise ConfigError(f"line {lineno}: expected 'a > b' or 'a >= b'")
            fields["order_decls"].append((om.group(1), om.group(2), om.group(3)))
            first_pair = first_pair or lineno
            continue
        km = _KEYVAL_RE.match(line)
        if km is None:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = km.group(1), km.group(2).strip()
        if section != "tactic":
            if (section, key) in seen:
                raise ConfigError(
                    f"line {lineno}: {key} is already set on line {seen[section, key]}"
                )
            seen[section, key] = lineno
        if section == "partition":
            if key not in ("inductive", "coinductive"):
                raise ConfigError(f"line {lineno}: unknown partition key {key!r}")
            fields[key] = _name_list(value)
        elif section == "limits":
            if key not in ("max_depth", "max_states"):
                raise ConfigError(f"line {lineno}: unknown limit {key!r}")
            try:
                number = int(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} must be an integer")
            if number < 0:
                raise ConfigError(f"line {lineno}: {key} must be non-negative")
            fields[key] = number
        elif section == "options":
            if key in ("assume_terminating", "enumerate_orders"):
                fields[key] = _boolean(value, lineno)
            elif key == "format":
                if value not in FORMATS:
                    raise ConfigError(f"line {lineno}: format must be {' or '.join(FORMATS)}")
                fields["out_format"] = value
            else:
                raise ConfigError(f"line {lineno}: unknown option {key!r}")
        elif section == "tactic":
            if key not in ("left", "right"):
                raise ConfigError(f"line {lineno}: unknown tactic key {key!r}")
            getattr(tactic, key).append(_name_list(value))
    if fields.get("enumerate_orders") and first_pair is not None:
        raise ConfigError(
            f"line {seen['options', 'enumerate_orders']}: enumerate_orders = true"
            f" conflicts with the [order] pair on line {first_pair}"
        )
    return AnalysisConfig(**fields)


def load_config_file(path: str) -> AnalysisConfig:
    """Load a configuration file; an error's message names the file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return load_config(text)
    except ConfigError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


_SELECTOR_RE = re.compile(r"^peak:(.+)#(\d+)$")


def _split_selector_rules(pair: str, names: set[str]) -> tuple[str, str]:
    candidates = []
    for i, ch in enumerate(pair):
        if ch == "x":
            r1, r2 = pair[:i], pair[i + 1 :]
            if r1 in names and r2 in names:
                candidates.append((r1, r2))
    if not candidates:
        raise ConfigError(f"tactic selector {pair!r} names unknown rules")
    if len(candidates) > 1:
        raise ConfigError(f"tactic selector {pair!r} is ambiguous")
    return candidates[0]


def resolve_tactics(
    cfg: AnalysisConfig, peaks: list[CriticalPeak], rule_names: set[str]
) -> dict[int, tuple[list[list[str]], list[list[str]]]]:
    """Map tactic selectors `peak:<r1>x<r2>#<k>` to peak indices."""
    out: dict[int, tuple[list[list[str]], list[list[str]]]] = {}
    for decl in cfg.tactics:
        m = _SELECTOR_RE.match(decl.selector)
        if m is None:
            raise ConfigError(f"malformed tactic selector {decl.selector!r}")
        r1, r2 = _split_selector_rules(m.group(1), rule_names)
        k = int(m.group(2))
        matching = [
            i for i, pk in enumerate(peaks) if (pk.rule_left, pk.rule_right) == (r1, r2)
        ]
        if k >= len(matching):
            raise ConfigError(
                f"tactic selector {decl.selector!r}: only {len(matching)} peak(s) "
                f"for this rule pair"
            )
        for seq in decl.left + decl.right:
            for label in seq:
                if label not in rule_names:
                    raise ConfigError(
                        f"tactic {decl.selector!r} uses unknown rule {label!r}"
                    )
        if matching[k] in out:
            raise ConfigError(
                f"tactic selector {decl.selector!r}: an earlier section names the same peak"
            )
        out[matching[k]] = (decl.left or [[]], decl.right or [[]])
    return out
