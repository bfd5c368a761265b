from __future__ import annotations

import pytest

from chrdc.config import ConfigError, load_config, resolve_tactics
from chrdc.peaks import critical_peaks
from chrdc.syntax import parse_program


def test_full_config_parses():
    cfg = load_config(
        """
% commentary
[partition]
inductive = duplicate, reflexivity
coinductive = transitivity

[order]
transitivity > duplicate
duplicate >= reflexivity

[limits]
max_depth = 5
max_states = 123

[options]
assume_terminating = true
enumerate_orders = false
format = machine

[tactic "peak:eatxeat#0"]
left = thk, eat, thk
right = thk, eat, thk
right = thk
"""
    )
    assert cfg.inductive == ["duplicate", "reflexivity"]
    assert cfg.coinductive == ["transitivity"]
    assert cfg.order_decls == [
        ("transitivity", ">", "duplicate"),
        ("duplicate", ">=", "reflexivity"),
    ]
    assert cfg.max_depth == 5 and cfg.max_states == 123
    assert cfg.assume_terminating and not cfg.enumerate_orders
    assert cfg.out_format == "machine"
    (tac,) = cfg.tactics
    assert tac.left == [["thk", "eat", "thk"]]
    assert tac.right == [["thk", "eat", "thk"], ["thk"]]


@pytest.mark.parametrize(
    "text,needle",
    [
        ("inductive = a\n", "before any section"),
        ("[bogus]\n", "unknown section"),
        ("[order]\na <> b\n", "expected 'a > b'"),
        ("[limits]\nmax_depth = many\n", "integer"),
        ("[limits]\nmax_depth = -1\n", "non-negative"),
        ("[options]\nassume_terminating = yes\n", "true or false"),
        ("[options]\nformat = xml\n", "text or machine"),
        ("[partition]\nboth = a\n", "unknown partition key"),
        ("[tactic]\nleft = a\n", "selector"),
        # A repeated key used to replace the earlier line's value silently.
        ("[partition]\ninductive = r\ninductive = s\n", "line 3: inductive is already set on line 2"),
        ("[limits]\nmax_depth = 3\n[limits]\nmax_depth = 4\n", "line 4: max_depth is already"),
        ("[options]\nformat = text\nformat = text\n", "line 3: format is already set on line 2"),
        # Only a tactic section reads its name; the others dropped it silently.
        ('[limits "oops"]\nmax_depth = 3\n', "line 1: section [limits] takes no name"),
        ('[options "x"]\n', "line 1: section [options] takes no name"),
        ('%\n[partition "p"]\ninductive = a\n', "line 2: section [partition] takes no name"),
        ('[order "o"]\na > b\n', "line 1: section [order] takes no name"),
        ("[limits]\nmax_depth\n", "line 2: expected 'key = value'"),
        ("[limits]\nmax_steps = 3\n", "line 2: unknown limit 'max_steps'"),
        ("[options]\nverbose = true\n", "line 2: unknown option 'verbose'"),
        ('[tactic "peak:axb#0"]\nmiddle = a\n', "line 2: unknown tactic key 'middle'"),
    ],
)
def test_config_errors(text, needle):
    with pytest.raises(ConfigError) as exc:
        load_config(text)
    assert needle in str(exc.value)


@pytest.mark.parametrize(
    "text,needle",
    [
        (
            "[order]\nr > s\n[options]\nenumerate_orders = true\n",
            "line 4: enumerate_orders = true conflicts with the [order] pair on line 2",
        ),
        (
            "[options]\nenumerate_orders = true\n[order]\nr > s\ns >= t\n",
            "line 2: enumerate_orders = true conflicts with the [order] pair on line 4",
        ),
    ],
)
def test_enumerated_orders_beside_a_declared_order_are_an_error(text, needle):
    # The declared order used to replace the enumeration silently.
    with pytest.raises(ConfigError) as exc:
        load_config(text)
    assert needle in str(exc.value)
    assert load_config(text.replace("true", "false")).order_decls


def test_an_empty_name_list_is_empty():
    cfg = load_config("[partition]\ninductive =\ncoinductive = a, b\n")
    assert cfg.inductive == [] and cfg.coinductive == ["a", "b"]


@pytest.mark.parametrize(
    "selector,needle",
    [
        ("eatxeat#0", "malformed tactic selector 'eatxeat#0'"),
        ("peak:eatxeat", "malformed tactic selector 'peak:eatxeat'"),
        ("peak:axbxc#0", "tactic selector 'axbxc' is ambiguous"),
    ],
)
def test_tactic_selector_errors(selector, needle):
    # `axbxc` splits into two known rules in two ways: `a`, `bxc` and `axb`, `c`.
    program = parse_program("".join(f"{r} @ p <=> true.\n" for r in ("a", "axb", "bxc", "c")))
    cfg = load_config(f'[tactic "{selector}"]\nleft = a\n')
    with pytest.raises(ConfigError) as exc:
        resolve_tactics(cfg, critical_peaks(program, program), set(program.rule_names()))
    assert needle in str(exc.value)


def test_tactic_selector_resolution(philos):
    peaks = critical_peaks(philos, philos)
    cfg = load_config(
        '[tactic "peak:eatxeat#1"]\nleft = thk, eat, thk\nright = thk, eat, thk\n'
    )
    tactics = resolve_tactics(cfg, peaks, set(philos.rule_names()))
    assert list(tactics) == [1]
    assert tactics[1][0] == [["thk", "eat", "thk"]]


def test_tactic_selector_out_of_range(philos):
    peaks = critical_peaks(philos, philos)
    cfg = load_config('[tactic "peak:eatxeat#99"]\nleft = thk\n')
    with pytest.raises(ConfigError) as exc:
        resolve_tactics(cfg, peaks, set(philos.rule_names()))
    assert "only" in str(exc.value)


def test_tactic_selector_unknown_rule(philos):
    peaks = critical_peaks(philos, philos)
    cfg = load_config('[tactic "peak:eatxnope#0"]\nleft = thk\n')
    with pytest.raises(ConfigError):
        resolve_tactics(cfg, peaks, set(philos.rule_names()))
    cfg = load_config('[tactic "peak:eatxeat#0"]\nleft = ghost\n')
    with pytest.raises(ConfigError):
        resolve_tactics(cfg, peaks, set(philos.rule_names()))


def test_a_repeated_tactic_section_is_an_error(philos):
    peaks = critical_peaks(philos, philos)
    cfg = load_config(
        '[tactic "peak:eatxeat#0"]\nleft = thk, eat, thk\nright = thk, eat, thk\n'
        '[tactic "peak:eatxeat#0"]\nleft = eat\nright = eat\n'
    )
    with pytest.raises(ConfigError) as exc:
        resolve_tactics(cfg, peaks, set(philos.rule_names()))
    assert "peak:eatxeat#0" in str(exc.value)


def test_tactic_via_cli(tmp_path):
    from conftest import fixture_path
    from test_cli import run_cli

    cfg = tmp_path / "tac.cfg"
    cfg.write_text(
        "[partition]\ncoinductive = eat, thk\n"
        "[order]\neat > thk\n"
        '[tactic "peak:eatxeat#0"]\nleft = thk, eat, thk\nright = thk, eat, thk\n'
    )
    code, out, _ = run_cli(
        "check", "--mode", "decreasing", fixture_path("philos.chr"),
        "--config", str(cfg), "--format", "machine",
    )
    assert code == 0
    assert "PEAK 0 eat eat DECREASING left=[thk,eat,thk] right=[thk,eat,thk]" in out
