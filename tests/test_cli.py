from __future__ import annotations

import argparse
import random
import re
import subprocess
import sys

import pytest

from chrdc.cli import _parser, main
from chrdc.peaks import critical_peaks
from conftest import FIXTURES, fixture_path, load


def run_cli(*args):
    from io import StringIO

    out, err = StringIO(), StringIO()
    stdout, stderr = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(list(args))
    finally:
        sys.stdout, sys.stderr = stdout, stderr
    return code, out.getvalue(), err.getvalue()


def test_peaks_pminus_counts():
    code, out, _ = run_cli("peaks", fixture_path("pminus.chr"), "--format", "machine")
    assert code == 0
    assert out == "PEAK 0 duplicate sminus INDUCTIVE\n"


def test_peaks_philos_all_eat():
    code, out, _ = run_cli("peaks", fixture_path("philos.chr"), "--format", "machine")
    assert code == 0
    lines = out.splitlines()
    assert lines
    assert all(line.split()[2:4] == ["eat", "eat"] for line in lines)


def test_peaks_empty_program():
    code, out, _ = run_cli("peaks", fixture_path("empty.chr"), "--format", "machine")
    assert code == 0
    assert out == ""
    code, out, _ = run_cli("peaks", fixture_path("empty.chr"))
    assert code == 0
    assert out.startswith("0 critical peak(s)")


def test_check_decreasing_exit_codes():
    code, out, _ = run_cli(
        "check", "--mode", "decreasing", fixture_path("leq.chr"),
        "--config", fixture_path("leq_decreasing.cfg"), "--format", "machine",
    )
    assert code == 0
    assert "VERDICT rule_decreasing CONFLUENT assumptions=[]" in out

    code, out, _ = run_cli(
        "check", "--mode", "strong", fixture_path("leq.chr"), "--format", "machine"
    )
    assert code == 1
    assert "VERDICT strongly_confluent NOT_ESTABLISHED" in out


def test_check_modular_verdicts():
    code, out, _ = run_cli(
        "check", "--mode", "modular",
        fixture_path("mod_reflex.chr"), fixture_path("mod_dup.chr"),
        "--format", "machine",
    )
    assert code == 0
    assert "VERDICT modular_union_confluent CONFLUENT assumptions=[p_confluent,q_confluent]" in out

    code, out, _ = run_cli(
        "check", "--mode", "modular",
        fixture_path("mod_viol_p.chr"), fixture_path("mod_viol_q.chr"),
        "--format", "machine",
    )
    assert code == 1


def test_parse_error_exits_2(tmp_path):
    bad = tmp_path / "bad.chr"
    bad.write_text("oops @ <=> true.")
    code, out, err = run_cli("peaks", str(bad))
    assert code == 2
    assert "both heads empty" in err


def test_config_error_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[partition]\ninductive = nosuchrule\n")
    code, _, err = run_cli(
        "check", "--mode", "decreasing", fixture_path("leq.chr"), "--config", str(cfg)
    )
    assert code == 2
    assert "unknown rule name" in err


def test_a_repeated_tactic_section_exits_2(tmp_path):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(
        "[partition]\ncoinductive = eat, thk\n[order]\neat > thk\n"
        '[tactic "peak:eatxeat#0"]\nleft = thk, eat, thk\nright = thk, eat, thk\n'
        '[tactic "peak:eatxeat#0"]\nleft = eat\nright = eat\n'
    )
    code, out, err = run_cli(
        "check", "--mode", "decreasing", fixture_path("philos.chr"), "--config", str(cfg)
    )
    assert code == 2
    assert out == ""
    assert "peak:eatxeat#0" in err


def test_local_mode_rejects_a_partition_with_a_rule_in_both_parts(tmp_path):
    cfg = tmp_path / "both.cfg"
    cfg.write_text("[partition]\ninductive = duplicate\ncoinductive = duplicate\n")
    code, _, err = run_cli(
        "check", "--mode", "local", fixture_path("leq.chr"), "--config", str(cfg)
    )
    assert code == 2
    assert "both parts" in err


def test_peaks_rejects_an_unknown_rule_in_the_order(tmp_path):
    cfg = tmp_path / "order.cfg"
    cfg.write_text("[order]\nduplicate > nosuchrule\n")
    code, _, err = run_cli("peaks", fixture_path("leq.chr"), "--config", str(cfg))
    assert code == 2
    assert "unknown rule name" in err


@pytest.mark.parametrize(
    "command", [["peaks"], ["check", "--mode", "modular"]], ids=["peaks", "modular"]
)
@pytest.mark.parametrize(
    "text",
    ["[partition]\ncoinductive = nosuchrule\n", "[order]\nsplus > nosuchrule\n"],
    ids=["partition", "order"],
)
def test_two_program_commands_reject_an_unknown_rule_in_the_config(
    tmp_path, command, text
):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code, _, err = run_cli(
        *command, fixture_path("mod_splus.chr"), fixture_path("mod_sminus.chr"),
        "--config", str(cfg),
    )
    assert code == 2
    assert "unknown rule name" in err


def test_two_program_peaks_accept_a_partition_of_their_rules(tmp_path):
    cfg = tmp_path / "part.cfg"
    cfg.write_text("[partition]\ncoinductive = splus\n")
    files = (fixture_path("mod_splus.chr"), fixture_path("mod_sminus.chr"))
    plain = run_cli("peaks", *files)
    assert plain[0] == 0
    assert run_cli("peaks", *files, "--config", str(cfg)) == plain


def test_missing_file_exits_2():
    code, _, err = run_cli("peaks", "does_not_exist.chr")
    assert code == 2


def test_modular_needs_two_files():
    code, _, err = run_cli("check", "--mode", "modular", fixture_path("leq.chr"))
    assert code == 2
    assert "two program" in err


def test_local_mode_needs_one_file():
    leq = fixture_path("leq.chr")
    code, out, err = run_cli("check", "--mode", "local", leq, leq)
    assert (code, out) == (2, "")
    assert "mode local needs exactly one program file" in err


def test_peaks_between_two_programs():
    code, out, _ = run_cli(
        "peaks", fixture_path("mod_splus.chr"), fixture_path("mod_sminus.chr"),
        "--format", "machine",
    )
    assert code == 0
    assert out == "PEAK 0 splus sminus CROSS\n"


def test_two_files_of_one_program_give_all_its_peaks_as_cross(tmp_path):
    # Two program objects holding one program give cross peaks, not self
    # peaks; on the command line the second file's rules need other names.
    leq = fixture_path("leq.chr")
    renamed = tmp_path / "mleq.chr"
    text = (FIXTURES / "leq.chr").read_text()
    renamed.write_text(re.sub(r"^(\w+) @", r"m\1 @", text, flags=re.M))
    same = critical_peaks(load("leq.chr"), load("leq.chr"))
    _, other, _ = run_cli("peaks", leq, str(renamed), "--format", "machine")
    same_pairs = [[pk.rule_left, pk.rule_right, "CROSS"] for pk in same]
    other_pairs = [line.split()[2:] for line in other.splitlines()]
    other_pairs = [[left, right.removeprefix("m"), kind] for left, right, kind in other_pairs]
    assert len(same_pairs) == 29
    assert same_pairs == other_pairs


@pytest.mark.parametrize(
    "command", [("peaks",), ("check", "--mode", "modular")], ids=["peaks", "modular"]
)
@pytest.mark.parametrize(
    "fixture, shared",
    [
        ("mod_splus.chr", "['splus']"),
        ("leq.chr", "['antisymmetry', 'duplicate', 'reflexivity', 'transitivity']"),
    ],
)
def test_two_programs_that_share_a_rule_name_exit_2(command, fixture, shared):
    # Output, partitions and tactic selectors name rules, so a name held by
    # both programs would be ambiguous.
    path = fixture_path(fixture)
    code, out, err = run_cli(*command, path, path)
    assert (code, out, err) == (2, "", f"error: programs share rule names: {shared}\n")


def test_cross_file_arity_clash_exits_2(tmp_path):
    other = tmp_path / "clash.chr"
    other.write_text("x @ p(X,Y) <=> true.")
    code, _, err = run_cli("peaks", fixture_path("pminus.chr"), str(other))
    assert code == 2
    assert err == f"error: {other}:1:5: predicate p/2 clashes with earlier use at arity 1\n"


def test_run_query_arity_clash_exits_2():
    code, _, err = run_cli(
        "run", fixture_path("pminus.chr"), "--query", "p(a, b)", "--steps", "2"
    )
    assert code == 2
    assert err == "error: 1:1: predicate p/2 clashes with earlier use at arity 1\n"


def test_run_query_atom_may_reuse_a_functor_name_at_another_arity(tmp_path):
    program = tmp_path / "d.chr"
    program.write_text("r @ p(f(X)) <=> true.\ns @ f(X, Y) <=> true.\n")
    code, out, err = run_cli("run", str(program), "--query", "f(a, b)")
    assert (code, err) == (0, "")
    assert out == "0: <f(a, b)>\n1: --s--> <true>\nfixpoint\n"


def test_run_traces_to_step_limit():
    code, out, _ = run_cli(
        "run", fixture_path("philos.chr"),
        "--query", "frk(1), thk(1,2,0), frk(2), thk(2,1,0)",
        "--steps", "3",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("0: <frk(1), frk(2)")
    assert "--eat-->" in lines[1]
    assert lines[-1] == "step limit reached"


def test_run_reaches_fixpoint():
    code, out, _ = run_cli(
        "run", fixture_path("pminus.chr"), "--query", "p(s(a)), p(a)", "--steps", "10"
    )
    assert code == 0
    assert out.splitlines()[-1] == "fixpoint"


def test_max_depth_flag_limits_search():
    code, out, _ = run_cli(
        "check", "--mode", "decreasing", fixture_path("philos.chr"),
        "--config", fixture_path("philos.cfg"), "--format", "machine",
        "--max-depth", "1",
    )
    assert code == 1
    assert "NOT_CLOSED" in out


def test_machine_output_is_byte_identical_across_processes():
    cmd = [
        sys.executable, "-m", "chrdc.cli", "check", "--mode", "decreasing",
        fixture_path("leq.chr"), "--config", fixture_path("leq_decreasing.cfg"),
        "--format", "machine",
    ]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout


def test_text_output_deterministic_across_processes():
    cmd = [
        sys.executable, "-m", "chrdc.cli", "peaks", fixture_path("leq.chr"),
    ]
    runs = [subprocess.run(cmd, capture_output=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]


def _q_arity_pair(tmp_path):
    one = tmp_path / "q1.chr"
    one.write_text("r1 @ q(X) <=> true.\n")
    two = tmp_path / "q2.chr"
    two.write_text("r2 @ q(X,Y) <=> true.\n")
    return str(one), str(two)


@pytest.mark.parametrize("command", [["check", "--mode", "modular"], ["peaks"]])
def test_cross_file_predicate_clash_names_the_predicate(tmp_path, command):
    code, out, err = run_cli(*command, *_q_arity_pair(tmp_path))
    assert code == 2
    assert out == ""
    assert "predicate q" in err


def test_run_query_clash_names_the_predicate():
    code, out, err = run_cli("run", fixture_path("leq.chr"), "--query", "leq(X) # globals: X")
    assert code == 2
    assert out == ""
    assert "predicate leq" in err


def test_peaks_rejects_a_third_file():
    code, out, err = run_cli(
        "peaks", fixture_path("mod_splus.chr"), fixture_path("mod_sminus.chr"),
        fixture_path("mod_dup.chr"),
    )
    assert code == 2
    assert out == ""
    assert "one or two program files" in err


def test_negative_max_depth_flag_exits_2():
    code, out, err = run_cli(
        "check", "--mode", "local", fixture_path("leq.chr"), "--max-depth", "-2"
    )
    assert code == 2
    assert out == ""
    assert "max-depth must be non-negative" in err


def test_check_names_a_bad_max_depth_before_the_file_count():
    leq = fixture_path("leq.chr")
    code, out, err = run_cli("check", "--mode", "local", leq, leq, "--max-depth", "-1")
    assert (code, out) == (2, "")
    assert "--max-depth must be non-negative" in err
    assert "program file" not in err


def test_peaks_counts_its_files_before_it_parses(tmp_path):
    bad = tmp_path / "bad.chr"
    bad.write_text("r @ p(X <=> true.\n")
    code, out, err = run_cli(
        "peaks", str(bad), fixture_path("leq.chr"), fixture_path("pminus.chr")
    )
    assert (code, out) == (2, "")
    assert err == "error: peaks takes one or two program files\n"


def test_check_reads_its_program_before_its_config(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[nosuchsection]\n")
    missing = tmp_path / "missing.chr"
    code, out, err = run_cli("check", "--mode", "local", str(missing), "--config", str(cfg))
    assert (code, out) == (2, "")
    assert str(missing) in err
    assert str(cfg) not in err


def test_a_bare_check_names_its_required_arguments_in_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check"])
    assert exc.value.code == 2
    assert "the following arguments are required: FILE, --mode\n" in capsys.readouterr().err


def _in_process(*args):
    """Exit code, stdout and stderr of `main(args)`, usage errors and
    `--help` included, as a `chrdc` process would end them."""
    from io import StringIO

    out, err = StringIO(), StringIO()
    stdout, stderr = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(list(args))
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout, sys.stderr = stdout, stderr
    return code, out.getvalue(), err.getvalue()


def _fresh_process(*args):
    done = subprocess.run(
        [sys.executable, "-m", "chrdc.cli", *args], capture_output=True, text=True
    )
    return done.returncode, done.stdout, done.stderr


def test_main_builds_one_parser_per_process(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    _parser.cache_clear()
    calls = [
        ("check", "--mode", "strong", fixture_path("leq.chr"), "--format", "machine"),
        ("check",),
        ("peaks", "--help"),
        ("peaks", fixture_path("pminus.chr"), "--format", "machine"),
    ]
    codes = []
    for k, call in enumerate(calls):
        codes.append(_in_process(*call)[0])
        if k == 0:
            # The top-level parser and one per command.
            assert built == ["chrdc", "chrdc peaks", "chrdc check", "chrdc run"]
    assert codes == [1, 2, 0, 0]
    assert len(built) == 4


def test_repeated_calls_in_one_process_match_fresh_processes(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[partition]\ninductive = nosuchrule\n")
    golden = (
        "check", "--mode", "decreasing", fixture_path("leq.chr"),
        "--config", fixture_path("leq_decreasing.cfg"),
    )
    calls = [
        golden,
        ("check",),
        ("check", "--mode", "decreasing", fixture_path("leq.chr"), "--config", str(cfg)),
        ("peaks", fixture_path("pminus.chr")),
        golden,
    ]
    results = [_in_process(*call) for call in calls]
    assert [code for code, _, _ in results] == [0, 2, 2, 0, 0]
    for call, result in zip(calls, results):
        assert result == _fresh_process(*call), call


def test_help_wraps_at_the_width_of_each_call(monkeypatch):
    _parser.cache_clear()
    helps = {}
    for columns in ("40", "160", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        result = _in_process("check", "--help")
        assert result == _fresh_process("check", "--help"), columns
        assert result[0] == 0
        helps.setdefault(columns, result[1])
        assert helps[columns] == result[1]
    assert helps["40"].count("\n") > helps["160"].count("\n")


def test_negative_steps_flag_exits_2():
    code, out, err = run_cli(
        "run", fixture_path("pminus.chr"), "--query", "p(s(a))", "--steps", "-1"
    )
    assert code == 2
    assert out == ""
    assert "--steps must be non-negative" in err


def test_parse_error_names_the_file_at_fault(tmp_path):
    bad = tmp_path / "bad.chr"
    bad.write_text("r @ p(X) <=> X = f(a) | q(f(a, b)).\n")
    code, out, err = run_cli("peaks", fixture_path("pminus.chr"), str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad}:1:")
    assert "clashes" in err


def test_config_error_names_the_file_at_fault(tmp_path):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("[partition]\ninductive = splus\ninductive = splus\n")
    code, out, err = run_cli(
        "check", "--mode", "decreasing", fixture_path("pplus.chr"), "--config", str(cfg)
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {cfg}: line 3: ")


def test_decreasing_with_tactics_enumerates_peaks_once(monkeypatch):
    import chrdc.analysis
    import chrdc.cli
    import chrdc.peaks

    original = chrdc.peaks.critical_peaks
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # Modules that imported the name hold their own binding to it.
    for module in (chrdc.peaks, chrdc.cli, chrdc.analysis):
        monkeypatch.setattr(module, "critical_peaks", counting)
    code, out, _ = run_cli(
        "check", "--mode", "decreasing", fixture_path("philos.chr"),
        "--config", fixture_path("philos_tactic.cfg"),
    )
    assert code == 0
    assert len(calls) == 1
    assert out == (FIXTURES / "golden" / "philos_tactic.txt").read_text(encoding="utf-8")


def _mutated(rng, text):
    """`text` with one to three spans deleted, repeated or replaced by a symbol."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(0, 4))
        op = rng.randrange(3)
        if op == 0:
            text = text[:i] + text[j:]
        elif op == 1:
            text = text[:j] + text[i:j] + text[j:]
        else:
            text = text[:i] + rng.choice("(),.|\\=@#%XYas0 \n") + text[j:]
    return text


def test_every_call_exits_0_1_or_2(tmp_path):
    # The first two calls nest terms past the interpreter's recursion limit;
    # the third nests 250 levels, which equality of terms handles in C.
    def nested(depth: int) -> str:
        path = tmp_path / f"deep{depth}.chr"
        path.write_text("r @ p(" + "f(" * depth + "a" + ")" * depth + ") <=> true.\n")
        return str(path)

    # The fourth overlaps a rule with 352 head variables with itself, whose
    # ancestor needs global names past ZZ.
    wide = tmp_path / "wide.chr"
    wide.write_text("r @ p(" + ",".join(f"X{i}" for i in range(352)) + ") \\ q <=> true.\n")
    cases = [
        ("peaks", nested(sys.getrecursionlimit() + 200)),
        ("run", fixture_path("pplus.chr"), "--query", "p(a)", "--steps", "400"),
        ("peaks", nested(250)),
        ("peaks", str(wide)),
    ]
    rng = random.Random(13)
    configs = sorted(FIXTURES.glob("*.cfg"))
    for k in range(200):
        # A config and its program (`leq_decreasing.cfg` goes with `leq.chr`),
        # one of the two mutated.
        cfg = rng.choice(configs)
        files = [FIXTURES / (cfg.stem.split("_")[0] + ".chr"), cfg]
        texts = [f.read_text() for f in files]
        m = rng.randrange(2)
        texts[m] = _mutated(rng, texts[m])
        paths = [tmp_path / f"m{k}{f.suffix}" for f in files]
        for path, text in zip(paths, texts):
            path.write_text(text)
        prog, conf = map(str, paths)
        mode = rng.choice(("peaks", "local", "strong", "decreasing"))
        if mode == "peaks":
            cases.append(("peaks", prog, "--config", conf))
        else:
            cases.append(("check", "--mode", mode, prog, "--config", conf, "--max-depth", "3"))
    results = [run_cli(*case) for case in cases]
    for case, (code, _, _) in zip(cases, results):
        assert code in (0, 1, 2), case
    for code, _, err in results[:2]:
        assert code == 2
        assert err.startswith("error: a term is nested too deeply")
    assert results[2] == results[3] == (0, "0 critical peak(s)\n", "")
    assert {code for code, _, _ in results} == {0, 1, 2}
