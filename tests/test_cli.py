"""End-to-end CLI behavior: subcommands, output formats, exit codes.

All invocations go through main(argv) in-process; exit code 0 means success
or all checks passing, 1 a usage/parse/validation problem, 2 a checked
property that failed.  One test imports the CLI in a fresh interpreter, to
list the modules it loads.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import conseq
from conseq import OperatorTable, Sort, Symbol, check_axioms, parse_system
from conseq import cli
from conseq.cli import CHAIN_CAP, main

NEG = (
    "standard: a1 b1 b2\n"
    "nonstandard: l1 l2\n"
    "rule: a1 l1 => b1\n"
    "rule: b1 l2 => b2\n"
)
TERNARY = (
    "standard: a1 a2 b1 b2\n"
    "nonstandard: l1 l2\n"
    "rule: a1 l1 => b1\n"
    "rule: a2 l2 => b2\n"
)
BINARY = "standard: b1 b2\nnonstandard: l1 l2\nrule: l1 => b1\nrule: l2 => b2\n"


@pytest.fixture
def write(tmp_path):
    def _write(text, name="doc.lgs"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_close_generic_path(write, capsys):
    code, out, _ = run(capsys, "close", write(NEG), "--input", "a1,l1,l2")
    assert code == 0
    assert out.strip() == "a1,b1,b2,*l1,*l2"


def test_close_empty_input_is_empty_set(write, capsys):
    code, out, _ = run(capsys, "close", write(NEG), "--input", "")
    assert code == 0
    assert out.strip() == ""


def test_close_records_output(write, capsys):
    code, out, _ = run(
        capsys, "close", write(NEG), "--input", "a1,l1,l2", "--output", "records"
    )
    assert code == 0
    assert out.strip() == "result=a1,b1,b2,*l1,*l2 size=5"


def test_close_fastpath_refused_on_chaining_system(write, capsys):
    code, out, err = run(capsys, "close", write(NEG), "--input", "a1,l1,l2", "--fastpath")
    assert code == 1
    assert out == ""
    assert err == (
        "error: --fastpath refused: not mixed ternary (premise b1 of rule (b1 l2 => b2) equals "
        "conclusion of rule (a1 l1 => b1)); not mixed binary (rule (a1 l1 => b1) is not binary)\n"
    )


def test_close_fastpath_on_ternary_system(write, capsys):
    path = write(TERNARY)
    code_fast, out_fast, _ = run(capsys, "close", path, "--input", "a1,l1", "--fastpath")
    code_slow, out_slow, _ = run(capsys, "close", path, "--input", "a1,l1")
    assert code_fast == code_slow == 0
    assert out_fast == out_slow
    assert out_fast.strip() == "a1,b1,*l1"


def test_close_fastpath_reads_the_binary_shape_only_when_ternary_refuses(write, capsys, monkeypatch):
    def no_binary_check(system):
        raise AssertionError("the binary shape was read")

    monkeypatch.setattr(conseq.model, "is_mixed_binary", no_binary_check)
    code, out, _ = run(capsys, "close", write(TERNARY), "--input", "a1,l1", "--fastpath")
    assert code == 0
    assert out.strip() == "a1,b1,*l1"


def test_close_fastpath_on_binary_system(write, capsys):
    code, out, _ = run(capsys, "close", write(BINARY), "--input", "l1", "--fastpath")
    assert code == 0
    assert out.strip() == "b1,*l1"


def test_close_unknown_input_symbol(write, capsys):
    code, _, err = run(capsys, "close", write(NEG), "--input", "zz")
    assert code == 1
    assert "zz" in err


def test_check_passes_on_valid_system(write, capsys):
    code, out, _ = run(capsys, "check", write(NEG))
    assert code == 0
    lines = out.strip().splitlines()
    assert [l.split(":")[0] for l in lines] == [
        "insertion",
        "idempotence",
        "monotonicity",
        "finitary",
    ]
    assert all("pass" in l for l in lines)


def test_check_records_output(write, capsys):
    code, out, _ = run(capsys, "check", write(NEG), "--output", "records")
    assert code == 0
    first = out.strip().splitlines()[0].split()
    assert first[0] == "law=insertion"
    assert first[1] == "status=pass"
    assert first[2].startswith("checked=")


def test_check_refuses_a_universe_over_the_cap(write, capsys):
    # 17 declared symbols, one more than `tabulate` enumerates
    names = " ".join(f"a{i}" for i in range(16))
    code, out, err = run(capsys, "check", write(f"standard: {names}\nnonstandard: l1\nrule: a0 l1 => a1\n"))
    assert (code, out) == (1, "")
    assert err == "error: universe has 17 symbols; the cap is 16\n"


def test_check_failure_exits_two(write, capsys, monkeypatch):
    x = Symbol("x", Sort.STANDARD)
    broken = OperatorTable.from_function((x,), lambda s: frozenset())

    monkeypatch.setattr("conseq.cli.tabulate", lambda system, universe: broken)
    code, out, _ = run(capsys, "check", write(NEG))
    assert code == 2
    assert "insertion: FAIL at {x}" in out


def test_check_failure_records_carry_witness(write, capsys, monkeypatch):
    x = Symbol("x", Sort.STANDARD)
    broken = OperatorTable.from_function((x,), lambda s: frozenset())
    assert not check_axioms(broken).ok

    monkeypatch.setattr("conseq.cli.tabulate", lambda system, universe: broken)
    code, out, _ = run(capsys, "check", write(NEG), "--output", "records")
    assert code == 2
    assert "law=insertion status=fail" in out
    assert "witness=x" in out


def test_check_prints_each_verdict_as_its_str(write, capsys, monkeypatch):
    l, y = Symbol("l", Sort.NONSTANDARD), Symbol("y", Sort.STANDARD)
    drop = {frozenset({l, y}): frozenset({y})}
    broken = OperatorTable.from_function((l, y), lambda s: drop.get(s, s))
    report = check_axioms(broken)

    monkeypatch.setattr("conseq.cli.tabulate", lambda system, universe: broken)
    code, out, _ = run(capsys, "check", write(NEG))
    assert code == 2
    assert out.splitlines() == [str(r) for r in report]
    assert "monotonicity: FAIL at {*l} {*l,y} (3 checks)" in out


def test_verify_subcommand_passes_on_ternary(write, capsys):
    code, out, _ = run(capsys, "verify-thm23", write(TERNARY))
    assert code == 0
    assert "no-match-fixed: pass" in out
    assert "closed-form-agreement: pass" in out


def test_verify_subcommand_rejects_chaining_system(write, capsys):
    code, _, err = run(capsys, "verify-thm23", write(NEG))
    assert code == 1
    assert "not a mixed ternary system" in err


def test_influence_ternary_and_binary(write, capsys):
    code, out, _ = run(
        capsys, "influence", write(TERNARY), "--conclusion", "b1", "--premise", "a1"
    )
    assert code == 0
    assert out == "conclusion b1 (premise a1): multiplicity 1\n"

    code, out, _ = run(capsys, "influence", write(BINARY), "--conclusion", "b1")
    assert code == 0
    assert out == "conclusion b1: multiplicity 1\n"


def test_influence_records_output(write, capsys):
    code, out, _ = run(
        capsys,
        "influence",
        write(TERNARY),
        "--conclusion",
        "b1",
        "--premise",
        "a1",
        "--output",
        "records",
    )
    assert code == 0
    assert out.strip() == "conclusion=b1 premise=a1 multiplicity=1"

    code, out, _ = run(capsys, "influence", write(BINARY), "--conclusion", "b1", "--output", "records")
    assert code == 0
    assert out == "conclusion=b1 multiplicity=1\n"


def test_influence_requires_conclusion(write, capsys):
    code, _, err = run(capsys, "influence", write(TERNARY))
    assert code == 1
    assert "--conclusion" in err


def test_influence_unknown_symbol(write, capsys):
    code, _, err = run(capsys, "influence", write(TERNARY), "--conclusion", "zz")
    assert code == 1
    assert "zz" in err


def test_influence_premise_flag_needs_ternary_rules(write, capsys):
    code, _, err = run(
        capsys, "influence", write(BINARY), "--conclusion", "b1", "--premise", "b2"
    )
    assert code == 1
    assert "not ternary" in err


def test_chain_emits_its_document(capsys):
    code, out, _ = run(capsys, "chain", "--length", "4")
    assert code == 0
    doc = parse_system(out)
    assert len(doc.system) == 4
    assert {s.name for s in doc.language.symbols} == {f"s{i}" for i in range(5)}


def test_chain_rejects_bad_length(capsys):
    code, _, err = run(capsys, "chain", "--length", "0")
    assert code == 1
    assert "at least 1" in err


def test_chain_rejects_a_length_that_is_not_an_integer(capsys):
    code, out, err = run(capsys, "chain", "--length", "x")
    assert code == 1 and out == ""
    assert "'x' is not an integer" in err


def test_chain_rejects_length_over_the_cap(capsys, monkeypatch):
    def no_symbols(*args):
        raise AssertionError("a symbol was built")

    monkeypatch.setattr(cli, "Symbol", no_symbols)
    code, out, err = run(capsys, "chain", "--length", str(CHAIN_CAP + 1))
    assert code == 1
    assert out == ""
    assert f"cap of {CHAIN_CAP}" in err


@pytest.mark.parametrize(
    "argv, status, stream",
    [(["chain", "--length", "1"], 0, "rule: s0 => s1"), (["no-such-command"], 1, "invalid choice")],
)
def test_entry_exits_with_the_status_of_main(capsys, monkeypatch, argv, status, stream):
    # the console script's entry point reads sys.argv and exits with main's code
    monkeypatch.setattr(sys, "argv", ["conseq", *argv])
    with pytest.raises(SystemExit) as info:
        cli.entry()
    assert info.value.code == status
    out, err = capsys.readouterr()
    assert stream in (err if status else out)


def test_canon_is_idempotent(write, capsys):
    messy = "nonstandard: l2 l1\nstandard: b2 b1 a1\nrule: b1 l2 => b2\nrule: a1 l1 => b1\n"
    path = write(messy)
    code, once, _ = run(capsys, "canon", path)
    assert code == 0
    path2 = write(once, name="canon.lgs")
    code, twice, _ = run(capsys, "canon", path2)
    assert code == 0
    assert once == twice
    assert once.splitlines()[0] == "standard: a1 b1 b2"


def test_parse_error_reports_location(write, capsys):
    code, _, err = run(capsys, "canon", write("standard a1"))
    assert code == 1
    assert err.startswith("error: line 1, col 10:")


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "close", "/no/such/file.lgs")
    assert code == 1
    assert "error:" in err


def test_bad_usage_exits_one(capsys):
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "close")[0] == 1
    assert run(capsys)[0] == 1


def test_cli_loads_only_the_standard_library():
    # the package promises no runtime dependencies: importing the CLI loads
    # nothing from outside the standard library but conseq itself
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import conseq.cli\n"
        "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))\n"
    )
    src = str(Path(conseq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "conseq" in loaded
    assert {m for m in loaded if m != "conseq" and m not in sys.stdlib_module_names} == set()
