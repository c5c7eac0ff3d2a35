"""End-to-end CLI tests: golden output, exit codes, and config precedence.

Commands run in process through main(argv) so the whole file stays fast;
golden files under tests/golden/ pin the exact bytes each command prints.
"""

import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from quadliaison import cli, verify
from quadliaison.cli import (
    EXIT_INCONSISTENT,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    app,
    load_scenario,
    main,
)
from quadliaison.ambient import QUADRIC3
from quadliaison.classify import etype_candidates
from quadliaison.curves import MAX_WINDOW_TWISTS, CurveClass
from quadliaison.hilbert import h0_proj
from quadliaison.sheaves import line_bundle, spinor

GOLDEN = Path(__file__).parent / "golden"


def golden(name):
    return (GOLDEN / name).read_text()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_full_grid_golden(capsys):
    code, out, err = run(
        capsys, "table", "--ambient", "p4", "-d", "8", "-g", "4",
        "--rows", "full", "--window=-1:4",
    )
    assert code == EXIT_OK
    assert err == ""
    assert out == golden("table_84_p4_full.txt")


def test_table_ideal_row_golden(capsys):
    code, out, _ = run(
        capsys, "table", "--ambient", "q", "-d", "8", "-g", "4",
        "--rows", "ideal", "--window", "0:6",
    )
    assert code == EXIT_OK
    assert out == golden("table_84_q_ideal.txt")


def test_table_ideal_csv_golden(capsys):
    code, out, _ = run(
        capsys, "table", "--ambient", "q", "-d", "8", "-g", "4",
        "--rows", "ideal", "--window", "0:6", "--format", "csv",
    )
    assert code == EXIT_OK
    assert out == golden("table_84_q_ideal.csv")


def test_table_json_structure(capsys):
    code, out, _ = run(
        capsys, "table", "--ambient", "q", "-d", "8", "-g", "4",
        "--rows", "ideal", "--window", "0:6", "--format", "json",
    )
    assert code == EXIT_OK
    got = json.loads(out)
    assert got["row"] == "ideal"
    assert got["window"] == [0, 6]
    assert got["values"] == [
        [0, 0], [1, 0], [2, 1], [3, 9], [4, 26], [5, 54], [6, 95],
    ]
    assert got["curve"] == {"ambient": "quadric3", "degree": 8, "genus": 4}


def test_table_line_in_p4(capsys):
    # a line sits on three independent hyperplanes and twelve quadrics
    code, out, _ = run(
        capsys, "table", "--ambient", "p4", "-d", "1", "-g", "0",
        "--rows", "ideal", "--window", "0:2", "--format", "csv",
    )
    assert code == EXIT_OK
    assert out == "n,value\n0,0\n1,3\n2,12\n"


def test_table_infeasible_curve_exits_2(capsys):
    code, out, err = run(
        capsys, "table", "--ambient", "p3", "-d", "8", "-g", "4",
        "--rows", "ideal",
    )
    assert code == EXIT_INFEASIBLE
    assert out == ""
    assert err.startswith("infeasible:")
    assert "twist 1" in err


def test_link_text(capsys):
    code, out, _ = run(capsys, "link", "-d", "8", "-g", "4", "--ci", "2,2,3")
    assert code == EXIT_OK
    assert out == "4 0\n"


def test_link_csv_and_json(capsys):
    code, out, _ = run(
        capsys, "link", "-d", "8", "-g", "4", "--ci", "2,2,3",
        "--format", "csv",
    )
    assert code == EXIT_OK
    assert out == "degree,genus\n4,0\n"
    code, out, _ = run(
        capsys, "link", "-d", "8", "-g", "4", "--ci", "2,2,3",
        "--format", "json",
    )
    assert code == EXIT_OK
    assert json.loads(out) == {"degree": 4, "genus": 0}


def test_link_degenerate_residual_exits_2(capsys):
    code, _, err = run(capsys, "link", "-d", "8", "-g", "4", "--ci", "2,2")
    assert code == EXIT_INFEASIBLE
    assert err.startswith("infeasible:")


def test_resolve_etype_golden(capsys):
    code, out, _ = run(
        capsys, "resolve", "--ambient", "q", "-d", "8", "-g", "4",
        "--etype", "--window", "0:6",
    )
    assert code == EXIT_OK
    assert out == golden("resolve_84_etype.txt")


def test_resolve_ntype_golden(capsys):
    code, out, _ = run(
        capsys, "resolve", "--ambient", "q", "-d", "8", "-g", "4",
        "--ntype", "--via", "2,3", "--window", "0:6",
    )
    assert code == EXIT_OK
    assert out == golden("resolve_84_ntype.txt")


def test_resolve_ntype_csv_golden(capsys):
    code, out, _ = run(
        capsys, "resolve", "--ambient", "q", "-d", "8", "-g", "4",
        "--ntype", "--via", "2,3", "--window", "0:6", "--format", "csv",
    )
    assert code == EXIT_OK
    assert out == golden("resolve_84_ntype.csv")


def test_resolve_json_structure(capsys):
    code, out, _ = run(
        capsys, "resolve", "--ambient", "q", "-d", "4", "-g", "0",
        "--etype", "--window", "0:6", "--format", "json",
    )
    assert code == EXIT_OK
    got = json.loads(out)
    assert got["flavor"] == "E-type"
    assert got["resolution"] == "0 -> 2*E0(-1) -> 5*O(-2) -> I_C -> 0"
    assert got["kernel"] == "2*E0(-1)"
    assert got["middle"] == "5*O(-2)"
    assert got["consistency"]["ok"] is True
    assert got["consistency"]["rank_diff"] == 1
    assert got["consistency"]["c1_diff"] == 0
    assert len(got["consistency"]["cells"]) == 7


def test_resolve_requires_quadric(capsys):
    code, _, err = run(
        capsys, "resolve", "--ambient", "p4", "-d", "8", "-g", "4", "--etype",
    )
    assert code == EXIT_USAGE
    assert "quadric threefold" in err


def test_resolve_ntype_off_the_quadric_is_refused(capsys):
    code, out, err = run(
        capsys, "resolve", "--ambient", "p4", "-d", "8", "-g", "4", "--ntype", "--via", "2,3",
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: resolutions are classified on the quadric threefold only\n"


@pytest.mark.parametrize("window", [[], ["--window=-1:40"], ["--window", "0:60"]])
def test_resolve_regularity_error_names_the_fixed_window(capsys, window):
    """The generator estimate reads the default window whatever --window is,
    and the message says so."""
    code, out, err = run(
        capsys, "resolve", "--ambient", "q", "-d", "8", "-g", "40", "--etype", *window,
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        "error: the generator estimate's fixed window -1:8 does not certify"
        " a regularity bound; --window does not change it\n"
    )


def test_resolve_ntype_requires_via(capsys):
    code, _, err = run(
        capsys, "resolve", "--ambient", "q", "-d", "8", "-g", "4", "--ntype",
    )
    assert code == EXIT_USAGE
    assert "--via" in err


def test_resolve_rejects_malformed_via(capsys):
    code, _, err = run(
        capsys, "resolve", "--ambient", "q", "-d", "8", "-g", "4",
        "--ntype", "--via", "2",
    )
    assert code == EXIT_USAGE
    assert err.startswith("error:")


@pytest.mark.parametrize("argv, code, out, err", [
    (["--etype", "--via=x,y", "--window", "0:6"], EXIT_USAGE, "",
     "error: via must be comma-separated integers, got 'x,y'\n"),
    (["--etype", "--via", "1,2,3"], EXIT_USAGE, "",
     "error: --via needs exactly two divisor twists\n"),
    (["--etype", "--via", "2,3", "--window", "0:6"], EXIT_OK, golden("resolve_84_etype.txt"), ""),
], ids=["letters", "three-twists", "good"])
def test_resolve_checks_a_given_via_for_either_flavor(capsys, argv, code, out, err):
    """The E-type does not read --via, but a given value is checked as the
    N-type checks it, with the same messages."""
    argv = ["resolve", "--ambient", "q", "-d", "8", "-g", "4", *argv]
    assert run(capsys, *argv) == (code, out, err)


@pytest.mark.parametrize("d, g", [(1, 0), (3, 0), (6, 2), (7, 3), (8, 4), (4, 0)])
def test_library_and_cli_classify_on_one_default_window(capsys, d, g):
    """With no window given, etype_candidates keeps as many kernels as
    ql resolve --etype reports: its not-unique count, or 1 on exit 0."""
    _, kernels = etype_candidates(CurveClass(QUADRIC3, d, g))
    code, _, err = run(capsys, "resolve", "--ambient", "q", "-d", str(d), "-g", str(g), "--etype")
    ambiguous = re.search(r"is not unique: (\d+) candidates", err)
    if ambiguous is None:
        assert code == EXIT_OK
    assert len(kernels) == (1 if ambiguous is None else int(ambiguous.group(1)))


def test_resolve_ambiguous_kernel_exits_3(capsys):
    # E0(-5) and E0(-6) have no sections below twist 7, so the window
    # cannot tell them apart and classification must refuse to choose
    code, out, err = run(
        capsys, "resolve", "--ambient", "q", "-d", "6", "-g", "2",
        "--etype", "--window", "0:6",
    )
    assert code == EXIT_INCONSISTENT
    assert out == ""
    assert "not unique: 2 candidates" in err
    assert "inconsistent:" in err


@pytest.mark.parametrize("d, g", [(2, 7), (7, 22)])
def test_resolve_with_regularity_one_past_the_window_exits_3(capsys, d, g):
    """The fixed window -1:8 certifies regularity 9 for these classes, so the
    generator estimate counts one twist past it; then no kernel fits."""
    code, out, err = run(
        capsys, "resolve", "--ambient", "q", "-d", str(d), "-g", str(g), "--etype",
    )
    assert (code, out) == (EXIT_INCONSISTENT, "")
    assert err == (f"kernel match for ({d},{g}) in quadric3 is not unique: 0 candidates\n"
                   "inconsistent: ambiguous kernel classification\n")


def test_resolve_exit_codes_over_the_class_grid(capsys):
    """Every Q class with d <= 20 and 0 <= g < 4d, E-type and N-type via
    (2,3), ends in a documented exit code with no exception escaping."""
    codes = {EXIT_OK, EXIT_USAGE, EXIT_INFEASIBLE, EXIT_INCONSISTENT}
    for d in range(1, 21):
        for g in range(4 * d):
            for flavor in (["--etype"], ["--ntype", "--via", "2,3"]):
                argv = ["resolve", "--ambient", "q", "-d", str(d), "-g", str(g), *flavor]
                assert run(capsys, *argv)[0] in codes, argv


def test_verify_golden_and_exit(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == EXIT_OK
    assert out == golden("verify.txt")


def test_verify_csv_golden(capsys):
    code, out, _ = run(capsys, "verify", "--format", "csv")
    assert code == EXIT_OK
    assert out == golden("verify.csv")


@pytest.mark.parametrize("kernel, middle, audit", [
    (line_bundle(-3, 5), line_bundle(-2) + line_bundle(-3) + spinor(-1, 2),
     "consistency PASS over n in [0,6] (rank diff 1, c1 diff 0)"),
    (line_bundle(-5, 5), line_bundle(-2) + line_bundle(-3) + spinor(-3, 2),
     "consistency FAIL at n=3: 6 != 9"),
], ids=["passes", "fails-at-3"])
def test_verify_fails_when_the_documented_discrepancy_changes_shape(
    kernel, middle, audit, monkeypatch, capsys
):
    """The EXPECTED-DISCREPANCY holds only for the published twists'
    failure at n=2 (0 != 1): a printed triple that passes the audit, or
    fails it at another cell, is a FAIL, and ql verify exits 3."""
    printed = verify.PRINTED_NTYPE_84._replace(kernel=kernel, middle=middle)
    monkeypatch.setattr(verify, "PRINTED_NTYPE_84", printed)
    code, out, _ = run(capsys, "verify")
    assert code == EXIT_INCONSISTENT
    line = next(line for line in out.splitlines() if "ntype-printed-twists" in line)
    detail = "documented discrepancy changed shape: " + audit
    assert line == f"{'FAIL':<21}  ntype-printed-twists: {detail}"
    assert out.endswith("40 checks: 39 pass, 0 expected-discrepancy, 1 fail\n")


def run_module(module, *argv):
    """``python -m module argv`` in a fresh interpreter with ``src`` on the path."""
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", module, *argv], capture_output=True, env=env, timeout=60,
    )


@pytest.mark.parametrize("module", ["quadliaison", "quadliaison.cli"])
def test_python_m_runs_the_cli(module):
    proc = run_module(module, "verify")
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
    assert proc.stdout == (GOLDEN / "verify.txt").read_bytes()


def test_python_m_without_arguments_prints_usage():
    proc = run_module("quadliaison")
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, b"")
    assert proc.stderr.decode().splitlines()[0].startswith("usage: ql ")


def test_verify_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "verify")
    _, second, _ = run(capsys, "verify")
    assert first == second


def readme_commands() -> list[list[str]]:
    """The argv of each ``ql`` line in the README's CLI block."""
    section = (Path(__file__).parent.parent / "README.md").read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("ql ")]


def test_every_flag_a_command_lists_is_read(capsys, monkeypatch):
    """A flag that a command offers but never reads passes any value
    unchecked.  Each command's parsed namespace records every name read
    from it, through ``_Run.get`` or directly (resolve's ``etype|ntype``),
    over the README commands, each --rows, and each --format of every
    README command; each flag a command lists must be read by one argv."""
    commands = cli._COMMANDS
    read = {command: set() for command in commands}

    def recording(command, func):
        class Recorded(argparse.Namespace):
            def __getattribute__(self, name):
                read[command].add(name)
                return super().__getattribute__(name)

        return lambda args: func(Recorded(**vars(args)))

    monkeypatch.setattr(cli, "_COMMANDS", {
        command: (recording(command, func), *rest) for command, (func, *rest) in commands.items()
    })
    argv_set = readme_commands()
    argv_set += [[*argv, "--format", fmt] for argv in argv_set for fmt in ("text", "csv", "json")]
    argv_set += [["table", "--ambient", "q", "-d", "8", "-g", "4", "--rows", rows]
                 for rows in ("full", "ideal", "section", "ambient")]
    assert {argv[0] for argv in argv_set} == set(commands)
    for argv in argv_set:
        assert run(capsys, *argv)[0] in (EXIT_OK, EXIT_USAGE), argv
    for command, (_, _, flags, _) in commands.items():
        listed = set(flags.replace("|", " ").split())
        assert listed <= read[command], (command, listed - read[command])


def test_unknown_command_exits_1(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == EXIT_USAGE
    assert err != ""


def test_missing_arguments_exit_1(capsys):
    code, _, err = run(capsys, "table", "--ambient", "q")
    assert code == EXIT_USAGE
    assert err != ""


def test_bad_format_exits_1(capsys):
    code, _, _ = run(
        capsys, "table", "--ambient", "q", "-d", "8", "-g", "4",
        "--format", "yaml",
    )
    assert code == EXIT_USAGE


@pytest.mark.parametrize("key, flag, value, message", [
    ("degree", "-d", "x", "degree must be an integer, got 'x'"),
    ("genus", "-g", "1.5", "genus must be an integer, got '1.5'"),
    ("rows", "--rows", "diagonal", "unknown rows selection 'diagonal'"),
    ("format", "--format", "yaml", "unknown format 'yaml'"),
], ids=["degree", "genus", "rows", "format"])
def test_a_bad_value_gets_one_message_from_a_flag_or_a_scenario(
    key, flag, value, message, tmp_path, capsys
):
    path = tmp_path / "bad.ql"
    path.write_text(f"{key}={value}\n")
    good = [part for pair in (("-d", "8"), ("-g", "4")) if pair[0] != flag for part in pair]
    argv = ["table", "--ambient", "q", *good]
    from_flag = run(capsys, *argv, flag, value)
    from_scenario = run(capsys, *argv, "--scenario", str(path))
    assert from_flag == from_scenario == (EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["link", "--degree=--", "-g", "4", "--ci", "2,2,3"],
     "degree must be an integer, got '--'"),
    (["table", "--ambient=--", "-d", "8", "-g", "4"],
     "unknown ambient '--' (expected p<n> or quadric3)"),
    (["table", "--ambient", "q", "-d", "8", "-g", "4", "--window=--"],
     "window must be lo:hi, got '--'"),
    (["link", "-d", "8", "-g", "4", "--ci=--"],
     "ci must be comma-separated integers, got '--'"),
    (["resolve", "--ambient", "q", "-d", "8", "-g", "4", "--ntype", "--via=--"],
     "via must be comma-separated integers, got '--'"),
], ids=["degree", "ambient", "window", "ci", "via"])
def test_a_flag_value_of_double_dash_is_reported_as_typed(argv, message, capsys):
    assert run(capsys, *argv) == (EXIT_USAGE, "", f"error: {message}\n")


def test_bad_window_exits_1(capsys):
    code, _, err = run(
        capsys, "table", "--ambient", "q", "-d", "8", "-g", "4",
        "--window", "abc",
    )
    assert code == EXIT_USAGE
    assert err.startswith("error:")


@pytest.mark.parametrize("source", ["flag", "scenario", "env"])
def test_window_width_is_capped_from_every_source(source, monkeypatch, tmp_path, capsys):
    """MAX_WINDOW_TWISTS twists print; one more is a usage error, however given."""
    argv = ["table", "--ambient", "q", "-d", "8", "-g", "4", "--rows", "section"]

    def table(window):
        if source == "flag":
            return run(capsys, *argv, f"--window={window}")
        if source == "scenario":
            path = tmp_path / "wide.ql"
            path.write_text(f"window={window}\n")
            return run(capsys, *argv, "--scenario", str(path))
        monkeypatch.setenv("QL_WINDOW", window)
        return run(capsys, *argv)

    code, out, err = table(f"1:{MAX_WINDOW_TWISTS}")
    assert code == EXIT_OK and err == ""
    assert out.split("\n")[0].split()[-1] == str(MAX_WINDOW_TWISTS)
    code, out, err = table(f"-{MAX_WINDOW_TWISTS}:0")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        f"error: window '-{MAX_WINDOW_TWISTS}:0' spans {MAX_WINDOW_TWISTS + 1} twists; "
        f"at most {MAX_WINDOW_TWISTS} are allowed\n"
    )


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_value_too_long_to_print_is_a_readable_usage_error(fmt, capsys):
    # C(10^12 + 500, 500) has about 6,000 digits, past Python's 4,300
    code, out, err = run(
        capsys, "table", "--ambient", "p500", "-d", "1", "-g", "0", "--rows", "ambient",
        "--window=1000000000000:1000000000000", "--format", fmt,
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        f"error: a value to print has more than {sys.get_int_max_str_digits()} digits; "
        "narrow the window or the twists\n"
    )


HUGE_AMBIENT = ["--ambient", "p99999999", "-d", "1", "-g", "0"]


def first_unprintable_twist(dim: int) -> int:
    """The first n >= 0 at which C(dim + n, dim) has more digits than Python prints."""
    n, limit = 0, 10 ** sys.get_int_max_str_digits()
    while h0_proj(dim, n) < limit:
        n += 1
    return n


TOO_LONG = (
    f"error: a value to print has more than {sys.get_int_max_str_digits()} digits; "
    "narrow the window or the twists\n"
)


def counted_comb(monkeypatch) -> list:
    """Patch math.comb to record the first argument of every call."""
    comb, calls = math.comb, []
    monkeypatch.setattr(math, "comb", lambda n, k: calls.append(n) or comb(n, k))
    return calls


@pytest.mark.parametrize("rows, fmt", [("ambient", "text"), ("ideal", "csv"), ("full", "json")])
def test_tables_stop_at_the_first_value_too_long_to_print(rows, fmt, capsys, monkeypatch):
    """Each count of the window used to be built before printing failed, so
    the time grew with the ambient dimension, and then only the counts up to
    the first one too long to print.  Now a bracket on the top twist's count
    decides, and the window's counts are only compared with bounds: none is
    built, whatever the window's top twist."""
    first = first_unprintable_twist(99999999)
    assert first == 776
    calls = counted_comb(monkeypatch)
    for top in (999, 3999):
        calls.clear()
        code, out, err = run(capsys, "table", *HUGE_AMBIENT, "--rows", rows,
                             f"--window=0:{top}", "--format", fmt)
        assert (code, out, err) == (EXIT_USAGE, "", TOO_LONG)
        assert calls == []
    # the bracket leaves the counts next to the limit to an exact comparison
    for twist, code in ((first - 1, EXIT_OK), (first, EXIT_USAGE)):
        got = run(capsys, "table", *HUGE_AMBIENT, "--rows", rows, f"--window={twist}:{twist}",
                  "--format", fmt)
        assert got[0] == code and got[2] == ("" if code == EXIT_OK else TOO_LONG)


@pytest.mark.parametrize("dim", [300000, 1000000, 3000000])
@pytest.mark.parametrize("rows", ["ambient", "ideal", "full"])
def test_one_twist_window_on_a_huge_ambient_builds_no_count(rows, dim, capsys, monkeypatch):
    """C(2m, m) has about 0.6 m digits, and building it used to come before
    the print check failed; a bound on its size now decides without it."""
    calls = counted_comb(monkeypatch)
    code, out, err = run(capsys, "table", "--ambient", f"p{dim}", "-d", "1", "-g", "0",
                         "--rows", rows, f"--window={dim}:{dim}")
    assert (code, out, err) == (EXIT_USAGE, "", TOO_LONG)
    assert calls == []


@pytest.mark.parametrize("ambient", ["p3", "p4", "p500", "quadric3"])
@pytest.mark.parametrize("rows", ["ambient", "ideal", "full"])
def test_short_count_windows_build_each_count_once(ambient, rows, capsys, monkeypatch):
    """With every count of the window short, the check for counts too long
    to print builds none on P^m, where a bracket decides them: the math.comb
    calls are the table's own, as in a run with no digit cap.  On Q the
    check builds only the top twist's count, a cubic, exactly."""
    argv = ["table", "--ambient", ambient, "-d", "3", "-g", "0", "--rows", rows,
            "--window=-3:40", "--format", "csv"]
    calls = counted_comb(monkeypatch)
    capped = run(capsys, *argv), list(calls)
    calls.clear()
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    uncapped = run(capsys, *argv), calls
    top_count = [40 + 4, 40 + 2] if ambient == "quadric3" else []
    assert capped == (uncapped[0], top_count + uncapped[1])
    assert capped[0][0] == EXIT_OK


def test_stopping_early_keeps_what_the_full_table_reports(tmp_path, capsys, monkeypatch):
    # a bad format named by a scenario still wins over a value too long to print
    path = tmp_path / "fmt.ql"
    path.write_text("format = xml\n")
    code, out, err = run(capsys, "table", *HUGE_AMBIENT, "--rows", "ideal",
                         "--window=0:3999", "--scenario", str(path))
    assert (code, out, err) == (EXIT_USAGE, "", "error: unknown format 'xml'\n")
    # a negative ideal count below the first long value still exits 2
    for rows in ("ideal", "full"):
        code, out, err = run(capsys, "table", "--ambient", "p99999999", "-d", "1000000000",
                             "-g", "0", "--rows", rows, "--window=0:3999")
        assert (code, out) == (EXIT_INFEASIBLE, "")
        assert err == "infeasible: section count -900000001 < 0 at twist 1: no such curve\n"
    # full tables still refuse P2 before counting, even where its ideal is negative
    code, out, err = run(capsys, "table", "--ambient", "p2", "-d", "8", "-g", "4", "--rows", "full")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: full tables need an ambient of dimension >= 3\n"
    # a walked window with no long value prints what an unlimited run prints
    argv = ["table", *HUGE_AMBIENT, "--rows", "full", "--window=0:500"]
    limited = run(capsys, *argv)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    assert run(capsys, *argv) == limited
    assert limited[0] == EXIT_OK


def test_scenario_file_supplies_defaults(tmp_path, capsys):
    path = tmp_path / "curve.ql"
    path.write_text(
        "# octic of genus four on the quadric\n"
        "ambient = quadric3\n"
        "degree = 8\n"
        "genus = 4\n"
        "rows = ideal\n"
        "window = 0:6\n"
    )
    code, out, _ = run(capsys, "table", "--scenario", str(path))
    assert code == EXIT_OK
    assert out == golden("table_84_q_ideal.txt")


def test_flags_override_scenario(tmp_path, capsys):
    path = tmp_path / "curve.ql"
    path.write_text("ambient=quadric3\ndegree=8\ngenus=4\nrows=ideal\nwindow=0:6\n")
    code, out, _ = run(
        capsys, "table", "--scenario", str(path), "--window", "0:2",
    )
    assert code == EXIT_OK
    assert out == " n:  0  1  2\nh0:  0  0  1\n"


def test_scenario_rejects_malformed_lines(tmp_path, capsys):
    path = tmp_path / "bad.ql"
    path.write_text("degree 8\n")
    code, _, err = run(capsys, "table", "--scenario", str(path))
    assert code == EXIT_USAGE
    assert err.startswith("error:")


def test_missing_scenario_file_exits_1(tmp_path, capsys):
    code, _, err = run(
        capsys, "table", "--scenario", str(tmp_path / "absent.ql"),
    )
    assert code == EXIT_USAGE
    assert err.startswith("error:")


def test_load_scenario_parses_comments_and_blanks(tmp_path):
    path = tmp_path / "s.ql"
    path.write_text("# header\n\nambient = q\n  degree=4  \n")
    assert load_scenario(str(path)) == {"ambient": "q", "degree": "4"}


def test_env_window_applies(monkeypatch, capsys):
    monkeypatch.setenv("QL_WINDOW", "0:4")
    code, out, _ = run(
        capsys, "table", "--ambient", "q", "-d", "4", "-g", "0",
        "--rows", "section",
    )
    assert code == EXIT_OK
    assert out == " n:  0  1  2   3   4\nh0:  1  5  9  13  17\n"


def test_scenario_window_beats_env(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("QL_WINDOW", "0:2")
    path = tmp_path / "s.ql"
    path.write_text("window=0:6\n")
    code, out, _ = run(
        capsys, "table", "--ambient", "q", "-d", "8", "-g", "4",
        "--rows", "ideal", "--scenario", str(path),
    )
    assert code == EXIT_OK
    assert out == golden("table_84_q_ideal.txt")


def test_flag_window_beats_env(monkeypatch, capsys):
    monkeypatch.setenv("QL_WINDOW", "0:6")
    code, out, _ = run(
        capsys, "table", "--ambient", "q", "-d", "8", "-g", "4",
        "--rows", "ideal", "--window", "0:2",
    )
    assert code == EXIT_OK
    assert out == " n:  0  1  2\nh0:  0  0  1\n"


@pytest.mark.parametrize("source", ["flag", "scenario", "flag over scenario"])
def test_empty_window_is_a_usage_error(source, monkeypatch, tmp_path, capsys):
    """An empty --window= or scenario window= is a bad window, not a
    fall-through to the next source; an empty QL_WINDOW counts as unset."""
    monkeypatch.setenv("QL_WINDOW", "0:3")
    argv = ["table", "--ambient", "q", "-d", "8", "-g", "4", "--rows", "ideal"]
    if source != "flag":
        path = tmp_path / "s.ql"
        path.write_text("window=\n" if source == "scenario" else "window=0:2\n")
        argv += ["--scenario", str(path)]
    if source != "scenario":
        argv.append("--window=")
    assert run(capsys, *argv) == (EXIT_USAGE, "", "error: window must be lo:hi, got ''\n")
    monkeypatch.setenv("QL_WINDOW", "")
    code, out, _ = run(capsys, "table", "--ambient", "q", "-d", "8", "-g", "4", "--rows", "ideal")
    assert (code, out.split()[1]) == (EXIT_OK, "-1")


def test_empty_scenario_is_a_usage_error(capsys):
    """An empty --scenario= names no file: it exits 1 with nothing on
    stdout, as an empty --window= does, instead of loading no defaults."""
    code, out, err = run(capsys, "table", "--ambient", "q", "-d", "8", "-g", "4",
                         "--rows", "ideal", "--window", "0:2", "--scenario=")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: [Errno 2] No such file or directory: ''\n"


def test_app_raises_systemexit(monkeypatch, capsys):
    monkeypatch.setattr(
        "sys.argv", ["ql", "link", "-d", "8", "-g", "4", "--ci", "2,2,3"],
    )
    with pytest.raises(SystemExit) as info:
        app()
    assert info.value.code == EXIT_OK
    assert capsys.readouterr().out == "4 0\n"
