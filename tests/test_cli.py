"""End-to-end CLI tests: golden output, exit codes, and config precedence.

Commands run in process through main(argv) so the whole file stays fast;
golden files under tests/golden/ pin the exact bytes each command prints.
"""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from quadliaison import cli, verify
from quadliaison.cli import (
    EXIT_INCONSISTENT,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    MAX_WINDOW_TWISTS,
    _echo,
    app,
    load_scenario,
    main,
)
from quadliaison.ambient import QUADRIC3
from quadliaison.classify import etype_candidates
from quadliaison.curves import CurveClass
from quadliaison.errors import MappingConeInconsistent
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


@pytest.mark.parametrize("argv, code, out, err", [
    ("-d 8 -g 4 --via 2,3", EXIT_OK, golden("resolve_84_ntype.txt"), ""),
    ("-d 8 -g 4 --via 2,3 --format csv", EXIT_OK, golden("resolve_84_ntype.csv"), ""),
    ("-d 10 -g 7 --via 3,3", EXIT_INCONSISTENT, "",
     "inconsistent: consistency check failed at twist 1: 0 != 1\n"),
], ids=["text", "csv", "cone-fails"])
def test_resolve_ntype_audits_its_output_once(argv, code, out, err, monkeypatch, capsys):
    """The N-type's one audit both screens the mapping cone, raising when it
    fails, and gives the printed report."""
    from quadliaison import liaison

    audits = []
    audit = liaison.resolution_consistency_check
    monkeypatch.setattr(liaison, "resolution_consistency_check",
                        lambda *args: audits.append(args) or audit(*args))
    got = run(capsys, "resolve", "--ambient", "q", "--ntype", "--window", "0:6", *argv.split())
    assert got == (code, out, err)
    assert len(audits) == 1


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("flavor", [["--etype"], ["--ntype", "--via", "2,3"]],
                         ids=["etype", "ntype"])
def test_resolve_reads_each_audit_cell_at_most_twice(flavor, fmt, monkeypatch, capsys):
    """On the 10,000-twist window 990001:1000000 a passing audit's cells are
    read at most twice each in every format: once for its verdict (the
    N-type's one audit raises unless it passes) and once for the output."""
    from quadliaison.liaison import CellCheck

    reads = []
    ok = CellCheck.ok
    monkeypatch.setattr(CellCheck, "ok", property(lambda cell: reads.append(1) or ok.fget(cell)))
    code, out, err = run(capsys, "resolve", "--ambient", "q", "-d", "8", "-g", "4", *flavor,
                         "--window=990001:1000000", "--format", fmt)
    assert (code, err) == (EXIT_OK, "")
    assert len(reads) <= 20_000
    if fmt == "text":
        assert out.splitlines()[1] == ("consistency PASS over n in [990001,1000000]"
                                       " (rank diff 1, c1 diff 0)")
    elif fmt == "csv":
        rows = out.splitlines()[1:]
        assert len(rows) == 10_000 and all(row.endswith(",true") for row in rows)
    else:
        got = json.loads(out)["consistency"]
        assert got["ok"] is True and [c[3] for c in got["cells"]] == [True] * 10_000


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


# indices of the rows of the reference table compared with an expected value
PLAIN_ROWS = [i for i, (_, _, expected) in enumerate(verify._CHECKS)
              if expected is not verify._OWN_VERDICT]


def changed_verify_lines(out: str) -> dict[int, str]:
    """The lines of `ql verify` output that differ from the golden, by index."""
    got, want = out.splitlines(), golden("verify.txt").splitlines()
    assert len(got) == len(want) == 41
    return {i: line for i, (line, old) in enumerate(zip(got, want)) if line != old}


@pytest.mark.parametrize("index", PLAIN_ROWS, ids=lambda i: verify._CHECKS[i][0])
def test_changing_one_expected_value_fails_exactly_that_line(index, monkeypatch, capsys):
    """A plain row compares its thunk's value with its expected one and
    nothing else: a wrong expected value fails that line alone, with exit 3."""
    name, thunk, _ = verify._CHECKS[index]
    checks = list(verify._CHECKS)
    checks[index] = (name, thunk, "a value no check computes")
    monkeypatch.setattr(verify, "_CHECKS", tuple(checks))
    code, out, _ = run(capsys, "verify")
    assert code == EXIT_INCONSISTENT
    got = golden("verify.txt").splitlines()[index].split(": ", 1)[1].partition(" (expected ")[0]
    assert changed_verify_lines(out) == {
        index: f"{'FAIL':<21}  {name}: {got} (expected a value no check computes)",
        40: "40 checks: 38 pass, 1 expected-discrepancy, 1 fail",
    }


def test_a_failing_mapping_cone_fails_both_ntype_lines_with_its_message(monkeypatch, capsys):
    """MappingConeInconsistent from the mapping cone fails the two rows that
    build it, with the exception's message, and no other line changes."""
    def inconsistent(*args):
        raise MappingConeInconsistent(2, 5, 6)

    monkeypatch.setattr(verify, "mapping_cone_n_from_e", inconsistent)
    code, out, _ = run(capsys, "verify")
    assert code == EXIT_INCONSISTENT
    message = "consistency check failed at twist 2: 5 != 6"
    assert changed_verify_lines(out) == {
        28: f"{'FAIL':<21}  ntype-derived-84: {message}",
        29: f"{'FAIL':<21}  ntype-roundtrip: {message}",
        40: "40 checks: 37 pass, 1 expected-discrepancy, 2 fail",
    }


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


def test_a_changed_genus_spectrum_fails_with_its_value_and_the_expected_one(
    monkeypatch, capsys
):
    """The spectrum row's detail says "omits 4" only on a PASS; a FAIL
    shows the spectrum it got next to the one it expects."""
    monkeypatch.setattr(verify, "_quadric_surface_genus_spectrum", lambda d: {0, 4, 5, 8, 9})
    code, out, _ = run(capsys, "verify")
    assert code == EXIT_INCONSISTENT
    assert changed_verify_lines(out) == {
        39: f"{'FAIL':<21}  quadric-surface-spectrum: "
            "genus spectrum {0,4,5,8,9} (expected {0,5,8,9})",
        40: "40 checks: 38 pass, 1 expected-discrepancy, 1 fail",
    }


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
     "unknown ambient '--' (expected p2, p3, p4 or quadric3)"),
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
    # C(10^12 + 500, 500) has about 6,000 digits, past Python's 4,300; a
    # window that far out is now refused when read, in every format, and the
    # largest count the domain allows, C(10^6 + 4, 4) on P4, has 23 digits
    assert len(str(h0_proj(4, 10**6))) == 23
    code, out, err = run(
        capsys, "table", "--ambient", "p4", "-d", "1", "-g", "0", "--rows", "ambient",
        "--window=1000000000000:1000000000000", "--format", fmt,
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: window '1000000000000:1000000000000' must lie in -1000000..1000000\n"


# The input domain: argv at a bound, which must exit 0 or 2 within 0.5 s,
# argv one past it, and the message it must exit 1 with.  A `table` argv
# runs with each of --rows ambient, ideal and full.  The lower bounds of a
# curve's degree and genus (1 and 0) and of a --ci degree (1) keep their
# messages from CurveClass and CILinkage, `link` included, so only the
# E-type's unused --via reaches the lower bound of the domain itself.
BIG, LOW = "--window=990001:1000000", "--window=-1000000:-990001"
Q84 = ["--ambient", "q", "-d", "8", "-g", "4"]
DOMAIN = {
    "ambient": (["table", "--ambient", "p4", "-d", "8", "-g", "4"],
                ["table", "--ambient", "p5", "-d", "8", "-g", "4"],
                "unknown ambient 'p5' (expected p2, p3, p4 or quadric3)"),
    "degree-table": (["table", "--ambient", "p4", "-d", "1000000000", "-g", "0", BIG],
                     ["table", "--ambient", "p4", "-d", "1000000001", "-g", "0", BIG],
                     "degree must lie in -1000000000..1000000000, got 1000000001"),
    "degree-link": (["link", "-d", "1000000000", "-g", "0", "--ci", "1000000,1000000,1000000"],
                    ["link", "-d", "1000000001", "-g", "0", "--ci", "1000000,1000000,1000000"],
                    "degree must lie in -1000000000..1000000000, got 1000000001"),
    "degree-link-low": (["link", "-d", "1", "-g", "0", "--ci", "2,2,3"],
                        ["link", "-d", "0", "-g", "0", "--ci", "2,2,3"],
                        "degree must be positive, got 0"),
    "degree-resolve": (["resolve", "--ambient", "q", "-d", "1000000000", "-g", "0", "--etype"],
                       ["resolve", "--ambient", "q", "-d", "1000000001", "-g", "0", "--etype"],
                       "degree must lie in -1000000000..1000000000, got 1000000001"),
    "genus-table": (["table", "--ambient", "p3", "-d", "1", "-g", "1000000000", BIG],
                    ["table", "--ambient", "p3", "-d", "1", "-g", "1000000001", BIG],
                    "genus must lie in -1000000000..1000000000, got 1000000001"),
    "genus-link": (["link", "-d", "8", "-g", "1000000000", "--ci", "2,2,3"],
                   ["link", "-d", "8", "-g", "1000000001", "--ci", "2,2,3"],
                   "genus must lie in -1000000000..1000000000, got 1000000001"),
    "genus-link-low": (["link", "-d", "8", "-g", "0", "--ci", "2,2,3"],
                       ["link", "-d", "8", "-g=-1", "--ci", "2,2,3"],
                       "genus must be nonnegative, got -1"),
    "genus-resolve": (["resolve", "--ambient", "q", "-d", "1000000000", "-g", "1000000000",
                       "--etype"],
                      ["resolve", "--ambient", "q", "-d", "1000000000", "-g", "1000000001",
                       "--etype"],
                      "genus must lie in -1000000000..1000000000, got 1000000001"),
    "ci": (["link", "-d", "8", "-g", "4", "--ci", "1000000,1000000,3"],
           ["link", "-d", "8", "-g", "4", "--ci", "1000000,1000001,3"],
           "ci must lie in -1000000..1000000, got 1000001"),
    "ci-low": (["link", "-d", "8", "-g", "4", "--ci", "2,3"],
               ["link", "-d", "8", "-g", "4", "--ci=2,-1000001"],
               "ci must lie in -1000000..1000000, got -1000001"),
    "ci-count": (["link", "-d", "8", "-g", "4", "--ci", "2,2,3"],
                 ["link", "-d", "8", "-g", "4", "--ci", "2,2,3,2"],
                 "--ci needs two or three hypersurface degrees"),
    "ci-counted-first": (["link", "-d", "8", "-g", "4", "--ci", "2,2,3"],
                         ["link", "-d", "8", "-g", "4", "--ci", "2,2,3,x"],
                         "--ci needs two or three hypersurface degrees"),
    "via": (["resolve", *Q84, "--etype", "--via=1000000,-1000000"],
            ["resolve", *Q84, "--etype", "--via=1000001,-1000000"],
            "via must lie in -1000000..1000000, got 1000001"),
    "via-low": (["resolve", *Q84, "--etype", "--via=1000000,-1000000"],
                ["resolve", *Q84, "--ntype", "--via=2,-1000001"],
                "via must lie in -1000000..1000000, got -1000001"),
    "via-count": (["resolve", *Q84, "--ntype", "--via", "2,3"],
                  ["resolve", *Q84, "--ntype", "--via", "2,3,x"],
                  "--via needs exactly two divisor twists"),
    "window-table": (["table", *Q84, BIG],
                     ["table", *Q84, "--window=990002:1000001"],
                     "window '990002:1000001' must lie in -1000000..1000000"),
    "window-table-low": (["table", *Q84, LOW],
                         ["table", *Q84, "--window=-1000001:-990002"],
                         "window '-1000001:-990002' must lie in -1000000..1000000"),
    "window-resolve": (["resolve", *Q84, "--etype", BIG],
                       ["resolve", *Q84, "--etype", "--window=990002:1000001"],
                       "window '990002:1000001' must lie in -1000000..1000000"),
}


@pytest.mark.parametrize("case", DOMAIN)
def test_input_domain_at_each_bound_and_one_past_it(case, capsys):
    at, past, message = DOMAIN[case]
    rows = (["--rows=ambient"], ["--rows=ideal"], ["--rows=full"]) if at[0] == "table" else ([],)
    for extra in rows:
        start = time.perf_counter()
        code, out, err = run(capsys, *at, *extra)
        assert time.perf_counter() - start < 0.5, extra
        assert code in (EXIT_OK, EXIT_INFEASIBLE), (extra, err)
        assert (out == "") == (code == EXIT_INFEASIBLE), extra
        assert run(capsys, *past, *extra) == (EXIT_USAGE, "", f"error: {message}\n"), extra


@pytest.mark.parametrize("degree, genus, message", [
    ("-1000000001", "0", "degree must lie in -1000000000..1000000000, got -1000000001"),
    ("-1000000000", "0", "degree must be positive, got -1000000000"),
    ("-5", "-3", "degree must be positive, got -5"),
    ("8", "-3", "genus must be nonnegative, got -3"),
])
def test_link_refuses_what_is_past_the_domain_then_a_class_no_curve_has(
    degree, genus, message, capsys
):
    """The domain is read first, then `link` refuses a degree below 1 or a
    genus below 0 as CurveClass does, instead of printing a residual."""
    assert run(capsys, "link", f"-d={degree}", f"-g={genus}", "--ci", "2,2,3") == (
        EXIT_USAGE, "", f"error: {message}\n")


def test_a_long_ci_list_is_refused_before_any_degree_is_converted(tmp_path, capsys):
    """A scenario line has no length limit, so a list is counted before any
    entry is converted: 400 degrees of 4,000 digits are refused at once."""
    path = tmp_path / "long.ql"
    path.write_text("ci=" + ",".join(["9" * 4000] * 400) + "\n")
    start = time.perf_counter()
    got = run(capsys, "link", "-d", "8", "-g", "4", "--scenario", str(path))
    assert time.perf_counter() - start < 0.05
    assert got == (EXIT_USAGE, "", "error: --ci needs two or three hypersurface degrees\n")


def test_a_value_is_echoed_whole_up_to_40_characters():
    assert _echo("x" * 40) == repr("x" * 40)
    assert _echo("x" * 41) == repr("x" * 40) + "... (41 characters)"
    assert _echo(-10**38) == str(-10**38)
    assert _echo(10**40) == "1" + "0" * 39 + "... (41 characters)"
    # past the 4,300 digits that str() converts, an integer is still echoed
    assert _echo(-2 * 10**4300) == "-2" + "0" * 38 + "... (4302 characters)"


def cut(value: str) -> str:
    """How a message quotes a string value longer than 40 characters."""
    return f"{value[:40]!r}... ({len(value)} characters)"


NINES, LONG, CI = "9" * 4000, "x" * 100_000, ",".join(["9" * 50_000] * 3)
DIGITS = "9" * 4300  # the most digits that int() and str() convert
TABLE = ["table", "--ambient", "q", "-d", "8", "-g", "4"]
# A value of any length at each place a message echoes it: the argv, a
# scenario line or None, and the message the command exits 1 with.
LONG_VALUES = {
    "ci-scenario": (["link", "-d", "8", "-g", "4"], "ci=" + CI,
                    f"ci must be comma-separated integers, got {cut(CI)}"),
    "window-digits": ([*TABLE, "--window", "1:" + "9" * 100_000], None,
                      f"window must be lo:hi with integers, got {cut('1:' + '9' * 100_000)}"),
    "window-colons": ([*TABLE, "--window", "1:2:" + NINES], None,
                      f"window must be lo:hi, got {cut('1:2:' + NINES)}"),
    "window-empty": ([*TABLE, f"--window={NINES}:1"], None, f"empty window {cut(NINES + ':1')}"),
    "window-span": ([*TABLE, "--window", f"1:{NINES}"], None,
                    f"window {cut('1:' + NINES)} spans {NINES[:40]}... (4000 characters) twists; "
                    "at most 10000 are allowed"),
    "window-span-past-str": ([*TABLE, f"--window=-{DIGITS}:{DIGITS}"], None,
                             f"window {cut(f'-{DIGITS}:{DIGITS}')} spans 1{NINES[:39]}... "
                             "(4301 characters) twists; at most 10000 are allowed"),
    "window-range": ([*TABLE, "--window", f"{NINES}:{NINES}"], None,
                     f"window {cut(NINES + ':' + NINES)} must lie in -1000000..1000000"),
    "degree-text": (["link", "-d", LONG, "-g", "4", "--ci", "2,2,3"], None,
                    f"degree must be an integer, got {cut(LONG)}"),
    "genus-digits": (["link", "-d", "8", "-g", NINES, "--ci", "2,2,3"], None,
                     f"genus must lie in -1000000000..1000000000, got {NINES[:40]}... "
                     "(4000 characters)"),
    "ambient": (["table", "--ambient", "p" * 100_000, "-d", "8", "-g", "4"], None,
                f"unknown ambient {cut('p' * 100_000)} (expected p2, p3, p4 or quadric3)"),
    "scenario-line": (TABLE, LONG, f"scenario line is not key=value: {cut(LONG)}"),
    "scenario-key": (TABLE, LONG + "=1", f"unknown scenario key {cut(LONG)} on line 1"),
    "scenario-path": ([*TABLE, "--scenario", LONG], None,
                      f"[Errno 36] File name too long: {cut(LONG)}"),
    "format": ([*TABLE, "--format", LONG], None, f"unknown format {cut(LONG)}"),
    "rows": ([*TABLE, "--rows", LONG], None, f"unknown rows selection {cut(LONG)}"),
}


@pytest.mark.parametrize("case", LONG_VALUES)
def test_a_long_value_is_echoed_as_its_first_40_characters_and_its_length(
    case, tmp_path, capsys
):
    """However long a refused value is, its message stays under 1 KB."""
    argv, scenario, message = LONG_VALUES[case]
    if scenario is not None:
        path = tmp_path / "long.ql"
        path.write_text(scenario + "\n")
        argv = [*argv, "--scenario", str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")
    assert len(err.encode()) < 1024


@pytest.mark.parametrize("argv, message", [
    ([*TABLE, LONG], "unrecognized arguments: " + LONG),
    ([*TABLE, "--" + LONG], "unrecognized arguments: --" + LONG),
    ([LONG], None),  # argparse's list of choices reads differently across versions
], ids=["stray-argument", "unknown-flag", "unknown-command"])
def test_a_long_usage_error_is_cut_to_its_head_and_its_length(argv, message, capsys):
    """argparse quotes what it refuses; past 300 characters its message is cut."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    usage, line = err.splitlines()
    assert usage.startswith("usage: ql ")
    if message is not None:
        assert line == f"ql: error: {message[:300]}... ({len(message)} characters)"
    assert len(err.encode()) < 1024


def test_stopping_early_keeps_what_the_full_table_reports(tmp_path, capsys):
    # a bad format named by a scenario is refused, with nothing printed,
    # after a table at the bounds is computed; a computation error still wins
    path = tmp_path / "fmt.ql"
    path.write_text("format = xml\n")
    argv = ["table", "--ambient", "p4", "-d", "1000000000", "-g", "0", "--scenario", str(path)]
    assert run(capsys, *argv, BIG) == (EXIT_USAGE, "", "error: unknown format 'xml'\n")
    assert run(capsys, *argv, "--rows", "ideal")[:2] == (EXIT_INFEASIBLE, "")
    # a negative ideal count on an in-domain class still exits 2 with its twist
    for rows in ("ideal", "full"):
        assert run(capsys, "table", "--ambient", "p4", "-d", "1000000000", "-g", "0",
                   "--rows", rows, "--window=0:3999") == (
            EXIT_INFEASIBLE, "",
            "infeasible: section count -999999996 < 0 at twist 1: no such curve\n",
        )
    # full tables still refuse P2 before counting, even where its ideal is negative
    code, out, err = run(capsys, "table", "--ambient", "p2", "-d", "8", "-g", "4", "--rows", "full")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: full tables need an ambient of dimension >= 3\n"


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


def test_a_scenario_saved_with_a_byte_order_mark_and_crlf_reads_as_plain(tmp_path, capsys):
    """An editor may save the file with a leading byte-order mark and CRLF
    line ends; the mark must not join the first key."""
    lines = ["ambient=q", "degree=8", "genus=4", "rows=ideal", "window=0:6"]
    plain, marked = tmp_path / "plain.ql", tmp_path / "marked.ql"
    plain.write_bytes("".join(f"{line}\n" for line in lines).encode())
    marked.write_bytes(b"\xef\xbb\xbf" + "".join(f"{line}\r\n" for line in lines).encode())
    got = [run(capsys, "table", "--scenario", str(path))[:2] for path in (plain, marked)]
    assert got[0] == got[1] == (EXIT_OK, golden("table_84_q_ideal.txt"))


@pytest.mark.parametrize("text, message", [
    ("rows=ideal\nwindw=0:2\n", "unknown scenario key 'windw' on line 2"),
    ("ambient=q\ndegree=8\ngenus=4\n\ufeffrows=ideal\n",
     "unknown scenario key '\\ufeffrows' on line 4"),
    ("rows=ideal\nflavor=etype\netype=1\n", "unknown scenario key 'etype' on line 3"),
    ("rows=ideal\nntype=yes\n", "unknown scenario key 'ntype' on line 2"),
    ("scenario=other.ql\n", "unknown scenario key 'scenario' on line 1"),
], ids=["typo", "mid-file-mark", "etype-switch", "ntype-switch", "nested-scenario"])
def test_an_unknown_scenario_key_is_refused_with_its_line(text, message, tmp_path, capsys):
    """A misspelled key, or one behind a byte-order mark in mid-file, names no
    flag: it exits 1 as an unknown flag does, instead of leaving the default.
    So does a switch, which no command reads from a file, and a nested
    scenario, which would be left unread."""
    path = tmp_path / "typo.ql"
    path.write_text(text, encoding="utf-8")
    got = run(capsys, *TABLE, "--scenario", str(path))
    assert got == (EXIT_USAGE, "", f"error: {message}\n")


def test_a_repeated_key_or_another_commands_key_is_accepted(tmp_path, capsys):
    """The last of a repeated key wins, and a key that only another command
    reads (ci, via and flavor) is ignored."""
    path = tmp_path / "curve.ql"
    path.write_text("ambient=q\ndegree=8\ngenus=4\nrows=full\nrows=ideal\nwindow=0:6\n"
                    "ci=2,2,3\nvia=2,3\nflavor=etype\n")
    assert run(capsys, "table", "--scenario", str(path)) == (
        EXIT_OK, golden("table_84_q_ideal.txt"), "")


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
