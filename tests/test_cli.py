"""End-to-end CLI tests: golden output, exit codes, and config precedence.

Commands run in process through main(argv) so the whole file stays fast;
golden files under tests/golden/ pin the exact bytes each command prints.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quadliaison.cli import (
    EXIT_INCONSISTENT,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    app,
    load_scenario,
    main,
)
from quadliaison.curves import MAX_WINDOW_TWISTS
from quadliaison.hilbert import h0_proj

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


def test_verify_golden_and_exit(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == EXIT_OK
    assert out == golden("verify.txt")


def test_verify_csv_golden(capsys):
    code, out, _ = run(capsys, "verify", "--format", "csv")
    assert code == EXIT_OK
    assert out == golden("verify.csv")


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


def test_app_raises_systemexit(monkeypatch, capsys):
    monkeypatch.setattr(
        "sys.argv", ["ql", "link", "-d", "8", "-g", "4", "--ci", "2,2,3"],
    )
    with pytest.raises(SystemExit) as info:
        app()
    assert info.value.code == EXIT_OK
    assert capsys.readouterr().out == "4 0\n"
