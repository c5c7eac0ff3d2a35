"""End-to-end CLI tests: golden output, exit codes, and config precedence.

Commands run in process through main(argv) so the whole file stays fast;
golden files under tests/golden/ pin the exact bytes each command prints.
"""

import json
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


@pytest.mark.parametrize("module", ["quadliaison", "quadliaison.cli"])
def test_python_m_runs_the_cli(module):
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", module, "verify"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert proc.stdout == golden("verify.txt")


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
