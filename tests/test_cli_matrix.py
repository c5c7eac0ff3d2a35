"""Byte-for-byte replay of a fixed CLI argv grid against a recorded golden.

The grid covers every command under every output format and row
selection, the default, positive and negative windows, the usage,
infeasible and inconsistent exits, and the flag > scenario > QL_WINDOW
precedence.  tests/golden/cli_matrix.json holds (rc, stdout, stderr) for
each case; re-record it only when a change of output is intended:

    PYTHONPATH=src python tests/test_cli_matrix.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

from quadliaison.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_matrix.json"

FORMATS = ([], ["--format", "text"], ["--format", "csv"], ["--format", "json"])
WINDOWS = ([], ["--window", "0:6"], ["--window=-1:4"])
ROWS = ("full", "ideal", "section", "ambient")


def _case(argv, env=None, scenario=None):
    return {"argv": argv, "env": env, "scenario": scenario}


def grid():
    cases = []
    tables = (("p4", 8, 4), ("q", 8, 4), ("q", 4, 0), ("p3", 8, 4), ("p2", 1, 0))
    for ambient, d, g in tables:
        for i, rows in enumerate(([], *(["--rows", r] for r in ROWS))):
            for j, fmt in enumerate(FORMATS):
                argv = ["table", "--ambient", ambient, "-d", str(d), "-g", str(g)]
                cases.append(_case(argv + rows + fmt + WINDOWS[(i + j) % 3]))
    for ci, d, g in (("2,2,3", 8, 4), ("2,3", 3, 0), ("2,2", 8, 4), ("2,2,3", 7, 0),
                     ("2,2,2", 8, 4), ("2,x", 8, 4), ("0,2,3", 8, 4)):
        for fmt in FORMATS:
            cases.append(_case(["link", "-d", str(d), "-g", str(g), "--ci", ci] + fmt))
    resolves = (
        ("8", "4", ["--etype"]),
        ("4", "0", ["--etype"]),
        ("6", "2", ["--etype"]),
        ("8", "4", ["--ntype", "--via", "2,3"]),
    )
    for d, g, flavor in resolves:
        argv = ["resolve", "--ambient", "q", "-d", d, "-g", g] + flavor
        for window in WINDOWS:
            cases.append(_case(argv + window))
        for fmt in FORMATS[2:]:
            cases.append(_case(argv + fmt + WINDOWS[1]))
    for d, g, tail in (
        ("4", "0", ["--ntype", "--via", "2,3"]),
        ("8", "4", ["--ntype", "--via=-1,5"]),
        ("8", "4", ["--ntype", "--via", "1,1"]),
        ("8", "4", ["--ntype", "--via", "2,2"]),
        ("8", "4", ["--ntype", "--via", "2"]),
        ("8", "4", ["--ntype", "--via", "x,y"]),
        ("8", "4", ["--ntype"]),
        ("8", "4", []),
        ("2", "0", ["--etype"]),
        ("8", "9", ["--etype"]),
        ("5", "2", ["--etype", "--window", "0:6"]),
        ("7", "4", ["--ntype", "--via", "2,3", "--window", "0:6"]),
        ("10", "7", ["--ntype", "--via", "3,3", "--window", "0:6"]),
    ):
        for fmt in (FORMATS[0], FORMATS[3]):
            cases.append(_case(["resolve", "--ambient", "q", "-d", d, "-g", g] + tail + fmt))
    cases.append(_case(["resolve", "--ambient", "p4", "-d", "8", "-g", "4", "--etype"]))
    for fmt in (FORMATS[0], *FORMATS[2:]):
        cases.append(_case(["verify"] + fmt))
    cases.append(_case(["verify"], scenario="format=yaml\n"))

    ideal = ["table", "--ambient", "q", "-d", "8", "-g", "4", "--rows", "ideal"]
    for window in (["--window", "abc"], ["--window", "3:1"], ["--window", "1:2:3"]):
        cases.append(_case(ideal + window))
    for env in ("0:4", "", "abc"):
        cases.append(_case(ideal, env=env))
        cases.append(_case(ideal, env=env, scenario="window=0:2\n"))
        cases.append(_case(ideal + ["--window", "0:6"], env=env, scenario="window=0:2\n"))
    full_q84 = "ambient=quadric3\ndegree=8\ngenus=4\n"
    for scenario in (
        full_q84 + "rows=ideal\nwindow=0:6\n",
        full_q84 + "# comment\n\nrows = section  # trailing\n",
        full_q84 + "format=csv\n",
        full_q84 + "format=yaml\n",
        "ambient=p3\ndegree=8\ngenus=4\nformat=yaml\n",
        full_q84 + "rows=diagonal\n",
        full_q84 + "window=abc\n",
        "ambient=quadric3\ndegree=x\ngenus=4\n",
        "degree 8\n",
    ):
        cases.append(_case(["table"], scenario=scenario))
    cases.append(_case(["table", "--format", "json"], scenario=full_q84 + "format=csv\n"))
    cases.append(_case(["table", "--ambient", "q"]))
    cases.append(_case(["link", "--ci", "2,2,3"], scenario="degree=8\ngenus=4\nformat=json\n"))
    cases.append(_case(["link", "-d", "8", "-g", "4"]))
    for scenario in ("flavor=etype\n", "flavor=ntype\nvia=2,3\n", "flavor=other\n"):
        cases.append(_case(["resolve", "--window", "0:6"], scenario=full_q84 + scenario))
    cases.append(_case(["resolve", "--etype"], env="0:6", scenario=full_q84 + "format=csv\n"))
    return cases


def replay(case, tmpdir):
    """(rc, stdout, stderr) of cli.main on one case, run in process."""
    argv = list(case["argv"])
    if case["scenario"] is not None:
        path = os.path.join(tmpdir, "scenario.ql")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(case["scenario"])
        argv += ["--scenario", path]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop("QL_WINDOW", None)
        if case["env"] is not None:
            os.environ["QL_WINDOW"] = case["env"]
        rc = main(argv)
    return [rc, out.getvalue(), err.getvalue()]


def test_cli_matrix_matches_golden(tmp_path):
    recorded = json.loads(GOLDEN.read_text())
    assert [entry["case"] for entry in recorded] == grid()
    for entry in recorded:
        got = replay(entry["case"], str(tmp_path))
        assert got == entry["result"], entry["case"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        entries = [{"case": case, "result": replay(case, tmp)} for case in grid()]
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"recorded {len(entries)} cases into {GOLDEN}", file=sys.stderr)
