"""The flag table against the hand-written parser it replaced.

``reference_parser`` is the ``build_parser`` that declared every flag by
hand, with ``type=int`` on -d/-g and ``choices`` on --format/--rows, kept
as the oracle; it offers --window to table and resolve only, the two
commands that read a window.  ``cli.build_parser`` builds the same commands
from one table and leaves every value check to the commands, so:

- the help and usage of ``ql`` and of each command are the same text;
- on the fuzz grammar and a few hand-picked argv, both parsers exit alike or
  give the same namespace once the reference's ints are written as text;
- where only the reference refuses a value, ``cli.main`` refuses it too,
  with exit 1 and nothing on stdout.  A bad --format is the one exception:
  the format is read after the result is computed, so a computation error
  (exit 2 or 3) wins over it, from a flag as from a scenario file.
"""

import argparse
import random
import re

import pytest
from test_cli_fuzz import DRAWS, SEED, draw, scenario_paths  # noqa: F401

from quadliaison.cli import (
    _Parser,
    build_parser,
    cmd_link,
    cmd_resolve,
    cmd_table,
    cmd_verify,
    main,
)


def reference_parser() -> argparse.ArgumentParser:
    def common(window: bool) -> _Parser:
        parent = _Parser(add_help=False)
        parent.add_argument(
            "--format", choices=("text", "csv", "json"), default=None,
            help="output format (default text)",
        )
        if window:
            parent.add_argument(
                "--window", default=None, metavar="LO:HI",
                help="inclusive twist window (default -1:8, or QL_WINDOW); "
                "write --window=-1:4 when LO is negative",
            )
        parent.add_argument(
            "--scenario", default=None, metavar="FILE",
            help="key=value defaults; flags override",
        )
        return parent

    # link and verify read no window, so they take no --window
    windowed, unwindowed = common(window=True), common(window=False)

    parser = _Parser(
        prog="ql",
        description=(
            "Exact cohomology tables, liaison arithmetic, and resolution "
            "checks for ACM curves on the quadric threefold and in "
            "projective space."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    table = sub.add_parser(
        "table", parents=[windowed], help="print cohomology tables for a curve class"
    )
    table.add_argument("--ambient", default=None, help="p2, p3, p4 or quadric3 (q)")
    table.add_argument("-d", "--degree", type=int, default=None)
    table.add_argument("-g", "--genus", type=int, default=None)
    table.add_argument(
        "--rows", choices=("full", "ideal", "section", "ambient"), default=None,
        help="which table to print (default full)",
    )
    table.set_defaults(func=cmd_table)

    link = sub.add_parser(
        "link", parents=[unwindowed], help="residual degree and genus across a linkage"
    )
    link.add_argument("-d", "--degree", type=int, default=None)
    link.add_argument("-g", "--genus", type=int, default=None)
    link.add_argument(
        "--ci", default=None, metavar="D1,D2,...",
        help="hypersurface degrees of the complete intersection",
    )
    link.set_defaults(func=cmd_link)

    resolve = sub.add_parser(
        "resolve", parents=[windowed], help="synthesize and check a resolution"
    )
    resolve.add_argument("--ambient", default=None, help="must be quadric3")
    resolve.add_argument("-d", "--degree", type=int, default=None)
    resolve.add_argument("-g", "--genus", type=int, default=None)
    flavor = resolve.add_mutually_exclusive_group()
    flavor.add_argument("--etype", action="store_true", help="E-type resolution")
    flavor.add_argument("--ntype", action="store_true", help="N-type via a linkage")
    resolve.add_argument(
        "--via", default=None, metavar="A,B",
        help="divisor twists of the linking intersection (N-type)",
    )
    resolve.set_defaults(func=cmd_resolve)

    verify = sub.add_parser(
        "verify", parents=[unwindowed], help="run the reference-check suite"
    )
    verify.set_defaults(func=cmd_verify)

    return parser


# the values only the reference's type=int and choices refuse
REFUSED = re.compile(r"error: argument (-d/--degree|-g/--genus|--rows|--format): invalid ")

HAND_PICKED = [
    ["table", "--amb", "q", "-d", "8", "-g", "4"],
    ["table", "--ambient", "q", "-d8", "-g4"],
    ["link", "-d", "8", "-d", "9", "-g", "4", "--ci", "2,2,3"],
    ["table", "--ambient", "q", "-d", "8", "-g", "4", "--window", "-1:4"],
    ["table", "--ambient", "q", "-d", "8", "-g", "4", "--window=-1:4"],
    ["--"],
    ["--", "verify"],
    ["link", "-d", "8", "-g", "4", "--ci", "2,2,3", "--"],
    ["link", "-d", "8", "-g", "4", "--ci", "2,2,3", "--window=abc"],
    ["verify", "--window", "0:6"],
    ["link", "--", "-d", "8"],
    ["link", "--degree=--", "-g", "4", "--ci", "2,2,3"],
    ["link", "-d", "8", "--genus=--", "--ci", "2,2,3", "--format=--"],
    ["table", "--ambient", "q", "-d", "8", "-g", "4", "--rows=--"],
    ["resolve", "--ambient", "q", "-d", "8", "-g", "4", "--etype", "--ntype"],
    ["table", "--ambient", "q", "-d", "x", "-g", "4", "--rows", "bogus"],
    ["table", "--ambient", "p4", "-d", "8", "-g", "x", "--rows", "ambient"],
    ["link", "-d", "8", "-g", "1.5", "--ci", "2,2,3", "--format", "yaml"],
    [],
    ["-h"],
    ["table", "-h"],
    ["link", "--help"],
    ["resolve", "-h", "--etype"],
    ["verify", "-h"],
]


def commands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def parse(parser, argv, capsys):
    """(namespace as a dict, or None on exit; exit code; stdout; stderr)"""
    try:
        namespace = parser.parse_args(argv)
    except SystemExit as exc:
        return (None, exc.code, *capsys.readouterr())
    # the reference's ints written as text; its switches stay booleans
    return ({k: str(v) if type(v) is int else v for k, v in vars(namespace).items()},
            None, *capsys.readouterr())


@pytest.mark.parametrize("command", [None, "table", "link", "resolve", "verify"])
def test_help_and_usage_are_the_reference_text(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    ours, reference = build_parser(), reference_parser()
    if command is not None:
        ours, reference = commands(ours)[command], commands(reference)[command]
    assert ours.format_help() == reference.format_help()
    assert ours.format_usage() == reference.format_usage()


def test_parsers_agree_on_fuzzed_and_hand_picked_argv(scenario_paths, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    rng = random.Random(SEED)
    cases = []
    for _ in range(DRAWS):  # the draws of test_cli_fuzz, with its QL_WINDOW picks
        argv = draw(rng, scenario_paths)
        env = rng.choice(("0:6", "-1:4", "9:2", "x")) if rng.random() < 0.1 else None
        cases.append((argv, env))
    cases += [(argv, None) for argv in HAND_PICKED]
    refused = 0
    for argv, env in cases:
        reference = parse(reference_parser(), argv, capsys)
        ours = parse(build_parser(), argv, capsys)
        if reference[0] is not None:
            assert ours == reference, argv
        elif ours[0] is None:
            assert ours[1] == reference[1], argv
            assert ours[2:] == reference[2:] or REFUSED.search(reference[3]), argv
        else:
            assert REFUSED.search(reference[3]), argv
            if env is None:
                monkeypatch.delenv("QL_WINDOW", raising=False)
            else:
                monkeypatch.setenv("QL_WINDOW", env)
            rc = main(argv)
            out, _ = capsys.readouterr()
            assert out == "", argv
            assert rc == 1 or (rc in (2, 3) and "--format" in reference[3]), argv
            refused += 1
    # the draws reach the values that only the reference refused
    assert refused >= 20, refused
