"""Command-line front end.

Subcommands: ``table`` (section/ideal/full cohomology tables), ``link``
(residual degree and genus across a complete intersection), ``resolve``
(synthesize and check E-type/N-type resolutions), ``verify`` (run the
reference-check suite).

Exit codes: 0 success, 1 usage error, 2 mathematical infeasibility,
3 internal inconsistency.  Output is byte-deterministic for fixed
arguments.  The environment variable QL_WINDOW (``lo:hi``) sets the
default twist window of ``table`` and ``resolve``, the two commands that
read one; a scenario file sets per-run defaults; flags win.

Input domain.  Each value is checked when it is read, the same way from a
flag, a scenario file or QL_WINDOW, and one outside the domain exits 1
with its key's message: the ambient is p2, p3, p4 or quadric3 (q); the
degree and genus lie in -10^9..10^9, and a curve, ``link``'s included,
needs degree >= 1 and genus >= 0; --ci has two or three degrees and --via
two twists, each in -10^6..10^6; a window spans at most 10,000 twists,
both ends in -10^6..10^6.

Commands import what they use beyond ambient, curves and errors when they
run: ``table`` loads no other module, and only ``verify`` loads the suite.
"""

from __future__ import annotations

import argparse
import os
import sys

from .ambient import P2, P3, P4, QUADRIC3, Ambient
from .curves import (DEFAULT_WINDOW, CurveClass, Window, _csv, _csv_field, ambient_table,
                     full_ideal_table, ideal_h0_table, render_value_csv, render_value_row,
                     section_table)
from .errors import InconsistencyError, InfeasibleError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_INCONSISTENT = 3


def _echo(value: str | int) -> str:
    """A value as a message quotes it: a string in quotes, an integer bare,
    whole up to 40 characters, else its first 40 and its length."""
    try:
        text = str(value)
    except ValueError:  # an integer past the 4,300 digits that str() converts
        from decimal import Decimal

        text = str(Decimal(value))
    head = repr(text[:40]) if isinstance(value, str) else text[:40]
    return head if len(text) <= 40 else f"{head}... ({len(text)} characters)"


class _Parser(argparse.ArgumentParser):
    """argparse reserves status 2 for usage errors; this CLI uses 1.  A
    message that quotes a long argument is cut, as ``_echo`` cuts a value."""

    def error(self, message):
        self.print_usage(sys.stderr)
        if len(message) > 300:
            message = f"{message[:300]}... ({len(message)} characters)"
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


#: Widest window, in twists, and largest |twist| at either end, that
#: ``parse_window`` accepts.  Windows passed to the table functions as tuples
#: are not capped.
MAX_WINDOW_TWISTS = 10_000
MAX_TWIST = 10**6

# The integer keys of the input domain: the bound on each value's size,
# and for a list key its allowed lengths with the message for any other.
_BOUNDS = {"degree": 10**9, "genus": 10**9, "ci": MAX_TWIST, "via": MAX_TWIST}
_LENGTHS = {
    "ci": ((2, 3), "--ci needs two or three hypersurface degrees"),
    "via": ((2,), "--via needs exactly two divisor twists"),
}


def _bounded(key: str, value: int) -> int:
    bound = _BOUNDS[key]
    if not -bound <= value <= bound:
        raise ValueError(f"{key} must lie in -{bound}..{bound}, got {_echo(value)}")
    return value


_LABELS = {"p2": P2, "p3": P3, "p4": P4, "quadric3": QUADRIC3, "q": QUADRIC3}


def parse_ambient(text: str) -> Ambient:
    """Parse an ambient label, in any case: ``p2``, ``p3``, ``p4``, ``quadric3`` or ``q``."""
    ambient = _LABELS.get(text.strip().lower())
    if ambient is None:
        raise ValueError(f"unknown ambient {_echo(text)} (expected p2, p3, p4 or quadric3)")
    return ambient


def parse_window(text: str) -> Window:
    """Parse ``lo:hi`` into an inclusive twist window of at most
    MAX_WINDOW_TWISTS twists, each in -MAX_TWIST..MAX_TWIST."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"window must be lo:hi, got {_echo(text)}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"window must be lo:hi with integers, got {_echo(text)}") from None
    if lo > hi:
        raise ValueError(f"empty window {_echo(text)}")
    if hi - lo + 1 > MAX_WINDOW_TWISTS:
        raise ValueError(
            f"window {_echo(text)} spans {_echo(hi - lo + 1)} twists; "
            f"at most {MAX_WINDOW_TWISTS} are allowed"
        )
    if lo < -MAX_TWIST or hi > MAX_TWIST:
        raise ValueError(f"window {_echo(text)} must lie in -{MAX_TWIST}..{MAX_TWIST}")
    return (lo, hi)


def load_scenario(path: str) -> dict[str, str]:
    """Flat key=value lines; blank lines, # comments and a byte-order mark are
    ignored.  A key is one of _SCENARIO_KEYS: a file sets no switch and
    names no other file."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as handle:
        for number, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"scenario line is not key=value: {_echo(raw.strip())}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _SCENARIO_KEYS:
                raise ValueError(f"unknown scenario key {_echo(key)} on line {number}")
            out[key] = value
    return out


class _Run:
    """One command invocation: CLI flags backed by scenario-file defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args, self.scenario = args, {}
        path = self.get("scenario")  # the flag alone: no scenario is loaded yet
        if path is not None:  # an empty --scenario= names no file: exit 1, as --window= does
            self.scenario = load_scenario(path)

    def get(self, key: str, default: str | None = None) -> str | None:
        flag = getattr(self.args, key, None)
        if flag == []:  # argparse 3.11 stores --flag=-- as []
            return "--"
        return self.scenario.get(key, default) if flag is None else flag

    def require(self, key: str) -> str:
        value = self.get(key)
        if value is None:
            raise ValueError(f"missing required option: {key}")
        return value

    def int_of(self, key: str) -> int:
        value = self.require(key)
        try:
            number = int(value)
        except ValueError:
            raise ValueError(f"{key} must be an integer, got {_echo(value)}") from None
        return _bounded(key, number)

    def window(self) -> Window:
        # an empty flag or scenario value is a bad window; an empty QL_WINDOW is unset
        text = self.get("window", os.environ.get("QL_WINDOW") or None)
        return DEFAULT_WINDOW if text is None else parse_window(text)

    def ambient(self) -> Ambient:
        return parse_ambient(self.require("ambient"))

    def curve(self) -> CurveClass:
        return CurveClass(self.ambient(), self.int_of("degree"), self.int_of("genus"))

    def int_list(self, key: str) -> tuple[int, ...]:
        # counted before any entry is converted, so a long list costs nothing;
        # a short one is refused after, so a malformed entry is reported as typed
        text = self.require(key)
        parts = text.split(",")
        lengths, message = _LENGTHS[key]
        if len(parts) > max(lengths):
            raise ValueError(message)
        try:
            values = tuple(map(int, parts))
        except ValueError:
            raise ValueError(f"{key} must be comma-separated integers, got {_echo(text)}") from None
        if len(values) not in lengths:
            raise ValueError(message)
        return tuple(_bounded(key, value) for value in values)

    def emit(self, text, csv, record) -> None:
        """Print the result in the chosen format.  Each argument renders it
        for one format when called: text and csv return the lines, record
        returns the JSON value.  The format is read here, after the result
        is computed, so a computation error wins over a bad format."""
        fmt = self.get("format", "text")
        renderers = {"text": text, "csv": csv, "json": lambda: _json_text(record())}
        if fmt not in renderers:
            raise ValueError(f"unknown format {_echo(fmt)}")
        print(renderers[fmt](), end="")


def _json_text(value) -> str:
    import json  # only the JSON format pays for this import

    return json.dumps(value) + "\n"


def _curve_json(curve: CurveClass) -> dict:
    return {
        "ambient": curve.ambient.label(),
        "degree": curve.degree,
        "genus": curve.genus,
    }


def cmd_table(args: argparse.Namespace) -> int:
    run = _Run(args)
    window = run.window()
    rows = run.get("rows", "full")
    curve = None if rows == "ambient" else run.curve()
    ambient = run.ambient() if curve is None else curve.ambient
    for key in ("degree", "genus") if curve is None else ():  # checked, though no curve is built
        if run.get(key) is not None:
            run.int_of(key)
    if rows == "full":
        table = full_ideal_table(curve, window)
        twists = range(window[0], window[1] + 1)
        run.emit(table.render_grid, table.render_csv, lambda: {
            "row": "full",
            "window": list(window),
            "rows": {
                f"h{i}": [[n, v] for n, v in zip(twists, table.rows[i])] for i in (3, 2, 1, 0)
            },
            "curve": _curve_json(curve),
            "notes": list(table.notes),
        })
        return EXIT_OK
    if rows == "ambient":
        values = ambient_table(ambient, window)
    elif rows == "section":
        values = section_table(curve, window)
    elif rows == "ideal":
        values = ideal_h0_table(curve, window)
    else:
        raise ValueError(f"unknown rows selection {_echo(rows)}")

    def record() -> dict:
        payload = {"row": rows, "window": list(window),
                   "values": [[n, values[n]] for n in sorted(values)]}
        if curve is not None:
            payload["curve"] = _curve_json(curve)
        return payload

    run.emit(lambda: render_value_row(values), lambda: render_value_csv(values), record)
    return EXIT_OK


def cmd_link(args: argparse.Namespace) -> int:
    from .liaison import CILinkage, ci_residual

    run = _Run(args)
    degrees = run.int_list("ci")
    linkage = CILinkage(len(degrees) + 1, degrees)
    d2, g2 = ci_residual(run.int_of("degree"), run.int_of("genus"), linkage)
    run.emit(lambda: f"{d2} {g2}\n", lambda: _csv("degree,genus", [f"{d2},{g2}"]),
             lambda: {"degree": d2, "genus": g2})
    return EXIT_OK


def _unique_etype(curve: CurveClass, window: Window) -> ResolutionTriple:
    from .classify import etype_candidates
    from .liaison import ResolutionFlavor, ResolutionTriple

    middle, matches = etype_candidates(curve, match_window=window)
    if len(matches) != 1:
        print(
            f"kernel match for {curve.label()} is not unique: "
            f"{len(matches)} candidates",
            file=sys.stderr,
        )
        for match in matches:
            print(f"  {match.render()}", file=sys.stderr)
        raise InconsistencyError("ambiguous kernel classification")
    return ResolutionTriple(matches[0], middle, curve, ResolutionFlavor.E_TYPE)


def cmd_resolve(args: argparse.Namespace) -> int:
    from .liaison import (ResolutionFlavor, _checked, _cone, residual_curve,
                          resolution_consistency_check)

    run = _Run(args)
    window = run.window()
    curve = run.curve().on_quadric()
    flavor = "etype" if args.etype else "ntype" if args.ntype else run.get("flavor")
    if flavor not in ("etype", "ntype"):
        raise ValueError("choose a flavor: --etype or --ntype")
    # the E-type reads no via, but checks a given one as the N-type does
    twists = None if run.get("via") is None else run.int_list("via")
    if flavor == "etype":
        triple = _unique_etype(curve, window)
        report = resolution_consistency_check(triple, window)
        ok = report.ok
    elif twists is None:
        raise ValueError("--via A,B (divisor twists) is required for N-type")
    else:  # mapping_cone_n_from_e: its one audit raises unless it passes, and gives the report
        etype = _unique_etype(residual_curve(curve, *twists), window)
        triple = _cone(etype, twists, ResolutionFlavor.E_TYPE)
        report, ok = _checked(triple, window), True
    run.emit(
        lambda: f"{triple.render()}\n{report.render_text()}\n",
        report.render_csv,
        lambda: {
            "flavor": triple.flavor.value,
            "resolution": triple.render(),
            "kernel": triple.kernel.render(),
            "middle": triple.middle.render(),
            "curve": _curve_json(triple.curve),
            "consistency": {
                "ok": ok,
                "window": list(window),
                "rank_diff": triple.rank_diff,
                "c1_diff": triple.c1_diff,
                "cells": [[c.twist, c.lhs, c.rhs, c.ok] for c in report.cells],
            },
        },
    )
    return EXIT_OK if ok else EXIT_INCONSISTENT


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import EXPECTED_DISCREPANCY, FAIL, PASS, run_reference_checks

    run = _Run(args)
    results = run_reference_checks()

    def text() -> str:
        count = [r.status for r in results].count
        lines = [f"{r.status:<21}  {r.name}: {r.detail}\n" for r in results]
        return "".join(lines) + (
            f"{len(results)} checks: {count(PASS)} pass, "
            f"{count(EXPECTED_DISCREPANCY)} expected-discrepancy, "
            f"{count(FAIL)} fail\n"
        )

    def csv() -> str:  # a CheckResult's fields are name, status, detail
        return _csv("name,status,detail", [",".join(map(_csv_field, r)) for r in results])

    run.emit(text, csv, lambda: [r._asdict() for r in results])
    return EXIT_OK if all(r.ok for r in results) else EXIT_INCONSISTENT


# Each flag by destination: its spellings, the metavar of its value in
# help (None for a switch), and its help.  argparse only splits argv; _Run
# checks every value, whether a flag or a scenario file gave it.
_FLAGS = {
    "format": (("--format",), "{text,csv,json}", "output format (default text)"),
    "window": (
        ("--window",), "LO:HI",
        "inclusive twist window (default -1:8, or QL_WINDOW); "
        "write --window=-1:4 when LO is negative",
    ),
    "scenario": (("--scenario",), "FILE", "key=value defaults; flags override"),
    "ambient": (("--ambient",), "AMBIENT", "p2, p3, p4 or quadric3 (q)"),
    "degree": (("-d", "--degree"), "DEGREE", None),
    "genus": (("-g", "--genus"), "GENUS", None),
    "rows": (("--rows",), "{full,ideal,section,ambient}", "which table to print (default full)"),
    "ci": (("--ci",), "D1,D2,...", "hypersurface degrees of the complete intersection"),
    "etype": (("--etype",), None, "E-type resolution"),
    "ntype": (("--ntype",), None, "N-type via a linkage"),
    "via": (("--via",), "A,B", "divisor twists of the linking intersection (N-type)"),
}
# The keys load_scenario accepts: every flag that takes a value but --scenario, and flavor.
_SCENARIO_KEYS = {"flavor"}.union(
    dest for dest, (_, metavar, _) in _FLAGS.items() if metavar and dest != "scenario")

# Each command: its handler, its help, its flags in help order ("a|b" for a
# mutually exclusive pair), and the help it gives a flag in place of _FLAGS'.
_COMMANDS = {
    "table": (cmd_table, "print cohomology tables for a curve class",
              "format window scenario ambient degree genus rows", {}),
    "link": (cmd_link, "residual degree and genus across a linkage",
             "format scenario degree genus ci", {}),
    "resolve": (cmd_resolve, "synthesize and check a resolution",
                "format window scenario ambient degree genus etype|ntype via",
                {"ambient": "must be quadric3"}),
    "verify": (cmd_verify, "run the reference-check suite", "format scenario", {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ql",
        description=(
            "Exact cohomology tables, liaison arithmetic, and resolution "
            "checks for ACM curves on the quadric threefold and in "
            "projective space."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (func, help_text, flags, helps) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text)
        for item in flags.split():
            names = item.split("|")
            group = cmd.add_mutually_exclusive_group() if len(names) > 1 else cmd
            for dest in names:
                spellings, metavar, text = _FLAGS[dest]
                kind = {"action": "store_true"} if metavar is None else {"metavar": metavar}
                group.add_argument(*spellings, dest=dest, help=helps.get(dest, text), **kind)
        cmd.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except InconsistencyError as exc:
        print(f"inconsistent: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ValueError, OSError) as exc:
        if getattr(exc, "filename", None) is not None:  # a file name is a value: echo it bounded
            exc = f"[Errno {exc.errno}] {exc.strerror}: {_echo(exc.filename)}"
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
