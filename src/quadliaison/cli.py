"""Command-line front end.

Subcommands: ``table`` (section/ideal/full cohomology tables), ``link``
(residual degree and genus across a complete intersection), ``resolve``
(synthesize and check E-type/N-type resolutions), ``verify`` (run the
reference-check suite).

Exit codes: 0 success, 1 usage error, 2 mathematical infeasibility,
3 internal inconsistency.  Output is byte-deterministic for fixed
arguments.  The environment variable QL_WINDOW (``lo:hi``) sets the
default twist window; a scenario file sets per-run defaults; flags win.

Commands import what they use beyond ambient, curves and errors when they
run: ``table`` loads no other module, and only ``verify`` loads the suite.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

from .ambient import Ambient, parse_ambient
from .curves import (
    DEFAULT_WINDOW,
    CurveClass,
    Window,
    ambient_table,
    full_ideal_table,
    ideal_h0_table,
    parse_window,
    render_value_csv,
    render_value_row,
    section_table,
)
from .errors import InconsistencyError, InfeasibleError

if TYPE_CHECKING:
    from .liaison import ResolutionTriple

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_INCONSISTENT = 3


class _Parser(argparse.ArgumentParser):
    """argparse reserves status 2 for usage errors; this CLI uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def load_scenario(path: str) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"scenario line is not key=value: {raw.strip()!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


class _Run:
    """One command invocation: CLI flags backed by scenario-file defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.scenario = load_scenario(args.scenario) if args.scenario else {}

    def get(self, key: str, default: str | None = None) -> str | None:
        flag = getattr(self.args, key, None)
        if flag is not None:
            return flag if isinstance(flag, str) else str(flag)
        return self.scenario.get(key, default)

    def require(self, key: str) -> str:
        value = self.get(key)
        if value is None:
            raise ValueError(f"missing required option: {key}")
        return value

    def int_of(self, key: str) -> int:
        value = self.require(key)
        try:
            return int(value)
        except ValueError:
            raise ValueError(f"{key} must be an integer, got {value!r}") from None

    def window(self) -> Window:
        # an empty flag or scenario value is a bad window; an empty QL_WINDOW is unset
        text = self.get("window", os.environ.get("QL_WINDOW") or None)
        return DEFAULT_WINDOW if text is None else parse_window(text)

    def ambient(self) -> Ambient:
        return parse_ambient(self.require("ambient"))

    def curve(self) -> CurveClass:
        return CurveClass(self.ambient(), self.int_of("degree"), self.int_of("genus"))

    def int_list(self, key: str) -> tuple[int, ...]:
        text = self.require(key)
        try:
            return tuple(int(part) for part in text.split(","))
        except ValueError:
            raise ValueError(
                f"{key} must be comma-separated integers, got {text!r}"
            ) from None

    def emit(self, text, csv, record) -> None:
        """Print the result in the chosen format.  Each argument renders it
        for one format when called: text and csv return the lines, record
        returns the JSON value.  The format is read here, after the result
        is computed, so a computation error wins over a bad format."""
        fmt = self.get("format", "text")
        renderers = {"text": text, "csv": csv, "json": lambda: _json_text(record())}
        if fmt not in renderers:
            raise ValueError(f"unknown format {fmt!r}")
        try:
            output = renderers[fmt]()
        except ValueError:
            # The renderers raise nothing of their own; this is Python's cap
            # on int-to-text conversion, kept because it also bounds argv.
            raise ValueError(
                f"a value to print has more than {sys.get_int_max_str_digits()} digits; "
                "narrow the window or the twists"
            ) from None
        print(output, end="")


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
        values = ambient_table(run.ambient(), window)
    elif rows == "section":
        values = section_table(curve, window)
    elif rows == "ideal":
        values = ideal_h0_table(curve, window)
    else:
        raise ValueError(f"unknown rows selection {rows!r}")

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
    run.emit(lambda: f"{d2} {g2}\n", lambda: f"degree,genus\n{d2},{g2}\n",
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
    from .liaison import mapping_cone_n_from_e, residual_curve, resolution_consistency_check

    run = _Run(args)
    window = run.window()
    curve = run.curve()
    if not curve.ambient.is_quadric:
        raise ValueError("resolutions are classified on the quadric threefold only")
    flavor = "etype" if args.etype else "ntype" if args.ntype else run.get("flavor")
    if flavor == "etype":
        triple = _unique_etype(curve, window)
    elif flavor == "ntype":
        if run.get("via") is None:
            raise ValueError("--via A,B (divisor twists) is required for N-type")
        twists = run.int_list("via")
        if len(twists) != 2:
            raise ValueError("--via needs exactly two divisor twists")
        etype = _unique_etype(residual_curve(curve, *twists), window)
        triple = mapping_cone_n_from_e(etype, twists, window)
    else:
        raise ValueError("choose a flavor: --etype or --ntype")
    report = resolution_consistency_check(triple, window)
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
                "ok": report.ok,
                "window": list(window),
                "rank_diff": triple.rank_diff,
                "c1_diff": triple.c1_diff,
                "cells": [[c.twist, c.lhs, c.rhs, c.ok] for c in report.cells],
            },
        },
    )
    return EXIT_OK if report.ok else EXIT_INCONSISTENT


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import all_ok, run_reference_checks

    run = _Run(args)
    results = run_reference_checks()

    def text() -> str:
        count = [r.status for r in results].count
        lines = [f"{r.status:<21}  {r.name}: {r.detail}\n" for r in results]
        return "".join(lines) + (
            f"{len(results)} checks: {count('PASS')} pass, "
            f"{count('EXPECTED-DISCREPANCY')} expected-discrepancy, "
            f"{count('FAIL')} fail\n"
        )

    def csv_text() -> str:
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["name", "status", "detail"])
        writer.writerows([r.name, r.status, r.detail] for r in results)
        return buffer.getvalue()

    run.emit(text, csv_text, lambda: [
        {"name": r.name, "status": r.status, "detail": r.detail} for r in results
    ])
    return EXIT_OK if all_ok(results) else EXIT_INCONSISTENT


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "csv", "json"), default=None,
        help="output format (default text)",
    )
    common.add_argument(
        "--window", default=None, metavar="LO:HI",
        help="inclusive twist window (default -1:8, or QL_WINDOW); "
        "write --window=-1:4 when LO is negative",
    )
    common.add_argument(
        "--scenario", default=None, metavar="FILE",
        help="key=value defaults; flags override",
    )

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
        "table", parents=[common], help="print cohomology tables for a curve class"
    )
    table.add_argument("--ambient", default=None, help="p2, p3, p4, ... or quadric3")
    table.add_argument("-d", "--degree", type=int, default=None)
    table.add_argument("-g", "--genus", type=int, default=None)
    table.add_argument(
        "--rows", choices=("full", "ideal", "section", "ambient"), default=None,
        help="which table to print (default full)",
    )
    table.set_defaults(func=cmd_table)

    link = sub.add_parser(
        "link", parents=[common], help="residual degree and genus across a linkage"
    )
    link.add_argument("-d", "--degree", type=int, default=None)
    link.add_argument("-g", "--genus", type=int, default=None)
    link.add_argument(
        "--ci", default=None, metavar="D1,D2,...",
        help="hypersurface degrees of the complete intersection",
    )
    link.set_defaults(func=cmd_link)

    resolve = sub.add_parser(
        "resolve", parents=[common], help="synthesize and check a resolution"
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
        "verify", parents=[common], help="run the reference-check suite"
    )
    verify.set_defaults(func=cmd_verify)

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
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
