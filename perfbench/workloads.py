"""The three workloads: seeded op generators, the op itself, and its check.

Each workload has ``ops()`` (an endless seeded op stream), ``run(op)``
(the timed part: calls into quadliaison or one fresh ``ql`` process) and
``check(op, result)`` (untimed: returns ``(ok, outcome)`` from the
oracle).  Ops are stratified so that every run sees the same shares of
window widths, large invariants and command kinds; the seed changes the
curves, twists, formats and order.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from random import Random

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"

QUADRIC = "quadric3"
POOL_SEEDS = [(1, 0), (2, 0), (3, 0), (4, 0), (5, 1), (6, 2), (8, 4)]
VIA = [(a, b) for a in range(1, 5) for b in range(1, 5)]
RESOLVE_WINDOWS = [(0, 6), (-1, 8)]
README_KINDS = ["table_ideal", "table_full", "link", "resolve_etype", "resolve_ntype", "verify"]
FORMATS = ["text", "csv", "json"]

# The README/test invocations pinned byte for byte by tests/golden.
GOLDEN_COMMANDS = [
    ("table_full", "table_84_p4_full.txt",
     ["table", "--ambient", "p4", "-d", "8", "-g", "4", "--rows", "full", "--window=-1:4"]),
    ("table_ideal", "table_84_q_ideal.txt",
     ["table", "--ambient", "q", "-d", "8", "-g", "4", "--rows", "ideal", "--window", "0:6"]),
    ("table_ideal", "table_84_q_ideal.csv",
     ["table", "--ambient", "q", "-d", "8", "-g", "4", "--rows", "ideal", "--window", "0:6",
      "--format", "csv"]),
    ("resolve_etype", "resolve_84_etype.txt",
     ["resolve", "--ambient", "q", "-d", "8", "-g", "4", "--etype", "--window", "0:6"]),
    ("resolve_ntype", "resolve_84_ntype.txt",
     ["resolve", "--ambient", "q", "-d", "8", "-g", "4", "--ntype", "--via", "2,3",
      "--window", "0:6"]),
    ("resolve_ntype", "resolve_84_ntype.csv",
     ["resolve", "--ambient", "q", "-d", "8", "-g", "4", "--ntype", "--via", "2,3",
      "--window", "0:6", "--format", "csv"]),
    ("verify", "verify.txt", ["verify"]),
    ("verify", "verify.csv", ["verify", "--format", "csv"]),
]

# Invocations every user can mistype; each must exit 1 with empty stdout.
USAGE_COMMANDS = [
    ["resolve", "--ambient", "p4", "-d", "8", "-g", "4", "--etype"],
    ["resolve", "--ambient", "q", "-d", "8", "-g", "4", "--ntype"],
    ["table", "--ambient", "q", "-d", "8", "-g", "4", "--window", "6:0"],
    ["table", "--ambient", "p9x", "-d", "1", "-g", "0"],
    ["table", "--ambient", "q", "-d", "0", "-g", "0"],
    ["link", "-d", "8", "-g", "4", "--ci", "2,x"],
    ["table", "--ambient", "q", "-d", "8", "-g", "4", "--rows", "nope"],
]


def child_env() -> dict:
    """Environment of a child ``python``: the checkout's src/, no QL_WINDOW."""
    env = {k: v for k, v in os.environ.items() if k != "QL_WINDOW"}
    env["PYTHONPATH"] = str(SRC)
    return env


class SetupError(Exception):
    """The checkout cannot run the benchmark (no package, no goldens)."""


def load_package():
    """Import quadliaison from the checkout's src/ directory."""
    if not (SRC / "quadliaison" / "__init__.py").is_file():
        raise SetupError(f"no quadliaison package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import quadliaison  # noqa: F401
    from quadliaison import ambient, classify, curves, errors, liaison

    return {"ambient": ambient, "classify": classify, "curves": curves,
            "errors": errors, "liaison": liaison}


def resolve_pool() -> list[tuple[int, int]]:
    """Seed curves and their links, twice, through O(a), O(b) with a, b in 1..4,
    keeping the classes that pass the embedding obstruction on Q."""
    pool, front = set(POOL_SEEDS), set(POOL_SEEDS)
    for _ in range(2):
        nxt = set()
        for d, g in front:
            for a, b in VIA:
                res = oracle.residual(4, (2, a, b), d, g)
                if res[0] == "ok":
                    nxt.add(res[1:])
        pool |= nxt
        front = nxt
    return sorted(c for c in pool if oracle.obstruction(QUADRIC, *c) is None)


def _numbers(text: str) -> list[int]:
    return [int(x) for x in re.findall(r"-?\d+", text)]


_NEGATIVE = re.compile(r"(-?\d+) < 0 at twist (-?\d+)")


def _negative_claim(message: str):
    """(twist, value) from a ``... v < 0 at twist n`` message, or None."""
    match = _NEGATIVE.search(message)
    return None if match is None else (int(match.group(2)), int(match.group(1)))


def _witness(exc) -> tuple:
    """(twist, value) of a negative-count error, from its fields or message."""
    if hasattr(exc, "twist") and hasattr(exc, "value"):
        return (exc.twist, exc.value)
    return _negative_claim(str(exc))


_RESIDUAL_WORDS = {"degree": "degree", "nonintegral": "integer", "genus": "genus"}


def _residual_claim_ok(message: str, expected) -> bool:
    """An infeasible-linkage message names the oracle's reason and value."""
    if expected[0] == "ok":
        return False
    value = expected[1]
    shown = f"{value}/2" if expected[0] == "nonintegral" else str(value)
    return _RESIDUAL_WORDS[expected[0]] in message and shown in message


def _via23(curve):
    res = oracle.residual(4, (2, 2, 3), *curve)
    return res[1:] if res[0] == "ok" else None


def _reaches_match(curve, window) -> bool:
    """The class gets as far as matching kernels (no earlier exit)."""
    if curve is None or oracle.first_negative_ideal(QUADRIC, *curve, oracle.DEFAULT_WINDOW):
        return False
    middle = oracle.generator_middle(QUADRIC, *curve)
    return middle is not None and isinstance(
        oracle.kernel_target(middle, QUADRIC, *curve, window), dict)


# -- tables ----------------------------------------------------------------

class Tables:
    """In-process table sweeps over P3, P4 and Q (no classification)."""

    name = "tables"
    list_ops = 400  # ops in a traced run: 20 blocks of 20
    AMBIENTS = ("p3", "p4", QUADRIC)
    WIDTHS = (10, 100, 1000)
    LARGE_DEGREE = 30_000
    LARGE_GENUS = 100_000
    BLOCK = 20  # one large-invariant op per block: 5 %

    def __init__(self, seed: int):
        self.seed = seed
        self.q = load_package()
        amb = self.q["ambient"]
        self.ambients = {"p3": amb.P3, "p4": amb.P4, QUADRIC: amb.QUADRIC3}

    def ops(self):
        rng = Random(self.seed)
        i = 0
        while True:
            block, slot = divmod(i, self.BLOCK)
            amb = rng.choice(self.AMBIENTS)
            if slot == 0:
                # large ops alternate kinds and rotate ambients in a fixed order
                # at one size each, so the slowest ops are alike in every run
                amb = self.AMBIENTS[(block // 2) % 3]
                jitter = rng.uniform(0.98, 1.02)
                if block % 2 == 0:
                    kind, d = "large_degree", int(self.LARGE_DEGREE * jitter)
                    g = oracle.min_feasible_genus(amb, d) + rng.randint(0, d)
                else:
                    kind, d, g = "large_genus", rng.randint(1, 4), int(self.LARGE_GENUS * jitter)
                width = rng.choice((10, 100))
            else:
                width = self.WIDTHS[slot % 3]
                d = rng.randint(1, 60)
                gmin = oracle.min_feasible_genus(amb, d)
                if slot % 10 == 5 and gmin > 0:
                    kind, g = "below_min_genus", gmin - rng.randint(1, min(gmin, 3))
                else:
                    kind, g = f"width_{width}", gmin + rng.randint(0, 2 * d)
            lo = rng.randint(-3, 2)
            if amb == "p3":
                dim, degrees = 3, (rng.randint(1, 8), rng.randint(1, 8))
            elif amb == "p4":
                dim, degrees = 4, tuple(rng.randint(1, 6) for _ in range(3))
            else:
                dim, degrees = 4, (2, rng.randint(1, 4), rng.randint(1, 4))
            yield {"kind": kind, "amb": amb, "d": d, "g": g,
                   "window": (lo, lo + width - 1), "dim": dim, "degrees": degrees}
            i += 1

    def run(self, op):
        c, li, err = self.q["curves"], self.q["liaison"], self.q["errors"]
        amb = self.ambients[op["amb"]]
        d, g, window = op["d"], op["g"], op["window"]
        out = {}
        feas = c.acm_embedding_obstruction(d, g, amb)
        out["obstruction"] = None if feas.feasible else feas.witness_twist
        out["threshold"] = c.nonspecial_threshold(d, g)
        linkage = li.CILinkage(op["dim"], op["degrees"])
        try:
            res = li.ci_residual(d, g, linkage)
            out["residual"] = res
            out["inverse"] = li.ci_residual(res[0], res[1], linkage)
        except err.InfeasibleError as exc:
            out["residual_error"] = str(exc)
        curve = c.CurveClass(amb, d, g)
        try:
            out["sections"] = c.section_table(curve, window)
            ideal = c.ideal_h0_table(curve, window)
            out["ideal"] = ideal
            full = c.full_ideal_table(curve, window)
            out["cells"] = full.cells
            out["regularity"] = c.regularity(full).regularity
            out["grid"] = full.render_grid()
            out["csv"] = full.render_csv()
            out["row"] = c.render_value_row(ideal)
            out["row_csv"] = c.render_value_csv(ideal)
        except err.InfeasibleError as exc:
            out["infeasible"] = _witness(exc)
        return out

    def check(self, op, out):
        amb, d, g, window = op["amb"], op["d"], op["g"], op["window"]
        ok = out["obstruction"] == oracle.obstruction(amb, d, g)
        ok &= out["threshold"] == oracle.nonspecial_threshold(d, g)
        expected = oracle.residual(op["dim"], op["degrees"], d, g)
        if expected[0] == "ok":
            # the linkage is an involution: the inverse returns the input
            ok &= out.get("residual") == expected[1:] and out.get("inverse") == (d, g)
        else:
            ok &= _residual_claim_ok(out.get("residual_error", ""), expected)
        witness = oracle.first_negative_ideal(amb, d, g, window)
        if witness is not None:
            return ok and out.get("infeasible") == witness, "infeasible"
        if "infeasible" in out:
            return False, "infeasible"
        lo, hi = window
        ideal = {n: oracle.ideal(amb, d, g, n) for n in range(lo, hi + 1)}
        cells = oracle.full_cells(amb, d, g, window)
        ok &= out["sections"] == {n: oracle.sections(d, g, n) for n in range(lo, hi + 1)}
        ok &= out["ideal"] == ideal and out["cells"] == cells
        ok &= out["regularity"] == oracle.regularity(cells, window)
        ok &= oracle.grid_matches(out["grid"], cells)
        ok &= oracle.csv_full_matches(out["csv"], cells)
        ok &= oracle.row_matches(out["row"], ideal)
        ok &= oracle.csv_row_matches(out["row_csv"], ideal)
        return ok, "tables"


# -- resolve ---------------------------------------------------------------

class Resolve:
    """In-process E-type synthesis and N-type transport, as ``ql resolve`` runs them."""

    name = "resolve"
    list_ops = 304  # ops in a traced run: 76 classes x 2 windows x 2 flavors

    def __init__(self, seed: int):
        self.seed = seed
        self.q = load_package()
        self.pool = resolve_pool()
        self.Q = self.q["ambient"].QUADRIC3

    def ops(self):
        rng = Random(self.seed)
        cycle = [(c, w, f) for c in self.pool for w in RESOLVE_WINDOWS for f in ("etype", "ntype")]
        while True:
            rng.shuffle(cycle)
            for (d, g), window, flavor in cycle:
                via = rng.choice(VIA) if flavor == "ntype" else None
                yield {"kind": f"resolve_{flavor}", "d": d, "g": g, "window": window,
                       "flavor": flavor, "via": via}

    def warm_up(self):
        """Fill the candidate cache the way the first resolve of a session does."""
        self.run({"d": 8, "g": 4, "window": (0, 6), "flavor": "etype", "via": None})

    def run(self, op):
        cl, li, err, cu = self.q["classify"], self.q["liaison"], self.q["errors"], self.q["curves"]
        window = op["window"]
        curve = cu.CurveClass(self.Q, op["d"], op["g"])
        out = {}
        try:
            target = curve
            if op["flavor"] == "ntype":
                a, b = op["via"]
                d2, g2 = li.ci_residual(op["d"], op["g"], li.CILinkage(4, (2, a, b)))
                target = cu.CurveClass(self.Q, d2, g2)
            middle, matches = cl.etype_candidates(target, match_window=window)
            out["middle"] = middle.render()
            if len(matches) != 1:
                out["outcome"] = "ambiguous" if matches else "none"
                out["matches"] = [m.render() for m in matches]
                return out
            etype = li.ResolutionTriple(matches[0], middle, target, li.ResolutionFlavor.E_TYPE)
            out["etype"] = etype.render()
            triple = etype
            if op["flavor"] == "ntype":
                triple = li.mapping_cone_n_from_e(etype, op["via"], window)
            report = li.resolution_consistency_check(triple, window)
            out["resolution"] = triple.render()
            out["verdict"] = report.render_text()
            out["outcome"] = "unique" if report.ok else "audit_fail"
        except err.InfeasibleError as exc:
            out["outcome"], out["message"] = "infeasible", str(exc)
        except err.InconsistencyError as exc:
            out["outcome"], out["message"] = "audit_fail", str(exc)
        except ValueError as exc:
            out["outcome"], out["message"] = "usage", str(exc)
        return out

    def check(self, op, out):
        return check_resolution(op, out), out["outcome"]


def _res_line(kernel, middle) -> str:
    return f"0 -> {oracle.render_sum(kernel)} -> {oracle.render_sum(middle)} -> I_C -> 0"


def check_resolution(op, out) -> bool:
    """Every claim of one resolve outcome agrees with the oracle.

    ``out`` holds what the op printed or returned: ``outcome``, and as
    available ``middle``, ``matches``, ``etype``, ``resolution``,
    ``verdict`` and ``message``.  The oracle derives the outcome on its
    own: the generator-count middle term, the kernel's section row and
    every rank-4 kernel that fits it, so a dropped, extra or wrong match
    fails.
    """
    d, g, window = op["d"], op["g"], op["window"]
    target = (d, g)
    outcome = out["outcome"]
    if op["flavor"] == "ntype":
        res = oracle.residual(4, (2, *op["via"]), d, g)
        if res[0] != "ok":
            return outcome == "infeasible" and _residual_claim_ok(out["message"], res)
        target = res[1:]
    # the generator estimate reads the ideal row on the default window first
    claim = oracle.first_negative_ideal(QUADRIC, *target, oracle.DEFAULT_WINDOW)
    middle = kernel = None
    if claim is None:
        middle = oracle.generator_middle(QUADRIC, *target)
        if middle is None:
            return outcome == "usage" and "regularity" in out["message"]
        kernel = oracle.kernel_target(middle, QUADRIC, *target, window)
        if isinstance(kernel, tuple):
            claim = kernel[1:]
    if claim is not None:
        return outcome == "infeasible" and _negative_claim(out["message"]) == claim
    if "middle" in out and out["middle"] != oracle.render_sum(middle):
        return False
    fits = oracle.kernel_fits(kernel, window)
    if len(fits) != 1:
        found = out.get("matches")
        return outcome == ("ambiguous" if fits else "none") and found is not None \
            and sorted(found) == fits
    etype = (oracle.parse_sum(fits[0]), middle)
    if "etype" in out and out["etype"] != _res_line(*etype):
        return False
    expected = etype if op["flavor"] == "etype" else oracle.cone_n_from_e(*etype, *op["via"])
    report = oracle.audit(*expected, QUADRIC, d, g, window)
    if "resolution" in out or "cells" in out:
        return (outcome in ("unique", "audit_fail") and report["ok"] == (outcome == "unique")
                and out.get("resolution", _res_line(*expected)) == _res_line(*expected)
                and out.get("cells", report["cells"]) == report["cells"]
                and out.get("verdict", oracle.audit_line(report, window))
                == oracle.audit_line(report, window))
    # a mapping cone that failed its own audit before printing anything
    if outcome != "audit_fail" or report["ok"] or op["flavor"] != "ntype":
        return False
    nums = _numbers(out.get("message", ""))
    first = report["first_failure"]
    if first is not None:
        return nums[:3] == list(first)
    return nums[:1] == [report["rank_diff"]]


# -- cli -------------------------------------------------------------------

class Cli:
    """Fresh ``ql`` processes, one at a time, on a seeded README command mix."""

    name = "cli"
    list_ops = 20  # ops in a traced run: 2 blocks of 10
    BLOCK_EXTRAS = ["golden", "usage", "infeasible", "exit3"]

    def __init__(self, seed: int):
        self.seed = seed
        if not (SRC / "quadliaison" / "cli.py").is_file():
            raise SetupError(f"no quadliaison CLI under {SRC}")
        if not GOLDEN.is_dir():
            raise SetupError(f"no golden outputs under {GOLDEN}")
        self.golden = {name: (GOLDEN / name).read_bytes() for _, name, _ in GOLDEN_COMMANDS}
        self.verify_rows = list(csv.reader(io.StringIO(self.golden["verify.csv"].decode())))[1:]
        self.pool = resolve_pool()
        # resolve commands use classes that reach the kernel match, so that
        # each pays the cold candidate build
        self.classified = {
            flavor: [(c, w) for c in self.pool for w in RESOLVE_WINDOWS
                     if _reaches_match(c if flavor == "etype" else _via23(c), w)]
            for flavor in ("etype", "ntype")
        }
        self.env = child_env()
        # what the ``ql`` console script runs
        self.launcher = [sys.executable, "-c", "from quadliaison.cli import app; app()"]
        self.env_extra = {}

    # generators ----------------------------------------------------------
    def _curve(self, rng, amb):
        d = rng.randint(1, 30)
        return d, oracle.min_feasible_genus(amb, d) + rng.randint(0, d)

    def _command(self, rng, kind):
        fmt = rng.choice(FORMATS)
        if kind in ("table_ideal", "table_full"):
            amb = rng.choice(["p3", "p4", QUADRIC])
            d, g = self._curve(rng, amb)
            lo = rng.randint(-1, 1)
            window = (lo, lo + rng.randint(4, 11))
            rows = kind.split("_")[1]
            argv = ["table", "--ambient", amb, "-d", str(d), "-g", str(g), "--rows", rows,
                    f"--window={window[0]}:{window[1]}"]
            op = {"amb": amb, "d": d, "g": g, "window": window, "rows": rows}
        elif kind == "link":
            d, g = rng.choice(self.pool)
            a, b = rng.randint(2, 4), rng.randint(2, 4)
            argv = ["link", "-d", str(d), "-g", str(g), "--ci", f"2,{a},{b}"]
            op = {"d": d, "g": g, "degrees": (2, a, b)}
        elif kind in ("resolve_etype", "resolve_ntype"):
            flavor = kind.split("_")[1]
            (d, g), window = rng.choice(self.classified[flavor])
            argv = ["resolve", "--ambient", "quadric3", "-d", str(d), "-g", str(g),
                    f"--window={window[0]}:{window[1]}"]
            argv += ["--etype"] if flavor == "etype" else ["--ntype", "--via", "2,3"]
            op = {"d": d, "g": g, "window": window, "flavor": flavor,
                  "via": (2, 3) if flavor == "ntype" else None}
        elif kind == "verify":
            argv, op = ["verify"], {}
        elif kind == "golden":
            # only the table goldens, so that every block costs about the same;
            # `verify` is checked against its goldens below, and the resolve
            # goldens run in the traced sweep
            kind, name, argv = rng.choice(GOLDEN_COMMANDS[:3])
            return {"kind": kind, "mix": "golden", "argv": argv, "golden": name, "fmt": "text"}
        elif kind == "usage":
            return {"kind": "usage", "argv": rng.choice(USAGE_COMMANDS), "fmt": "text"}
        elif kind == "infeasible":
            if rng.random() < 0.5:
                d = rng.randint(5, 20)
                argv = ["link", "-d", str(d), "-g", "1", "--ci", "2,2"]
                return {"kind": "infeasible", "argv": argv, "fmt": "text",
                        "link": {"d": d, "g": 1, "degrees": (2, 2)}}
            amb = rng.choice([QUADRIC, "p3", "p4"])
            d = rng.randint(6, 30)
            g = oracle.min_feasible_genus(amb, d) - rng.randint(1, 3)
            argv = ["table", "--ambient", amb, "-d", str(d), "-g", str(max(g, 0)),
                    "--rows", "ideal", "--window=0:8"]
            return {"kind": "infeasible", "argv": argv, "fmt": "text",
                    "table": {"amb": amb, "d": d, "g": max(g, 0), "window": (0, 8)}}
        else:  # exit3: a class whose kernel is ambiguous or unmatched
            d, g = rng.choice([(6, 2), (1, 3), (5, 1), (3, 0)])
            argv = ["resolve", "--ambient", "q", "-d", str(d), "-g", str(g), "--etype",
                    "--window", "0:6"]
            return {"kind": "exit3", "argv": argv, "fmt": "text",
                    "resolve": {"d": d, "g": g, "window": (0, 6), "flavor": "etype", "via": None}}
        if fmt != "text":
            argv = argv + ["--format", fmt]
        return {"kind": kind, "argv": argv, "fmt": fmt, "spec": op}

    def ops(self):
        rng = Random(self.seed)
        while True:
            block = README_KINDS + self.BLOCK_EXTRAS
            rng.shuffle(block)
            for kind in block:
                yield self._command(rng, kind)

    def warm_up(self):
        self.run({"argv": ["verify"]})

    def run(self, op):
        proc = subprocess.run(
            self.launcher + op["argv"], env={**self.env, **self.env_extra}, cwd=ROOT,
            stdin=subprocess.DEVNULL, capture_output=True, timeout=120,
        )
        return (proc.returncode, proc.stdout, proc.stderr.decode("utf-8", "replace"))

    # checks --------------------------------------------------------------
    def check(self, op, result):
        rc, raw, err = result
        if rc not in (0, 1, 2, 3) or "Traceback" in err:
            return False, "crash"
        if rc in (1, 2) and raw:
            return False, "crash"
        out = raw.decode("utf-8")
        outcome = {0: "ok", 1: "usage", 2: "infeasible", 3: "exit3"}[rc]
        kind = op["kind"]
        try:
            ok = self._check(op, kind, rc, out, err)
        except (ValueError, KeyError, IndexError, TypeError):
            ok = False
        if kind.startswith("resolve") or kind == "exit3":
            outcome = _resolve_outcome(rc, out, err)
        return ok, outcome

    def _check(self, op, kind, rc, out, err):
        if "golden" in op:
            return rc == 0 and out.encode() == self.golden[op["golden"]]
        if kind == "usage":
            return rc == 1 and err.startswith(("error:", "usage:"))
        if kind == "infeasible":
            if "link" in op:
                spec = op["link"]
                expected = oracle.residual(3, spec["degrees"], spec["d"], spec["g"])
                return rc == 2 and _residual_claim_ok(err, expected)
            spec = op["table"]
            witness = oracle.first_negative_ideal(spec["amb"], spec["d"], spec["g"], spec["window"])
            return rc == 2 and witness is not None and _negative_claim(err) == witness
        if kind == "exit3":
            return _check_resolve_cli(op["resolve"], "text", rc, out, err)
        spec, fmt = op["spec"], op["fmt"]
        if kind == "verify":
            if fmt == "json":
                rows = [[r["name"], r["status"], r["detail"]] for r in json.loads(out)]
                return rc == 0 and rows == self.verify_rows
            return rc == 0 and out.encode() == self.golden["verify.txt" if fmt == "text" else "verify.csv"]
        if kind == "link":
            expected = oracle.residual(4, spec["degrees"], spec["d"], spec["g"])
            if expected[0] != "ok":
                return rc == 2 and _residual_claim_ok(err, expected)
            d2, g2 = expected[1:]
            want = {"text": f"{d2} {g2}\n", "csv": f"degree,genus\n{d2},{g2}\n"}
            if fmt == "json":
                return rc == 0 and json.loads(out) == {"degree": d2, "genus": g2}
            return rc == 0 and out == want[fmt]
        if kind.startswith("table"):
            return _check_table_cli(spec, fmt, rc, out, err)
        return _check_resolve_cli(spec, fmt, rc, out, err)


def _check_table_cli(spec, fmt, rc, out, err) -> bool:
    amb, d, g, window = spec["amb"], spec["d"], spec["g"], spec["window"]
    witness = oracle.first_negative_ideal(amb, d, g, window)
    if witness is not None:
        return rc == 2 and _negative_claim(err) == witness
    if rc != 0:
        return False
    lo, hi = window
    curve = {"ambient": amb, "degree": d, "genus": g}
    if spec["rows"] == "ideal":
        values = {n: oracle.ideal(amb, d, g, n) for n in range(lo, hi + 1)}
        if fmt == "text":
            return oracle.row_matches(out, values)
        if fmt == "csv":
            return oracle.csv_row_matches(out, values)
        return json.loads(out) == {"row": "ideal", "window": [lo, hi],
                                   "values": [[n, values[n]] for n in range(lo, hi + 1)],
                                   "curve": curve}
    cells = oracle.full_cells(amb, d, g, window)
    if fmt == "text":
        return oracle.grid_matches(out, cells)
    if fmt == "csv":
        return oracle.csv_full_matches(out, cells)
    got = json.loads(out)
    rows = {f"h{i}": [[n, cells[(i, n)]] for n in range(lo, hi + 1)] for i in (3, 2, 1, 0)}
    return got["row"] == "full" and got["window"] == [lo, hi] and got["rows"] == rows \
        and got["curve"] == curve


_CANDIDATE = re.compile(r"^  (\S.*)$")


def _resolve_outcome(rc, out, err) -> str:
    if rc == 0:
        return "unique"
    if rc == 1:
        return "usage"
    if rc == 2:
        return "infeasible"
    if "not unique" in err:
        return "ambiguous" if _numbers(err.split("not unique")[1])[:1] != [0] else "none"
    return "audit_fail"


def _check_resolve_cli(spec, fmt, rc, out, err) -> bool:
    """Turn one ``ql resolve`` run into the in-process outcome record and check it."""
    window = spec["window"]
    outcome = _resolve_outcome(rc, out, err)
    record = {"outcome": outcome}
    if outcome in ("infeasible", "usage"):
        record["message"] = err
        return out == "" and check_resolution(spec, record)
    if outcome in ("ambiguous", "none"):
        record["matches"] = [m.group(1) for m in map(_CANDIDATE.match, err.splitlines()) if m]
        stated = _numbers(err.split("not unique")[1])[:1]
        return out == "" and stated == [len(record["matches"])] and check_resolution(spec, record)
    if not out:  # the mapping cone failed its audit before printing
        record["message"] = err
        return check_resolution(spec, record)
    if fmt == "text":
        resolution, verdict = out.splitlines()
        record.update(resolution=resolution, verdict=verdict)
        return (rc == 0) == verdict.startswith("consistency PASS") and check_resolution(spec, record)
    d, g = spec["d"], spec["g"]
    if fmt == "csv":
        lines = out.splitlines()
        if lines[0] != "n,lhs,rhs,pass":
            return False
        cells = [line.split(",") for line in lines[1:]]
        record["cells"] = [(int(n), int(lhs), int(rhs)) for n, lhs, rhs, _ in cells]
        flags = all(p == ("true" if lhs == rhs else "false") for _, lhs, rhs, p in cells)
        return flags and (rc == 0) == all(p == "true" for *_, p in cells) \
            and check_resolution(spec, record)
    got = json.loads(out)
    kernel, middle = oracle.parse_resolution(got["resolution"])
    report = oracle.audit(kernel, middle, QUADRIC, d, g, window)
    consistency = got["consistency"]
    record.update(resolution=got["resolution"])
    return (
        got["flavor"] == ("E-type" if spec["flavor"] == "etype" else "N-type")
        and got["curve"] == {"ambient": QUADRIC, "degree": d, "genus": g}
        and (got["kernel"], got["middle"]) == tuple(oracle.render_sum(x) for x in (kernel, middle))
        and consistency["ok"] == report["ok"] == (rc == 0)
        and consistency["window"] == list(window)
        and (consistency["rank_diff"], consistency["c1_diff"]) == (report["rank_diff"], report["c1_diff"])
        and consistency["cells"] == [[n, l, r, l == r] for n, l, r in report["cells"]]
        and check_resolution(spec, record)
    )


WORKLOADS = {"tables": Tables, "resolve": Resolve, "cli": Cli}
