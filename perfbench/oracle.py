"""Independent oracle for every number the benchmark checks.

Nothing here imports quadliaison.  The closed forms are written in a
different shape from the package's own (the quadric count is the cubic
(k+1)(k+2)(2k+3)/6, the embedding obstruction is found by convexity in
O(log d) instead of a scan), so a shared mistake is unlikely.

Ambients are labels: ``"p<n>"`` for projective n-space, ``"quadric3"``
for the smooth quadric threefold.  Sheaf sums are lists of
``(kind, twist, multiplicity)`` with kind ``"O"`` or ``"E0"``.
"""

from __future__ import annotations

import re
from math import comb

DEFAULT_WINDOW = (-1, 8)


# -- closed forms ----------------------------------------------------------

def h0_ambient(amb: str, k: int) -> int:
    """Sections of O(k) on P^n or on the quadric threefold."""
    if k < 0:
        return 0
    if amb == "quadric3":
        return (k + 1) * (k + 2) * (2 * k + 3) // 6
    return comb(int(amb[1:]) + k, k)


def h0_e0(k: int) -> int:
    """Sections of the spinor-type bundle E0(k)."""
    return 2 * (k - 1) * k * (k + 1) // 3 if k >= 2 else 0


def sections(d: int, g: int, n: int) -> int:
    """Riemann-Roch section row of a nonspecial ACM curve."""
    if n < 0:
        return 0
    return 1 if n == 0 else n * d + 1 - g


def ideal(amb: str, d: int, g: int, n: int) -> int:
    """h0(I_C(n)), possibly negative (then no such curve exists)."""
    return h0_ambient(amb, n) - sections(d, g, n)


def first_negative_ideal(amb, d, g, window):
    """(twist, value) of the first negative ideal cell in window order."""
    lo, hi = window
    for n in range(max(lo, 1), hi + 1):
        value = ideal(amb, d, g, n)
        if value < 0:
            return (n, value)
    return None


def h2_cell(d: int, g: int, n: int):
    """h2(I_C(n)) = h1(O_C(n)); None where nonspecialty says nothing."""
    if n < 0:
        return g - 1 - n * d
    if n == 0:
        return g
    return 0 if n * d > 2 * g - 2 else None


def h3_cell(amb: str, n: int) -> int:
    """h3(I_C(n)) = h3 of the ambient twist, by Serre duality."""
    if amb == "quadric3":
        return h0_ambient(amb, -3 - n)
    if amb == "p3":
        return h0_ambient(amb, -4 - n)
    return 0


def full_cells(amb, d, g, window) -> dict:
    lo, hi = window
    cells = {}
    for n in range(lo, hi + 1):
        cells[(0, n)] = ideal(amb, d, g, n)
        cells[(1, n)] = 0
        cells[(2, n)] = h2_cell(d, g, n)
        cells[(3, n)] = h3_cell(amb, n)
    return cells


def regularity(cells: dict, window):
    """Smallest m whose diagonal h^i(m-i), i=1..3, lies in the window and vanishes."""
    lo, hi = window
    if all(v == 0 for v in cells.values()):
        return lo
    for m in range(lo + 3, hi + 2):
        if all(cells.get((i, m - i)) == 0 for i in (1, 2, 3)):
            return m
    return None


def obstruction(amb: str, d: int, g: int):
    """First n in [1, 2d] with h0(O_amb(n)) < h0(O_C(n)), or None.

    f(n) = h0_amb(n) - (nd + 1 - g) is convex on n >= 1 (its steps
    h0_amb(n+1) - h0_amb(n) - d increase), so binary searches find the
    minimum and then the first negative value before it.
    """
    def f(n):
        return h0_ambient(amb, n) - (n * d + 1 - g)

    top = 2 * d
    lo, hi = 1, top
    while lo < hi:  # first n whose step f(n+1) - f(n) is >= 0
        mid = (lo + hi) // 2
        if f(mid + 1) - f(mid) >= 0:
            hi = mid
        else:
            lo = mid + 1
    bottom = lo
    if f(bottom) >= 0:
        return None
    lo, hi = 1, bottom
    while lo < hi:  # f is nonincreasing on [1, bottom]
        mid = (lo + hi) // 2
        if f(mid) < 0:
            hi = mid
        else:
            lo = mid + 1
    return lo


def min_feasible_genus(amb: str, d: int) -> int:
    """Smallest genus that passes the embedding obstruction at degree d."""
    best, n = 0, 1
    while True:
        best = max(best, n * d + 1 - h0_ambient(amb, n))
        if h0_ambient(amb, n + 1) - h0_ambient(amb, n) > d:
            return best
        n += 1


def nonspecial_threshold(d: int, g: int) -> int:
    return max(1, (2 * g - 2) // d + 1)


def residual(ambient_dim: int, degrees, d: int, g: int):
    """("ok", d', g') across a complete intersection, or (reason, value)."""
    d2 = 1
    for e in degrees:
        d2 *= e
    d2 -= d
    if d2 <= 0:
        return ("degree", d2)
    twice = (sum(degrees) - ambient_dim - 1) * (d - d2)
    if twice % 2:
        return ("nonintegral", twice)
    g2 = g - twice // 2
    if g2 < 0:
        return ("genus", g2)
    return ("ok", d2, g2)


# -- sheaf sums ------------------------------------------------------------

_ATOM = re.compile(r"^(?:(\d+)\*)?(E0|O)\((-?\d+)\)$")


def parse_sum(text: str) -> list:
    text = text.strip()
    if text == "0":
        return []
    out = []
    for part in text.split(" + "):
        match = _ATOM.match(part.strip())
        if match is None:
            raise ValueError(f"unparsable summand {part!r}")
        mult, kind, twist = match.groups()
        out.append((kind, int(twist), int(mult or 1)))
    return out


def parse_resolution(line: str):
    """``0 -> K -> M -> I_C -> 0`` into (K, M)."""
    parts = [p.strip() for p in line.strip().split(" -> ")]
    if len(parts) != 5 or parts[0] != "0" or parts[3] != "I_C" or parts[4] != "0":
        raise ValueError(f"not a resolution line: {line!r}")
    return parse_sum(parts[1]), parse_sum(parts[2])


def render_sum(expr: list) -> str:
    """Canonical text: line bundles first, twists descending, merged."""
    merged: dict = {}
    for kind, twist, mult in expr:
        merged[(kind, twist)] = merged.get((kind, twist), 0) + mult
    keys = sorted((k for k in merged if merged[k]), key=lambda k: (k[0] == "E0", -k[1]))
    if not keys:
        return "0"
    return " + ".join(
        (f"{merged[k]}*" if merged[k] >= 2 else "") + f"{k[0]}({k[1]})" for k in keys
    )


def sum_rank(expr) -> int:
    return sum((2 if kind == "E0" else 1) * mult for kind, _, mult in expr)


def sum_c1(expr) -> int:
    return sum((2 * t - 3 if kind == "E0" else t) * mult for kind, t, mult in expr)


def sum_h0(expr, amb: str, n: int) -> int:
    return sum(
        (h0_e0(t + n) if kind == "E0" else h0_ambient(amb, t + n)) * mult
        for kind, t, mult in expr
    )


def dual_twist(expr, shift: int) -> list:
    """expr^v (shift): O(t) -> O(-t+shift), E0(t) -> E0(3-t+shift)."""
    return [
        (kind, (3 - t if kind == "E0" else -t) + shift, mult) for kind, t, mult in expr
    ]


def cone_n_from_e(kernel, middle, a: int, b: int):
    """Mapping cone of an E-type resolution across the linkage O(a), O(b)."""
    s = a + b
    return dual_twist(middle, -s), dual_twist(kernel, -s) + [("O", -a, 1), ("O", -b, 1)]


def audit(kernel, middle, amb, d, g, window) -> dict:
    lo, hi = window
    cells = [
        (n, sum_h0(middle, amb, n) - sum_h0(kernel, amb, n), ideal(amb, d, g, n))
        for n in range(lo, hi + 1)
    ]
    first = next(((n, l, r) for n, l, r in cells if l != r), None)
    rank_diff = sum_rank(middle) - sum_rank(kernel)
    c1_diff = sum_c1(middle) - sum_c1(kernel)
    return {
        "cells": cells,
        "first_failure": first,
        "rank_diff": rank_diff,
        "c1_diff": c1_diff,
        "ok": first is None and rank_diff == 1 and c1_diff == 0,
    }


def audit_line(report: dict, window) -> str:
    """The one-line verdict ``ql resolve`` prints under a resolution."""
    first = report["first_failure"]
    if first is not None:
        return f"consistency FAIL at n={first[0]}: {first[1]} != {first[2]}"
    if not report["ok"]:
        return (
            f"consistency FAIL: rank diff {report['rank_diff']} (want 1), "
            f"c1 diff {report['c1_diff']} (want 0)"
        )
    return f"consistency PASS over n in [{window[0]},{window[1]}] (rank diff 1, c1 diff 0)"


def generator_middle(amb: str, d: int, g: int):
    """The generator-count middle term O(-k)^c_k, from the default window.

    c_k counts degree-k ideal sections beyond linear multiples of degree
    k-1 ones, for k up to the regularity certified on (-1, 8).  Returns
    None when that window certifies no regularity.
    """
    reg = regularity(full_cells(amb, d, g, DEFAULT_WINDOW), DEFAULT_WINDOW)
    if reg is None:
        return None
    linear = h0_ambient(amb, 1)
    out = []
    for k in range(1, reg + 1):
        cur = ideal(amb, d, g, k)
        fresh = cur - min(ideal(amb, d, g, k - 1) * linear, cur)
        if fresh:
            out.append(("O", -k, fresh))
    return out


RANK4_TWISTS = (-6, 3)


def _multisets(twists, size):
    """Nondecreasing twist tuples of the given size."""
    if size == 0:
        return [()]
    return [(t, *rest) for i, t in enumerate(twists) for rest in _multisets(twists[i:], size - 1)]


def rank4_kernels(lo: int, hi: int) -> list:
    """Every rank-4 sum of ACM bundles on Q with twists in [lo, hi].

    Indecomposable ACM bundles on Q are line bundles and E0 twists, so a
    rank-4 sum has 0, 1 or 2 spinor summands and 4, 2 or 0 line summands.
    """
    twists = list(range(lo, hi + 1))
    out = set()
    for spinors in (0, 1, 2):
        for s in _multisets(twists, spinors):
            for lines in _multisets(twists, 4 - 2 * spinors):
                out.add(render_sum([("E0", t, 1) for t in s] + [("O", t, 1) for t in lines]))
    return sorted(out)


_FIT_INDEX: dict = {}


def kernel_fits(target: dict, window) -> list:
    """Canonical texts of the rank-4 kernels whose h0 row equals ``target``
    on every twist of the window, with twists in RANK4_TWISTS."""
    lo, hi = window
    index = _FIT_INDEX.get(window)
    if index is None:
        index = {}
        for text in rank4_kernels(*RANK4_TWISTS):
            expr = parse_sum(text)
            row = tuple(sum_h0(expr, "quadric3", n) for n in range(lo, hi + 1))
            index.setdefault(row, []).append(text)
        _FIT_INDEX[window] = index
    return index.get(tuple(target[n] for n in range(lo, hi + 1)), [])


def kernel_target(middle, amb, d, g, window):
    """Section counts the kernel must have, or ("negative", n, value)."""
    lo, hi = window
    out = {}
    for n in range(lo, hi + 1):
        value = sum_h0(middle, amb, n) - ideal(amb, d, g, n)
        if value < 0:
            return ("negative", n, value)
        out[n] = value
    return out


# -- rendered tables -------------------------------------------------------

def parse_grid(text: str) -> dict:
    """Cells of a printed grid (`` n:`` header, then ``h<i>:`` rows)."""
    lines = text.splitlines()
    header = lines[0].split()
    if header[0] != "n:":
        raise ValueError("grid lacks its n: header")
    twists = [int(t) for t in header[1:]]
    cells = {}
    for line in lines[1:]:
        fields = line.split()
        label = fields[0]
        if not (label.startswith("h") and label.endswith(":")) or len(fields) != len(twists) + 1:
            raise ValueError(f"malformed grid row {line!r}")
        for n, v in zip(twists, fields[1:]):
            cells[(label[1:-1], n)] = None if v == "?" else int(v)
    return cells


def grid_matches(text: str, cells: dict) -> bool:
    """A four-row grid equals the oracle cells; rows must be aligned."""
    lines = text.splitlines()
    if len({len(line) for line in lines}) != 1 or not text.endswith("\n"):
        return False
    got = parse_grid(text)
    return got == {(str(i), n): v for (i, n), v in cells.items()}


def row_matches(text: str, values: dict, label: str = "h0") -> bool:
    lines = text.splitlines()
    if len(lines) != 2 or len(lines[0]) != len(lines[1]) or not text.endswith("\n"):
        return False
    got = parse_grid(text)
    return got == {(label[1:], n): v for n, v in values.items()}


def csv_full_matches(text: str, cells: dict) -> bool:
    lines = text.splitlines()
    if lines[0] != "i,n,value" or not text.endswith("\n"):
        return False
    got = {}
    for line in lines[1:]:
        i, n, v = line.split(",")
        got[(int(i), int(n))] = None if v == "?" else int(v)
    return got == cells and len(lines) - 1 == len(cells)


def csv_row_matches(text: str, values: dict) -> bool:
    lines = text.splitlines()
    if lines[0] != "n,value" or not text.endswith("\n"):
        return False
    got = {int(n): int(v) for n, v in (line.split(",") for line in lines[1:])}
    return got == values and len(lines) - 1 == len(values)


# -- the reference suite ---------------------------------------------------

def _row(values) -> str:
    return ",".join(str(v) for v in values)


def reference_values() -> dict:
    """For each of the 40 checks of ``ql verify``, the oracle's own value,
    formatted the way the suite prints its frozen expectation."""
    e84 = ([("E0", -2, 2)], [("O", -2, 1), ("O", -3, 4)])
    e40 = ([("E0", -1, 2)], [("O", -2, 5)])
    n84 = cone_n_from_e(*e40, 2, 3)
    # the inverse cone: strip the Koszul pair O(-2) + O(-3), dualize, twist by -5
    roundtrip = (dual_twist(n84[1][:-2], -5), dual_twist(n84[0], -5))
    printed = ([("O", -5, 5)], [("O", -4, 1), ("O", -3, 1), ("E0", -3, 2)])
    p4_84 = full_cells("p4", 8, 4, DEFAULT_WINDOW)
    q_40 = full_cells("quadric3", 4, 0, DEFAULT_WINDOW)
    spectrum = sorted({(a - 1) * (8 - a - 1) for a in range(1, 8)})

    def res_line(kernel, middle):
        return f"0 -> {render_sum(kernel)} -> {render_sum(middle)} -> I_C -> 0"

    def kernel_for(row):
        fits = kernel_fits(dict(enumerate(row)), (0, 6))
        return fits[0] if len(fits) == 1 else f"{len(fits)} fits"

    def gens(d, g):
        mid = generator_middle("quadric3", d, g)
        return "{" + ", ".join(f"{-t}:{m}" for _, t, m in mid) + "}"

    def synthesis(kernel, d, g):
        middle = generator_middle("quadric3", d, g)
        ok = audit(kernel, middle, "quadric3", d, g, (0, 6))["ok"]
        return f"{render_sum(middle)},['{render_sum(kernel)}']" if ok else "audit fails"

    return {
        "h0-p4-quadrics": str(h0_ambient("p4", 2)),
        "h0-p3-linear-forms": str(h0_ambient("p3", 1)),
        "h0-quadric-twist-2": str(h0_ambient("quadric3", 2)),
        "h0-quadric-twist-6": str(h0_ambient("quadric3", 6)),
        "ambient-row-p4": _row(h0_ambient("p4", n) for n in range(5)),
        "ambient-row-quadric": _row(h0_ambient("quadric3", n) for n in range(7)),
        "spinor-dual-identity": render_sum(dual_twist([("E0", -1, 2)], 0)),
        "kernel-rank-4": str(sum_rank(e84[0])),
        "middle-sections-84-at-5": str(sum_h0(e84[1], "quadric3", 5)),
        "kernel-row-84": _row(sum_h0(e84[0], "quadric3", n) for n in range(7)),
        "kernel-row-40": _row(sum_h0(e40[0], "quadric3", n) for n in range(7)),
        "chi-84-at-1": str(sections(8, 4, 1)),
        "chi-40-at-1": str(sections(4, 0, 1)),
        "section-row-84": _row(sections(8, 4, n) for n in range(5)),
        "section-row-40": _row(sections(4, 0, n) for n in range(7)),
        "ideal-row-84-p4": _row(ideal("p4", 8, 4, n) for n in range(5)),
        "ideal-row-84-quadric": _row(ideal("quadric3", 8, 4, n) for n in range(7)),
        "ideal-row-40-quadric": _row(ideal("quadric3", 4, 0, n) for n in range(7)),
        "no-84-curve-in-p3": str(obstruction("p3", 8, 4)),
        "h2-84-at-1": str(p4_84[(2, 1)]),
        "h3-84-at-0": str(p4_84[(3, 0)]),
        "regularity-84-p4": str(regularity(p4_84, DEFAULT_WINDOW)),
        "regularity-40-quadric": str(regularity(q_40, DEFAULT_WINDOW)),
        "residual-of-84": _row(residual(4, (2, 2, 3), 8, 4)[1:]),
        "residual-of-40": _row(residual(4, (2, 2, 3), 4, 0)[1:]),
        "klein-even-degrees": f"{4 % 2 == 0},{2 % 2 == 0}",
        "etype-84-consistency": audit_line(audit(*e84, "quadric3", 8, 4, (0, 6)), (0, 6)),
        "etype-40-consistency": audit_line(audit(*e40, "quadric3", 4, 0, (0, 6)), (0, 6)),
        "ntype-derived-84": res_line(*n84),
        "ntype-roundtrip": res_line(*roundtrip),
        "ntype-printed-twists": "first at n={} ({} != {})".format(
            *audit(*printed, "quadric3", 8, 4, (0, 6))["first_failure"]
        ),
        "match-kernel-84": kernel_for([0, 0, 0, 0, 8, 32, 80]),
        "match-kernel-40": kernel_for([0, 0, 0, 8, 32, 80, 160]),
        "generators-84-quadric": gens(8, 4),
        "generators-40-quadric": gens(4, 0),
        "etype-84-synthesis": synthesis(e84[0], 8, 4),
        "etype-40-synthesis": synthesis(e40[0], 4, 0),
        "nonspecial-from-1": str(nonspecial_threshold(8, 4)),
        "plane-octic-genus": str((8 - 1) * (8 - 2) // 2),
        "quadric-surface-spectrum": "genus spectrum {" + ",".join(map(str, spectrum)) + "} omits 4"
        if 4 not in spectrum else "contains 4",
    }


_VERIFY_LINE = re.compile(r"^(PASS|FAIL|EXPECTED-DISCREPANCY) +([a-z0-9-]+): (.*)$")


def cross_check_reference(verify_text: str) -> list[str]:
    """Compare the oracle with the frozen values of ``ql verify`` text output.

    Returns the names that disagree; an empty list means all 40 agree.
    """
    oracle = reference_values()
    seen = {}
    for line in verify_text.splitlines()[:-1]:
        match = _VERIFY_LINE.match(line)
        if match is None:
            return [f"unparsable line {line!r}"]
        status, name, detail = match.groups()
        seen[name] = (status, detail)
    bad = [name for name in oracle if name not in seen]
    for name, (status, detail) in seen.items():
        want = oracle.get(name)
        if want is None:
            bad.append(name)
        elif name == "ntype-printed-twists":
            if status != "EXPECTED-DISCREPANCY" or want not in detail:
                bad.append(name)
        elif detail.endswith(")") and "(expected " in detail:
            frozen = detail[detail.rindex("(expected ") + len("(expected "):-1]
            if status != "PASS" or frozen != want:
                bad.append(name)
        elif status != "PASS" or detail != want:
            bad.append(name)
    if len(seen) != 40:
        bad.append(f"{len(seen)} checks, want 40")
    return bad
