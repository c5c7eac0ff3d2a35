"""Cohomology bookkeeping for ACM curves: section and ideal-sheaf tables,
the four-row cohomology grid, regularity, and embedding obstructions.

Conventions.  A curve class is (ambient, degree d, genus g) of an ACM
curve, one whose ideal sheaf has no intermediate cohomology.  For such
curves the section counts are forced by Riemann-Roch:

    h0(O_C(n)) = n*d + 1 - g   for n >= 1,   1 at n = 0,   0 for n < 0,

and h0(I_C(n)) = h0(O_ambient(n)) - h0(O_C(n)).  A negative value there is
not clamped: it proves no such ACM curve exists and raises
NegativeDimension.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .ambient import Ambient
from .errors import NegativeDimension
from .hilbert import h0_proj, h0_quadric3

Window = tuple[int, int]

DEFAULT_WINDOW: Window = (-1, 8)


def parse_window(text: str) -> Window:
    """Parse ``lo:hi`` into an inclusive twist window."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"window must be lo:hi, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"window must be lo:hi with integers, got {text!r}") from None
    if lo > hi:
        raise ValueError(f"empty window {text!r}")
    return (lo, hi)


@dataclass(frozen=True)
class CurveClass:
    ambient: Ambient
    degree: int
    genus: int

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError(f"degree must be positive, got {self.degree}")
        if self.genus < 0:
            raise ValueError(f"genus must be nonnegative, got {self.genus}")

    def label(self) -> str:
        return f"({self.degree},{self.genus}) in {self.ambient.label()}"


def rr_chi(degree: int, genus: int, twist: int) -> int:
    """Euler characteristic chi(O_C(twist)) = twist*degree + 1 - genus."""
    return twist * degree + 1 - genus


def curve_sections(curve: CurveClass, n: int) -> int:
    """h0(O_C(n)) for an ACM curve: nonspecial for n >= 1, connected at 0."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    return rr_chi(curve.degree, curve.genus, n)


def section_table(curve: CurveClass, window: Window = DEFAULT_WINDOW) -> dict[int, int]:
    lo, hi = window
    return {n: curve_sections(curve, n) for n in range(lo, hi + 1)}


def ideal_h0(curve: CurveClass, n: int) -> int:
    value = curve.ambient.h0(n) - curve_sections(curve, n)
    if value < 0:
        raise NegativeDimension(n, value)
    return value


def ideal_h0_table(curve: CurveClass, window: Window = DEFAULT_WINDOW) -> dict[int, int]:
    lo, hi = window
    return {n: ideal_h0(curve, n) for n in range(lo, hi + 1)}


def ambient_table(ambient: Ambient, window: Window = DEFAULT_WINDOW) -> dict[int, int]:
    lo, hi = window
    return {n: ambient.h0(n) for n in range(lo, hi + 1)}


@dataclass(frozen=True)
class CohomTable:
    """Exact table h^i(I_C(n)), i in 0..3, n over a window.

    A cell value of None means the arguments implemented here do not
    determine it.  Known cells are nonnegative integers.
    """

    window: Window
    cells: dict[tuple[int, int], int | None]
    notes: tuple[str, ...] = ()

    def cell(self, i: int, n: int) -> int | None:
        return self.cells[(i, n)]

    def known_zero(self, i: int, n: int) -> bool:
        return self.cells.get((i, n)) == 0

    def all_known_zero(self) -> bool:
        return all(v == 0 for v in self.cells.values())

    def render_grid(self) -> str:
        lo, hi = self.window
        twists = list(range(lo, hi + 1))
        rows = [[" n:"] + [str(n) for n in twists]]
        for i in (3, 2, 1, 0):
            cells = [self.cells[(i, n)] for n in twists]
            rows.append([f"h{i}:"] + ["?" if v is None else str(v) for v in cells])
        return _align_columns(rows)

    def render_csv(self) -> str:
        lo, hi = self.window
        lines = ["i,n,value"]
        for i in (3, 2, 1, 0):
            for n in range(lo, hi + 1):
                v = self.cells[(i, n)]
                lines.append(f"{i},{n},{'?' if v is None else v}")
        return "\n".join(lines) + "\n"


def _align_columns(rows: list[list[str]]) -> str:
    widths = [max(len(row[j]) for row in rows) for j in range(len(rows[0]))]
    out = []
    for row in rows:
        out.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(out) + "\n"


def render_value_row(values: dict[int, int]) -> str:
    """One-row grid for a map twist -> count."""
    twists = sorted(values)
    rows = [
        [" n:"] + [str(n) for n in twists],
        ["h0:"] + [str(values[n]) for n in twists],
    ]
    return _align_columns(rows)


def render_value_csv(values: dict[int, int]) -> str:
    lines = ["n,value"]
    for n in sorted(values):
        lines.append(f"{n},{values[n]}")
    return "\n".join(lines) + "\n"


def _h1_curve(curve: CurveClass, n: int) -> int | None:
    """h1(O_C(n)); None where duality plus nonspecialty say nothing."""
    d, g = curve.degree, curve.genus
    if n < 0:
        # chi = nd+1-g and h0(O_C(n)) = 0 for an integral curve.
        return g - 1 - n * d
    if n == 0:
        return g
    if n * d > 2 * g - 2:
        return 0
    return None


def _h3_ambient(ambient: Ambient, n: int) -> int:
    """h3(O_ambient(n)), which equals h3(I_C(n)) for any curve C."""
    if ambient.is_quadric:
        # omega_Q = O_Q(-3)
        return h0_quadric3(-3 - n)
    if ambient.dim == 3:
        return h0_proj(3, -4 - n)
    # On P^m with m >= 4 the only cohomology of O(n) sits in degrees 0 and m.
    return 0


def full_ideal_table(curve: CurveClass, window: Window = DEFAULT_WINDOW) -> CohomTable:
    """Four-row cohomology table of the ideal sheaf of an ACM curve.

    Row 1 vanishes by ACM-ness.  Row 2 equals h1(O_C(n)) because the
    ambient has no intermediate cohomology; row 3 equals h3 of the ambient
    twist because a curve has no cohomology above degree 1.
    """
    if not curve.ambient.is_quadric and curve.ambient.dim < 3:
        raise ValueError("full tables need an ambient of dimension >= 3")
    lo, hi = window
    cells: dict[tuple[int, int], int | None] = {}
    for n in range(lo, hi + 1):
        cells[(0, n)] = ideal_h0(curve, n)
        cells[(1, n)] = 0
        cells[(2, n)] = _h1_curve(curve, n)
        cells[(3, n)] = _h3_ambient(curve.ambient, n)
    notes = ()
    if lo < 0:
        notes = ("negative-twist h2 cells assume an integral curve",)
    return CohomTable(window, cells, notes)


@dataclass(frozen=True)
class RegularityReport:
    regularity: int | None
    witness: tuple[tuple[int, int], ...]


def regularity(table: CohomTable) -> RegularityReport:
    """Smallest m certified by the table: h^i(I(m-i)) = 0 for i = 1,2,3.

    Only in-window cells count as evidence, so the answer is the smallest
    m whose full diagonal lies in the window and vanishes.  A table that
    is identically zero certifies its own left edge.
    """
    lo, hi = table.window
    if table.all_known_zero():
        return RegularityReport(lo, ())
    for m in range(lo + 3, hi + 2):
        diag = tuple((i, m - i) for i in (1, 2, 3))
        if all(table.known_zero(i, n) for i, n in diag):
            return RegularityReport(m, diag)
    return RegularityReport(None, ())


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    witness_twist: int | None = None


def acm_embedding_obstruction(degree: int, genus: int, ambient: Ambient) -> Feasibility:
    """Necessary condition for an ACM (degree, genus) curve in the ambient.

    Infeasible(n) when h0(O_ambient(n)) < h0(O_C(n)) at some twist; a
    Feasible verdict asserts nothing beyond passing this test.  Past
    n = 2*degree the ambient count (at least quadratic) dominates the
    linear section count, so only twists in [1, 2*degree] are examined,
    and the witness n is the first of them with a negative slack.

    The slack s(n) = h0(O_ambient(n)) - (n*degree + 1 - genus) is convex
    on n >= 1: its step s(n+1) - s(n) = h0(O(n+1)) - h0(O(n)) - degree
    increases with n on every supported ambient (it is C(m+n, m-1) - degree
    on P^m with m >= 2, and (n+2)^2 - degree on the quadric).  So s falls
    strictly until its first nonnegative step and never falls after it.
    One bisection finds that first step, which is where s is least; if s
    is negative there, a second bisection over the strictly falling part
    finds the first negative twist.  Both take O(log degree) evaluations.
    """
    probe = CurveClass(ambient, degree, genus)

    def slack(n: int) -> int:
        return ambient.h0(n) - curve_sections(probe, n)

    twists = range(1, 2 * degree + 1)
    lowest = twists[bisect_left(
        twists, True, key=lambda n: ambient.h0(n + 1) - ambient.h0(n) >= degree
    )]
    if slack(lowest) >= 0:
        return Feasibility(True, None)
    falling = twists[:lowest]
    witness = falling[bisect_left(falling, True, key=lambda n: slack(n) < 0)]
    return Feasibility(False, witness)


def nonspecial_threshold(degree: int, genus: int) -> int:
    """Smallest n >= 1 with n*degree > 2*genus - 2."""
    if degree < 1:
        raise ValueError("degree must be positive")
    return max(1, (2 * genus - 2) // degree + 1)


def plane_genus(degree: int) -> int:
    """Arithmetic genus (d-1)(d-2)/2 of a plane curve of degree d."""
    if degree < 1:
        raise ValueError("degree must be positive")
    return (degree - 1) * (degree - 2) // 2


def quadric_surface_genus_spectrum(degree: int) -> set[int]:
    """Genera of bidegree (a,b) curves on a nonsingular quadric surface.

    A curve of bidegree (a,b) with a+b = degree has genus (a-1)(b-1).
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    return {(a - 1) * (degree - a - 1) for a in range(1, degree)}


def klein_parity_check(surface_degree: int) -> bool:
    """Surfaces cut on the nonsingular quadric threefold have even degree."""
    return surface_degree % 2 == 0
