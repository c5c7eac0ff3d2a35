"""Cohomology bookkeeping for ACM curves: section and ideal-sheaf tables,
the four-row cohomology grid, regularity, and embedding obstructions.

Conventions.  A curve class is (ambient, degree d, genus g) of an ACM
curve, one whose ideal sheaf has no intermediate cohomology.  For such
curves the section counts are forced by Riemann-Roch:

    h0(O_C(n)) = n*d + 1 - g   for n >= 1,   1 at n = 0,   0 for n < 0,

and h0(I_C(n)) = h0(O_ambient(n)) - h0(O_C(n)).  A negative value there is
not clamped: it proves no such ACM curve exists and raises
NegativeDimension at the first negative twist of the window.

Tables are built a row at a time from these closed forms, not a twist at
a time: the ambient row maps math.comb over the twists, the section row is
an arithmetic progression and the ideal row is their difference.  In the
full table the h1 row is zero, the h2 row is runs split at n = 0 and at
the nonspecial threshold, and the h3 row is an ambient row read backwards
(Serre duality).  A full table stores these four rows, and its regularity
is their first zero diagonal h1(m-1) = h2(m-2) = h3(m-3) = 0.  Both grid
renderers share one column aligner, and both CSV renderers one joiner.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import sub
from typing import NamedTuple

from .ambient import Ambient
from .errors import NegativeDimension

Window = tuple[int, int]

DEFAULT_WINDOW: Window = (-1, 8)

#: Widest window, in twists, that ``parse_window`` accepts.  Windows passed
#: to the table functions as tuples are not capped.
MAX_WINDOW_TWISTS = 10_000


def parse_window(text: str) -> Window:
    """Parse ``lo:hi`` into an inclusive twist window of at most
    MAX_WINDOW_TWISTS twists."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"window must be lo:hi, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"window must be lo:hi with integers, got {text!r}") from None
    if lo > hi:
        raise ValueError(f"empty window {text!r}")
    if hi - lo + 1 > MAX_WINDOW_TWISTS:
        raise ValueError(
            f"window {text!r} spans {hi - lo + 1} twists; at most {MAX_WINDOW_TWISTS} are allowed"
        )
    return (lo, hi)


class CurveClass(
    NamedTuple("CurveClass", [("ambient", Ambient), ("degree", int), ("genus", int)])
):
    __slots__ = ()

    def __new__(cls, ambient: Ambient, degree: int, genus: int) -> CurveClass:
        if degree < 1:
            raise ValueError(f"degree must be positive, got {degree}")
        if genus < 0:
            raise ValueError(f"genus must be nonnegative, got {genus}")
        return super().__new__(cls, ambient, degree, genus)

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
    return dict(zip(range(lo, hi + 1), _section_row(curve, lo, hi)))


def _section_row(curve: CurveClass, lo: int, hi: int) -> list[int]:
    """``curve_sections`` for n = lo..hi: zeros, 1 at n = 0, then a step of d."""
    d, g = curve.degree, curve.genus
    row = [0] * max(0, min(hi, -1) - lo + 1)
    if lo <= 0 <= hi:
        row.append(1)
    row += range(max(lo, 1) * d + 1 - g, hi * d + 2 - g, d)
    return row


def ideal_h0(curve: CurveClass, n: int) -> int:
    value = curve.ambient.h0(n) - curve_sections(curve, n)
    if value < 0:
        raise NegativeDimension(n, value)
    return value


def _ideal_row(curve: CurveClass, lo: int, hi: int) -> list[int]:
    """``ideal_h0`` for n = lo..hi; raises at the first negative twist.

    A count can only be negative at 1 <= n <= 2d (past 2d the ambient
    count outgrows the sections, see acm_embedding_obstruction), so that
    part of the window is built and checked first.
    """
    cut = min(hi, 2 * curve.degree)
    row = _difference_row(curve, lo, cut)
    if min(row, default=0) < 0:
        first = next(i for i, value in enumerate(row) if value < 0)
        raise NegativeDimension(lo + first, row[first])
    if cut < hi:
        row += _difference_row(curve, max(lo, cut + 1), hi)
    return row


def _difference_row(curve: CurveClass, lo: int, hi: int) -> list[int]:
    return list(map(sub, curve.ambient.h0_row(lo, hi), _section_row(curve, lo, hi)))


def ideal_h0_table(curve: CurveClass, window: Window = DEFAULT_WINDOW) -> dict[int, int]:
    lo, hi = window
    return dict(zip(range(lo, hi + 1), _ideal_row(curve, lo, hi)))


def ambient_table(ambient: Ambient, window: Window = DEFAULT_WINDOW) -> dict[int, int]:
    lo, hi = window
    return dict(zip(range(lo, hi + 1), ambient.h0_row(lo, hi)))


# Rows of a cohomology grid, top to bottom, as the renderers print them.
_GRID_ROWS = (3, 2, 1, 0)


class CohomTable(NamedTuple):
    """Exact table h^i(I_C(n)), i in 0..3, n over a window.

    ``rows[i]`` holds h^i at the twists lo..hi.  A cell value of None
    means the arguments implemented here do not determine it.  Known
    cells are nonnegative integers.
    """

    window: Window
    rows: tuple[list[int | None], ...]
    notes: tuple[str, ...] = ()

    def cell(self, i: int, n: int) -> int | None:
        lo, hi = self.window
        if i not in range(len(self.rows)) or n not in range(lo, hi + 1):
            raise KeyError((i, n))
        return self.rows[i][n - lo]

    @property
    def cells(self) -> dict[tuple[int, int], int | None]:
        """The cells keyed by (i, n), twist by twist and i = 0..3 within one."""
        columns = zip(range(self.window[0], self.window[1] + 1), zip(*self.rows))
        return {(i, n): v for n, column in columns for i, v in enumerate(column)}

    def _text_rows(self) -> tuple[list[str], list[list[str]]]:
        """The twists, and the rows h3..h0 as printed: ``?`` for an unknown cell."""
        lo, hi = self.window
        rows = [["?" if v is None else str(v) for v in self.rows[i]] for i in _GRID_ROWS]
        return list(map(str, range(lo, hi + 1))), rows

    def render_grid(self) -> str:
        twists, rows = self._text_rows()
        return _align_columns(
            [[" n:", *twists]] + [[f"h{i}:", *row] for i, row in zip(_GRID_ROWS, rows)]
        )

    def render_csv(self) -> str:
        twists, rows = self._text_rows()
        return _csv("i,n,value", [
            f"{i},{n},{v}" for i, row in zip(_GRID_ROWS, rows) for n, v in zip(twists, row)
        ])


def _align_columns(rows: list[list[str]]) -> str:
    widths = list(map(max, *(map(len, row) for row in rows)))
    return "\n".join(["  ".join(map(str.rjust, row, widths)) for row in rows]) + "\n"


def _csv(header: str, lines: list[str]) -> str:
    return "\n".join([header, *lines]) + "\n"


def render_value_row(values: dict[int, int]) -> str:
    """One-row grid for a map twist -> count."""
    twists = sorted(values)
    return _align_columns([
        [" n:", *map(str, twists)],
        ["h0:", *map(str, map(values.__getitem__, twists))],
    ])


def render_value_csv(values: dict[int, int]) -> str:
    return _csv("n,value", [f"{n},{values[n]}" for n in sorted(values)])


def _h1_curve_row(curve: CurveClass, lo: int, hi: int) -> list[int | None]:
    """h1(O_C(n)) for n = lo..hi; None where duality plus nonspecialty say nothing.

    Below 0 it is g - 1 - n*d (chi = nd+1-g and h0(O_C(n)) = 0 for an
    integral curve), g at 0, unknown up to the nonspecial threshold and 0
    from there on.
    """
    d, g = curve.degree, curve.genus
    threshold = _nonspecial(d, g)
    row: list[int | None] = list(range(g - 1 - lo * d, g - 1 - (min(hi, -1) + 1) * d, -d))
    if lo <= 0 <= hi:
        row.append(g)
    row += [None] * max(0, min(hi, threshold - 1) - max(lo, 1) + 1)
    row += [0] * max(0, hi - max(lo, threshold) + 1)
    return row


def _h3_ambient_row(ambient: Ambient, lo: int, hi: int) -> list[int]:
    """h3(O_ambient(n)) for n = lo..hi, which equals h3(I_C(n)) for any curve C.

    On a threefold Serre duality gives h0(O(k - n)) with omega = O(k):
    k = -3 on the quadric, -4 on P3.  On P^m with m >= 4 the only
    cohomology of O(n) sits in degrees 0 and m.
    """
    if ambient.dim != 3:
        return [0] * (hi - lo + 1)
    k = -3 if ambient.is_quadric else -4
    return ambient.h0_row(k - hi, k - lo)[::-1]


def full_ideal_table(curve: CurveClass, window: Window = DEFAULT_WINDOW) -> CohomTable:
    """Four-row cohomology table of the ideal sheaf of an ACM curve.

    Row 1 vanishes by ACM-ness.  Row 2 equals h1(O_C(n)) because the
    ambient has no intermediate cohomology; row 3 equals h3 of the ambient
    twist because a curve has no cohomology above degree 1.
    """
    if not curve.ambient.is_quadric and curve.ambient.dim < 3:
        raise ValueError("full tables need an ambient of dimension >= 3")
    lo, hi = window
    rows = (
        _ideal_row(curve, lo, hi),
        [0] * (hi - lo + 1),
        _h1_curve_row(curve, lo, hi),
        _h3_ambient_row(curve.ambient, lo, hi),
    )
    notes = ("negative-twist h2 cells assume an integral curve",) if lo < 0 else ()
    return CohomTable(window, rows, notes)


class RegularityReport(NamedTuple):
    regularity: int | None
    witness: tuple[tuple[int, int], ...]


def regularity(table: CohomTable) -> RegularityReport:
    """Smallest m certified by the table: h^i(I(m-i)) = 0 for i = 1,2,3.

    Only in-window cells count as evidence, so the answer is the first
    zero of zip(h1[2:], h2[1:], h3), whose j-th entry is the diagonal of
    m = lo + 3 + j.  An identically zero table certifies its left edge.
    """
    lo = table.window[0]
    _, h1, h2, h3 = table.rows
    if all(row.count(0) == len(row) for row in table.rows):
        return RegularityReport(lo, ())
    for m, diagonal in enumerate(zip(h1[2:], h2[1:], h3), lo + 3):
        if diagonal == (0, 0, 0):
            return RegularityReport(m, ((1, m - 1), (2, m - 2), (3, m - 3)))
    return RegularityReport(None, ())


class Feasibility(NamedTuple):
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
    return _nonspecial(degree, genus)


def _nonspecial(degree: int, genus: int) -> int:
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
