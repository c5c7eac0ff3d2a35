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
is their first zero diagonal h1(m-1) = h2(m-2) = h3(m-3) = 0.  Its renderers
print a row's trailing zeros as one piece, because an ACM table is mostly zeros.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from itertools import accumulate, compress, count, repeat
from operator import ne, sub

from .ambient import Ambient
from .errors import NegativeDimension

Window = tuple[int, int]

DEFAULT_WINDOW: Window = (-1, 8)


class CurveClass(namedtuple("CurveClass", "ambient degree genus")):
    __slots__ = ()

    def __new__(cls, ambient: Ambient, degree: int, genus: int) -> CurveClass:
        cls.check_invariants(degree, genus)
        return super().__new__(cls, ambient, degree, genus)

    @staticmethod
    def check_invariants(degree: int, genus: int) -> None:
        """ValueError unless degree >= 1 and genus >= 0, on whatever ambient."""
        if degree < 1:
            raise ValueError(f"degree must be positive, got {degree}")
        if genus < 0:
            raise ValueError(f"genus must be nonnegative, got {genus}")

    def label(self) -> str:
        return f"({self.degree},{self.genus}) in {self.ambient.label()}"

    def on_quadric(self) -> CurveClass:
        """This curve, or ValueError off Q: sheaf sums and resolutions live on Q only."""
        if not self.ambient.is_quadric:
            raise ValueError("resolutions are classified on the quadric threefold only")
        return self


def rr_chi(degree: int, genus: int, twist: int) -> int:
    """Euler characteristic chi(O_C(twist)) = twist*degree + 1 - genus."""
    return twist * degree + 1 - genus


def section_table(curve: CurveClass, window: Window = DEFAULT_WINDOW) -> dict[int, int]:
    lo, hi = window
    return dict(zip(range(lo, hi + 1), _section_row(curve, lo, hi)))


def _section_row(curve: CurveClass, lo: int, hi: int) -> list[int]:
    """h0(O_C(n)) for n = lo..hi: zeros, 1 at n = 0, then a step of d."""
    d, g = curve.degree, curve.genus
    row = [0] * max(0, min(hi, -1) - lo + 1)
    if lo <= 0 <= hi:
        row.append(1)
    row += range(max(lo, 1) * d + 1 - g, hi * d + 2 - g, d)
    return row


def _ideal_row(curve: CurveClass, lo: int, hi: int) -> list[int]:
    """h0(I_C(n)) for n = lo..hi; raises at the first negative twist."""
    row = list(map(sub, curve.ambient.h0_row(lo, hi), _section_row(curve, lo, hi)))
    if min(row, default=0) < 0:
        first = next(i for i, value in enumerate(row) if value < 0)
        raise NegativeDimension(lo + first, row[first])
    return row


def ideal_h0_table(curve: CurveClass, window: Window = DEFAULT_WINDOW) -> dict[int, int]:
    lo, hi = window
    return dict(zip(range(lo, hi + 1), _ideal_row(curve, lo, hi)))


def ambient_table(ambient: Ambient, window: Window = DEFAULT_WINDOW) -> dict[int, int]:
    lo, hi = window
    return dict(zip(range(lo, hi + 1), ambient.h0_row(lo, hi)))


# Rows of a cohomology grid, top to bottom, as the renderers print them.
_GRID_ROWS = (3, 2, 1, 0)


class CohomTable(namedtuple("CohomTable", "window rows notes", defaults=((),))):
    """Exact table h^i(I_C(n)), i in 0..3, n over a window.

    ``rows[i]`` holds h^i at the twists lo..hi.  A cell value of None
    means the arguments implemented here do not determine it.  Known
    cells are nonnegative integers.
    """

    __slots__ = ()

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
        """The twists, and rows h3..h0 as printed (None as ``?``) up to their last cell not 0."""
        raw = [self.rows[i] for i in _GRID_ROWS]
        tails = [next(compress(count(), map(ne, reversed(r), repeat(0))), len(r)) for r in raw]
        rows = [["?" if v is None else str(v) for v in r[:len(r) - t]] for r, t in zip(raw, tails)]
        return list(map(str, range(self.window[0], self.window[1] + 1))), rows

    def render_grid(self) -> str:
        twists, rows = self._text_rows()
        return _grid([" n:", *(f"h{i}:" for i in _GRID_ROWS)], [twists, *rows])

    def render_csv(self) -> str:
        """``i,n,value`` lines, h3 first; each row's zero tail is one join."""
        twists, rows = self._text_rows()
        lines = []
        for i, row in zip(_GRID_ROWS, rows):
            lines += [f"{i},{n},{v}" for n, v in zip(twists, row)]
            if len(row) < len(twists):
                lines.append(f"{i}," + f",0\n{i},".join(twists[len(row):]) + ",0")
        return _csv("i,n,value", lines)


def _grid(labels: list[str], rows: list[list[str]]) -> str:
    """A label column, then each cell right-aligned to its column's widest
    entry plus two spaces.  rows[0] spans every column; a shorter row ends in
    zeros, printed as one padded piece: a twist prints a digit, so zeros
    widen no column."""
    widths = list(map(len, rows[0]))
    for row in rows[1:]:  # len(c.rjust(w)) is max(len(c), w)
        widths[:len(row)] = map(len, map(str.rjust, row, widths))
    pad = [w + 2 for w in widths]
    short = min(map(len, rows))  # the zeros start no earlier than this column
    zeros, cut = "".join(map("  0".rjust, pad[short:])), list(accumulate(pad[short:], initial=0))
    lines = [h + "".join(map(str.rjust, r, pad)) + zeros[cut[len(r) - short]:]
             for h, r in zip(labels, rows)]
    return "\n".join(lines) + "\n"


def _csv(header: str, lines: list[str]) -> str:
    return "\n".join([header, *lines]) + "\n"


def _csv_field(text: str) -> str:
    """A ``_csv`` field: quoted, each quote doubled, if it holds a comma, quote or newline."""
    return text if {",", '"', "\n"}.isdisjoint(text) else '"' + text.replace('"', '""') + '"'


def render_value_row(values: dict[int, int]) -> str:
    """One-row grid for a map twist -> count."""
    twists = sorted(values)
    counts = list(map(str, map(values.__getitem__, twists)))
    return _grid([" n:", "h0:"], [list(map(str, twists)), counts])


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


RegularityReport = namedtuple("RegularityReport", "regularity witness")


def regularity(table: CohomTable) -> RegularityReport:
    """Smallest m certified by the table: h^i(I(m-i)) = 0 for i = 1,2,3.

    Only in-window cells count as evidence, so the answer is the first
    zero of zip(h1[2:], h2[1:], h3), whose j-th entry is the diagonal of
    m = lo + 3 + j.
    """
    _, h1, h2, h3 = table.rows
    for m, diagonal in enumerate(zip(h1[2:], h2[1:], h3), table.window[0] + 3):
        if diagonal == (0, 0, 0):
            return RegularityReport(m, ((1, m - 1), (2, m - 2), (3, m - 3)))
    return RegularityReport(None, ())


Feasibility = namedtuple("Feasibility", "feasible witness_twist", defaults=(None,))


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
    strictly until its first nonnegative step, where it is least, and never
    falls after it.  So the predicate "s(n) < 0 or the step at n is
    nonnegative" is monotone: a negative s stays negative while s falls, and
    a step, once nonnegative, stays so.  One bisection, O(log degree)
    evaluations, finds where it turns true: the first negative twist if s
    goes negative, else the least point, so the slack there is the verdict.
    """
    CurveClass.check_invariants(degree, genus)

    def short_or_rising(n: int) -> bool:
        h0 = ambient.h0(n)
        return h0 < rr_chi(degree, genus, n) or ambient.h0(n + 1) - h0 >= degree

    twists = range(1, 2 * degree + 1)
    n = twists[bisect_left(twists, True, key=short_or_rising)]
    feasible = ambient.h0(n) >= rr_chi(degree, genus, n)
    return Feasibility(feasible, None if feasible else n)


def nonspecial_threshold(degree: int, genus: int) -> int:
    """Smallest n >= 1 with n*degree > 2*genus - 2."""
    if degree < 1:
        raise ValueError("degree must be positive")
    return _nonspecial(degree, genus)


def _nonspecial(degree: int, genus: int) -> int:
    return max(1, (2 * genus - 2) // degree + 1)
