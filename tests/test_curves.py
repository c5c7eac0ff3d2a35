"""Curve tables, regularity, and feasibility obstructions.

Oracles: section counts recombine with ideal counts to the ambient
count; the genus spectrum on the quadric surface is brute-forced over
bidegrees; the nonspecialty threshold and the embedding obstruction are
rederived by direct scan; the row-at-a-time tables and their renderers
are compared with the twist-at-a-time builders and renderers they
replaced, and regularity on the stored rows with the walk over a cell
dict that it replaced, all kept below.
"""

import csv
import io
import itertools
import math
import random

import pytest

from quadliaison import (
    P2,
    P3,
    P4,
    QUADRIC3,
    Ambient,
    CohomTable,
    CurveClass,
    Feasibility,
    NegativeDimension,
    RegularityReport,
    acm_embedding_obstruction,
    ambient_table,
    full_ideal_table,
    ideal_h0_table,
    nonspecial_threshold,
    regularity,
    render_value_csv,
    render_value_row,
    rr_chi,
    section_table,
)
from quadliaison import h0_proj, h0_quadric3
from quadliaison.cli import MAX_WINDOW_TWISTS, parse_window
from quadliaison.curves import _csv, _csv_field
from quadliaison.verify import (
    _klein_parity_check as klein_parity_check,
    _plane_genus as plane_genus,
    _quadric_surface_genus_spectrum as quadric_surface_genus_spectrum,
)

C84_P4 = CurveClass(P4, 8, 4)
C84_Q = CurveClass(QUADRIC3, 8, 4)
C40_Q = CurveClass(QUADRIC3, 4, 0)


def brute_spectrum(degree: int) -> set[int]:
    out = set()
    for a in range(1, degree + 1):
        for b in range(1, degree + 1):
            if a + b == degree:
                out.add((a - 1) * (b - 1))
    return out


def brute_threshold(degree: int, genus: int) -> int:
    n = 1
    while not n * degree > 2 * genus - 2:
        n += 1
    return n


def brute_obstruction(degree: int, genus: int, ambient: Ambient) -> Feasibility:
    """The first n in [1, 2*degree] with h0(O_ambient(n)) < n*degree + 1 - genus."""
    for n in range(1, 2 * degree + 1):
        if ambient.h0(n) < rr_chi(degree, genus, n):
            return Feasibility(False, n)
    return Feasibility(True, None)


def brute_min_genus(degree: int, ambient: Ambient) -> int:
    """The least genus the scan accepts at this degree."""
    twists = range(1, 2 * degree + 1)
    return max(0, *(rr_chi(degree, 0, n) - ambient.h0(n) for n in twists))


# -- the twist-at-a-time builders and renderers, kept as the oracle ---------


def old_sections(curve, n):
    return 0 if n < 0 else 1 if n == 0 else rr_chi(curve.degree, curve.genus, n)


def old_ideal(curve, n):
    value = curve.ambient.h0(n) - old_sections(curve, n)
    if value < 0:
        raise NegativeDimension(n, value)
    return value


def old_h1_curve(curve, n):
    d, g = curve.degree, curve.genus
    if n < 0:
        return g - 1 - n * d
    if n == 0:
        return g
    return 0 if n * d > 2 * g - 2 else None


def old_h3_ambient(ambient, n):
    if ambient.is_quadric:
        return h0_quadric3(-3 - n)
    return h0_proj(3, -4 - n) if ambient.dim == 3 else 0


def old_full_cells(curve, window):
    cells = {}
    for n in range(window[0], window[1] + 1):
        cells[(0, n)] = old_ideal(curve, n)
        cells[(1, n)] = 0
        cells[(2, n)] = old_h1_curve(curve, n)
        cells[(3, n)] = old_h3_ambient(curve.ambient, n)
    return cells


def old_regularity(window, cells):
    """The dict walk: the first m whose cells (1, m-1), (2, m-2) and
    (3, m-3) are known zeros."""
    lo, hi = window
    for m in range(lo + 3, hi + 2):
        diag = tuple((i, m - i) for i in (1, 2, 3))
        if all(cells.get(key) == 0 for key in diag):
            return RegularityReport(m, diag)
    return RegularityReport(None, ())


def old_align(rows):
    widths = [max(len(row[j]) for row in rows) for j in range(len(rows[0]))]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in rows) + "\n"


def old_grid(window, cells):
    twists = range(window[0], window[1] + 1)
    rows = [[" n:"] + [str(n) for n in twists]]
    for i in (3, 2, 1, 0):
        values = [cells[(i, n)] for n in twists]
        rows.append([f"h{i}:"] + ["?" if v is None else str(v) for v in values])
    return old_align(rows)


def old_csv(window, cells):
    lines = ["i,n,value"]
    for i in (3, 2, 1, 0):
        for n in range(window[0], window[1] + 1):
            lines.append(f"{i},{n},{'?' if cells[(i, n)] is None else cells[(i, n)]}")
    return "\n".join(lines) + "\n"


def old_value_row(values):
    twists = sorted(values)
    return old_align([
        [" n:"] + [str(n) for n in twists],
        ["h0:"] + [str(values[n]) for n in twists],
    ])


def old_value_csv(values):
    return "\n".join(["n,value"] + [f"{n},{values[n]}" for n in sorted(values)]) + "\n"


def test_rr_chi():
    assert rr_chi(8, 4, 1) == 5
    assert rr_chi(4, 0, 1) == 5
    for d, g in ((8, 4), (4, 0), (3, 1)):
        assert rr_chi(d, g, 0) == 1 - g


def test_section_tables():
    assert list(section_table(C84_P4, (0, 4)).values()) == [1, 5, 13, 21, 29]
    assert list(section_table(C40_Q, (0, 6)).values()) == [1, 5, 9, 13, 17, 21, 25]
    assert section_table(C84_Q, (-3, -1)) == {-3: 0, -2: 0, -1: 0}


def test_ambient_tables():
    assert list(ambient_table(P4, (0, 4)).values()) == [1, 5, 15, 35, 70]
    assert list(ambient_table(QUADRIC3, (0, 6)).values()) == [
        1, 5, 14, 30, 55, 91, 140,
    ]


def test_ideal_tables():
    assert list(ideal_h0_table(C84_P4, (0, 4)).values()) == [0, 0, 2, 14, 41]
    assert list(ideal_h0_table(C84_Q, (0, 6)).values()) == [0, 0, 1, 9, 26, 54, 95]
    assert list(ideal_h0_table(C40_Q, (0, 6)).values()) == [0, 0, 5, 17, 38, 70, 115]


def test_ideal_plus_sections_recombine():
    for curve in (C84_P4, C84_Q, C40_Q, CurveClass(P3, 3, 0)):
        sections = section_table(curve, (-1, 8))
        ideal = ideal_h0_table(curve, (-1, 8))
        for n in range(-1, 9):
            assert ideal[n] + sections[n] == curve.ambient.h0(n)


def test_p3_curve_infeasible():
    with pytest.raises(NegativeDimension) as info:
        ideal_h0_table(CurveClass(P3, 8, 4), (0, 4))
    assert info.value.twist == 1
    assert info.value.value == 4 - 5


def test_full_table_cells():
    table = full_ideal_table(C84_P4)
    assert table.cell(2, 1) == 0
    assert table.cell(3, 0) == 0
    # h1(O_C) = g for a connected curve: chi(O_C) = 1 - g with h0 = 1
    assert table.cell(2, 0) == 4
    assert table.cell(2, -1) == 4 - 1 + 8
    lo, hi = table.window
    assert all(table.cell(1, n) == 0 for n in range(lo, hi + 1))
    assert table.notes and "integral" in table.notes[0]


def test_full_table_quadric_h3_row():
    table = full_ideal_table(C40_Q, (-4, 2))
    # h3(I(n)) = h0(O_Q(-3-n)) through the dualizing twist -3
    assert table.cell(3, -4) == 5
    assert table.cell(3, -3) == 1
    assert table.cell(3, -2) == 0
    table_p3 = full_ideal_table(CurveClass(P3, 3, 0), (-5, 1))
    assert table_p3.cell(3, -5) == 4
    assert table_p3.cell(3, -4) == 1
    with pytest.raises(ValueError):
        full_ideal_table(CurveClass(P2, 3, 1))


def test_unknown_cells_marked():
    # d=2, g=3: twists 1 and 2 satisfy n*d <= 2g-2, so h1(O_C(n)) is open
    table = full_ideal_table(CurveClass(P3, 2, 3), (0, 4))
    assert table.cell(2, 1) is None
    assert table.cell(2, 2) is None
    assert table.cell(2, 3) == 0
    assert "?" in table.render_grid()
    assert "2,1,?" in table.render_csv()


def test_regularity_paper_curves():
    report = regularity(full_ideal_table(C84_P4))
    assert report.regularity == 3
    assert report.witness == ((1, 2), (2, 1), (3, 0))
    assert regularity(full_ideal_table(C40_Q)).regularity == 2
    # the quadric case needs the n = -1 guard column for its h3 cell
    assert (3, -1) in regularity(full_ideal_table(C40_Q)).witness


def test_regularity_degenerate_and_unknown():
    # an all-zero table certifies its first in-window diagonal, not its left edge
    zero = CohomTable((2, 5), tuple([0] * 4 for _ in range(4)))
    assert regularity(zero) == RegularityReport(5, ((1, 4), (2, 3), (3, 2)))
    # unknown diagonals postpone certification
    report = regularity(full_ideal_table(CurveClass(P3, 2, 3), (0, 6)))
    assert report.regularity == 5
    all_unknown = CohomTable((0, 6), tuple([None] * 7 for _ in range(4)))
    assert regularity(all_unknown).regularity is None


def test_regularity_of_a_line_needs_a_window_that_shows_its_diagonal():
    """A line in P4 has h2(I(-2)) = 1, so I_C is 1-regular and not 0-regular.
    On 0:0 every cell is 0, but no diagonal lies in the window."""
    line = CurveClass(P4, 1, 0)
    assert regularity(full_ideal_table(line, (0, 0))) == RegularityReport(None, ())
    wide = full_ideal_table(line, (-2, 3))
    assert wide.cell(2, -2) == 1
    assert regularity(wide).regularity == 1


def test_regularity_propagation():
    for curve in (C84_P4, C84_Q, C40_Q):
        table = full_ideal_table(curve)
        report = regularity(table)
        lo, hi = table.window
        for m in range(report.regularity, hi + 2):
            for i in (1, 2, 3):
                if lo <= m - i <= hi:
                    assert table.cell(i, m - i) == 0, (curve, m, i)


def test_obstructions():
    assert acm_embedding_obstruction(8, 4, P3).feasible is False
    assert acm_embedding_obstruction(8, 4, P3).witness_twist == 1
    assert acm_embedding_obstruction(8, 4, P4).feasible is True
    assert acm_embedding_obstruction(1, 0, P2).feasible is True
    # matches the table failure exactly, and the linear-forms implication
    for d in range(1, 11):
        for g in range(0, 11):
            for ambient in (P3, P4, QUADRIC3):
                verdict = acm_embedding_obstruction(d, g, ambient)
                curve = CurveClass(ambient, d, g)
                try:
                    ideal_h0_table(curve, (0, 2 * d))
                    table_feasible = True
                except NegativeDimension as exc:
                    table_feasible = False
                    assert exc.twist == verdict.witness_twist
                assert verdict.feasible == table_feasible
                if not ambient.is_quadric and ambient.h0(1) < rr_chi(d, g, 1):
                    assert not verdict.feasible


def test_obstruction_matches_scan_on_random_classes():
    rng = random.Random(234)
    ambients = (P2, P3, P4, QUADRIC3)
    degrees = list(range(1, 25)) + [2_000, 3_000]
    degrees += [rng.randint(25, 10 ** rng.randint(2, 3)) for _ in range(12)]
    for ambient in ambients:
        for d in degrees:
            g_min = brute_min_genus(d, ambient)
            genera = {0, g_min, max(0, g_min - 1), g_min + 1, d * d}
            genera.add(rng.randint(0, d * d))
            for g in genera:
                verdict = acm_embedding_obstruction(d, g, ambient)
                assert verdict == brute_obstruction(d, g, ambient), (ambient, d, g)
                assert verdict.feasible == (g >= g_min), (ambient, d, g)


def test_obstruction_work_is_logarithmic_in_degree(monkeypatch):
    calls = []
    h0 = Ambient.h0

    def counted(self, k):
        calls.append(k)
        return h0(self, k)

    monkeypatch.setattr(Ambient, "h0", counted)
    d, g = 2 * 10**6, 10**12
    budget = 2 * math.ceil(math.log2(2 * d)) + 3
    for ambient in (P2, P3, P4, QUADRIC3):
        for genus in (0, g):
            calls.clear()
            acm_embedding_obstruction(d, genus, ambient)
            assert 0 < len(calls) <= budget, (ambient, genus, len(calls))


def test_nonspecial_threshold():
    assert nonspecial_threshold(8, 4) == 1
    assert nonspecial_threshold(2, 3) == 3 == brute_threshold(2, 3)
    for d in range(1, 8):
        assert nonspecial_threshold(d, 0) == 1
        for g in range(0, 8):
            assert nonspecial_threshold(d, g) == brute_threshold(d, g)


def test_nonspecial_threshold_matches_scan_on_random_classes():
    # the scan costs about 2g/d steps, so d grows with g to keep it short
    rng = random.Random(410)
    cases = [(d, 0) for d in range(1, 10)] + [(1, 10_000), (7, 10**6)]
    for _ in range(400):
        g = rng.randint(0, 10 ** rng.randint(0, 6))
        d = rng.randint(max(1, g // 10_000), max(1, g // 10_000) * 10 + 10)
        cases.append((d, g))
    for d, g in cases:
        assert nonspecial_threshold(d, g) == brute_threshold(d, g), (d, g)


@pytest.mark.parametrize("degree", [0, -1])
@pytest.mark.parametrize("count", [lambda d: nonspecial_threshold(d, 0)],
                         ids=["nonspecial_threshold"])
def test_genus_formulas_refuse_a_degree_below_1(count, degree):
    with pytest.raises(ValueError, match="^degree must be positive$"):
        count(degree)


def test_plane_genus():
    assert plane_genus(8) == 21
    assert plane_genus(1) == 0
    assert plane_genus(3) == 1


def test_quadric_surface_genus_spectrum():
    assert quadric_surface_genus_spectrum(8) == {0, 5, 8, 9}
    assert 4 not in quadric_surface_genus_spectrum(8)
    assert quadric_surface_genus_spectrum(2) == {0}
    assert quadric_surface_genus_spectrum(4) == {0, 1}
    for d in range(1, 21):
        assert quadric_surface_genus_spectrum(d) == brute_spectrum(d)


def test_klein_parity():
    assert klein_parity_check(4)
    assert klein_parity_check(2)
    assert not klein_parity_check(3)


def test_row_renderers():
    row = ideal_h0_table(C84_Q, (0, 6))
    assert render_value_row(row) == (
        " n:  0  1  2  3   4   5   6\n"
        "h0:  0  0  1  9  26  54  95\n"
    )
    assert render_value_csv(row) == (
        "n,value\n0,0\n1,0\n2,1\n3,9\n4,26\n5,54\n6,95\n"
    )


def reference_csv(rows) -> str:
    """The standard library's writer, as `ql verify --format csv` once used it."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


CSV_FIELDS = ["", "PASS", " leading space", "trailing space ", "a,b", 'say "x"', '"', '""',
              "two\nlines", ',\n"', "{2:1, 3:4}", "O(-2) + 4*O(-3),['2*E0(-2)']", "0 -> 5*O(-3)"]


def test_csv_fields_are_quoted_as_the_standard_writer_quotes_them():
    """A field holding a comma, quote or newline is quoted with each quote
    doubled; any other field, empty or space-led, is written as it is."""
    rows = [list(row) for row in itertools.product(CSV_FIELDS, repeat=3)]
    lines = [",".join(map(_csv_field, row)) for row in rows]
    assert _csv(lines[0], lines[1:]) == reference_csv(rows)
    for field in CSV_FIELDS:
        assert _csv_field(field) + ",x\n" == reference_csv([[field, "x"]]), field


def test_grid_renderer():
    grid = full_ideal_table(C84_P4, (-1, 4)).render_grid()
    assert grid == (
        " n:  -1  0  1  2   3   4\n"
        "h3:   0  0  0  0   0   0\n"
        "h2:  11  4  0  0   0   0\n"
        "h1:   0  0  0  0   0   0\n"
        "h0:   0  0  0  2  14  41\n"
    )


def _old_vs_new_windows(rng):
    """Windows wholly negative, straddling 0, starting at 1, one twist wide,
    empty, and up to 2,000 twists wide."""
    windows = [(-7, -2), (-1, -1), (-3, 4), (0, 0), (1, 1), (1, 9), (5, 3)]
    for _ in range(2):
        hi = -rng.randint(1, 40)
        windows.append((hi - rng.randint(0, 60), hi))
        windows.append((-rng.randint(1, 30), rng.randint(0, 60)))
        windows.append((1, rng.randint(1, 300)))
        lo = rng.randint(-5, 50)
        windows.append((lo, lo))
    for width in (10, 100, 1000, 2000):
        lo = rng.randint(-width, 5)
        windows.append((lo, lo + width - 1))
    return windows


def _same_table_or_witness(new, old):
    """Run both builders; equal values (key order too) or equal witnesses."""
    try:
        expected = old()
    except NegativeDimension as exc:
        with pytest.raises(NegativeDimension) as info:
            new()
        assert (info.value.twist, info.value.value) == (exc.twist, exc.value)
        assert str(info.value) == str(exc)
        return None
    got = new()
    cells = getattr(got, "cells", got)
    assert list(cells.items()) == list(expected.items())
    return got


def test_row_tables_and_renderers_match_the_twist_at_a_time_code():
    rng = random.Random(531)
    checked = witnesses = 0
    for ambient in (P2, P3, P4, QUADRIC3):
        # at the least feasible genus, one and more above it, and below it
        every_class = []
        for d in (1, 2, 3, 8, rng.randint(4, 40), rng.randint(41, 400)):
            g_min = brute_min_genus(d, ambient)
            genera = {g_min, g_min + 1, g_min + rng.randint(2, 3 * d + 2), max(0, g_min - 1)}
            if g_min > 0:
                genera.add(rng.randint(0, g_min - 1))
            every_class += [(d, g) for g in sorted(genera)]
        for window in _old_vs_new_windows(rng):
            lo, hi = window
            twists = range(lo, hi + 1)
            assert list(ambient_table(ambient, window).items()) == [
                (n, ambient.h0(n)) for n in twists
            ]
            # the old code takes about 0.1 ms a twist, so wider windows get fewer classes
            size = 1 if hi - lo >= 500 else 3 if hi - lo >= 60 else 8 if hi - lo >= 10 else 20
            classes = rng.sample(every_class, size)
            for d, g in classes:
                curve = CurveClass(ambient, d, g)
                ctx = (ambient, d, g, window)
                sections = section_table(curve, window)
                assert list(sections.items()) == [(n, old_sections(curve, n)) for n in twists], ctx
                ideal = _same_table_or_witness(
                    lambda: ideal_h0_table(curve, window),
                    lambda: {n: old_ideal(curve, n) for n in twists},
                )
                if ideal is None:
                    witnesses += 1
                    continue
                assert render_value_row(ideal) == old_value_row(ideal), ctx
                assert render_value_csv(ideal) == old_value_csv(ideal), ctx
                assert render_value_row(sections) == old_value_row(sections), ctx
                if ambient is P2:
                    continue
                table = _same_table_or_witness(
                    lambda: full_ideal_table(curve, window),
                    lambda: old_full_cells(curve, window),
                )
                assert table.render_grid() == old_grid(window, table.cells), ctx
                assert table.render_csv() == old_csv(window, table.cells), ctx
                assert regularity(table) == old_regularity(window, table.cells), ctx
                checked += 1
    # the draws reach both outcomes often
    assert checked > 300 and witnesses > 50, (checked, witnesses)
    # a section row with negative counts, as ql table --rows section prints it
    sections = section_table(CurveClass(QUADRIC3, 12, 2_000_000), (0, 3))
    assert list(sections.values()) == [1, -1999987, -1999975, -1999963]
    assert render_value_row(sections) == old_value_row(sections)
    assert render_value_row(sections).splitlines()[1] == "h0:  1  -1999987  -1999975  -1999963"


def test_directly_built_tables_render_like_the_old_renderers():
    rng = random.Random(532)
    for k in range(80):
        lo = rng.randint(-30, 30)
        # 1- and 2-twist windows first; every tenth table is identically zero
        hi = lo + (k % 2 if k < 20 else rng.randint(0, 40))
        window = (lo, hi)
        twists = range(lo, hi + 1)
        cells = {}
        for n in twists:
            for i in rng.sample(range(4), 4):
                cells[(i, n)] = 0 if k % 10 == 9 else rng.choice(
                    (None, 0, rng.randint(1, 10 ** rng.randint(1, 30)))
                )
        table = CohomTable(window, tuple([cells[(i, n)] for n in twists] for i in range(4)))
        assert table.cells == cells
        with pytest.raises(AttributeError):
            table.cells = cells
        assert all(table.cell(i, n) == v for (i, n), v in cells.items())
        outside = [(i, n) for i in (-1, 4) for n in (lo, hi)]
        outside += [(i, n) for i in range(4) for n in (lo - 1, hi + 1)]
        for i, n in outside:
            with pytest.raises(KeyError):
                table.cell(i, n)
        assert regularity(table) == old_regularity(window, cells)
        assert table.render_grid() == old_grid(window, cells)
        assert table.render_csv() == old_csv(window, cells)
        values = {n: rng.randint(-10**12, 10**12)
                  for n in rng.sample(range(-50, 50), rng.randint(0, 12))}
        assert render_value_row(values) == old_value_row(values)
        assert render_value_csv(values) == old_value_csv(values)
    # zero tails, which the renderers print as one piece, in every place they can start
    for window in ((-12, 11), (-104, -95), (95, 104), (-3, 0), (0, 0), (-7, -7), (100, 100)):
        w = window[1] - window[0] + 1
        shapes = [
            [0] * w,  # an all-zero row: the tail starts at column 0
            [None] + [0] * (w - 1),  # a tail right after an unknown cell
            [0] * (w - 1) + [None],  # zeros before an unknown cell are no tail
            [7] + [0] * (w - 1),  # the tail starts at column 1
            [10**12] * (w - 1) + [0],  # ... at the last column, after wide cells
            [3] + [0] * (w - 2) + [12345] * (w > 1),  # an interior run, then no tail
            [0, None, 0, 0, 5, 0, 0][:w] + [0] * (w - 7),  # runs around a None, then a tail
            [10 ** (k % 9) for k in range(w)],  # no zero at all
        ]
        for k in range(len(shapes) + 1):
            rows = [shapes[(k + i) % len(shapes)] for i in range(4)]
            table = CohomTable(window, tuple(rows if k < len(shapes) else [[0] * w] * 4))
            assert table.render_grid() == old_grid(window, table.cells), (window, k)
            assert table.render_csv() == old_csv(window, table.cells), (window, k)
    for curve in (C84_P4, C84_Q):
        table = full_ideal_table(curve, (-5, MAX_WINDOW_TWISTS - 6))
        assert table.render_grid() == old_grid(table.window, table.cells)
        assert table.render_csv() == old_csv(table.window, table.cells)


@pytest.mark.parametrize("window", [(10**19, 10**19 + 2), (-10**19 - 2, -10**19)],
                         ids=["past+1e19", "past-1e19"])
@pytest.mark.parametrize("ambient", ["p4", "q"])
@pytest.mark.parametrize("rows", ["ambient", "section", "ideal", "full"])
def test_tables_past_the_index_size_print_the_per_twist_values(rows, ambient, window):
    """Zero runs are sized by clamped counts, so library windows beyond 2^63
    on either side build and print every row kind instead of raising
    OverflowError.  (The CLI reads window ends in -10^6..10^6 only.)"""
    lo, hi = window
    amb = QUADRIC3 if ambient == "q" else P4
    curve = CurveClass(amb, 8, 4)
    twists = range(lo, hi + 1)
    if rows == "full":
        table = full_ideal_table(curve, window)
        cells = old_full_cells(curve, window)
        assert table.cells == cells
        assert table.render_grid() == old_grid(window, cells)
        assert table.render_csv() == old_csv(window, cells)
        return
    build, per_twist = {
        "ambient": (lambda: ambient_table(amb, window), amb.h0),
        "section": (lambda: section_table(curve, window), lambda n: old_sections(curve, n)),
        "ideal": (lambda: ideal_h0_table(curve, window), lambda n: old_ideal(curve, n)),
    }[rows]
    values = build()
    assert values == {n: per_twist(n) for n in twists}
    assert render_value_row(values) == old_value_row(values)
    assert render_value_csv(values) == old_value_csv(values)


def test_table_work_does_not_grow_with_the_window(monkeypatch):
    """Every table builder and renderer makes the same calls for a 10- or
    30-twist window as for 10,000-twist ones, and no per-twist call."""
    calls = []

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    counting(Ambient, "h0")
    counting(Ambient, "h0_row")

    def shape(window):
        calls.clear()
        for ambient, d, g in ((P3, 8, 20), (P4, 8, 4), (QUADRIC3, 8, 4)):
            curve = CurveClass(ambient, d, g)
            table = full_ideal_table(curve, window)
            table.render_grid()
            table.render_csv()
            ideal = ideal_h0_table(curve, window)
            render_value_row(ideal)
            render_value_csv(ideal)
            render_value_row(section_table(curve, window))
            render_value_csv(ambient_table(ambient, window))
        return sorted(calls)

    # each wide window against a narrow one, on both sides of n = 0
    pairs = (((0, 29), (0, MAX_WINDOW_TWISTS - 1)), ((-9, 0), (1 - MAX_WINDOW_TWISTS, 0)))
    for narrow, wide in pairs:
        assert shape(wide) == shape(narrow)
        assert set(shape(narrow)) == {"h0_row"}


def test_rendering_work_does_not_grow_with_zero_tails():
    """Rows h1-h3 of these full tables are zero past a few twists, so each
    renderer converts as many of their cells at 30 twists as at 10,000."""
    calls = []

    class Counted(int):
        def __str__(self):
            calls.append(self)
            return int.__repr__(self)

        def __format__(self, spec):
            calls.append(self)
            return int.__format__(self, spec)

    def conversions(window):
        out = []
        for ambient, d, g in ((P3, 8, 20), (P4, 8, 4), (QUADRIC3, 8, 4)):
            table = full_ideal_table(CurveClass(ambient, d, g), window)
            counted = table._replace(rows=(table.rows[0], *(
                [v if v is None else Counted(v) for v in row] for row in table.rows[1:]
            )))
            for render in (CohomTable.render_grid, CohomTable.render_csv):
                calls.clear()
                assert render(counted) == render(table)
                out.append(len(calls))
        return out

    narrow = conversions((0, 29))
    # the genus in h2 at n = 0 is converted, so the counter sees the calls
    assert min(narrow) > 0
    assert conversions((0, MAX_WINDOW_TWISTS - 1)) == narrow


def test_parse_window():
    assert parse_window("-1:8") == (-1, 8)
    assert parse_window("0:6") == (0, 6)
    for bad in ("5", "3:1", "a:b", "1:2:3"):
        with pytest.raises(ValueError):
            parse_window(bad)


def test_parse_window_caps_the_width():
    assert parse_window(f"0:{MAX_WINDOW_TWISTS - 1}") == (0, MAX_WINDOW_TWISTS - 1)
    assert parse_window(f"-{MAX_WINDOW_TWISTS - 1}:0") == (1 - MAX_WINDOW_TWISTS, 0)
    for text in (f"0:{MAX_WINDOW_TWISTS}", f"-{MAX_WINDOW_TWISTS}:0", "0:1000000000000"):
        with pytest.raises(ValueError, match="twists; at most 10000 are allowed"):
            parse_window(text)
    # windows given to the library as tuples are not capped
    assert len(ambient_table(P4, (0, MAX_WINDOW_TWISTS))) == MAX_WINDOW_TWISTS + 1
