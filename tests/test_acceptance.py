"""Acceptance gate: one test per release criterion.

Each test is named test_criterion_<N>_<slug>; conftest.py turns the results
into a per-criterion PASS/FAIL summary at the end of the run.  Everything
here is exact integer arithmetic, so the tolerance everywhere is zero.
"""

import random
from itertools import combinations_with_replacement

from quadliaison import (
    CILinkage,
    CurveClass,
    InfeasibleError,
    SheafExpr,
    P3,
    P4,
    QUADRIC3,
    ResolutionFlavor,
    ResolutionTriple,
    acm_embedding_obstruction,
    ambient_table,
    binom,
    ci_residual,
    full_ideal_table,
    h0_proj,
    h0_quadric3,
    h0_spinor,
    ideal_h0_table,
    kernel_table_from_resolution,
    line_bundle,
    mapping_cone_e_from_n,
    mapping_cone_n_from_e,
    match_acm_kernel,
    quadric_linkage,
    regularity,
    resolution_consistency_check,
    section_table,
    spinor,
)
from quadliaison import hilbert
from quadliaison.verify import (
    DERIVED_NTYPE_TEXT,
    ETYPE_40,
    ETYPE_84,
    EXPECTED_DISCREPANCY,
    FAIL,
    _plane_genus,
    _quadric_surface_genus_spectrum,
    run_reference_checks,
)

C84_P4 = CurveClass(P4, 8, 4)
C84_Q = CurveClass(QUADRIC3, 8, 4)
C40_Q = CurveClass(QUADRIC3, 4, 0)

# frozen published columns over twists 0..6 (middle term and ideal sheaf);
# the spinor oracle in criterion 8 is rebuilt from these
MIDDLE_84 = [0, 0, 1, 9, 34, 86, 175]
IDEAL_84 = [0, 0, 1, 9, 26, 54, 95]
MIDDLE_40 = [0, 0, 5, 25, 70, 150, 275]
IDEAL_40 = [0, 0, 5, 17, 38, 70, 115]


def row(table, lo, hi):
    return [table[n] for n in range(lo, hi + 1)]


def test_criterion_1_ideal_tables_exact():
    assert row(ideal_h0_table(C84_P4, (0, 4)), 0, 4) == [0, 0, 2, 14, 41]
    assert row(ideal_h0_table(C84_Q, (0, 6)), 0, 6) == IDEAL_84
    assert row(ideal_h0_table(C40_Q, (0, 6)), 0, 6) == IDEAL_40


def test_criterion_2_section_and_ambient_tables_exact():
    assert row(section_table(C84_P4, (0, 4)), 0, 4) == [1, 5, 13, 21, 29]
    assert row(section_table(C84_Q, (0, 4)), 0, 4) == [1, 5, 13, 21, 29]
    assert row(section_table(C40_Q, (0, 6)), 0, 6) == [1, 5, 9, 13, 17, 21, 25]
    assert row(ambient_table(P4, (0, 4)), 0, 4) == [1, 5, 15, 35, 70]
    assert row(ambient_table(QUADRIC3, (0, 6)), 0, 6) == [
        1, 5, 14, 30, 55, 91, 140,
    ]


def test_criterion_3_kernel_tables_classify_uniquely():
    kernel_84 = kernel_table_from_resolution(
        C84_Q, line_bundle(-2) + line_bundle(-3, 4)
    )
    assert [kernel_84[n] for n in range(7)] == [0, 0, 0, 0, 8, 32, 80]
    assert match_acm_kernel(kernel_84, twist_lo=-6, twist_hi=3) == [spinor(-2, 2)]

    kernel_40 = kernel_table_from_resolution(C40_Q, line_bundle(-2, 5))
    assert [kernel_40[n] for n in range(7)] == [0, 0, 0, 8, 32, 80, 160]
    assert match_acm_kernel(kernel_40, twist_lo=-6, twist_hi=3) == [spinor(-1, 2)]


def test_criterion_4_liaison_residual_and_involution():
    residual = ci_residual(8, 4, quadric_linkage(2, 3))
    assert residual == (4, 0)
    assert 4 - residual[1] == 4

    rng = random.Random(2026)
    seen = 0
    attempts = 0
    while seen < 1000:
        attempts += 1
        assert attempts < 30000, "rejection sampling should not starve"
        dim = rng.randint(3, 5)
        degrees = tuple(rng.randint(1, 5) for _ in range(dim - 1))
        link = CILinkage(dim, degrees)
        d = rng.randint(1, max(1, link.total_degree - 1))
        g = rng.randint(0, 20)
        try:
            d2, g2 = ci_residual(d, g, link)
        except InfeasibleError:
            continue
        assert ci_residual(d2, g2, link) == (d, g)
        seen += 1


def test_criterion_5_regularity_and_propagation():
    for curve, expected in ((C84_P4, 3), (C40_Q, 2)):
        table = full_ideal_table(curve)
        report = regularity(table)
        assert report.regularity == expected
        hi = table.window[1]
        for m in range(report.regularity, hi + 2):
            for i in (1, 2, 3):
                assert table.cell(i, m - i) == 0


def test_criterion_6_obstructions_and_spectra():
    verdict = acm_embedding_obstruction(8, 4, P3)
    assert not verdict.feasible
    assert verdict.witness_twist == 1
    assert _plane_genus(8) == 21
    assert 4 not in _quadric_surface_genus_spectrum(8)


def test_criterion_7_mapping_cone_and_discrepancy(monkeypatch):
    # the N-type of the octic comes from the E-type of its residual quartic
    derived = mapping_cone_n_from_e(ETYPE_40, (2, 3))
    assert derived.render() == DERIVED_NTYPE_TEXT
    report = resolution_consistency_check(derived, (0, 6))
    assert report.ok
    assert report.resolution.rank_diff == 1
    assert report.resolution.c1_diff == 0
    expected = ideal_h0_table(C84_Q, (0, 6))
    for cell in report.cells:
        assert cell.rhs == expected[cell.twist]
        assert cell.lhs == expected[cell.twist]

    # round trip: N -> E -> N is the identity
    back = mapping_cone_e_from_n(derived, (2, 3))
    assert back == ETYPE_40
    assert mapping_cone_n_from_e(back, (2, 3)) == derived

    # the published twist values are reported as a known discrepancy
    results = {r.name: r for r in run_reference_checks()}
    assert results["ntype-printed-twists"].status == EXPECTED_DISCREPANCY
    assert not any(r.status == FAIL for r in results.values())

    # the suite must actually be sensitive to the arithmetic it audits:
    # perturbing one spinor section count has to surface as failures
    honest = hilbert.h0_spinor

    def skewed(k):
        return honest(k) + (1 if k == 3 else 0)

    monkeypatch.setattr(hilbert, "h0_spinor", skewed)
    mutated = run_reference_checks()
    assert any(r.status == FAIL for r in mutated)


def test_criterion_8_property_suites():
    rng = random.Random(407)
    exprs = []
    for _ in range(10000):
        lines, spinors = [], []
        for _ in range(rng.randint(1, 4)):
            pair = (rng.randint(-8, 8), rng.randint(1, 3))
            (spinors if rng.random() < 0.5 else lines).append(pair)
        exprs.append(SheafExpr(tuple(lines), tuple(spinors)))

    for expr in exprs:
        assert expr.dual().dual() == expr
        assert expr.twist(5).twist(-5) == expr

    for left, right in zip(exprs[:500], exprs[500:1000]):
        union = left + right
        assert union.rank == left.rank + right.rank
        assert union.c1 == left.c1 + right.c1
        for n in (0, 3):
            assert union.h0(n) == left.h0(n) + right.h0(n)

    # Hilbert functions against direct monomial counts
    for dim in range(1, 6):
        for k in range(-2, 11):
            if k < 0:
                count = 0
            else:
                count = sum(
                    1 for _ in combinations_with_replacement(range(dim + 1), k)
                )
            assert h0_proj(dim, k) == count
            if k >= 0:
                assert binom(dim + k, dim) == count

    for k in range(0, 11):
        reduced = sum(
            1
            for mono in combinations_with_replacement(range(5), k)
            if mono.count(0) <= 1
        )
        assert h0_quadric3(k) == reduced

    # spinor section counts against the kernel-difference oracle
    points = {}
    for column, ideal, shift in (
        (MIDDLE_84, IDEAL_84, -2),
        (MIDDLE_40, IDEAL_40, -1),
    ):
        for n in range(7):
            diff = column[n] - ideal[n]
            assert diff % 2 == 0
            k = n + shift
            if k in points:
                assert points[k] == diff // 2
            points[k] = diff // 2
    for k in range(0, 6):
        assert h0_spinor(k) == points[k]
    for k in range(-10, 2):
        assert h0_spinor(k) == 0


def test_criterion_9_resolution_shapes_only():
    # the irreducibility statements rest on an external moduli argument;
    # what is checkable here is that the quoted resolution shapes exist
    # and pass every arithmetic audit
    triple_84 = ResolutionTriple(
        spinor(-2, 2),
        line_bundle(-2) + line_bundle(-3, 4),
        C84_Q,
        ResolutionFlavor.E_TYPE,
    )
    assert triple_84.render() == "0 -> 2*E0(-2) -> O(-2) + 4*O(-3) -> I_C -> 0"
    triple_40 = ResolutionTriple(
        spinor(-1, 2),
        line_bundle(-2, 5),
        C40_Q,
        ResolutionFlavor.E_TYPE,
    )
    assert triple_40.render() == "0 -> 2*E0(-1) -> 5*O(-2) -> I_C -> 0"
    assert resolution_consistency_check(triple_84).ok
    assert resolution_consistency_check(triple_40).ok
    assert not any(r.status == FAIL for r in run_reference_checks())
