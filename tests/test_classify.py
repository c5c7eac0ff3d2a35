"""Tests for rank-4 bundle enumeration, kernel matching, and synthesis."""

import pytest

from quadliaison import (
    CANDIDATE_CAP,
    DEFAULT_TWIST_BOUNDS,
    MATCH_WINDOW,
    CurveClass,
    P4,
    QUADRIC3,
    RangeTooLarge,
    NegativeDimension,
    ResolutionTriple,
    ResolutionFlavor,
    enumerate_rank4_candidates,
    etype_candidates,
    etype_middle,
    generator_estimate,
    ideal_h0,
    kernel_table_from_resolution,
    line_bundle,
    match_acm_kernel,
    rank4_candidate_count,
    resolution_consistency_check,
    spinor,
)

C84 = CurveClass(QUADRIC3, 8, 4)
C40 = CurveClass(QUADRIC3, 4, 0)

# kernel columns over twists 0..6, taken from the frozen tables in
# test_hilbert (middle minus ideal, halved); keys are the twists
KERNEL_84 = {0: 0, 1: 0, 2: 0, 3: 0, 4: 8, 5: 32, 6: 80}
KERNEL_40 = {0: 0, 1: 0, 2: 0, 3: 8, 4: 32, 5: 80, 6: 160}


def brute_candidate_count(lo, hi):
    """Count rank-4 sums directly: stars-and-bars per family."""
    w = hi - lo + 1
    pairs = w * (w + 1) // 2
    quads = w * (w + 1) * (w + 2) * (w + 3) // 24
    return w * pairs + pairs + quads


def test_single_twist_range_gives_one_candidate_per_family():
    got = enumerate_rank4_candidates(0, 0)
    assert len(got) == 3
    assert set(got) == {
        spinor(0, 2),
        line_bundle(0, 2) + spinor(0),
        line_bundle(0, 4),
    }
    assert all(expr.rank == 4 for expr in got)


def test_enumeration_contains_all_spinor_pairs():
    got = enumerate_rank4_candidates(-1, 0)
    for expr in (spinor(-1, 2), spinor(-1) + spinor(0), spinor(0, 2)):
        assert expr in got


def test_enumeration_is_sorted_and_duplicate_free():
    got = enumerate_rank4_candidates(-2, 0)
    renders = [expr.render() for expr in got]
    assert renders == sorted(renders)
    assert len(set(renders)) == len(renders)


def test_candidate_count_formula():
    for lo, hi in ((0, 0), (-1, 0), (-2, 0), (-3, 0), (2, 4)):
        expected = brute_candidate_count(lo, hi)
        assert rank4_candidate_count(lo, hi) == expected
        assert len(enumerate_rank4_candidates(lo, hi)) == expected


def test_default_bounds_are_modest():
    lo, hi = DEFAULT_TWIST_BOUNDS
    count = rank4_candidate_count(lo, hi)
    assert count == 1320
    assert count <= CANDIDATE_CAP


def test_enumeration_rejects_oversized_ranges():
    with pytest.raises(RangeTooLarge) as info:
        enumerate_rank4_candidates(-16, 3)
    assert info.value.count == 13265 == rank4_candidate_count(-16, 3)
    assert info.value.cap == CANDIDATE_CAP
    assert isinstance(info.value, ValueError)


def test_enumeration_rejects_empty_range():
    with pytest.raises(ValueError):
        enumerate_rank4_candidates(1, 0)


def test_match_finds_unique_spinor_pair_for_each_curve():
    got_84 = match_acm_kernel(KERNEL_84)
    assert got_84 == [spinor(-2, 2)]
    got_40 = match_acm_kernel(KERNEL_40)
    assert got_40 == [spinor(-1, 2)]


def test_match_window_must_span_five_twists():
    with pytest.raises(ValueError):
        match_acm_kernel(KERNEL_84, window=(0, 3))


def test_match_target_must_cover_window():
    partial = {n: KERNEL_84[n] for n in range(0, 4)}
    with pytest.raises(ValueError):
        match_acm_kernel(partial)


def test_every_candidate_matches_its_own_table():
    lo, hi = -2, 0
    for expr in enumerate_rank4_candidates(lo, hi):
        target = expr.h0_table(MATCH_WINDOW)
        matches = match_acm_kernel(target, twist_lo=lo, twist_hi=hi)
        assert expr in matches


def test_kernel_table_from_resolution():
    got = kernel_table_from_resolution(C84, line_bundle(-2) + line_bundle(-3, 4))
    assert got == KERNEL_84
    got = kernel_table_from_resolution(C40, line_bundle(-2, 5))
    assert got == KERNEL_40


def test_kernel_table_reports_deficient_middle():
    # a single O(-2) has too few sections to surject onto the ideal
    with pytest.raises(NegativeDimension) as info:
        kernel_table_from_resolution(C84, line_bundle(-2))
    assert info.value.twist == 3
    assert info.value.value == 5 - ideal_h0(C84, 3)


def test_generator_estimates():
    got = generator_estimate(C84)
    assert got.counts == {2: 1, 3: 4}
    assert got.regularity == 3
    assert got.assumes_injective_multiplication
    assert generator_estimate(C40).counts == {2: 5}
    assert generator_estimate(CurveClass(P4, 8, 4)).counts == {2: 2, 3: 4}


def test_generator_estimate_conic():
    from quadliaison import P3

    got = generator_estimate(CurveClass(P3, 2, 0))
    assert got.counts == {1: 1, 2: 1}
    assert got.regularity == 2


def test_generator_degrees_stay_within_regularity():
    for curve in (C84, C40, CurveClass(P4, 8, 4)):
        est = generator_estimate(curve)
        assert all(1 <= k <= est.regularity for k in est.counts)
        assert all(v > 0 for v in est.counts.values())


def test_etype_middle_from_estimates():
    assert etype_middle(C84) == line_bundle(-2) + line_bundle(-3, 4)
    assert etype_middle(C40) == line_bundle(-2, 5)


def test_etype_synthesis_end_to_end():
    for curve, kernel in ((C84, spinor(-2, 2)), (C40, spinor(-1, 2))):
        middle, matches = etype_candidates(curve)
        assert matches == [kernel]
        triple = ResolutionTriple(kernel, middle, curve, ResolutionFlavor.E_TYPE)
        assert resolution_consistency_check(triple).ok
