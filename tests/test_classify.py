"""Tests for rank-4 bundle enumeration, kernel matching, and synthesis."""

import random
from itertools import combinations_with_replacement

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
    SheafExpr,
    spinor,
    zero_sheaf,
)
from quadliaison import hilbert
from quadliaison.classify import _enumerate_cached, _pair_counts

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


def constructor_enumeration(lo, hi):
    """The enumeration as first written, kept as the oracle: every candidate
    summed from single atoms through the canonicalizing constructor."""
    twists = range(lo, hi + 1)
    pairs = list(combinations_with_replacement(twists, 2))
    out = [spinor(a) + line_bundle(b) + line_bundle(c) for a in twists for b, c in pairs]
    out += [spinor(a) + spinor(b) for a, b in pairs]
    for quad in combinations_with_replacement(twists, 4):
        expr = zero_sheaf()
        for t in quad:
            expr = expr + line_bundle(t)
        out.append(expr)
    return tuple(sorted(dict.fromkeys(out), key=SheafExpr.render))


@pytest.mark.parametrize("bounds", [(0, 0), (-1, 0), (-2, 0), (-6, 3), (-10, 3), (2, 5)])
def test_enumeration_equals_constructor_oracle(bounds):
    _enumerate_cached.cache_clear()
    got = tuple(enumerate_rank4_candidates(*bounds))
    want = constructor_enumeration(*bounds)
    assert got == want
    assert [(e.lines, e.spinors) for e in got] == [(e.lines, e.spinors) for e in want]
    assert [hash(expr) for expr in got] == [hash(expr) for expr in want]


def test_cold_enumeration_builds_each_candidate_once(monkeypatch):
    """One constructor call (the shared zero sheaf) and one canonical
    _replace_atoms per candidate, with no intermediate sums."""
    calls = {"__post_init__": 0, "_replace_atoms": 0}
    for name in calls:
        original = getattr(SheafExpr, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(SheafExpr, name, counted)
    _enumerate_cached.cache_clear()
    assert len(enumerate_rank4_candidates(-6, 3)) == 1320
    assert calls["__post_init__"] <= 1
    assert calls["_replace_atoms"] == 1320
    _enumerate_cached.cache_clear()


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
        target = {n: expr.h0(n) for n in range(MATCH_WINDOW[0], MATCH_WINDOW[1] + 1)}
        matches = match_acm_kernel(target, twist_lo=lo, twist_hi=hi)
        assert expr in matches


def filter_match(target, window, twist_lo, twist_hi):
    """Matching before twists without sections were skipped, kept as the
    oracle: every candidate compared at every twist of the window."""
    lo, hi = window
    return [
        cand
        for cand in enumerate_rank4_candidates(twist_lo, twist_hi)
        if all(cand.h0(n) == target[n] for n in range(lo, hi + 1))
    ]


def test_match_agrees_with_unpruned_filter_on_seeded_targets():
    rng = random.Random(6)
    pool = enumerate_rank4_candidates(-6, 3)
    outcomes = set()
    for _ in range(240):
        twist_lo = rng.randint(-6, 1)
        twist_hi = rng.randint(twist_lo, min(twist_lo + 5, 3))
        lo = rng.randint(-14, 4)
        window = (lo, lo + rng.randint(4, 12))
        expr = rng.choice(pool)
        if rng.random() < 0.3:
            expr = expr + rng.choice(pool)
        target = {n: expr.h0(n) for n in range(window[0], window[1] + 1)}
        if rng.random() < 0.3:
            n = rng.randint(*window)
            target[n] += rng.choice((-1, 1))
        want = filter_match(target, window, twist_lo, twist_hi)
        assert match_acm_kernel(target, window, twist_lo, twist_hi) == want
        outcomes.add(min(len(want), 2))
    # the draws reach no match, a unique match and several matches
    assert outcomes == {0, 1, 2}


def test_pair_counts_agree_with_the_section_count_oracle():
    """A candidate's count read off the two atom rows at twist n, as matching
    reads it, equals SheafExpr.h0, which stays the oracle."""
    pool = enumerate_rank4_candidates(*DEFAULT_TWIST_BOUNDS)
    for n in range(-20, 41):
        line_of, spinor_of = _pair_counts(*DEFAULT_TWIST_BOUNDS, n)
        for cand in pool:
            count = sum(map(line_of, cand.lines)) + sum(map(spinor_of, cand.spinors))
            assert count == cand.h0(n), (cand, n)


def test_match_agrees_with_unpruned_filter_on_edge_draws():
    """Seeded draws of three kinds: one-twist bounds (twist_lo == twist_hi),
    windows wholly below -twist_hi, and free ones.  Targets come from a
    candidate of the drawn bounds or of the default bounds, and half of
    them are moved by +-1 at one twist."""
    rng = random.Random(11)
    pool = enumerate_rank4_candidates(*DEFAULT_TWIST_BOUNDS)
    outcomes = {"single": set(), "below": set(), "free": set()}
    for i in range(300):
        kind = list(outcomes)[i % 3]
        twist_lo = rng.randint(-6, 3)
        twist_hi = twist_lo if kind == "single" else rng.randint(twist_lo, min(twist_lo + 4, 3))
        hi = rng.randint(-twist_hi - 9, -twist_hi - 1) if kind == "below" else rng.randint(-2, 9)
        window = (hi - rng.randint(4, 9), hi)
        own = enumerate_rank4_candidates(twist_lo, twist_hi)
        expr = rng.choice(own if rng.random() < 0.7 else pool)
        target = {n: expr.h0(n) for n in range(window[0], window[1] + 1)}
        if rng.random() < 0.5:
            target[rng.randint(*window)] += rng.choice((-1, 1))
        want = filter_match(target, window, twist_lo, twist_hi)
        assert match_acm_kernel(target, window, twist_lo, twist_hi) == want
        outcomes[kind].add(min(len(want), 2))
    # the draws reach no match, a unique match and several matches
    assert set().union(*outcomes.values()) == {0, 1, 2}
    assert {0, 1} <= outcomes["single"] and outcomes["below"] == {0, 2}


@pytest.fixture
def counts(monkeypatch):
    """Wraps the atom counts and SheafExpr.h0.  counts["atoms"] gets the twist
    k of every h0(O(k)) or h0(E0(k)) on Q made through hilbert.h0_quadric3,
    hilbert.h0_quadric3_row or hilbert.h0_spinor, and counts["sums"] every
    SheafExpr.h0 twist."""
    found = {"atoms": [], "sums": []}
    atoms = found["atoms"]
    h0, h0_row, h0_spinor, sum_h0 = (
        hilbert.h0_quadric3, hilbert.h0_quadric3_row, hilbert.h0_spinor, SheafExpr.h0
    )

    def counted_row(lo, hi):
        atoms.extend(range(lo, hi + 1))
        return h0_row(lo, hi)

    def counted_sum(self, n):
        found["sums"].append(n)
        return sum_h0(self, n)

    monkeypatch.setattr(hilbert, "h0_quadric3", lambda k: atoms.append(k) or h0(k))
    monkeypatch.setattr(hilbert, "h0_quadric3_row", counted_row)
    monkeypatch.setattr(hilbert, "h0_spinor", lambda k: atoms.append(k) or h0_spinor(k))
    monkeypatch.setattr(SheafExpr, "h0", counted_sum)
    return found


def test_match_work_does_not_grow_below_the_twist_bounds(counts):
    """Twists below -twist_hi cost no section counts, so a window reaching
    down to -9999 makes as many atom counts as one reaching down to -9:
    twists 6 down to -3, at most 2 * 10 each for the ten bounds twists."""
    kernel = spinor(-2, 2)
    results = {}
    for lo in (-9, -9999):
        target = {n: kernel.h0(n) for n in range(lo, 7)}
        counts["atoms"].clear()
        counts["sums"].clear()
        got = match_acm_kernel(target, (lo, 6))
        assert counts["sums"] == []
        results[lo] = got, len(counts["atoms"])
    assert results[-9999] == results[-9]
    assert results[-9][1] <= 2 * 10 * 10
    assert results[-9][0] == filter_match(target, (-9, 6), -6, 3)
    assert kernel in results[-9][0]


@pytest.mark.parametrize("target", [KERNEL_84, KERNEL_40], ids=["84", "40"])
def test_match_compares_from_the_top_twist(counts, target):
    """With the candidates built, matching makes no SheafExpr.h0 call.  At
    each compared twist n, the window's top twist first, it counts
    h0(O(t + n)) and then h0(E0(t + n)) once for each of the w twists t of
    the bounds, and reads every candidate's count off those two rows: at
    most 2 * w atom counts per twist, against up to 4 per candidate before."""
    enumerate_rank4_candidates()
    got = match_acm_kernel(target)
    assert counts["sums"] == []
    lo, hi = MATCH_WINDOW
    twist_lo, twist_hi = DEFAULT_TWIST_BOUNDS
    width = twist_hi - twist_lo + 1
    assert len(counts["atoms"]) <= 2 * width * (hi - lo + 1)
    assert counts["atoms"][:2 * width] == [*range(twist_lo + hi, twist_hi + hi + 1)] * 2
    assert got == filter_match(target, MATCH_WINDOW, *DEFAULT_TWIST_BOUNDS)


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


C84_P4 = CurveClass(P4, 8, 4)
MIDDLE_84 = line_bundle(-2) + line_bundle(-3, 4)
Q_ONLY = "resolutions are classified on the quadric threefold only"
OFF_QUADRIC = [
    (lambda: etype_middle(C84_P4), Q_ONLY),
    (lambda: etype_candidates(C84_P4), Q_ONLY),
    (lambda: kernel_table_from_resolution(C84_P4, MIDDLE_84), Q_ONLY),
    (lambda: ResolutionTriple(spinor(-2, 2), MIDDLE_84, C84_P4, ResolutionFlavor.E_TYPE),
     "resolution and curve live over different ambients"),
]


@pytest.mark.parametrize(
    "build, message", OFF_QUADRIC,
    ids=["etype_middle", "etype_candidates", "kernel_table_from_resolution", "ResolutionTriple"],
)
def test_curves_off_the_quadric_are_refused(build, message):
    """Sheaf sums live on Q, so a P4 curve gets no middle term, no kernel
    table and no resolution, rather than Q sums built from its P4 counts."""
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_etype_synthesis_end_to_end():
    for curve, kernel in ((C84, spinor(-2, 2)), (C40, spinor(-1, 2))):
        middle, matches = etype_candidates(curve)
        assert matches == [kernel]
        triple = ResolutionTriple(kernel, middle, curve, ResolutionFlavor.E_TYPE)
        assert resolution_consistency_check(triple).ok
