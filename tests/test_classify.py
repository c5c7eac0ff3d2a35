"""Tests for rank-4 bundle enumeration, kernel matching, and synthesis."""

import random
from collections import Counter
from itertools import combinations_with_replacement, product

import pytest

from quadliaison import (
    CANDIDATE_CAP,
    DEFAULT_TWIST_BOUNDS,
    DEFAULT_WINDOW,
    Ambient,
    CellCheck,
    CurveClass,
    GeneratorEstimate,
    P4,
    QUADRIC3,
    RangeTooLarge,
    NegativeDimension,
    ResolutionTriple,
    ResolutionFlavor,
    enumerate_rank4_candidates,
    etype_candidates,
    etype_middle,
    full_ideal_table,
    generator_estimate,
    kernel_table_from_resolution,
    line_bundle,
    mapping_cone_n_from_e,
    match_acm_kernel,
    rank4_candidate_count,
    regularity,
    resolution_consistency_check,
    rr_chi,
    SheafExpr,
    spinor,
)
from quadliaison import hilbert
from quadliaison.classify import _candidate, _count_table, _enumerate_cached
from quadliaison.liaison import residual_curve
from quadliaison.verify import ETYPE_40, ETYPE_84

C84 = CurveClass(QUADRIC3, 8, 4)
C40 = CurveClass(QUADRIC3, 4, 0)

# kernel columns over twists 0..6, taken from the frozen tables in
# test_hilbert (middle minus ideal, halved); keys are the twists
KERNEL_84 = {0: 0, 1: 0, 2: 0, 3: 0, 4: 8, 5: 32, 6: 80}
KERNEL_40 = {0: 0, 1: 0, 2: 0, 3: 8, 4: 32, 5: 80, 6: 160}
# the twists those columns cover, passed wherever a test matches on them
KERNEL_WINDOW = (0, 6)


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
        expr = SheafExpr()
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


def count_builds(monkeypatch):
    """Counts SheafExpr constructions: calls["new"] those through the
    constructor, calls["bypass"] those through _replace_atoms."""
    calls = {"new": 0, "bypass": 0}
    for key, name in ("new", "__post_init__"), ("bypass", "_replace_atoms"):
        original = getattr(SheafExpr, name)

        def counted(self, *args, _key=key, _original=original):
            calls[_key] += 1
            return _original(self, *args)

        monkeypatch.setattr(SheafExpr, name, counted)
    return calls


def test_cold_enumeration_builds_each_candidate_once(monkeypatch):
    """One constructor call per candidate, with no intermediate sums and no
    _replace_atoms bypass."""
    calls = count_builds(monkeypatch)
    _enumerate_cached.cache_clear()
    assert len(enumerate_rank4_candidates(-6, 3)) == 1320
    assert calls == {"new": 1320, "bypass": 0}
    _enumerate_cached.cache_clear()


@pytest.mark.parametrize("bounds", [(0, 0), (-1, 0), (-6, 3), (2, 5), (-10, 3)])
def test_keys_hold_one_index_per_summand(monkeypatch, bounds):
    """A cold key build constructs no SheafExpr; each key holds 4 - k
    indices for k spinors, each in range(2w) for w bounds twists, and the
    count table at any twist has 2w entries, one per index."""
    twist_lo, twist_hi = bounds
    w = twist_hi - twist_lo + 1
    calls = count_builds(monkeypatch)
    _enumerate_cached.cache_clear()
    keys = _enumerate_cached(twist_lo, twist_hi)
    assert calls == {"new": 0, "bypass": 0}
    assert len(keys) == len(set(keys)) == rank4_candidate_count(twist_lo, twist_hi)
    for key in keys:
        k = sum(i >= w for i in key)
        assert len(key) == 4 - k and set(key) <= set(range(2 * w)), key
    for n in (-20, 0, 6, 1_000_000):
        assert len(_count_table(twist_lo, twist_hi, n)) == 2 * w
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
    got_84 = match_acm_kernel(KERNEL_84, KERNEL_WINDOW)
    assert got_84 == [spinor(-2, 2)]
    got_40 = match_acm_kernel(KERNEL_40, KERNEL_WINDOW)
    assert got_40 == [spinor(-1, 2)]


def test_match_window_must_span_five_twists():
    with pytest.raises(ValueError):
        match_acm_kernel(KERNEL_84, window=(0, 3))


def test_match_target_must_cover_window():
    partial = {n: KERNEL_84[n] for n in range(0, 4)}
    with pytest.raises(ValueError):
        match_acm_kernel(partial, KERNEL_WINDOW)


def test_every_candidate_matches_its_own_table():
    lo, hi = -2, 0
    for expr in enumerate_rank4_candidates(lo, hi):
        target = {n: expr.h0(n) for n in range(KERNEL_WINDOW[0], KERNEL_WINDOW[1] + 1)}
        matches = match_acm_kernel(target, KERNEL_WINDOW, lo, hi)
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


def test_count_table_agrees_with_the_section_count_oracle():
    """A cached candidate's count at twist n, the sum of its key's entries in
    the twist's count table as matching reads it, equals SheafExpr.h0, which
    stays the oracle; and each key, decoded by _candidate, gives back the
    key from the candidate's spinors (w + t - twist_lo once per copy of
    E0(t)) and lines (t - twist_lo once per copy of O(t)), spinors first,
    ascending within each kind.  The cache is in generation order, so each
    key is paired with its own decoding, not with the rendered enumeration."""
    twist_lo, twist_hi = DEFAULT_TWIST_BOUNDS
    w = twist_hi - twist_lo + 1
    keys = _enumerate_cached(twist_lo, twist_hi)
    decoded = [_candidate(key, twist_lo, twist_hi) for key in keys]
    assert len(keys) == 1320
    assert sorted(decoded, key=SheafExpr.render) == enumerate_rank4_candidates()
    for cand, key in zip(decoded, keys):
        spinors = sorted(w + t - twist_lo for t, m in cand.spinors for _ in range(m))
        lines = sorted(t - twist_lo for t, m in cand.lines for _ in range(m))
        assert key == (*spinors, *lines), cand
    for n in range(-20, 41):
        count_of = _count_table(twist_lo, twist_hi, n).__getitem__
        for cand, key in zip(decoded, keys):
            assert sum(map(count_of, key)) == cand.h0(n), (cand, n)


def test_cold_match_builds_only_the_top_twist_survivors(monkeypatch):
    """The candidate cache holds integer tuples only, and a cold match of
    KERNEL_84 on 0:6 constructs one SheafExpr per candidate that agrees at
    twist 6, three of them, rather than all 1,320."""
    calls = count_builds(monkeypatch)
    _enumerate_cached.cache_clear()
    got = match_acm_kernel(KERNEL_84, KERNEL_WINDOW)
    assert calls == {"new": 3, "bypass": 0}
    assert got == [spinor(-2, 2)]
    keys = _enumerate_cached(*DEFAULT_TWIST_BOUNDS)
    assert all(type(i) is int for key in keys for i in key)
    assert {type(key) for key in keys} == {tuple}
    _enumerate_cached.cache_clear()


@pytest.mark.parametrize("bounds", [(-6, 3), (-2, 0), (-4, 5), (0, 9), (1, 1)])
def test_match_and_enumeration_agree_with_the_constructor_oracle(bounds):
    """For bounds up to (-6, 3) and shifted ones, enumeration equals the
    constructor-built oracle, and matching equals the oracle's candidates
    filtered by SheafExpr.h0 on every window twist, in the same order, on
    seeded targets over -1:8, 0:6, -3:12 and a window wholly below the
    bounds."""
    twist_lo, twist_hi = bounds
    oracle = constructor_enumeration(twist_lo, twist_hi)
    assert enumerate_rank4_candidates(twist_lo, twist_hi) == list(oracle)
    rng = random.Random(twist_lo * 100 + twist_hi)
    windows = [(-1, 8), (0, 6), (-3, 12), (-twist_hi - 9, -twist_hi - 1)]
    for window in windows:
        lo, hi = window
        for _ in range(12):
            expr = rng.choice(oracle)
            if rng.random() < 0.3:
                expr = expr + rng.choice(oracle)
            target = {n: expr.h0(n) for n in range(lo, hi + 1)}
            if rng.random() < 0.3:
                target[rng.randint(lo, hi)] += rng.choice((-1, 1))
            want = [cand for cand in oracle
                    if all(cand.h0(n) == target[n] for n in range(lo, hi + 1))]
            got = match_acm_kernel(target, window, twist_lo, twist_hi)
            assert got == want
            assert [(e.lines, e.spinors) for e in got] == [(e.lines, e.spinors) for e in want]


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
    """Wraps the atom counts, SheafExpr.h0 and SheafExpr.h0_row.
    counts["atoms"] gets the twist k of every h0(O(k)) or h0(E0(k)) on Q made
    through hilbert.h0_quadric3, hilbert.h0_quadric3_row or hilbert.h0_spinor,
    counts["rows"] the (lo, hi) of every hilbert.h0_quadric3_row call,
    counts["sums"] every SheafExpr.h0 twist, counts["receivers"] the
    expression of each of those calls and counts["sum_rows"] the
    (expression, lo, hi) of every SheafExpr.h0_row call."""
    found = {"atoms": [], "rows": [], "sums": [], "receivers": [], "sum_rows": []}
    atoms = found["atoms"]
    h0, h0_row, h0_spinor, sum_h0, sum_row = (
        hilbert.h0_quadric3, hilbert.h0_quadric3_row, hilbert.h0_spinor, SheafExpr.h0,
        SheafExpr.h0_row,
    )

    def counted_row(lo, hi):
        found["rows"].append((lo, hi))
        atoms.extend(range(lo, hi + 1))
        return h0_row(lo, hi)

    def counted_sum(self, n):
        found["sums"].append(n)
        found["receivers"].append(self)
        return sum_h0(self, n)

    def counted_sum_row(self, lo, hi):
        found["sum_rows"].append((self, lo, hi))
        return sum_row(self, lo, hi)

    monkeypatch.setattr(hilbert, "h0_quadric3", lambda k: atoms.append(k) or h0(k))
    monkeypatch.setattr(hilbert, "h0_quadric3_row", counted_row)
    monkeypatch.setattr(hilbert, "h0_spinor", lambda k: atoms.append(k) or h0_spinor(k))
    monkeypatch.setattr(SheafExpr, "h0", counted_sum)
    monkeypatch.setattr(SheafExpr, "h0_row", counted_sum_row)
    return found


def clear(counts):
    for found in counts.values():
        found.clear()


def summands(expr):
    return len(expr.lines) + len(expr.spinors)


def test_match_work_does_not_grow_below_the_twist_bounds(counts):
    """Twists below -twist_hi cost no section counts, so a window reaching
    down to -9999 does the work of one reaching down to -9: one count table
    at twist 6, then one SheafExpr.h0_row of each survivor over twists -3
    to 5 only."""
    kernel = spinor(-2, 2)
    results = {}
    for lo in (-9, -9999):
        target = {n: kernel.h0(n) for n in range(lo, 7)}
        clear(counts)
        got = match_acm_kernel(target, (lo, 6))
        assert counts["rows"][0] == (0, 9)  # the bounds twists -6..3, shifted by 6
        assert {(a, b) for _, a, b in counts["sum_rows"]} == {(-3, 5)}
        assert counts["sums"] == []
        results[lo] = got, len(counts["atoms"]), counts["rows"][:], counts["sum_rows"][:]
    assert results[-9999] == results[-9]
    assert results[-9][0] == filter_match(target, (-9, 6), -6, 3)
    assert kernel in results[-9][0]


@pytest.mark.parametrize("target", [KERNEL_84, KERNEL_40], ids=["84", "40"])
def test_match_compares_from_the_top_twist(counts, target):
    """With the candidates built, matching builds one count table, at the
    window's top twist hi: it counts h0(O(t + hi)) and then h0(E0(t + hi))
    once for each of the w twists t of the bounds, 2 * w atom counts from
    one h0_quadric3_row call, and reads every candidate's top count off
    them.  Every other atom count comes from one SheafExpr.h0_row, over the
    twists lo..hi-1 below it, of each candidate that agrees at hi, and
    matching makes no SheafExpr.h0 call."""
    lo, hi = KERNEL_WINDOW
    twist_lo, twist_hi = DEFAULT_TWIST_BOUNDS
    width = twist_hi - twist_lo + 1
    survivors = {cand for cand in enumerate_rank4_candidates() if cand.h0(hi) == target[hi]}
    clear(counts)
    got = match_acm_kernel(target, KERNEL_WINDOW)
    assert counts["rows"][0] == (twist_lo + hi, twist_hi + hi)
    assert counts["atoms"][:2 * width] == [*range(twist_lo + hi, twist_hi + hi + 1)] * 2
    receivers = [cand for cand, *_ in counts["sum_rows"]]
    assert sorted(receivers, key=SheafExpr.render) == sorted(survivors, key=SheafExpr.render)
    assert {(a, b) for _, a, b in counts["sum_rows"]} <= {(lo, hi - 1)}
    assert counts["rows"][1:] == [(twist + lo, twist + hi - 1)
                                  for cand in receivers for twist, _ in cand.lines]
    assert counts["sums"] == []
    assert len(counts["atoms"]) == 2 * width + (hi - lo) * sum(map(summands, receivers))
    assert got == filter_match(target, KERNEL_WINDOW, *DEFAULT_TWIST_BOUNDS)


@pytest.mark.parametrize("top, compared", [(81, 1), (79, 2), (80, 7)])
def test_match_stops_once_no_candidate_is_left(counts, top, compared):
    """KERNEL_84 with its twist-6 count raised to 81 fits no candidate at the
    top twist, so matching counts nothing below it; at 79 two candidates are
    left there, each counted once on twists 0..5, and both leave the target
    at twist 5; the true count, 80, leaves three: 2*E0(-2) agrees down to
    twist 0 and the other two leave the target at twist 5.  ``compared`` is
    the number of twists from the top down to where the last survivor
    leaves the target."""
    target = {**KERNEL_84, 6: top}
    twist_lo, twist_hi = DEFAULT_TWIST_BOUNDS
    lo, hi = KERNEL_WINDOW
    survivors = {cand for cand in enumerate_rank4_candidates() if cand.h0(hi) == top}
    clear(counts)
    got = match_acm_kernel(target, KERNEL_WINDOW)
    assert counts["rows"][0] == (twist_lo + hi, twist_hi + hi)
    assert counts["atoms"][:2 * (twist_hi - twist_lo + 1)] == [
        k + hi for _ in "OE" for k in range(twist_lo, twist_hi + 1)]
    receivers = [cand for cand, *_ in counts["sum_rows"]]
    assert len(receivers) == len(set(receivers)) == {81: 0, 79: 2, 80: 3}[top]
    assert set(receivers) == survivors
    assert counts["sum_rows"] == [(cand, lo, hi - 1) for cand in receivers]
    assert counts["sums"] == []
    assert got == filter_match(target, KERNEL_WINDOW, *DEFAULT_TWIST_BOUNDS)
    assert got == ([spinor(-2, 2)] if top == 80 else [])

    def leaves(cand):  # the top twist below hi where cand's count leaves the target, else lo
        return next((n for n in range(hi - 1, lo - 1, -1) if cand.h0(n) != target[n]), lo)

    assert hi - min(map(leaves, receivers), default=hi) + 1 == compared


def test_match_on_a_wide_window_builds_one_count_table(counts):
    """2*E0(-2)'s row on the 10,000-twist window 990001:1000000: one count
    table, at twist 1000000, whose one survivor gets one SheafExpr.h0_row
    over the 9,999 twists below it, and no SheafExpr.h0 call.  A table per
    compared twist would make 10,000 h0_quadric3_row calls."""
    kernel = spinor(-2, 2)
    window = (990_001, 1_000_000)
    target = dict(zip(range(window[0], window[1] + 1), kernel.h0_row(*window)))
    clear(counts)
    assert match_acm_kernel(target, window) == [kernel]
    assert counts["rows"] == [(1_000_000 - 6, 1_000_000 + 3)]
    assert counts["sum_rows"] == [(kernel, 990_001, 999_999)]
    assert counts["sums"] == []


@pytest.mark.parametrize("top", [6, 8, 1_000_000])
@pytest.mark.parametrize("bounds", [DEFAULT_TWIST_BOUNDS, (-4, 5), (0, 9)])
def test_top_count_rule_is_exact_at_each_shapes_edges(bounds, top):
    """For k = 0, 1, 2 the shape's lowest and highest top count are those of
    k*E0(t) + (4 - 2k)*O(t) at t = twist_lo and t = twist_hi.  At each, and
    one past it on either side, over that candidate's own lower twists,
    matching returns exactly what the unpruned filter returns."""
    twist_lo, twist_hi = bounds
    window = (top - 6, top)
    for k, t in product((0, 1, 2), bounds):
        edge = spinor(t, k) + line_bundle(t, 4 - 2 * k)
        row = dict(zip(range(window[0], top + 1), edge.h0_row(*window)))
        for step in (-1, 0, 1):
            target = {**row, top: row[top] + step}
            want = filter_match(target, window, twist_lo, twist_hi)
            assert match_acm_kernel(target, window, twist_lo, twist_hi) == want, (k, edge, step)
            assert (edge in want) == (step == 0)


@pytest.mark.parametrize("bounds", [DEFAULT_TWIST_BOUNDS, (-4, 5), (0, 9), (2, 2), (-1, 0)])
def test_count_table_halves_do_not_decrease(bounds):
    """The premise of the top-count rule: h0(O(t + n)) and h0(E0(t + n)),
    the two halves of the count table, do not decrease as t rises."""
    twist_lo, twist_hi = bounds
    w = twist_hi - twist_lo + 1
    for n in (*range(-20, 41), -1_000_000, 1_000_000):
        row = _count_table(twist_lo, twist_hi, n)
        for half in row[:w], row[w:]:
            assert half == sorted(half), (n, half)


@pytest.mark.parametrize("step", [-1, 1])
@pytest.mark.parametrize("top", [6, 1_000_000])
def test_top_count_outside_every_range_reads_no_key(monkeypatch, counts, top, step):
    """A top count one below the lowest shape's minimum or one above the
    highest shape's maximum: matching builds the one count table, reads
    ``_enumerate_cached`` zero times and builds no SheafExpr."""
    twist_lo, twist_hi = DEFAULT_TWIST_BOUNDS
    window = (top - 6, top)
    edge = spinor(twist_lo, 2) if step < 0 else line_bundle(twist_hi, 4)
    target = dict(zip(range(window[0], top + 1), edge.h0_row(*window)))
    target[top] += step
    assert filter_match(target, window, twist_lo, twist_hi) == []
    reads = _enumerate_cached.cache_info()
    calls = count_builds(monkeypatch)
    clear(counts)
    assert match_acm_kernel(target, window) == []
    after = _enumerate_cached.cache_info()
    assert after.hits + after.misses == reads.hits + reads.misses
    assert calls == {"new": 0, "bypass": 0}
    assert counts["rows"] == [(twist_lo + top, twist_hi + top)]
    assert counts["sum_rows"] == [] and counts["sums"] == []


@pytest.mark.parametrize("window, ended", [((-1, 8), 359), ((0, 6), 290)])
def test_top_count_rule_ends_most_q_class_matches(window, ended):
    """Of the Q classes with d <= 20 and 0 <= g < 4d, the 543 whose E-type
    kernel table can be built reach matching; the top-count rule ends
    ``ended`` of them before any key is read, each with no match, and the
    others read the keys once."""
    reached = read = 0
    for d in range(1, 21):
        for g in range(4 * d):
            curve = CurveClass(QUADRIC3, d, g)
            try:
                target = kernel_table_from_resolution(curve, etype_middle(curve), window)
            except (NegativeDimension, ValueError):
                continue
            reached += 1
            before = _enumerate_cached.cache_info()
            got = match_acm_kernel(target, window)
            after = _enumerate_cached.cache_info()
            scanned = after.hits + after.misses - before.hits - before.misses
            assert scanned in (0, 1)
            assert scanned or got == []
            read += scanned
    assert (reached, reached - read) == (543, ended)


def test_audit_and_kernel_table_count_one_row_per_summand(counts):
    """On the 10,000-twist window 990001:1000000 the audit and the kernel
    table make no SheafExpr.h0 call: each takes one SheafExpr.h0_row of
    each term over the window, that is one h0_quadric3_row per line summand
    and one h0_spinor call per twist of each spinor summand."""
    lo, hi = window = (990_001, 1_000_000)
    for res in ETYPE_84, ETYPE_40, mapping_cone_n_from_e(ETYPE_40, (2, 3)):
        for call, terms in (
            (lambda: resolution_consistency_check(res, window), (res.middle, res.kernel)),
            (lambda: kernel_table_from_resolution(res.curve, res.middle, window), (res.middle,)),
        ):
            clear(counts)
            call()
            assert counts["sums"] == []
            assert counts["sum_rows"] == [(term, lo, hi) for term in terms]
            assert counts["rows"] == [(t + lo, t + hi) for term in terms for t, _ in term.lines]
            assert len(counts["atoms"]) == (hi - lo + 1) * sum(map(summands, terms))


def test_kernel_table_from_resolution():
    got = kernel_table_from_resolution(C84, line_bundle(-2) + line_bundle(-3, 4), KERNEL_WINDOW)
    assert got == KERNEL_84
    got = kernel_table_from_resolution(C40, line_bundle(-2, 5), KERNEL_WINDOW)
    assert got == KERNEL_40


def test_kernel_table_reports_deficient_middle():
    cases = [
        # a single O(-2) has too few sections to surject onto the ideal: 5 - 9 at twist 3
        (C84, 3, -4, "kernel section count -4 < 0 at twist 3"),
        # the kernel count is -1 at twist 1 too, but the ideal row, built
        # first, raises at its own first negative twist
        (CurveClass(QUADRIC3, 11, 8), 2, -1, "section count -1 < 0 at twist 2: no such curve"),
    ]
    for curve, twist, value, message in cases:
        with pytest.raises(NegativeDimension) as info:
            kernel_table_from_resolution(curve, line_bundle(-2), KERNEL_WINDOW)
        assert (info.value.twist, info.value.value, str(info.value)) == (twist, value, message)


# -- the twist-at-a-time resolve chain, kept as the oracle -------------------


def old_ideal(curve, n):
    value = curve.ambient.h0(n) - (0 if n < 0 else 1 if n == 0 else rr_chi(*curve[1:], n))
    if value < 0:
        raise NegativeDimension(n, value)
    return value


def old_kernel_table(curve, middle, window):
    curve.on_quadric()
    out = {}
    for n in range(window[0], window[1] + 1):
        value = middle.h0(n) - old_ideal(curve, n)
        if value < 0:
            raise NegativeDimension(n, value, f"kernel section count {value} < 0 at twist {n}")
        out[n] = value
    return out


def old_consistency_cells(res, window):
    return tuple(CellCheck(n, res.middle.h0(n) - res.kernel.h0(n), old_ideal(res.curve, n))
                 for n in range(window[0], window[1] + 1))


def old_generator_estimate(curve):
    report = regularity(full_ideal_table(curve, DEFAULT_WINDOW))
    if report.regularity is None:
        raise ValueError("the generator estimate's fixed window -1:8 does not certify"
                         " a regularity bound; --window does not change it")
    linear = curve.ambient.h0(1)
    counts = {}
    for k in range(1, report.regularity + 1):
        current = old_ideal(curve, k)
        fresh = current - min(old_ideal(curve, k - 1) * linear, current)
        if fresh:
            counts[k] = fresh
    return GeneratorEstimate(counts, report.regularity)


def outcome(call, *args):
    """("value", call(*args)), or the class, message and fields of the error it raised."""
    try:
        return "value", call(*args)
    except (NegativeDimension, ValueError) as exc:
        fields = getattr(exc, "twist", None), getattr(exc, "value", None)
        return "raised", type(exc), str(exc), *fields


def random_sum(rng, rank):
    """A sum of O(t) and E0(t) on Q of rank at least the given one, twists in -8..2."""
    out = line_bundle(rng.randint(-8, 2))
    while out.rank < rank:
        out += (spinor if rng.random() < 0.3 else line_bundle)(rng.randint(-8, 2))
    return out


def test_resolve_chain_agrees_with_the_twist_at_a_time_oracle():
    """On seeded Q classes with d <= 300 and g <= 3d, and one draw in four
    with d >= 2 and 3d < g < 4d, where the window -1:8 can certify
    regularity 9, random middles and kernels and windows in -4..70, the
    generator estimate, the audit and the kernel table give what the
    per-twist oracle gives, value or error.  The one exception: the kernel
    table builds the ideal row first, so where the oracle stops at a
    negative kernel count before the window's first negative ideal count,
    it raises that ideal count instead."""
    rng = random.Random(15)
    seen = Counter()
    for i in range(1250):
        d = rng.randint(1, 12) if rng.random() < 0.7 else rng.randint(1, 300)
        high = i % 4 == 3 and d > 1
        curve = CurveClass(QUADRIC3, d, rng.randint(3 * d + 1, 4 * d - 1) if high
                           else rng.randint(0, 3 * d))
        lo = rng.randint(-4, 70)
        window = (lo, rng.randint(lo - 1, 70))
        triple = ResolutionTriple(random_sum(rng, 4), random_sum(rng, 5), curve,
                                  ResolutionFlavor.E_TYPE)
        ctx = (curve, triple, window)
        estimate = outcome(generator_estimate, curve)
        assert estimate == outcome(old_generator_estimate, curve), ctx
        cells = outcome(lambda: resolution_consistency_check(triple, window).cells)
        assert cells == outcome(old_consistency_cells, triple, window), ctx
        got = outcome(kernel_table_from_resolution, curve, triple.middle, window)
        want = outcome(old_kernel_table, curve, triple.middle, window)
        if got != want:
            twists = range(window[0], window[1] + 1)
            first = next(n for n in twists if outcome(old_ideal, curve, n)[0] == "raised")
            assert want[2].startswith("kernel section count") and want[3] < first, ctx
            assert got == outcome(old_ideal, curve, first), ctx
        seen["estimate-" + estimate[0]] += 1
        seen["ideal-first" if got != want else got[0]] += 1
        seen["regularity-9"] += estimate[0] == "value" and estimate[1].regularity == 9
    assert min(seen.values()) >= 10 and len(seen) == 6, seen


@pytest.mark.parametrize("window", [(0, 6), (-1, 8), (0, 200)])
def test_resolve_chain_counts_the_curve_only_as_rows(monkeypatch, window):
    """The E-type synthesis asks the ambient for one count, h0(O(1)), and
    the audit and the mapping cone none: every curve count in them is read
    off an ideal row, whatever the window."""
    calls = []
    h0 = Ambient.h0
    monkeypatch.setattr(Ambient, "h0", lambda self, k: calls.append(k) or h0(self, k))
    middle, _ = etype_candidates(C84, window)
    assert (middle, calls) == (line_bundle(-2) + line_bundle(-3, 4), [1])
    calls.clear()
    assert resolution_consistency_check(ETYPE_84, window).ok
    mapping_cone_n_from_e(ETYPE_40, (2, 3), window)
    assert calls == []


def test_generator_estimates():
    got = generator_estimate(C84)
    assert got.counts == {2: 1, 3: 4}
    assert got.regularity == 3
    assert got.assumes_injective_multiplication
    assert generator_estimate(C40).counts == {2: 5}
    assert generator_estimate(CurveClass(P4, 8, 4)).counts == {2: 2, 3: 4}
    # the fixed window -1:8 certifies regularity 9 from its last diagonal,
    # and the estimate then counts h0(I_C(9)) as well
    for d, g, fresh in [(2, 7, 9), (7, 22, 19)]:
        got = generator_estimate(CurveClass(QUADRIC3, d, g))
        assert (got.counts, got.regularity) == ({1: fresh}, 9)


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
    lambda: etype_middle(C84_P4),
    lambda: etype_candidates(C84_P4),
    lambda: kernel_table_from_resolution(C84_P4, MIDDLE_84),
    lambda: ResolutionTriple(spinor(-2, 2), MIDDLE_84, C84_P4, ResolutionFlavor.E_TYPE),
    lambda: residual_curve(C84_P4, 2, 3),
]


@pytest.mark.parametrize(
    "build", OFF_QUADRIC,
    ids=["etype_middle", "etype_candidates", "kernel_table_from_resolution", "ResolutionTriple",
         "residual_curve"],
)
def test_curves_off_the_quadric_are_refused(build):
    """Sheaf sums live on Q, so a P4 curve gets no middle term, no kernel
    table, no resolution and no residual, rather than Q sums built from its
    P4 counts; every refusal gives the one text of CurveClass.on_quadric."""
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == Q_ONLY


def test_etype_synthesis_end_to_end():
    for curve, kernel in ((C84, spinor(-2, 2)), (C40, spinor(-1, 2))):
        middle, matches = etype_candidates(curve)
        assert matches == [kernel]
        triple = ResolutionTriple(kernel, middle, curve, ResolutionFlavor.E_TYPE)
        assert resolution_consistency_check(triple).ok
