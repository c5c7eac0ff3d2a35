"""Rank-4 ACM kernel classification on the quadric threefold and
generator-count heuristics for ideal sheaves.

Every indecomposable ACM bundle on the quadric threefold is a twisted
line bundle or a twist of the rank-2 spinor-type bundle, so a rank-4
ACM kernel is one of three shapes: E0(a)+O(b)+O(c), E0(a)+E0(b), or a
sum of four line bundles.  Matching filters them by section counts over
a finite window, read off rows of atom counts; it does not pin the kernel
down.  It tries rank 4 whatever the rank of the middle term, its answer
can change with the window, and it may return no candidate or several.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, groupby
from typing import Mapping, NamedTuple

from . import hilbert
from .curves import DEFAULT_WINDOW, CurveClass, Window, full_ideal_table, ideal_h0, regularity
from .errors import NegativeDimension, RangeTooLarge
from .sheaves import SheafExpr, zero_sheaf

CANDIDATE_CAP = 10_000
DEFAULT_TWIST_BOUNDS: tuple[int, int] = (-6, 3)
MATCH_WINDOW: Window = (0, 6)


def rank4_candidate_count(twist_lo: int, twist_hi: int) -> int:
    """Candidates over a twist range of width w: w*C(w+1,2) of shape
    E0+O+O, C(w+1,2) of shape E0+E0, and C(w+3,4) sums of four lines."""
    w = twist_hi - twist_lo + 1
    return w * hilbert.binom(w + 1, 2) + hilbert.binom(w + 1, 2) + hilbert.binom(w + 3, 4)


def _runs(combo: tuple) -> tuple:
    """A non-increasing tuple of twists as canonical (twist, multiplicity) pairs."""
    return tuple((twist, len(list(run))) for twist, run in groupby(combo))


@lru_cache(maxsize=8)
def _enumerate_cached(twist_lo: int, twist_hi: int) -> tuple[SheafExpr, ...]:
    # descending twists make every combination a non-increasing run, whose
    # groupby runs are already canonical; the three shapes differ in their
    # spinor count, so no candidate repeats
    twists = range(twist_hi, twist_lo - 1, -1)
    build = zero_sheaf()._replace_atoms
    pairs = [_runs(pair) for pair in combinations_with_replacement(twists, 2)]
    out = [build(pair, ((a, 1),)) for a in twists for pair in pairs]
    out += [build((), pair) for pair in pairs]
    out += [build(_runs(quad), ()) for quad in combinations_with_replacement(twists, 4)]
    return tuple(sorted(out, key=SheafExpr.render))


def enumerate_rank4_candidates(
    twist_lo: int = DEFAULT_TWIST_BOUNDS[0],
    twist_hi: int = DEFAULT_TWIST_BOUNDS[1],
) -> list[SheafExpr]:
    """All rank-4 candidate kernels with twists in [twist_lo, twist_hi]."""
    if twist_lo > twist_hi:
        raise ValueError("empty twist range")
    count = rank4_candidate_count(twist_lo, twist_hi)
    if count > CANDIDATE_CAP:
        raise RangeTooLarge(count, CANDIDATE_CAP)
    return list(_enumerate_cached(twist_lo, twist_hi))


def _pair_counts(twist_lo: int, twist_hi: int, n: int) -> list:
    """mult * h0(O(t + n)) and mult * h0(E0(t + n)) by (t, mult), t in the bounds, mult <= 4."""
    shifted = range(twist_lo + n, twist_hi + n + 1)
    rows = hilbert.h0_quadric3_row(twist_lo + n, twist_hi + n), map(hilbert.h0_spinor, shifted)
    return [{(t - n, m): c * m for t, c in zip(shifted, row) for m in range(1, 5)}.__getitem__
            for row in rows]


def match_acm_kernel(
    target: Mapping[int, int],
    window: Window = MATCH_WINDOW,
    twist_lo: int = DEFAULT_TWIST_BOUNDS[0],
    twist_hi: int = DEFAULT_TWIST_BOUNDS[1],
) -> list[SheafExpr]:
    """Candidates whose section counts agree with target on every window cell.

    The window must span at least 5 twists: fewer points cannot separate
    the cubic growth patterns of the three families.

    Below twist -twist_hi no candidate has sections, since O(t) needs
    t + n >= 0, E0(t) needs t + n >= 2 and every t is at most twist_hi.
    So a target that is nonzero there matches nothing, and otherwise only
    the twists from max(lo, -twist_hi) up are compared, from the top twist
    down, where counts separate candidates best.  Each twist n counts
    h0(O(t + n)) and h0(E0(t + n)) once per bounds twist t (``_pair_counts``).
    """
    lo, hi = window
    if hi - lo + 1 < 5:
        raise ValueError("matching window must span at least 5 twists")
    missing = [n for n in range(lo, hi + 1) if n not in target]
    if missing:
        raise ValueError(f"target lacks values at twists {missing}")
    candidates = enumerate_rank4_candidates(twist_lo, twist_hi)
    if any(target[n] for n in range(lo, min(hi + 1, -twist_hi))):
        return []
    for n in range(hi, max(lo, -twist_hi) - 1, -1):
        line_of, spinor_of = _pair_counts(twist_lo, twist_hi, n)
        candidates = [cand for cand in candidates if target[n] == sum(map(line_of, cand.lines))
                      + sum(map(spinor_of, cand.spinors))]
    return candidates


def kernel_table_from_resolution(
    curve: CurveClass, middle: SheafExpr, window: Window = MATCH_WINDOW
) -> dict[int, int]:
    """Section counts of the kernel of middle ->> I_C, twist by twist.

    For an ACM curve the kernel has no middle cohomology, so its h0 is
    the plain difference h0(middle(n)) - h0(I_C(n)); a negative value
    means no surjection exists.
    """
    if not curve.ambient.is_quadric:
        raise ValueError("resolutions are classified on the quadric threefold only")
    lo, hi = window
    out: dict[int, int] = {}
    for n in range(lo, hi + 1):
        value = middle.h0(n) - ideal_h0(curve, n)
        if value < 0:
            raise NegativeDimension(
                n, value, f"kernel section count {value} < 0 at twist {n}"
            )
        out[n] = value
    return out


class GeneratorEstimate(NamedTuple):
    """Heuristic generator counts per degree for an ideal sheaf.

    New generators in degree k are counted as h0(I(k)) minus the span of
    degree k-1 sections times linear forms, ASSUMING that multiplication
    map is injective; the flag records the assumption.  Degrees run up
    to the certified regularity, past which no new generators appear.
    """

    counts: dict[int, int]
    regularity: int
    assumes_injective_multiplication: bool = True


def generator_estimate(curve: CurveClass) -> GeneratorEstimate:
    report = regularity(full_ideal_table(curve, DEFAULT_WINDOW))
    if report.regularity is None:
        raise ValueError("window does not certify a regularity bound")
    linear = curve.ambient.h0(1)
    counts: dict[int, int] = {}
    for k in range(1, report.regularity + 1):
        current = ideal_h0(curve, k)
        span = ideal_h0(curve, k - 1) * linear
        fresh = current - min(span, current)
        if fresh:
            counts[k] = fresh
    return GeneratorEstimate(counts, report.regularity)


def etype_middle(curve: CurveClass) -> SheafExpr:
    """Middle term O(-k) per estimated generator of degree k."""
    if not curve.ambient.is_quadric:
        raise ValueError("resolutions are classified on the quadric threefold only")
    counts = generator_estimate(curve).counts
    return SheafExpr([(-k, count) for k, count in counts.items()])


def etype_candidates(
    curve: CurveClass,
    match_window: Window = MATCH_WINDOW,
    twist_lo: int = DEFAULT_TWIST_BOUNDS[0],
    twist_hi: int = DEFAULT_TWIST_BOUNDS[1],
) -> tuple[SheafExpr, list[SheafExpr]]:
    """Middle term from generator estimates plus every classified kernel
    matching its section deficit.  A unique match yields the E-type
    resolution; callers decide how to treat ambiguity."""
    middle = etype_middle(curve)
    table = kernel_table_from_resolution(curve, middle, match_window)
    return middle, match_acm_kernel(table, match_window, twist_lo, twist_hi)
