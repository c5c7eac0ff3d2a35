"""Rank-4 ACM kernel classification on the quadric threefold and
generator-count heuristics for ideal sheaves.

Every indecomposable ACM bundle on the quadric threefold is a twisted
line bundle or a twist of the rank-2 spinor-type bundle, so a rank-4
ACM kernel is one of three shapes: E0(a)+O(b)+O(c), E0(a)+E0(b), or a
sum of four line bundles.  Matching filters them by section counts over
a finite window, by default DEFAULT_WINDOW (-1:8) as in the CLI; it does
not pin the kernel down.  At the window's top twist it decodes the
candidates with the target's count from the line pairs grouped by their
count, after two exact exits, and checks only those below it.  It tries
rank 4 whatever the rank of the middle term, its answer can change with
the window, and it may return no candidate or several.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from itertools import combinations_with_replacement

from . import hilbert
from .curves import (DEFAULT_WINDOW, CurveClass, Window, full_ideal_table, ideal_h0_table,
                     regularity)
from .errors import NegativeDimension, RangeTooLarge
from .sheaves import SheafExpr

CANDIDATE_CAP = 10_000
DEFAULT_TWIST_BOUNDS: tuple[int, int] = (-6, 3)


def rank4_candidate_count(twist_lo: int, twist_hi: int) -> int:
    """Candidates over a twist range of width w, k spinors E0 and 4 - 2k lines
    O: w*C(w+1,2) E0+O+O (k = 1), C(w+1,2) E0+E0 and C(w+3,4) four lines."""
    w = twist_hi - twist_lo + 1
    return w * hilbert.binom(w + 1, 2) + hilbert.binom(w + 1, 2) + hilbert.binom(w + 3, 4)


def _check_bounds(twist_lo: int, twist_hi: int) -> None:
    """Refuse an empty twist range, and one with more candidates than the cap."""
    if twist_lo > twist_hi:
        raise ValueError("empty twist range")
    count = rank4_candidate_count(twist_lo, twist_hi)
    if count > CANDIDATE_CAP:
        raise RangeTooLarge(count, CANDIDATE_CAP)


def enumerate_rank4_candidates(
    twist_lo: int = DEFAULT_TWIST_BOUNDS[0],
    twist_hi: int = DEFAULT_TWIST_BOUNDS[1],
) -> list[SheafExpr]:
    """All rank-4 candidate kernels with twists in [twist_lo, twist_hi], sorted
    by SheafExpr.render."""
    _check_bounds(twist_lo, twist_hi)
    twists = range(twist_lo, twist_hi + 1)
    pairs = list(combinations_with_replacement(twists, 2))
    # k = 0, 1, 2 spinors and 4 - 2k lines, as rank4_candidate_count counts them
    shapes = [(quad, ()) for quad in combinations_with_replacement(twists, 4)]
    shapes += [(pair, (s,)) for s in twists for pair in pairs]
    shapes += [((), pair) for pair in pairs]
    # the constructor merges repeated twists
    return sorted((SheafExpr([(t, 1) for t in lines], [(t, 1) for t in spinors])
                   for lines, spinors in shapes), key=SheafExpr.render)


def match_acm_kernel(
    target: Mapping[int, int],
    window: Window = DEFAULT_WINDOW,
    twist_lo: int = DEFAULT_TWIST_BOUNDS[0],
    twist_hi: int = DEFAULT_TWIST_BOUNDS[1],
) -> list[SheafExpr]:
    """Candidates whose section counts agree with target on every window cell.

    The window must span at least 5 twists: fewer points cannot separate
    the cubic growth patterns of the three families.

    Below twist -twist_hi no candidate has sections, since O(t) needs
    t + n >= 0, E0(t) needs t + n >= 2 and every t is at most twist_hi, so
    a target nonzero there matches nothing.  At the top twist hi the atom
    counts h0(O(t + hi)) and h0(E0(t + hi)) of the bounds twists t do not
    decrease as t rises, so a top count outside every shape's range, from
    all twists at twist_lo to all at twist_hi, matches nothing either.
    Otherwise the line pairs a <= b are grouped by their top count, and
    the candidates with the target's top count are read off those groups:
    four lines as a pair plus a pair of the remaining count starting at
    or above its last twist, E0(s) plus a pair of the remaining count, and
    the E0 pairs whose counts add up.  Only these are built as SheafExprs,
    and each one's SheafExpr.h0_row over the lower compared twists
    max(lo, -twist_hi)..hi-1 is compared with the target's.  The matches,
    at most a handful, come out sorted by SheafExpr.render.
    """
    lo, hi = window
    if hi - lo + 1 < 5:
        raise ValueError("matching window must span at least 5 twists")
    missing = [n for n in range(lo, hi + 1) if n not in target]
    if missing:
        raise ValueError(f"target lacks values at twists {missing}")
    _check_bounds(twist_lo, twist_hi)
    if any(target[n] for n in range(lo, min(hi + 1, -twist_hi))):
        return []
    twists, top = range(twist_lo, twist_hi + 1), target[hi]
    line = dict(zip(twists, hilbert.h0_quadric3_row(twist_lo + hi, twist_hi + hi)))
    e = dict(zip(twists, map(hilbert.h0_spinor, range(twist_lo + hi, twist_hi + hi + 1))))
    if not any(k * e[twist_lo] + (4 - 2 * k) * line[twist_lo] <= top
               <= k * e[twist_hi] + (4 - 2 * k) * line[twist_hi] for k in (0, 1, 2)):
        return []
    pairs: dict[int, list[tuple[int, int]]] = {}
    for a, b in combinations_with_replacement(twists, 2):
        pairs.setdefault(line[a] + line[b], []).append((a, b))
    found = [((a, b, c, d), ()) for count, group in pairs.items() for a, b in group
             for c, d in pairs.get(top - count, ()) if c >= b]
    found += [(pair, (s,)) for s in twists for pair in pairs.get(top - e[s], ())]
    # the groups hold every pair s <= t once, so they list the E0 pairs too
    found += [((), (s, t)) for group in pairs.values() for s, t in group if e[s] + e[t] == top]
    below = max(lo, -twist_hi)
    want = [target[n] for n in range(below, hi)]
    survivors = (SheafExpr([(t, 1) for t in lines], [(t, 1) for t in spinors])
                 for lines, spinors in found)
    return sorted((cand for cand in survivors if cand.h0_row(below, hi - 1) == want),
                  key=SheafExpr.render)


def kernel_table_from_resolution(
    curve: CurveClass, middle: SheafExpr, window: Window = DEFAULT_WINDOW
) -> dict[int, int]:
    """Section counts of the kernel of middle ->> I_C over the window.

    For an ACM curve the kernel has no middle cohomology, so its row is
    middle.h0_row minus the ideal row; its first negative entry raises, as
    no surjection exists.  The ideal row is built first, so a negative
    ideal count anywhere in the window raises before a kernel one.
    """
    ideal = ideal_h0_table(curve.on_quadric(), window)
    row = [h0 - count for h0, count in zip(middle.h0_row(*window), ideal.values())]
    if min(row, default=0) < 0:
        n, value = next((n, value) for n, value in zip(ideal, row) if value < 0)
        raise NegativeDimension(n, value, f"kernel section count {value} < 0 at twist {n}")
    return dict(zip(ideal, row))


class GeneratorEstimate(namedtuple("GeneratorEstimate", "counts regularity")):
    """Heuristic generator counts per degree for an ideal sheaf.

    New generators in degree k are counted as h0(I(k)) minus the span of
    degree k-1 sections times linear forms, ASSUMING that multiplication
    map is injective; every estimate makes that assumption, and the class
    constant records it.  Degrees run up to the certified regularity, past
    which no new generators appear.
    """

    __slots__ = ()
    assumes_injective_multiplication = True


def generator_estimate(curve: CurveClass) -> GeneratorEstimate:
    table = full_ideal_table(curve, DEFAULT_WINDOW)
    report = regularity(table)
    if report.regularity is None:
        lo, hi = DEFAULT_WINDOW
        raise ValueError(f"the generator estimate's fixed window {lo}:{hi} does not certify"
                         " a regularity bound; --window does not change it")
    ideal = ideal_h0_table(curve, (0, report.regularity))
    linear = curve.ambient.h0(1)
    counts: dict[int, int] = {}
    for k in range(1, report.regularity + 1):
        fresh = ideal[k] - min(ideal[k - 1] * linear, ideal[k])
        if fresh:
            counts[k] = fresh
    return GeneratorEstimate(counts, report.regularity)


def etype_middle(curve: CurveClass) -> SheafExpr:
    """Middle term O(-k) per estimated generator of degree k."""
    counts = generator_estimate(curve.on_quadric()).counts
    return SheafExpr([(-k, count) for k, count in counts.items()])


def etype_candidates(
    curve: CurveClass,
    match_window: Window = DEFAULT_WINDOW,
    twist_lo: int = DEFAULT_TWIST_BOUNDS[0],
    twist_hi: int = DEFAULT_TWIST_BOUNDS[1],
) -> tuple[SheafExpr, list[SheafExpr]]:
    """Middle term from generator estimates plus every classified kernel
    matching its section deficit on match_window, -1:8 unless given.  A
    unique match yields the E-type resolution; callers decide how to treat
    ambiguity."""
    middle = etype_middle(curve)
    table = kernel_table_from_resolution(curve, middle, match_window)
    return middle, match_acm_kernel(table, match_window, twist_lo, twist_hi)
