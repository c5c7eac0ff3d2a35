"""Closed-form section counts for the ambient spaces and the atomic sheaves.

Everything here is exact integer arithmetic: binomial expressions for
projective space and the smooth quadric threefold, and the cubic
``2/3*(k-1)*k*(k+1)`` for the indecomposable rank-2 ACM bundle on the
quadric.  Python integers are unbounded, so there is no overflow regime.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import sub

#: rank of the indecomposable rank-2 ACM bundle E0 on the quadric threefold
SPINOR_RANK = 2

#: first Chern number of E0 in hyperplane units.  This is the unique value
#: balancing c1 across the known two-term resolutions, and it makes the dual
#: rule below the rank-2 identity E^v = E (x) det(E)^-1.
SPINOR_C1 = -3

#: dual rule for the twisted bundle: E0(a)^v = E0(SPINOR_DUAL_SHIFT - a)
SPINOR_DUAL_SHIFT = 3


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for 0 <= k <= n, and 0 outside that range."""
    if n < 0:
        raise ValueError(f"binom requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def h0_proj(dim: int, k: int) -> int:
    """Sections of O(k) on projective dim-space: C(dim + k, dim), and 0 for k < 0."""
    if dim < 1:
        raise ValueError(f"projective dimension must be >= 1, got {dim}")
    if k < 0:
        return 0
    return math.comb(dim + k, dim)


def h0_proj_row(dim: int, lo: int, hi: int) -> list[int]:
    """``h0_proj(dim, k)`` for k = lo..hi, as one map of ``math.comb``."""
    row = [0] * max(0, min(hi, -1) - lo + 1)
    if hi >= 0:
        row += map(math.comb, range(max(lo, 0) + dim, hi + dim + 1), repeat(dim))
    return row


def h0_quadric3(k: int) -> int:
    """Sections of O(k) on the smooth quadric threefold in P^4.

    Degree-k forms in five variables modulo the quadric:
    C(k+4, 4) - C(k+2, 4), and 0 for k < 0.
    """
    if k < 0:
        return 0
    return math.comb(k + 4, 4) - math.comb(k + 2, 4)


def h0_quadric3_row(lo: int, hi: int) -> list[int]:
    """``h0_quadric3(k)`` for k = lo..hi: the row of C(k+4, 4) minus that of C(k+2, 4)."""
    row = [0] * max(0, min(hi, -1) - lo + 1)
    if hi >= 0:
        start = max(lo, 0)
        row += map(sub, map(math.comb, range(start + 4, hi + 5), repeat(4)),
                   map(math.comb, range(start + 2, hi + 3), repeat(4)))
    return row


def h0_spinor(k: int) -> int:
    """Sections of the twisted rank-2 bundle E0(k) on the quadric threefold.

    Equals ``2/3*(k-1)*k*(k+1)`` for k >= 2 and vanishes for k <= 1.  The
    product of three consecutive integers is divisible by 3, so the value
    is an exact integer.  The vanishing below k = 2 extends the tabulated
    range: the cubic has roots exactly at k = -1, 0, 1, and ACM-ness rules
    out sections in lower twists.
    """
    if k <= 1:
        return 0
    return 2 * (k - 1) * k * (k + 1) // 3
