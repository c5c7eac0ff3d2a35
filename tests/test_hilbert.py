"""Dimension functions against brute-force, first-principles and
published-table oracles.

The section counts on the quadric threefold Q, and the constants of the
rank-2 bundle E0, are computed from first principles by
Hirzebruch-Riemann-Roch on Q in exact rational arithmetic (below).  The
spinor counts are also pinned by the kernel-difference oracle: subtract
the published ideal column from the published middle column of each
resolution table, halve (the kernel is a square), and read off h0 at the
shifted twist.
"""

import math
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

import pytest

from quadliaison import binom, hilbert, h0_proj, h0_quadric3, h0_spinor
from quadliaison.hilbert import SPINOR_C1, SPINOR_DUAL_SHIFT, SPINOR_RANK

# -- Hirzebruch-Riemann-Roch on Q -------------------------------------------
# The rational Chow ring of Q is Q[H]/(H^4), with the line class l = H^2/2
# and the point class pt = H^3/2 (H^3 = 2 pt, H^2 = 2 l, H.l = pt).  A
# class is its list of coefficients of 1, H, H^2, H^3.


def chow_mul(a: list, b: list) -> list:
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(4)]


def integral(a: list) -> Fraction:
    return 2 * a[3]  # deg(H^3) = 2


def chern_classes_of_tq() -> list:
    """c(TQ) = (1+H)^5 / (1+2H), from the Euler and normal-bundle sequences."""
    c = [Fraction(1), 0, 0, 0]
    for _ in range(5):
        c = chow_mul(c, [1, 1, 0, 0])
    return chow_mul(c, [(-2) ** k for k in range(4)])  # 1/(1+2H) = sum (-2H)^k


def todd_class_of_q() -> list:
    _, c1, c2, c3 = chern_classes_of_tq()
    assert integral([0, 0, 0, c3]) == 4  # Euler characteristic of Q
    # td = 1 + c1/2 + (c1^2 + c2)/12 + c1 c2/24, in H-power coefficients
    return [Fraction(1), c1 / 2, (c1 * c1 + c2) / 12, c1 * c2 / 24]


def chern_character(rank: int, c1, c2) -> list:
    """ch of a bundle with c1 = c1*H, c2 = c2*H^2 and c3 = 0."""
    return [Fraction(rank), Fraction(c1), Fraction(c1 * c1 - 2 * c2) / 2,
            Fraction(c1 ** 3 - 3 * c1 * c2) / 6]


def line_character(k: int) -> list:
    """ch(O(k)) = exp(kH)."""
    return [Fraction(k) ** i / factorial(i) for i in range(4)]


# the spinor bundle S: rank 2, c1 = -H, c2 = l = H^2/2 (Ottaviani 1988);
# E0 = S(-1), so ch(E0(k)) = ch(S) ch(O(k-1))
SPINOR_CH = chern_character(2, -1, Fraction(1, 2))


def hrr_chi_line(k: int) -> Fraction:
    return integral(chow_mul(line_character(k), todd_class_of_q()))


def hrr_chi_spinor(k: int) -> Fraction:
    ch = chow_mul(SPINOR_CH, line_character(k - 1))
    return integral(chow_mul(ch, todd_class_of_q()))


# Published resolution tables, n = 0..6.  Middle columns are
# h0(O(-2+n)) + 4*h0(O(-3+n)) and 5*h0(O(-2+n)) on the quadric; ideal
# columns are the curves' h0(I_C(n)).
MIDDLE_84 = [0, 0, 1, 9, 34, 86, 175]
IDEAL_84 = [0, 0, 1, 9, 26, 54, 95]
KERNEL_TWIST_84 = -2  # kernel E0^2(-2)

MIDDLE_40 = [0, 0, 5, 25, 70, 150, 275]
IDEAL_40 = [0, 0, 5, 17, 38, 70, 115]
KERNEL_TWIST_40 = -1  # kernel E0^2(-1)


def monomial_count(nvars: int, degree: int) -> int:
    """Brute-force count of degree-d monomials in nvars variables."""
    if degree < 0:
        return 0
    return sum(1 for _ in combinations_with_replacement(range(nvars), degree))


def quadric_reduced_count(degree: int) -> int:
    """Monomials of the given degree in 5 variables with x0-exponent <= 1,
    i.e. a basis of forms on P^4 reduced modulo x0^2."""
    if degree < 0:
        return 0
    return sum(
        1
        for mono in combinations_with_replacement(range(5), degree)
        if mono.count(0) <= 1
    )


def spinor_points() -> dict[int, int]:
    """h0(E0(k)) data points extracted from the published tables."""
    points: dict[int, int] = {}
    for middle, ideal, twist in (
        (MIDDLE_84, IDEAL_84, KERNEL_TWIST_84),
        (MIDDLE_40, IDEAL_40, KERNEL_TWIST_40),
    ):
        for n, (m, i) in enumerate(zip(middle, ideal)):
            kernel_h0 = m - i
            assert kernel_h0 >= 0 and kernel_h0 % 2 == 0
            k = n + twist
            if k in points:
                assert points[k] == kernel_h0 // 2, "tables disagree"
            points[k] = kernel_h0 // 2
    return points


def test_binom_examples():
    assert binom(8, 4) == 70
    assert binom(5, 0) == 1
    assert binom(6, -1) == 0
    assert binom(6, 7) == 0
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_binom_pascal_recurrence():
    for n in range(1, 16):
        for k in range(0, n + 1):
            assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)


def test_h0_proj_matches_monomial_counts():
    for dim in range(1, 6):
        for k in range(-2, 11):
            assert h0_proj(dim, k) == monomial_count(dim + 1, k), (dim, k)


def test_h0_proj_examples():
    assert h0_proj(4, 2) == 15
    assert h0_proj(3, 1) == 4
    assert h0_proj(4, 0) == 1
    with pytest.raises(ValueError):
        h0_proj(0, 3)


def test_h0_quadric_matches_both_oracles():
    for k in range(0, 11):
        subtracted = monomial_count(5, k) - monomial_count(5, k - 2)
        assert h0_quadric3(k) == subtracted == quadric_reduced_count(k), k
    for k in range(-5, 0):
        assert h0_quadric3(k) == 0


def test_h0_quadric_examples():
    assert h0_quadric3(2) == 14
    assert h0_quadric3(6) == 140
    assert h0_quadric3(-1) == 0
    assert [h0_quadric3(n) for n in range(7)] == [1, 5, 14, 30, 55, 91, 140]


def test_h0_quadric_row_is_the_running_sum_of_its_steps(monkeypatch):
    """The row sums the steps (k + 1)^2 from the closed form at its first
    twist, so it calls neither h0_quadric3 nor math.comb, and it equals
    h0_quadric3 on one long row and on every window in -60..60."""
    count = {k: h0_quadric3(k) for k in range(-60, 5001)}

    def refuse(*args):
        raise AssertionError("the row made a binomial or per-twist count")

    monkeypatch.setattr(hilbert, "h0_quadric3", refuse)
    monkeypatch.setattr(math, "comb", refuse)
    assert hilbert.h0_quadric3_row(-50, 5000) == [count[k] for k in range(-50, 5001)]
    for lo in range(-60, 61):
        for hi in range(lo - 1, 61):
            assert hilbert.h0_quadric3_row(lo, hi) == [count[k] for k in range(lo, hi + 1)]


def test_h0_spinor_matches_kernel_difference_oracle():
    points = spinor_points()
    # both tables, all extractable twists, including the forced zeros
    assert points == {-2: 0, -1: 0, 0: 0, 1: 0, 2: 4, 3: 16, 4: 40, 5: 80}
    for k, value in points.items():
        assert h0_spinor(k) == value, k


def test_h0_spinor_examples():
    assert h0_spinor(2) == 4
    assert h0_spinor(5) == 80
    assert h0_spinor(1) == 0


def test_h0_spinor_cubic_shape():
    # leading coefficient 2/3 = rank * deg(Q) / 3!: third differences are 4
    for k in range(2, 12):
        third = (
            h0_spinor(k + 3)
            - 3 * h0_spinor(k + 2)
            + 3 * h0_spinor(k + 1)
            - h0_spinor(k)
        )
        assert third == 4
    # the interpolating cubic (2/3)(k-1)k(k+1) has roots exactly at -1, 0, 1
    for k in (-1, 0, 1):
        assert 2 * (k - 1) * k * (k + 1) // 3 == 0
    # vanishing extrapolates to every nonpositive twist
    for k in range(-10, 2):
        assert h0_spinor(k) == 0


def test_dimension_functions_monotone():
    for k in range(0, 12):
        assert h0_proj(4, k + 1) >= h0_proj(4, k)
        assert h0_quadric3(k + 1) >= h0_quadric3(k)
        assert h0_spinor(k + 1) >= h0_spinor(k)
        assert h0_proj(4, k) >= 0 and h0_quadric3(k) >= 0 and h0_spinor(k) >= 0


def test_hrr_todd_class_of_q():
    assert chern_classes_of_tq() == [1, 3, 4, 2]  # c1 = 3H, c2 = 4H^2, c3 = 2H^3
    # td(Q) = 1 + 3H/2 + 13H^2/12 + pt, with pt = H^3/2
    assert todd_class_of_q() == [1, Fraction(3, 2), Fraction(13, 12), Fraction(1, 2)]
    assert hrr_chi_line(0) == 1


def test_hrr_pins_h0_quadric3():
    for k in range(-2, 40):
        assert hrr_chi_line(k) == h0_quadric3(k), k
    # Serre duality with omega = O(-3): chi(O(k)) = -h0(O(-3-k)) below
    for k in range(-40, -2):
        assert h0_quadric3(k) == 0
        assert hrr_chi_line(k) == -h0_quadric3(-3 - k), k


def test_hrr_pins_h0_spinor():
    for k in range(-1, 40):
        assert hrr_chi_spinor(k) == h0_spinor(k), k
    # below, h3(E0(k)) = h0(E0(-k)) by Serre duality
    for k in range(-40, -1):
        assert h0_spinor(k) == 0
        assert hrr_chi_spinor(k) == -h0_spinor(-k), k


def test_hrr_pins_spinor_constants():
    ch = chow_mul(SPINOR_CH, line_character(-1))
    assert ch[0] == SPINOR_RANK
    assert ch[1] == SPINOR_C1  # c1(E0) = ch_1, in H units
    # rank 2: E0^v = E0 (x) det(E0)^-1 = E0(-c1), so E0(a)^v = E0(-c1 - a)
    assert SPINOR_DUAL_SHIFT == -SPINOR_C1
    # Serre duality on a threefold: chi(F) = -chi(F^v (x) omega), omega = O(-c1(TQ))
    omega = -chern_classes_of_tq()[1]
    for k in range(-20, 20):
        assert hrr_chi_spinor(k) == -hrr_chi_spinor(SPINOR_DUAL_SHIFT - k + omega), k
