"""The dimension of a family of curves on Q, counted from its resolution.

Curves with a given minimal resolution 0 -> K -> M -> I_C -> 0 form an
open set of Hom(K, M) modulo Aut K x Aut M, which acts with scalar
stabilizers, so the family has dimension hom(K, M) - end(K) - end(M) + 1.
For an ACM curve of degree d and genus g that is chi(N_C/Q) = 3d; in P4
it gains the 14 dimensions of smooth quadric threefolds and loses the
h0(I_C(2)) - 1 of those through C, which gives 5d + 1 - g.

The oracle below counts Hom summand by summand from closed forms only:
Hom(O(a), O(b)) = h0(O(b - a)), Hom(O(a), E0(b)) = h0(E0(b - a)),
Hom(E0(a), O(b)) = h0(E0(3 + b - a)) since E0^v = E0(3), and
Hom(E0(a), E0(b)) = h0(O(b - a)) + h0(Omega_Q(b - a + 1)) since
End E0 = O + Omega_Q(1).
"""

from quadliaison import SheafExpr, hilbert


def h0_omega(t: int) -> int:
    """h0(Omega_Q(t)) from the conormal and Euler sequences; 0 below t = 2."""
    h0 = hilbert.h0_quadric3
    return 5 * h0(t - 1) - h0(t) - h0(t - 2) if t >= 2 else 0


def hom(source: SheafExpr, target: SheafExpr) -> int:
    """dim Hom(source, target), one closed form per pair of summands."""
    h0, spinor_h0, shift = hilbert.h0_quadric3, hilbert.h0_spinor, hilbert.SPINOR_DUAL_SHIFT
    total = 0
    for a, m in source.lines:
        total += m * sum(k * h0(b - a) for b, k in target.lines)
        total += m * sum(k * spinor_h0(b - a) for b, k in target.spinors)
    for a, m in source.spinors:
        total += m * sum(k * spinor_h0(shift + b - a) for b, k in target.lines)
        total += m * sum(k * (h0(b - a) + h0_omega(b - a + 1)) for b, k in target.spinors)
    return total


def family_dimension(kernel: SheafExpr, middle: SheafExpr) -> int:
    """hom(K, M) - end(K) - end(M) + 1."""
    return hom(kernel, middle) - hom(kernel, kernel) - hom(middle, middle) + 1


def in_p4(count: int, degree: int, genus: int) -> int:
    """The count on Q plus the quadric threefolds of P4, less those through C."""
    quadrics = hilbert.h0_proj(4, 2)
    through_curve = quadrics - (2 * degree + 1 - genus)  # h0(I_C(2)) in P4
    return count + (quadrics - 1) - (through_curve - 1)


# The paper's resolutions, as ETYPE_84, ETYPE_40 and ntype-derived-84 in
# quadliaison.verify, and the minimal N-type of the (8,4) curve.
ETYPE_84 = SheafExpr((), ((-2, 2),)), SheafExpr(((-2, 1), (-3, 4)))
ETYPE_40 = SheafExpr((), ((-1, 2),)), SheafExpr(((-2, 5),))
DERIVED_NTYPE_84 = SheafExpr(((-3, 5),)), SheafExpr(((-2, 1), (-3, 1)), ((-1, 2),))
MINIMAL_NTYPE_84 = SheafExpr(((-3, 4),)), SheafExpr(((-2, 1),), ((-1, 2),))


def test_etype_resolutions_count_3d_on_q_and_5d_plus_1_minus_g_in_p4():
    for (kernel, middle), degree, genus, on_q, on_p4 in (
        (ETYPE_84, 8, 4, 24, 37),
        (ETYPE_40, 4, 0, 12, 21),
    ):
        count = family_dimension(kernel, middle)
        assert count == on_q == 3 * degree
        assert in_p4(count, degree, genus) == on_p4 == 5 * degree + 1 - genus


def test_minimal_ntype_counts_the_etype_family():
    kernel, middle = MINIMAL_NTYPE_84
    assert f"0 -> {kernel} -> {middle} -> I_C -> 0" == (
        "0 -> 4*O(-3) -> O(-2) + 2*E0(-1) -> I_C -> 0")
    assert family_dimension(*MINIMAL_NTYPE_84) == family_dimension(*ETYPE_84) == 24


def test_derived_ntype_is_not_minimal():
    """The mapping cone keeps one O(-3) in both terms: the (2,3) complete
    intersection's quadric is a minimal generator of the (4,0) curve, so
    the cone's map 5*O(-3) -> O(-3) has a constant entry.  The pair leaves
    rank, c1 and every h0 row unchanged, but the count drops to 19."""
    kernel, middle = DERIVED_NTYPE_84
    assert f"0 -> {kernel} -> {middle} -> I_C -> 0" == (
        "0 -> 5*O(-3) -> O(-2) + O(-3) + 2*E0(-1) -> I_C -> 0")
    minimal_kernel, minimal_middle = MINIMAL_NTYPE_84
    pair = SheafExpr(((-3, 1),))
    assert (kernel.without(pair), middle.without(pair)) == MINIMAL_NTYPE_84
    assert middle.h0_row(-1, 8) == list(
        map(sum, zip(minimal_middle.h0_row(-1, 8), pair.h0_row(-1, 8))))
    assert family_dimension(kernel, middle) == 19


def test_spinor_bundle_is_simple():
    """h0(Omega_Q(1)) = 0, so End E0 is the scalars; the closed form's
    first values above it are 10, 35 and 81."""
    assert h0_omega(1) == 0
    assert [h0_omega(t) for t in (2, 3, 4)] == [10, 35, 81]
    e0 = SheafExpr((), ((0, 1),))
    assert hom(e0, e0) == 1
