"""Linkage arithmetic and mapping-cone transport.

The genus-drop formula is cross-checked by its sign symmetry and by the
involution property; the twisted-cubic example is rederived from the
formula with an independently computed total degree.
"""

import random
import re
from itertools import combinations_with_replacement
from math import prod

import pytest

from quadliaison import (
    QUADRIC3,
    CILinkage,
    CurveClass,
    InfeasibleError,
    MappingConeInconsistent,
    ResolutionFlavor,
    ResolutionTriple,
    ci_residual,
    line_bundle,
    mapping_cone_e_from_n,
    mapping_cone_n_from_e,
    quadric_linkage,
    resolution_consistency_check,
    spinor,
)
from quadliaison import P4, ideal_h0_table
from quadliaison.liaison import _cone, residual_curve

C84 = CurveClass(QUADRIC3, 8, 4)
C40 = CurveClass(QUADRIC3, 4, 0)

ETYPE_84 = ResolutionTriple(
    spinor(-2, 2), line_bundle(-2) + line_bundle(-3, 4), C84, ResolutionFlavor.E_TYPE
)
ETYPE_40 = ResolutionTriple(
    spinor(-1, 2), line_bundle(-2, 5), C40, ResolutionFlavor.E_TYPE
)


def test_linkage_validation():
    assert quadric_linkage(2, 3).degrees == (2, 2, 3)
    assert quadric_linkage(2, 3).total_degree == 12
    with pytest.raises(ValueError):
        CILinkage(4, (2, 2))
    with pytest.raises(ValueError):
        CILinkage(3, (2, 0))
    with pytest.raises(ValueError):
        CILinkage(2, (2,))


def test_ci_residual_paper_case():
    assert ci_residual(8, 4, quadric_linkage(2, 3)) == (4, 0)
    assert ci_residual(4, 0, quadric_linkage(2, 3)) == (8, 4)
    # genus drop is (sum - dim - 1)(d - d')/2 = (7 - 5)(8 - 4)/2 = 4
    assert 4 - 0 == (7 - 5) * (8 - 4) // 2


@pytest.mark.parametrize("ambient, linkage, quadrics, chi_normal, total", [
    (P4, CILinkage(4, (2, 2, 3)), 2, lambda d, g: 5 * d + 1 - g, 40),
    (QUADRIC3, quadric_linkage(2, 3), 1, lambda d, g: 3 * d, 27),
], ids=["p4", "quadric3"])
def test_paper_pair_satisfies_the_linkage_dimension_count(
        ambient, linkage, quadrics, chi_normal, total):
    """dim H(X) + F(X) = dim H(X') + F(X') for X, X' linked by a complete
    intersection, with dim H(X) = chi(N_X) and F(X) the dimension of the
    complete intersections of the linking type that contain X: choose the
    quadrics in H0(I_X(2)), a Grassmannian of dimension k*(h0 - k) for k of
    them, then a cubic in H0(I_X(3)) modulo the quadrics' multiples, up to
    scalar.  In P4 the type is (2,2,3); on Q the divisors O_Q(2), O_Q(3)."""
    assert ci_residual(4, 0, linkage) == (8, 4)
    totals = []
    for degree, genus in (4, 0), (8, 4):
        ideal = ideal_h0_table(CurveClass(ambient, degree, genus), (2, 3))
        quadric_choice = quadrics * (ideal[2] - quadrics)
        cubic_choice = ideal[3] - quadrics * ambient.h0(1) - 1
        assert quadric_choice >= 0 and cubic_choice >= 0
        totals.append(chi_normal(degree, genus) + quadric_choice + cubic_choice)
    assert totals == [total, total]


def test_ci_residual_twisted_cubic():
    linkage = CILinkage(3, (2, 2))
    assert linkage.total_degree == 4
    drop = (2 + 2 - 3 - 1) * (3 - 1) // 2
    assert drop == 0
    assert ci_residual(3, 0, linkage) == (1, 0)


def test_ci_residual_errors():
    with pytest.raises(InfeasibleError, match="residual degree -4 is not positive"):
        ci_residual(8, 4, CILinkage(3, (2, 2)))
    with pytest.raises(InfeasibleError, match="residual degree 0 is not positive"):
        # total degree equals the curve degree: residual would be empty
        ci_residual(8, 4, CILinkage(3, (2, 4)))
    with pytest.raises(InfeasibleError, match="residual genus -2 < 0"):
        ci_residual(7, 0, quadric_linkage(2, 3))
    # a class no curve has is refused with CurveClass's message, before its residual
    with pytest.raises(ValueError, match="^degree must be positive, got -5$"):
        ci_residual(-5, 0, quadric_linkage(2, 3))
    with pytest.raises(ValueError, match="^genus must be nonnegative, got -3$"):
        ci_residual(8, -3, quadric_linkage(2, 3))


def test_ci_residual_involution_and_sign_symmetry():
    rng = random.Random(84)
    seen = 0
    while seen < 300:
        dim = rng.choice((3, 4, 5))
        degrees = tuple(rng.randint(1, 5) for _ in range(dim - 1))
        linkage = CILinkage(dim, degrees)
        d = rng.randint(1, max(1, linkage.total_degree - 1))
        g = rng.randint(0, 12)
        try:
            d2, g2 = ci_residual(d, g, linkage)
        except InfeasibleError:
            continue
        seen += 1
        assert ci_residual(d2, g2, linkage) == (d, g)
        assert (g - g2) == -(g2 - g)
        drop_twice = (sum(degrees) - dim - 1) * (d - d2)
        assert drop_twice % 2 == 0
        assert g - g2 == drop_twice // 2


def test_ci_residual_genus_drop_is_always_integral():
    for dim in (3, 4, 5):
        for degrees in combinations_with_replacement(range(1, 6), dim - 1):
            linkage = CILinkage(dim, degrees)
            for d in range(1, prod(degrees) + 2):
                drop_twice = (sum(degrees) - dim - 1) * (2 * d - prod(degrees))
                assert drop_twice % 2 == 0, (dim, degrees, d)
                g = abs(drop_twice)
                if d >= prod(degrees):
                    with pytest.raises(InfeasibleError, match="residual degree"):
                        ci_residual(d, g, linkage)
                else:
                    assert 2 * (g - ci_residual(d, g, linkage)[1]) == drop_twice


def test_resolution_render():
    assert ETYPE_84.render() == "0 -> 2*E0(-2) -> O(-2) + 4*O(-3) -> I_C -> 0"
    assert ETYPE_84.rank_diff == 1
    assert ETYPE_84.c1_diff == 0


def test_consistency_pass_for_published_resolutions():
    for triple in (ETYPE_84, ETYPE_40):
        report = resolution_consistency_check(triple, (0, 6))
        assert report.ok
        assert len(report.cells) == 7
        assert (report.resolution.rank_diff, report.resolution.c1_diff) == (1, 0)
        assert report.first_failure() is None
        assert "PASS" in report.render_text()


def test_consistency_fail_for_printed_ntype_twists():
    printed = ResolutionTriple(
        line_bundle(-5, 5),
        line_bundle(-4) + line_bundle(-3) + spinor(-3, 2),
        C84,
        ResolutionFlavor.N_TYPE,
    )
    # rank and determinant balance, so only the cell audit can object
    assert printed.rank_diff == 1 and printed.c1_diff == 0
    report = resolution_consistency_check(printed, (0, 6))
    assert not report.ok
    first = report.first_failure()
    assert (first.twist, first.lhs, first.rhs) == (2, 0, 1)
    assert "FAIL at n=2: 0 != 1" in report.render_text()
    assert "2,0,1,false" in report.render_csv()


def test_consistency_csv():
    report = resolution_consistency_check(ETYPE_84, (0, 2))
    assert report.render_csv() == "n,lhs,rhs,pass\n0,0,0,true\n1,0,0,true\n2,1,1,true\n"


def test_mapping_cone_n_from_e():
    derived = mapping_cone_n_from_e(ETYPE_40, (2, 3))
    assert derived.render() == "0 -> 5*O(-3) -> O(-2) + O(-3) + 2*E0(-1) -> I_C -> 0"
    assert derived.flavor is ResolutionFlavor.N_TYPE
    assert derived.curve == C84
    assert (derived.kernel.rank, derived.kernel.c1) == (5, -15)
    assert (derived.middle.rank, derived.middle.c1) == (6, -15)
    assert resolution_consistency_check(derived).ok


def test_mapping_cone_roundtrip():
    derived = mapping_cone_n_from_e(ETYPE_40, (2, 3))
    assert mapping_cone_e_from_n(derived, (2, 3)) == ETYPE_40
    again = mapping_cone_n_from_e(mapping_cone_e_from_n(derived, (2, 3)), (2, 3))
    assert again == derived


def test_mapping_cone_other_linkages():
    # (2,2) self-links (4,0); (2,4) self-links (8,4)
    for triple, pairs in (
        (ETYPE_40, ((2, 3), (2, 2))),
        (ETYPE_84, ((2, 3), (2, 4))),
    ):
        for pair in pairs:
            derived = mapping_cone_n_from_e(triple, pair)
            assert resolution_consistency_check(derived).ok
            assert mapping_cone_e_from_n(derived, pair) == triple


def test_mapping_cone_detects_impossible_linkage():
    # {2,3,3} would link (4,0) to a (14,15) curve, whose forced section
    # counts (five independent hyperplanes through a degree-14 curve) are
    # absurd; the cell audit catches this even though ci_residual cannot.
    assert ci_residual(4, 0, quadric_linkage(3, 3)) == (14, 15)
    with pytest.raises(MappingConeInconsistent) as info:
        mapping_cone_n_from_e(ETYPE_40, (3, 3))
    assert info.value.twist == 1
    assert (info.value.lhs, info.value.rhs) == (0, 5)


def test_mapping_cone_flavor_and_ambient_guards():
    with pytest.raises(ValueError, match=r"^input resolution must be N-type$"):
        mapping_cone_e_from_n(ETYPE_40, (2, 3))
    derived = mapping_cone_n_from_e(ETYPE_40, (2, 3))
    with pytest.raises(ValueError, match=r"^input resolution must be E-type$"):
        mapping_cone_n_from_e(derived, (2, 3))


def test_mapping_cone_missing_koszul_summands():
    empty_kernel = ResolutionTriple(
        line_bundle(0, 0), line_bundle(0), C40, ResolutionFlavor.N_TYPE
    )
    with pytest.raises(ValueError, match=r"^expression lacks 1 copies of O\(-2\)$"):
        mapping_cone_e_from_n(empty_kernel, (2, 3))


def oracle_n_from_e(res, a, b):
    """mapping_cone_n_from_e's transport as first written, before its audit,
    kept as the oracle."""
    curve2 = residual_curve(res.curve, a, b)
    s = a + b
    kernel2 = res.middle.dual().twist(-s)
    middle2 = res.kernel.dual().twist(-s) + line_bundle(-a) + line_bundle(-b)
    return ResolutionTriple(kernel2, middle2, curve2, ResolutionFlavor.N_TYPE)


def oracle_e_from_n(res, a, b):
    """mapping_cone_e_from_n's transport as first written, before its audit,
    kept as the oracle."""
    curve2 = residual_curve(res.curve, a, b)
    s = a + b
    stripped = res.middle.without(line_bundle(-a) + line_bundle(-b))
    kernel2 = stripped.dual().twist(-s)
    middle2 = res.kernel.dual().twist(-s)
    return ResolutionTriple(kernel2, middle2, curve2, ResolutionFlavor.E_TYPE)


def test_cone_transport_equals_the_two_formula_oracle():
    """For both published E-type triples and every (a, b) in 1..4 x 1..4,
    the unaudited cone equals the oracle's N-type triple, including the
    pairs whose audit then fails, and the cone of that N-type triple gives
    back the E-type one.  A pair with no residual curve raises the oracle's
    error with its message."""
    audits = set()
    for triple in (ETYPE_40, ETYPE_84):
        for a in range(1, 5):
            for b in range(1, 5):
                try:
                    want = oracle_n_from_e(triple, a, b)
                except InfeasibleError as error:
                    with pytest.raises(InfeasibleError, match=f"^{re.escape(str(error))}$"):
                        _cone(triple, (a, b), ResolutionFlavor.E_TYPE)
                    continue
                got = _cone(triple, (a, b), ResolutionFlavor.E_TYPE)
                assert got == want, (triple.curve, a, b)
                back = _cone(got, (a, b), ResolutionFlavor.N_TYPE)
                assert back == oracle_e_from_n(got, a, b) == triple, (triple.curve, a, b)
                audits.add(resolution_consistency_check(got).ok)
    assert audits == {True, False}


def test_mapping_cone_inconsistent_input():
    wrong = ResolutionTriple(
        spinor(-3, 2), line_bundle(-2, 5), C40, ResolutionFlavor.E_TYPE
    )
    with pytest.raises(MappingConeInconsistent) as info:
        mapping_cone_n_from_e(wrong, (2, 3))
    assert isinstance(info.value.twist, int)


def test_mapping_cone_rank_c1_failure_with_every_cell_equal():
    """Below twist -30 every section count on both sides is 0, so the cell
    audit passes and only the rank and c1 check can refuse the cone.  No
    twist failed, so the error names none and carries (rank diff, c1 diff)
    against the (1, 0) it wants; it words that message from the None twist
    alone."""
    window = (-30, -26)
    cases = [  # middle, the kernel of the cone output, (rank diff, c1 diff)
        (line_bundle(-2, 6), line_bundle(-3, 6), (0, 3)),
        (line_bundle(-1) + line_bundle(-2, 4), line_bundle(-3, 4) + line_bundle(-4), (1, 1)),
    ]
    for middle, cone_kernel, diffs in cases:
        wrong = ResolutionTriple(spinor(-1, 2), middle, C40, ResolutionFlavor.E_TYPE)
        with pytest.raises(MappingConeInconsistent) as info:
            mapping_cone_n_from_e(wrong, (2, 3), window)
        rank, c1 = diffs
        assert str(info.value) == (
            f"mapping cone output has rank diff {rank} (want 1), c1 diff {c1} (want 0)"
        )
        assert (info.value.twist, info.value.lhs, info.value.rhs) == (None, diffs, (1, 0))
        assert str(MappingConeInconsistent(None, diffs, (1, 0))) == str(info.value)
        # the cone output: the middle and 2*E0(4) dualized, twisted by -5, plus O(-2) + O(-3)
        out = ResolutionTriple(cone_kernel, line_bundle(-2) + line_bundle(-3) + spinor(-1, 2),
                               C84, ResolutionFlavor.N_TYPE)
        report = resolution_consistency_check(out, window)
        assert all(cell.lhs == cell.rhs == 0 for cell in report.cells)
        assert (out.rank_diff, out.c1_diff) == diffs
        assert report.render_text() == (
            f"consistency FAIL: rank diff {rank} (want 1), c1 diff {c1} (want 0)"
        )
