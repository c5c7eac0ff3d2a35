"""Reference-check suite: every published table value and identity the
toolkit is built around, re-derived live and compared against the frozen
expected numbers.

One check is special: the printed twists of the published N-type
resolution fail the section-count identity that the rest of the tables
satisfy.  That failure is permanent and documented, so it reports as
EXPECTED-DISCREPANCY (anything else there, including an unexpected pass,
is a FAIL).
"""

from __future__ import annotations

from typing import NamedTuple

from .ambient import P3, P4, QUADRIC3
from .classify import etype_candidates, generator_estimate, match_acm_kernel
from .curves import (
    CurveClass,
    acm_embedding_obstruction,
    full_ideal_table,
    ideal_h0_table,
    nonspecial_threshold,
    regularity,
    rr_chi,
    section_table,
)
from .errors import MappingConeInconsistent
from .hilbert import h0_proj, h0_quadric3
from .liaison import (
    ResolutionFlavor,
    ResolutionTriple,
    ci_residual,
    mapping_cone_e_from_n,
    mapping_cone_n_from_e,
    quadric_linkage,
    resolution_consistency_check,
)
from .sheaves import line_bundle, spinor

PASS = "PASS"
FAIL = "FAIL"
EXPECTED_DISCREPANCY = "EXPECTED-DISCREPANCY"


class CheckResult(NamedTuple):
    name: str
    status: str
    detail: str

    @property
    def ok(self) -> bool:
        return self.status != FAIL


def _fmt(value) -> str:
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}:{v}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, set):
        return "{" + ",".join(str(v) for v in sorted(value)) + "}"
    # records such as ResolutionTriple are tuples too; they print as themselves
    if type(value) in (list, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _eq(name: str, got, expected) -> CheckResult:
    status = PASS if got == expected else FAIL
    return CheckResult(name, status, f"{_fmt(got)} (expected {_fmt(expected)})")


# Classical facts that only the suite checks.
def _plane_genus(degree: int) -> int:
    """Arithmetic genus (d-1)(d-2)/2 of a plane curve of degree d."""
    if degree < 1:
        raise ValueError("degree must be positive")
    return (degree - 1) * (degree - 2) // 2


def _quadric_surface_genus_spectrum(degree: int) -> set[int]:
    """Genera (a-1)(b-1) of bidegree (a,b) curves, a+b = degree, on a smooth quadric surface."""
    if degree < 1:
        raise ValueError("degree must be positive")
    return {(a - 1) * (degree - a - 1) for a in range(1, degree)}


def _klein_parity_check(surface_degree: int) -> bool:
    """Surfaces cut on the nonsingular quadric threefold have even degree."""
    return surface_degree % 2 == 0


CURVE_84_P4 = CurveClass(P4, 8, 4)
CURVE_84_Q = CurveClass(QUADRIC3, 8, 4)
CURVE_40_Q = CurveClass(QUADRIC3, 4, 0)

ETYPE_84 = ResolutionTriple(
    spinor(-2, 2),
    line_bundle(-2) + line_bundle(-3, 4),
    CURVE_84_Q,
    ResolutionFlavor.E_TYPE,
)
ETYPE_40 = ResolutionTriple(
    spinor(-1, 2),
    line_bundle(-2, 5),
    CURVE_40_Q,
    ResolutionFlavor.E_TYPE,
)
PRINTED_NTYPE_84 = ResolutionTriple(
    line_bundle(-5, 5),
    line_bundle(-4) + line_bundle(-3) + spinor(-3, 2),
    CURVE_84_Q,
    ResolutionFlavor.N_TYPE,
)

DERIVED_NTYPE_TEXT = "0 -> 5*O(-3) -> O(-2) + O(-3) + 2*E0(-1) -> I_C -> 0"


def run_reference_checks() -> list[CheckResult]:
    """All reference checks, in fixed order."""
    checks: list[CheckResult] = []
    add = checks.append

    # Dimension functions of the ambient spaces.
    add(_eq("h0-p4-quadrics", h0_proj(4, 2), 15))
    add(_eq("h0-p3-linear-forms", h0_proj(3, 1), 4))
    add(_eq("h0-quadric-twist-2", h0_quadric3(2), 14))
    add(_eq("h0-quadric-twist-6", h0_quadric3(6), 140))
    add(_eq("ambient-row-p4", [h0_proj(4, n) for n in range(5)], [1, 5, 15, 35, 70]))
    add(
        _eq(
            "ambient-row-quadric",
            [h0_quadric3(n) for n in range(7)],
            [1, 5, 14, 30, 55, 91, 140],
        )
    )

    # Sheaf algebra around the two kernels.
    add(_eq("spinor-dual-identity", spinor(-1, 2).dual(), spinor(4, 2)))
    add(_eq("kernel-rank-4", spinor(-2, 2).rank, 4))
    add(
        _eq(
            "middle-sections-84-at-5",
            (line_bundle(-2) + line_bundle(-3, 4)).h0(5),
            86,
        )
    )
    add(
        _eq(
            "kernel-row-84",
            [spinor(-2, 2).h0(n) for n in range(7)],
            [0, 0, 0, 0, 8, 32, 80],
        )
    )
    add(
        _eq(
            "kernel-row-40",
            [spinor(-1, 2).h0(n) for n in range(7)],
            [0, 0, 0, 8, 32, 80, 160],
        )
    )

    # Riemann-Roch and the section/ideal tables.
    add(_eq("chi-84-at-1", rr_chi(8, 4, 1), 5))
    add(_eq("chi-40-at-1", rr_chi(4, 0, 1), 5))
    add(
        _eq(
            "section-row-84",
            list(section_table(CURVE_84_P4, (0, 4)).values()),
            [1, 5, 13, 21, 29],
        )
    )
    add(
        _eq(
            "section-row-40",
            list(section_table(CURVE_40_Q, (0, 6)).values()),
            [1, 5, 9, 13, 17, 21, 25],
        )
    )
    add(
        _eq(
            "ideal-row-84-p4",
            list(ideal_h0_table(CURVE_84_P4, (0, 4)).values()),
            [0, 0, 2, 14, 41],
        )
    )
    add(
        _eq(
            "ideal-row-84-quadric",
            list(ideal_h0_table(CURVE_84_Q, (0, 6)).values()),
            [0, 0, 1, 9, 26, 54, 95],
        )
    )
    add(
        _eq(
            "ideal-row-40-quadric",
            list(ideal_h0_table(CURVE_40_Q, (0, 6)).values()),
            [0, 0, 5, 17, 38, 70, 115],
        )
    )

    # Cohomology table cells and regularity.
    table_84 = full_ideal_table(CURVE_84_P4)
    add(_eq("no-84-curve-in-p3", acm_embedding_obstruction(8, 4, P3).witness_twist, 1))
    add(_eq("h2-84-at-1", table_84.cell(2, 1), 0))
    add(_eq("h3-84-at-0", table_84.cell(3, 0), 0))
    add(_eq("regularity-84-p4", regularity(table_84).regularity, 3))
    add(
        _eq(
            "regularity-40-quadric",
            regularity(full_ideal_table(CURVE_40_Q)).regularity,
            2,
        )
    )

    # Linkage arithmetic.
    add(_eq("residual-of-84", ci_residual(8, 4, quadric_linkage(2, 3)), (4, 0)))
    add(_eq("residual-of-40", ci_residual(4, 0, quadric_linkage(2, 3)), (8, 4)))
    add(_eq("klein-even-degrees", (_klein_parity_check(4), _klein_parity_check(2)), (True, True)))

    # Resolution consistency.
    for name, etype in ("etype-84-consistency", ETYPE_84), ("etype-40-consistency", ETYPE_40):
        report = resolution_consistency_check(etype, (0, 6))
        add(CheckResult(name, PASS if report.ok else FAIL, report.render_text()))

    try:
        derived = mapping_cone_n_from_e(ETYPE_40, (2, 3))
        add(_eq("ntype-derived-84", derived.render(), DERIVED_NTYPE_TEXT))
        add(
            _eq(
                "ntype-roundtrip",
                mapping_cone_e_from_n(derived, (2, 3)),
                ETYPE_40,
            )
        )
    except MappingConeInconsistent as exc:
        add(CheckResult("ntype-derived-84", FAIL, str(exc)))
        add(CheckResult("ntype-roundtrip", FAIL, "skipped: mapping cone failed"))

    printed = resolution_consistency_check(PRINTED_NTYPE_84, (0, 6))
    fail_cell = printed.first_failure()
    if fail_cell and (fail_cell.twist, fail_cell.lhs, fail_cell.rhs) == (2, 0, 1):
        add(
            CheckResult(
                "ntype-printed-twists",
                EXPECTED_DISCREPANCY,
                "published twists fail the section-count identity first at "
                "n=2 (0 != 1), as documented",
            )
        )
    else:
        add(
            CheckResult(
                "ntype-printed-twists",
                FAIL,
                "documented discrepancy changed shape: " + printed.render_text(),
            )
        )

    # Kernel classification on twists 0..6, where these targets are given, and generator counts.
    for name, target, expected in (
        ("match-kernel-84", (0, 0, 0, 0, 8, 32, 80), ["2*E0(-2)"]),
        ("match-kernel-40", (0, 0, 0, 8, 32, 80, 160), ["2*E0(-1)"]),
    ):
        kernels = match_acm_kernel(dict(enumerate(target)), (0, 6))
        add(_eq(name, [e.render() for e in kernels], expected))
    add(_eq("generators-84-quadric", generator_estimate(CURVE_84_Q).counts, {2: 1, 3: 4}))
    add(_eq("generators-40-quadric", generator_estimate(CURVE_40_Q).counts, {2: 5}))
    for name, curve, expected in (
        ("etype-84-synthesis", CURVE_84_Q, ("O(-2) + 4*O(-3)", ["2*E0(-2)"])),
        ("etype-40-synthesis", CURVE_40_Q, ("5*O(-2)", ["2*E0(-1)"])),
    ):
        middle, kernels = etype_candidates(curve)
        add(_eq(name, (middle.render(), [e.render() for e in kernels]), expected))

    # Final feasibility obstructions.
    add(_eq("nonspecial-from-1", nonspecial_threshold(8, 4), 1))
    add(_eq("plane-octic-genus", _plane_genus(8), 21))
    spectrum = _quadric_surface_genus_spectrum(8)
    add(
        CheckResult(
            "quadric-surface-spectrum",
            PASS if (spectrum == {0, 5, 8, 9} and 4 not in spectrum) else FAIL,
            f"genus spectrum {_fmt(spectrum)} omits 4",
        )
    )

    return checks
