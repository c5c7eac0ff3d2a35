"""Complete-intersection linkage arithmetic and mapping-cone transport
between the two flavors of locally-free resolution on the quadric.

Linkage: if C sits on a complete intersection Z of hypersurfaces of
degrees (e_1, ..., e_{m-1}) in P^m, the residual curve C' = closure of
Z \\ C has

    deg C' = prod(e_i) - deg C,
    g(C)-g(C') = (sum(e_i) - m - 1) * (deg C - deg C') / 2.

On the quadric threefold the linking intersections are cut by Q itself
(degree 2) plus two divisors O_Q(a), O_Q(b); a mapping cone over such a
linkage turns an E-type resolution of the residual curve into an N-type
resolution of the original, and vice versa.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from math import prod

from .curves import DEFAULT_WINDOW, CurveClass, Window, _csv, ideal_h0_table
from .errors import InfeasibleError, MappingConeInconsistent


class CILinkage(namedtuple("CILinkage", "ambient_dim degrees")):
    """Hypersurface degrees of a complete intersection curve in P^ambient_dim."""

    __slots__ = ()

    def __new__(cls, ambient_dim: int, degrees: tuple[int, ...]) -> CILinkage:
        if ambient_dim < 3:
            raise ValueError("linkage needs an ambient projective space of dim >= 3")
        degrees = tuple(sorted(degrees))
        if len(degrees) != ambient_dim - 1:
            raise ValueError(
                f"a curve in P^{ambient_dim} is cut by "
                f"{ambient_dim - 1} hypersurfaces, got {len(degrees)}"
            )
        if any(e < 1 for e in degrees):
            raise ValueError("hypersurface degrees must be positive")
        return super().__new__(cls, ambient_dim, degrees)

    @property
    def total_degree(self) -> int:
        return prod(self.degrees)


def quadric_linkage(a: int, b: int) -> CILinkage:
    """Linkage on the quadric threefold by divisors O_Q(a), O_Q(b)."""
    return CILinkage(4, (2, a, b))


def ci_residual(degree: int, genus: int, linkage: CILinkage) -> tuple[int, int]:
    """Degree and genus of the curve linked to (degree, genus) through the complete
    intersection.  ValueError for a class no curve has, as CurveClass raises, and
    InfeasibleError when the residual invariants are impossible."""
    CurveClass.check_invariants(degree, genus)
    residual_degree = linkage.total_degree - degree
    if residual_degree <= 0:
        raise InfeasibleError(f"residual degree {residual_degree} is not positive")
    # Always even: degree - residual_degree = 2*degree - prod(e_i) is odd
    # only when every e_i is odd, and then sum(e_i) - m - 1 is even.
    drop_twice = (sum(linkage.degrees) - linkage.ambient_dim - 1) * (
        degree - residual_degree
    )
    residual_genus = genus - drop_twice // 2
    if residual_genus < 0:
        raise InfeasibleError(f"residual genus {residual_genus} < 0")
    return (residual_degree, residual_genus)


class ResolutionFlavor(Enum):
    E_TYPE = "E-type"
    N_TYPE = "N-type"


class ResolutionTriple(namedtuple("ResolutionTriple", "kernel middle curve flavor")):
    """A two-term locally-free resolution 0 -> kernel -> middle -> I_C -> 0.

    E-type keeps the non-split summands in the kernel, N-type in the
    middle.  Both terms are sums on Q, so the curve must lie on Q.  The
    rank/determinant invariants (middle minus kernel must be rank 1 with
    trivial c1) are verified by the consistency checker, not enforced
    here, so defective proposals can still be examined.
    """

    __slots__ = ()

    def __new__(
        cls, kernel: SheafExpr, middle: SheafExpr, curve: CurveClass, flavor: ResolutionFlavor
    ) -> ResolutionTriple:
        return super().__new__(cls, kernel, middle, curve.on_quadric(), flavor)

    @property
    def rank_diff(self) -> int:
        return self.middle.rank - self.kernel.rank

    @property
    def c1_diff(self) -> int:
        return self.middle.c1 - self.kernel.c1

    def render(self) -> str:
        return f"0 -> {self.kernel.render()} -> {self.middle.render()} -> I_C -> 0"

    __str__ = render


class CellCheck(namedtuple("CellCheck", "twist lhs rhs")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


class ConsistencyReport(namedtuple("ConsistencyReport", "resolution window cells")):
    """Cell-by-cell audit of h0(middle(n)) - h0(kernel(n)) = h0(I_C(n))."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        res = self.resolution
        return (res.rank_diff, res.c1_diff) == (1, 0) and all(c.ok for c in self.cells)

    def first_failure(self) -> CellCheck | None:
        return next((cell for cell in self.cells if not cell.ok), None)

    def render_csv(self) -> str:
        lines = [f"{c.twist},{c.lhs},{c.rhs},{'true' if c.ok else 'false'}" for c in self.cells]
        return _csv("n,lhs,rhs,pass", lines)

    def render_text(self) -> str:
        fail = self.first_failure()
        if fail is not None:
            return f"consistency FAIL at n={fail.twist}: {fail.lhs} != {fail.rhs}"
        res = self.resolution
        if (res.rank_diff, res.c1_diff) != (1, 0):  # every cell passed; only the diffs can fail
            return (f"consistency FAIL: rank diff {res.rank_diff} (want 1), "
                    f"c1 diff {res.c1_diff} (want 0)")
        lo, hi = self.window
        return f"consistency PASS over n in [{lo},{hi}] (rank diff 1, c1 diff 0)"


def resolution_consistency_check(
    res: ResolutionTriple, window: Window = DEFAULT_WINDOW
) -> ConsistencyReport:
    """Audit a resolution's middle h0_row minus its kernel's against the ideal row.

    Failures are reported, never raised: a defective resolution is a
    legitimate object of study.  A curve that cannot exist is not: a
    negative ideal count in the window raises NegativeDimension.
    """
    ideal = ideal_h0_table(res.curve, window)
    lhs = [m - k for m, k in zip(res.middle.h0_row(*window), res.kernel.h0_row(*window))]
    return ConsistencyReport(res, window, tuple(map(CellCheck, ideal, lhs, ideal.values())))


def _checked(res: ResolutionTriple, window: Window) -> ConsistencyReport:
    """The audit of res on window, raised as MappingConeInconsistent unless it passes."""
    report = resolution_consistency_check(res, window)
    if report.ok:
        return report
    # the first failing cell, or, when every cell passed, no twist and the (rank, c1) diffs
    raise MappingConeInconsistent(
        *report.first_failure() or (None, (res.rank_diff, res.c1_diff), (1, 0)))


def residual_curve(curve: CurveClass, a: int, b: int) -> CurveClass:
    """The curve linked to ``curve`` on Q by divisors O_Q(a), O_Q(b)."""
    curve.on_quadric()
    d2, g2 = ci_residual(curve.degree, curve.genus, quadric_linkage(a, b))
    return CurveClass(curve.ambient, d2, g2)


def mapping_cone_n_from_e(res: ResolutionTriple, divisor_twists: tuple[int, int],
                          window: Window = DEFAULT_WINDOW) -> ResolutionTriple:
    """N-type resolution of the curve linked to res.curve by O(a), O(b):
    ``_cone`` of the E-type res, consistency-checked on window before it is
    returned."""
    out = _cone(res, divisor_twists, ResolutionFlavor.E_TYPE)
    _checked(out, window)
    return out


def mapping_cone_e_from_n(res: ResolutionTriple,
                          divisor_twists: tuple[int, int]) -> ResolutionTriple:
    """Inverse transport: ``_cone`` of the N-type res, consistency-checked on
    -1:8 before it is returned."""
    out = _cone(res, divisor_twists, ResolutionFlavor.N_TYPE)
    _checked(out, DEFAULT_WINDOW)
    return out


def _cone(res: ResolutionTriple, divisor_twists: tuple[int, int],
          flavor: ResolutionFlavor) -> ResolutionTriple:
    """The other flavor's resolution of the curve linked to res.curve by O(a),
    O(b), not yet audited; res must have this flavor.  Strip the Koszul
    summands O(-a) + O(-b) from an N-type middle, dualize both terms and twist
    them by -(a + b), swapping kernel and middle, and add the Koszul summands
    to the new N-type middle."""
    from .sheaves import line_bundle

    if res.flavor is not flavor:
        raise ValueError(f"input resolution must be {flavor.value}")
    a, b = divisor_twists
    curve = residual_curve(res.curve, a, b)
    koszul = line_bundle(-a) + line_bundle(-b)
    from_n = flavor is ResolutionFlavor.N_TYPE
    stripped = res.middle.without(koszul) if from_n else res.middle
    middle, kernel = (term.dual().twist(-(a + b)) for term in (res.kernel, stripped))
    if from_n:
        return ResolutionTriple(kernel, middle, curve, ResolutionFlavor.E_TYPE)
    return ResolutionTriple(kernel, middle + koszul, curve, ResolutionFlavor.N_TYPE)
