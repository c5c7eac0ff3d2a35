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

from enum import Enum
from math import prod
from typing import TYPE_CHECKING, NamedTuple

from .curves import DEFAULT_WINDOW, CurveClass, Window, ideal_h0
from .errors import InfeasibleError, MappingConeInconsistent

if TYPE_CHECKING:  # the mapping cones import sheaves, so `ql link` never loads it
    from .sheaves import SheafExpr


class CILinkage(NamedTuple("CILinkage", [("ambient_dim", int), ("degrees", tuple[int, ...])])):
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
    """Degree and genus of the curve linked to (degree, genus) through the
    complete intersection; raises when the residual invariants are impossible."""
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


class ResolutionTriple(NamedTuple("ResolutionTriple", [
    ("kernel", "SheafExpr"), ("middle", "SheafExpr"),
    ("curve", CurveClass), ("flavor", ResolutionFlavor),
])):
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
        if not curve.ambient.is_quadric:
            raise ValueError("resolution and curve live over different ambients")
        return super().__new__(cls, kernel, middle, curve, flavor)

    @property
    def rank_diff(self) -> int:
        return self.middle.rank - self.kernel.rank

    @property
    def c1_diff(self) -> int:
        return self.middle.c1 - self.kernel.c1

    def render(self) -> str:
        return f"0 -> {self.kernel.render()} -> {self.middle.render()} -> I_C -> 0"

    __str__ = render


class CellCheck(NamedTuple):
    twist: int
    lhs: int
    rhs: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


class ConsistencyReport(NamedTuple):
    """Cell-by-cell audit of h0(middle(n)) - h0(kernel(n)) = h0(I_C(n))."""

    resolution: ResolutionTriple
    window: Window
    cells: tuple[CellCheck, ...]
    rank_ok: bool
    c1_ok: bool

    @property
    def ok(self) -> bool:
        return self.rank_ok and self.c1_ok and all(c.ok for c in self.cells)

    def first_failure(self) -> CellCheck | None:
        return next((cell for cell in self.cells if not cell.ok), None)

    def render_csv(self) -> str:
        lines = [f"{c.twist},{c.lhs},{c.rhs},{'true' if c.ok else 'false'}" for c in self.cells]
        return "\n".join(["n,lhs,rhs,pass", *lines]) + "\n"

    def render_text(self) -> str:
        fail = self.first_failure()
        if fail is not None:
            return f"consistency FAIL at n={fail.twist}: {fail.lhs} != {fail.rhs}"
        if not (self.rank_ok and self.c1_ok):
            return (
                f"consistency FAIL: rank diff {self.resolution.rank_diff} "
                f"(want 1), c1 diff {self.resolution.c1_diff} (want 0)"
            )
        lo, hi = self.window
        return f"consistency PASS over n in [{lo},{hi}] (rank diff 1, c1 diff 0)"


def resolution_consistency_check(
    res: ResolutionTriple, window: Window = DEFAULT_WINDOW
) -> ConsistencyReport:
    """Audit a proposed resolution against the curve's forced section counts.

    Failures are reported, never raised: a defective resolution is a
    legitimate object of study.
    """
    lo, hi = window
    cells = tuple(
        CellCheck(n, res.middle.h0(n) - res.kernel.h0(n), ideal_h0(res.curve, n))
        for n in range(lo, hi + 1)
    )
    return ConsistencyReport(
        resolution=res,
        window=window,
        cells=cells,
        rank_ok=res.rank_diff == 1,
        c1_ok=res.c1_diff == 0,
    )


def _checked(res: ResolutionTriple, window: Window) -> ResolutionTriple:
    report = resolution_consistency_check(res, window)
    if report.ok:
        return res
    fail = report.first_failure()
    if fail is not None:
        raise MappingConeInconsistent(fail.twist, fail.lhs, fail.rhs)
    raise MappingConeInconsistent(
        window[0],
        res.rank_diff,
        1,
        message=(
            f"mapping cone output has rank diff {res.rank_diff} (want 1), "
            f"c1 diff {res.c1_diff} (want 0)"
        ),
    )


def residual_curve(curve: CurveClass, a: int, b: int) -> CurveClass:
    """The curve linked to ``curve`` on Q by divisors O_Q(a), O_Q(b)."""
    if not curve.ambient.is_quadric:
        raise ValueError("mapping cones over divisor pairs live on the quadric")
    d2, g2 = ci_residual(curve.degree, curve.genus, quadric_linkage(a, b))
    return CurveClass(curve.ambient, d2, g2)


def mapping_cone_n_from_e(
    res: ResolutionTriple,
    divisor_twists: tuple[int, int],
    window: Window = DEFAULT_WINDOW,
) -> ResolutionTriple:
    """N-type resolution of the curve linked to res.curve by O(a), O(b).

    Dualize the E-type sequence of the residual curve, twist down by
    a+b, and append the Koszul summands O(-a), O(-b) to the middle term.
    The output is consistency-checked before it is returned.
    """
    from .sheaves import line_bundle

    if res.flavor is not ResolutionFlavor.E_TYPE:
        raise ValueError("input resolution must be E-type")
    a, b = divisor_twists
    curve2 = residual_curve(res.curve, a, b)
    s = a + b
    kernel2 = res.middle.dual().twist(-s)
    middle2 = res.kernel.dual().twist(-s) + line_bundle(-a) + line_bundle(-b)
    out = ResolutionTriple(kernel2, middle2, curve2, ResolutionFlavor.N_TYPE)
    return _checked(out, window)


def mapping_cone_e_from_n(
    res: ResolutionTriple, divisor_twists: tuple[int, int]
) -> ResolutionTriple:
    """Inverse transport: strip the Koszul summands, dualize, twist down."""
    from .sheaves import line_bundle

    if res.flavor is not ResolutionFlavor.N_TYPE:
        raise ValueError("input resolution must be N-type")
    a, b = divisor_twists
    curve2 = residual_curve(res.curve, a, b)
    s = a + b
    stripped = res.middle.without(line_bundle(-a) + line_bundle(-b))
    kernel2 = stripped.dual().twist(-s)
    middle2 = res.kernel.dual().twist(-s)
    out = ResolutionTriple(kernel2, middle2, curve2, ResolutionFlavor.E_TYPE)
    return _checked(out, DEFAULT_WINDOW)
