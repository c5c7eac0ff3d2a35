"""Formal direct sums of twisted line bundles and spinor-type summands.

Every ACM bundle on the quadric threefold is a sum of twists O(a) and
E0(b), so an expression is two multisets of twists: ``lines`` holds the
twists of its O(a) summands and ``spinors`` those of its E0(b).  Each is a
canonical tuple of (twist, multiplicity) pairs, twists strictly descending
and no multiplicity zero, so equality is syntactic; lines render before
spinors.  All arithmetic (rank, first Chern number, section counts on
the quadric) is per summand and exact.
"""

from __future__ import annotations

from . import hilbert

#: canonical (twist, multiplicity) pairs of one kind of summand
Twists = tuple[tuple[int, int], ...]


def _canonical(pairs, name: str) -> Twists:
    """Merge the (twist, multiplicity) pairs of one kind: twists descending, no zeros."""
    merged: dict[int, int] = {}
    for twist, mult in pairs:
        if mult < 0:
            raise ValueError(f"negative multiplicity {mult} for {name}({twist})")
        if mult:
            merged[twist] = merged.get(twist, 0) + mult
    return tuple(sorted(merged.items(), reverse=True))


class SheafExpr:
    """Direct sum of twisted line bundles and spinor summands on the quadric.

    ``lines`` and ``spinors`` are canonical tuples of (twist, multiplicity)
    pairs for the O(twist) and E0(twist) summands; two empty tuples are the
    zero sheaf.  Instances are immutable and compare and hash by (lines,
    spinors), the arguments ``__reduce__`` rebuilds them from.
    """

    __slots__ = ("lines", "spinors")

    def __init__(self, lines: Twists = (), spinors: Twists = ()):
        object.__setattr__(self, "lines", lines)
        object.__setattr__(self, "spinors", spinors)
        self.__post_init__()

    def __post_init__(self) -> None:
        # every public construction canonicalizes here; _replace_atoms skips it
        object.__setattr__(self, "lines", _canonical(self.lines, "O"))
        object.__setattr__(self, "spinors", _canonical(self.spinors, "E0"))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable SheafExpr")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        return f"SheafExpr(lines={self.lines!r}, spinors={self.spinors!r})"

    def __reduce__(self) -> tuple:
        return (SheafExpr, (self.lines, self.spinors))

    @property
    def is_zero(self) -> bool:
        return not (self.lines or self.spinors)

    @property
    def rank(self) -> int:
        spinors = sum(mult for _, mult in self.spinors)
        return sum(mult for _, mult in self.lines) + hilbert.SPINOR_RANK * spinors

    @property
    def c1(self) -> int:
        # c1(O(a)) = a; c1(E0(a)) = 2a + c1(E0) in hyperplane-class units.
        rank, c1 = hilbert.SPINOR_RANK, hilbert.SPINOR_C1
        lines = sum(twist * mult for twist, mult in self.lines)
        return lines + sum((rank * twist + c1) * mult for twist, mult in self.spinors)

    def _replace_atoms(self, lines: Twists, spinors: Twists) -> "SheafExpr":
        # constructor bypass for transforms that keep both fields canonical
        clone = object.__new__(SheafExpr)
        object.__setattr__(clone, "lines", lines)
        object.__setattr__(clone, "spinors", spinors)
        return clone

    def twist(self, t: int) -> "SheafExpr":
        # a uniform shift preserves distinctness and the descending order
        if t == 0:
            return self
        return self._replace_atoms(
            tuple((twist + t, mult) for twist, mult in self.lines),
            tuple((twist + t, mult) for twist, mult in self.spinors),
        )

    def dual(self) -> "SheafExpr":
        # O(a)^v = O(-a) and E0(a)^v = E0(3-a), from E0^v = E0(3); both
        # negate the twist, so reading each field backwards keeps it descending
        shift = hilbert.SPINOR_DUAL_SHIFT
        return self._replace_atoms(
            tuple((-twist, mult) for twist, mult in reversed(self.lines)),
            tuple((shift - twist, mult) for twist, mult in reversed(self.spinors)),
        )

    def h0(self, n: int) -> int:
        # looked up in hilbert on each call, so a wrapper installed later sees every count
        line_h0, spinor_h0 = hilbert.h0_quadric3, hilbert.h0_spinor
        total = 0
        for twist, mult in self.lines:
            total += line_h0(twist + n) * mult
        for twist, mult in self.spinors:
            total += spinor_h0(twist + n) * mult
        return total

    def __add__(self, other: "SheafExpr") -> "SheafExpr":
        if not isinstance(other, SheafExpr):
            return NotImplemented
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        return SheafExpr(self.lines + other.lines, self.spinors + other.spinors)

    def without(self, other: "SheafExpr") -> "SheafExpr":
        """Multiset difference; fails if ``other`` is not contained in self."""
        fields = []
        for name, have, take in ("O", self.lines, other.lines), ("E0", self.spinors, other.spinors):
            counts = dict(have)
            for twist, mult in take:
                left = counts.get(twist, 0)
                if left < mult:
                    raise ValueError(f"expression lacks {mult} copies of {name}({twist})")
                counts[twist] = left - mult
            fields.append(counts.items())  # the constructor drops the zeros
        return SheafExpr(*fields)

    def render(self) -> str:
        parts = [
            f"{mult}*{name}({twist})" if mult >= 2 else f"{name}({twist})"
            for name, pairs in (("O", self.lines), ("E0", self.spinors))
            for twist, mult in pairs
        ]
        return " + ".join(parts) or "0"

    __str__ = render


def line_bundle(twist: int, multiplicity: int = 1) -> SheafExpr:
    """multiplicity copies of O(twist)."""
    return SheafExpr(((twist, multiplicity),))


def spinor(twist: int, multiplicity: int = 1) -> SheafExpr:
    """multiplicity copies of E0(twist)."""
    return SheafExpr((), ((twist, multiplicity),))


def zero_sheaf() -> SheafExpr:
    return SheafExpr()
