"""Formal direct sums of twisted line bundles and spinor-type summands.

Expressions are multisets of atoms, canonicalized on construction so that
equality is syntactic: line bundles before spinor summands, twists
descending within each kind.  All arithmetic (rank, first Chern number,
section counts) is atom-wise and exact.

``SheafExpr.h0`` is the hot kernel of kernel classification.  It is one
loop over the (kind, twist), multiplicity pairs that calls
``hilbert.h0_spinor`` or the ambient's ``h0`` directly, with no method
call per atom.
"""

from __future__ import annotations

from enum import IntEnum
from itertools import groupby
from typing import Callable, NamedTuple

from . import hilbert
from .ambient import QUADRIC3, Ambient


class AtomKind(IntEnum):
    LINE = 0
    SPINOR = 1


class TwistAtom(NamedTuple):
    """A single summand: O(twist) or E0(twist)."""

    kind: AtomKind
    twist: int

    @property
    def rank(self) -> int:
        return hilbert.SPINOR_RANK if self.kind is AtomKind.SPINOR else 1

    @property
    def c1(self) -> int:
        # c1(O(a)) = a; c1(E0(a)) = 2a + c1(E0) in hyperplane-class units.
        if self.kind is AtomKind.SPINOR:
            return hilbert.SPINOR_RANK * self.twist + hilbert.SPINOR_C1
        return self.twist

    def shifted(self, t: int) -> "TwistAtom":
        return TwistAtom(self.kind, self.twist + t)

    def dualized(self) -> "TwistAtom":
        # O(a)^v = O(-a); E0(a)^v = E0(3-a), from E0^v = E0(3).
        if self.kind is AtomKind.SPINOR:
            return TwistAtom(self.kind, hilbert.SPINOR_DUAL_SHIFT - self.twist)
        return TwistAtom(self.kind, -self.twist)

    def sort_key(self) -> tuple:
        return (int(self.kind), -self.twist)

    def render(self) -> str:
        name = "E0" if self.kind is AtomKind.SPINOR else "O"
        return f"{name}({self.twist})"


def _canonicalize(
    atoms,
) -> tuple[tuple[TwistAtom, int], ...]:
    merged: dict[TwistAtom, int] = {}
    for atom, mult in atoms:
        if mult < 0:
            raise ValueError(f"negative multiplicity {mult} for {atom.render()}")
        if mult:
            merged[atom] = merged.get(atom, 0) + mult
    return tuple(
        (atom, merged[atom]) for atom in sorted(merged, key=TwistAtom.sort_key)
    )


class SheafExpr:
    """Direct sum of twisted atoms over a fixed ambient space.

    ``atoms`` is a canonical tuple of (atom, multiplicity) pairs; an empty
    tuple is the zero sheaf.  Spinor atoms require the quadric ambient.
    Instances are immutable and compare and hash by (atoms, ambient).
    """

    __slots__ = ("atoms", "ambient")

    def __init__(
        self, atoms: tuple[tuple[TwistAtom, int], ...] = (), ambient: Ambient = QUADRIC3
    ) -> None:
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "ambient", ambient)
        self.__post_init__()

    def __post_init__(self) -> None:
        # every public construction canonicalizes here; _replace_atoms skips it
        canon = _canonicalize(self.atoms)
        object.__setattr__(self, "atoms", canon)
        if not self.ambient.is_quadric:
            for atom, _ in canon:
                if atom.kind is AtomKind.SPINOR:
                    raise ValueError(
                        "spinor summands only exist on the quadric threefold"
                    )

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable SheafExpr")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.atoms, self.ambient) == (other.atoms, other.ambient)

    def __hash__(self) -> int:
        return hash((self.atoms, self.ambient))

    def __repr__(self) -> str:
        return f"SheafExpr(atoms={self.atoms!r}, ambient={self.ambient!r})"

    def __reduce__(self) -> tuple:
        return (SheafExpr, (self.atoms, self.ambient))

    @property
    def is_zero(self) -> bool:
        return not self.atoms

    @property
    def rank(self) -> int:
        return sum(atom.rank * mult for atom, mult in self.atoms)

    @property
    def c1(self) -> int:
        return sum(atom.c1 * mult for atom, mult in self.atoms)

    def _replace_atoms(self, atoms: tuple) -> "SheafExpr":
        # constructor bypass for transforms that keep the tuple canonical
        clone = object.__new__(SheafExpr)
        object.__setattr__(clone, "atoms", atoms)
        object.__setattr__(clone, "ambient", self.ambient)
        return clone

    def twist(self, t: int) -> "SheafExpr":
        # a uniform shift preserves kinds, distinctness, and sort order
        if t == 0:
            return self
        return self._replace_atoms(
            tuple((atom.shifted(t), mult) for atom, mult in self.atoms)
        )

    def dual(self) -> "SheafExpr":
        # dualizing negates twists within each kind, so reversing each
        # kind block restores the descending-twist canonical order
        lines = []
        spinors = []
        for atom, mult in self.atoms:
            block = spinors if atom.kind is AtomKind.SPINOR else lines
            block.append((atom.dualized(), mult))
        lines.reverse()
        spinors.reverse()
        return self._replace_atoms(tuple(lines + spinors))

    def h0(self, n: int) -> int:
        # AtomKind.LINE is 0, so a falsy kind is a line bundle; both counts
        # are looked up on each call, through their module or ambient
        spinor_h0 = hilbert.h0_spinor
        line_h0 = self.ambient.h0
        total = 0
        for (kind, twist), mult in self.atoms:
            total += (spinor_h0(twist + n) if kind else line_h0(twist + n)) * mult
        return total

    def __add__(self, other: "SheafExpr") -> "SheafExpr":
        if not isinstance(other, SheafExpr):
            return NotImplemented
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        if self.ambient != other.ambient:
            raise ValueError("cannot add expressions over different ambients")
        return SheafExpr(self.atoms + other.atoms, self.ambient)

    def without(self, other: "SheafExpr") -> "SheafExpr":
        """Multiset difference; fails if ``other`` is not contained in self."""
        if not other.is_zero and self.ambient != other.ambient:
            raise ValueError("cannot subtract expressions over different ambients")
        counts = {atom: mult for atom, mult in self.atoms}
        for atom, mult in other.atoms:
            have = counts.get(atom, 0)
            if have < mult:
                raise ValueError(
                    f"expression lacks {mult} copies of {atom.render()}"
                )
            counts[atom] = have - mult
        return SheafExpr(tuple(counts.items()), self.ambient)

    def render(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for atom, mult in self.atoms:
            text = atom.render()
            parts.append(f"{mult}*{text}" if mult >= 2 else text)
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()


def line_bundle(twist: int, multiplicity: int = 1, ambient: Ambient = QUADRIC3) -> SheafExpr:
    """multiplicity copies of O(twist)."""
    return SheafExpr(((TwistAtom(AtomKind.LINE, twist), multiplicity),), ambient)


def spinor(twist: int, multiplicity: int = 1) -> SheafExpr:
    """multiplicity copies of E0(twist); quadric threefold only."""
    return SheafExpr(((TwistAtom(AtomKind.SPINOR, twist), multiplicity),), QUADRIC3)


def zero_sheaf(ambient: Ambient = QUADRIC3) -> SheafExpr:
    return SheafExpr((), ambient)


def sum_builder(twists: range) -> Callable[[tuple, tuple], SheafExpr]:
    """A builder of quadric sums that share one atom per kind and twist.

    ``build(lines, spinors)`` is the sum of O(b) for b in ``lines`` and
    E0(a) for a in ``spinors``.  Both tuples must be non-increasing and
    drawn from ``twists``: runs of equal twists then become multiplicities
    in canonical order, so the sum skips the constructor's canonicalization.
    """
    template = zero_sheaf()
    line_atoms = {t: TwistAtom(AtomKind.LINE, t) for t in twists}
    spinor_atoms = {t: TwistAtom(AtomKind.SPINOR, t) for t in twists}

    def build(lines: tuple, spinors: tuple) -> SheafExpr:
        return template._replace_atoms(
            tuple((line_atoms[t], len(list(run))) for t, run in groupby(lines))
            + tuple((spinor_atoms[t], len(list(run))) for t, run in groupby(spinors))
        )

    return build
