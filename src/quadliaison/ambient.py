"""The two ambient spaces: projective n-space and the smooth quadric threefold."""

from __future__ import annotations

from collections import namedtuple

from .hilbert import h0_proj, h0_proj_row, h0_quadric3, h0_quadric3_row


class Ambient(namedtuple("Ambient", "kind dim")):
    """Either P^n with 2 <= n <= 4 (kind ``"proj"``) or the quadric threefold
    (kind ``"quadric3"``).

    ``dim`` is the dimension of the space itself, so the quadric threefold
    has dim 3 even though it lives in P^4.
    """

    __slots__ = ()

    def __new__(cls, kind: str, dim: int) -> Ambient:
        if kind == "proj":
            if dim < 2:
                raise ValueError(f"projective ambient needs dim >= 2, got {dim}")
            if dim > 4:
                raise ValueError(f"projective ambient needs dim <= 4, got {dim}")
        elif kind == "quadric3":
            if dim != 3:
                raise ValueError("the quadric threefold has dimension 3")
        else:
            raise ValueError(f"unknown ambient kind {kind!r}")
        return super().__new__(cls, kind, dim)

    @property
    def is_quadric(self) -> bool:
        return self.kind == "quadric3"

    def h0(self, k: int) -> int:
        """Sections of O(k) on this space."""
        if self.is_quadric:
            return h0_quadric3(k)
        return h0_proj(self.dim, k)

    def h0_row(self, lo: int, hi: int) -> list[int]:
        """``[self.h0(k) for k in range(lo, hi + 1)]``, computed row-wise."""
        if self.is_quadric:
            return h0_quadric3_row(lo, hi)
        return h0_proj_row(self.dim, lo, hi)

    def label(self) -> str:
        return "quadric3" if self.is_quadric else f"p{self.dim}"

    __str__ = label


P2 = Ambient("proj", 2)
P3 = Ambient("proj", 3)
P4 = Ambient("proj", 4)
QUADRIC3 = Ambient("quadric3", 3)
