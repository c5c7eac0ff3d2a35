"""Exception hierarchy and the CLI exit code of each class.

- InfeasibleError (exit 2): the requested configuration cannot exist.  The
  liaison residual checks raise it directly with their message; its
  subclass NegativeDimension names the first twist where a section count
  of the curve's ideal or of a resolution kernel comes out negative.
- InconsistencyError (exit 3): an arithmetic cross-check on a resolution
  failed, or a kernel match is ambiguous.  Its subclass
  MappingConeInconsistent names the first failing twist of a mapping cone,
  or, when every cell passes but the rank/c1 check fails, has twist None,
  lhs (rank diff, c1 diff) and rhs (1, 0); it words its message from
  whether the twist is None, so both kinds of failure raise it the same way.
- RangeTooLarge (exit 1, a ValueError like every other usage error): an
  enumeration would exceed the candidate cap.
"""

from __future__ import annotations


class QLError(Exception):
    """Base class for all package errors."""


class InfeasibleError(QLError):
    """The requested configuration cannot exist."""


class NegativeDimension(InfeasibleError):
    """A section count came out negative at some twist."""

    def __init__(self, twist: int, value: int, message: str | None = None):
        self.twist = twist
        self.value = value
        super().__init__(
            message
            or f"section count {value} < 0 at twist {twist}: no such curve"
        )


class InconsistencyError(QLError):
    """An arithmetic cross-check on a resolution failed."""


class MappingConeInconsistent(InconsistencyError):
    """A mapping-cone output failed its section-count consistency check."""

    def __init__(self, twist: int | None, lhs: int | tuple[int, int], rhs: int | tuple[int, int]):
        self.twist = twist
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(
            f"consistency check failed at twist {twist}: {lhs} != {rhs}" if twist is not None
            else f"mapping cone output has rank diff {lhs[0]} (want {rhs[0]}), "
            f"c1 diff {lhs[1]} (want {rhs[1]})"
        )


class RangeTooLarge(QLError, ValueError):
    """An enumeration would exceed the hard candidate cap."""

    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"enumeration of {count} candidates exceeds cap {cap}")

