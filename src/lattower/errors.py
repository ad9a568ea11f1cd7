"""Exception types shared across the package, and the text of a number in their messages."""

from __future__ import annotations

__all__ = [
    "LatTowerError",
    "DegreeTooSmall",
    "DegreeTooLarge",
    "NegativeExponent",
    "SpecParseError",
    "IllegalChainPosition",
    "WidthMismatch",
    "BadCoordinate",
    "UnitVectorInH",
    "DeadCoordinate",
    "InvalidProfile",
    "SpecMismatch",
    "TooLarge",
    "ClassViolation",
    "OracleMismatch",
    "NonTermination",
    "decimal",
]


class LatTowerError(Exception):
    """Base class for all errors raised by this package."""


class DegreeTooSmall(LatTowerError):
    """A symmetric factor of degree below 3 was requested."""


class DegreeTooLarge(LatTowerError):
    """A symmetric factor above the configured maximum degree."""


class NegativeExponent(LatTowerError):
    """A factor multiplicity below zero."""


class SpecParseError(LatTowerError):
    """Malformed group literal such as ``S3^^2`` or ``X5``."""

    def __init__(self, text: str, position: int, message: str):
        super().__init__(f"{message} at position {position} in {text!r}")
        self.text = text
        self.position = position


class IllegalChainPosition(LatTowerError):
    """Chain position not available at the given degree (V needs degree 4)."""


class WidthMismatch(LatTowerError):
    """Vector or subspace widths disagree."""


class BadCoordinate(LatTowerError):
    """Coordinate index outside the ambient width, or not strictly increasing."""


class UnitVectorInH(LatTowerError):
    """A sign subgroup contains a unit vector, so the coupling is fake."""

    def __init__(self, slot: int):
        super().__init__(f"sign subgroup contains the unit vector at slot {slot}")
        self.slot = slot


class DeadCoordinate(LatTowerError):
    """A coupled slot carries no odd sign anywhere in the sign subgroup."""

    def __init__(self, slot: int):
        super().__init__(f"no sign pattern is odd at coupled slot {slot}")
        self.slot = slot


class InvalidProfile(LatTowerError):
    """Profile violates the support or activity conditions."""


class SpecMismatch(LatTowerError):
    """Operands belong to lattices of different groups."""


class TooLarge(LatTowerError):
    """Requested computation exceeds a configured size bound."""


class ClassViolation(LatTowerError):
    """Slot permutation mixes degree-4 slots with other slots."""


class OracleMismatch(LatTowerError):
    """Independent permutation computation disagrees with the enumeration."""


class NonTermination(LatTowerError):
    """Tower iteration failed to reach the trivial group within the step cap."""


def decimal(n: int) -> str | None:
    """n in decimal, or None past the interpreter's int-to-str digit limit,
    which stays as it is: the text of a number in a TooLarge message."""
    try:
        return str(n)
    except ValueError:
        return None
