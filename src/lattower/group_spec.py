"""Tower groups: finite products of symmetric groups of degree at least 3.

A tower group is described by the multiplicities of its symmetric factors,
for example ``{4: 2, 3: 2}`` for S4 x S4 x S3 x S3.  Each factor occupies a
slot; slots are ordered by (degree, copy) and indexed from 0.  Degree-4 slots
are class A, every other slot is class B.  The distinction matters because a
degree-4 factor has a four-level chain of normal subgroups while every other
degree has a three-level chain.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import IntEnum
from math import factorial
from typing import Mapping

from .errors import (
    ChainLengthMismatch,
    DegreeTooLarge,
    DegreeTooSmall,
    IllegalChainPosition,
    NegativeExponent,
    SpecParseError,
    TooLarge,
)

__all__ = [
    "DEFAULT_MAX_DEGREE",
    "MAX_MULTIPLICITY",
    "ChainPosition",
    "FactorSlot",
    "TowerGroupSpec",
    "make_spec",
    "parse_spec",
    "format_spec",
    "chain",
    "chain_iso",
    "position_size",
]

DEFAULT_MAX_DEGREE = 20
# Copies of one degree a spec may hold.  Only the tower reads specs this
# large, from the multiplicities alone, but a spec holds one slot per copy.
MAX_MULTIPLICITY = 1000


class ChainPosition(IntEnum):
    """Position in the normal-subgroup chain of a single symmetric factor.

    The integer order TRIV < V < ALT < FULL is the inclusion order.  V is the
    Klein four-group and exists only at degree 4.
    """

    TRIV = 0
    V = 1
    ALT = 2
    FULL = 3

    @property
    def token(self) -> str:
        return ("triv", "v4", "alt", "full")[self]

    @classmethod
    def from_token(cls, token: str) -> "ChainPosition":
        try:
            return _TOKEN_TO_POSITION[token]
        except KeyError:
            raise IllegalChainPosition(f"unknown chain position {token!r}") from None


_TOKEN_TO_POSITION = {p.token: p for p in ChainPosition}


def chain(degree: int) -> tuple[ChainPosition, ...]:
    """Chain of normal subgroups of S_degree, bottom to top."""
    if degree < 3:
        raise DegreeTooSmall(f"symmetric factor needs degree >= 3, got {degree}")
    if degree == 4:
        return (ChainPosition.TRIV, ChainPosition.V, ChainPosition.ALT, ChainPosition.FULL)
    return (ChainPosition.TRIV, ChainPosition.ALT, ChainPosition.FULL)


def chain_iso(degree: int, other: int) -> dict[ChainPosition, ChainPosition]:
    """The unique order isomorphism between two factor chains.

    Chains of equal length are matched level by level, so the map fixes every
    ChainPosition value.  Degree 4 pairs only with degree 4; any other pairing
    of a class-A slot with a class-B slot raises ChainLengthMismatch.
    """
    src, dst = chain(degree), chain(other)
    if len(src) != len(dst):
        raise ChainLengthMismatch(
            f"chains of S{degree} and S{other} have lengths {len(src)} and {len(dst)}"
        )
    return {p: q for p, q in zip(src, dst)}


def position_size(pos: ChainPosition, degree: int) -> int:
    """Number of permutations at a chain position of the given degree."""
    if pos is ChainPosition.TRIV:
        return 1
    if pos is ChainPosition.V:
        if degree != 4:
            raise IllegalChainPosition(f"position V needs degree 4, got {degree}")
        return 4
    if pos is ChainPosition.ALT:
        return factorial(degree) // 2
    return factorial(degree)


def legal_position(pos: ChainPosition, degree: int) -> bool:
    return pos is not ChainPosition.V or degree == 4


@dataclass(frozen=True)
class FactorSlot:
    """One symmetric factor: its degree, copy number (from 1) and slot index."""

    degree: int
    copy: int
    index: int

    @property
    def slot_class(self) -> str:
        return "A" if self.degree == 4 else "B"

    @property
    def label(self) -> str:
        return f"{self.degree}.{self.copy}"


@dataclass(frozen=True)
class TowerGroupSpec:
    """A tower group, canonically presented.

    ``exponents`` lists (degree, multiplicity) pairs with ascending degree and
    positive multiplicity.  ``slots`` enumerates the factors in canonical
    order.  ``a4`` counts class-A slots, ``b`` the rest.
    """

    exponents: tuple[tuple[int, int], ...]
    slots: tuple[FactorSlot, ...]
    num_slots: int
    a4: int
    b: int

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(s.degree for s in self.slots)

    @property
    def group_order(self) -> int:
        n = 1
        for k, a in self.exponents:
            n *= factorial(k) ** a
        return n

    @property
    def is_trivial(self) -> bool:
        return self.num_slots == 0

    def a_slots(self) -> tuple[int, ...]:
        return tuple(s.index for s in self.slots if s.slot_class == "A")

    def b_slots(self) -> tuple[int, ...]:
        return tuple(s.index for s in self.slots if s.slot_class == "B")

    def __str__(self) -> str:
        return format_spec(self)


def make_spec(
    exponents: Mapping[int, int], max_degree: int = DEFAULT_MAX_DEGREE
) -> TowerGroupSpec:
    """Validate a degree -> multiplicity map and build the canonical spec.

    Zero multiplicities are dropped; the empty map gives the trivial group.
    A multiplicity above MAX_MULTIPLICITY raises TooLarge before any slot is
    built.
    """
    cleaned: list[tuple[int, int]] = []
    for degree in sorted(exponents):
        mult = exponents[degree]
        if mult < 0:
            raise NegativeExponent(f"multiplicity of S{degree} is {mult}")
        if mult == 0:
            continue
        if degree < 3:
            raise DegreeTooSmall(f"symmetric factor needs degree >= 3, got {degree}")
        if degree > max_degree:
            raise DegreeTooLarge(f"degree {degree} exceeds the maximum {max_degree}")
        if mult > MAX_MULTIPLICITY:
            raise TooLarge(f"{mult} copies of S{degree} exceeds the bound {MAX_MULTIPLICITY}")
        cleaned.append((degree, mult))

    slots: list[FactorSlot] = []
    for degree, mult in cleaned:
        for copy in range(1, mult + 1):
            slots.append(FactorSlot(degree, copy, len(slots)))
    a4 = sum(1 for s in slots if s.degree == 4)
    return TowerGroupSpec(
        exponents=tuple(cleaned),
        slots=tuple(slots),
        num_slots=len(slots),
        a4=a4,
        b=len(slots) - a4,
    )


_PART_RE = re.compile(r"s(\d+)(?:\^(\d+))?", re.IGNORECASE)


def parse_spec(text: str, max_degree: int = DEFAULT_MAX_DEGREE) -> TowerGroupSpec:
    """Parse a literal like ``S3^3`` or ``S4^2*S3^2`` (case and spaces ignored).

    ``1`` denotes the trivial group.  Repeated factors accumulate, so
    ``S3*S3`` equals ``S3^2``.
    """
    squeezed = re.sub(r"\s+", "", text)
    if squeezed == "":
        raise SpecParseError(text, 0, "empty group literal")
    if squeezed == "1":
        return make_spec({})
    exponents: dict[int, int] = {}
    position = 0
    for part in squeezed.split("*"):
        if part == "":
            raise SpecParseError(text, position, "empty factor")
        m = _PART_RE.fullmatch(part)
        if m is None:
            raise SpecParseError(text, position, f"bad factor {part!r}")
        try:
            degree = int(m.group(1))
            mult = int(m.group(2)) if m.group(2) else 1
        except ValueError:  # more digits than int() will convert
            raise SpecParseError(text, position, "number too long") from None
        if mult == 0:
            raise SpecParseError(text, position, "explicit zero multiplicity")
        exponents[degree] = exponents.get(degree, 0) + mult
        position += len(part) + 1
    return make_spec(exponents, max_degree=max_degree)


def format_spec(spec: TowerGroupSpec) -> str:
    """Render the canonical literal, highest degree first; trivial group is 1."""
    if spec.is_trivial:
        return "1"
    parts = []
    for degree, mult in sorted(spec.exponents, reverse=True):
        parts.append(f"S{degree}" if mult == 1 else f"S{degree}^{mult}")
    return "*".join(parts)
