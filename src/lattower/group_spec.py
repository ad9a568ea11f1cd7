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
from collections import Counter
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from math import factorial
from typing import Iterable, Mapping

from .errors import (
    DegreeTooLarge,
    DegreeTooSmall,
    IllegalChainPosition,
    NegativeExponent,
    SpecParseError,
    TooLarge,
)

__all__ = [
    "MAX_DEGREE",
    "MAX_MULTIPLICITY",
    "DEFAULT_MAX_ORDER",
    "LEMMA_GROUP_DEGREES",
    "ChainPosition",
    "FactorSlot",
    "TowerGroupSpec",
    "make_spec",
    "spec_of_degrees",
    "parse_spec",
    "format_spec",
    "chain",
    "position_size",
]

MAX_DEGREE = 20
# Copies of one degree a spec may hold.  Only the tower reads specs this
# large, from the multiplicities alone; ``slots`` holds one slot per copy.
MAX_MULTIPLICITY = 1000
# The largest permutation group the oracle builds by default.
DEFAULT_MAX_ORDER = 5000
# The small groups the tower visits whose lattices the oracle builds
# (``perm_oracle.lemma_lattices``), and that ``hasse`` takes by name.
LEMMA_GROUP_DEGREES: dict[str, tuple[int, ...]] = {
    "C2": (2,),
    "C2^2": (2, 2),
    "C2xS3": (2, 3),
    "C2xS4": (2, 4),
    "C2xS5": (2, 5),
}


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


def chain(degree: int) -> tuple[ChainPosition, ...]:
    """Chain of normal subgroups of S_degree, bottom to top."""
    if degree < 3:
        raise DegreeTooSmall(f"symmetric factor needs degree >= 3, got {degree}")
    if degree == 4:
        return (ChainPosition.TRIV, ChainPosition.V, ChainPosition.ALT, ChainPosition.FULL)
    return (ChainPosition.TRIV, ChainPosition.ALT, ChainPosition.FULL)


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
    """A tower group, canonically presented by its ``exponents`` alone.

    ``exponents`` lists (degree, multiplicity) pairs with ascending degree and
    positive multiplicity.  The slot counts are derived from it once, when the
    spec is made: ``num_slots`` counts every slot, ``a4`` the class-A slots and
    ``b`` the rest.  ``degrees`` and ``slots``, which list the factors in
    canonical order, are derived on first use.
    """

    exponents: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        # plain attributes, not fields: equality, hashing and repr read the
        # exponents alone
        num_slots = a4 = 0
        for degree, mult in self.exponents:
            num_slots += mult
            if degree == 4:
                a4 += mult
        set_attr = object.__setattr__  # the spec is frozen
        set_attr(self, "num_slots", num_slots)
        set_attr(self, "a4", a4)
        set_attr(self, "b", num_slots - a4)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(degree for degree, mult in self.exponents for _ in range(mult))

    @cached_property
    def slots(self) -> tuple[FactorSlot, ...]:
        pairs = [(degree, copy) for degree, mult in self.exponents for copy in range(1, mult + 1)]
        return tuple(FactorSlot(degree, copy, index) for index, (degree, copy) in enumerate(pairs))

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


def make_spec(exponents: Mapping[int, int]) -> TowerGroupSpec:
    """Validate a degree -> multiplicity map and build the canonical spec.

    Zero multiplicities are dropped; the empty map gives the trivial group.
    A degree above MAX_DEGREE raises DegreeTooLarge, and a multiplicity
    above MAX_MULTIPLICITY raises TooLarge.  No slot is built here.
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
        if degree > MAX_DEGREE:
            raise DegreeTooLarge(f"degree {degree} exceeds the maximum {MAX_DEGREE}")
        if mult > MAX_MULTIPLICITY:
            raise TooLarge(f"{mult} copies of S{degree} exceeds the bound {MAX_MULTIPLICITY}")
        cleaned.append((degree, mult))
    return TowerGroupSpec(tuple(cleaned))


def spec_of_degrees(degrees: Iterable[int]) -> TowerGroupSpec:
    """The spec with one slot per listed degree, in any order: (4, 3, 4) is S4^2*S3."""
    return make_spec(Counter(degrees))


_PART_RE = re.compile(r"s(\d+)(?:\^(\d+))?", re.IGNORECASE)


def parse_spec(text: str) -> TowerGroupSpec:
    """Parse a literal like ``S3^3`` or ``S4^2*S3^2`` (case and spaces ignored).

    ``1`` denotes the trivial group.  Repeated factors accumulate, so
    ``S3*S3`` equals ``S3^2``.
    """
    squeezed = "".join(text.split())
    if squeezed == "":
        raise SpecParseError(text, 0, "empty group literal")
    if squeezed == "1":
        return make_spec({})
    exponents: dict[int, int] = {}
    position = 0  # where the part starts in ``squeezed``
    for part in squeezed.split("*"):
        m = _PART_RE.fullmatch(part)
        if m is None:
            message = f"bad factor {part!r}" if part else "empty factor"
            raise SpecParseError(text, _index_in(text, position), message)
        digits, power = m.groups()
        try:
            degree = int(digits)
            mult = int(power) if power else 1
        except ValueError:  # more digits than int() will convert
            raise SpecParseError(text, _index_in(text, position), "number too long") from None
        if mult == 0:
            raise SpecParseError(text, _index_in(text, position), "explicit zero multiplicity")
        exponents[degree] = exponents.get(degree, 0) + mult
        position += len(part) + 1
    return make_spec(exponents)


def _index_in(text: str, position: int) -> int:
    """The index in ``text`` of ``position`` in ``text`` without its whitespace."""
    kept = [i for i, ch in enumerate(text) if not ch.isspace()]
    return kept[position] if position < len(kept) else kept[-1] + 1


def format_spec(spec: TowerGroupSpec) -> str:
    """Render the canonical literal, highest degree first; trivial group is 1."""
    if spec.is_trivial:
        return "1"
    return "*".join([f"S{d}" if m == 1 else f"S{d}^{m}" for d, m in reversed(spec.exponents)])
