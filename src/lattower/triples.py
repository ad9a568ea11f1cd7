"""Normal subgroups of a tower group as objects: admissible triples and profiles.

Every normal subgroup N of a product of symmetric factors of degree >= 3 is
pinned down by three pieces of data:

* the coupled slots J, where N projects onto the full factor but meets it
  only in the alternating group;
* a chain position P per uncoupled slot, recording what N looks like there;
* a sign subgroup H <= GF(2)^J, recording which joint sign patterns occur on
  the coupled slots.

The triple is admissible when H contains no unit vector (a coupled slot with
a free unit sign would not really be coupled) and every coupled slot is odd
somewhere in H (a dead slot would project into the alternating part, hence
not be coupled either).  Conversely every admissible triple defines a normal
subgroup, so enumerating triples enumerates the whole lattice.

There is an equivalent flat encoding, the profile: the effective component
per slot (the projection of N, so FULL at every coupled slot) together with
the subspace W of all sign patterns of elements of N, taken over all slots at
once.  Inclusion, meet and join become componentwise comparisons plus plain
GF(2) arithmetic on W, which is what the lattice operations below use.  The
pattern-enumeration test ``leq_patterns`` stays independent of that encoding
so the two routes can be cross-checked.

``lattice_core`` enumerates the lattice with none of these objects built;
``Lattice.elements`` builds them on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Iterable, Mapping

from .errors import (
    DeadCoordinate,
    IllegalChainPosition,
    InvalidProfile,
    LatTowerError,
    SpecMismatch,
    UnitVectorInH,
    WidthMismatch,
)
from .gf2 import Subspace, _lift, parity_kernel, span, unit_span
from .group_spec import ChainPosition, TowerGroupSpec, format_spec, legal_position, position_size
from .lattice_core import FAMILY_MIXED, FAMILY_SIGN_PARITY, FAMILY_SUB_PRODUCT

__all__ = [
    "AdmissibleTriple",
    "Profile",
    "LatticeElement",
    "validate_triple",
    "triple_to_profile",
    "profile_to_triple",
    "classify",
    "order_of",
    "element_from_triple",
    "element_from_profile",
    "leq",
    "leq_patterns",
    "meet",
    "join",
]


@dataclass(frozen=True)
class AdmissibleTriple:
    """Canonical data (J, P, H) of one normal subgroup.

    ``coupled`` lists J in ascending slot order.  ``positions`` assigns a
    chain position to every slot outside J, ascending.  ``signs`` has width
    len(coupled), with coordinate j belonging to coupled[j].
    """

    spec: TowerGroupSpec
    coupled: tuple[int, ...]
    positions: tuple[tuple[int, ChainPosition], ...]
    signs: Subspace


@dataclass(frozen=True)
class Profile:
    """Flat encoding: effective component per slot plus all sign patterns.

    ``eff[s]`` is the projection of N onto slot s.  ``signs`` has width
    spec.num_slots and holds the sign pattern of every element of N.
    """

    spec: TowerGroupSpec
    eff: tuple[ChainPosition, ...]
    signs: Subspace


@dataclass(frozen=True)
class LatticeElement:
    triple: AdmissibleTriple
    profile: Profile
    family: str
    order: int

    @property
    def spec(self) -> TowerGroupSpec:
        return self.triple.spec


def validate_triple(
    spec: TowerGroupSpec,
    coupled: Iterable[int],
    positions: Mapping[int, ChainPosition] | Iterable[tuple[int, ChainPosition]],
    signs: Subspace,
) -> AdmissibleTriple:
    """Check admissibility and return the canonical triple.

    Raises UnitVectorInH or DeadCoordinate when the sign data fails one of
    the two admissibility conditions, IllegalChainPosition for a V position
    away from degree 4, WidthMismatch when the sign width does not match the
    number of coupled slots.
    """
    n = spec.num_slots
    coupled_t = tuple(sorted(coupled))
    if len(set(coupled_t)) != len(coupled_t):
        raise LatTowerError(f"repeated coupled slot in {coupled_t}")
    for s in coupled_t:
        if not 0 <= s < n:
            raise LatTowerError(f"slot {s} outside 0..{n - 1}")

    if isinstance(positions, Mapping):
        pos_items = tuple(sorted(positions.items()))
    else:
        pos_items = tuple(sorted(positions))
    expected = set(range(n)) - set(coupled_t)
    if {s for s, _ in pos_items} != expected or len(pos_items) != len(expected):
        raise LatTowerError("positions must cover exactly the uncoupled slots")
    for s, p in pos_items:
        if not legal_position(p, spec.slots[s].degree):
            raise IllegalChainPosition(
                f"position {p.token} at slot {s} of degree {spec.slots[s].degree}"
            )

    if signs.width != len(coupled_t):
        raise WidthMismatch(
            f"sign width {signs.width} but {len(coupled_t)} coupled slots"
        )
    active = signs.active_mask()
    for j, s in enumerate(coupled_t):
        if signs.contains(1 << j):
            raise UnitVectorInH(s)
        if not (active >> j) & 1:
            raise DeadCoordinate(s)
    return AdmissibleTriple(spec, coupled_t, pos_items, signs)


def triple_to_profile(t: AdmissibleTriple) -> Profile:
    """Effective components and the full sign-pattern subspace of N(J, P, H)."""
    n = t.spec.num_slots
    eff: list[ChainPosition | None] = [None] * n
    for s in t.coupled:
        eff[s] = ChainPosition.FULL
    for s, p in t.positions:
        eff[s] = p
    vectors = [_lift(row, t.coupled) for row in t.signs.basis]
    for s, p in t.positions:
        if p is ChainPosition.FULL:
            vectors.append(1 << s)
    return Profile(t.spec, tuple(eff), span(n, vectors))


def _check_profile(p: Profile) -> int:
    """Support and activity conditions; returns the FULL-slot mask."""
    n = p.spec.num_slots
    if p.signs.width != n:
        raise WidthMismatch(f"profile sign width {p.signs.width}, expected {n}")
    if len(p.eff) != n:
        raise InvalidProfile(f"profile has {len(p.eff)} components, expected {n}")
    full_mask = 0
    for s, pos in enumerate(p.eff):
        if not legal_position(pos, p.spec.slots[s].degree):
            raise InvalidProfile(f"position {pos.token} at degree {p.spec.slots[s].degree}")
        if pos is ChainPosition.FULL:
            full_mask |= 1 << s
    active = p.signs.active_mask()
    if active & ~full_mask:
        raise InvalidProfile("odd sign pattern at a slot that is not FULL")
    if full_mask & ~active:
        raise InvalidProfile("FULL slot with no odd sign pattern")
    return full_mask


def profile_to_triple(p: Profile) -> AdmissibleTriple:
    """Recover (J, P, H): J collects FULL slots whose unit pattern is missing."""
    _check_profile(p)
    coupled = []
    positions = []
    for s, pos in enumerate(p.eff):
        if pos is ChainPosition.FULL and not p.signs.contains(1 << s):
            coupled.append(s)
        else:
            positions.append((s, pos))
    signs = p.signs.project(tuple(coupled))
    return validate_triple(p.spec, coupled, positions, signs)


def classify(t: AdmissibleTriple) -> str:
    if not t.coupled:
        return FAMILY_SUB_PRODUCT
    if all(p is ChainPosition.FULL for _, p in t.positions) and t.signs == parity_kernel(
        len(t.coupled)
    ):
        return FAMILY_SIGN_PARITY
    return FAMILY_MIXED


def order_of(e: "LatticeElement | AdmissibleTriple") -> int:
    """Exact cardinality: |H| times half-factorials on J, position sizes off J."""
    t = e.triple if isinstance(e, LatticeElement) else e
    n = t.signs.size
    for s in t.coupled:
        n *= factorial(t.spec.slots[s].degree) // 2
    for s, p in t.positions:
        n *= position_size(p, t.spec.slots[s].degree)
    return n


def element_from_triple(t: AdmissibleTriple) -> LatticeElement:
    return LatticeElement(t, triple_to_profile(t), classify(t), order_of(t))


def element_from_profile(p: Profile) -> LatticeElement:
    t = profile_to_triple(p)
    canonical = triple_to_profile(t)
    if canonical != p:
        raise InvalidProfile("profile is not the exact sign image of its triple")
    return LatticeElement(t, canonical, classify(t), order_of(t))


def _check_same_spec(e1: LatticeElement, e2: LatticeElement) -> None:
    if e1.triple.spec != e2.triple.spec:
        raise SpecMismatch(
            f"elements of {format_spec(e1.triple.spec)} and {format_spec(e2.triple.spec)}"
        )


def leq(e1: LatticeElement, e2: LatticeElement) -> bool:
    """Inclusion via profiles: componentwise on eff, containment on signs."""
    _check_same_spec(e1, e2)
    for a, b in zip(e1.profile.eff, e2.profile.eff):
        if a > b:
            return False
    return e2.profile.signs.contains_subspace(e1.profile.signs)


def leq_patterns(e1: LatticeElement, e2: LatticeElement) -> bool:
    """Inclusion by direct test, independent of the profile encoding.

    N1 <= N2 needs (a) the effective component of N1 inside that of N2 at
    every slot, and (b) every sign pattern h of N1 on J1, extended by every
    achievable sign at the remaining coupled slots of N2, to land in H2.
    A slot of J2 outside J1 contributes both signs when N1 is FULL there and
    only the even sign otherwise.
    """
    _check_same_spec(e1, e2)
    eff1 = e1.profile.eff
    for a, b in zip(eff1, e2.profile.eff):
        if a > b:
            return False
    j2 = e2.triple.coupled
    if not j2:
        return True
    h2 = set(e2.triple.signs.elements())
    pos1 = {s: j for j, s in enumerate(e1.triple.coupled)}
    shared = [(j, pos1[s]) for j, s in enumerate(j2) if s in pos1]
    free = [j for j, s in enumerate(j2) if s not in pos1 and eff1[s] is ChainPosition.FULL]
    for h1 in e1.triple.signs.elements():
        base = 0
        for j, i in shared:
            if (h1 >> i) & 1:
                base |= 1 << j
        for eps in range(1 << len(free)):
            h_star = base
            for ti, j in enumerate(free):
                if (eps >> ti) & 1:
                    h_star |= 1 << j
            if h_star not in h2:
                return False
    return True


def meet(e1: LatticeElement, e2: LatticeElement) -> LatticeElement:
    """Intersection: componentwise minimum, then keep only the sign patterns
    realizable inside it, demoting FULL slots that lose all odd patterns."""
    _check_same_spec(e1, e2)
    spec = e1.triple.spec
    n = spec.num_slots
    eff = [min(a, b) for a, b in zip(e1.profile.eff, e2.profile.eff)]
    w = e1.profile.signs.intersect(e2.profile.signs)
    while True:
        full_mask = 0
        for s, pos in enumerate(eff):
            if pos is ChainPosition.FULL:
                full_mask |= 1 << s
        w = w.intersect(unit_span(n, full_mask))
        dead = full_mask & ~w.active_mask()
        if not dead:
            break
        for s in range(n):
            if (dead >> s) & 1:
                eff[s] = ChainPosition.ALT
    return element_from_profile(Profile(spec, tuple(eff), w))


def join(e1: LatticeElement, e2: LatticeElement) -> LatticeElement:
    """Product subgroup: componentwise maximum, sum of sign subspaces."""
    _check_same_spec(e1, e2)
    spec = e1.triple.spec
    eff = tuple(max(a, b) for a, b in zip(e1.profile.eff, e2.profile.eff))
    return element_from_profile(Profile(spec, eff, e1.profile.signs.sum(e2.profile.signs)))
