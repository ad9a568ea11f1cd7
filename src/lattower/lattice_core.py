"""Normal subgroups of a tower group, classified by admissible triples.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, product
from math import factorial
from operator import or_
from typing import Iterable, Iterator, Mapping

from .errors import (
    InvalidProfile,
    NotMixed,
    SpecMismatch,
    TooLarge,
    UnitVectorInH,
    DeadCoordinate,
    IllegalChainPosition,
    WidthMismatch,
    LatTowerError,
)
from .gf2 import Subspace, iter_subspaces, parity_kernel, span, unit_span, zero_subspace
from .group_spec import (
    ChainPosition,
    TowerGroupSpec,
    chain,
    format_spec,
    legal_position,
    position_size,
)

__all__ = [
    "FAMILY_SUB_PRODUCT",
    "FAMILY_SIGN_PARITY",
    "FAMILY_MIXED",
    "AdmissibleTriple",
    "TripleKey",
    "Profile",
    "LatticeElement",
    "Census",
    "Lattice",
    "AbstractLattice",
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
    "enumerate_lattice",
    "decompose_mixed",
    "sub_product_element",
    "sign_parity_element",
    "bottom_element",
    "top_element",
    "DEFAULT_MAX_SLOTS",
]

DEFAULT_MAX_SLOTS = 8

FAMILY_SUB_PRODUCT = "sub-product"
FAMILY_SIGN_PARITY = "sign-parity"
FAMILY_MIXED = "mixed"


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

    @property
    def position_map(self) -> dict[int, ChainPosition]:
        return dict(self.positions)


# An admissible triple within a known spec: (coupled, positions, signs.basis).
TripleKey = tuple[tuple[int, ...], tuple[tuple[int, ChainPosition], ...], tuple[int, ...]]


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


@dataclass(frozen=True)
class Census:
    sub_products: int
    sign_parity: int
    mixed: int
    total: int


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
    coupled_t = tuple(sorted(coupled))
    if len(set(coupled_t)) != len(coupled_t):
        raise LatTowerError(f"repeated coupled slot in {coupled_t}")
    for s in coupled_t:
        if not 0 <= s < spec.num_slots:
            raise LatTowerError(f"slot {s} outside 0..{spec.num_slots - 1}")

    if isinstance(positions, Mapping):
        pos_items = tuple(sorted(positions.items()))
    else:
        pos_items = tuple(sorted(positions))
    expected = set(range(spec.num_slots)) - set(coupled_t)
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
    vectors = []
    for row in t.signs.basis:
        w = 0
        for j, s in enumerate(t.coupled):
            if (row >> j) & 1:
                w |= 1 << s
        vectors.append(w)
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


@lru_cache(maxsize=None)
def _admissible_subspaces(width: int) -> tuple[Subspace, ...]:
    """Sign subgroups passing both admissibility conditions, fixed order."""
    full = (1 << width) - 1
    out = []
    for s in iter_subspaces(width):
        if s.active_mask() != full:
            continue
        if any(s.contains(1 << j) for j in range(width)):
            continue
        out.append(s)
    return tuple(out)


def enumerate_lattice(spec: TowerGroupSpec, max_slots: int = DEFAULT_MAX_SLOTS) -> "Lattice":
    """All normal subgroups, by direct enumeration of admissible triples.

    Iterates the coupled set as a bitmask in ascending order, then the sign
    subgroup, then the chain positions of the uncoupled slots, so the output
    order is deterministic.  The first element is the trivial subgroup.
    """
    n = spec.num_slots
    if n > max_slots:
        raise TooLarge(f"{n} slots exceeds the enumeration bound {max_slots}")
    elements: list[LatticeElement] = []
    chains = [chain(s.degree) for s in spec.slots]
    for j_mask in range(1 << n):
        coupled = tuple(s for s in range(n) if (j_mask >> s) & 1)
        subspaces = _admissible_subspaces(len(coupled))
        if not subspaces:
            continue
        off = tuple(s for s in range(n) if not (j_mask >> s) & 1)
        for signs in subspaces:
            for combo in product(*(chains[s] for s in off)):
                t = AdmissibleTriple(spec, coupled, tuple(zip(off, combo)), signs)
                elements.append(element_from_triple(t))
    counts = {FAMILY_SUB_PRODUCT: 0, FAMILY_SIGN_PARITY: 0, FAMILY_MIXED: 0}
    for e in elements:
        counts[e.family] += 1
    census = Census(
        sub_products=counts[FAMILY_SUB_PRODUCT],
        sign_parity=counts[FAMILY_SIGN_PARITY],
        mixed=counts[FAMILY_MIXED],
        total=len(elements),
    )
    return Lattice(spec, tuple(elements), census)


def sub_product_element(
    spec: TowerGroupSpec, positions: Mapping[int, ChainPosition]
) -> LatticeElement:
    """The uncoupled normal subgroup with the given component per slot."""
    return element_from_triple(validate_triple(spec, (), positions, zero_subspace(0)))


def sign_parity_element(spec: TowerGroupSpec, slots: Iterable[int]) -> LatticeElement:
    """D_I: full everywhere, even total sign across the slots of I (|I| >= 2)."""
    slots_t = tuple(sorted(slots))
    if len(slots_t) < 2:
        raise LatTowerError(f"sign-parity element needs at least 2 slots, got {slots_t}")
    positions = {
        s: ChainPosition.FULL for s in range(spec.num_slots) if s not in set(slots_t)
    }
    return element_from_triple(
        validate_triple(spec, slots_t, positions, parity_kernel(len(slots_t)))
    )


def bottom_element(spec: TowerGroupSpec) -> LatticeElement:
    return sub_product_element(spec, {s: ChainPosition.TRIV for s in range(spec.num_slots)})


def top_element(spec: TowerGroupSpec) -> LatticeElement:
    return sub_product_element(spec, {s: ChainPosition.FULL for s in range(spec.num_slots)})


def decompose_mixed(e: LatticeElement) -> tuple[LatticeElement, list[tuple[int, ...]]]:
    """Write a mixed element as a sub-product met with sign-parity elements.

    The parity index sets come from a basis of the annihilator of H, pulled
    back to global slot indices; admissibility guarantees every basis vector
    touches at least two slots.  The result is checked by recomputing the
    meet.  The decomposition depends on the echelon basis chosen for the
    annihilator and is not unique.
    """
    if e.family != FAMILY_MIXED:
        raise NotMixed(f"element of family {e.family!r}")
    t = e.triple
    spec = t.spec
    positions = dict(t.positions)
    for s in t.coupled:
        positions[s] = ChainPosition.FULL
    envelope = sub_product_element(spec, positions)
    parity_sets: list[tuple[int, ...]] = []
    for row in t.signs.annihilator().basis:
        idx = tuple(t.coupled[j] for j in range(len(t.coupled)) if (row >> j) & 1)
        if len(idx) < 2:
            raise LatTowerError("annihilator basis vector with support below 2")
        parity_sets.append(idx)
    recombined = envelope
    for idx in parity_sets:
        recombined = meet(recombined, sign_parity_element(spec, idx))
    if recombined.triple != t:
        raise LatTowerError("meet decomposition failed to recompose the element")
    return envelope, parity_sets


class AbstractLattice:
    """A finite lattice given purely by its order relation.

    ``down_masks[j]`` is the bitmask of all i with i <= j, including j.  No
    element data is kept, so consumers of this class cannot accidentally peek
    at triples or subgroup sets.
    """

    def __init__(self, down_masks: Iterable[int]):
        self.down = tuple(down_masks)
        self.n = len(self.down)
        # the up sets fill in as bit buffers: OR-ing 1 << j into an int
        # would copy the whole int once per set bit
        rows = [bytearray((self.n + 7) // 8) for _ in range(self.n)]
        for j, mask in enumerate(self.down):
            if not (mask >> j) & 1:
                raise LatTowerError(f"down set of {j} misses {j} itself")
            if mask >> self.n:
                raise LatTowerError(f"down set of {j} names elements outside 0..{self.n - 1}")
            byte, bit = j >> 3, 1 << (j & 7)
            while mask:
                i = mask.bit_length() - 1
                rows[i][byte] |= bit
                mask ^= 1 << i
        self.up = tuple(int.from_bytes(row, "little") for row in rows)

    def __len__(self) -> int:
        return self.n

    def leq(self, i: int, j: int) -> bool:
        return bool((self.down[j] >> i) & 1)

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Pairs (i, j) with j covering i, sorted.

        The elements that j covers are the maximal elements of its strict
        down set, the candidates.  Climbing from any candidate to any
        candidate strictly above it ends, within the height of the poset, at
        a maximal candidate i.  Emit (i, j), drop i and everything below it
        from the candidates, and climb again until none is left.  This is
        exact: dropping down[i] removes no other maximal candidate, since
        those are incomparable with i; and a later climb cannot end below a
        dropped candidate, because it would then have been dropped with it.
        The cost is one climb per cover edge instead of a test per pair.
        """
        out = []
        for j, mask in enumerate(self.down):
            candidates = mask ^ (1 << j)
            while candidates:
                # element orders put larger elements late, so starting from
                # the highest index usually makes the climb empty
                i = candidates.bit_length() - 1
                while True:
                    above = (self.up[i] & candidates) ^ (1 << i)
                    if not above:
                        break
                    i = above.bit_length() - 1
                out.append((i, j))
                candidates &= ~self.down[i]
        out.sort()
        return tuple(out)

    @cached_property
    def up_covers(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.covers:
            out[i].append(j)
        return tuple(tuple(sorted(x)) for x in out)

    @cached_property
    def down_covers(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.covers:
            out[j].append(i)
        return tuple(tuple(sorted(x)) for x in out)

    @cached_property
    def heights(self) -> tuple[int, ...]:
        h = [0] * self.n
        for i in sorted(range(self.n), key=lambda x: bin(self.down[x]).count("1")):
            below = self.down_covers[i]
            h[i] = 1 + max((h[j] for j in below), default=-1)
        return tuple(h)

    @cached_property
    def depths(self) -> tuple[int, ...]:
        d = [0] * self.n
        for i in sorted(range(self.n), key=lambda x: bin(self.up[x]).count("1")):
            above = self.up_covers[i]
            d[i] = 1 + max((d[j] for j in above), default=-1)
        return tuple(d)


def _triple_key(t: AdmissibleTriple) -> TripleKey:
    return t.coupled, t.positions, t.signs.basis


class Lattice:
    """The enumerated lattice of one tower group, in a fixed element order.

    The indexes below are built on first use, so enumerating pays for none.
    """

    def __init__(self, spec: TowerGroupSpec, elements: tuple[LatticeElement, ...], census: Census):
        self.spec = spec
        self.elements = elements
        self.census = census

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[LatticeElement]:
        return iter(self.elements)

    @cached_property
    def _key_index(self) -> dict[TripleKey, int]:
        return {_triple_key(e.triple): i for i, e in enumerate(self.elements)}

    @cached_property
    def _profile_index(self) -> dict[Profile, int]:
        return {e.profile: i for i, e in enumerate(self.elements)}

    def index_of(self, e: LatticeElement) -> int:
        return self.index_of_triple(e.triple)

    def index_of_triple(self, t: AdmissibleTriple) -> int:
        if t.spec != self.spec:
            raise SpecMismatch(f"triple of {format_spec(t.spec)} in {format_spec(self.spec)}")
        return self._key_index[_triple_key(t)]

    def index_of_key(self, key: TripleKey) -> int:
        """Look an element up by (coupled, positions, reduced sign basis).

        Within one spec that key pins a triple down, and it hashes without
        the spec and without building a validated triple or subspace.
        """
        return self._key_index[key]

    def index_of_profile(self, p: Profile) -> int:
        return self._profile_index[p]

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        """``down_masks[j]`` is the bitmask of all i with element i <= element j.

        This is ``leq`` evaluated for a whole column at once.  Element i lies
        below element j exactly when eff_i[s] <= eff_j[s] at every slot s and
        W_i is inside W_j.  One sweep over the elements collects ``le[s][p]``,
        the elements with eff[s] <= p, and ``has[v]``, the elements whose W
        contains the sign vector v.  Then

            down[j] = AND_s le[s][eff_j[s]]  &  ~(OR_{v not in W_j} has[v]).

        The first factor is the componentwise test read off one column per
        slot.  The second is exact because W_i lies inside W_j precisely when
        W_i holds no vector outside W_j.  It depends on W_j alone, so it is
        computed once per distinct sign subspace.
        """
        num_slots = self.spec.num_slots
        at = [[0] * len(ChainPosition) for _ in range(num_slots)]
        with_signs: dict[Subspace, int] = {}
        for i, e in enumerate(self.elements):
            bit = 1 << i
            for s, pos in enumerate(e.profile.eff):
                at[s][pos] |= bit
            w = e.profile.signs
            with_signs[w] = with_signs.get(w, 0) | bit
        le = [list(accumulate(row, or_)) for row in at]
        has = [0] * (1 << num_slots)
        for w, mask in with_signs.items():
            for v in w.elements():
                has[v] |= mask
        everything = (1 << len(self.elements)) - 1
        inside: dict[Subspace, int] = {}
        for w in with_signs:
            outside = 0
            for v in range(1 << num_slots):
                if not w.contains(v):
                    outside |= has[v]
            inside[w] = everything & ~outside
        masks = []
        for e in self.elements:
            m = inside[e.profile.signs]
            for s, pos in enumerate(e.profile.eff):
                m &= le[s][pos]
            masks.append(m)
        return tuple(masks)

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        return self.to_abstract().up

    @cached_property
    def _down_index(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.down_masks)}

    @cached_property
    def _up_index(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.up_masks)}

    def leq_idx(self, i: int, j: int) -> bool:
        return bool((self.down_masks[j] >> i) & 1)

    def meet_idx(self, i: int, j: int) -> int:
        return self._down_index[self.down_masks[i] & self.down_masks[j]]

    def join_idx(self, i: int, j: int) -> int:
        return self._up_index[self.up_masks[i] & self.up_masks[j]]

    @cached_property
    def bottom_index(self) -> int:
        for i, m in enumerate(self.down_masks):
            if m == 1 << i:
                return i
        raise LatTowerError("lattice has no bottom")

    @cached_property
    def top_index(self) -> int:
        for i, m in enumerate(self.up_masks):
            if m == 1 << i:
                return i
        raise LatTowerError("lattice has no top")

    def covers(self) -> tuple[tuple[int, int], ...]:
        return self.to_abstract().covers

    @cached_property
    def _abstract(self) -> AbstractLattice:
        return AbstractLattice(self.down_masks)

    def to_abstract(self) -> AbstractLattice:
        return self._abstract

    def to_json_dict(self) -> dict:
        """Stable JSON form: spec header, census, elements, covering edges."""
        return {
            "spec": format_spec(self.spec),
            "slots": [
                {"index": s.index, "degree": s.degree, "copy": s.copy, "class": s.slot_class}
                for s in self.spec.slots
            ],
            "census": {
                "sub_products": self.census.sub_products,
                "sign_parity": self.census.sign_parity,
                "mixed": self.census.mixed,
                "total": self.census.total,
            },
            "elements": [
                {
                    "index": i,
                    "family": e.family,
                    "order": e.order,
                    "triple": {
                        "J": list(e.triple.coupled),
                        "P": {str(s): p.token for s, p in e.triple.positions},
                        "H": list(e.triple.signs.to_strings()),
                    },
                }
                for i, e in enumerate(self.elements)
            ],
            "hasse_edges": [list(edge) for edge in self.covers()],
        }
