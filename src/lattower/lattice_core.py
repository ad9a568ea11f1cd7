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

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from math import comb, factorial, prod
from operator import lshift, or_
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .context import StandardContext
from .errors import (
    InvalidProfile,
    SpecMismatch,
    TooLarge,
    UnitVectorInH,
    DeadCoordinate,
    IllegalChainPosition,
    WidthMismatch,
    LatTowerError,
)
from .gf2 import (
    Subspace,
    _annihilator_mask,
    _lift,
    _perps,
    _pivot,
    iter_subspaces,
    parity_kernel,
    span,
    unit_span,
    zero_subspace,
)
from .group_spec import (
    ChainPosition,
    TowerGroupSpec,
    chain,
    format_spec,
    legal_position,
    position_size,
)
from .stabiliser import Perm

__all__ = [
    "FAMILY_SUB_PRODUCT",
    "FAMILY_SIGN_PARITY",
    "FAMILY_MIXED",
    "AdmissibleTriple",
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
    "census_of",
    "sub_product_element",
    "sign_parity_element",
    "bottom_element",
    "top_element",
    "MAX_CENSUS_SLOTS",
]

# census_of costs about T^3 bit operations: 2 ms on S3^240, 0.19 s on
# S4^150*S3^150 and 1.7 s on S4^250*S3^250 (Python 3.11.7).  From 240 slots
# on, every total is past the interpreter's 4,300-digit int-to-str limit, so
# this bound refuses no census that could be printed.
MAX_CENSUS_SLOTS = 300

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


def _eff_packer(digits: Iterable[int]) -> Callable[[Iterable[ChainPosition]], int]:
    """Packs eff into a base-4 int with eff[s] in digit digits[s].

    ALT is 0b10 and FULL 0b11 there, so ORing 4^s raises ALT to FULL.
    """
    shifts = [2 * d for d in digits]
    return lambda eff: sum(map(lshift, eff, shifts))


_POSITIONS = tuple(ChainPosition)


def _digits(key: int, num_slots: int) -> list[int]:
    """The base-4 digits of a packed eff, slot 0 first."""
    return [(key >> 2 * s) & 3 for s in range(num_slots)]


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


def _galois_numbers(m: int) -> list[int]:
    """G(0..m), where G(k) counts the subspaces of GF(2)^k.

    These are the Galois numbers of Goldman and Rota ("The number of
    subspaces of a vector space", 1969), G(k+1) = 2 G(k) + (2^k - 1) G(k-1).
    """
    g = [1, 2]
    for k in range(1, m):
        g.append(2 * g[k] + ((1 << k) - 1) * g[k - 1])
    return g[: m + 1]


def census_of(spec: TowerGroupSpec) -> Census:
    """The census of N(G) in closed form, without building an element.

    Of a triple (J, P, H) only H depends on more than the slot classes: J
    takes i of the a4 class-A slots and j of the B class-B slots, H is one
    of the a(i + j) admissible sign subgroups, and P puts each uncoupled
    slot on its chain, 4 positions at degree 4 and 3 elsewhere.  So

        total = sum_{i, j} C(a4, i) C(B, j) a(i + j) 4^(a4 - i) 3^(B - j).

    A coordinate j of H fails admissibility when H contains the unit vector
    e_j or is zero at j, never both, so by inclusion-exclusion
    a(w) = sum_k (-2)^k C(w, k) G(w - k), with G(m) the number of subspaces
    of GF(2)^m (the Galois numbers).  So a(w) is the linear map
    x^m -> G(m) applied to (x - 2)^w, and the total is that map applied to
    (x + 4 - 2)^a4 (x + 3 - 2)^B:

        total = sum_{i, j} C(a4, i) C(B, j) 2^(a4 - i) G(i + j),

    O(a4 B) terms with no a(w) at all.  The sub-products are the J = {}
    term, 4^a4 3^B.  There is one sign-parity element per J with |J| >= 2,
    2^T - T - 1 of them, and the rest are mixed; ``enumerate_lattice``'s
    family count referees this.  Raises TooLarge past ``MAX_CENSUS_SLOTS``,
    before any Galois number is computed.
    """
    if spec.num_slots > MAX_CENSUS_SLOTS:
        raise TooLarge(f"{spec.num_slots} slots exceeds the census bound {MAX_CENSUS_SLOTS}")
    a4, b = spec.a4, spec.b
    g = _galois_numbers(a4 + b)
    total = sum(
        comb(a4, i) * comb(b, j) * 2 ** (a4 - i) * g[i + j]
        for i in range(a4 + 1)
        for j in range(b + 1)
    )
    sub_products = 4**a4 * 3**b
    sign_parity = 2**spec.num_slots - spec.num_slots - 1
    return Census(
        sub_products=sub_products,
        sign_parity=sign_parity,
        mixed=total - sub_products - sign_parity,
        total=total,
    )


def enumerate_lattice(spec: TowerGroupSpec) -> "Lattice":
    """All normal subgroups, by direct enumeration of admissible triples.

    Iterates the coupled set as a bitmask in ascending order, then the sign
    subgroup, then the chain positions of the uncoupled slots, so the output
    order is deterministic.  The first element is the trivial subgroup.  The
    census counts the families of the elements built, independently of
    ``census_of``.

    The columns are filled a (J, H) block at a time, and no element object
    is built.  P's placements (key, FULL-slot mask, size off J) and the
    lift of GF(2)^J are built once per J, |H| prod_{s in J} k_s!/2 and the
    parity-kernel test once per (J, H).  W, spanned by the lifted rows of H
    and the units of the FULL slots off J, gives them back (H holds no unit
    vector), so each (J, H) and FULL mask is a new W, numbered as met.

    No bound is checked here: each caller bounds the work first, by the
    census total (``autgroup.bounded_lattice``) or by |G| >= 6^T (the oracle).
    """
    n = spec.num_slots
    degrees = spec.degrees
    keys, wids, block_of, orders, families = [], [], [], [], []  # the columns
    spans: list[tuple[int, ...]] = []  # per W id, the rows that span it
    blocks: list[tuple[tuple[int, ...], Subspace]] = []
    # per slot and chain position: its digit in the key, its FULL bit and its size
    options = [
        (
            [p << 2 * s for p in chain(d)],
            [(p is ChainPosition.FULL) << s for p in chain(d)],
            [position_size(p, d) for p in chain(d)],
        )
        for s, d in enumerate(degrees)
    ]
    for j_mask in range(1 << n):
        coupled = tuple(s for s in range(n) if (j_mask >> s) & 1)
        subspaces = _admissible_subspaces(len(coupled))
        if not subspaces:
            continue
        off = tuple(s for s in range(n) if not (j_mask >> s) & 1)
        off_mask = ~j_mask & ((1 << n) - 1)
        half = prod(factorial(degrees[s]) // 2 for s in coupled)
        lift = [0]  # lift[h]: h, a pattern on J, on all the slots
        for s in coupled:
            lift += [v | 1 << s for v in lift]
        j_key = sum(ChainPosition.FULL << 2 * s for s in coupled)
        # every P on the slots off J, the last slot running fastest
        p_keys, p_full, p_sizes = [j_key], [0], [1]
        for s in off:
            keys_s, full_s, sizes_s = options[s]
            p_keys = [k + d for k in p_keys for d in keys_s]
            p_full = [f | d for f in p_full for d in full_s]
            p_sizes = [z * d for z in p_sizes for d in sizes_s]
        full_masks = list(set(p_full))  # a W id per (J, H) and mask, in this order
        p_rank = list(map({full: k for k, full in enumerate(full_masks)}.__getitem__, p_full))
        units = [tuple(1 << s for s in off if (full >> s) & 1) for full in full_masks]
        count = len(p_keys)
        for signs in subspaces:
            block_of += [len(blocks)] * count
            blocks.append((coupled, signs))
            keys += p_keys
            wids += map(len(spans).__add__, p_rank)
            lifted = tuple(map(lift.__getitem__, signs.basis))
            spans += [lifted + u for u in units]
            order = signs.size * half
            orders += [order * size for size in p_sizes]
            if not coupled:
                families += [FAMILY_SUB_PRODUCT] * count
            elif signs.dim == len(coupled) - 1:  # the parity kernel: the one admissible codim-1 H
                kinds = (FAMILY_MIXED, FAMILY_SIGN_PARITY)  # by whether every slot off J is FULL
                families += [kinds[full == off_mask] for full in p_full]
            else:
                families += [FAMILY_MIXED] * count
    counts = Counter(families)
    census = Census(
        sub_products=counts[FAMILY_SUB_PRODUCT],
        sign_parity=counts[FAMILY_SIGN_PARITY],
        mixed=counts[FAMILY_MIXED],
        total=len(keys),
    )
    return Lattice(spec, census, keys, wids, spans, blocks, block_of, orders, families)


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


def _fold(order: Iterable[int], neighbours: list[list[int]], sets: list[int]) -> list[int]:
    """OR into each element's set those of its neighbours, which come first in order."""
    for x in order:
        sets[x] = reduce(or_, map(sets.__getitem__, neighbours[x]), sets[x])
    return sets


def _covers_of_order(down: Sequence[int], up: Sequence[int]) -> list[list[int]]:
    """The up-covers of each element, ascending, of a poset given by its order relation.

    ``down[j]`` and ``up[j]`` are the bitmasks of all i with i <= j and with
    j <= i.  The caller vouches that ``up`` is the transpose of ``down``, as
    the tests referee for each producer; the checks here take O(n) int
    operations and raise LatTowerError on sets that no poset has.

    The elements that j covers are the maximal elements of its strict down
    set, the candidates.  Climbing from any candidate to any candidate
    strictly above it ends, within the height of the poset, at a maximal
    candidate i.  Record that j covers i, drop i and everything below it
    from the candidates, and climb again until none is left.  This is exact:
    dropping down[i] removes no other maximal candidate, since those are
    incomparable with i; and a later climb cannot end below a dropped
    candidate, because it would then have been dropped with it.  The cost is
    one climb per cover edge instead of a test per pair.
    """
    n = len(down)
    if len(up) != n:
        raise LatTowerError(f"{n} down sets but {len(up)} up sets")
    for kind, masks in (("down", down), ("up", up)):
        for j, mask in enumerate(masks):
            if mask >> n or not (mask >> j) & 1:
                raise LatTowerError(f"{kind} set of {j} must hold {j} and nothing past {n - 1}")
    for j, (below, above) in enumerate(zip(down, up)):
        if below & above != 1 << j:
            raise LatTowerError(f"the down and up sets of {j} share another element")
    if sum(m.bit_count() for m in down) != sum(m.bit_count() for m in up):
        raise LatTowerError("the up sets are not the transpose of the down sets")
    rows: list[list[int]] = [[] for _ in range(n)]
    for j, mask in enumerate(down):
        candidates = mask ^ (1 << j)
        while candidates:
            # element orders put larger elements late, so starting from
            # the highest index usually makes the climb empty
            i = candidates.bit_length() - 1
            while True:
                above = (up[i] & candidates) ^ (1 << i)
                if not above:
                    break
                i = above.bit_length() - 1
            rows[i].append(j)
            candidates &= ~down[i]
    return rows


class AbstractLattice:
    """A finite lattice given by its covers alone, held as its join-irreducible context.

    ``upper[x]``, given, lists the elements that cover x, and ``lower[x]``
    those that x covers, filled in ascending order; ``order`` lists every
    element after its lower covers.  The join-irreducibles, the elements
    with exactly one lower cover, are the points 0, ..., m-1 in element
    order; ``J[x]`` is the set of points under x as an m-bit int, the OR of
    x's own point and the sets of its lower covers.  In a lattice every
    element is the join of the points under it, so J is one-to-one, x <= y
    exactly when J(x) is inside J(y), and an automorphism is fixed by what it
    does on the points (Ganter and Wille, *Formal Concept Analysis*,
    Springer 1999, ch. 1); ``extend`` pins every other image down by the
    images of the lower covers.  The covers are read in one pass.  No element
    data is kept, so consumers cannot peek at triples.  LatTowerError is
    raised unless every cover lies in 0..n-1, no row names an element twice,
    the covers have no cycle, exactly one element is minimal and J is
    one-to-one.
    """

    def __init__(self, upper: Iterable[list[int]]):
        self.upper = list(upper)
        self.n = n = len(self.upper)
        self.lower: list[list[int]] = [[] for _ in range(n)]
        for x, above in enumerate(self.upper):
            if above and not (0 <= min(above) and max(above) < n):
                y = next(y for y in above if not 0 <= y < n)
                raise LatTowerError(f"not a lattice: {x} is covered by {y}, outside 0..{n - 1}")
            if len(set(above)) != len(above):
                y = next(y for y in above if above.count(y) > 1)
                raise LatTowerError(f"not a lattice: {x} is covered by {y} twice")
            for y in above:
                self.lower[y].append(x)
        order = [x for x in range(n) if not self.lower[x]]
        if n and len(order) != 1:
            raise LatTowerError(f"not a lattice: {len(order)} minimal elements")
        waiting = list(map(len, self.lower))
        for x in order:  # the list grows as elements lose their last waiting cover
            for y in self.upper[x]:
                waiting[y] -= 1
                if not waiting[y]:
                    order.append(y)
        if len(order) != n:
            raise LatTowerError("not a lattice: the covers have a cycle")
        self.order = order
        self.irreducibles = [x for x in range(n) if len(self.lower[x]) == 1]
        self.point = {x: k for k, x in enumerate(self.irreducibles)}
        seeds = [0] * n
        for k, x in enumerate(self.irreducibles):
            seeds[x] = 1 << k
        self.J = _fold(order, self.lower, seeds)
        if len(set(self.J)) != n:
            raise LatTowerError(
                "not a lattice: no join, as two elements lie over the same join-irreducibles"
            )

    def __len__(self) -> int:
        return self.n

    @property
    def context(self) -> AbstractLattice:
        """The lattice itself, so a search reads a ``Lattice`` and a bare lattice alike."""
        return self

    @cached_property
    def down(self) -> tuple[int, ...]:
        """Per element j, the bitmask of all i <= j: the closure of the covers.

        j's down set is j and the down sets of its lower covers, folded along
        ``order``; ``up`` is the same fold over the upper covers, in reverse.
        """
        return tuple(_fold(self.order, self.lower, [1 << x for x in range(self.n)]))

    @cached_property
    def up(self) -> tuple[int, ...]:
        return tuple(_fold(reversed(self.order), self.upper, [1 << x for x in range(self.n)]))

    def leq(self, i: int, j: int) -> bool:
        return bool((self.down[j] >> i) & 1)

    @cached_property
    def M(self) -> list[int]:
        """Per element, the meet-irreducibles above it, the dual of ``J``.

        The meet-irreducibles, the elements with exactly one upper cover, are
        numbered in element order; ``M[x]`` is the OR of x's own bit and the
        sets of its upper covers, folded along ``order`` reversed.  Every
        element is the meet of the meet-irreducibles above it, so in a
        lattice M is one-to-one and M(x join y) = M(x) & M(y).
        """
        seeds = [0] * self.n
        for k, x in enumerate(x for x, above in enumerate(self.upper) if len(above) == 1):
            seeds[x] = 1 << k
        return _fold(reversed(self.order), self.upper, seeds)

    @cached_property
    def by_J(self) -> dict[int, int]:
        return {s: x for x, s in enumerate(self.J)}

    @cached_property
    def by_M(self) -> dict[int, int]:
        return {s: x for x, s in enumerate(self.M)}

    def meet(self, i: int, j: int) -> int:
        """The element whose J-set is J(i) & J(j); KeyError when the poset has no such meet."""
        return self.by_J[self.J[i] & self.J[j]]

    def join(self, i: int, j: int) -> int:
        """The element whose M-set is M(i) & M(j); KeyError when the poset has no such join."""
        return self.by_M[self.M[i] & self.M[j]]

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Pairs (i, j) with j covering i, sorted."""
        return tuple(sorted((x, y) for x, above in enumerate(self.upper) for y in above))

    @cached_property
    def _by_low_covers(self) -> dict[int, int]:
        """Each element with two or more lower covers c0 < c1 < ..., keyed
        ``c0 * n + c1``; -1 where two elements share the key.

        In a lattice no key is shared, as the join of c0 and c1 is the
        element; in a poset the constructor accepts, it can be.
        """
        n, lower, index = self.n, self.lower, {}
        # the values are the ints ``order`` holds, so only the keys are new
        for x in self.order:
            below = lower[x]
            if len(below) > 1:
                key = below[0] * n + below[1]
                index[key] = -1 if key in index else x
        return index

    def extend(self, psi: Sequence[int]) -> Perm | None:
        """The automorphism that permutes the points as psi does, or None.

        One pass along ``order``: the bottom goes to the bottom, the point x
        to the point psi(x), and any other element to the one whose lower
        covers are the images of its own, found under its two lowest in
        ``_by_low_covers``.  Each image is kept only if its whole lower-cover
        row is the sorted images of x's lower covers.  The map is then a
        bijection, by induction along ``order``: points go to distinct
        points, and two other elements with one image would have the same
        lower covers, hence the same J-set, and J is one-to-one.  So a map
        that passes is an automorphism of the covers, and an automorphism
        passes every step.
        """
        m = len(self.irreducibles)
        if sorted(psi) != list(range(m)):
            return None
        n, lower, point, irreducibles = self.n, self.lower, self.point, self.irreducibles
        by_low_covers = self._by_low_covers
        image = [-1] * n
        moved = image.__getitem__
        for x in self.order:
            below = lower[x]
            if len(below) == 1:
                y = irreducibles[psi[point[x]]]
                # a point has one lower cover
                if lower[y][0] != image[below[0]]:
                    return None
            elif below:
                row = sorted(map(moved, below))
                y = by_low_covers.get(row[0] * n + row[1])
                if y is not None and y < 0:  # a shared key: match the whole row
                    y = next((z for z, r in enumerate(lower) if r == row), None)
                if y is None or lower[y] != row:
                    return None
            else:
                y = x
            image[x] = y
        return tuple(image)

    def standard_context(self) -> StandardContext:
        """(J, M) read off the covers: the points' J-sets and those of the
        elements with one upper cover, the meet-irreducibles.  A point's seed
        is its number of upper covers and the numbers of points strictly
        below and above it."""
        under = [self.J[x] for x in self.irreducibles]
        extents = frozenset(self.J[x] for x, above in enumerate(self.upper) if len(above) == 1)
        covers = [len(self.upper[x]) for x in self.irreducibles]
        return StandardContext.of(under, extents, lambda below, above, _: zip(covers, below, above))

    def restrict(self, g: Perm) -> Perm | None:
        """The permutation g induces on the points, or None if it does not permute them."""
        psi = tuple(self.point.get(g[x], -1) for x in self.irreducibles)
        return psi if sorted(psi) == list(range(len(psi))) else None


class Lattice:
    """The enumerated lattice of one tower group, held as columns in a fixed element order.

    Element i is
    * ``keys[i]``, its eff packed base 4 with eff[s] in digit s (see ``_eff_packer``);
    * ``wids[i]``, the id of its W, spanned by the rows ``spans[wid]``: the
      rows of H lifted onto J, and the unit vectors of the FULL slots off J;
    * ``blocks[block_of[i]]``, its (J, H) as the coupled slots and the sign
      subgroup, with P the digits of the key off J;
    * ``orders[i]`` and ``families[i]``.

    The CLI reads W only through the D and pivots of its rows, and builds no
    element object or sorted basis; ``elements`` and ``bases`` derive them
    for the callers that want them.  The indexes below are built on first use.
    """

    def __init__(
        self,
        spec: TowerGroupSpec,
        census: Census,
        keys: list[int],
        wids: list[int],
        spans: list[tuple[int, ...]],
        blocks: list[tuple[tuple[int, ...], Subspace]],
        block_of: list[int],
        orders: list[int],
        families: list[str],
    ):
        self.spec = spec
        self.census = census
        self.keys, self.wids, self.spans = keys, wids, spans
        self.blocks, self.block_of = blocks, block_of
        self.orders, self.families = orders, families
        self._pack = _eff_packer(range(spec.num_slots))

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[LatticeElement]:
        return iter(self.elements)

    @cached_property
    def bases(self) -> list[tuple[int, ...]]:
        """The reduced basis of each W by id: its rows, none odd at another's pivot, sorted."""
        return [tuple(sorted(rows, key=_pivot)) for rows in self.spans]

    @cached_property
    def elements(self) -> tuple[LatticeElement, ...]:
        """The elements as objects, each what ``element_from_triple`` builds of its triple."""
        spec, n = self.spec, self.spec.num_slots
        signs = [Subspace(n, basis) for basis in self.bases]
        effs = {key: tuple(map(_POSITIONS.__getitem__, _digits(key, n))) for key in set(self.keys)}
        out = []
        for key, wid, b, order, family in zip(
            self.keys, self.wids, self.block_of, self.orders, self.families
        ):
            coupled, h = self.blocks[b]
            eff = effs[key]
            positions = tuple((s, p) for s, p in enumerate(eff) if s not in coupled)
            t = AdmissibleTriple(spec, coupled, positions, h)
            out.append(LatticeElement(t, Profile(spec, eff, signs[wid]), family, order))
        return tuple(out)

    @cached_property
    def _codes(self) -> list[int]:
        """Each element as one int, ``key | D << 2T`` with T the slot count.

        D, the annihilator of W as a 2^T-bit mask (bit u is set when u.w is
        even for every w in W), pins W down, so within one spec the int pins
        a profile down.
        """
        num_slots = self.spec.num_slots
        dual = [_annihilator_mask(num_slots, rows) << 2 * num_slots for rows in self.spans]
        return list(map(or_, self.keys, map(dual.__getitem__, self.wids)))

    @cached_property
    def _profile_index(self) -> dict[int, int]:
        """Element index by code, so a caller that permutes coordinates or
        moves up a cover can look its image up without building a Profile
        or a validated subspace."""
        return dict(zip(self._codes, range(len(self))))

    def index_of(self, e: LatticeElement) -> int:
        return self.index_of_profile(e.profile)

    def index_of_profile(self, p: Profile) -> int:
        """The index of a profile; KeyError when it is not in the lattice."""
        if p.spec != self.spec:
            raise SpecMismatch(f"profile of {format_spec(p.spec)} in {format_spec(self.spec)}")
        return self.index_of_parts(p.eff, p.signs.basis)

    def index_of_parts(self, eff: Sequence[ChainPosition], rows: Iterable[int]) -> int:
        """The index of the element with this eff and the W that rows span,
        any spanning set, its code packed with no Profile or Subspace built;
        KeyError when it is not in the lattice."""
        num_slots = self.spec.num_slots
        dual = _annihilator_mask(num_slots, rows)
        return self._profile_index[self._pack(eff) | dual << 2 * num_slots]

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        return self.context.down

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        return self.context.up

    @cached_property
    def meet_idx(self) -> Callable[[int, int], int]:
        """The meet of two indices: ``context.meet`` itself, so the oracle's
        sweep makes one call per meet, not two."""
        return self.context.meet

    @cached_property
    def join_idx(self) -> Callable[[int, int], int]:
        """The join of two indices: ``context.join`` itself."""
        return self.context.join

    def up_covers(self) -> Iterator[list[int]]:
        """The elements that cover each element, ascending, a list per element in order.

        The rank sum_s chainrank(min(eff_s, ALT)) + dim W rises strictly
        along the order, so a move that raises it by one lands on a cover.
        The up-covers of x = (eff, W) are exactly these moves:

        * one chain step at a slot below ALT, W unchanged;
        * W + <v> for each nonzero v supported on the slots at ALT or FULL
          and zero on the pivots of W, which raises the ALT slots of v to
          FULL.

        Let y cover x.  A chain step at a slot below ALT that y raises lies
        in [x, y], so it is y.  Otherwise y raises only ALT slots, W_y is
        larger, and W + <v> for the reduced v of any vector of W_y outside W
        lies in [x, y].  Each image is looked up in the profile index, by
        arithmetic on the code of x: a chain step adds to the key, and
        W + <v>, whose D is D(W) & v-perp, is ``(code & M_v) | S_v``, where
        M_v keeps the key and ANDs v-perp into D, and S_v ORs 4^s into the
        key at each slot s of v.  The rows come one element at a time, so no
        list of edges is held.  ``down_masks`` and ``up_masks`` are their
        closure, and in the tests a column sweep referees both.
        """
        num_slots = self.spec.num_slots
        shift = 2 * num_slots
        index = self._profile_index
        # per key of every eff, built as P is: its chain steps up, and the slots at ALT
        # or FULL; one step up from TRIV or V is TRIV -> V -> ALT at degree 4, TRIV -> ALT elsewhere
        moves_of_key: dict[int, tuple[tuple[int, ...], int]] = {0: ((), 0)}
        for s, d in enumerate(self.spec.degrees):
            step = (1 if d == 4 else 2) << 2 * s
            options = [
                (p << 2 * s, (step,), 0) if p < ChainPosition.ALT else (p << 2 * s, (), 1 << s)
                for p in chain(d)
            ]
            moves_of_key = {
                key + k: (ups + u, up | f)
                for key, (ups, up) in moves_of_key.items() for k, u, f in options
            }
        keep = [perp << shift | (1 << shift) - 1 for perp in _perps(num_slots)]  # M_v
        spread = [self._pack((v >> s) & 1 for s in range(num_slots)) for v in range(1 << num_slots)]
        pivots_of = [sum(row & -row for row in rows) for rows in self.spans]
        widenings: dict[int, tuple[list[int], list[int]]] = {}  # M_v and S_v by free-slot mask
        for i, (key, wid, code) in enumerate(zip(self.keys, self.wids, self._codes)):
            ups, upper = moves_of_key[key]
            free = upper & ~pivots_of[wid]
            masks = widenings.get(free)
            if masks is None:
                vs = [v for v in range(1, free + 1) if not v & ~free]
                masks = widenings[free] = ([keep[v] for v in vs], [spread[v] for v in vs])
            moves = list(map(code.__add__, ups))
            moves += map(or_, map(code.__and__, masks[0]), masks[1])
            try:
                above = sorted(map(index.__getitem__, moves))
            except KeyError:
                raise LatTowerError(f"a cover move from element {i} leaves the lattice") from None
            yield above

    @cached_property
    def context(self) -> AbstractLattice:
        """The bare lattice, read off the cover moves as they are made."""
        return AbstractLattice(self.up_covers())

    def to_abstract(self) -> AbstractLattice:
        return self.context

    def to_json_dict(self) -> dict:
        """Stable JSON form: spec header, census, elements, covering edges.

        The schema referee of ``cli._lattice_json``, and perfbench's trace input.
        """
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
            "hasse_edges": [[i, j] for i, above in enumerate(self.up_covers()) for j in above],
        }
