"""Independent oracle: normal subgroups recomputed from raw permutations.

Everything here works with explicit group elements, products and
conjugation, never with triples or profiles, so it can referee the
enumeration.  A ConcreteGroup is a product of symmetric factors (degree 2 is
allowed here, unlike in tower specs, so the small groups C2, C2^2 and C2 x Sm
are covered too); elements are ranked mixed-radix into global ids and
multiplied through per-factor lookup tables.  A normal subgroup is a union
of conjugacy classes, so it is held as an int mask over the classes (Hulpke,
"Computing normal subgroups", ISSAC 1998).  The group's ClassTable records
which classes each class product C_i C_j meets; from it, inclusion, meet and
join of normal subgroups are mask operations.  In a direct product the
classes are the products of factor classes and C_i C_j is the product of
the per-factor class products, so the ClassTable is assembled from the
conjugacy data of each factor and no element of the whole group is
multiplied.  Normal subgroups come out of the normal closures of the classes
closed under joins, which reaches every normal subgroup because each one is
the join of the closures of its classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations as iter_permutations
from math import factorial
from typing import Iterable, Iterator, Sequence

from .errors import LatTowerError, NotTowerGroup, OracleMismatch, TooLarge
from .gf2 import span
from .group_spec import ChainPosition, TowerGroupSpec, format_spec, spec_of_degrees
from .lattice_core import (
    DEFAULT_MAX_SLOTS,
    AbstractLattice,
    Lattice,
    Profile,
    enumerate_lattice,
)

__all__ = [
    "DEFAULT_MAX_ORDER",
    "Perm",
    "ConcreteGroup",
    "ConcreteSubgroup",
    "ClassTable",
    "concrete_group",
    "normal_closure",
    "is_normal",
    "all_normal_subgroups",
    "normal_subgroup_poset",
    "block_projection",
    "block_intersection",
    "extract_profile",
    "OracleReport",
    "differential_validate",
    "lemma_lattices",
    "LEMMA_GROUP_DEGREES",
]

DEFAULT_MAX_ORDER = 5000


@dataclass(frozen=True)
class Perm:
    """A permutation of {0..d-1} given by its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise LatTowerError(f"not a permutation: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Perm") -> "Perm":
        """self after other."""
        return Perm(tuple(self.images[other.images[x]] for x in range(len(self.images))))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images):
            inv[y] = x
        return Perm(tuple(inv))

    @property
    def sign(self) -> int:
        """+1 for even, -1 for odd, by cycle parity."""
        seen = [False] * len(self.images)
        transpositions = 0
        for x in range(len(self.images)):
            if seen[x]:
                continue
            length = 0
            y = x
            while not seen[y]:
                seen[y] = True
                y = self.images[y]
                length += 1
            transpositions += length - 1
        return -1 if transpositions % 2 else 1


class _FactorTable:
    """Dense multiplication and conjugacy data for one symmetric factor.

    ``classes`` lists the conjugacy classes, each as its sorted member
    indices, numbered by smallest member (so class 0 is {identity});
    ``class_of`` is the class of each permutation, and ``prod[a][b]`` is the
    mask of the classes met by x_a * C_b for the smallest member x_a of
    class a.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.perms = tuple(iter_permutations(range(degree)))
        index = {p: i for i, p in enumerate(self.perms)}
        self.index = index
        n = len(self.perms)
        self.mul = [
            [index[tuple(p[q[x]] for x in range(degree))] for q in self.perms]
            for p in self.perms
        ]
        self.inv = [0] * n
        for i, p in enumerate(self.perms):
            invp = [0] * degree
            for x, y in enumerate(p):
                invp[y] = x
            self.inv[i] = index[tuple(invp)]
        self.sign_bit = [0 if Perm(p).sign == 1 else 1 for p in self.perms]
        mul, inv = self.mul, self.inv
        self.class_of = [-1] * n
        self.classes: list[tuple[int, ...]] = []
        for x in range(n):
            if self.class_of[x] < 0:
                members = tuple(sorted({mul[mul[h][x]][inv[h]] for h in range(n)}))
                for y in members:
                    self.class_of[y] = len(self.classes)
                self.classes.append(members)
        self.prod = []
        for members in self.classes:
            row = [0] * len(self.classes)
            for cy, xy in zip(self.class_of, mul[members[0]]):
                row[cy] |= 1 << self.class_of[xy]
            self.prod.append(row)

    def position_ids(self, pos: ChainPosition) -> frozenset[int]:
        """Element ids of one chain subgroup; V only exists at degree 4."""
        if pos is ChainPosition.TRIV:
            return frozenset({self.index[tuple(range(self.degree))]})
        if pos is ChainPosition.V:
            if self.degree != 4:
                raise LatTowerError("V position outside degree 4")
            vperms = [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
            return frozenset(self.index[p] for p in vperms)
        if pos is ChainPosition.ALT:
            return frozenset(i for i, b in enumerate(self.sign_bit) if b == 0)
        return frozenset(range(len(self.perms)))


@lru_cache(maxsize=None)
def _factor_table(degree: int) -> _FactorTable:
    return _FactorTable(degree)


class ConcreteGroup:
    """A product of symmetric factors with global mixed-radix element ids.

    Factor j has degree degrees[j]; the id of an element is the ranking of
    its per-factor permutation indices, most significant factor first.  The
    identity always gets id 0.
    """

    def __init__(self, degrees: Sequence[int], max_order: int = DEFAULT_MAX_ORDER):
        if not all(d >= 2 for d in degrees):
            raise LatTowerError(f"factor degrees must be at least 2, got {degrees}")
        self.degrees = tuple(degrees)
        order = 1
        for d in self.degrees:
            order *= factorial(d)
        if order > max_order:
            raise TooLarge(f"group order {order} exceeds the oracle bound {max_order}")
        self.order = order
        self.tables = [_factor_table(d) for d in self.degrees]
        sizes = [factorial(d) for d in self.degrees]
        places = []
        acc = 1
        for size in reversed(sizes):
            places.append(acc)
            acc *= size
        self.places = tuple(reversed(places))
        self.components: list[tuple[int, ...]] = []
        for g in range(order):
            rest = g
            comp = []
            for place, size in zip(self.places, sizes):
                comp.append(rest // place)
                rest %= place
            self.components.append(tuple(comp))
        self.inverses = [
            self.from_components(tuple(t.inv[c] for t, c in zip(self.tables, comp)))
            for comp in self.components
        ]
        self._sign_bits: list[int] | None = None

    @property
    def identity(self) -> int:
        return 0

    def from_components(self, comp: Sequence[int]) -> int:
        return sum(c * p for c, p in zip(comp, self.places))

    def product(self, a: int, b: int) -> int:
        ca, cb = self.components[a], self.components[b]
        return self.from_components(
            tuple(t.mul[x][y] for t, x, y in zip(self.tables, ca, cb))
        )

    def inverse(self, a: int) -> int:
        return self.inverses[a]

    def conjugate(self, a: int, by: int) -> int:
        return self.product(self.product(by, a), self.inverses[by])

    def embed(self, factor: int, perm_index: int) -> int:
        comp = [0] * len(self.degrees)
        comp[factor] = perm_index
        return self.from_components(comp)

    @property
    def generators(self) -> list[int]:
        """A transposition and a full cycle in every factor."""
        gens = []
        for j, (d, table) in enumerate(zip(self.degrees, self.tables)):
            swap = tuple([1, 0] + list(range(2, d)))
            gens.append(self.embed(j, table.index[swap]))
            if d > 2:
                cyc = tuple(list(range(1, d)) + [0])
                gens.append(self.embed(j, table.index[cyc]))
        return gens

    def sign_bits(self, a: int) -> int:
        """Bit j set when the component in factor j is odd."""
        if self._sign_bits is None:
            bits = []
            for comp in self.components:
                v = 0
                for j, (t, c) in enumerate(zip(self.tables, comp)):
                    if t.sign_bit[c]:
                        v |= 1 << j
                bits.append(v)
            self._sign_bits = bits
        return self._sign_bits[a]

    def element_perms(self, a: int) -> tuple[Perm, ...]:
        return tuple(
            Perm(t.perms[c]) for t, c in zip(self.tables, self.components[a])
        )

    @cached_property
    def class_table(self) -> "ClassTable":
        return ClassTable(self)


def concrete_group(spec: TowerGroupSpec, max_order: int = DEFAULT_MAX_ORDER) -> ConcreteGroup:
    """Build the concrete group of a tower spec, factor j = slot j."""
    return ConcreteGroup(spec.degrees, max_order=max_order)


@dataclass(frozen=True)
class ConcreteSubgroup:
    """A subgroup as a sorted tuple of element ids."""

    ids: tuple[int, ...]

    @classmethod
    def from_ids(cls, ids: Iterable[int]) -> "ConcreteSubgroup":
        return cls(tuple(sorted(set(ids))))

    def __len__(self) -> int:
        return len(self.ids)

    def id_set(self) -> frozenset[int]:
        return frozenset(self.ids)


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _spread(mask: int, shifts: list[int]) -> int:
    """The OR of mask shifted left by each amount."""
    out = 0
    for at in shifts:
        out |= mask << at
    return out


class ClassTable:
    """Conjugacy classes of a ConcreteGroup and the supports of their products.

    A normal subgroup is a union of conjugacy classes, so it is an int mask
    with bit i set when it contains class i.  The classes of a direct
    product are the products C_1 x ... x C_k of factor classes; class i is
    numbered by the mixed radix of its factor-class indices, most
    significant factor first.  Factor classes are numbered by smallest
    member and element ids are mixed radix in the components, so class 0 is
    {identity} and the others come by smallest element id.  ``prod[i][j]``
    is the mask of the classes met by x_i * C_j for the representative x_i
    of C_i (its smallest id).  Conjugating by g maps x_i * C_j onto
    (g x_i g^-1) * C_j with the same classes, so this is the support of the
    whole product set C_i * C_j: the product of the per-factor supports.
    Inclusion is ``a & ~b == 0``, intersection is ``a & b``, and the product
    N1 N2 of two normal subgroups is the OR of ``prod[i][j]`` over i in N1
    and j in N2.
    """

    def __init__(self, group: ConcreteGroup):
        # Built from the last factor up: a class of the factors from j on is
        # a factor-j class c (the high digit) times a class of the factors
        # after j, so a product support is one copy of the rest's support,
        # shifted by c * width, for each factor-j class c in the factor-j
        # support.
        classes: list[tuple[int, ...]] = [(0,)]
        class_of = [0]
        prod = [[1]]
        size = width = 1
        for t in reversed(group.tables):
            classes = [
                tuple(x * size + g for x in head for g in tail)
                for head in t.classes
                for tail in classes
            ]
            class_of = [c * width + rest for c in t.class_of for rest in class_of]
            offsets = [[[c * width for c in _bits(m)] for m in t_row] for t_row in t.prod]
            prod = [
                [_spread(mask, shifts) for shifts in row_offsets for mask in row]
                for row_offsets in offsets
                for row in prod
            ]
            size *= len(t.perms)
            width *= len(t.classes)
        self.classes = classes
        self.class_of = class_of
        self.prod = prod

    def mask_of(self, sub: ConcreteSubgroup) -> int:
        """The classes an element set meets; exact for a union of classes."""
        class_of = self.class_of
        mask = 0
        for g in sub.ids:
            mask |= 1 << class_of[g]
        return mask

    def subgroup(self, mask: int) -> ConcreteSubgroup:
        return ConcreteSubgroup(
            tuple(sorted(g for i in _bits(mask) for g in self.classes[i]))
        )

    def closure(self, c: int) -> int:
        """The normal closure of class c: 1 and C_c, closed under products."""
        prod = self.prod
        mask = 1 | 1 << c
        fresh = mask
        while fresh:
            grown = mask
            for i in _bits(fresh):
                grown |= prod[i][c]
            fresh = grown & ~mask
            mask = grown
        return mask

    def join(self, a: int, b: int) -> int:
        """The product N1 N2 of two normal subgroups given as masks.

        Classes of a inside b only contribute products already in b.
        """
        out = a | b
        inside = list(_bits(b))
        for i in _bits(a & ~b):
            row = self.prod[i]
            for j in inside:
                out |= row[j]
        return out


def normal_closure(group: ConcreteGroup, g: int) -> ConcreteSubgroup:
    """Smallest normal subgroup containing g: the closure of its class."""
    table = group.class_table
    return table.subgroup(table.closure(table.class_of[g]))


def is_normal(group: ConcreteGroup, sub: ConcreteSubgroup) -> bool:
    ids = sub.id_set()
    return all(group.conjugate(x, h) in ids for x in sub.ids for h in group.generators)


def all_normal_subgroups(group: ConcreteGroup) -> list[ConcreteSubgroup]:
    """Every normal subgroup, found as a union of conjugacy classes.

    Every normal subgroup is the product of the closures of its classes, so
    joining each distinct closure onto everything found so far reaches all
    of them, one closure at a time.  Sorted by (order, ids), so the trivial
    subgroup is first and the whole group last.
    """
    table = group.class_table
    closures = {table.closure(c) for c in range(len(table.classes))}
    found = {1}
    for s in sorted(closures):
        found |= {table.join(s, n) for n in found}
    return sorted((table.subgroup(m) for m in found), key=lambda s: (len(s), s.ids))


def normal_subgroup_poset(
    group: ConcreteGroup, normals: list[ConcreteSubgroup] | None = None
) -> AbstractLattice:
    """The subgroup-inclusion order as a bare lattice, read off class masks."""
    if normals is None:
        normals = all_normal_subgroups(group)
    masks = [group.class_table.mask_of(n) for n in normals]
    down = []
    for big in masks:
        m = 0
        for i, small in enumerate(masks):
            if not small & ~big:
                m |= 1 << i
        down.append(m)
    return AbstractLattice(down)


def block_projection(
    group: ConcreteGroup, sub: ConcreteSubgroup, factors: Iterable[int]
) -> ConcreteSubgroup:
    """Image under projection onto some factors, embedded back with identity."""
    keep = set(factors)
    out = set()
    for g in sub.ids:
        comp = list(group.components[g])
        for j in range(len(group.degrees)):
            if j not in keep:
                comp[j] = 0
        out.add(group.from_components(comp))
    return ConcreteSubgroup.from_ids(out)


def block_intersection(
    group: ConcreteGroup, sub: ConcreteSubgroup, factors: Iterable[int]
) -> ConcreteSubgroup:
    """Elements of the subgroup supported entirely on the given factors."""
    keep = set(factors)
    out = [
        g
        for g in sub.ids
        if all(c == 0 for j, c in enumerate(group.components[g]) if j not in keep)
    ]
    return ConcreteSubgroup.from_ids(out)


def extract_profile(group: ConcreteGroup, sub: ConcreteSubgroup) -> Profile:
    """Read the profile of a normal subgroup off its raw element set.

    The effective component per slot is the projection, identified among the
    chain subgroups; the sign subspace is spanned by the sign patterns of all
    elements.  Factors of degree 2 have no tower profile, hence NotTowerGroup.
    """
    if any(d < 3 for d in group.degrees):
        raise NotTowerGroup(f"degrees {group.degrees} include a factor below S3")
    if any(a > b for a, b in zip(group.degrees, group.degrees[1:])):
        raise NotTowerGroup(f"degrees {group.degrees} not in canonical slot order")
    spec = _spec_of_degrees(group.degrees)
    eff = []
    for j, table in enumerate(group.tables):
        proj = {group.components[g][j] for g in sub.ids}
        for pos in (ChainPosition.TRIV, ChainPosition.V, ChainPosition.ALT, ChainPosition.FULL):
            if pos is ChainPosition.V and table.degree != 4:
                continue
            if proj == table.position_ids(pos):
                eff.append(pos)
                break
        else:
            raise OracleMismatch(
                f"projection of size {len(proj)} at factor {j} is no chain subgroup"
            )
    signs = span(len(group.degrees), {group.sign_bits(g) for g in sub.ids})
    return Profile(spec, tuple(eff), signs)


# extract_profile runs once per normal subgroup, always on the same degrees
_spec_of_degrees = lru_cache(maxsize=None)(spec_of_degrees)


@dataclass(frozen=True)
class OracleReport:
    """Summary of one differential validation run."""

    spec: str
    group_order: int
    oracle_count: int
    enumerated_count: int
    pairs_checked: int
    ok: bool

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec,
            "group_order": self.group_order,
            "oracle_count": self.oracle_count,
            "enumerated_count": self.enumerated_count,
            "pairs_checked": self.pairs_checked,
            "ok": self.ok,
        }


def differential_validate(
    spec: TowerGroupSpec,
    max_order: int = DEFAULT_MAX_ORDER,
    max_slots: int = DEFAULT_MAX_SLOTS,
    lattice: Lattice | None = None,
) -> OracleReport:
    """Compare the triple enumeration against the raw permutation computation.

    Checks, in order: the counts agree; profiles give a bijection between the
    two lists; and for every pair, inclusion, intersection and product of the
    class masks agree with leq, meet and join on the enumerated side.  The
    first divergence raises OracleMismatch.
    """
    group = concrete_group(spec, max_order=max_order)
    normals = all_normal_subgroups(group)
    lat = lattice if lattice is not None else enumerate_lattice(spec, max_slots)
    name = format_spec(spec)
    if len(normals) != len(lat):
        raise OracleMismatch(
            f"{name}: oracle found {len(normals)} normal subgroups, enumeration {len(lat)}"
        )

    mapped: list[int] = []
    for n in normals:
        profile = extract_profile(group, n)
        try:
            mapped.append(lat.index_of_profile(profile))
        except KeyError:
            raise OracleMismatch(
                f"{name}: oracle subgroup of order {len(n)} has no enumerated profile"
            ) from None
    if len(set(mapped)) != len(mapped):
        raise OracleMismatch(f"{name}: profile map is not injective")

    table = group.class_table
    masks = [table.mask_of(n) for n in normals]
    by_mask = dict(zip(masks, mapped))
    pairs = 0
    for i, (mi, idx_i) in enumerate(zip(masks, mapped)):
        for j in range(i, len(masks)):
            mj, idx_j = masks[j], mapped[j]
            pairs += 1
            if (not mi & ~mj) != lat.leq_idx(idx_i, idx_j):
                raise OracleMismatch(f"{name}: leq disagrees on pair ({i}, {j})")
            if (not mj & ~mi) != lat.leq_idx(idx_j, idx_i):
                raise OracleMismatch(f"{name}: leq disagrees on pair ({j}, {i})")
            if by_mask.get(mi & mj) != lat.meet_idx(idx_i, idx_j):
                raise OracleMismatch(f"{name}: meet disagrees on pair ({i}, {j})")
            if by_mask.get(table.join(mi, mj)) != lat.join_idx(idx_i, idx_j):
                raise OracleMismatch(f"{name}: join disagrees on pair ({i}, {j})")
    return OracleReport(
        spec=name,
        group_order=group.order,
        oracle_count=len(normals),
        enumerated_count=len(lat),
        pairs_checked=pairs,
        ok=True,
    )


LEMMA_GROUP_DEGREES: dict[str, tuple[int, ...]] = {
    "C2": (2,),
    "C2^2": (2, 2),
    "C2xS3": (2, 3),
    "C2xS4": (2, 4),
    "C2xS5": (2, 5),
}


def lemma_lattices(max_order: int = DEFAULT_MAX_ORDER) -> dict[str, AbstractLattice]:
    """Concrete normal-subgroup lattices of the small groups the tower visits.

    These are the groups where LatAut cannot be read off the slot formula:
    C2 and C2 x Sm have two-point fibres, C2^2 has the diamond with the full
    GL(2,2) symmetry.  Exported as bare posets for the automorphism search.
    """
    out = {}
    for name, degrees in LEMMA_GROUP_DEGREES.items():
        group = ConcreteGroup(degrees, max_order=max_order)
        out[name] = normal_subgroup_poset(group)
    return out
