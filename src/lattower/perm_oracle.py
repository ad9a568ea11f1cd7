"""Independent oracle: normal subgroups recomputed from raw permutations.

Everything here works with permutations, products and conjugation, never
with triples or profiles, so it can referee the enumeration.  A normal
subgroup is a union of conjugacy classes, held as an int mask over the
classes (Hulpke, "Computing normal subgroups", ISSAC 1998), and that mask is
its only representation.  In a direct product of symmetric factors a class
is a product of factor classes, so the ClassTable (class sizes, sign
patterns, and the classes each product C_i C_j meets) is assembled from
per-factor tables, and no element of the whole group is built.  Normal
subgroups are the normal closures of the classes closed under joins.  A
ConcreteGroup (degree 2 allowed, for the small groups C2, C2^2 and C2 x Sm)
is just the degrees under the order bound, with their class table.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache, reduce
from itertools import combinations
from itertools import permutations as iter_permutations
from math import factorial
from operator import and_, or_
from typing import Sequence

from .errors import LatTowerError, OracleMismatch, SpecMismatch, TooLarge, decimal
from .gf2 import _bits
from .group_spec import ChainPosition, TowerGroupSpec, format_spec
from .lattice_core import (
    AbstractLattice,
    Lattice,
    _covers_of_order,
    enumerate_lattice,
)
from .stabiliser import _compose, _inverse

__all__ = [
    "DEFAULT_MAX_ORDER",
    "ConcreteGroup",
    "ClassTable",
    "concrete_group",
    "all_normal_subgroups",
    "normal_subgroup_poset",
    "OracleReport",
    "differential_validate",
    "lemma_lattices",
    "LEMMA_GROUP_DEGREES",
]

DEFAULT_MAX_ORDER = 5000


class _FactorTable:
    """Conjugacy data for one symmetric factor, with no multiplication table.

    The permutations are walked in lex order, and each one not yet classed
    starts a class, found by conjugating it by every permutation.  So the
    classes are numbered by smallest member, and class 0 is {identity}.
    ``sizes`` and ``sign_bit`` give each class's size and parity;
    ``prod[a][b]`` is the mask of the classes met by x_a * C_b for the first
    member x_a of class a; ``chain_classes`` is each chain subgroup of the
    factor as a mask over its classes, V only at degree 4.
    """

    def __init__(self, degree: int):
        perms = list(iter_permutations(range(degree)))
        conjugators = [(h, _inverse(h)) for h in perms]
        class_of: dict[tuple[int, ...], int] = {}
        firsts: list[tuple[int, ...]] = []
        for x in perms:
            if x not in class_of:
                for h, h_inv in conjugators:
                    class_of[_compose(_compose(h, x), h_inv)] = len(firsts)
                firsts.append(x)
        self.sizes = [0] * len(firsts)
        for c in class_of.values():
            self.sizes[c] += 1
        pairs = list(combinations(range(degree), 2))
        self.sign_bit = [sum(x[i] > x[j] for i, j in pairs) & 1 for x in firsts]
        self.prod = []
        for x in firsts:
            row = [0] * len(firsts)
            for y in perms:
                row[class_of[y]] |= 1 << class_of[_compose(x, y)]
            self.prod.append(row)
        self.chain_classes = {ChainPosition.TRIV: 1}
        if degree == 4:
            self.chain_classes[ChainPosition.V] = 1 | 1 << class_of[(1, 0, 3, 2)]
        self.chain_classes[ChainPosition.ALT] = sum(
            1 << c for c, odd in enumerate(self.sign_bit) if not odd
        )
        self.chain_classes[ChainPosition.FULL] = (1 << len(firsts)) - 1


@lru_cache(maxsize=None)
def _factor_table(degree: int) -> _FactorTable:
    return _FactorTable(degree)


class ConcreteGroup:
    """A product of symmetric factors of degree at least 2, within the order bound.

    Factor j has degree degrees[j].  Its normal subgroups are read off the
    class table, so no element of the group is built.
    """

    def __init__(self, degrees: Sequence[int], max_order: int = DEFAULT_MAX_ORDER):
        if not all(d >= 2 for d in degrees):
            raise LatTowerError(f"factor degrees must be at least 2, got {degrees}")
        self.degrees = tuple(degrees)
        self.order = 1
        for d in self.degrees:
            self.order *= factorial(d)
        if self.order > max_order:
            order = decimal(self.order) or f"of {self.order.bit_length()} bits"
            raise TooLarge(f"group order {order} exceeds the oracle bound {max_order}")

    @cached_property
    def class_table(self) -> "ClassTable":
        return ClassTable(self.degrees)


def concrete_group(spec: TowerGroupSpec, max_order: int = DEFAULT_MAX_ORDER) -> ConcreteGroup:
    """Build the concrete group of a tower spec, factor j = slot j."""
    return ConcreteGroup(spec.degrees, max_order=max_order)


class ClassTable:
    """Conjugacy classes of a product of symmetric groups, built per factor.

    Class i is C_1 x ... x C_k, numbered by the mixed radix of its factor
    classes, most significant factor first.  ``sizes[i]`` is its size,
    ``signs[i]`` its sign pattern (bit j set when its factor-j component is
    odd) and ``fibres[j][c]`` the mask of the classes whose factor-j class
    is c.  ``prod[i][j]`` is the mask of the classes met by x * C_j for any
    x in C_i; conjugation moves x within C_i and keeps those classes, so
    this is the support of C_i C_j, the product of the factor supports.
    Class 0 is {identity}.
    """

    def __init__(self, degrees: Sequence[int]):
        # Built from the last factor up: a class of the factors from j on is
        # a factor-j class c (the high digit) times a class of the factors
        # after j, so a product support is one copy of the rest's support,
        # shifted by c * width, for each factor-j class c in the factor-j
        # support.  The rest's support lies below bit width, so the copies
        # never overlap, and their OR is one product by the sum of 2^(c * width).
        self.tables = [_factor_table(d) for d in degrees]
        digits: list[tuple[int, ...]] = [()]
        sizes, signs, prod = [1], [0], [[1]]
        width = 1
        for j in reversed(range(len(self.tables))):
            t = self.tables[j]
            digits = [(c,) + rest for c in range(len(t.sizes)) for rest in digits]
            sizes = [size * rest for size in t.sizes for rest in sizes]
            signs = [bit << j | rest for bit in t.sign_bit for rest in signs]
            spreads = [[sum(1 << c * width for c in _bits(m)) for m in t_row] for t_row in t.prod]
            prod = [
                [mask * k for k in row_spreads for mask in row]
                for row_spreads in spreads
                for row in prod
            ]
            width *= len(t.sizes)
        self.fibres = [[0] * len(t.sizes) for t in self.tables]
        for i, digit in enumerate(digits):
            for fibre, c in zip(self.fibres, digit):
                fibre[c] |= 1 << i
        self.sizes, self.signs, self.prod = sizes, signs, prod

    def order(self, mask: int) -> int:
        return sum(map(self.sizes.__getitem__, _bits(mask)))

    def profile(self, mask: int) -> tuple[tuple[ChainPosition, ...], set[int]]:
        """The profile of a normal subgroup, read off its classes, as eff and
        the sign patterns of the classes, which span W.

        The projection onto factor j is the set of factor-j classes the mask
        meets, identified among the chain subgroups written as factor-class
        masks.
        """
        eff = []
        for j, (t, fibre) in enumerate(zip(self.tables, self.fibres)):
            proj = sum(1 << c for c, f in enumerate(fibre) if mask & f)
            for pos, chain in t.chain_classes.items():
                if proj == chain:
                    eff.append(pos)
                    break
            else:
                raise OracleMismatch(f"projection onto factor {j} is no chain subgroup")
        signs = self.signs
        return tuple(eff), {signs[i] for i in _bits(mask)}

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


def _normal_masks(table: ClassTable) -> set[int]:
    """Every normal subgroup as a class mask.

    Every normal subgroup is the product of the closures of its classes, so
    joining each distinct closure s onto everything found so far reaches all
    of them, one closure at a time.  What is found is the set of products of
    the closures joined so far, so a closure already in it adds nothing.
    With the reach row R_s[j] = OR_{i in s} prod[i][j], the product of s and
    a found n is n | s | the OR of R_s[j] over the classes j of n outside s:
    those of n inside s only give products inside s.  An n that contains s
    is its own product.
    """
    prod = table.prod
    closures = {table.closure(c) for c in range(len(prod))}
    found = {1}
    for s in sorted(closures):
        if s in found:
            continue
        members = [prod[i] for i in _bits(s)]
        reach: dict[int, int] = {}
        joined = set()
        for n in found:
            if not s & ~n:
                continue
            out = n | s
            for j in _bits(n & ~s):
                if j not in reach:
                    r = 0
                    for row in members:
                        r |= row[j]
                    reach[j] = r
                out |= reach[j]
            joined.add(out)
        found |= joined
    return found


def all_normal_subgroups(group: ConcreteGroup) -> list[int]:
    """Every normal subgroup as a class mask, sorted by order, then classes.

    The trivial subgroup comes first and the whole group last.  Classes are
    numbered by their smallest element, so this is the order of the sorted
    element lists by (length, elements).
    """
    table = group.class_table
    return sorted(_normal_masks(table), key=lambda m: (table.order(m), _bits(m)))


def _order_sets(masks: Sequence[int], width: int) -> tuple[list[int], list[int]]:
    """``down[a]`` and ``up[a]``: all b with masks[b] inside, and over, masks[a].

    With ``containing[c]`` the masks that hold class c: masks[b] lies inside
    masks[a] exactly when it holds no class outside masks[a], so down[a] is
    everything but the OR of ``containing[c]`` over those classes; masks[b]
    holds masks[a] exactly when it holds each of its classes, so up[a] is
    the AND of ``containing[c]`` over the classes of masks[a].
    """
    classes = [_bits(m) for m in masks]
    containing = [0] * width
    for b, inside in enumerate(classes):
        for c in inside:
            containing[c] |= 1 << b
    everything = (1 << len(masks)) - 1
    all_classes = (1 << width) - 1
    column = containing.__getitem__
    down = [everything & ~reduce(or_, map(column, _bits(all_classes & ~m)), 0) for m in masks]
    up = [reduce(and_, map(column, inside), everything) for inside in classes]
    return down, up


def normal_subgroup_poset(
    group: ConcreteGroup, normals: list[int] | None = None
) -> AbstractLattice:
    """The subgroup-inclusion order of the class masks as a bare lattice."""
    if normals is None:
        normals = all_normal_subgroups(group)
    down, up = _order_sets(normals, len(group.class_table.prod))
    return AbstractLattice(_covers_of_order(down, up))


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
        return asdict(self)


def differential_validate(
    spec: TowerGroupSpec,
    max_order: int = DEFAULT_MAX_ORDER,
    lattice: Lattice | None = None,
) -> OracleReport:
    """Compare the triple enumeration against the conjugacy classes of G.

    A lattice of another spec and the order bound are checked before any class
    is built; each factor has order at least 6, so the order bound also caps
    the slots of the lattice enumerated here.  Then, in order: the counts
    agree; profiles give a bijection between the two lists; the oracle down
    and up sets of every element, bitsets over the enumeration, equal its
    ``down_masks`` and ``up_masks``, the closure of its cover moves (leq on
    all ordered pairs); and for every pair, the intersection of the class
    masks is the enumerated meet and the enumerated join J is the product
    N1 N2.  J's mask is a normal subgroup, so once it contains N1 and N2 it
    holds N1 N2, and then equals it exactly when |J| |N1 meet N2| = |N1| |N2|.
    Orders are sums of class sizes, so no element of G is built.  The first
    divergence raises OracleMismatch.
    """
    if lattice is not None and lattice.spec != spec:
        raise SpecMismatch(f"lattice of {format_spec(lattice.spec)} given for {format_spec(spec)}")
    group = concrete_group(spec, max_order)
    table = group.class_table
    masks = _normal_masks(table)
    lat = lattice if lattice is not None else enumerate_lattice(spec)
    name = format_spec(spec)
    n = len(lat)
    if len(masks) != n:
        raise OracleMismatch(
            f"{name}: oracle found {len(masks)} normal subgroups, enumeration {n}"
        )

    at = [0] * n  # the oracle's mask of each enumerated element; 0 while unmatched
    for m in sorted(masks):
        try:
            k = lat.index_of_parts(*table.profile(m))
        except KeyError:
            raise OracleMismatch(
                f"{name}: oracle subgroup of order {table.order(m)} has no enumerated profile"
            ) from None
        if at[k]:
            raise OracleMismatch(f"{name}: profile map is not injective")
        at[k] = m

    for a, mine in enumerate(zip(*_order_sets(at, len(table.prod)))):
        if mine != (lat.down_masks[a], lat.up_masks[a]):
            raise OracleMismatch(f"{name}: leq disagrees on the down or up set of element {a}")

    orders = [table.order(m) for m in at]
    meet_idx, join_idx = lat.meet_idx, lat.join_idx
    pairs = 0
    for a, (ma, oa) in enumerate(zip(at, orders)):
        for b in range(a, n):
            mb = at[b]
            meet = meet_idx(a, b)
            if at[meet] != ma & mb:
                raise OracleMismatch(f"{name}: meet disagrees on pair ({a}, {b})")
            j = join_idx(a, b)
            if (ma | mb) & ~at[j] or orders[j] * orders[meet] != oa * orders[b]:
                raise OracleMismatch(f"{name}: join disagrees on pair ({a}, {b})")
            pairs += 1
    return OracleReport(
        spec=name,
        group_order=group.order,
        oracle_count=len(masks),
        enumerated_count=n,
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


def lemma_lattices() -> dict[str, AbstractLattice]:
    """Concrete normal-subgroup lattices of the small groups the tower visits.

    These are the groups where LatAut cannot be read off the slot formula:
    C2 and C2 x Sm have two-point fibres, C2^2 has the diamond with the full
    GL(2,2) symmetry.  Exported as bare posets for the automorphism search.
    The largest, C2 x S5, has order 240, well inside ``DEFAULT_MAX_ORDER``.
    """
    return {
        name: normal_subgroup_poset(ConcreteGroup(degrees))
        for name, degrees in LEMMA_GROUP_DEGREES.items()
    }
