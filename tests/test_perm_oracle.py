from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, permutations

import pytest

import lattower.perm_oracle as perm_oracle
from lattower.errors import LatTowerError, OracleMismatch, SpecMismatch, TooLarge
from lattower.gf2 import _bits, span
from lattower.group_spec import ChainPosition as CP
from lattower.group_spec import parse_spec, spec_of_degrees
from lattower.lattice_core import enumerate_lattice
from lattower.perm_oracle import (
    ClassTable,
    ConcreteGroup,
    LEMMA_GROUP_DEGREES,
    _normal_masks,
    _order_sets,
    all_normal_subgroups,
    concrete_group,
    differential_validate,
    lemma_lattices,
    normal_subgroup_poset,
)
from lattower.stabiliser import _compose
from lattower.triples import Profile
from test_acceptance import _bottom_index, _heights, _top_index, index_of_profile
from test_lattice_core import _reference_up_sets


@dataclass(frozen=True)
class _ReferencePerm:
    """A permutation of {0..d-1} given by its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise LatTowerError(f"not a permutation: {self.images}")

    def __mul__(self, other):
        """self after other."""
        return _ReferencePerm(tuple(self.images[x] for x in other.images))

    def inverse(self):
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images):
            inv[y] = x
        return _ReferencePerm(tuple(inv))

    @property
    def sign(self):
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


class _ReferenceFactorTable:
    """The dense factor table the conjugation walk replaced, kept as its referee.

    ``perms`` lists the permutations in lex order, ``index`` numbers them,
    ``mul`` and ``inv`` are the multiplication table and the inverses by
    index, and ``sign_bit`` is the parity of each permutation.  ``classes``
    lists the conjugacy classes as sorted member indices, numbered by
    smallest member, ``class_of`` inverts it, and ``prod[a][b]`` is the mask
    of the classes met by x_a * C_b for the smallest member x_a of class a.
    """

    def __init__(self, degree):
        self.degree = degree
        self.perms = tuple(permutations(range(degree)))
        self.index = index = {p: i for i, p in enumerate(self.perms)}
        self.mul = mul = [
            [index[tuple(p[x] for x in q)] for q in self.perms] for p in self.perms
        ]
        self.inv = inv = [row.index(0) for row in mul]
        pairs = list(combinations(range(degree), 2))
        self.sign_bit = [sum(p[x] > p[y] for x, y in pairs) & 1 for p in self.perms]
        n = len(self.perms)
        self.class_of = [-1] * n
        self.classes = []
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

    def position_ids(self, pos):
        """Indices of the permutations in one chain subgroup; V only at degree 4."""
        if pos is CP.TRIV:
            return frozenset({self.index[tuple(range(self.degree))]})
        if pos is CP.V:
            if self.degree != 4:
                raise LatTowerError("V position outside degree 4")
            vperms = [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
            return frozenset(self.index[p] for p in vperms)
        if pos is CP.ALT:
            return frozenset(i for i, b in enumerate(self.sign_bit) if b == 0)
        return frozenset(range(len(self.perms)))

    @cached_property
    def chain_classes(self):
        """Each chain subgroup of this factor as a mask over its classes."""
        return {
            pos: sum(1 << c for c in {self.class_of[x] for x in self.position_ids(pos)})
            for pos in CP
            if pos is not CP.V or self.degree == 4
        }


@lru_cache(maxsize=None)
def _reference_factor_table(degree):
    return _ReferenceFactorTable(degree)


class _ReferenceGroup(ConcreteGroup):
    """The element model the class masks replaced, kept as their referee.

    The id of an element is the mixed-radix ranking of its per-factor
    permutation indices, most significant factor first, so the identity gets
    id 0.  ``classes`` lists each conjugacy class by element ids, in the
    numbering of the class table, and ``class_of`` inverts it.
    """

    def __init__(self, degrees, max_order=perm_oracle.DEFAULT_MAX_ORDER):
        super().__init__(degrees, max_order)
        self.tables = [_reference_factor_table(d) for d in self.degrees]
        sizes = [len(t.perms) for t in self.tables]
        places = []
        acc = 1
        for size in reversed(sizes):
            places.append(acc)
            acc *= size
        self.places = tuple(reversed(places))
        self.components = []
        for g in range(self.order):
            rest = g
            comp = []
            for place in self.places:
                comp.append(rest // place)
                rest %= place
            self.components.append(tuple(comp))
        self.inverses = [
            self.from_components(tuple(t.inv[c] for t, c in zip(self.tables, comp)))
            for comp in self.components
        ]

    identity = 0

    def from_components(self, comp):
        return sum(c * p for c, p in zip(comp, self.places))

    def product(self, a, b):
        ca, cb = self.components[a], self.components[b]
        return self.from_components(tuple(t.mul[x][y] for t, x, y in zip(self.tables, ca, cb)))

    def inverse(self, a):
        return self.inverses[a]

    def conjugate(self, a, by):
        return self.product(self.product(by, a), self.inverses[by])

    def embed(self, factor, perm_index):
        comp = [0] * len(self.degrees)
        comp[factor] = perm_index
        return self.from_components(comp)

    def sign_bits(self, a):
        """Bit j set when the component in factor j is odd."""
        comp = self.components[a]
        return sum(t.sign_bit[c] << j for j, (t, c) in enumerate(zip(self.tables, comp)))

    @cached_property
    def classes(self):
        classes = [(0,)]
        size = 1
        for t in reversed(self.tables):
            classes = [
                tuple(x * size + g for x in head for g in tail)
                for head in t.classes
                for tail in classes
            ]
            size *= len(t.perms)
        return classes

    @cached_property
    def class_of(self):
        class_of = [0]
        width = 1
        for t in reversed(self.tables):
            class_of = [c * width + rest for c in t.class_of for rest in class_of]
            width *= len(t.classes)
        return class_of

    def mask_of(self, sub):
        """The classes an element set meets; exact for a union of classes."""
        mask = 0
        for g in sub.ids:
            mask |= 1 << self.class_of[g]
        return mask

    def subgroup(self, mask):
        return _ReferenceSubgroup(tuple(sorted(g for i in _bits(mask) for g in self.classes[i])))


@dataclass(frozen=True)
class _ReferenceSubgroup:
    """A subgroup as a sorted tuple of element ids."""

    ids: tuple

    @classmethod
    def from_ids(cls, ids):
        return cls(tuple(sorted(set(ids))))

    def __len__(self):
        return len(self.ids)

    def id_set(self):
        return frozenset(self.ids)


class NotTowerGroup(LatTowerError):
    """Concrete group has a factor of degree below 3, so profiles are undefined."""


def _reference_extract_profile(group, sub):
    """Read the profile of a normal subgroup off its raw element set.

    The effective component per slot is the projection, identified among the
    chain subgroups; the sign subspace is spanned by the sign patterns of all
    elements.  Factors of degree 2 have no tower profile, hence NotTowerGroup.
    """
    if any(d < 3 for d in group.degrees):
        raise NotTowerGroup(f"degrees {group.degrees} include a factor below S3")
    if any(a > b for a, b in zip(group.degrees, group.degrees[1:])):
        raise NotTowerGroup(f"degrees {group.degrees} not in canonical slot order")
    spec = spec_of_degrees(group.degrees)
    eff = []
    for j, table in enumerate(group.tables):
        proj = {group.components[g][j] for g in sub.ids}
        for pos in (CP.TRIV, CP.V, CP.ALT, CP.FULL):
            if pos is CP.V and table.degree != 4:
                continue
            if proj == table.position_ids(pos):
                eff.append(pos)
                break
        else:
            raise OracleMismatch(f"projection of size {len(proj)} at factor {j} is no chain")
    signs = span(len(group.degrees), {group.sign_bits(g) for g in sub.ids})
    return Profile(spec, tuple(eff), signs)


def _reference_element_perms(group, a):
    return tuple(_ReferencePerm(t.perms[c]) for t, c in zip(group.tables, group.components[a]))


def _reference_generators(group):
    """A transposition and a full cycle in every factor."""
    gens = []
    for j, (d, table) in enumerate(zip(group.degrees, group.tables)):
        gens.append(group.embed(j, table.index[tuple([1, 0] + list(range(2, d)))]))
        if d > 2:
            gens.append(group.embed(j, table.index[tuple(list(range(1, d)) + [0])]))
    return gens


def _reference_is_normal(group, sub):
    ids = sub.id_set()
    gens = _reference_generators(group)
    return all(group.conjugate(x, h) in ids for x in sub.ids for h in gens)


def _reference_block_projection(group, sub, factors):
    """Image under projection onto some factors, embedded back with identity."""
    out = set()
    for g in sub.ids:
        comp = [c if j in factors else 0 for j, c in enumerate(group.components[g])]
        out.add(group.from_components(comp))
    return _ReferenceSubgroup.from_ids(out)


def _reference_block_intersection(group, sub, factors):
    """Elements of the subgroup supported entirely on the given factors."""
    return _ReferenceSubgroup.from_ids(
        g
        for g in sub.ids
        if all(c == 0 for j, c in enumerate(group.components[g]) if j not in factors)
    )


def _reference_class_join(table, a, b):
    """The product N1 N2 as the OR of prod[i][j] over the classes i of a outside b and j of b.

    Classes of a inside b only contribute products already in b.
    """
    out = a | b
    inside = list(_bits(b))
    for i in _bits(a & ~b):
        row = table.prod[i]
        for j in inside:
            out |= row[j]
    return out


def _reference_normal_masks(table):
    """The closure the reach rows replaced: each closure joined onto all found."""
    closures = {table.closure(c) for c in range(len(table.prod))}
    found = {1}
    for s in sorted(closures):
        found |= {_reference_class_join(table, s, n) for n in found}
    return found


def _reference_down_sets(masks):
    """The pairwise inclusion loop the per-class bitsets replaced."""
    down = []
    for big in masks:
        m = 0
        for i, small in enumerate(masks):
            if not small & ~big:
                m |= 1 << i
        down.append(m)
    return down


# The set-based route the class masks replaced, kept as their referee.  It
# uses only products and conjugation on element ids, never the class table.


def _reference_normal_closure(group, g):
    cls = {group.conjugate(g, h) for h in range(group.order)}
    seen = {group.identity}
    frontier = [group.identity]
    while frontier:
        x = frontier.pop()
        for c in cls:
            y = group.product(x, c)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return _ReferenceSubgroup.from_ids(seen)


def _reference_join(group, a, b):
    """Product set AB, a subgroup because both inputs are normal."""
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    result = set(large.ids)
    for r in small.ids:
        if r in result:
            continue
        result.update(group.product(r, m) for m in large.ids)
    return _ReferenceSubgroup.from_ids(result)


def _reference_normal_subgroups(group):
    """Closures of one element per conjugacy class, then pairwise join closure."""
    classified = set()
    normals = {}
    for g in range(group.order):
        if g in classified:
            continue
        classified.update(group.conjugate(g, h) for h in range(group.order))
        n = _reference_normal_closure(group, g)
        normals[n.ids] = n
    work = list(normals.values())
    while work:
        fresh = []
        for a in work:
            for b in list(normals.values()):
                j = _reference_join(group, a, b)
                if j.ids not in normals:
                    normals[j.ids] = j
                    fresh.append(j)
        work = fresh
    return sorted(normals.values(), key=lambda s: (len(s), s.ids))


def _reference_class_table(group):
    """Classes by a conjugation search over G, supports by k |G| products.

    The whole-group construction the per-factor table replaced, kept as its
    referee: returns (classes, class_of, prod) in the same numbering.
    """
    gens = _reference_generators(group)
    class_of = [-1] * group.order
    classes = []
    for g in range(group.order):
        if class_of[g] >= 0:
            continue
        seen = {g}
        frontier = [g]
        while frontier:
            x = frontier.pop()
            for h in gens:
                y = group.conjugate(x, h)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        members = tuple(sorted(seen))
        for x in members:
            class_of[x] = len(classes)
        classes.append(members)
    prod = []
    for members in classes:
        row = [0] * len(classes)
        for y in range(group.order):
            row[class_of[y]] |= 1 << class_of[group.product(members[0], y)]
        prod.append(row)
    return classes, class_of, prod


def test_perm_basics():
    t = _ReferencePerm((1, 0, 2))
    c = _ReferencePerm((1, 2, 0))
    assert (t * c).images == tuple(t.images[c.images[x]] for x in range(3))
    assert t.inverse() == t
    assert (c * c.inverse()).images == (0, 1, 2)
    assert t.sign == -1
    assert c.sign == 1
    with pytest.raises(LatTowerError):
        _ReferencePerm((0, 0, 1))
    # the reference factor tables read the sign off the inversion count
    for d in (2, 3, 4, 5):
        table = _reference_factor_table(d)
        assert table.sign_bit == [_ReferencePerm(p).sign == -1 for p in table.perms]


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
def test_factor_table_matches_the_dense_table(degree):
    # same classes in the same numbering, read without a multiplication table
    t = perm_oracle._factor_table(degree)
    ref = _reference_factor_table(degree)
    assert t.sizes == [len(c) for c in ref.classes]
    assert t.sign_bit == [ref.sign_bit[c[0]] for c in ref.classes]
    assert t.prod == ref.prod
    assert list(t.chain_classes.items()) == list(ref.chain_classes.items())


def test_group_layout():
    g = _ReferenceGroup((3, 3))
    assert g.order == 36
    assert g.identity == 0
    assert g.components[0] == (0, 0)
    # ids are mixed radix, most significant factor first
    assert g.from_components((1, 0)) == 6
    assert g.from_components((0, 1)) == 1


def test_group_product_matches_perm_product(rng):
    g = _ReferenceGroup((3, 4))
    for _ in range(80):
        a, b = rng.randrange(g.order), rng.randrange(g.order)
        ab = g.product(a, b)
        for pa, pb, pab in zip(*(_reference_element_perms(g, x) for x in (a, b, ab))):
            assert pa * pb == pab
        assert g.product(a, g.inverse(a)) == g.identity


def test_group_order_bound():
    with pytest.raises(TooLarge):
        ConcreteGroup((5, 5), max_order=5000)


def _reference_bits(mask):
    """The set bits of mask, lowest first, one bit at a time."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def test_bits_reads_every_set_bit_in_order(rng):
    masks = [0, 1, 0x80, 0x100, (1 << 200) - 1, 1 << 1124]
    masks += [rng.getrandbits(rng.randrange(1, 1200)) for _ in range(200)]
    for mask in masks:
        assert _bits(mask) == list(_reference_bits(mask)), hex(mask)


def test_sign_bits():
    g = _ReferenceGroup((3, 3))
    t = g.tables[0].index[(1, 0, 2)]
    odd_left = g.embed(0, t)
    odd_both = g.product(odd_left, g.embed(1, t))
    assert g.sign_bits(g.identity) == 0
    assert g.sign_bits(odd_left) == 0b01
    assert g.sign_bits(odd_both) == 0b11


def _class_closure(group, g):
    """The normal closure of g through the class table's closure of its class."""
    closure = group.subgroup(group.class_table.closure(group.class_of[g]))
    assert closure == _reference_normal_closure(group, g)
    return closure


def test_normal_closures_in_s3():
    g = _ReferenceGroup((3,))
    transposition = g.tables[0].index[(1, 0, 2)]
    three_cycle = g.tables[0].index[(1, 2, 0)]
    assert len(_class_closure(g, transposition)) == 6
    assert len(_class_closure(g, three_cycle)) == 3


def test_normal_closure_of_double_transposition_is_v():
    g = _ReferenceGroup((4,))
    double = g.tables[0].index[(1, 0, 3, 2)]
    v = _class_closure(g, double)
    assert len(v) == 4
    assert v.id_set() == g.tables[0].position_ids(CP.V)


def test_is_normal():
    g = _ReferenceGroup((3,))
    alt = _ReferenceSubgroup.from_ids(g.tables[0].position_ids(CP.ALT))
    assert _reference_is_normal(g, alt)
    transposition = g.tables[0].index[(1, 0, 2)]
    two = _ReferenceSubgroup.from_ids({g.identity, transposition})
    assert not _reference_is_normal(g, two)


def test_subgroup_join():
    g = _ReferenceGroup((3,))
    alt = _ReferenceSubgroup.from_ids(g.tables[0].position_ids(CP.ALT))
    transposition = g.tables[0].index[(1, 0, 2)]
    whole = _reference_join(g, alt, _class_closure(g, transposition))
    assert len(whole) == 6
    assert _reference_is_normal(g, whole)
    joined = _reference_class_join(g.class_table, g.mask_of(alt), g.mask_of(whole))
    assert g.subgroup(joined) == whole


def test_class_table_of_s4():
    g = _ReferenceGroup((4,))
    table = g.class_table
    # identity, transpositions, double transpositions, 3-cycles, 4-cycles
    assert g.classes[0] == (g.identity,)
    assert table.sizes == [len(c) for c in g.classes]
    assert sorted(table.sizes) == [1, 3, 6, 6, 8]
    assert all(g.class_of[x] == i for i, c in enumerate(g.classes) for x in c)
    assert [c[0] for c in g.classes] == sorted(c[0] for c in g.classes)
    assert g.class_table is table


# normal subgroup counts recomputed from scratch on every run
NORMAL_COUNTS = {
    (3,): 3,
    (4,): 4,
    (5,): 3,
    (6,): 3,
    (2,): 2,
    (2, 2): 5,
    (2, 3): 7,
    (2, 4): 9,
    (2, 5): 7,
    (3, 3): 10,
    (3, 4): 13,
}


@pytest.mark.parametrize("degrees, count", sorted(NORMAL_COUNTS.items()))
def test_normal_subgroup_counts(degrees, count):
    g = _ReferenceGroup(degrees)
    normals = all_normal_subgroups(g)
    assert len(normals) == count
    assert g.class_table.order(normals[0]) == 1
    assert g.class_table.order(normals[-1]) == g.order
    assert all(_reference_is_normal(g, g.subgroup(m)) for m in normals)


REFEREE_DEGREES = sorted(
    set(NORMAL_COUNTS)
    | {(3, 3, 3), (3, 3, 4), (4, 4), (3, 5)}
    | set(LEMMA_GROUP_DEGREES.values())
)


def _name(degrees):
    return "x".join(f"S{d}" for d in degrees)


@pytest.mark.parametrize(
    "degrees", REFEREE_DEGREES + [(3, 3, 3, 3), (3, 3, 5), (3, 4, 4)], ids=_name
)
def test_class_table_matches_the_whole_group_construction(degrees):
    g = _ReferenceGroup(degrees)
    table = g.class_table
    classes, class_of, prod = _reference_class_table(g)
    assert (g.classes, g.class_of, table.prod) == (classes, class_of, prod)
    assert table.sizes == [len(c) for c in classes]
    assert table.signs == [g.sign_bits(c[0]) for c in classes]
    fibres = [[0] * len(t.classes) for t in g.tables]
    for i, members in enumerate(classes):
        for fibre, t, x in zip(fibres, g.tables, g.components[members[0]]):
            fibre[t.class_of[x]] |= 1 << i
    assert table.fibres == fibres


@pytest.mark.parametrize(
    "degrees, count", [((3, 3, 4, 4), 225), ((3, 3, 3, 3, 3), 243)], ids=["S4^2*S3^2", "S3^5"]
)
def test_class_count_is_the_product_of_the_partition_counts(degrees, count):
    # p(3) = 3 and p(4) = 5: 3^2 * 5^2 and 3^5
    g = _ReferenceGroup(degrees, max_order=20_736)
    assert len(g.class_table.sizes) == len(g.classes) == count
    assert sorted(x for c in g.classes for x in c) == list(range(g.order))


def test_the_oracle_multiplies_no_element_of_the_whole_group():
    report = differential_validate(parse_spec("S4*S3^2"))
    assert (report.oracle_count, report.pairs_checked) == (48, 1176)
    sizes = {name: poset.n for name, poset in lemma_lattices().items()}
    assert sizes == {"C2": 2, "C2^2": 5, "C2xS3": 7, "C2xS4": 9, "C2xS5": 7}


@pytest.mark.parametrize("degrees", REFEREE_DEGREES, ids=_name)
def test_class_masks_find_the_reference_normal_subgroups(degrees):
    # the same subgroups, and in the reference (order, ids) order
    g = _ReferenceGroup(degrees)
    normals = all_normal_subgroups(g)
    assert normals == [g.mask_of(n) for n in _reference_normal_subgroups(g)]
    assert all(_reference_is_normal(g, g.subgroup(m)) for m in normals)


@pytest.mark.parametrize(
    "degrees", [d for d in REFEREE_DEGREES if ConcreteGroup(d).order <= 216], ids=_name
)
def test_class_mask_operations_match_the_sets_on_every_pair(degrees):
    g = _ReferenceGroup(degrees)
    table = g.class_table
    normals = _reference_normal_subgroups(g)
    sets = [n.id_set() for n in normals]
    masks = [g.mask_of(n) for n in normals]
    for n, m in zip(normals, masks):
        assert g.subgroup(m) == n
    for a, sa, ma in zip(normals, sets, masks):
        for b, sb, mb in zip(normals, sets, masks):
            assert (not ma & ~mb) == (sa <= sb)
            assert g.subgroup(ma & mb) == _ReferenceSubgroup.from_ids(sa & sb)
            assert g.subgroup(_reference_class_join(table, ma, mb)) == _reference_join(g, a, b)


def test_poset_of_s4_is_a_chain():
    poset = normal_subgroup_poset(ConcreteGroup((4,)))
    assert poset.n == 4
    assert len(poset.covers) == 3
    assert _heights(poset.n, poset.covers) == [0, 1, 2, 3]


def test_poset_of_c2_squared_is_a_diamond():
    poset = normal_subgroup_poset(ConcreteGroup((2, 2)))
    assert poset.n == 5
    assert len(poset.covers) == 6
    assert sorted(_heights(poset.n, poset.covers)) == [0, 1, 1, 1, 2]


def test_goursat_invariants_on_s3_x_s4():
    # for N normal in G1 x G2: |N| = |proj_1 N| * |N meet G2| = |proj_2 N| * |N meet G1|
    g = _ReferenceGroup((3, 4))
    for n in map(g.subgroup, all_normal_subgroups(g)):
        a = _reference_block_projection(g, n, (0,))
        b = _reference_block_intersection(g, n, (0,))
        c = _reference_block_projection(g, n, (1,))
        d = _reference_block_intersection(g, n, (1,))
        assert len(b) <= len(a) and len(d) <= len(c)
        assert len(n) == len(a) * len(d) == len(c) * len(b)


def test_extract_profile_top_and_bottom():
    spec = parse_spec("S3^2")
    assert concrete_group(spec).degrees == spec.degrees
    g = _ReferenceGroup(spec.degrees)
    whole = _ReferenceSubgroup.from_ids(range(g.order))
    top = _reference_extract_profile(g, whole)
    assert top.eff == (CP.FULL, CP.FULL)
    assert top.signs.size == 4
    bottom = _reference_extract_profile(g, _ReferenceSubgroup.from_ids({g.identity}))
    assert bottom.eff == (CP.TRIV, CP.TRIV)
    assert bottom.signs.dim == 0


def test_extract_profile_rejects_non_tower_groups():
    g = _ReferenceGroup((2, 3))
    with pytest.raises(NotTowerGroup):
        _reference_extract_profile(g, _ReferenceSubgroup.from_ids({g.identity}))
    g = _ReferenceGroup((4, 3))
    with pytest.raises(NotTowerGroup):
        _reference_extract_profile(g, _ReferenceSubgroup.from_ids({g.identity}))


def test_lemma_lattice_sizes():
    sizes = {name: poset.n for name, poset in lemma_lattices().items()}
    assert sizes == {"C2": 2, "C2^2": 5, "C2xS3": 7, "C2xS4": 9, "C2xS5": 7}


def test_differential_validate_smoke(lattices):
    report = differential_validate(parse_spec("S3^2"), lattice=lattices.get("S3^2"))
    assert report.ok
    assert report.oracle_count == report.enumerated_count == 10
    assert report.pairs_checked == 55
    assert report.to_json_dict()["spec"] == "S3^2"


# The class-route fast paths, each refereed by the route it replaced, on every
# group up to S4^2*S3^2.
FAST_PATH_DEGREES = REFEREE_DEGREES + [(3, 3, 3, 3), (3, 3, 5), (3, 4, 4), (3, 3, 4, 4)]
TOWER_DEGREES = [d for d in FAST_PATH_DEGREES if min(d) >= 3]


def _group(degrees):
    return _ReferenceGroup(degrees, max_order=20_736)


def _oracle_at(degrees):
    """The spec, its lattice, the class table and each element's oracle mask."""
    spec = spec_of_degrees(degrees)
    lat = enumerate_lattice(spec)
    table = ClassTable(degrees)
    at = [0] * len(lat)
    for m in _normal_masks(table):
        eff, patterns = table.profile(m)
        at[index_of_profile(lat, Profile(spec, eff, span(len(eff), patterns)))] = m
    assert all(at)
    return spec, lat, table, at


@pytest.mark.parametrize("degrees", FAST_PATH_DEGREES, ids=_name)
def test_reach_row_closure_matches_the_pairwise_join_closure(degrees):
    table = ClassTable(degrees)
    assert _normal_masks(table) == _reference_normal_masks(table)


@pytest.mark.parametrize("degrees", FAST_PATH_DEGREES, ids=_name)
def test_the_mask_order_is_the_reference_id_order(degrees):
    # (order, classes) sorts the masks as (length, ids) sorts their element lists
    g = _group(degrees)
    normals = all_normal_subgroups(g)
    by_ids = sorted(map(g.subgroup, normals), key=lambda s: (len(s), s.ids))
    assert normals == [g.mask_of(n) for n in by_ids]


@pytest.mark.parametrize("degrees", TOWER_DEGREES, ids=_name)
def test_class_route_profile_and_order_match_the_element_route(degrees):
    g = _group(degrees)
    spec = spec_of_degrees(degrees)
    table = g.class_table
    assert sum(table.sizes) == g.order
    for m in all_normal_subgroups(g):
        n = g.subgroup(m)
        assert g.mask_of(n) == m
        assert table.order(m) == len(n)
        eff, patterns = table.profile(m)
        assert Profile(spec, eff, span(len(eff), patterns)) == _reference_extract_profile(g, n)


@pytest.mark.parametrize("degrees", TOWER_DEGREES, ids=_name)
def test_the_order_check_singles_out_the_product_on_every_pair(degrees):
    # Among all normal masks, the ones holding N1 and N2 with
    # |M| |N1 meet N2| = |N1| |N2| are exactly the product N1 N2; and it is
    # the enumerated join.
    _, lat, table, at = _oracle_at(degrees)
    orders = [table.order(m) for m in at]
    by_order = {}
    for m, o in zip(at, orders):
        by_order.setdefault(o, []).append(m)
    for a, (ma, oa) in enumerate(zip(at, orders)):
        for b in range(a, len(at)):
            mb = at[b]
            size, rest = divmod(oa * orders[b], table.order(ma & mb))
            assert rest == 0
            passing = [m for m in by_order.get(size, []) if not (ma | mb) & ~m]
            assert passing == [_reference_class_join(table, ma, mb)]
            assert at[lat.context.join(a, b)] == passing[0]


@pytest.mark.parametrize("degrees", TOWER_DEGREES, ids=_name)
def test_oracle_down_sets_equal_down_masks(degrees):
    _, lat, table, at = _oracle_at(degrees)
    down, up = _order_sets(at, len(table.prod))
    assert down == list(lat.down_masks) == _reference_down_sets(at)
    assert tuple(up) == lat.up_masks == _reference_up_sets(down)


@pytest.mark.parametrize("degrees", FAST_PATH_DEGREES, ids=_name)
def test_poset_up_sets_are_the_transpose_of_the_down_sets(degrees):
    poset = normal_subgroup_poset(ConcreteGroup(degrees, max_order=20_736))
    assert poset.up == _reference_up_sets(poset.down)


@pytest.mark.parametrize("degrees", sorted(LEMMA_GROUP_DEGREES.values()) + [(3, 4)], ids=_name)
def test_poset_down_sets_match_the_pairwise_loop(degrees):
    g = _ReferenceGroup(degrees)
    normals = all_normal_subgroups(g)
    sets = [g.subgroup(m).id_set() for m in normals]
    by_sets = [sum(1 << i for i, small in enumerate(sets) if small <= big) for big in sets]
    down = normal_subgroup_poset(g, normals).down
    assert down == tuple(_reference_down_sets(normals)) == tuple(by_sets)


def test_differential_validate_builds_no_element(monkeypatch):
    # Only the factor tables compose permutations, each of one S3 factor, and
    # they make fewer products than G = S3^4 has elements.
    degrees = []

    def counted(a, b):
        degrees.append(len(a))
        return _compose(a, b)

    monkeypatch.setattr(perm_oracle, "_compose", counted)
    perm_oracle._factor_table.cache_clear()
    report = differential_validate(parse_spec("S3^4"))
    assert (report.group_order, report.oracle_count, report.pairs_checked) == (1296, 170, 14535)
    assert set(degrees) == {3} and len(degrees) < report.group_order


@pytest.mark.parametrize(
    "spec, max_order, order",
    [
        ("S3^3", 100, "216"),
        ("S5^2", 5000, "14400"),
        # 8!^1000 is past the interpreter's int-to-str digit limit, which stays as it is
        ("S8^1000", 5000, "of 15300 bits"),
        # S20^1000*...*S3^1000, 18,000 slots: one power per degree, not a
        # factorial per slot
        pytest.param(
            "*".join(f"S{d}^1000" for d in range(20, 2, -1)),
            5000,
            "of 517571 bits",
            id="S20^1000*...*S3^1000",
        ),
    ],
)
def test_bounds_are_checked_before_the_class_table(spec, max_order, order, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("class table built")

    monkeypatch.setattr(perm_oracle, "ClassTable", refuse)
    with pytest.raises(TooLarge) as exc:
        differential_validate(parse_spec(spec), max_order=max_order)
    assert str(exc.value) == f"group order {order} exceeds the oracle bound {max_order}"


@pytest.mark.parametrize("check", ["join", "meet", "leq"])
@pytest.mark.parametrize("text", ["S3^2", "S4*S3"])
def test_a_corrupted_lattice_is_caught_by_its_check(check, text, corrupt_lattice):
    spec = parse_spec(text)
    lat = corrupt_lattice(enumerate_lattice(spec), check)
    with pytest.raises(OracleMismatch, match=f"{check} disagrees"):
        differential_validate(spec, lattice=lat)


def test_a_corrupted_up_set_is_caught_by_the_leq_check():
    spec = parse_spec("S4*S3")
    lat = enumerate_lattice(spec)
    up = list(lat.context.up)
    up[_top_index(lat)] |= 1 << _bottom_index(lat)
    lat.context.up = tuple(up)
    with pytest.raises(OracleMismatch, match="leq disagrees on the down or up set"):
        differential_validate(spec, lattice=lat)


def test_a_lattice_of_another_spec_is_refused_before_the_class_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("class table built")

    monkeypatch.setattr(perm_oracle, "ClassTable", refuse)
    with pytest.raises(SpecMismatch, match="lattice of S3 given for S4"):
        differential_validate(parse_spec("S4"), lattice=enumerate_lattice(parse_spec("S3")))


def test_a_dropped_cover_is_caught_by_the_leq_check():
    """The order relation is the closure of the cover moves, so the oracle
    referees the covers: one cover dropped into an element with three or
    more lower covers keeps every join-irreducible, but leaves the lower
    end out of that element's down set."""
    spec = parse_spec("S3^3")
    lat = enumerate_lattice(spec)
    rows = list(lat.up_covers())
    lower: dict[int, list[int]] = {}
    for x, above in enumerate(rows):
        for y in above:
            lower.setdefault(y, []).append(x)
    y = min(y for y, below in lower.items() if len(below) >= 3)
    rows[lower[y][0]].remove(y)
    lat.up_covers = lambda: iter(rows)
    with pytest.raises(OracleMismatch, match="leq disagrees on the down or up set"):
        differential_validate(spec, lattice=lat)
