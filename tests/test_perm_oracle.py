from dataclasses import dataclass

import pytest

import lattower.perm_oracle as perm_oracle
from lattower.errors import LatTowerError, NotTowerGroup, OracleMismatch, TooLarge
from lattower.group_spec import ChainPosition as CP
from lattower.group_spec import parse_spec, spec_of_degrees
from lattower.lattice_core import enumerate_lattice
from lattower.perm_oracle import (
    ClassTable,
    ConcreteGroup,
    ConcreteSubgroup,
    LEMMA_GROUP_DEGREES,
    _down_sets,
    _normal_masks,
    all_normal_subgroups,
    concrete_group,
    differential_validate,
    extract_profile,
    lemma_lattices,
    normal_closure,
    normal_subgroup_poset,
)


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
    return ConcreteSubgroup.from_ids(out)


def _reference_block_intersection(group, sub, factors):
    """Elements of the subgroup supported entirely on the given factors."""
    return ConcreteSubgroup.from_ids(
        g
        for g in sub.ids
        if all(c == 0 for j, c in enumerate(group.components[g]) if j not in factors)
    )


def _reference_class_join(table, a, b):
    """The product N1 N2 as the OR of prod[i][j] over the classes i of a outside b and j of b.

    Classes of a inside b only contribute products already in b.
    """
    out = a | b
    inside = list(perm_oracle._bits(b))
    for i in perm_oracle._bits(a & ~b):
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
    return ConcreteSubgroup.from_ids(seen)


def _reference_join(group, a, b):
    """Product set AB, a subgroup because both inputs are normal."""
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    result = set(large.ids)
    for r in small.ids:
        if r in result:
            continue
        result.update(group.product(r, m) for m in large.ids)
    return ConcreteSubgroup.from_ids(result)


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
    # the factor tables read the sign off the inversion count
    for d in (2, 3, 4, 5):
        table = perm_oracle._factor_table(d)
        assert table.sign_bit == [_ReferencePerm(p).sign == -1 for p in table.perms]


def test_group_layout():
    g = ConcreteGroup((3, 3))
    assert g.order == 36
    assert g.identity == 0
    assert g.components[0] == (0, 0)
    # ids are mixed radix, most significant factor first
    assert g.from_components((1, 0)) == 6
    assert g.from_components((0, 1)) == 1


def test_group_product_matches_perm_product(rng):
    g = ConcreteGroup((3, 4))
    for _ in range(80):
        a, b = rng.randrange(g.order), rng.randrange(g.order)
        ab = g.product(a, b)
        for pa, pb, pab in zip(*(_reference_element_perms(g, x) for x in (a, b, ab))):
            assert pa * pb == pab
        assert g.product(a, g.inverse(a)) == g.identity


def test_group_order_bound():
    with pytest.raises(TooLarge):
        ConcreteGroup((5, 5), max_order=5000)


def test_sign_bits():
    g = ConcreteGroup((3, 3))
    t = g.tables[0].index[(1, 0, 2)]
    odd_left = g.embed(0, t)
    odd_both = g.product(odd_left, g.embed(1, t))
    assert g.sign_bits(g.identity) == 0
    assert g.sign_bits(odd_left) == 0b01
    assert g.sign_bits(odd_both) == 0b11


def test_normal_closures_in_s3():
    g = ConcreteGroup((3,))
    transposition = g.tables[0].index[(1, 0, 2)]
    three_cycle = g.tables[0].index[(1, 2, 0)]
    assert len(normal_closure(g, transposition)) == 6
    assert len(normal_closure(g, three_cycle)) == 3


def test_normal_closure_of_double_transposition_is_v():
    g = ConcreteGroup((4,))
    double = g.tables[0].index[(1, 0, 3, 2)]
    v = normal_closure(g, double)
    assert len(v) == 4
    assert v.id_set() == g.tables[0].position_ids(CP.V)


def test_is_normal():
    g = ConcreteGroup((3,))
    alt = ConcreteSubgroup.from_ids(g.tables[0].position_ids(CP.ALT))
    assert _reference_is_normal(g, alt)
    transposition = g.tables[0].index[(1, 0, 2)]
    two = ConcreteSubgroup.from_ids({g.identity, transposition})
    assert not _reference_is_normal(g, two)


def test_subgroup_join():
    g = ConcreteGroup((3,))
    alt = ConcreteSubgroup.from_ids(g.tables[0].position_ids(CP.ALT))
    transposition = g.tables[0].index[(1, 0, 2)]
    whole = _reference_join(g, alt, normal_closure(g, transposition))
    assert len(whole) == 6
    assert _reference_is_normal(g, whole)
    table = g.class_table
    joined = _reference_class_join(table, table.mask_of(alt), table.mask_of(whole))
    assert table.subgroup(joined) == whole


def test_class_table_of_s4():
    g = ConcreteGroup((4,))
    table = g.class_table
    # identity, transpositions, double transpositions, 3-cycles, 4-cycles
    assert table.classes[0] == (g.identity,)
    assert sorted(len(c) for c in table.classes) == [1, 3, 6, 6, 8]
    assert all(table.class_of[x] == i for i, c in enumerate(table.classes) for x in c)
    assert [c[0] for c in table.classes] == sorted(c[0] for c in table.classes)
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
    normals = all_normal_subgroups(ConcreteGroup(degrees))
    assert len(normals) == count
    assert len(normals[0]) == 1
    assert len(normals[-1]) == ConcreteGroup(degrees).order
    assert all(_reference_is_normal(ConcreteGroup(degrees), n) for n in normals)


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
    g = ConcreteGroup(degrees)
    table = g.class_table
    assert (table.classes, table.class_of, table.prod) == _reference_class_table(g)


@pytest.mark.parametrize(
    "degrees, count", [((3, 3, 4, 4), 225), ((3, 3, 3, 3, 3), 243)], ids=["S4^2*S3^2", "S3^5"]
)
def test_class_count_is_the_product_of_the_partition_counts(degrees, count):
    # p(3) = 3 and p(4) = 5: 3^2 * 5^2 and 3^5
    g = ConcreteGroup(degrees, max_order=20_736)
    table = g.class_table
    assert len(table.classes) == count
    assert sorted(x for c in table.classes for x in c) == list(range(g.order))


def test_the_oracle_multiplies_no_element_of_the_whole_group(monkeypatch):
    def refuse(self, a, b):
        raise AssertionError("whole-group product")

    monkeypatch.setattr(ConcreteGroup, "product", refuse)
    report = differential_validate(parse_spec("S4*S3^2"))
    assert (report.oracle_count, report.pairs_checked) == (48, 1176)
    sizes = {name: poset.n for name, poset in lemma_lattices().items()}
    assert sizes == {"C2": 2, "C2^2": 5, "C2xS3": 7, "C2xS4": 9, "C2xS5": 7}


@pytest.mark.parametrize("degrees", REFEREE_DEGREES, ids=_name)
def test_class_masks_find_the_reference_normal_subgroups(degrees):
    g = ConcreteGroup(degrees)
    normals = all_normal_subgroups(g)
    assert [n.ids for n in normals] == [n.ids for n in _reference_normal_subgroups(g)]
    assert all(_reference_is_normal(g, n) for n in normals)


@pytest.mark.parametrize(
    "degrees", [d for d in REFEREE_DEGREES if ConcreteGroup(d).order <= 216], ids=_name
)
def test_class_mask_operations_match_the_sets_on_every_pair(degrees):
    g = ConcreteGroup(degrees)
    table = g.class_table
    normals = _reference_normal_subgroups(g)
    sets = [n.id_set() for n in normals]
    masks = [table.mask_of(n) for n in normals]
    for n, m in zip(normals, masks):
        assert table.subgroup(m) == n
    for a, sa, ma in zip(normals, sets, masks):
        for b, sb, mb in zip(normals, sets, masks):
            assert (not ma & ~mb) == (sa <= sb)
            assert table.subgroup(ma & mb) == ConcreteSubgroup.from_ids(sa & sb)
            assert table.subgroup(_reference_class_join(table, ma, mb)) == _reference_join(g, a, b)


def test_poset_of_s4_is_a_chain():
    poset = normal_subgroup_poset(ConcreteGroup((4,)))
    assert poset.n == 4
    assert len(poset.covers) == 3
    assert poset.heights == (0, 1, 2, 3)


def test_poset_of_c2_squared_is_a_diamond():
    poset = normal_subgroup_poset(ConcreteGroup((2, 2)))
    assert poset.n == 5
    assert len(poset.covers) == 6
    assert sorted(poset.heights) == [0, 1, 1, 1, 2]


def test_goursat_invariants_on_s3_x_s4():
    # for N normal in G1 x G2: |N| = |proj_1 N| * |N meet G2| = |proj_2 N| * |N meet G1|
    g = ConcreteGroup((3, 4))
    for n in all_normal_subgroups(g):
        a = _reference_block_projection(g, n, (0,))
        b = _reference_block_intersection(g, n, (0,))
        c = _reference_block_projection(g, n, (1,))
        d = _reference_block_intersection(g, n, (1,))
        assert len(b) <= len(a) and len(d) <= len(c)
        assert len(n) == len(a) * len(d) == len(c) * len(b)


def test_extract_profile_top_and_bottom():
    spec = parse_spec("S3^2")
    g = concrete_group(spec)
    whole = ConcreteSubgroup.from_ids(range(g.order))
    top = extract_profile(g, whole)
    assert top.eff == (CP.FULL, CP.FULL)
    assert top.signs.size == 4
    bottom = extract_profile(g, ConcreteSubgroup.from_ids({g.identity}))
    assert bottom.eff == (CP.TRIV, CP.TRIV)
    assert bottom.signs.dim == 0


def test_extract_profile_rejects_non_tower_groups():
    g = ConcreteGroup((2, 3))
    with pytest.raises(NotTowerGroup):
        extract_profile(g, ConcreteSubgroup.from_ids({g.identity}))
    g = ConcreteGroup((4, 3))
    with pytest.raises(NotTowerGroup):
        extract_profile(g, ConcreteSubgroup.from_ids({g.identity}))


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
    return ConcreteGroup(degrees, max_order=20_736)


def _oracle_at(degrees):
    """The spec, its lattice, the class table and each element's oracle mask."""
    spec = spec_of_degrees(degrees)
    lat = enumerate_lattice(spec)
    table = ClassTable(degrees)
    at = [0] * len(lat)
    for m in _normal_masks(table):
        at[lat.index_of_profile(table.profile(m, spec))] = m
    assert all(at)
    return spec, lat, table, at


@pytest.mark.parametrize("degrees", FAST_PATH_DEGREES, ids=_name)
def test_reach_row_closure_matches_the_pairwise_join_closure(degrees):
    g = _group(degrees)
    table = g.class_table
    old = _reference_normal_masks(table)
    assert _normal_masks(table) == old
    by_old = sorted((table.subgroup(m) for m in old), key=lambda s: (len(s), s.ids))
    assert [n.ids for n in all_normal_subgroups(g)] == [n.ids for n in by_old]


@pytest.mark.parametrize("degrees", TOWER_DEGREES, ids=_name)
def test_class_route_profile_and_order_match_the_element_route(degrees):
    g = _group(degrees)
    spec = spec_of_degrees(degrees)
    table = g.class_table
    assert sum(table.sizes) == g.order
    for n in all_normal_subgroups(g):
        m = table.mask_of(n)
        assert table.order(m) == len(n)
        assert table.profile(m, spec) == extract_profile(g, n)


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
            assert at[lat.join_idx(a, b)] == passing[0]


@pytest.mark.parametrize("degrees", TOWER_DEGREES, ids=_name)
def test_oracle_down_sets_equal_down_masks(degrees):
    _, lat, table, at = _oracle_at(degrees)
    down = _down_sets(at, len(table.prod))
    assert down == list(lat.down_masks) == _reference_down_sets(at)


@pytest.mark.parametrize("degrees", sorted(LEMMA_GROUP_DEGREES.values()) + [(3, 4)], ids=_name)
def test_poset_down_sets_match_the_pairwise_loop(degrees):
    g = ConcreteGroup(degrees)
    normals = all_normal_subgroups(g)
    masks = [g.class_table.mask_of(n) for n in normals]
    assert normal_subgroup_poset(g, normals).down == tuple(_reference_down_sets(masks))


def test_differential_validate_builds_no_element(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("element built")

    monkeypatch.setattr(ConcreteGroup, "__init__", refuse)
    monkeypatch.setattr(ConcreteSubgroup, "__init__", refuse)
    monkeypatch.setattr(ClassTable, "classes", property(refuse))
    monkeypatch.setattr(ClassTable, "class_of", property(refuse))
    monkeypatch.setattr(perm_oracle, "extract_profile", refuse)
    report = differential_validate(parse_spec("S3^4"))
    assert (report.group_order, report.oracle_count, report.pairs_checked) == (1296, 170, 14535)


@pytest.mark.parametrize(
    "spec, max_order, max_slots",
    [("S3^5", 7776, 4), ("S3^3", 100, 8), ("S5^2", 5000, 1)],
)
def test_bounds_are_checked_before_the_class_table(spec, max_order, max_slots, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("class table built")

    monkeypatch.setattr(perm_oracle, "ClassTable", refuse)
    with pytest.raises(TooLarge):
        differential_validate(parse_spec(spec), max_order=max_order, max_slots=max_slots)


@pytest.mark.parametrize("check", ["join", "meet", "leq"])
@pytest.mark.parametrize("text", ["S3^2", "S4*S3"])
def test_a_corrupted_lattice_is_caught_by_its_check(check, text, corrupt_lattice):
    spec = parse_spec(text)
    lat = corrupt_lattice(enumerate_lattice(spec), check)
    with pytest.raises(OracleMismatch, match=f"{check} disagrees"):
        differential_validate(spec, lattice=lat)
