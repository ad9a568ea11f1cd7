import pytest

from lattower.errors import LatTowerError, NotTowerGroup, TooLarge
from lattower.group_spec import ChainPosition as CP
from lattower.group_spec import parse_spec
from lattower.perm_oracle import (
    ConcreteGroup,
    ConcreteSubgroup,
    LEMMA_GROUP_DEGREES,
    Perm,
    all_normal_subgroups,
    block_intersection,
    block_projection,
    concrete_group,
    differential_validate,
    extract_profile,
    is_normal,
    lemma_lattices,
    normal_closure,
    normal_subgroup_poset,
)


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
    gens = group.generators
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
    t = Perm((1, 0, 2))
    c = Perm((1, 2, 0))
    assert (t * c).images == tuple(t.images[c.images[x]] for x in range(3))
    assert t.inverse() == t
    assert (c * c.inverse()).images == (0, 1, 2)
    assert t.sign == -1
    assert c.sign == 1
    with pytest.raises(LatTowerError):
        Perm((0, 0, 1))


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
        for pa, pb, pab in zip(g.element_perms(a), g.element_perms(b), g.element_perms(ab)):
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
    assert is_normal(g, alt)
    transposition = g.tables[0].index[(1, 0, 2)]
    two = ConcreteSubgroup.from_ids({g.identity, transposition})
    assert not is_normal(g, two)


def test_subgroup_join():
    g = ConcreteGroup((3,))
    alt = ConcreteSubgroup.from_ids(g.tables[0].position_ids(CP.ALT))
    transposition = g.tables[0].index[(1, 0, 2)]
    whole = _reference_join(g, alt, normal_closure(g, transposition))
    assert len(whole) == 6
    assert is_normal(g, whole)
    table = g.class_table
    assert table.subgroup(table.join(table.mask_of(alt), table.mask_of(whole))) == whole


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
    assert all(is_normal(ConcreteGroup(degrees), n) for n in normals)


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
    assert all(is_normal(g, n) for n in normals)


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
            assert table.subgroup(table.join(ma, mb)) == _reference_join(g, a, b)


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
        a = block_projection(g, n, (0,))
        b = block_intersection(g, n, (0,))
        c = block_projection(g, n, (1,))
        d = block_intersection(g, n, (1,))
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
