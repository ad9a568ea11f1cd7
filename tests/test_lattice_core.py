from functools import lru_cache, reduce
from itertools import accumulate, permutations, product
from math import comb
from operator import and_, getitem, or_
from typing import Iterator

import pytest

from lattower import lattice_core
from lattower.errors import (
    DeadCoordinate,
    IllegalChainPosition,
    InvalidProfile,
    LatTowerError,
    SpecMismatch,
    TooLarge,
    UnitVectorInH,
    WidthMismatch,
)
from lattower.gf2 import (
    Subspace,
    _annihilator_mask,
    _lift,
    _perps,
    _pivot,
    _span,
    iter_subspaces,
    parity_kernel,
    span,
    unit_span,
    zero_subspace,
)
from lattower.group_spec import ChainPosition as CP
from lattower.group_spec import chain, make_spec, parse_spec
from lattower.lattice_core import (
    AbstractLattice,
    AdmissibleTriple,
    Lattice,
    FAMILY_MIXED,
    FAMILY_SIGN_PARITY,
    FAMILY_SUB_PRODUCT,
    MAX_CENSUS_SLOTS,
    Profile,
    bottom_element,
    census_of,
    classify,
    element_from_profile,
    element_from_triple,
    enumerate_lattice,
    join,
    leq,
    leq_patterns,
    meet,
    order_of,
    sign_parity_element,
    sub_product_element,
    top_element,
    triple_to_profile,
    profile_to_triple,
    validate_triple,
    _admissible_subspaces,
    _covers_of_order,
    _digits,
    _eff_packer,
    _galois_numbers,
)
from lattower.perm_oracle import LEMMA_GROUP_DEGREES, ConcreteGroup, normal_subgroup_poset
from test_acceptance import (
    ROUND_TRIP_SPECS,
    _bottom_index,
    _edges,
    _heights,
    _reference_leq,
    _top_index,
)

# censuses (sub-products, sign-parity, mixed, total).  The first five are
# confirmed against the raw permutation computation in test_perm_oracle; the
# last two exceed the oracle bound and are pinned regressions.  In every row
# sub-products = product of chain lengths and sign-parity = 2^T - T - 1 can
# be checked by hand; only the mixed count needs the enumeration.
CENSUS = {
    "S3^2": (9, 1, 0, 10),
    "S3*S4": (12, 1, 0, 13),
    "S4^2": (16, 1, 0, 17),
    "S3^3": (27, 4, 7, 38),
    "S3^2*S4": (36, 4, 8, 48),
    "S4^2*S3^2": (144, 11, 101, 256),
    "S5^2*S3^2": (81, 11, 78, 170),
    "S3^5": (243, 26, 661, 930),
}


@pytest.mark.parametrize("text, expected", sorted(CENSUS.items()))
def test_census(text, expected, lattices):
    c = lattices.get(text).census
    assert (c.sub_products, c.sign_parity, c.mixed, c.total) == expected


def test_trivial_group_lattice():
    lat = enumerate_lattice(parse_spec("1"))
    assert len(lat) == 1
    assert lat.elements[0].order == 1


def test_single_factor_lattices():
    assert len(enumerate_lattice(parse_spec("S3"))) == 3
    assert len(enumerate_lattice(parse_spec("S4"))) == 4
    assert [e.order for e in enumerate_lattice(parse_spec("S4"))] == [1, 4, 12, 24]


def test_census_of_refuses_past_its_slot_bound(monkeypatch):
    assert MAX_CENSUS_SLOTS == 300
    census_of(parse_spec("S3^300"))  # at the bound: admitted

    def refuse(m):
        raise AssertionError("a Galois number was computed")

    monkeypatch.setattr(lattice_core, "_galois_numbers", refuse)
    for text, slots in (("S3^301", 301), ("S4^151*S3^150", 301), ("S20^1000", 1000)):
        with pytest.raises(TooLarge) as exc:
            census_of(parse_spec(text))
        assert str(exc.value) == f"{slots} slots exceeds the census bound 300"


# The a(w) route the substituted census formula replaced, kept as its referee.


@lru_cache(maxsize=None)
def _admissible_count(width):
    """a(w), the number of admissible sign subgroups of width w, in closed form.

    A coordinate j fails admissibility when H contains the unit vector e_j or
    is zero at j, never both.  The subspaces failing at every coordinate of a
    k-set K split as one of those two choices per j in K plus any subspace on
    the other w - k coordinates: 2^k G(w - k) of them.  Inclusion-exclusion
    gives a(w) = sum_k (-2)^k C(w, k) G(w - k).
    """
    g = _galois_numbers(width)
    return sum((-2) ** k * comb(width, k) * g[width - k] for k in range(width + 1))


def _reference_total(a4, b):
    """sum_{i, j} C(a4, i) C(B, j) a(i + j) 4^(a4 - i) 3^(B - j)."""
    return sum(
        comb(a4, i) * comb(b, j) * _admissible_count(i + j) * 4 ** (a4 - i) * 3 ** (b - j)
        for i in range(a4 + 1)
        for j in range(b + 1)
    )


def test_admissible_count_matches_the_gf2_enumeration():
    from lattower.lattice_core import _admissible_subspaces

    assert [_admissible_count(w) for w in range(8)] == [
        len(_admissible_subspaces(w)) for w in range(8)
    ]
    # counted once by len(_admissible_subspaces(8)), 4.4 s, too slow to repeat here
    assert _admissible_count(8) == 152191


@pytest.mark.parametrize("a4", range(9))
def test_census_of_total_matches_the_admissible_count_sum(a4):
    for b in range(9):
        spec = make_spec({4: a4, 3: b})
        assert census_of(spec).total == _reference_total(a4, b), (a4, b)


def test_census_of_total_matches_the_admissible_count_sum_on_s3_300():
    spec = parse_spec("S3^300")
    assert census_of(spec).total == _reference_total(0, 300)


# every split into a4 class-A and B class-B slots with a4 + B <= 6
SLOT_CLASS_SPLITS = [(a4, b) for a4 in range(7) for b in range(7 - a4)]


@pytest.mark.parametrize("a4, b", SLOT_CLASS_SPLITS)
def test_census_of_matches_the_enumerated_families(a4, b):
    spec = make_spec({4: a4, 3: b})
    assert census_of(spec) == enumerate_lattice(spec).census


@pytest.mark.parametrize("text, total", [("S3^7", 59866), ("S4^4*S3^3", 92092)])
def test_census_of_matches_the_enumerated_families_at_seven_slots(text, total):
    spec = parse_spec(text)
    assert census_of(spec) == enumerate_lattice(spec).census
    assert census_of(spec).total == total


def test_first_element_is_bottom(lattices):
    lat = lattices.get("S3^3")
    assert _bottom_index(lat) == 0
    assert lat.elements[0] == bottom_element(lat.spec)
    assert lat.elements[_top_index(lat)] == top_element(lat.spec)


def test_validate_triple_rejects_unit_vector():
    spec = parse_spec("S3^2")
    with pytest.raises(UnitVectorInH):
        validate_triple(spec, (0, 1), {}, unit_span(2, 0b11))


def test_validate_triple_rejects_dead_coordinate():
    spec = parse_spec("S3^3")
    # coordinate of slot 2 is never odd
    with pytest.raises(DeadCoordinate):
        validate_triple(spec, (0, 1, 2), {}, span(3, [0b011]))


def test_validate_triple_rejects_v_outside_degree_4():
    spec = parse_spec("S3*S4")
    with pytest.raises(IllegalChainPosition):
        validate_triple(spec, (), {0: CP.V, 1: CP.FULL}, zero_subspace(0))
    validate_triple(spec, (), {0: CP.ALT, 1: CP.V}, zero_subspace(0))


def test_validate_triple_rejects_bad_shape():
    spec = parse_spec("S3^2")
    with pytest.raises(WidthMismatch):
        validate_triple(spec, (0, 1), {}, parity_kernel(3))
    with pytest.raises(LatTowerError):
        validate_triple(spec, (), {0: CP.FULL}, zero_subspace(0))
    with pytest.raises(LatTowerError):
        validate_triple(spec, (0,), {0: CP.FULL, 1: CP.FULL}, span(1, []))


def test_classify():
    spec = parse_spec("S3^3")
    element = sub_product_element(spec, {0: CP.TRIV, 1: CP.ALT, 2: CP.FULL})
    assert element.family == FAMILY_SUB_PRODUCT
    assert sign_parity_element(spec, (0, 1, 2)).family == FAMILY_SIGN_PARITY
    # full on two coupled slots but only ALT on the third: not a parity kernel setup
    t = validate_triple(spec, (0, 1), {2: CP.ALT}, parity_kernel(2))
    assert classify(t) == FAMILY_MIXED


def test_orders():
    s2 = parse_spec("S3^2")
    assert sign_parity_element(s2, (0, 1)).order == 18  # index 2 in a group of order 36
    s3 = parse_spec("S3^3")
    d01 = sign_parity_element(s3, (0, 1))
    d12 = sign_parity_element(s3, (1, 2))
    assert d01.order == 108
    e = meet(d01, d12)
    assert e.order == 54
    assert e.family == FAMILY_MIXED
    assert s3.group_order // e.order == 4


def test_sign_parity_is_index_two(lattices):
    for text in ("S3^2", "S3^3", "S3^2*S4"):
        lat = lattices.get(text)
        order = lat.spec.group_order
        for e in lat:
            if e.family == FAMILY_SIGN_PARITY:
                assert order // e.order == 2


def test_sign_parity_census_formula(lattices):
    for text, (_, parity, _, _) in CENSUS.items():
        t = lattices.get(text).spec.num_slots
        assert parity == 2**t - t - 1


def test_meet_and_join_worked_example():
    spec = parse_spec("S3^2")
    d = sign_parity_element(spec, (0, 1))
    sa = sub_product_element(spec, {0: CP.FULL, 1: CP.ALT})
    m = meet(d, sa)
    assert m == sub_product_element(spec, {0: CP.ALT, 1: CP.ALT})
    assert m.order == 9
    assert join(d, sa) == top_element(spec)


def test_meet_demotes_slots_that_lose_all_odd_patterns():
    spec = parse_spec("S3^3")
    d01 = sign_parity_element(spec, (0, 1))
    d012 = sign_parity_element(spec, (0, 1, 2))
    m = meet(d01, d012)
    assert m.triple.coupled == (0, 1)
    assert dict(m.triple.positions) == {2: CP.ALT}
    assert m.order == 54


def test_leq_examples():
    spec = parse_spec("S3^3")
    bot, top = bottom_element(spec), top_element(spec)
    d01 = sign_parity_element(spec, (0, 1))
    d12 = sign_parity_element(spec, (1, 2))
    assert leq(bot, d01) and leq(d01, top)
    assert not leq(d01, d12) and not leq(d12, d01)
    e = meet(d01, d12)
    assert leq(e, d01) and leq(e, d12)
    assert not leq(d01, e)


def test_leq_routes_agree_on_small_lattice(lattices):
    lat = lattices.get("S3^3")
    for e1 in lat:
        for e2 in lat:
            assert leq(e1, e2) == leq_patterns(e1, e2)


def test_leq_rejects_mixed_specs():
    with pytest.raises(SpecMismatch):
        leq(bottom_element(parse_spec("S3")), bottom_element(parse_spec("S4")))


def test_index_of_profile_refuses_another_spec(lattices):
    # S3*S5 has the same slot count, positions and sign space as S3^2, so
    # only the spec check keeps its bottom from being found in S3^2
    lat = lattices.get("S3^2")
    other = bottom_element(parse_spec("S3*S5"))
    with pytest.raises(SpecMismatch):
        lat.index_of_profile(other.profile)
    with pytest.raises(SpecMismatch):
        lat.index_of(other)
    assert lat.index_of_profile(bottom_element(lat.spec).profile) == _bottom_index(lat)


def test_lattice_ops_are_lattice_ops(lattices):
    # meet is the glb and join the lub with respect to leq, checked pairwise
    lat = lattices.get("S3^2*S4")
    n = len(lat)
    for i in range(n):
        for j in range(i, n):
            mi = lat.meet_idx(i, j)
            ji = lat.join_idx(i, j)
            assert _reference_leq(lat, mi, i) and _reference_leq(lat, mi, j)
            assert _reference_leq(lat, i, ji) and _reference_leq(lat, j, ji)
            m = meet(lat.elements[i], lat.elements[j])
            jn = join(lat.elements[i], lat.elements[j])
            assert lat.index_of(m) == mi
            assert lat.index_of(jn) == ji


def test_associativity_and_absorption(lattices):
    lat = lattices.get("S3^3")
    n = len(lat)
    for i in range(n):
        for j in range(n):
            mij = lat.meet_idx(i, j)
            jij = lat.join_idx(i, j)
            assert lat.meet_idx(i, jij) == i  # absorption
            assert lat.join_idx(i, mij) == i
            for k in range(n):
                assert lat.meet_idx(mij, k) == lat.meet_idx(i, lat.meet_idx(j, k))


def _reference_meet(down):
    """Meets by the order relation: the element whose down set is the
    intersection of the two down sets, the route ``meet_idx`` took before
    it read J-sets."""
    index = {m: x for x, m in enumerate(down)}
    return lambda i, j: index[down[i] & down[j]]


def _reference_join(up):
    """Joins by the order relation: the element whose up set is the
    intersection of the two up sets."""
    index = {m: x for x, m in enumerate(up)}
    return lambda i, j: index[up[i] & up[j]]


def _disagreeing_pairs(down, up, meet_of, join_of) -> list[tuple[int, int]]:
    """Every ordered pair where meet_of or join_of differs from the order
    relation's, or raises KeyError."""
    n = len(down)
    ref_meet, ref_join = _reference_meet(down), _reference_join(up)
    out = []
    for i in range(n):
        for j in range(n):
            try:
                ok = meet_of(i, j) == ref_meet(i, j) and join_of(i, j) == ref_join(i, j)
            except KeyError:
                ok = False
            if not ok:
                out.append((i, j))
    return out


@pytest.mark.parametrize("text", ["S3^4", "S4^2*S3^2"])
def test_meets_and_joins_from_j_and_m_match_the_order_relation(text, lattices):
    lat = lattices.get(text)
    assert len(set(lat.context.M)) == len(lat)
    assert _disagreeing_pairs(lat.down_masks, lat.up_masks, lat.meet_idx, lat.join_idx) == []


@pytest.mark.parametrize("name", sorted(LEMMA_GROUP_DEGREES))
def test_meets_and_joins_on_lemma_posets_match_the_order_relation(name):
    a = normal_subgroup_poset(ConcreteGroup(LEMMA_GROUP_DEGREES[name]))
    assert len(set(a.M)) == a.n
    assert _disagreeing_pairs(a.down, a.up, a.meet, a.join) == []


@pytest.mark.parametrize("text", ["S3^4", "S4^2*S3^2"])
def test_an_m_folded_over_the_lower_covers_is_caught(text, lattices):
    # the meet-irreducibles below each element, not above it
    a = AbstractLattice(lattices.get(text).up_covers())
    seeds = [0] * a.n
    for k, x in enumerate(x for x, above in enumerate(a.upper) if len(above) == 1):
        seeds[x] = 1 << k
    a.M = lattice_core._fold(a.order, a.lower, seeds)
    assert _disagreeing_pairs(a.down, a.up, a.meet, a.join)


@pytest.mark.parametrize("text", ["S3^2*S4", "S4^2*S3"])
def test_index_of_parts_takes_any_spanning_set(text, lattices, rng):
    lat = lattices.get(text)
    for i, e in enumerate(lat.elements):
        rows = list(e.profile.signs.elements())
        rng.shuffle(rows)
        assert lat.index_of_parts(e.profile.eff, rows) == i
        assert lat.index_of_parts(e.profile.eff, e.profile.signs.basis) == i


def test_triple_profile_round_trip(lattices):
    for text in ("S3^2", "S3^3", "S3^2*S4"):
        for e in lattices.get(text):
            p = triple_to_profile(e.triple)
            assert profile_to_triple(p) == e.triple
            assert element_from_profile(p) == e


def test_profile_support_and_activity_checks():
    spec = parse_spec("S3^2")
    # odd pattern at a slot that is not FULL
    with pytest.raises(InvalidProfile):
        element_from_profile(Profile(spec, (CP.ALT, CP.FULL), unit_span(2, 0b11)))
    # FULL slot with no odd pattern at all
    with pytest.raises(InvalidProfile):
        element_from_profile(Profile(spec, (CP.FULL, CP.FULL), zero_subspace(2)))


class NotMixed(LatTowerError):
    """Meet decomposition applies to mixed elements only."""


def _reference_decompose_mixed(e):
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
        positions[s] = CP.FULL
    envelope = sub_product_element(spec, positions)
    parity_sets = []
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


def test_decompose_mixed():
    spec = parse_spec("S3^3")
    e = meet(sign_parity_element(spec, (0, 1)), sign_parity_element(spec, (1, 2)))
    envelope, parity_sets = _reference_decompose_mixed(e)
    assert envelope == top_element(spec)
    assert parity_sets == [(0, 2), (1, 2)]
    with pytest.raises(NotMixed):
        _reference_decompose_mixed(envelope)
    with pytest.raises(NotMixed):
        _reference_decompose_mixed(sign_parity_element(spec, (0, 1, 2)))


def test_decompose_mixed_everywhere(lattices):
    # every mixed element recombines from its own decomposition; the check
    # inside _reference_decompose_mixed recomputes the meet, so surviving is the test
    for text in ("S3^3", "S3^2*S4"):
        lat = lattices.get(text)
        for e in lat:
            if e.family == FAMILY_MIXED:
                envelope, parity_sets = _reference_decompose_mixed(e)
                assert envelope.family == FAMILY_SUB_PRODUCT
                assert all(len(idx) >= 2 for idx in parity_sets)


def _admissible(s: Subspace) -> bool:
    if s.active_mask() != (1 << s.width) - 1:
        return False
    return not any(s.contains(1 << j) for j in range(s.width))


def test_admissibility_is_self_dual():
    for width in range(1, 5):
        for s in iter_subspaces(width):
            assert _admissible(s) == _admissible(s.annihilator())


def test_admissible_subspace_counts():
    # recount by a second route: spans of every <=w-subset of nonzero vectors
    from itertools import combinations

    from lattower.lattice_core import _admissible_subspaces

    for w in range(1, 5):
        seen = set()
        for d in range(0, w + 1):
            for subset in combinations(range(1, 1 << w), d):
                seen.add(span(w, subset))
        adm = [s for s in seen if _admissible(s)]
        assert len(adm) == len(_admissible_subspaces(w))
    assert [len(_admissible_subspaces(w)) for w in range(6)] == [1, 0, 1, 2, 11, 72]


def test_sign_parity_needs_two_slots():
    with pytest.raises(LatTowerError):
        sign_parity_element(parse_spec("S3^2"), (0,))


def test_json_dump_shape(lattices):
    lat = lattices.get("S3^2")
    d = lat.to_json_dict()
    assert d["spec"] == "S3^2"
    assert d["census"]["total"] == 10
    assert len(d["elements"]) == 10
    assert d["hasse_edges"] == list(map(list, _edges(lat.up_covers())))
    families = {e["family"] for e in d["elements"]}
    assert families == {FAMILY_SUB_PRODUCT, FAMILY_SIGN_PARITY}


# Referees for the order relation (the closure of the cover moves) and the
# climbing covers: each fast path against the definition it replaces.


def _mask(indices) -> int:
    return sum(1 << i for i in indices)


def _reference_up_sets(down) -> tuple[int, ...]:
    """The transpose of the down sets, by walking every set bit.

    Kept as a referee of the up sets and as the source of up sets for
    hand-built posets.  The up sets fill in as bit buffers: OR-ing 1 << j
    into an int would copy the whole int once per set bit.
    """
    n = len(down)
    rows = [bytearray((n + 7) // 8) for _ in range(n)]
    for j, mask in enumerate(down):
        byte, bit = j >> 3, 1 << (j & 7)
        while mask:
            i = mask.bit_length() - 1
            rows[i][byte] |= bit
            mask ^= 1 << i
    return tuple(int.from_bytes(row, "little") for row in rows)


def _covers_by_definition(down, up) -> tuple[tuple[int, int], ...]:
    """The pairs i < j with |[i, j]| = 2, sorted."""
    n = len(down)
    return tuple(
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and (down[j] >> i) & 1 and bin(down[j] & up[i]).count("1") == 2
    )


def _check_up_and_covers(a: AbstractLattice) -> None:
    """``up`` is the transpose of ``down``; ``covers`` is i < j with |[i, j]| = 2."""
    n = a.n
    for i in range(n):
        assert a.up[i] == _mask(j for j in range(n) if a.leq(i, j)), i
    assert a.covers == _covers_by_definition(a.down, a.up)


@pytest.mark.parametrize("text", ROUND_TRIP_SPECS)
def test_down_masks_match_pairwise_leq(text, lattices):
    lat = lattices.get(text)
    for j, ej in enumerate(lat.elements):
        expected = _mask(i for i, ei in enumerate(lat.elements) if leq(ei, ej))
        assert lat.down_masks[j] == expected, (text, j)


@pytest.mark.parametrize("text", ROUND_TRIP_SPECS)
def test_up_masks_and_covers_by_definition(text, lattices):
    lat = lattices.get(text)
    a = lat.to_abstract()
    assert a is lat.context
    assert (a.down, a.up) == (lat.down_masks, lat.up_masks)
    _check_up_and_covers(a)
    assert list(lat.up_covers()) == a.upper == _covers_of_order(a.down, a.up)


@pytest.mark.parametrize("text", ROUND_TRIP_SPECS + ("S3^6", "S4^3*S3^2"))
def test_up_masks_are_the_transpose_of_the_down_masks(text, lattices):
    lat = lattices.get(text)
    assert lat.up_masks == _reference_up_sets(lat.down_masks)


def _reference_order_masks(lat: Lattice) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The down and up masks: ``leq`` evaluated a whole column at a time.

    The route the closure of the cover moves replaced, kept as its referee
    on lattices too large for the pairwise definition.  Element i lies below
    element j exactly when eff_i[s] <= eff_j[s] at every slot s and W_i is
    inside W_j.  One sweep over the elements collects the elements of each
    key and of each W.  From those come ``at[s][p]``, the elements with
    eff[s] = p, whose prefix and suffix ORs are ``le[s][p]`` and
    ``ge[s][p]``, and ``has[v]``, the elements whose W contains the sign
    vector v.  Then

        down[j] = AND_s le[s][eff_j[s]]  &  ~(OR_{v not in W_j} has[v]),
        up[i]   = AND_s ge[s][eff_i[s]]  &  AND_{r in basis(W_i)} has[r].

    The sign factors are exact because W_i lies inside W_j precisely when
    W_i holds no vector outside W_j, and precisely when W_j holds every
    basis row of W_i.  Each factor depends on one key or one W alone, so
    it is computed once per distinct key or W.
    """
    num_slots = lat.spec.num_slots
    with_key: dict[int, int] = {}
    with_wid: dict[int, int] = {}
    for i, (key, wid) in enumerate(zip(lat.keys, lat.wids)):
        bit = 1 << i
        with_key[key] = with_key.get(key, 0) | bit
        with_wid[wid] = with_wid.get(wid, 0) | bit
    digits = {key: _digits(key, num_slots) for key in with_key}
    at = [[0] * len(CP) for _ in range(num_slots)]
    for key, mask in with_key.items():
        for s, p in enumerate(digits[key]):
            at[s][p] |= mask
    le = [list(accumulate(row, or_)) for row in at]
    ge = [list(accumulate(row[::-1], or_))[::-1] for row in at]
    has = [0] * (1 << num_slots)
    spans = {wid: _span(lat.bases[wid]) for wid in with_wid}
    for wid, mask in with_wid.items():
        for v in spans[wid]:
            has[v] |= mask
    everything, every_vector = (1 << len(lat)) - 1, set(range(len(has)))
    outside = {wid: every_vector.difference(vectors) for wid, vectors in spans.items()}
    inside = {
        wid: everything & ~reduce(or_, map(has.__getitem__, vectors), 0)
        for wid, vectors in outside.items()
    }
    holding = {
        wid: reduce(and_, map(has.__getitem__, lat.bases[wid]), everything) for wid in with_wid
    }
    below = {key: reduce(and_, map(getitem, le, d), everything) for key, d in digits.items()}
    above = {key: reduce(and_, map(getitem, ge, d), everything) for key, d in digits.items()}
    down = tuple(below[k] & inside[w] for k, w in zip(lat.keys, lat.wids))
    up = tuple(above[k] & holding[w] for k, w in zip(lat.keys, lat.wids))
    return down, up


# too large for the pairwise definition, so the column sweep referees the
# closure there, and the climb over the sweep's order relation the cover moves
@pytest.mark.parametrize("text", ["S3^6", "S4^3*S3^2"])
def test_cover_moves_match_the_order_relation(text, lattices):
    lat = lattices.get(text)
    down, up = _reference_order_masks(lat)
    assert lat.down_masks == down
    assert lat.up_masks == up
    assert list(lat.up_covers()) == _covers_of_order(down, up)


def _reference_profile_covers(lat: Lattice) -> list[list[int]]:
    """The up-covers by the cover moves on ``key | wid << 2T``, with W by its id.

    The route ``Lattice.up_covers`` replaced, kept as its referee where the
    order relation is too large: each widening W + <v> inserts v into the
    reduced basis of W and looks the basis up among the lattice's W, once
    per W and v.
    """
    num_slots = lat.spec.num_slots
    shift = 2 * num_slots
    pack = _eff_packer(range(num_slots))
    wid_of = {basis: wid for wid, basis in enumerate(lat.bases)}
    index = {key | wid << shift: i for i, (key, wid) in enumerate(zip(lat.keys, lat.wids))}
    wider: dict[tuple[int, int], int] = {}
    rows = []
    for key, wid in zip(lat.keys, lat.wids):
        code, digits = key | wid << shift, _digits(key, num_slots)
        moves = [
            code + ((1 if d == 4 else 2) << 2 * s)
            for s, (d, p) in enumerate(zip(lat.spec.degrees, digits))
            if p < CP.ALT
        ]
        basis = lat.bases[wid]
        pivots = sum(row & -row for row in basis)
        free = sum(1 << s for s, p in enumerate(digits) if p >= CP.ALT) & ~pivots
        for v in range(1, free + 1):
            if v & ~free:
                continue
            if (wid, v) not in wider:
                low = v & -v
                wide = [row ^ v if row & low else row for row in basis]
                wide.insert((pivots & (low - 1)).bit_count(), v)
                wider[wid, v] = wid_of[tuple(wide)]
            step = pack((v >> s) & 1 for s in range(num_slots))
            moves.append(key | step | wider[wid, v] << shift)
        rows.append(sorted(map(index.__getitem__, moves)))
    return rows


def _reference_w_ids(lat: Lattice) -> tuple[list[int], list[tuple[int, ...]]]:
    """The W ids and bases by the interning the enumeration replaced.

    Each W was keyed by its reduced basis, the lifted rows of H and the unit
    vectors of the FULL slots off J sorted by pivot, and numbered when first
    met: per (J, H) block, over the set of its elements' FULL masks.
    """
    num_slots = lat.spec.num_slots
    fulls = []  # per element, its FULL slots off J
    for key, b in zip(lat.keys, lat.block_of):
        coupled, digits = lat.blocks[b][0], _digits(key, num_slots)
        fulls.append(sum(1 << s for s, p in enumerate(digits) if p == CP.FULL and s not in coupled))
    full_of: list[list[int]] = [[] for _ in lat.blocks]  # per block, in element order
    for b, full in zip(lat.block_of, fulls):
        full_of[b].append(full)
    spaces: dict[tuple[int, ...], int] = {}
    wid_of: dict[tuple[int, int], int] = {}
    for b, (coupled, h) in enumerate(lat.blocks):
        lifted = [_lift(row, coupled) for row in h.basis]
        for full in set(full_of[b]):
            units = [1 << s for s in range(num_slots) if (full >> s) & 1]
            basis = tuple(sorted(lifted + units, key=_pivot))
            wid_of[b, full] = spaces.setdefault(basis, len(spaces))
    return [wid_of[b, full] for b, full in zip(lat.block_of, fulls)], list(spaces)


# S3^7 (59,866 elements) is too large for the order relation
@pytest.mark.parametrize("text", ["S4^3*S3^2", "S3^7"])
def test_cover_moves_match_the_basis_route(text):
    lat = enumerate_lattice(parse_spec(text))
    assert list(lat.up_covers()) == _reference_profile_covers(lat)


def test_annihilator_masks_follow_widenings_and_slot_permutations(lattices):
    lat = lattices.get("S3^4")
    perps = _perps(4)

    def rebuilt(basis):  # D read off the reduced basis, bit by bit
        return sum(1 << u for u in span(4, basis).annihilator().elements())

    for basis in lat.bases:
        dual = _annihilator_mask(4, basis)
        assert dual == rebuilt(basis), basis
        for v in range(16):
            assert dual & perps[v] == rebuilt(basis + (v,)), (basis, v)
        for sigma in permutations(range(4)):
            moved = [_lift(row, sigma) for row in basis]
            assert _annihilator_mask(4, moved) == rebuilt(moved), (basis, sigma)


def test_cover_moves_are_yielded_one_at_a_time(lattices):
    lat = lattices.get("S3^3")
    rows = lat.up_covers()
    assert isinstance(rows, Iterator) and not isinstance(rows, (list, tuple))
    first = next(rows)
    assert isinstance(first, list)
    assert _edges([first, *rows]) == list(lat.to_abstract().covers)


@pytest.mark.parametrize("kind", ["Lattice", "AbstractLattice", "oracle poset"])
def test_context_lower_covers_are_ascending(kind, lattices):
    if kind == "oracle poset":
        lat = normal_subgroup_poset(ConcreteGroup(LEMMA_GROUP_DEGREES["C2xS4"]))
    else:
        lat = lattices.get("S4^2*S3^2")
        if kind == "AbstractLattice":  # the same covers, each row descending
            lat = AbstractLattice(row[::-1] for row in lat.up_covers())
    ctx = lat.context
    assert all(below == sorted(set(below)) for below in ctx.lower)
    assert sorted((i, j) for j, below in enumerate(ctx.lower) for i in below) == list(ctx.covers)
    assert sorted(_edges(ctx.upper)) == list(ctx.covers)


def _lattice_of_elements(spec, elements, census):
    """A Lattice holding the given element objects, its columns filled from them."""
    pack = _eff_packer(range(spec.num_slots))
    spaces, blocks = {}, {}
    wids = [spaces.setdefault(e.profile.signs.basis, len(spaces)) for e in elements]
    triples = [(e.triple.coupled, e.triple.signs) for e in elements]
    block_of = [blocks.setdefault(t, len(blocks)) for t in triples]
    keys = [pack(e.profile.eff) for e in elements]
    orders, families = [e.order for e in elements], [e.family for e in elements]
    return Lattice(spec, census, keys, wids, list(spaces), list(blocks), block_of, orders, families)


def test_a_cover_move_off_the_lattice_is_an_error(lattices):
    lat = lattices.get("S3^3")
    # every coatom has a move up to the top
    top = _top_index(lat)
    elements = lat.elements[:top] + lat.elements[top + 1 :]
    without_top = _lattice_of_elements(lat.spec, elements, lat.census)
    with pytest.raises(LatTowerError, match="leaves the lattice"):
        list(without_top.up_covers())


def _rank(e) -> int:
    """sum_s chainrank(min(eff_s, ALT)) + dim W."""
    steps = sum(chain(d).index(min(p, CP.ALT)) for d, p in zip(e.spec.degrees, e.profile.eff))
    return steps + e.profile.signs.dim


@pytest.mark.parametrize("text", ROUND_TRIP_SPECS)
def test_profile_rank_is_the_height(text, lattices):
    lat = lattices.get(text)
    assert list(map(_rank, lat.elements)) == _heights(len(lat), lat.to_abstract().covers)


def _reference_enumeration(spec) -> tuple:
    """Every admissible triple in the enumeration's loop order, built one by one."""
    n = spec.num_slots
    out = []
    for j_mask in range(1 << n):
        coupled = tuple(s for s in range(n) if (j_mask >> s) & 1)
        off = tuple(s for s in range(n) if not (j_mask >> s) & 1)
        for signs in _admissible_subspaces(len(coupled)):
            for combo in product(*(chain(spec.slots[s].degree) for s in off)):
                t = AdmissibleTriple(spec, coupled, tuple(zip(off, combo)), signs)
                out.append(element_from_triple(t))
    return tuple(out)


@pytest.mark.parametrize("text", ROUND_TRIP_SPECS + ("S3^6", "S4^3*S3^2"))
def test_enumeration_builds_element_from_triple_in_order(text, lattices):
    lat = lattices.get(text)
    assert lat.elements == _reference_enumeration(lat.spec)


@pytest.mark.parametrize("text", ROUND_TRIP_SPECS + ("S6^3*S4^2", "S4^4"))
def test_columns_agree_with_the_element_route(text, lattices):
    lat = lattices.get(text)
    spec = lat.spec
    assert lat.census == census_of(spec)
    assert len(lat.elements) == len(lat) == lat.census.total
    for i, e in enumerate(lat.elements):
        t = validate_triple(spec, e.triple.coupled, e.triple.positions, e.triple.signs)
        assert e == element_from_triple(t), i
        assert (lat.families[i], lat.orders[i]) == (classify(t), order_of(t)), i
        assert lat.index_of_profile(e.profile) == i


@pytest.mark.parametrize("name", sorted(LEMMA_GROUP_DEGREES))
def test_covers_by_definition_on_lemma_posets(name):
    _check_up_and_covers(normal_subgroup_poset(ConcreteGroup(LEMMA_GROUP_DEGREES[name])))


HAND_BUILT_POSETS = {
    "empty": ((), ()),
    "point": ((0b1,), ()),
    # 3 < 2 < 1 < 0: the index order runs against the order relation
    "chain": ((0b1111, 0b1110, 0b1100, 0b1000), ((1, 0), (2, 1), (3, 2))),
    "antichain": ((0b001, 0b010, 0b100), ()),
    # 2, 3 below both of 0, 1: not a lattice, the pair has no join
    "2-crown": ((0b1101, 0b1110, 0b0100, 0b1000), ((2, 0), (2, 1), (3, 0), (3, 1))),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT_POSETS))
def test_covers_on_hand_built_posets(name):
    down, covers = HAND_BUILT_POSETS[name]
    up = _reference_up_sets(down)
    rows = _covers_of_order(down, up)
    assert len(rows) == len(down)
    assert _edges(rows) == sorted(covers) == sorted(_covers_by_definition(down, up))
    if name in ("antichain", "2-crown"):
        with pytest.raises(LatTowerError, match="not a lattice"):
            AbstractLattice(rows)
        return
    a = AbstractLattice(rows)
    assert (a.down, a.up, a.covers) == (down, up, covers)
    _check_up_and_covers(a)


@pytest.mark.parametrize(
    "upper, message",
    [
        # 2 and 3 cover each other: 0 is the one minimal element, and the
        # order stops at 1
        ([[1], [], [3], [2]], "not a lattice: the covers have a cycle"),
        ([[-1], []], r"not a lattice: 0 is covered by -1, outside 0\.\.1"),
        ([[2], []], r"not a lattice: 0 is covered by 2, outside 0\.\.1"),
        # the diamond with 1 < 3 named twice: 1 would seem to have two upper
        # covers and 2 one, and the search would tell them apart
        ([[1, 2], [3, 3], [3], []], "not a lattice: 1 is covered by 3 twice"),
    ],
)
def test_abstract_lattice_rejects_bad_cover_rows(upper, message):
    with pytest.raises(LatTowerError, match=message):
        AbstractLattice(upper)


@pytest.mark.parametrize("down", [(0b10,), (0b11,), (-1,)])
def test_abstract_lattice_rejects_bad_down_sets(down):
    with pytest.raises(LatTowerError):
        _covers_of_order(down, (0b1,))


@pytest.mark.parametrize(
    "down, up, message",
    [
        # the up set of 1 misses 1
        ((0b01, 0b11), (0b11, 0b00), "up set of 1 must hold 1"),
        # out of range, above n and negative
        ((0b01, 0b11), (0b111, 0b10), "up set of 0 must hold 0 and nothing past 1"),
        ((0b01, 0b11), (-1, 0b10), "up set of 0 must hold 0 and nothing past 1"),
        ((0b01, 0b11), (0b11,), "2 down sets but 1 up sets"),
        # the down sets of the 2-chain 0 < 1 with the up sets of the 2-antichain
        ((0b01, 0b11), (0b01, 0b10), "not the transpose"),
        # 1 and 2 each lie below the other, which no other check sees and on
        # which the covers climb never ends
        (
            (0b0001, 0b0111, 0b0111, 0b1111),
            (0b1111, 0b1110, 0b1110, 0b1000),
            "the down and up sets of 1 share another element",
        ),
    ],
)
def test_abstract_lattice_rejects_bad_up_sets(down, up, message):
    with pytest.raises(LatTowerError, match=message):
        _covers_of_order(down, up)
