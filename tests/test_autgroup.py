from itertools import permutations

import pytest

from lattower import autgroup
from lattower.autgroup import (
    LatticeAutomorphism,
    SlotPermutation,
    brute_force_automorphisms,
    complemented_elements,
    factor_atoms,
    induced_permutation,
    tau_on_lattice,
    tau_sigma,
    verify_product_formula,
)
from lattower.errors import ClassViolation, LatTowerError, TooLarge
from lattower.gf2 import iter_subspaces
from lattower.group_spec import ChainPosition as CP
from lattower.group_spec import parse_spec
from lattower.lattice_core import (
    AbstractLattice,
    enumerate_lattice,
    leq,
    sign_parity_element,
    sub_product_element,
)
from lattower.perm_oracle import lemma_lattices
from test_acceptance import PRODUCT_FORMULA_CASES


def _chain(n):
    return AbstractLattice(tuple((1 << (i + 1)) - 1 for i in range(n)))


def _diamond(k):
    # bottom, k incomparable atoms, top
    n = k + 2
    masks = [1] + [1 | (1 << i) for i in range(1, k + 1)] + [(1 << n) - 1]
    return AbstractLattice(masks)


PENTAGON = AbstractLattice(
    # 0 < 1 < 2 < 4 and 0 < 3 < 4, with 1, 2 incomparable to 3
    (0b00001, 0b00011, 0b00111, 0b01001, 0b11111)
)


def _subspace_lattice(width):
    # all subspaces of GF(2)^width under inclusion
    spaces = list(iter_subspaces(width))
    return AbstractLattice(
        sum(1 << i for i, u in enumerate(spaces) if w.contains_subspace(u)) for w in spaces
    )


def _reference_automorphisms(a):
    """The search over every element, kept as a referee for the search over
    the join-irreducibles: colour-class candidates, each checked against all
    previously placed elements in both directions."""
    n = len(a)
    if n == 0:
        return [LatticeAutomorphism(())]
    colours = autgroup._refined_classes(a)
    buckets = {}
    for i, c in enumerate(colours):
        buckets.setdefault(c, []).append(i)
    candidates = [buckets[colours[i]] for i in range(n)]
    order = sorted(range(n), key=lambda i: (len(candidates[i]), colours[i], i))
    down = a.down

    mapping = [-1] * n
    used = [False] * n
    next_choice = [0] * (n + 1)
    found = []
    t = 0
    while t >= 0:
        if t == n:
            found.append(tuple(mapping))
            t -= 1
            x = order[t]
            used[mapping[x]] = False
            mapping[x] = -1
            continue
        x = order[t]
        cand = candidates[x]
        advanced = False
        while next_choice[t] < len(cand):
            y = cand[next_choice[t]]
            next_choice[t] += 1
            if used[y]:
                continue
            ok = True
            for x2 in order[:t]:
                y2 = mapping[x2]
                if ((down[x2] >> x) & 1) != ((down[y2] >> y) & 1) or (
                    (down[x] >> x2) & 1
                ) != ((down[y] >> y2) & 1):
                    ok = False
                    break
            if ok:
                mapping[x] = y
                used[y] = True
                t += 1
                next_choice[t] = 0
                advanced = True
                break
        if not advanced:
            t -= 1
            if t < 0:
                break
            x = order[t]
            used[mapping[x]] = False
            mapping[x] = -1
    return [LatticeAutomorphism(m) for m in sorted(found)]


def test_brute_force_on_chains():
    for n in (1, 2, 5):
        autos = brute_force_automorphisms(_chain(n))
        assert len(autos) == 1 and autos[0].is_identity


def test_brute_force_on_diamonds():
    # poset automorphisms permute the k atoms freely
    assert len(brute_force_automorphisms(_diamond(2))) == 2
    assert len(brute_force_automorphisms(_diamond(3))) == 6
    assert len(brute_force_automorphisms(_diamond(4))) == 24


def test_brute_force_on_pentagon():
    autos = brute_force_automorphisms(PENTAGON)
    assert len(autos) == 1


def _mappings(autos):
    return [phi.mapping for phi in autos]


def test_search_agrees_with_the_reference_on_small_lattices():
    small = [_chain(n) for n in (1, 2, 3, 5)] + [_diamond(k) for k in (2, 3, 4)] + [PENTAGON]
    small += list(lemma_lattices().values())
    for a in small:
        assert _mappings(brute_force_automorphisms(a)) == _mappings(_reference_automorphisms(a))


def test_search_on_the_subspace_lattice_of_gf2_cubed():
    # the 7 points are the join-irreducibles: all 5,040 maps of them pass the
    # order check, and only the 168 collineations extend
    a = _subspace_lattice(3)
    autos = brute_force_automorphisms(a)
    assert len(autos) == 168
    assert _mappings(autos) == _mappings(_reference_automorphisms(a))


@pytest.mark.parametrize("text", ["S3^3", "S3*S4", "S4^2", "S3^4", "S4^2*S3^2", "S4^4"])
def test_search_agrees_with_the_reference_on_tower_lattices(text, lattices):
    a = lattices.get(text).to_abstract()
    assert _mappings(brute_force_automorphisms(a)) == _mappings(_reference_automorphisms(a))


@pytest.mark.parametrize(
    "masks, message",
    [
        # the V: 0, 1 < 2 (the search over every element finds 2 maps)
        ((0b001, 0b010, 0b111), "2 minimal elements"),
        # the bowtie: 0, 1 < 2, 3
        ((0b0001, 0b0010, 0b0111, 0b1011), "2 minimal elements"),
        # a bottom, but 1 and 2 have the two upper bounds 3 and 4
        ((0b00001, 0b00011, 0b00101, 0b01111, 0b10111), "no join"),
    ],
)
def test_search_rejects_posets_that_are_not_lattices(masks, message):
    with pytest.raises(LatTowerError, match=message):
        brute_force_automorphisms(AbstractLattice(masks))


def test_brute_force_output_is_sorted_with_identity_first():
    autos = brute_force_automorphisms(_diamond(3))
    assert autos[0].is_identity
    assert [a.mapping for a in autos] == sorted(a.mapping for a in autos)


def test_brute_force_respects_size_bound(lattices):
    with pytest.raises(TooLarge):
        brute_force_automorphisms(lattices.get("S3^3"), max_size=10)


def test_size_bound_is_checked_before_the_order_relation():
    lat = enumerate_lattice(parse_spec("S4^3*S3^2"))
    with pytest.raises(TooLarge, match="1564 elements exceeds the search bound 100"):
        verify_product_formula(lat.spec, max_size=100, lattice=lat)
    assert "down_masks" not in vars(lat)
    assert "_abstract" not in vars(lat)


def test_brute_force_finds_only_order_maps(lattices):
    lat = lattices.get("S3^2")
    a = lat.to_abstract()
    for phi in brute_force_automorphisms(lat):
        for i in range(a.n):
            for j in range(a.n):
                assert a.leq(i, j) == a.leq(phi(i), phi(j))


def _composition_table(autos):
    """table[i][j] = index of autos[i] composed after autos[j]."""
    index = {a.mapping: i for i, a in enumerate(autos)}
    return [[index[a.compose(b).mapping] for b in autos] for a in autos]


def test_composition_table_is_a_group():
    autos = brute_force_automorphisms(_diamond(3))
    table = _composition_table(autos)
    n = len(autos)
    # identity at index 0, every row and column a permutation
    assert table[0] == list(range(n))
    assert [row[0] for row in table] == list(range(n))
    for row in table:
        assert sorted(row) == list(range(n))
    for j in range(n):
        assert sorted(table[i][j] for i in range(n)) == list(range(n))


def test_slot_permutation_algebra():
    s = SlotPermutation((1, 0, 2))
    t = SlotPermutation((0, 2, 1))
    assert s.compose(t).mapping == tuple(s(t(i)) for i in range(3))
    assert s.compose(s.inverse()) == SlotPermutation.identity(3)
    assert s.cycle_notation() == "(0 1)"
    assert SlotPermutation.identity(3).cycle_notation() == "()"
    labels = ("3.1", "3.2", "3.3")
    assert t.cycle_notation(labels) == "(3.2 3.3)"


def test_complemented_elements_are_the_full_sub_products(lattices):
    lat = lattices.get("S3^2")
    comp = complemented_elements(lat)
    expected = set()
    for bits in range(4):
        positions = {s: (CP.FULL if (bits >> s) & 1 else CP.TRIV) for s in range(2)}
        expected.add(lat.index_of(sub_product_element(lat.spec, positions)))
    assert comp == expected


def _reference_complemented_elements(down, up):
    """The scan over every pair that complemented_elements replaced."""
    n = len(down)
    bottom_mask = next(m for i, m in enumerate(down) if m == 1 << i)
    top_mask = next(m for i, m in enumerate(up) if m == 1 << i)
    return {
        i
        for i in range(n)
        if any(down[i] & down[c] == bottom_mask and up[i] & up[c] == top_mask for c in range(n))
    }


@pytest.mark.parametrize("text", sorted(PRODUCT_FORMULA_CASES))
def test_complemented_elements_match_the_pairwise_scan(text, lattices):
    lat = lattices.get(text)
    expected = _reference_complemented_elements(lat.down_masks, lat.up_masks)
    assert complemented_elements(lat) == expected


def test_complemented_elements_of_lemma_posets_match_the_pairwise_scan():
    posets = {**lemma_lattices(), "chain": _chain(4), "one": _chain(1), "M3": _diamond(3)}
    for name, poset in posets.items():
        expected = _reference_complemented_elements(poset.down, poset.up)
        assert complemented_elements(poset) == expected, name


def test_factor_atoms_in_slot_order(lattices):
    lat = lattices.get("S3*S4")
    atoms = factor_atoms(lat)
    assert len(atoms) == 2
    for s, i in enumerate(atoms):
        t = lat.elements[i].triple
        assert not t.coupled
        assert dict(t.positions)[s] is CP.FULL
    # the interval below an atom is the factor chain: 3 long at class B, 4 at class A
    down = lat.down_masks
    assert bin(down[atoms[0]]).count("1") == 3
    assert bin(down[atoms[1]]).count("1") == 4


def test_tau_sigma_rejects_class_mixing():
    spec = parse_spec("S3*S4")
    top = sub_product_element(spec, {0: CP.FULL, 1: CP.FULL})
    with pytest.raises(ClassViolation):
        tau_sigma(SlotPermutation((1, 0)), top)


def test_tau_sigma_moves_labels():
    spec = parse_spec("S3^3")
    sigma = SlotPermutation((1, 2, 0))
    e = sign_parity_element(spec, (0, 1))
    assert tau_sigma(sigma, e) == sign_parity_element(spec, (1, 2))
    s = sub_product_element(spec, {0: CP.ALT, 1: CP.TRIV, 2: CP.FULL})
    assert tau_sigma(sigma, s) == sub_product_element(spec, {1: CP.ALT, 2: CP.TRIV, 0: CP.FULL})


def test_tau_sigma_is_functorial(rng, lattices):
    lat = lattices.get("S3^3")
    elements = rng.sample(list(lat.elements), 12)
    perms = [SlotPermutation(p) for p in permutations(range(3))]
    for sigma in perms:
        for rho in perms:
            for e in elements:
                assert tau_sigma(sigma.compose(rho), e) == tau_sigma(sigma, tau_sigma(rho, e))
    ident = SlotPermutation.identity(3)
    for e in elements:
        assert tau_sigma(ident, e) == e


def test_tau_on_lattice_preserves_order(lattices):
    lat = lattices.get("S3^3")
    phi = tau_on_lattice(SlotPermutation((2, 0, 1)), lat)
    for i, ei in enumerate(lat.elements):
        for j, ej in enumerate(lat.elements):
            assert leq(ei, ej) == leq(lat.elements[phi(i)], lat.elements[phi(j)])


def test_induced_permutation_round_trip(lattices):
    lat = lattices.get("S3^2")
    for mapping in permutations(range(2)):
        sigma = SlotPermutation(mapping)
        assert induced_permutation(tau_on_lattice(sigma, lat), lat) == sigma


def test_lattice_automorphism_algebra():
    phi = LatticeAutomorphism((1, 0, 2))
    assert phi.compose(phi).is_identity
    assert phi.inverse() == phi


@pytest.mark.parametrize(
    "text, count",
    [("S3^2", 2), ("S3*S4", 1), ("S4^2", 2)],
)
def test_product_formula_small(text, count, lattices):
    report = verify_product_formula(parse_spec(text), lattice=lattices.get(text))
    assert report.match
    assert report.predicted_order == count
    assert report.brute_force_order == count
    assert report.constructive_order == count


def test_product_formula_generators(lattices):
    report = verify_product_formula(parse_spec("S3^2"), lattice=lattices.get("S3^2"))
    assert report.generators == ("(3.1 3.2)",)
    report = verify_product_formula(parse_spec("S3*S4"), lattice=lattices.get("S3*S4"))
    assert report.generators == ()


def test_product_formula_json(lattices):
    report = verify_product_formula(parse_spec("S3^2"), lattice=lattices.get("S3^2"))
    d = report.to_json_dict()
    assert d["spec"] == "S3^2"
    assert d["match"] is True
    assert d["predicted_order"] == 2


def test_product_formula_scans_factor_atoms_once(lattices, monkeypatch):
    calls = []

    def counting_factor_atoms(lat):
        calls.append(lat)
        return factor_atoms(lat)

    monkeypatch.setattr(autgroup, "factor_atoms", counting_factor_atoms)
    report = verify_product_formula(parse_spec("S3^3"), lattice=lattices.get("S3^3"))
    assert report.match and report.constructive_order == 6
    assert len(calls) == 1
