from itertools import permutations

import pytest

from lattower import autgroup
from lattower.autgroup import (
    LatticeAutomorphism,
    SlotPermutation,
    automorphism_group,
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
from lattower.stabiliser import schreier_sims
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


def _listing_search(a):
    """The join-irreducible search that listed every automorphism, kept as
    the referee for the orbit-pruned search on lattices too large for the
    search over every element: it extends every consistent assignment of
    the join-irreducibles by joins and keeps those that extend."""
    n = len(a)
    colours = autgroup._refined_classes(a)
    buckets = {}
    for i, c in enumerate(colours):
        buckets.setdefault(c, []).append(i)
    candidates = [buckets[colours[i]] for i in range(n)]
    irreducibles = [i for i in range(n) if len(a.down_covers[i]) == 1]
    order = sorted(irreducibles, key=lambda i: (len(candidates[i]), colours[i], i))
    extend = autgroup._extension_by_joins(a)
    down = a.down
    mapping = [-1] * n
    used = [False] * n
    found = []

    def place(t):
        if t == len(order):
            image = extend(mapping)
            if image is not None:
                found.append(image)
            return
        x = order[t]
        for y in candidates[x]:
            if used[y] or any(
                ((down[x2] >> x) & 1) != ((down[mapping[x2]] >> y) & 1)
                or ((down[x] >> x2) & 1) != ((down[y] >> mapping[x2]) & 1)
                for x2 in order[:t]
            ):
                continue
            mapping[x], used[y] = y, True
            place(t + 1)
            mapping[x], used[y] = -1, False

    place(0)
    return sorted(found)


def _generated_group(generators, n):
    """Closure of the generators under composition, by breadth-first search."""
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for g in frontier:
            for s in generators:
                h = tuple(s[i] for i in g)
                if h not in group:
                    group.add(h)
                    new.append(h)
        frontier = new
    return group


def _mappings(autos):
    return [phi.mapping for phi in autos]


def _assert_search_matches_the_reference(a):
    reference = _mappings(_reference_automorphisms(a))
    chain = automorphism_group(a)
    assert chain.order == len(reference)
    assert _generated_group(chain.generators, len(a)) == set(reference)
    assert _mappings(brute_force_automorphisms(a)) == reference


def test_search_agrees_with_the_reference_on_small_lattices():
    small = [_chain(n) for n in (1, 2, 3, 5)] + [_diamond(k) for k in (2, 3, 4)] + [PENTAGON]
    small += list(lemma_lattices().values())
    for a in small:
        _assert_search_matches_the_reference(a)


def test_search_on_the_subspace_lattice_of_gf2_cubed():
    # the 7 points are the join-irreducibles: all 5,040 maps of them pass the
    # order check, and only the 168 collineations extend
    a = _subspace_lattice(3)
    _assert_search_matches_the_reference(a)
    assert automorphism_group(a).order == 168


def test_orbit_pruning_skips_candidates_on_the_subspace_lattice(monkeypatch):
    # the 7 points form one colour class: candidates already in an orbit get
    # no run, so the whole search extends fewer assignments (81) than the
    # listing search keeps automorphisms (168), and 4 generators suffice
    calls = []
    real = autgroup._extension_by_joins

    def counting(a):
        extend = real(a)

        def counted(mapping):
            calls.append(1)
            return extend(mapping)

        return counted

    monkeypatch.setattr(autgroup, "_extension_by_joins", counting)
    chain = automorphism_group(_subspace_lattice(3))
    assert [len(t) for t in chain.transversals if len(t) > 1] == [7, 6, 4]
    assert len(chain.generators) <= 7
    assert len(calls) < 168


@pytest.mark.parametrize("text", ["S3^3", "S3*S4", "S4^2", "S3^4", "S4^2*S3^2", "S4^4"])
def test_search_agrees_with_the_reference_on_tower_lattices(text, lattices):
    _assert_search_matches_the_reference(lattices.get(text).to_abstract())


@pytest.mark.parametrize("text, order", [("S3^5", 120), ("S4^3*S3^2", 12)])
def test_chain_order_is_the_length_of_the_full_listing(text, order, lattices):
    a = lattices.get(text).to_abstract()
    listed = _listing_search(a)
    assert len(listed) == order
    assert automorphism_group(a).order == order
    assert _mappings(brute_force_automorphisms(a)) == listed


def test_sifting_rejects_what_is_not_an_automorphism(lattices):
    lat = lattices.get("S3^3")
    chain = automorphism_group(lat)
    autos = _mappings(brute_force_automorphisms(lat))
    for g in autos:
        assert g in chain
    bottom, top = lat.bottom_index, lat.top_index
    swap = list(range(len(lat)))
    swap[bottom], swap[top] = top, bottom
    assert tuple(swap) not in chain
    # an automorphism on the join-irreducibles, but not on two other elements
    g = list(autos[1])
    x, y = [i for i in range(len(lat)) if i not in chain.base and g[i] != i][:2]
    g[x], g[y] = g[y], g[x]
    assert tuple(g) not in chain
    assert tuple(range(len(lat) - 1)) not in chain


def test_schreier_sims_orders():
    # S_5 on five points from a transposition and a 5-cycle, and from the
    # adjacent transpositions; C_2 x C_3 from its two factors
    assert schreier_sims([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], 5).order == 120
    adjacent = []
    for k in range(4):
        g = list(range(5))
        g[k], g[k + 1] = k + 1, k
        adjacent.append(tuple(g))
    assert schreier_sims(adjacent, 5).order == 120
    assert schreier_sims([(1, 0, 2, 3, 4), (0, 1, 3, 4, 2)], 5).order == 6
    assert schreier_sims([], 4).order == 1
    assert schreier_sims([(0, 1, 2)], 3).order == 1


def test_schreier_sims_agrees_with_the_closure_on_random_groups(rng):
    for _ in range(40):
        n = rng.randint(1, 6)
        generators = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 3))]
        group = _generated_group(generators, n)
        chain = schreier_sims(generators, n)
        assert chain.order == len(group), generators
        assert sorted(chain.elements()) == sorted(group), generators
        outside = [g for g in permutations(range(n)) if g not in group]
        assert not any(g in chain for g in outside), generators


@pytest.mark.parametrize("name", ["M3", "M4", "GF(2)^3", "S3^3", "S4^2*S3^2"])
def test_schreier_sims_agrees_with_the_closure(name, lattices):
    if name.startswith("S"):
        a = lattices.get(name).to_abstract()
    else:
        a = {"M3": _diamond(3), "M4": _diamond(4), "GF(2)^3": _subspace_lattice(3)}[name]
    generators = automorphism_group(a).generators
    chain = schreier_sims(generators, len(a))
    group = _generated_group(generators, len(a))
    assert chain.order == len(group)
    assert sorted(chain.elements()) == sorted(group)


@pytest.mark.parametrize(
    "masks, message",
    [
        # the V: 0, 1 < 2 (the search over every element finds 2 maps)
        ((0b001, 0b010, 0b111), "2 minimal elements"),
        # the bowtie: 0, 1 < 2, 3
        ((0b0001, 0b0010, 0b0111, 0b1011), "2 minimal elements"),
        # a bottom, but 1 and 2 have the two upper bounds 3 and 4
        ((0b00001, 0b00011, 0b00101, 0b01111, 0b10111), "no join"),
        # 1 and 2 have the two upper bounds 4 and 5, and 3 > 1 tells 1 from
        # 2, so every join-irreducible has a colour of its own and no
        # backtracking run is needed
        ((0b000001, 0b000011, 0b000101, 0b001011, 0b010111, 0b100111), "no join"),
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


# the pairwise scan is quadratic in the lattice: it stays off the largest cases
@pytest.mark.parametrize("text", sorted(set(PRODUCT_FORMULA_CASES) - {"S3^6", "S4^3*S3^3"}))
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


def _identity_tau(real, sigma, lat):
    return LatticeAutomorphism(tuple(range(len(lat))))


def _swap_bottom_and_top(real, sigma, lat):
    mapping = list(real(sigma, lat).mapping)
    b, t = lat.bottom_index, lat.top_index
    mapping[b], mapping[t] = mapping[t], mapping[b]
    return LatticeAutomorphism(tuple(mapping))


def _tau_of_the_mirror_image(real, sigma, lat):
    # the same generators in another order: only the round trip can tell
    rho = SlotPermutation(tuple(reversed(range(len(sigma.mapping)))))
    return real(rho.compose(sigma).compose(rho), lat)


@pytest.mark.parametrize(
    "wrong",
    [_identity_tau, _swap_bottom_and_top, _tau_of_the_mirror_image],
    ids=["identity", "non-member", "another-transposition"],
)
def test_product_formula_fails_on_a_wrong_tau(wrong, lattices, monkeypatch):
    real = autgroup.tau_on_lattice
    monkeypatch.setattr(autgroup, "tau_on_lattice", lambda sigma, lat: wrong(real, sigma, lat))
    report = verify_product_formula(parse_spec("S3^3"), lattice=lattices.get("S3^3"))
    assert not report.match
    assert report.brute_force_order == 6


def test_product_formula_fails_on_too_few_generators(lattices, monkeypatch):
    # every tau checks out, but (3.1 3.2) alone generates a group of order 2
    adjacent = autgroup._adjacent_transpositions
    monkeypatch.setattr(autgroup, "_adjacent_transpositions", lambda spec: adjacent(spec)[:1])
    report = verify_product_formula(parse_spec("S3^3"), lattice=lattices.get("S3^3"))
    assert (report.brute_force_order, report.constructive_order) == (6, 2)
    assert not report.match


def test_product_formula_fails_on_a_tau_wrong_off_the_base(lattices, monkeypatch):
    # every tau conjugated by a swap pi of two elements that are neither
    # join-irreducibles nor factor atoms: the maps still generate a group of
    # order 6 and agree with the real tau on the factor atoms, so the order
    # checks and the round trip pass, but they are not automorphisms, and
    # only the sift rejects them
    lat = lattices.get("S3^3")
    chain = automorphism_group(lat)
    atoms = set(factor_atoms(lat))
    real = autgroup.tau_on_lattice
    first = real(SlotPermutation((1, 0, 2)), lat).mapping
    x, y = [i for i in range(len(lat)) if i not in chain.base and i not in atoms][:2]
    if first[x] == x:
        x, y = y, x
    pi = list(range(len(lat)))
    pi[x], pi[y] = y, x

    def conjugated(sigma, lat):
        mapping = real(sigma, lat).mapping
        return LatticeAutomorphism(tuple(pi[mapping[pi[i]]] for i in range(len(lat))))

    monkeypatch.setattr(autgroup, "tau_on_lattice", conjugated)
    assert conjugated(SlotPermutation((1, 0, 2)), lat).mapping not in chain
    report = verify_product_formula(parse_spec("S3^3"), lattice=lat)
    assert (report.brute_force_order, report.constructive_order) == (6, 6)
    assert not report.match
