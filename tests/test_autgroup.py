import inspect
from functools import partial
from hashlib import sha256
from itertools import combinations_with_replacement, permutations
from math import factorial
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattower import abstract_lattice, autgroup, context, lattice_core, stabiliser
from lattower.abstract_lattice import AbstractLattice, _covers_of_order
from lattower.autgroup import (
    ProductFormulaReport,
    automorphism_group,
    brute_force_automorphisms,
    cycle_notation,
    factor_atoms,
    induced_permutation,
    tau_on_lattice,
    verify_product_formula,
)
from lattower.errors import ClassViolation, LatTowerError, TooLarge
from lattower.gf2 import _bits, span
from lattower.group_spec import ChainPosition as CP
from lattower.context import closed_form_context, factor_atom_points
from lattower.group_spec import chain, format_spec, parse_spec, spec_of_degrees
from lattower.lattice_core import _digits, enumerate_lattice
from lattower.perm_oracle import lemma_lattices
from lattower.stabiliser import StabiliserChain, _compose, _inverse, schreier_sims
from lattower.triples import Profile, element_from_profile, leq
from test_acceptance import (
    COMPLEMENTED_SPECS,
    complemented_elements,
    PRODUCT_FORMULA_CASES,
    ROUND_TRIP_SPECS,
    SHAPE_SPECS,
    _bottom_index,
    _edges,
    _heights,
    _shape_specs,
    _top_index,
    index_of_profile,
    sign_parity_element,
    sub_product_element,
)
from test_gf2 import iter_subspaces
from test_lattice_core import _reference_up_sets, _reference_w_ids


def restrict(lat, g):
    """The permutation g induces on the points of a bare lattice, or None if
    it does not permute them."""
    psi = tuple(lat.point.get(g[x], -1) for x in lat.irreducibles)
    return psi if sorted(psi) == list(range(len(psi))) else None


def _poset(down):
    """A bare lattice from its down sets, the up sets transposed bit by bit."""
    down = tuple(down)
    return AbstractLattice(_covers_of_order(down, _reference_up_sets(down)))


def _chain(n):
    return _poset((1 << (i + 1)) - 1 for i in range(n))


def _diamond(k):
    # bottom, k incomparable atoms, top
    n = k + 2
    masks = [1] + [1 | (1 << i) for i in range(1, k + 1)] + [(1 << n) - 1]
    return _poset(masks)


PENTAGON = _poset(
    # 0 < 1 < 2 < 4 and 0 < 3 < 4, with 1, 2 incomparable to 3
    (0b00001, 0b00011, 0b00111, 0b01001, 0b11111)
)


def _subspace_lattice(width):
    # all subspaces of GF(2)^width under inclusion
    spaces = list(iter_subspaces(width))
    return _poset(
        sum(1 << i for i, u in enumerate(spaces) if w.contains_subspace(u)) for w in spaces
    )


def _cover_lists(a):
    """The lower and upper covers of every element of a bare poset."""
    lower = [[] for _ in range(a.n)]
    upper = [[] for _ in range(a.n)]
    for i, j in a.covers:
        lower[j].append(i)
        upper[i].append(j)
    return lower, upper


def _refine_by_covers(seed, lower, upper):
    """Colour ids of the seed keys, refined by the sorted colours of the
    lower and upper covers until a round splits no class."""
    ids = autgroup._canonical_ids(seed)
    while True:
        refined = [
            (
                ids[i],
                tuple(sorted(ids[j] for j in lower[i])),
                tuple(sorted(ids[j] for j in upper[i])),
            )
            for i in range(len(ids))
        ]
        new_ids = autgroup._canonical_ids(refined)
        if len(set(new_ids)) == len(set(ids)):
            return new_ids
        ids = new_ids


def _reference_refined_classes(a):
    """The colouring the mask search used: its seed reads the popcounts of the
    down and up masks where the context search reads |J(x)|."""
    lower, upper = _cover_lists(a)
    heights, depths = [0] * a.n, [0] * a.n
    for i in sorted(range(a.n), key=lambda x: a.down[x].bit_count()):
        heights[i] = 1 + max((heights[j] for j in lower[i]), default=-1)
    for i in sorted(range(a.n), key=lambda x: a.up[x].bit_count()):
        depths[i] = 1 + max((depths[j] for j in upper[i]), default=-1)
    sizes = map(int.bit_count, a.down), map(int.bit_count, a.up), map(len, lower), map(len, upper)
    return _refine_by_covers(list(zip(heights, depths, *sizes)), lower, upper)


def _reference_element_refinement(ctx):
    """The colouring of every element that the search took its point colours
    from before it refined on the points alone: seeded by height, depth,
    |J(x)| and the numbers of lower and upper covers, then refined by the
    colours of the covers below and above."""
    covers = [(i, j) for j, below in enumerate(ctx.lower) for i in below]
    heights = _heights(ctx.n, covers)
    depths = _heights(ctx.n, [(j, i) for i, j in covers])
    counts = map(int.bit_count, ctx.J), map(len, ctx.lower), map(len, ctx.upper)
    return _refine_by_covers(list(zip(heights, depths, *counts)), ctx.lower, ctx.upper)


def _reference_extension_by_joins(a):
    """The mask search's extension of a map of the join-irreducibles.

    The other elements are visited in order of increasing down set; an
    element with lower covers p != q maps to the element whose up set is the
    intersection of those of the images of p and q.  The extension is kept
    only if it is a bijection that sends every cover to a cover.
    """
    n = a.n
    lower, _ = _cover_lists(a)
    up = a.up
    bottoms = [i for i in range(n) if not lower[i]]
    if len(bottoms) != 1:
        raise LatTowerError(f"not a lattice: {len(bottoms)} minimal elements")
    bottom = bottoms[0]
    by_up = {mask: i for i, mask in enumerate(up)}
    rest = sorted((i for i in range(n) if len(lower[i]) != 1), key=lambda i: a.down[i].bit_count())
    is_cover = set(a.covers)

    def extend(mapping):
        image = list(mapping)
        used = [False] * n
        for y in mapping:
            if y >= 0:
                used[y] = True
        for x in rest:
            if x == bottom:
                y = bottom
            else:
                first, second = lower[x][0], lower[x][1]
                y = by_up.get(up[image[first]] & up[image[second]], -1)
                if y < 0:
                    raise LatTowerError(
                        f"not a lattice: no join for the images of {first} and {second}"
                    )
            if used[y]:
                return None
            used[y] = True
            image[x] = y
        moved = {(image[i], image[j]) for i, j in a.covers}
        return tuple(image) if moved <= is_cover else None

    return extend


def _reference_automorphism_group(a):
    """The orbit-pruned search on the n-point order relation that the context
    search replaced: the same base, candidates and levels, each placement
    checked against the down masks, each assignment extended by joins, and
    the chain kept on all n elements."""
    n = a.n
    if n == 0:
        return StabiliserChain(0)
    colours = _reference_refined_classes(a)
    buckets = {}
    for i, c in enumerate(colours):
        buckets.setdefault(c, []).append(i)
    candidates = [buckets[colours[i]] for i in range(n)]
    lower, _ = _cover_lists(a)
    irreducibles = [i for i in range(n) if len(lower[i]) == 1]
    base = sorted(irreducibles, key=lambda i: (len(candidates[i]), colours[i], i))
    extend = _reference_extension_by_joins(a)
    down = a.down
    m = len(base)
    identity_on_base = [-1] * n
    for x in base:
        identity_on_base[x] = x
    extend(identity_on_base)

    def first_automorphism(t, y):
        mapping = [-1] * n
        used = [False] * n
        for x in base[:t]:
            mapping[x] = x
            used[x] = True

        def place(s):
            if s == m:
                return extend(mapping)
            x = base[s]
            for z in (y,) if s == t else candidates[x]:
                if used[z] or any(
                    ((down[x2] >> x) & 1) != ((down[mapping[x2]] >> z) & 1)
                    or ((down[x] >> x2) & 1) != ((down[z] >> mapping[x2]) & 1)
                    for x2 in base[:s]
                ):
                    continue
                mapping[x], used[z] = z, True
                image = place(s + 1)
                mapping[x], used[z] = -1, False
                if image is not None:
                    return image
            return None

        return place(t)

    chain = StabiliserChain(n, base)
    for t in reversed(range(m)):
        orbit = chain.orbit(t)
        for y in candidates[base[t]]:
            if y not in orbit:
                image = first_automorphism(t, y)
                if image is not None:
                    chain.generators.append(image)
                    _assert_fixing_is_the_prefix_scan(chain)
                    orbit = chain.orbit(t)
    return chain


def _reference_automorphisms(a):
    """The search over every element, kept as a referee for the search over
    the join-irreducibles: colour-class candidates, each checked against all
    previously placed elements in both directions."""
    n = len(a)
    if n == 0:
        return [()]
    colours = _reference_refined_classes(a)
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
    return sorted(found)


def test_brute_force_on_chains():
    for n in (1, 2, 5):
        autos = brute_force_automorphisms(_chain(n))
        assert autos == [tuple(range(n))]


def test_brute_force_on_diamonds():
    # poset automorphisms permute the k atoms freely
    assert len(brute_force_automorphisms(_diamond(2))) == 2
    assert len(brute_force_automorphisms(_diamond(3))) == 6
    assert len(brute_force_automorphisms(_diamond(4))) == 24


def test_brute_force_on_pentagon():
    autos = brute_force_automorphisms(PENTAGON)
    assert len(autos) == 1


def _point_colours(ctx):
    """The search's colours of a bare lattice's points, read off the
    standard context of its covers."""
    return autgroup._refined_classes(ctx.standard_context())


def _reference_keeps_covers(ctx, image):
    """Whether ``image`` is a bijection of the elements that sends each
    element's lower covers exactly onto those of its image: the whole-lattice
    check the product formula made before it read the closed-form context.
    Such a bijection and its inverse send covers to covers, so it is an
    automorphism of the order, and it is the extension of its restriction."""
    if sorted(image) != list(range(ctx.n)):
        return False
    lower, moved = ctx.lower, image.__getitem__
    return all(sorted(map(moved, c)) == lower[y] for c, y in zip(lower, image))


def _listing_search(ctx):
    """The join-irreducible search that listed every automorphism, kept as
    the referee for the orbit-pruned search on lattices too large for the
    search over every element: it extends every consistent assignment of
    the join-irreducibles and keeps those that extend."""
    colours = _point_colours(ctx)
    m = len(colours)
    candidates = [[k for k in range(m) if colours[k] == c] for c in colours]
    order = sorted(range(m), key=lambda k: (len(candidates[k]), colours[k], k))
    under = [ctx.J[x] for x in ctx.irreducibles]
    mapping = [-1] * m
    used = [False] * m
    found = []

    def place(t):
        if t == len(order):
            image = ctx.extend(mapping)
            if image is not None:
                found.append(image)
            return
        x = order[t]
        for y in candidates[x]:
            if used[y] or any(
                ((under[x] >> x2) & 1) != ((under[y] >> mapping[x2]) & 1)
                or ((under[x2] >> x) & 1) != ((under[mapping[x2]] >> y) & 1)
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


def _assert_search_matches_the_reference(a):
    reference = _reference_automorphisms(a)
    chain = automorphism_group(a)
    _assert_fixing_is_the_prefix_scan(chain)
    assert chain.order == len(reference)
    extended = [a.extend(g) for g in chain.generators]
    assert _generated_group(extended, len(a)) == set(reference)
    assert brute_force_automorphisms(a) == reference


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
    # no run, so the whole search reaches fewer full maps than the listing
    # search keeps automorphisms (168), and 4 generators suffice
    calls = _recording_row_tests(monkeypatch)
    chain = automorphism_group(_subspace_lattice(3))
    assert [len(t) for t in chain.transversals if len(t) > 1] == [7, 6, 4]
    assert len(chain.generators) <= 7
    assert len(_full_maps(calls)) < 168


@pytest.mark.parametrize("text", ["S3^3", "S3*S4", "S4^2", "S3^4", "S4^2*S3^2", "S4^4"])
def test_search_agrees_with_the_reference_on_tower_lattices(text, lattices):
    _assert_search_matches_the_reference(lattices.get(text).to_abstract())


def _assert_search_matches_the_mask_search(lattice, a):
    """The same order as the mask search on the order relation a, and the
    same group on the join-irreducibles: the reference generators restrict
    into the searched chain, and restriction is faithful on automorphisms."""
    chain = automorphism_group(lattice)
    reference = _reference_automorphism_group(a)
    assert chain.order == reference.order
    assert all(restrict(lattice, g) in chain for g in reference.generators)


def _small_lattices():
    small = [_chain(n) for n in (1, 2, 3, 5)] + [_diamond(k) for k in (2, 3, 4)]
    return small + [PENTAGON, _subspace_lattice(3)] + list(lemma_lattices().values())


# the lattices the session cache keeps; criterion 3's other ones are built per test
CACHED_SPECS = {*PRODUCT_FORMULA_CASES, "S4^4*S3^2"}
CRITERION_3_SPECS = sorted({*CACHED_SPECS, "S3^7", *SHAPE_SPECS})


@pytest.fixture(scope="module")
def s3_7():
    """S3^7: built once for this module, not kept in the cache."""
    return enumerate_lattice(parse_spec("S3^7"))


def _criterion_3_lattice(text, request):
    if text == "S3^7":
        return request.getfixturevalue("s3_7")
    if text in CACHED_SPECS:
        return request.getfixturevalue("lattices").get(text)
    return enumerate_lattice(parse_spec(text))


@pytest.mark.parametrize("text", CRITERION_3_SPECS)
def test_w_ids_and_bases_match_the_basis_interning(text, request):
    lat = _criterion_3_lattice(text, request)
    assert (lat.wids, lat.bases) == _reference_w_ids(lat)


def _closed_form_elements(lat):
    """The element of each point of the closed-form context, in its order,
    found by its profile: V_s and A_s with W = 0, and P_v, FULL on supp v
    with W = <v>."""
    spec, n = lat.spec, lat.spec.num_slots

    def index(eff, rows):
        return index_of_profile(lat, Profile(spec, tuple(eff), span(n, rows)))

    def at(s, p):
        return [p if t == s else CP.TRIV for t in range(n)]

    out = [index(at(s, CP.V), []) for s, d in enumerate(spec.degrees) if d == 4]
    out += [index(at(s, CP.ALT), []) for s in range(n)]
    for v in range(1, 1 << n):
        out.append(index([CP.FULL if v >> s & 1 else CP.TRIV for s in range(n)], [v]))
    return out


def _assert_the_closed_form_is_the_enumerated_context(lat):
    """The closed-form context is that of the lattice's covers, point for
    point by profile: the same points, J-sets and meet-irreducible J-sets;
    its slot action is tau on the points, and its factor atoms are
    ``factor_atoms``."""
    spec, ctx, a = lat.spec, closed_form_context(lat.spec), lat.context
    elements = _closed_form_elements(lat)
    assert sorted(elements) == a.irreducibles
    point_of = {a.point[x]: k for k, x in enumerate(elements)}

    def ours(j_set):
        return sum(1 << point_of[k] for k in _bits(j_set))

    assert [ours(a.J[x]) for x in elements] == list(ctx.under)
    extents = [ours(a.J[x]) for x, above in enumerate(a.upper) if len(above) == 1]
    assert len(extents) == len(ctx.extents) and set(extents) == ctx.extents
    for sigma in autgroup._adjacent_transpositions(spec):
        tau = tau_on_lattice(sigma, lat)
        on_points = tuple(point_of[a.point[tau[x]]] for x in elements)
        assert autgroup.slot_action(spec, sigma) == on_points
    assert [elements[k] for k in factor_atom_points(spec)] == factor_atoms(lat)


@pytest.mark.parametrize("text", CRITERION_3_SPECS)
def test_the_closed_form_context_is_the_enumerated_one_on_criterion_3_lattices(text, request):
    _assert_the_closed_form_is_the_enumerated_context(_criterion_3_lattice(text, request))


# the shapes with seven slots besides S3^7: each test enumerates its own
# lattice and drops it, so no two of them are held at once
SEVEN_SLOT_SPECS = [format_spec(spec_of_degrees((4,) * k + (3,) * (7 - k))) for k in range(1, 8)]


@pytest.mark.parametrize("text", SEVEN_SLOT_SPECS)
def test_the_closed_form_context_is_the_enumerated_one_at_seven_slots(text):
    _assert_the_closed_form_is_the_enumerated_context(enumerate_lattice(parse_spec(text)))


# every spec with degrees 3 to 7 and at most four slots: 125 specs
MIXED_DEGREE_SPECS = [
    format_spec(spec_of_degrees(degrees))
    for t in range(1, 5)
    for degrees in combinations_with_replacement((3, 4, 5, 6, 7), t)
]


@pytest.mark.parametrize("text", MIXED_DEGREE_SPECS)
def test_the_closed_form_context_is_the_enumerated_one_on_mixed_degrees(text):
    _assert_the_closed_form_is_the_enumerated_context(enumerate_lattice(parse_spec(text)))


def test_the_closed_form_context_has_its_counted_points():
    assert len(MIXED_DEGREE_SPECS) == 125
    for text in ("1", "S5", "S4", "S3^9", "S4^3*S3^6", "S4^9"):
        spec = parse_spec(text)
        ctx = closed_form_context(spec)
        assert len(ctx.under) == len(ctx.seeds) == 2**spec.num_slots + spec.num_slots + spec.a4 - 1
        per_slot = sum(3 if d == 4 else 2 for d in spec.degrees)
        assert len(ctx.extents) == per_slot + 2**spec.num_slots - spec.num_slots - 1


def test_search_agrees_with_the_mask_search_on_small_lattices():
    for a in _small_lattices():
        _assert_search_matches_the_mask_search(a, a)


# every criterion 3 spec but S3^7, whose order relation alone takes 427 MB a direction
@pytest.mark.parametrize("text", sorted(PRODUCT_FORMULA_CASES) + ["S4^4*S3^2"])
def test_search_agrees_with_the_mask_search_on_tower_lattices(text, lattices):
    a = lattices.get(text).to_abstract()
    _assert_search_matches_the_mask_search(a, a)


def _reference_unpruned_search(ctx, accept=None):
    """The search as it was before the prefix masks: each placement checked
    bit by bit against every earlier base point, the fixed ones included,
    and each full map kept if ``accept`` passes it, by default if it extends.
    The base, candidates and level order are the search's own."""
    if accept is None:
        accept = lambda psi: ctx.extend(psi) is not None
    context = ctx.standard_context()
    under, over = context.under, context.over
    colours = autgroup._refined_classes(context)
    m = len(colours)
    buckets = {}
    for k, c in enumerate(colours):
        buckets.setdefault(c, []).append(k)
    candidates = [buckets[c] for c in colours]
    base = sorted(range(m), key=lambda k: (len(candidates[k]), colours[k], k))

    def first_automorphism(t, y):
        mapping = [-1] * m
        used = [False] * m
        for x in base[:t]:
            mapping[x], used[x] = x, True

        def place(s):
            if s == m:
                return accept(mapping)
            x = base[s]
            for z in (y,) if s == t else candidates[x]:
                if used[z] or any(
                    ((under[x] >> x2) & 1) != ((under[z] >> mapping[x2]) & 1)
                    or ((under[x2] >> x) & 1) != ((under[mapping[x2]] >> z) & 1)
                    for x2 in base[:s]
                ):
                    continue
                mapping[x], used[z] = z, True
                if place(s + 1):
                    return True
                mapping[x], used[z] = -1, False
            return False

        return tuple(mapping) if place(t) else None

    chain = StabiliserChain(m, base)
    for t in reversed(range(m)):
        orbit = chain.orbit(t)
        for y in candidates[base[t]]:
            if y not in orbit:
                psi = first_automorphism(t, y)
                if psi is not None:
                    chain.generators.append(psi)
                    _assert_fixing_is_the_prefix_scan(chain)
                    orbit = chain.orbit(t)
    return chain


def _recording_extensions(monkeypatch) -> list[tuple[int, ...]]:
    """The point maps ``AbstractLattice.extend`` is called on from here on."""
    calls, real = [], AbstractLattice.extend

    def extend(ctx, psi):
        calls.append(tuple(psi))
        return real(ctx, psi)

    monkeypatch.setattr(AbstractLattice, "extend", extend)
    return calls


def _recording_row_tests(monkeypatch) -> list[tuple[tuple[int, ...], bool]]:
    """Each map the search's MI-row test sees from here on, -1 at the points
    not yet placed, with its verdict."""
    calls, real = [], autgroup._keeps_rows

    def keeps_rows(ctx):
        accept = real(ctx)

        def test(rows, psi):
            verdict = accept(rows, psi)
            calls.append((tuple(psi), verdict))
            return verdict

        return test

    monkeypatch.setattr(autgroup, "_keeps_rows", keeps_rows)
    return calls


def _full_maps(calls) -> list[tuple[int, ...]]:
    """The full maps among the recorded row tests, in order."""
    return [psi for psi, _ in calls if -1 not in psi]


def _is_subsequence(short, long) -> bool:
    items = iter(long)
    return all(any(x == y for y in items) for x in short)


def _assert_the_pruned_search_finds_the_unpruned_chain(ctx, monkeypatch):
    extended = _recording_extensions(monkeypatch)
    reference = _reference_unpruned_search(ctx)
    reference_calls = extended[:]
    tested = _recording_row_tests(monkeypatch)
    chain = automorphism_group(ctx)
    assert chain.base == reference.base
    assert chain.generators == reference.generators
    assert chain.order == reference.order
    # the masks turn away only runs that would have found nothing, the rows
    # tested as they fill end some runs before a full map, and on a lattice
    # the (J, M) test passes the maps that extend: so the full maps the
    # search reaches are, in order, among those the reference extends, and
    # the ones that pass are the generators
    assert _is_subsequence(_full_maps(tested), reference_calls)
    assert [psi for psi, ok in tested if ok and -1 not in psi] == chain.generators


def test_the_pruned_search_finds_the_unpruned_chain_on_small_lattices(monkeypatch):
    for a in _small_lattices():
        _assert_the_pruned_search_finds_the_unpruned_chain(a, monkeypatch)


@pytest.mark.parametrize("text", sorted(PRODUCT_FORMULA_CASES) + ["S4^4*S3^2"])
def test_the_pruned_search_finds_the_unpruned_chain_on_tower_lattices(
    text, lattices, monkeypatch
):
    _assert_the_pruned_search_finds_the_unpruned_chain(lattices.get(text).context, monkeypatch)


def test_the_row_test_sees_only_maps_that_keep_the_order(rng, monkeypatch):
    # every map the MI-row test sees, full or not, keeps the order of the
    # points it has placed, in both directions.  A placement test that lets
    # a map through against the order changes no chain, as the rows turn it
    # away later, but the map reaches this record.
    posets = _small_lattices() + [_random_lattice(rng) for _ in range(40)]
    posets += [_random_symmetric_lattice(rng) for _ in range(40)]
    contexts = [a.standard_context() for a in posets]
    contexts += [closed_form_context(parse_spec(text)) for text in ("S3^4", "S4^2*S3^2", "S3^5")]
    calls = _recording_row_tests(monkeypatch)
    for context in contexts:
        calls.clear()
        chain = autgroup._search(context)
        under = context.under
        for psi, _ in calls:
            placed = [k for k, z in enumerate(psi) if z >= 0]
            images = sum(1 << psi[k] for k in placed)
            for x in placed:
                below = sum(1 << psi[k] for k in placed if under[x] >> k & 1)
                assert under[psi[x]] & images == below, psi
        assert [psi for psi, ok in calls if ok and -1 not in psi] == chain.generators


def _keeps_the_context(context):
    """The (J, M) test written out: psi sends the J-sets of the
    meet-irreducibles onto themselves."""
    extents = context.extents
    return lambda psi: {sum(1 << psi[k] for k in _bits(e)) for e in extents} == extents


@st.composite
def _drawn_families(draw):
    """The down masks of a family of subsets of k <= 6 points by inclusion,
    its labels shuffled.  Random sets, closed under the powers of a random
    permutation of the points in half the draws, then under intersection
    with the full set added, make a lattice.  A third of the draws then
    remove one inner set; another third put X = A | B | {p} and
    Y = A | B | {q} over two incomparable sets A and B, for new points p and
    q, in place of every set over A | B, with {p} and {q} over the bottom.
    X and Y then have the same lower covers but one, and A and B have no
    join."""
    k = draw(st.integers(1, 6))
    full = (1 << k) - 1
    family = set(draw(st.lists(st.integers(0, full), min_size=1, max_size=6))) | {full}
    if draw(st.booleans()):
        pi = draw(st.permutations(range(k)))
        for u in list(family):
            v = sum(1 << pi[i] for i in _bits(u))
            while v not in family:
                family.add(v)
                v = sum(1 << pi[i] for i in _bits(v))
    while True:
        meets = {u & v for u in family for v in family} - family
        if not meets:
            break
        family |= meets
    bottom = min(family, key=int.bit_count)
    change = draw(st.sampled_from(["none", "remove", "two upper bounds"]))
    inner = sorted(family - {bottom, full})
    pairs = [(u, v) for u in inner for v in inner if u < v and u & ~v and v & ~u]
    if change == "remove" and inner:
        family.remove(draw(st.sampled_from(inner)))
    elif change == "two upper bounds" and pairs:
        a, b = draw(st.sampled_from(pairs))
        p, q = 1 << k, 1 << (k + 1)
        family = {u for u in family if (a | b) & ~u}
        family |= {a | b | p, a | b | q, bottom | p, bottom | q, full | p | q}
    masks = _inclusion_masks(family)
    label = draw(st.permutations(range(len(masks))))
    shuffled = [0] * len(masks)
    for i, mask in enumerate(masks):
        shuffled[label[i]] = sum(1 << label[j] for j in _bits(mask))
    return shuffled


@given(_drawn_families())
@settings(max_examples=50, deadline=None)
def test_the_search_finds_the_unpruned_chain_on_drawn_families(masks):
    # on a lattice the reference keeps the full maps that extend; on a poset
    # the search's group is that of the context, so the reference keeps the
    # full maps that keep (J, M)
    try:
        poset = _poset(masks)
    except LatTowerError as error:  # J is not one-to-one
        assert "not a lattice" in str(error)
        return
    context = poset.standard_context()
    chain = autgroup._search(context)
    accept = None if _is_lattice(poset) else _keeps_the_context(context)
    reference = _reference_unpruned_search(poset, accept)
    assert chain.base == reference.base
    assert chain.generators == reference.generators
    assert chain.order == reference.order


def _colour_classes(colours):
    """The partition of the indices by colour."""
    classes = {}
    for k, c in enumerate(colours):
        classes.setdefault(c, set()).add(k)
    return sorted(map(sorted, classes.values()))


def _assert_point_colours_refine_as_the_reference(ctx, automorphisms, exact=True):
    """The point colours split the points of the bare lattice ctx as the
    element refinement does (exact) or more coarsely, and every automorphism
    (n-point maps) and every generator of the searched chain keeps them."""
    colours = _point_colours(ctx)
    assert len(colours) == len(ctx.irreducibles)
    reference = _reference_element_refinement(ctx)
    ours = _colour_classes(colours)
    theirs = _colour_classes([reference[x] for x in ctx.irreducibles])
    if exact:
        assert ours == theirs
    else:
        assert all(any(set(r) <= set(c) for c in ours) for r in theirs)
    maps = [restrict(ctx, g) for g in automorphisms]
    maps += automorphism_group(ctx).generators
    for psi in maps:
        assert [colours[k] for k in psi] == colours


def test_point_colours_split_small_lattices_as_the_element_refinement():
    for a in _small_lattices():
        _assert_point_colours_refine_as_the_reference(a, _reference_automorphisms(a))


@pytest.mark.parametrize("text", sorted(PRODUCT_FORMULA_CASES))
def test_point_colours_split_tower_lattices_as_the_element_refinement(text, lattices):
    # the maps tau of the adjacent slot transpositions generate LatAut
    lat = lattices.get(text)
    taus = [tau_on_lattice(sigma, lat) for sigma in autgroup._adjacent_transpositions(lat.spec)]
    _assert_point_colours_refine_as_the_reference(lat.context, taus)


def _inclusion_masks(family):
    """The down masks of a family of sets under inclusion, smaller sets first."""
    sets = sorted(family, key=lambda u: (u.bit_count(), u))
    return [sum(1 << i for i, u in enumerate(sets) if not u & ~v) for v in sets]


def _random_lattice(rng):
    """The union closure of a few random subsets of a small set, empty set
    included: a lattice under inclusion, seldom modular."""
    width = rng.randint(2, 5)
    family = {0}
    for _ in range(rng.randint(1, 6)):
        g = rng.randrange(1, 1 << width)
        family |= {f | g for f in family}
    return _poset(_inclusion_masks(family))


def _symmetric_family(rng, width):
    """The union closure of a few random subsets of ``width`` points and of
    their images under the powers of one random permutation of the points,
    empty set included: a union-closed family that the permutation keeps."""
    pi = rng.sample(range(width), width)
    family = {0}
    for _ in range(rng.randint(1, 4)):
        g = h = rng.randrange(1, 1 << width)
        while True:
            family |= {f | h for f in family}
            h = sum(1 << pi[k] for k in range(width) if (h >> k) & 1)
            if h == g:
                break
    return family


def _random_symmetric_lattice(rng):
    """A lattice under inclusion with the symmetry of a random permutation."""
    return _poset(_inclusion_masks(_symmetric_family(rng, rng.randint(2, 5))))


def _random_non_lattice_masks(rng):
    """A symmetric family on 3-5 points with the full set added and one inner
    set removed that is the union of two others, as ``BOOLEAN_WITHOUT_AB`` is
    built; the two then often have two minimal upper bounds.  Families with
    no such set are drawn again."""
    while True:
        width = rng.randint(3, 5)
        full = (1 << width) - 1
        family = _symmetric_family(rng, width) | {full}
        # the union of the sets strictly inside u is u when u is a union of two
        under = dict.fromkeys(family, 0)
        for u in family:
            for v in family:
                if v != u and not v & ~u:
                    under[u] |= v
        inner = sorted(u for u in family - {0, full} if under[u] == u)
        if inner:
            family.remove(rng.choice(inner))
            return _inclusion_masks(family)


def _is_lattice(a):
    """Whether every two elements of a poset with a bottom have a least upper
    bound: an upper bound whose up set holds every upper bound."""
    up = a.up
    for i in range(a.n):
        for j in range(i):
            bounds = up[i] & up[j]
            if not any(not bounds & ~up[k] for k in _bits(bounds)):
                return False
    return True


def test_point_colours_on_random_lattices(rng):
    # beyond modular lattices the point colours may be coarser than the
    # element refinement; the search must still find the whole group
    for _ in range(60):
        a = _random_lattice(rng)
        reference = _reference_automorphisms(a)
        _assert_point_colours_refine_as_the_reference(a, reference, exact=False)
        _assert_search_matches_the_reference(a)


@pytest.mark.parametrize("text, order", [("S3^5", 120), ("S4^3*S3^2", 12)])
def test_chain_order_is_the_length_of_the_full_listing(text, order, lattices):
    a = lattices.get(text).to_abstract()
    listed = _listing_search(a)
    assert len(listed) == order
    assert automorphism_group(a).order == order
    assert brute_force_automorphisms(a) == listed


def test_sifting_rejects_what_is_not_an_automorphism(lattices):
    # the chain acts on the join-irreducibles: an n-point map is restricted
    # to them before it sifts, and must then equal the extension of its
    # restriction
    lat = lattices.get("S3^3")
    ctx = lat.context
    chain = automorphism_group(ctx)

    def accepted(g):
        psi = restrict(ctx, g)
        return psi is not None and psi in chain and ctx.extend(psi) == g

    autos = brute_force_automorphisms(ctx)
    for g in autos:
        assert restrict(ctx, g) in chain
        assert accepted(g)
    bottom, top = _bottom_index(lat), _top_index(lat)
    swap = list(range(len(lat)))
    swap[bottom], swap[top] = top, bottom
    assert not accepted(tuple(swap))
    # an automorphism on the join-irreducibles, but not on two other elements
    g = list(autos[1])
    x, y = [i for i in range(len(lat)) if i not in ctx.point and g[i] != i][:2]
    g[x], g[y] = g[y], g[x]
    assert restrict(ctx, tuple(g)) in chain
    assert not accepted(tuple(g))
    # a permutation of the join-irreducibles that no automorphism induces
    heights = _heights(len(lat), _edges(lat.up_covers()))
    first, other = ctx.irreducibles[0], next(
        j for j in ctx.irreducibles if heights[j] != heights[ctx.irreducibles[0]]
    )
    moved = list(range(len(lat)))
    moved[first], moved[other] = other, first
    assert restrict(ctx, tuple(moved)) not in chain
    assert tuple(range(chain.n - 1)) not in chain


def _reference_fixing(chain, k):
    """The prefix scan that ``StabiliserChain._fixing`` replaced: the strong
    generators that fix b_0, ..., b_(k-1), each tested point by point."""
    prefix = chain.base[:k]
    return [i for i, s in enumerate(chain.generators) if all(s[b] == b for b in prefix)]


def _assert_fixing_is_the_prefix_scan(chain):
    for k in range(len(chain.base)):
        assert chain._fixing(k) == _reference_fixing(chain, k), k


def test_fixing_follows_generators_appended_directly_and_a_growing_base():
    chain = StabiliserChain(5, [0])
    for g in [(0, 2, 1, 3, 4), (1, 0, 2, 3, 4), (0, 1, 2, 4, 3)]:
        chain.generators.append(g)
        _assert_fixing_is_the_prefix_scan(chain)
    chain.generators.append((3, 2, 1, 0, 4))
    _assert_fixing_is_the_prefix_scan(chain)
    # (1 2) and (3 4) fixed the whole base; they move b_1 and b_2 once those come
    for point in (1, 3):
        chain._add_level(point)
        _assert_fixing_is_the_prefix_scan(chain)
    assert [chain._fixing(k) for k in range(3)] == [[0, 1, 2, 3], [0, 2], [2]]


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
    assert schreier_sims(adjacent, 5, 120).order == 120
    assert schreier_sims([(1, 0, 2, 3, 4), (0, 1, 3, 4, 2)], 5).order == 6
    assert schreier_sims([], 4).order == 1
    assert schreier_sims([], 4, 1).order == 1
    assert schreier_sims([(0, 1, 2)], 3).order == 1


def _bounds(order):
    """Upper bounds on |G|, the exact one first, and two below it that a run
    never meets on the way.  After each orbit every level's length is at most
    its final length, each final length is at least 2, and the product is at
    least 2.  With two or more levels, one short level leaves the product at
    least 2 short of |G|; with one level, the first orbit sees every
    generator and is complete at once."""
    return (order, order + 1, 2 * order, order - 1, 1)


def _assert_bounded_runs_agree(generators, n, bounded_run=schreier_sims):
    """Each bounded run gives the unbounded run's chain: base, strong
    generators, order and the elements in their order."""
    chain = schreier_sims(generators, n)
    _assert_fixing_is_the_prefix_scan(chain)
    whole = (chain.base, chain.generators, chain.order, list(chain.elements()))
    for bound in _bounds(chain.order):
        bounded = bounded_run(generators, n, bound)
        assert (bounded.base, bounded.generators, bounded.order, list(bounded.elements())) == whole
    return chain


def _random_generators(rng):
    n = rng.randint(1, 6)
    return [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 3))], n


def test_schreier_sims_agrees_with_the_closure_on_random_groups(rng):
    for _ in range(40):
        generators, n = _random_generators(rng)
        group = _generated_group(generators, n)
        chain = _assert_bounded_runs_agree(generators, n)
        assert chain.order == len(group), generators
        assert sorted(chain.elements()) == sorted(group), generators
        outside = [g for g in permutations(range(n)) if g not in group]
        assert not any(g in chain for g in outside), generators


def _schreier_sims_stopping_on(comparison):
    """``schreier_sims`` built from the module's source, its known-order stop
    made with ``comparison``."""
    source, stop = inspect.getsource(stabiliser), "chain.order == order_bound"
    assert source.count(stop) == 1
    mutant, namespace = source.replace(stop, f"chain.order {comparison} order_bound"), {}
    exec(compile(mutant, "stabiliser_mutant", "exec"), namespace)
    return namespace["schreier_sims"]


def test_a_stop_on_reaching_the_bound_from_below_is_caught(rng):
    # the stop as it is, rebuilt, passes; a stop once the product reaches a
    # bound below |G| ends with a chain of too small an order
    draws = [_random_generators(rng) for _ in range(40)]
    for comparison, caught in (("==", False), (">=", True)):
        run = _schreier_sims_stopping_on(comparison)
        failed = 0
        for generators, n in draws:
            try:
                _assert_bounded_runs_agree(generators, n, run)
            except AssertionError:
                failed += 1
        assert (failed > 0) == caught, comparison


@pytest.mark.parametrize("name", ["M3", "M4", "GF(2)^3", "S3^3", "S4^2*S3^2"])
def test_schreier_sims_agrees_with_the_closure(name, lattices):
    if name.startswith("S"):
        a = lattices.get(name).to_abstract()
    else:
        a = {"M3": _diamond(3), "M4": _diamond(4), "GF(2)^3": _subspace_lattice(3)}[name]
    searched = automorphism_group(a)
    _assert_fixing_is_the_prefix_scan(searched)
    generators = searched.generators
    chain = _assert_bounded_runs_agree(generators, searched.n)
    group = _generated_group(generators, searched.n)
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
        brute_force_automorphisms(_poset(masks))


# 0 < a, b, c, d; y covers a and b, x covers a, b and c, the top covers x, y
# and d.  J is one-to-one, but J(y) lies inside J(x) while y does not lie
# below x: a and b have the two minimal upper bounds x and y.
NOT_A_LATTICE_WITH_DISTINCT_J_SETS = (
    0b00000001, 0b00000011, 0b00000101, 0b00001001, 0b00010001, 0b00100111,
    0b01001111, 0b11111111,
)


def test_search_on_a_poset_whose_j_sets_misorder_it():
    poset = _poset(NOT_A_LATTICE_WITH_DISTINCT_J_SETS)
    try:
        found = brute_force_automorphisms(poset)
    except LatTowerError:
        return
    assert found == _reference_automorphisms(poset)


PERMUTED_J_SETS = (
    0b1, 0b11, 0b101, 0b1001, 0b10001, 0b100111, 0b1001111, 0b10011001,
    0b110011011, 0b1111111111,
)


def test_extension_rejects_a_map_that_permutes_the_j_sets_but_not_the_covers():
    # 0 < a, b, c, d (points 0-3); u covers a, b; v covers a, b, c; u' covers
    # c, d; v' covers u' and a; the top covers u, v, v'.  The points map
    # a -> c -> a, b -> d -> b sends the J-sets of u, v, u', v' to those of
    # u', v', u, v, so every lookup succeeds, but u' < v' while u is not
    # below v: only the cover check rejects it
    poset = _poset(PERMUTED_J_SETS)
    assert poset.irreducibles == [1, 2, 3, 4]
    psi = (2, 3, 0, 1)
    images = {sum(1 << psi[k] for k in range(4) if (j >> k) & 1) for j in poset.J}
    assert images == set(poset.J)
    assert poset.extend(psi) is None
    assert poset.extend((0, 1, 2, 3)) == tuple(range(10))
    assert brute_force_automorphisms(poset) == _reference_automorphisms(poset)


# The Boolean lattice on {a, b, c, d} with {a, b} removed: a and b have the
# two minimal upper bounds {a, b, c} and {a, b, d}, so it is not a lattice,
# but J (the atoms under each element) is one-to-one and the rows are
# accepted.
BOOLEAN_WITHOUT_AB = (1, 3, 5, 9, 17, 43, 83, 141, 277, 537, 1199, 2391, 4731, 9117, 32767)


def test_meet_irreducible_j_sets_do_not_certify_an_automorphism():
    # swapping b and c sends the J-sets of the four meet-irreducibles (the
    # coatoms) onto themselves, yet sends {a, c} to {a, b}, which is not
    # there: a test on J and the meet-irreducibles alone would accept it
    poset = _poset(BOOLEAN_WITHOUT_AB)
    assert poset.irreducibles == [1, 2, 3, 4]
    meet_irreducibles = [x for x in range(poset.n) if len(poset.upper[x]) == 1]
    assert len(meet_irreducibles) == 4
    psi = (0, 2, 1, 3)
    m_sets = {poset.J[x] for x in meet_irreducibles}
    moved = {sum(1 << psi[k] for k in range(4) if (j >> k) & 1) for j in m_sets}
    assert moved == m_sets
    assert poset.extend(psi) is None
    autos = brute_force_automorphisms(poset)
    assert len(autos) == 4
    assert autos == _reference_automorphisms(poset)


def _reference_extend_by_j_sets(ctx, psi, by_j=None):
    """The extension the lower-cover pass replaced: the points seeded with
    psi, the sets folded along ``order``, each looked up by its J-set (in
    ``by_j``, built here unless given), and the map kept only if it keeps
    the covers."""
    sets = [0] * ctx.n
    for x, y in zip(ctx.irreducibles, psi):
        sets[x] = 1 << y
    if by_j is None:
        by_j = {under: x for x, under in enumerate(ctx.J)}
    try:
        image = tuple(map(by_j.__getitem__, abstract_lattice._fold(ctx.order, ctx.lower, sets)))
    except KeyError:
        return None
    return image if _reference_keeps_covers(ctx, image) else None


def _assert_extend_matches_the_references(ctx, rng, is_lattice=True, chain=None):
    """``extend`` against the J-set fold, and on lattices against the
    extension by joins, on every generator of the searched chain (searched
    here unless given) and on 200 random point maps, half of them within the
    colour classes."""
    m = len(ctx.irreducibles)
    generators = (chain or automorphism_group(ctx)).generators
    classes = _colour_classes(_point_colours(ctx))
    maps = list(generators)
    for _ in range(100):
        maps.append(tuple(rng.sample(range(m), m)))
        psi = list(range(m))
        for cls in classes:
            for k, y in zip(cls, rng.sample(cls, len(cls))):
                psi[k] = y
        maps.append(tuple(psi))
    by_j = {under: x for x, under in enumerate(ctx.J)}
    by_joins = _reference_extension_by_joins(ctx) if is_lattice else None
    for psi in maps:
        image = ctx.extend(psi)
        assert image == _reference_extend_by_j_sets(ctx, psi, by_j)
        if by_joins is not None:
            mapping = [-1] * ctx.n
            for x, y in zip(ctx.irreducibles, psi):
                mapping[x] = ctx.irreducibles[y]
            assert image == by_joins(mapping)
    assert all(ctx.extend(g) is not None for g in generators)


@pytest.mark.parametrize("text", sorted(PRODUCT_FORMULA_CASES) + ["S4^4*S3^2"])
def test_extend_agrees_with_the_j_set_fold_on_tower_lattices(text, rng, lattices):
    _assert_extend_matches_the_references(lattices.get(text).context, rng)


def test_extend_agrees_with_the_j_set_fold_on_small_lattices_and_posets(rng):
    for a in _small_lattices():
        _assert_extend_matches_the_references(a, rng)
    for masks in BOOLEAN_WITHOUT_AB, PERMUTED_J_SETS:
        _assert_extend_matches_the_references(_poset(masks), rng, is_lattice=False)


# 0 < a, b, c, d (1-4); x (5) covers a, b; y (6) covers a, b, c; the top
# covers x, y and d.  J is one-to-one, but a and b have the two minimal upper
# bounds x and y, which share their two lowest lower covers.
SHARED_KEY_ROWS = ([1, 2, 3, 4], [5, 6], [5, 6], [6], [7], [7], [7], [])


def test_extend_resolves_a_shared_key_by_the_whole_row():
    poset = AbstractLattice(SHARED_KEY_ROWS)
    assert poset.lower[5] == [1, 2] and poset.lower[6] == [1, 2, 3]
    assert poset._by_low_covers[1 * 8 + 2] == -1
    assert poset.extend((1, 0, 2, 3)) == (0, 2, 1, 3, 4, 5, 6, 7)
    assert poset.extend((2, 1, 0, 3)) is None
    for psi in (1, 0, 2, 3), (2, 1, 0, 3):
        assert poset.extend(psi) == _reference_extend_by_j_sets(poset, psi)
    autos = brute_force_automorphisms(poset)
    assert len(autos) == 2
    assert autos == _reference_automorphisms(poset)


def test_extend_refuses_a_point_map_that_repeats_a_point():
    shared = AbstractLattice(SHARED_KEY_ROWS)
    for a, psi in (shared, (0, 0, 2, 3)), (_diamond(3), (0, 0, 1)), (_chain(3), (0, 0)):
        assert a.extend(psi) is None
        assert _reference_extend_by_j_sets(a, psi) is None


def _assert_the_context_chain_is_the_exact_chain(ctx):
    """The search by the (J, M) context test, certified by its generators,
    finds the chain of the unpruned search, which extends each full map."""
    chain = automorphism_group(ctx)
    reference = _reference_unpruned_search(ctx)
    assert chain.base == reference.base
    assert chain.generators == reference.generators
    assert chain.order == reference.order
    return chain


@pytest.mark.parametrize("text", CRITERION_3_SPECS)
def test_the_context_chain_is_the_exact_chain_on_criterion_3_lattices(text, request):
    _assert_the_context_chain_is_the_exact_chain(_criterion_3_lattice(text, request).context)


def test_the_context_chain_is_the_exact_chain_on_small_and_random_lattices_and_posets(rng):
    # on a lattice the context test accepts exactly the point maps that
    # extend (Ganter and Wille, ch. 1); on the two posets it need not, but
    # the chains still agree
    for ctx in _small_lattices() + [_random_lattice(rng) for _ in range(200)]:
        _assert_the_context_chain_is_the_exact_chain(ctx)
        sc = ctx.standard_context()
        _assert_the_neighbour_lists_are_the_masks(sc)
        accept = partial(autgroup._keeps_rows(sc), sc.rows)
        m = len(ctx.irreducibles)
        maps = permutations(range(m)) if m <= 6 else (rng.sample(range(m), m) for _ in range(100))
        for psi in maps:
            assert accept(psi) == (ctx.extend(psi) is not None), psi
    for masks in BOOLEAN_WITHOUT_AB, PERMUTED_J_SETS:
        _assert_the_context_chain_is_the_exact_chain(_poset(masks))


def _assert_the_certificate_extends_each_generator_once(ctx, monkeypatch):
    extended = _recording_extensions(monkeypatch)
    chain = automorphism_group(ctx)
    assert extended == chain.generators


@pytest.mark.parametrize("text", CRITERION_3_SPECS)
def test_the_certificate_extends_each_generator_once_on_criterion_3_lattices(
    text, request, monkeypatch
):
    lattice = _criterion_3_lattice(text, request)
    _assert_the_certificate_extends_each_generator_once(lattice.context, monkeypatch)


def test_the_certificate_extends_each_generator_once_on_small_lattices(monkeypatch):
    for a in _small_lattices():
        _assert_the_certificate_extends_each_generator_once(a, monkeypatch)


def test_the_referees_agree_on_symmetric_random_lattices(rng):
    for _ in range(100):
        ctx = _random_symmetric_lattice(rng)
        chain = _assert_the_context_chain_is_the_exact_chain(ctx)
        _assert_extend_matches_the_references(ctx, rng, chain=chain)


# The subsets of {a, b, c, d, e} that are empty, a point, one of the pairs
# ab, bc, ad, de (the path c-b-a-d-e), one of the triples abc, abd, ade, bce,
# cde, or the whole set.  c and e have the two minimal upper bounds bce and
# cde, so it is not a lattice.  The points share one colour, and the maps of
# them that keep the triples, the meet-irreducibles, form a dihedral group of
# order 10, but only the reversal of the path also keeps the pairs.
CONTEXT_CHAIN_TOO_LARGE = (
    1, 3, 5, 9, 17, 33, 71, 141, 275, 561, 1231, 2391, 4915, 8365, 16953, 65535,
)


def test_the_certificate_refuses_a_poset_whose_context_chain_is_too_large():
    poset = _poset(CONTEXT_CHAIN_TOO_LARGE)
    assert autgroup._search(poset.standard_context()).order == 10
    assert len(_reference_automorphisms(poset)) == 2
    assert _reference_unpruned_search(poset).order == 2
    for search in automorphism_group, brute_force_automorphisms:
        with pytest.raises(LatTowerError, match="not a lattice"):
            search(poset)


def test_random_non_lattices_are_searched_exactly_or_refused(rng):
    # a refusal is sound: the (J, M) chain is larger than the group, which
    # happens only on a poset that is not a lattice
    for _ in range(150):
        try:
            poset = _poset(_random_non_lattice_masks(rng))
        except LatTowerError as error:  # J is not one-to-one
            assert "not a lattice" in str(error)
            continue
        reference = _reference_automorphisms(poset)
        try:
            found = brute_force_automorphisms(poset)
        except LatTowerError as error:
            assert "not a lattice" in str(error)
            assert not _is_lattice(poset)
            assert _reference_unpruned_search(poset).order == len(reference)
            assert autgroup._search(poset.standard_context()).order > len(reference)
            continue
        assert found == reference


@pytest.mark.parametrize("masks, found", [(BOOLEAN_WITHOUT_AB, 20), (PERMUTED_J_SETS, 0)])
def test_the_colours_refuse_every_map_only_the_context_test_accepts(masks, found):
    # on these non-lattices the context test alone accepts maps that are no
    # automorphism, but none of them keeps the colours, so none reaches it
    poset = _poset(masks)
    sc = poset.standard_context()
    accept = partial(autgroup._keeps_rows(sc), sc.rows)
    colours = _point_colours(poset)
    m = len(poset.irreducibles)
    wrong = [
        psi for psi in permutations(range(m)) if accept(psi) and poset.extend(psi) is None
    ]
    assert len(wrong) == found
    assert all([colours[k] for k in psi] != colours for psi in wrong)


def test_brute_force_output_is_sorted_with_identity_first():
    autos = brute_force_automorphisms(_diamond(3))
    assert autos[0] == tuple(range(5))
    assert autos == sorted(autos)


def _refuse(*args, **kwargs):
    raise AssertionError("a lattice was built")


def test_the_product_formula_builds_no_order_relation(monkeypatch):
    # nor any lattice at all: no enumeration, no covers, no bare lattice
    monkeypatch.setattr(lattice_core, "enumerate_lattice", _refuse)
    monkeypatch.setattr(lattice_core.Lattice, "up_covers", _refuse)
    monkeypatch.setattr(AbstractLattice, "__init__", _refuse)
    assert verify_product_formula(parse_spec("S4^2*S3^2")).match


def test_brute_force_finds_only_order_maps(lattices):
    a = lattices.get("S3^2").to_abstract()
    for phi in brute_force_automorphisms(a):
        for i in range(a.n):
            for j in range(a.n):
                assert a.down[j] >> i & 1 == a.down[phi[j]] >> phi[i] & 1


def _composition_table(autos):
    """table[i][j] = index of autos[i] composed after autos[j]."""
    index = {a: i for i, a in enumerate(autos)}
    return [[index[tuple(map(a.__getitem__, b))] for b in autos] for a in autos]


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


def test_slot_permutation_algebra(lattices):
    # slot permutations are plain image tuples, as automorphisms are
    s = (1, 0, 2)
    t = (0, 2, 1)
    assert _compose(s, t) == tuple(s[t[i]] for i in range(3))
    assert _compose(s, _inverse(s)) == (0, 1, 2)
    assert cycle_notation(s) == "(0 1)"
    assert cycle_notation((0, 1, 2)) == "()"
    labels = ("3.1", "3.2", "3.3")
    assert cycle_notation(t, labels) == "(3.2 3.3)"
    assert cycle_notation((1, 2, 0), labels) == "(3.1 3.2 3.3)"
    with pytest.raises(LatTowerError, match="not a permutation"):
        tau_on_lattice((0, 0, 1), lattices.get("S3^3"))


def test_complemented_elements_are_the_full_sub_products(lattices):
    lat = lattices.get("S3^2")
    comp = complemented_elements(lat.context)
    expected = set()
    for bits in range(4):
        positions = {s: (CP.FULL if (bits >> s) & 1 else CP.TRIV) for s in range(2)}
        expected.add(index_of_profile(lat, sub_product_element(lat.spec, positions).profile))
    assert comp == expected


def _pairwise_complemented_elements(down, up):
    """The scan over every pair that the mask scan replaced."""
    n = len(down)
    bottom_mask = next(m for i, m in enumerate(down) if m == 1 << i)
    top_mask = next(m for i, m in enumerate(up) if m == 1 << i)
    return {
        i
        for i in range(n)
        if any(down[i] & down[c] == bottom_mask and up[i] & up[c] == top_mask for c in range(n))
    }


def _reference_complemented_elements(a):
    """The mask scan that the context scan replaced: the complements of x
    are the elements above no atom under x and below no coatom over x."""
    down, up = a.down, a.up
    everything = (1 << len(down)) - 1
    bottoms = [i for i, m in enumerate(down) if m == 1 << i]
    tops = [i for i, m in enumerate(up) if m == 1 << i]
    if len(bottoms) != 1 or len(tops) != 1:
        raise LatTowerError(f"not a lattice: {len(bottoms)} minimal, {len(tops)} maximal elements")
    (bottom,), (top,) = bottoms, tops
    atoms = [i for i, m in enumerate(down) if i != bottom and m == 1 << bottom | 1 << i]
    coatoms = [i for i, m in enumerate(up) if i != top and m == 1 << top | 1 << i]
    out = set()
    for x in range(len(down)):
        excluded = 0
        for a in atoms:
            if (down[x] >> a) & 1:
                excluded |= up[a]
        for m in coatoms:
            if (up[x] >> m) & 1:
                excluded |= down[m]
        if everything & ~excluded:
            out.add(x)
    return out


@pytest.mark.parametrize("text", COMPLEMENTED_SPECS + ("S3^6",))
def test_complemented_elements_match_the_mask_scan(text, lattices):
    a = lattices.get(text).to_abstract()
    assert complemented_elements(a) == _reference_complemented_elements(a)


def test_complemented_elements_of_lemma_posets_match_the_mask_scan():
    for name, poset in lemma_lattices().items():
        assert complemented_elements(poset) == _reference_complemented_elements(poset), name


# the pairwise scan is quadratic in the lattice: it stays off the largest cases
@pytest.mark.parametrize("text", sorted(set(PRODUCT_FORMULA_CASES) - {"S3^6", "S4^3*S3^3"}))
def test_complemented_elements_match_the_pairwise_scan(text, lattices):
    lat = lattices.get(text)
    expected = _pairwise_complemented_elements(lat.down_masks, lat.up_masks)
    assert complemented_elements(lat.context) == expected


def test_complemented_elements_of_lemma_posets_match_the_pairwise_scan():
    posets = {**lemma_lattices(), "chain": _chain(4), "one": _chain(1), "M3": _diamond(3)}
    for name, poset in posets.items():
        expected = _pairwise_complemented_elements(poset.down, poset.up)
        assert complemented_elements(poset) == expected, name


@pytest.mark.parametrize(
    "down",
    [
        # the 3-antichain: three minimal and three maximal elements
        (0b001, 0b010, 0b100),
        # the 2-crown: 2, 3 below both of 0, 1
        (0b1101, 0b1110, 0b0100, 0b1000),
    ],
)
def test_complemented_elements_rejects_posets_without_bottom_and_top(down):
    # neither has one minimal element, so neither builds as a bare lattice
    with pytest.raises(LatTowerError, match="not a lattice: [23] minimal elements"):
        complemented_elements(_poset(down))


def test_complemented_elements_rejects_a_poset_without_a_top():
    # 0 < 1 and 0 < 2: a bottom, and J one-to-one, so it builds, but the
    # check for a top still has something to reject
    poset = _poset((0b001, 0b011, 0b101))
    with pytest.raises(LatTowerError, match="not a lattice: 2 maximal elements"):
        complemented_elements(poset)


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


def _reference_factor_atoms(lat):
    """The route the J-set pass replaced: the minimal nontrivial complemented
    elements, each with its slot read off its key."""
    ctx = lat.context
    comp = complemented_elements(ctx)
    bottom, under = ctx.order[0], ctx.J
    atoms = [
        i
        for i in comp
        if i != bottom
        and not any(c not in (i, bottom) and not under[c] & ~under[i] for c in comp)
    ]
    by_slot = {}
    for i in atoms:
        coupled, _ = lat.blocks[lat.block_of[i]]
        digits = _digits(lat.keys[i], lat.spec.num_slots)
        full_slots = [s for s, p in enumerate(digits) if p == CP.FULL]
        assert not coupled and len(full_slots) == 1, i
        by_slot[full_slots[0]] = i
    assert sorted(by_slot) == list(range(lat.spec.num_slots))
    return [by_slot[s] for s in range(lat.spec.num_slots)]


@pytest.mark.parametrize("text", sorted({*CRITERION_3_SPECS, *COMPLEMENTED_SPECS}))
def test_factor_atoms_match_the_complemented_elements(text, request):
    lat = _criterion_3_lattice(text, request)
    assert factor_atoms(lat) == _reference_factor_atoms(lat)


@pytest.mark.parametrize(
    "rows, atom",
    [
        # M3: no element holds every atom but one
        ([[1, 2, 3], [4], [4], [4], []], 1),
        # 0 < a, b < x < top: a and b meet at the bottom, but x lies over both
        ([[1, 2], [3], [3], [4], []], 1),
        # 0 < a, b; a < p, q; the top covers p, q and b: p and q hold a
        # alone, but nothing holding a alone lies over both
        ([[1, 2], [3, 4], [5], [5], [5], []], 1),
    ],
    ids=["no-partner", "joined-below-the-top", "no-largest"],
)
def test_factor_atoms_refuse_an_atom_under_no_complemented_element(rows, atom):
    lat = SimpleNamespace(context=AbstractLattice(rows))
    with pytest.raises(LatTowerError, match=f"no complemented factor atom over atom {atom}"):
        factor_atoms(lat)


def _reference_tau_sigma(sigma, e):
    """Relabel one element along a class-preserving slot permutation, by its
    profile: slot s moves to sigma(s) in eff and in every basis row of W, and
    the element is rebuilt and checked by ``element_from_profile``."""
    autgroup._check_class_preserving(e.spec, sigma)
    n = e.spec.num_slots
    eff = [None] * n
    for s, p in enumerate(e.profile.eff):
        eff[sigma[s]] = p
    rows = [sum(1 << sigma[s] for s in range(n) if (row >> s) & 1) for row in e.profile.signs.basis]
    return element_from_profile(Profile(e.spec, tuple(eff), span(n, rows)))


def test_tau_sigma_rejects_class_mixing():
    spec = parse_spec("S3*S4")
    top = sub_product_element(spec, {0: CP.FULL, 1: CP.FULL})
    with pytest.raises(ClassViolation):
        _reference_tau_sigma((1, 0), top)
    with pytest.raises(ClassViolation):
        tau_on_lattice((1, 0), enumerate_lattice(spec))


def test_tau_sigma_moves_labels(lattices):
    spec = parse_spec("S3^3")
    sigma = (1, 2, 0)
    e = sign_parity_element(spec, (0, 1))
    assert _reference_tau_sigma(sigma, e) == sign_parity_element(spec, (1, 2))
    s = sub_product_element(spec, {0: CP.ALT, 1: CP.TRIV, 2: CP.FULL})
    image = sub_product_element(spec, {1: CP.ALT, 2: CP.TRIV, 0: CP.FULL})
    assert _reference_tau_sigma(sigma, s) == image
    lat = lattices.get("S3^3")
    i, j = (index_of_profile(lat, e.profile) for e in (s, image))
    assert tau_on_lattice(sigma, lat)[i] == j


def test_tau_sigma_is_functorial(rng, lattices):
    lat = lattices.get("S3^3")
    elements = rng.sample(list(lat.elements), 12)
    perms = list(permutations(range(3)))
    tau = _reference_tau_sigma
    for sigma in perms:
        for rho in perms:
            for e in elements:
                assert tau(_compose(sigma, rho), e) == tau(sigma, tau(rho, e))
    for e in elements:
        assert tau((0, 1, 2), e) == e


def _random_class_permutation(spec, rng):
    sigma = list(range(spec.num_slots))
    for slots in (spec.a_slots(), spec.b_slots()):
        for s, t in zip(slots, rng.sample(slots, len(slots))):
            sigma[s] = t
    return tuple(sigma)


@pytest.mark.parametrize("text", ROUND_TRIP_SPECS)
def test_tau_on_lattice_relabels_every_element_as_the_reference(text, rng, lattices):
    lat = lattices.get(text)
    sigmas = autgroup._adjacent_transpositions(lat.spec)
    sigmas.append(_random_class_permutation(lat.spec, rng))
    for sigma in sigmas:
        phi = tau_on_lattice(sigma, lat)
        for i, e in enumerate(lat.elements):
            assert lat.elements[phi[i]] == _reference_tau_sigma(sigma, e), (sigma, i)


def test_tau_on_lattice_preserves_order(lattices):
    lat = lattices.get("S3^3")
    phi = tau_on_lattice((2, 0, 1), lat)
    for i, ei in enumerate(lat.elements):
        for j, ej in enumerate(lat.elements):
            assert leq(ei, ej) == leq(lat.elements[phi[i]], lat.elements[phi[j]])


def _reference_tau(image, lat):
    """The triple relabelling that the profile route of tau replaced, kept as
    its referee: coupled slots move to their images, H is rewritten in the
    coordinate order of the image, and each uncoupled position is carried
    along the order isomorphism between the chains of its slot and of the
    image slot."""
    spec = lat.spec
    isos = []
    for slot in spec.slots:
        src, dst = chain(slot.degree), chain(spec.slots[image[slot.index]].degree)
        assert len(src) == len(dst)
        isos.append(dict(zip(src, dst)))
    index = {
        (e.triple.coupled, e.triple.positions, e.triple.signs): i
        for i, e in enumerate(lat.elements)
    }
    out = []
    for e in lat.elements:
        t = e.triple
        coupled = tuple(sorted(image[s] for s in t.coupled))
        new_bit = [1 << coupled.index(image[s]) for s in t.coupled]
        vectors = [
            sum(b for j, b in enumerate(new_bit) if (row >> j) & 1) for row in t.signs.basis
        ]
        positions = tuple(sorted((image[s], isos[s][p]) for s, p in t.positions))
        out.append(index[coupled, positions, span(len(coupled), vectors)])
    return tuple(out)


@pytest.mark.parametrize("text", ["S3^4", "S4^2*S3^2", "S4^4", "S3^5"])
def test_tau_matches_the_triple_relabelling_on_every_class_permutation(text, lattices):
    lat = lattices.get(text)
    sigmas = list(autgroup._class_permutations(lat.spec))
    assert len(sigmas) == {"S3^4": 24, "S4^2*S3^2": 4, "S4^4": 24, "S3^5": 120}[text]
    for sigma in sigmas:
        assert tau_on_lattice(sigma, lat) == _reference_tau(sigma, lat)


@pytest.mark.parametrize("text", ["S4^3*S3^2", "S3^6"])
def test_tau_matches_the_triple_relabelling_on_the_adjacent_transpositions(text, lattices):
    lat = lattices.get(text)
    for sigma in autgroup._adjacent_transpositions(lat.spec):
        assert tau_on_lattice(sigma, lat) == _reference_tau(sigma, lat)


def test_induced_permutation_round_trip(lattices):
    lat = lattices.get("S3^2")
    for sigma in permutations(range(2)):
        assert induced_permutation(tau_on_lattice(sigma, lat), lat) == sigma


@pytest.mark.parametrize(
    "text, count",
    [("S3^2", 2), ("S3*S4", 1), ("S4^2", 2)],
)
def test_product_formula_small(text, count):
    report = verify_product_formula(parse_spec(text))
    assert report.match
    assert report.predicted_order == count
    assert report.brute_force_order == count
    assert report.constructive_order == count


def test_product_formula_generators():
    report = verify_product_formula(parse_spec("S3^2"))
    assert report.generators == ("(3.1 3.2)",)
    report = verify_product_formula(parse_spec("S3*S4"))
    assert report.generators == ()


def test_product_formula_json():
    report = verify_product_formula(parse_spec("S3^2"))
    d = report.to_json_dict()
    assert d["spec"] == "S3^2"
    assert d["match"] is True
    assert d["predicted_order"] == 2


def test_product_formula_scans_factor_atoms_once(monkeypatch):
    calls = []
    real = autgroup.factor_atom_points

    def counting_factor_atoms(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(autgroup, "factor_atom_points", counting_factor_atoms)
    report = verify_product_formula(parse_spec("S3^3"))
    assert report.match and report.constructive_order == 6
    assert len(calls) == 1


def test_the_closed_form_context_stops_at_its_slot_bound(monkeypatch):
    # twelve slots are laid out, and thirteen are refused before a single
    # point is built
    class LaidOut(Exception):
        pass

    def must_not_layout(spec):
        raise LaidOut

    monkeypatch.setattr(context, "_layout", must_not_layout)
    for text in ("S3^12", "S4^12", "S4^6*S3^6"):
        with pytest.raises(LaidOut):
            closed_form_context(parse_spec(text))
    message = "^13 slots exceeds the closed-form context bound 12: the automorphism search on its "
    for text, points in ("S3^13", 8204), ("S4^6*S3^7", 8210):
        with pytest.raises(TooLarge, match=f"{message}{points} points would take minutes$"):
            verify_product_formula(parse_spec(text))
    with pytest.raises(TooLarge, match="^15 slots exceeds the closed-form context bound 12"):
        verify_product_formula(parse_spec("S3^15"))


def _count_contexts(monkeypatch) -> list[int]:
    """The sizes of the join-irreducible contexts built from here on."""
    built = []
    real = AbstractLattice.__init__

    def counting(ctx, upper):
        upper = list(upper)
        built.append(len(upper))
        real(ctx, upper)

    monkeypatch.setattr(AbstractLattice, "__init__", counting)
    return built


def test_product_formula_builds_one_context_per_lattice(monkeypatch):
    # one closed-form context of 2^T + T + a4 - 1 points per call, and no
    # bare lattice
    built = _count_contexts(monkeypatch)
    points, real = [], autgroup.closed_form_context

    def counting(spec):
        ctx = real(spec)
        points.append(len(ctx.under))
        return ctx

    monkeypatch.setattr(autgroup, "closed_form_context", counting)
    for text in ("S3^3", "S4^2*S3", "S4*S3^2", "S4*S3^2"):
        assert verify_product_formula(parse_spec(text)).match
    assert points == [10, 12, 11, 11]
    assert built == []


@pytest.mark.parametrize("abstract", [False, True])
def test_the_search_and_the_checks_share_one_context(abstract, monkeypatch):
    lat = enumerate_lattice(parse_spec("S4*S3^2"))
    built = _count_contexts(monkeypatch)
    if abstract:
        lat.to_abstract()
    assert built == ([len(lat)] if abstract else [])
    assert automorphism_group(lat.context).order == 2
    assert len(brute_force_automorphisms(lat.context)) == 2
    assert len(complemented_elements(lat.context)) == 8
    assert len(factor_atoms(lat)) == 3
    assert built == [len(lat)]
    assert lat.context is lat.to_abstract()


def _identity_tau(real, spec, sigma):
    return real(spec, tuple(range(spec.num_slots)))


def _swap_the_last_two_points(real, spec, sigma):
    # P_(0, 1, 1) and P_(1, 1, 1) of S3^3 trade images: still a permutation
    # of the points that sends the factor atoms as sigma does, but it breaks
    # (J, M)
    mapping = list(real(spec, sigma))
    mapping[-2], mapping[-1] = mapping[-1], mapping[-2]
    return tuple(mapping)


def _tau_of_the_mirror_image(real, spec, sigma):
    # the same generators in another order: only the round trip can tell
    rho = tuple(reversed(range(len(sigma))))
    return real(spec, _compose(_compose(rho, sigma), rho))


@pytest.mark.parametrize(
    "wrong, constructive",
    [(_identity_tau, 1), (_swap_the_last_two_points, 1), (_tau_of_the_mirror_image, 6)],
    ids=["identity", "non-member", "another-transposition"],
)
def test_product_formula_fails_on_a_wrong_tau(wrong, constructive, monkeypatch):
    real = autgroup.slot_action
    monkeypatch.setattr(autgroup, "slot_action", lambda spec, sigma: wrong(real, spec, sigma))
    extended = _recording_extensions(monkeypatch)
    report = verify_product_formula(parse_spec("S3^3"))
    assert not report.match
    # the searched chain is the context's automorphism group, with nothing
    # extended, so the order reported is LatAut's on a mismatch too; the
    # constructive order is that of the group the sifted taus generate
    assert extended == []
    assert (report.brute_force_order, report.constructive_order) == (6, constructive)


def test_the_wrong_taus_fail_each_check_they_should(monkeypatch):
    spec = parse_spec("S3^3")
    ctx = autgroup.closed_form_context(spec)
    chain, keeps = autgroup._search(ctx), partial(autgroup._keeps_rows(ctx), ctx.rows)
    sigma = (1, 0, 2)
    real = autgroup.slot_action(spec, sigma)
    swapped = _swap_the_last_two_points(autgroup.slot_action, spec, sigma)
    assert keeps(real) and real in chain
    assert not keeps(swapped) and swapped not in chain
    mirrored = _tau_of_the_mirror_image(autgroup.slot_action, spec, sigma)
    assert keeps(mirrored) and mirrored in chain and mirrored != real


def test_product_formula_fails_on_too_few_generators(monkeypatch):
    # every tau checks out, but (3.1 3.2) alone generates a group of order 2
    adjacent = autgroup._adjacent_transpositions
    monkeypatch.setattr(autgroup, "_adjacent_transpositions", lambda spec: adjacent(spec)[:1])
    report = verify_product_formula(parse_spec("S3^3"))
    assert (report.brute_force_order, report.constructive_order) == (6, 2)
    assert not report.match


def _assert_the_chain_and_the_taus_keep_the_rows(spec):
    """The row test ``verify_product_formula`` leaves out, as a referee: every
    generator of the searched chain keeps (J, M), so every tau that sifts
    does, and so does each tau of a matching check."""
    ctx = closed_form_context(spec)
    keeps = partial(autgroup._keeps_rows(ctx), ctx.rows)
    taus = [autgroup.slot_action(spec, s) for s in autgroup._adjacent_transpositions(spec)]
    assert all(map(keeps, autgroup._search(ctx).generators))
    assert all(map(keeps, taus))


def _assert_the_neighbour_lists_are_the_masks(ctx):
    """``below`` and ``above`` list the bits of ``under`` and ``over``, the
    point itself left out, and ``over`` is ``under`` transposed."""
    under, m = ctx.under, len(ctx.under)
    over = [sum(1 << j for j in range(m) if under[j] >> k & 1) for k in range(m)]
    assert list(ctx.over) == over
    assert list(ctx.below) == [_bits(mask ^ 1 << k) for k, mask in enumerate(under)]
    assert list(ctx.above) == [_bits(mask ^ 1 << k) for k, mask in enumerate(over)]


@pytest.mark.parametrize("text", [*_shape_specs(9), "S3^10"])
def test_the_searched_generators_and_the_taus_keep_the_rows(text):
    spec = parse_spec(text)
    _assert_the_chain_and_the_taus_keep_the_rows(spec)
    _assert_the_neighbour_lists_are_the_masks(closed_form_context(spec))


def test_a_search_that_accepts_a_map_breaking_a_row_is_caught(monkeypatch):
    # a mutant search adds a generator that swaps the last two points, which
    # breaks (J, M): the order check and the referee both see it
    real = autgroup._search

    def accepting_a_bad_map(ctx):
        chain = real(ctx)
        bad = list(range(chain.n))
        bad[-2], bad[-1] = bad[-1], bad[-2]
        return schreier_sims([*chain.generators, tuple(bad)], chain.n)

    monkeypatch.setattr(autgroup, "_search", accepting_a_bad_map)
    spec = parse_spec("S3^3")
    report = verify_product_formula(spec)
    assert (report.brute_force_order, report.predicted_order) == (144, 6)
    assert not report.match
    with pytest.raises(AssertionError):
        _assert_the_chain_and_the_taus_keep_the_rows(spec)


def _chain_digest(chain):
    data = repr((list(chain.base), [tuple(g) for g in chain.generators], chain.order))
    return sha256(data.encode()).hexdigest()


# The sha256 of (base, generators, order) of searched chains, so that no change
# to the seeds, the masks or the rows can move a chain unseen
SEARCHED_CHAIN_DIGESTS = {
    "S3^6": "dd442c007cb415e8ba93394198940859e415edf818ba06960ea69d04dbfa6b49",
    "S4^3*S3^4": "335741af91ccab4be4e1f29f6c6c89eb2329237613d4a7035c772af5e7326363",
    "S3^10": "0ae4caae815e4d15208bccb34038b3aed0e50784d7e53deae5b1e5a6f325c1a2",
    "S4^4": "826fb9622a7dce6e2255ef0eb9897b00a4c314e37fe2820387eec24977132053",
    "S4^2*S3^2": "cbbebffcfaeba5d17acfe4e3309fad411d80ed78bfd23852072010fd0d59bd71",
}
LATTICE_CHAIN_DIGESTS = {
    "C2": "2962e5b033d8ff92d30989d2df74b0b8d0c7704d7db9eddd322a28da79cf2aa8",
    "C2^2": "ed9a352e734135efbd797b4421f6e09d44fbdf4686b18bafc34bb31c071f543e",
    "C2xS3": "2c6e917700e0bfa3c76cfced6a2447d77f3b6952b2b4cb28cd36dc07ee2d1265",
    "C2xS4": "4af907e95361de8767d3392d2fc58a38fd41617cdccb85e4d62f651d1047b4a6",
    "C2xS5": "2c6e917700e0bfa3c76cfced6a2447d77f3b6952b2b4cb28cd36dc07ee2d1265",
    "S3^4": "6b8cf90eb328e0b484244f73148585c433abcfed636c55211236bb457ee6e293",
}


@pytest.mark.parametrize("text", sorted(SEARCHED_CHAIN_DIGESTS))
def test_the_closed_form_chains_are_pinned(text):
    chain = autgroup._search(closed_form_context(parse_spec(text)))
    _assert_fixing_is_the_prefix_scan(chain)
    assert _chain_digest(chain) == SEARCHED_CHAIN_DIGESTS[text]


def test_the_lemma_and_enumerated_chains_are_pinned(lattices):
    posets = {**lemma_lattices(), "S3^4": lattices.get("S3^4").context}
    for a in posets.values():
        _assert_the_neighbour_lists_are_the_masks(a.standard_context())
    chains = {name: automorphism_group(a) for name, a in posets.items()}
    for chain in chains.values():
        _assert_fixing_is_the_prefix_scan(chain)
    assert {name: _chain_digest(chain) for name, chain in chains.items()} == LATTICE_CHAIN_DIGESTS


def _reference_product_formula(lat):
    """The product-formula check as it ran on the enumerated lattice, before
    the closed-form context: the search on the context of the lattice's
    covers, the maps tau over every element, each checked by one pass over
    the covers, and the factor atoms found by a pass over the J-sets.  On a
    mismatch the chain is certified by extending each generator."""
    spec, ctx = lat.spec, lat.context
    chain = autgroup._search(ctx.standard_context())
    predicted = factorial(spec.a4) * factorial(spec.b)
    atoms = factor_atoms(lat)
    sigmas = autgroup._adjacent_transpositions(spec)
    taus = [autgroup.tau_on_lattice(sigma, lat) for sigma in sigmas]
    round_trip_ok = all(
        autgroup._induced_by_atoms(phi, atoms, spec) == sigma for phi, sigma in zip(taus, sigmas)
    )
    restricted = [restrict(ctx, phi) for phi in taus]
    constructive = schreier_sims((psi for psi in restricted if psi is not None), chain.n).order
    match = (
        constructive == predicted == chain.order
        and round_trip_ok
        and None not in restricted
        and all(psi in chain for psi in restricted)
        and all(_reference_keeps_covers(ctx, phi) for phi in taus)
    )
    if not match:
        autgroup._certified(ctx, chain)
    labels = tuple(s.label for s in spec.slots)
    return ProductFormulaReport(
        spec=format_spec(spec),
        a4=spec.a4,
        b=spec.b,
        predicted_order=predicted,
        brute_force_order=chain.order,
        constructive_order=constructive,
        match=match,
        generators=tuple(cycle_notation(sigma, labels) for sigma in sigmas),
    )


@pytest.mark.parametrize("text", [*SHAPE_SPECS, "S3^7"])
def test_the_whole_lattice_check_agrees_with_the_closed_form(text, request):
    lat = _criterion_3_lattice(text, request)
    report = verify_product_formula(lat.spec)
    assert report.match
    assert _reference_product_formula(lat) == report


def test_product_formula_fails_on_a_tau_wrong_off_the_base(lattices, monkeypatch):
    # the whole-lattice check's own referee: every tau conjugated by a swap
    # pi of two elements that are neither join-irreducibles nor factor
    # atoms: the maps still generate a group of
    # order 6 and agree with the real tau on the factor atoms and on every
    # join-irreducible, so the order checks, the round trip and the sift of
    # the restrictions pass, but they are not automorphisms, and only the
    # check that each is a bijection sending every element's lower covers
    # onto those of its image rejects them
    lat = lattices.get("S3^3")
    ctx = lat.context
    chain = automorphism_group(ctx)
    atoms = set(factor_atoms(lat))
    real = autgroup.tau_on_lattice
    first = real((1, 0, 2), lat)
    x, y = [i for i in range(len(lat)) if i not in ctx.point and i not in atoms][:2]
    if first[x] == x:
        x, y = y, x
    pi = list(range(len(lat)))
    pi[x], pi[y] = y, x

    def conjugated(sigma, lat):
        mapping = real(sigma, lat)
        return tuple(pi[mapping[pi[i]]] for i in range(len(lat)))

    assert _reference_product_formula(lat).match
    monkeypatch.setattr(autgroup, "tau_on_lattice", conjugated)
    psi = restrict(ctx, conjugated((1, 0, 2), lat))
    assert psi in chain
    assert ctx.extend(psi) != conjugated((1, 0, 2), lat)
    assert not _reference_keeps_covers(ctx, conjugated((1, 0, 2), lat))
    report = _reference_product_formula(lat)
    assert (report.brute_force_order, report.constructive_order) == (6, 6)
    assert not report.match


def _cover_pass_and_extension(ctx, phi):
    """The product formula's check of a map of the elements, and its referee:
    the map equals the extension of its restriction to the points."""
    psi = restrict(ctx, phi)
    return (
        psi is not None and _reference_keeps_covers(ctx, phi),
        psi is not None and ctx.extend(psi) == phi,
    )


@pytest.mark.parametrize("text", sorted(PRODUCT_FORMULA_CASES) + ["S4^4*S3^2", "S3^7"])
def test_the_cover_pass_agrees_with_the_extension_on_every_tau(text, request):
    lat = _criterion_3_lattice(text, request)
    ctx = lat.context
    for sigma in autgroup._adjacent_transpositions(lat.spec):
        assert _cover_pass_and_extension(ctx, tau_on_lattice(sigma, lat)) == (True, True)


@pytest.mark.parametrize("text", ["S3^3", "S4^2*S3^2", "S4^3*S3^3"])
def test_the_cover_pass_and_the_extension_reject_the_same_wrong_maps(text, lattices):
    lat = lattices.get(text)
    ctx = lat.context
    bottom, top = _bottom_index(lat), _top_index(lat)
    for sigma in autgroup._adjacent_transpositions(lat.spec):
        tau = tau_on_lattice(sigma, lat)
        swapped = list(tau)
        swapped[bottom], swapped[top] = tau[top], tau[bottom]
        # two elements off the points, each moved by tau, trade images
        off_base = list(tau)
        x, y = [i for i in range(len(lat)) if i not in ctx.point and tau[i] != i][:2]
        off_base[x], off_base[y] = tau[y], tau[x]
        repeated = list(tau)
        repeated[top] = tau[bottom]
        # one element too many, which a pass over the n elements' covers
        # alone would not see
        longer = [*tau, tau[0]]
        for wrong in (swapped, off_base, repeated, longer):
            assert restrict(ctx, tuple(wrong)) == restrict(ctx, tau)
            assert _cover_pass_and_extension(ctx, tuple(wrong)) == (False, False)


def test_a_matching_product_formula_extends_nothing(monkeypatch):
    calls = _recording_extensions(monkeypatch)
    built = _count_contexts(monkeypatch)
    assert verify_product_formula(parse_spec("S3^3")).match
    assert calls == [] and built == []
