"""Lattice automorphisms of N(G): constructive ones and a search for the group.

A permutation of the factor slots that keeps degree-4 slots among degree-4
slots induces a lattice automorphism tau by permuting the coordinates of
profiles; the induced maps realise all of LatAut(G), which is the product of
the symmetric groups on the class-A and class-B slots.  The search below
knows none of that: it works on the bare order relation, backtracks over the
join-irreducible elements, extends each map to the rest by joins, and keeps
only enough automorphisms to generate the group, as a stabiliser chain whose
orbit lengths give its order.  The product formula is then checked on groups,
not lists: the maps tau of the adjacent slot transpositions must generate a
group of order a4! * b! (by Schreier-Sims) and each must sift through the
searched chain, so agreement between the two routes is genuine evidence.

The bridge between abstract automorphisms and slot permutations is the set
of complemented elements.  These are exactly the sub-products that are full
or trivial in every slot; the minimal nontrivial ones ("factor atoms") are
the individual factors, and any automorphism permutes them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import permutations
from math import factorial
from typing import Callable

from .errors import ClassViolation, LatTowerError, TooLarge
from .gf2 import Subspace, _reduce
from .group_spec import ChainPosition, TowerGroupSpec, format_spec
from .lattice_core import (
    DEFAULT_MAX_SLOTS,
    AbstractLattice,
    Lattice,
    LatticeElement,
    Profile,
    _eff_packer,
    census_of,
    element_from_profile,
    enumerate_lattice,
)
from .stabiliser import Perm, StabiliserChain, _inverse, schreier_sims

__all__ = [
    "DEFAULT_MAX_LATTICE",
    "cycle_notation",
    "complemented_elements",
    "factor_atoms",
    "tau_sigma",
    "tau_on_lattice",
    "automorphism_group",
    "brute_force_automorphisms",
    "searchable_lattice",
    "induced_permutation",
    "ProductFormulaReport",
    "verify_product_formula",
]

# Admits S3^6 (6,482 elements) and S4^3*S3^3 (9,820): `aut` took 1.8-2.2 s and
# 2.4-3.0 s (47 and 67-68 MB max RSS) on 2 cores with Python 3.11, against
# 2.7-3.2 s and 4.1-4.9 s (48 and 71-72 MB) with a bit-by-bit transposition of
# the down sets.  Refuses S4^4*S3^2 (11,384) and everything larger.
DEFAULT_MAX_LATTICE = 10_000


def cycle_notation(perm: Perm, labels: tuple[str, ...] | None = None) -> str:
    """A slot permutation in cycle notation, fixed slots left out.

    Slot permutations, like automorphisms, are ``stabiliser.Perm`` tuples:
    perm[s] is the image of slot s.
    """
    name = (lambda s: labels[s]) if labels else str
    seen = set()
    cycles = []
    for s in range(len(perm)):
        if s in seen or perm[s] == s:
            seen.add(s)
            continue
        cyc = [s]
        seen.add(s)
        t = perm[s]
        while t != s:
            cyc.append(t)
            seen.add(t)
            t = perm[t]
        cycles.append("(" + " ".join(name(x) for x in cyc) + ")")
    return "".join(cycles) if cycles else "()"


def complemented_elements(lat: Lattice | AbstractLattice) -> set[int]:
    """Indices of all N with a complement: meet at bottom, join at top.

    In a finite lattice x ^ c is the bottom exactly when no atom lies under
    both, and x v c is the top exactly when no coatom lies over both.  So the
    complements of x are the elements above no atom under x and below no
    coatom over x, two ORs of masks instead of a scan over every c.  Raises
    LatTowerError unless exactly one element is minimal and one maximal.
    """
    order = lat.to_abstract() if isinstance(lat, Lattice) else lat
    down, up = order.down, order.up
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


def factor_atoms(lat: Lattice) -> list[int]:
    """Minimal nontrivial complemented elements, one per slot, in slot order.

    Each is the sub-product that is FULL in a single slot, so the list index
    doubles as the slot index.
    """
    comp = complemented_elements(lat)
    bottom = lat.bottom_index
    down = lat.down_masks
    atoms = []
    for i in comp:
        if i == bottom:
            continue
        strictly_between = any(
            c != i and c != bottom and (down[i] >> c) & 1 for c in comp
        )
        if not strictly_between:
            atoms.append(i)
    by_slot: dict[int, int] = {}
    for i in atoms:
        t = lat.elements[i].triple
        full_slots = [s for s, p in t.positions if p is ChainPosition.FULL]
        if t.coupled or len(full_slots) != 1:
            raise LatTowerError(f"factor atom {i} is not a single-slot sub-product")
        by_slot[full_slots[0]] = i
    if sorted(by_slot) != list(range(lat.spec.num_slots)):
        raise LatTowerError("factor atoms do not cover the slots")
    return [by_slot[s] for s in range(lat.spec.num_slots)]


def _check_class_preserving(spec: TowerGroupSpec, sigma: Perm) -> None:
    if sorted(sigma) != list(range(len(sigma))):
        raise LatTowerError(f"not a permutation: {sigma}")
    if len(sigma) != spec.num_slots:
        raise LatTowerError(f"permutation of {len(sigma)} slots on a {spec.num_slots}-slot group")
    for s, t in enumerate(sigma):
        if spec.slots[s].slot_class != spec.slots[t].slot_class:
            raise ClassViolation(
                f"slot {s} (degree {spec.slots[s].degree}) maps to slot {t} "
                f"(degree {spec.slots[t].degree})"
            )


def _profile_relabelling(
    spec: TowerGroupSpec, sigma: Perm
) -> Callable[[Profile], tuple[int, tuple[int, ...]]]:
    """The relabelling of profiles along sigma, a permutation of coordinates.

    Slot s moves to sigma(s): eff'[sigma(s)] = eff[s], and bit s of every
    sign pattern moves to bit sigma(s), after which the basis is reduced
    again.  A position keeps its name because sigma preserves the slot
    class and all class-B chains are TRIV < ALT < FULL.  The result is the
    image's key in ``Lattice._profile_index``, eff' packed with the reduced
    basis, built without a Profile or a validated subspace.
    """
    _check_class_preserving(spec, sigma)
    pack = _eff_packer(sigma)
    # moved[v] is the sign pattern v with bit s carried to bit sigma(s)
    moved = [0] * (1 << spec.num_slots)
    for v in range(1, len(moved)):
        low = v & -v
        moved[v] = moved[v ^ low] | 1 << sigma[low.bit_length() - 1]

    def relabel(p: Profile) -> tuple[int, tuple[int, ...]]:
        return pack(p.eff), _reduce(map(moved.__getitem__, p.signs.basis))

    return relabel


def tau_sigma(sigma: Perm, e: LatticeElement) -> LatticeElement:
    """Relabel a normal subgroup along a class-preserving slot permutation."""
    _, basis = _profile_relabelling(e.spec, sigma)(e.profile)
    eff = tuple(map(e.profile.eff.__getitem__, _inverse(sigma)))
    return element_from_profile(Profile(e.spec, eff, Subspace(e.spec.num_slots, basis)))


def tau_on_lattice(sigma: Perm, lat: Lattice) -> Perm:
    """The induced permutation of element indices."""
    relabel = _profile_relabelling(lat.spec, sigma)
    index = lat._profile_index
    return tuple(index[relabel(e.profile)] for e in lat.elements)


def _refined_classes(a: AbstractLattice) -> list[int]:
    """Order-invariant colouring, iterated to a fixed point.

    Starts from height, depth and degree data, then folds in the colour
    multisets of covers above and below.  Automorphic elements always share
    a colour, so colours partition the search space soundly.
    """
    sig: list = [
        (
            a.heights[i],
            a.depths[i],
            a.down[i].bit_count(),
            a.up[i].bit_count(),
            len(a.down_covers[i]),
            len(a.up_covers[i]),
        )
        for i in range(a.n)
    ]
    ids = _canonical_ids(sig)
    while True:
        refined = [
            (
                ids[i],
                tuple(sorted(ids[j] for j in a.down_covers[i])),
                tuple(sorted(ids[j] for j in a.up_covers[i])),
            )
            for i in range(a.n)
        ]
        new_ids = _canonical_ids(refined)
        if len(set(new_ids)) == len(set(ids)):
            return new_ids
        ids = new_ids


def _canonical_ids(keys: list) -> list[int]:
    order = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def _check_search_size(n: int, max_size: int) -> None:
    if n > max_size:
        raise TooLarge(f"{n} elements exceeds the search bound {max_size}")


def searchable_lattice(
    spec: TowerGroupSpec, max_slots: int = DEFAULT_MAX_SLOTS, max_size: int = DEFAULT_MAX_LATTICE
) -> Lattice:
    """N(G) enumerated, once its closed-form census fits the search bound.

    A lattice the search would refuse raises the search's own TooLarge
    before a single element is built.  The same bound guards ``hasse`` and
    ``enumerate --format json``, which build no order relation but print
    every element and every cover.
    """
    _check_search_size(census_of(spec, max_slots).total, max_size)
    return enumerate_lattice(spec, max_slots)


def automorphism_group(
    lattice: "Lattice | AbstractLattice", max_size: int = DEFAULT_MAX_LATTICE
) -> StabiliserChain:
    """LatAut of a bare lattice as a stabiliser chain, by an orbit-pruned search.

    The search never looks at triples, profiles or subgroup sets.  Its base
    is the join-irreducibles, the elements with exactly one lower cover:
    every element of a finite lattice is a join of those, so an automorphism
    is fixed by what it does on them.  They are ordered by the size of their
    class under the invariant colouring, which also gives each one its
    candidate images.

    Levels are completed from the deepest to the shallowest, as in McKay and
    Piperno, "Practical graph isomorphism II" (J. Symbolic Comput. 60, 2014,
    secs. 3-4).  At level t, every candidate y of b_t that is not yet in the
    orbit of b_t under the generators found so far gets one backtracking
    run: b_0, ..., b_(t-1) stay fixed, b_t goes to y, the later base points
    range over their candidates, each placement checked against all earlier
    ones in both directions, and each full assignment is extended by joins
    (see ``_extension_by_joins``).  The first automorphism found becomes a
    generator, which puts y and its whole orbit out of reach of further
    runs; a run that finds none shows y outside the orbit.  So level t ends
    with the full orbit of b_t under the stabiliser of the earlier base
    points, and the order is the product of the orbit lengths.  Raises
    LatTowerError when the input is not a lattice.
    """
    n = len(lattice)
    _check_search_size(n, max_size)
    a = lattice.to_abstract() if isinstance(lattice, Lattice) else lattice
    if n == 0:
        return StabiliserChain(0)
    colours = _refined_classes(a)
    buckets: dict[int, list[int]] = {}
    for i, c in enumerate(colours):
        buckets.setdefault(c, []).append(i)
    candidates = [buckets[colours[i]] for i in range(n)]
    # the colouring separates elements by their number of lower covers, so
    # every candidate of a join-irreducible is one
    irreducibles = [i for i in range(n) if len(a.down_covers[i]) == 1]
    base = sorted(irreducibles, key=lambda i: (len(candidates[i]), colours[i], i))
    extend = _extension_by_joins(a)
    down = a.down
    m = len(base)

    # extending the identity meets every join the runs below rely on, and
    # raises where one is missing even when no run is needed
    identity_on_base = [-1] * n
    for x in base:
        identity_on_base[x] = x
    extend(identity_on_base)

    def first_automorphism(t: int, y: int) -> tuple[int, ...] | None:
        """An automorphism fixing base[:t] and sending base[t] to y, or None."""
        mapping = [-1] * n
        used = [False] * n
        for x in base[:t]:
            mapping[x] = x
            used[x] = True
        next_choice = [0] * (m + 1)
        s = t
        while s >= t:
            if s == m:
                image = extend(mapping)
                if image is not None:
                    return image
            else:
                x = base[s]
                cand = (y,) if s == t else candidates[x]
                advanced = False
                while next_choice[s] < len(cand):
                    z = cand[next_choice[s]]
                    next_choice[s] += 1
                    if used[z]:
                        continue
                    ok = True
                    for x2 in base[:s]:
                        z2 = mapping[x2]
                        if ((down[x2] >> x) & 1) != ((down[z2] >> z) & 1) or (
                            (down[x] >> x2) & 1
                        ) != ((down[z] >> z2) & 1):
                            ok = False
                            break
                    if ok:
                        mapping[x] = z
                        used[z] = True
                        s += 1
                        next_choice[s] = 0
                        advanced = True
                        break
                if advanced:
                    continue
            s -= 1
            if s >= t:
                x = base[s]
                used[mapping[x]] = False
                mapping[x] = -1
        return None

    chain = StabiliserChain(n, base)
    for t in reversed(range(m)):
        orbit = chain.orbit(t)
        for y in candidates[base[t]]:
            if y not in orbit:
                image = first_automorphism(t, y)
                if image is not None:
                    chain.generators.append(image)
                    orbit = chain.orbit(t)
    return chain


def brute_force_automorphisms(
    lattice: "Lattice | AbstractLattice", max_size: int = DEFAULT_MAX_LATTICE
) -> list[Perm]:
    """Every lattice automorphism, listed from the chain of ``automorphism_group``.

    Output is sorted by mapping, so the identity comes first.
    """
    chain = automorphism_group(lattice, max_size)
    return sorted(chain.elements())


def _extension_by_joins(a: AbstractLattice) -> Callable[[list[int]], tuple[int, ...] | None]:
    """Extend a map of the join-irreducibles to every element, or reject it.

    The other elements are visited in order of increasing down set, so their
    lower covers come first.  The bottom maps to the bottom, and an element
    with lower covers p != q maps to the join of the images of p and q: the
    element whose up set is the intersection of theirs.  The extension is
    kept only if it is a bijection that sends every cover to a cover; since
    both ends have the same number of covers, it is then an automorphism of
    the Hasse diagram and so of the order.  LatTowerError is raised when the
    input has other than one minimal element or a needed join is missing,
    since the search would then silently lose automorphisms.
    """
    n = a.n
    lower, up = a.down_covers, a.up
    bottoms = [i for i in range(n) if not lower[i]]
    if len(bottoms) != 1:
        raise LatTowerError(f"not a lattice: {len(bottoms)} minimal elements")
    bottom = bottoms[0]
    by_up = {mask: i for i, mask in enumerate(up)}
    rest = sorted(
        (i for i in range(n) if len(lower[i]) != 1), key=lambda i: a.down[i].bit_count()
    )
    is_cover = set(a.covers)
    low = [i for i, _ in a.covers]
    high = [j for _, j in a.covers]

    def extend(mapping: list[int]) -> tuple[int, ...] | None:
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
        moved = zip(map(image.__getitem__, low), map(image.__getitem__, high))
        return tuple(image) if is_cover.issuperset(moved) else None

    return extend


def induced_permutation(phi: Perm, lat: Lattice) -> Perm:
    """Read the slot permutation off an automorphism via the factor atoms."""
    return _induced_by_atoms(phi, factor_atoms(lat), lat.spec)


def _induced_by_atoms(phi: Perm, atoms: list[int], spec: TowerGroupSpec) -> Perm:
    slot_of_atom = {atom: s for s, atom in enumerate(atoms)}
    mapping = [0] * spec.num_slots
    for s, atom in enumerate(atoms):
        image = phi[atom]
        if image not in slot_of_atom:
            raise ClassViolation(f"automorphism sends factor atom {atom} to non-atom {image}")
        mapping[s] = slot_of_atom[image]
    sigma = tuple(mapping)
    _check_class_preserving(spec, sigma)
    return sigma


@dataclass(frozen=True)
class ProductFormulaReport:
    """Outcome of checking LatAut(G) against the slot-permutation model."""

    spec: str
    a4: int
    b: int
    predicted_order: int
    brute_force_order: int
    constructive_order: int
    match: bool
    generators: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {**asdict(self), "generators": list(self.generators)}


def _class_permutations(spec: TowerGroupSpec):
    """Every class-preserving slot permutation, a4! * b! of them.

    The product-formula check needs only the adjacent transpositions; the
    benchmark's per-layer mirror (``perfbench/layers.py``) still times tau
    over this whole list.
    """
    a_slots = spec.a_slots()
    b_slots = spec.b_slots()
    n = spec.num_slots
    for pa in permutations(a_slots):
        for pb in permutations(b_slots):
            mapping = [0] * n
            for src, dst in zip(a_slots, pa):
                mapping[src] = dst
            for src, dst in zip(b_slots, pb):
                mapping[src] = dst
            yield tuple(mapping)


def _adjacent_transpositions(spec: TowerGroupSpec) -> list[Perm]:
    gens = []
    for slots in (spec.a_slots(), spec.b_slots()):
        for s, t in zip(slots, slots[1:]):
            mapping = list(range(spec.num_slots))
            mapping[s], mapping[t] = t, s
            gens.append(tuple(mapping))
    return gens


def verify_product_formula(
    spec: TowerGroupSpec,
    max_slots: int = DEFAULT_MAX_SLOTS,
    max_size: int = DEFAULT_MAX_LATTICE,
    lattice: Lattice | None = None,
) -> ProductFormulaReport:
    """Check that LatAut(N(G)) is exactly the class-preserving slot group.

    Three independent orders must agree: a4! * b!, the order of the searched
    chain of ``automorphism_group``, and the order Schreier-Sims finds for
    the group generated by the maps tau of the adjacent transpositions of
    class-A and of class-B slots (which generate S_a4 x S_B).  Additionally
    every such tau must sift through the searched chain and induce its own
    slot permutation back.
    """
    lat = lattice if lattice is not None else searchable_lattice(spec, max_slots, max_size)
    chain = automorphism_group(lat, max_size)
    predicted = factorial(spec.a4) * factorial(spec.b)

    atoms = factor_atoms(lat)
    sigmas = _adjacent_transpositions(spec)
    taus = [tau_on_lattice(sigma, lat) for sigma in sigmas]
    round_trip_ok = all(
        _induced_by_atoms(phi, atoms, spec) == sigma for phi, sigma in zip(taus, sigmas)
    )
    constructive = schreier_sims(taus, len(lat)).order

    match = (
        chain.order == predicted
        and constructive == predicted
        and all(phi in chain for phi in taus)
        and round_trip_ok
    )
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
