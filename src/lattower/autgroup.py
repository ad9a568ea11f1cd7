"""Lattice automorphisms of N(G): constructive ones and a search for the group.

A permutation of the factor slots that keeps degree-4 slots among degree-4
slots induces a lattice automorphism tau by permuting the coordinates of
profiles; the induced maps realise all of LatAut(G), which is the product of
the symmetric groups on the class-A and class-B slots.  The search below
knows none of that: it reads the bare cover relation, backtracks over the
join-irreducible elements, and keeps only enough maps to generate the group,
as a stabiliser chain on the join-irreducibles whose orbit lengths give its
order.  A full map must keep the standard context (J, M), the J-sets of the
meet-irreducibles, so the searched group holds every automorphism; in a
lattice it holds nothing else, and ``automorphism_group`` certifies that by
extending each generator to every element by the images of the lower covers.
The product formula is then checked on groups, not lists: the maps tau of
the adjacent slot transpositions must generate a group of order a4! * b! (by
Schreier-Sims), and each must sift through the searched chain and be a
bijection that keeps the covers.  That group of automorphisms is then as
large as the searched group, which holds every automorphism, so agreement
between the two routes is genuine evidence, and needs no certificate.

The bridge between abstract automorphisms and slot permutations is the
factor atoms, the individual factors.  Each is the largest element over one
atom alone, complemented by the largest element over all the other atoms,
so any automorphism permutes them.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass
from functools import reduce
from itertools import permutations
from math import factorial
from operator import or_

from .errors import ClassViolation, LatTowerError, SpecMismatch, TooLarge
from .gf2 import _annihilator_mask
from .group_spec import ChainPosition, TowerGroupSpec, format_spec
from .group_spec import chain as positions_of
from .lattice_core import (
    DEFAULT_MAX_SLOTS,
    AbstractLattice,
    Lattice,
    _digits,
    _fold,
    census_of,
    enumerate_lattice,
)
from .stabiliser import Perm, StabiliserChain, schreier_sims

__all__ = [
    "DEFAULT_MAX_LATTICE",
    "cycle_notation",
    "complemented_elements",
    "factor_atoms",
    "tau_on_lattice",
    "automorphism_group",
    "brute_force_automorphisms",
    "searchable_lattice",
    "induced_permutation",
    "ProductFormulaReport",
    "verify_product_formula",
]

# Admits S3^6 (6,482 elements) and S4^3*S3^3 (9,820): `aut` took 0.21-0.22 s
# and 0.23-0.25 s (21 and 23 MB max RSS) on 2 cores with Python 3.11.7.
# Refuses S4^4*S3^2 (11,384) and everything larger.
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
    both, and x v c is the top exactly when no coatom lies over both.  Both
    sets are read off the covers as bits, the atoms out of J(x) and the
    coatoms over x by a sweep that starts at the top.  Elements with the same
    atoms are handled together: their coatom sets are compared only with
    those of the groups whose atoms miss theirs.  Raises LatTowerError
    unless exactly one element is minimal and one maximal.
    """
    ctx = lat.context
    tops = [x for x, above in enumerate(ctx.upper) if not above]
    if len(tops) != 1:
        raise LatTowerError(f"not a lattice: {len(tops)} maximal elements")
    bottom, (top,) = ctx.order[0], tops
    atoms = reduce(or_, map(ctx.J.__getitem__, ctx.upper[bottom]), 0)
    coatoms = [0] * ctx.n
    for k, c in enumerate(ctx.lower[top]):
        coatoms[c] = 1 << k
    over = _fold(reversed(ctx.order), ctx.upper, coatoms)
    groups: dict[int, list[int]] = {}
    for x, under in enumerate(ctx.J):
        groups.setdefault(under & atoms, []).append(x)
    overs = {a: {over[x] for x in xs} for a, xs in groups.items()}
    out = set()
    for a, xs in groups.items():
        partners = [c for b, cs in overs.items() if not a & b for c in cs]
        out.update(x for x in xs if any(not over[x] & c for c in partners))
    return out


def factor_atoms(lat: Lattice) -> list[int]:
    """The sub-products FULL in a single slot, one per slot, in slot order.

    One pass over the J-sets finds them.  For each atom a, the factor atom
    is the element above every other element whose J-set holds a as its
    only atom, and its partner is the largest element whose J-set holds
    every atom but a.  No atom lies under both, so they meet at the bottom,
    and the factor atom is certified complemented by checking that no
    coatom lies over both.  Each must be FULL in one uncoupled slot, and
    every slot must have one, so the list index doubles as the slot index.
    """
    ctx = lat.context
    under, bottom, top = ctx.J, ctx.order[0], ctx.order[-1]
    atoms = reduce(or_, map(under.__getitem__, ctx.upper[bottom]), 0)
    shift = len(ctx.irreducibles)
    # [largest element so far, union of J-sets] of the elements holding the
    # atom a alone (key a), or every atom but a (key a << shift)
    largest: dict[int, list[int]] = {}
    for x, j in enumerate(under):
        a = j & atoms
        for key in a, (atoms ^ a) << shift:
            if key and not key & (key - 1):
                best = largest.setdefault(key, [x, 0])
                if not best[1] & ~j:
                    best[0] = x
                best[1] |= j
    by_slot: dict[int, int] = {}
    for k in _bits(atoms):
        i, span = largest[1 << k]
        # with no element over every atom but a, (bottom, -1) fails the check
        rest, rest_span = largest.get(1 << (k + shift), (bottom, -1))
        both = under[i] | under[rest]
        if (under[i], under[rest]) != (span, rest_span) or any(
            not both & ~under[c] for c in ctx.lower[top]
        ):
            raise LatTowerError(f"no complemented factor atom over atom {ctx.irreducibles[k]}")
        coupled, _ = lat.blocks[lat.block_of[i]]
        digits = _digits(lat.keys[i], lat.spec.num_slots)
        full_slots = [s for s, p in enumerate(digits) if p == ChainPosition.FULL]
        if coupled or len(full_slots) != 1:
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


def tau_on_lattice(sigma: Perm, lat: Lattice) -> Perm:
    """The permutation of element indices induced by a class-preserving slot permutation.

    Slot s moves to sigma(s): digit s of each key moves to digit sigma(s),
    and bit s of every sign pattern moves to bit sigma(s).  A position
    keeps its name because sigma preserves the slot class and all class-B
    chains are TRIV < ALT < FULL.  The moved key of every possible key is
    built slot by slot over the chain positions, as the enumeration builds
    P, and each W is moved by the D of its moved spanning rows, with no
    reduction; then every image is looked up in the profile index, under
    ``key | D << 2T``.
    """
    spec = lat.spec
    _check_class_preserving(spec, sigma)
    n = spec.num_slots
    moved_keys = {0: 0}
    for s, d in enumerate(spec.degrees):
        options = [(p << 2 * s, p << 2 * sigma[s]) for p in positions_of(d)]
        moved_keys = {key + k: image + m for key, image in moved_keys.items() for k, m in options}
    moved = [0]  # moved[v] is the sign pattern v with bit s carried to bit sigma(s)
    for s in range(n):
        moved += [v | 1 << sigma[s] for v in moved]
    duals = [_annihilator_mask(n, map(moved.__getitem__, rows)) << 2 * n for rows in lat.spans]
    codes = map(or_, map(moved_keys.__getitem__, lat.keys), map(duals.__getitem__, lat.wids))
    return tuple(map(lat._profile_index.__getitem__, codes))


def _point_masks(ctx: AbstractLattice) -> tuple[list[int], list[int]]:
    """Per point k, the points below it and the points above it, k included, as bitmasks.

    The points below are read off J; those above by transposing those sets
    once.
    """
    under = [ctx.J[x] for x in ctx.irreducibles]
    over = [1 << k for k in range(len(under))]
    for k, mask in enumerate(under):
        for j in _bits(mask ^ 1 << k):
            over[j] |= 1 << k
    return under, over


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _refined_classes(ctx: AbstractLattice, under: list[int], over: list[int]) -> list[int]:
    """One colour per point, refined on the points alone to a fixed point.

    ``under`` and ``over`` are the masks of ``_point_masks``.  The seed of a
    point is its number of upper covers and the numbers of points strictly
    below and strictly above it.  Each round folds in the sorted colours of
    the points below and of those above, until a round splits no class.  An
    automorphism permutes the points, keeps their order and keeps cover
    counts, so automorphic points always share a colour.  The search
    branches on the points only, so the other elements get no colour (McKay
    and Piperno, secs. 3-4).
    """
    below = [_bits(mask ^ 1 << k) for k, mask in enumerate(under)]
    above = [_bits(mask ^ 1 << k) for k, mask in enumerate(over)]
    upper_covers = (len(ctx.upper[x]) for x in ctx.irreducibles)
    ids = _canonical_ids(list(zip(upper_covers, map(len, below), map(len, above))))
    while True:
        new_ids = _canonical_ids(
            [
                (c, tuple(sorted(map(ids.__getitem__, b))), tuple(sorted(map(ids.__getitem__, a))))
                for c, b, a in zip(ids, below, above)
            ]
        )
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
    """LatAut of a bare lattice as a stabiliser chain on its join-irreducibles.

    The search never looks at triples, profiles or subgroup sets, and builds
    no order relation: it reads the lattice's join-irreducible ``context``,
    built once per lattice from its covers.  An automorphism is fixed by
    what it does on the join-irreducibles, so the chain acts on those, as
    points 0, ..., m-1; the context's ``extend`` and ``restrict`` go between
    its elements and maps of the whole lattice.  The base is all the points,
    ordered by the size of their class under the colouring of
    ``_refined_classes``, which colours the points only and gives each one
    its candidate images.

    Levels are completed from the deepest to the shallowest, as in McKay and
    Piperno, "Practical graph isomorphism II" (J. Symbolic Comput. 60, 2014,
    secs. 3-4).  At level t, every candidate y of b_t that is not yet in the
    orbit of b_t under the generators found so far gets one backtracking
    run: b_0, ..., b_(t-1) stay fixed, b_t goes to y, the later base points
    range over their candidates, and each full assignment is tested against
    the standard context (J, M).  The first assignment that passes becomes a
    generator, which puts y and its whole orbit out of reach of further
    runs; a run that finds none shows y outside the orbit.  So level t ends
    with the full orbit of b_t under the stabiliser of the earlier base
    points, and the order is the product of the orbit lengths.

    A placement of x at z must keep the order with every earlier base point
    in both directions.  Against the fixed ones that is two mask tests: the
    points below z and those above z, cut to the fixed prefix, are those of
    x, so a y that fails them gets no run at all.  Against the base points
    placed in the run it is checked bit by bit.

    The searched group S holds LatAut (``_search``).  Each of its generators
    is then extended to the whole lattice (``_certified``): when every one
    extends, S is LatAut exactly.  LatTowerError is raised when one does not,
    or when the input is otherwise not a lattice.
    """
    _check_search_size(len(lattice), max_size)
    ctx = lattice.context
    return _certified(ctx, _search(ctx))


def _certified(ctx: AbstractLattice, chain: StabiliserChain) -> StabiliserChain:
    """The searched chain, once each of its generators extends to an automorphism.

    J is one-to-one, so the point maps that extend are the restrictions of
    the automorphisms, a group; with every generator among them the searched
    group S lies inside LatAut, and S always holds LatAut.  In a lattice
    every map that keeps (J, M) extends (Ganter and Wille, ch. 1), so a
    generator that does not shows the input is not a lattice.
    """
    if any(ctx.extend(psi) is None for psi in chain.generators):
        raise LatTowerError("not a lattice: a map of the points that keeps (J, M) does not extend")
    return chain


def _keeps_meet_irreducibles(ctx: AbstractLattice) -> Callable[[Sequence[int]], bool]:
    """The test of the standard context (J, M): whether a permutation psi of
    the points sends the J-sets of the meet-irreducibles, the elements with
    one upper cover, onto themselves.

    In a lattice such a psi and the map it induces on the meet-irreducibles
    keep the incidence of the context, so psi extends to an automorphism
    (Ganter and Wille, ch. 1); in a poset that is no lattice it need not.
    """
    sets = {ctx.J[x] for x, above in enumerate(ctx.upper) if len(above) == 1}
    rows = list(map(_bits, sets))
    shifted = (1).__lshift__
    return lambda psi: all(sum(map(shifted, map(psi.__getitem__, r))) in sets for r in rows)


def _search(ctx: AbstractLattice) -> StabiliserChain:
    """The search of ``automorphism_group``: the group S of the point maps
    that keep the colours, the order of the points and (J, M).

    The maps that keep each of the three form a group, and the levels are
    completed over all candidates, so the chain is S exactly.  Every
    automorphism keeps all three, so S holds LatAut on any poset the bare
    lattice accepts.
    """
    accept = _keeps_meet_irreducibles(ctx)
    under, over = _point_masks(ctx)
    colours = _refined_classes(ctx, under, over)
    m = len(colours)
    buckets: dict[int, list[int]] = {}
    for k, c in enumerate(colours):
        buckets.setdefault(c, []).append(k)
    candidates = [buckets[c] for c in colours]
    base = sorted(range(m), key=lambda k: (len(candidates[k]), colours[k], k))
    # prefix[t]: the points base[:t], which level t fixes
    prefix = [0]
    for k in base:
        prefix.append(prefix[-1] | 1 << k)

    def first_automorphism(t: int, y: int) -> tuple[int, ...] | None:
        """A map of the points that fixes base[:t], sends base[t] to y and keeps (J, M), or None."""
        fixed, b = prefix[t], base[t]
        if (under[b] ^ under[y]) & fixed or (over[b] ^ over[y]) & fixed:
            return None
        mapping = [-1] * m
        used = [False] * m
        for x in base[:t]:
            mapping[x], used[x] = x, True

        def place(s: int) -> bool:
            if s == m:
                return accept(mapping)
            x = base[s]
            fixed_under, fixed_over = under[x] & fixed, over[x] & fixed
            for z in (y,) if s == t else candidates[x]:
                if (
                    used[z]
                    or under[z] & fixed != fixed_under
                    or over[z] & fixed != fixed_over
                    or any(
                        ((under[x] >> x2) & 1) != ((under[z] >> mapping[x2]) & 1)
                        or ((over[x] >> x2) & 1) != ((over[z] >> mapping[x2]) & 1)
                        for x2 in base[t:s]
                    )
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
                    orbit = chain.orbit(t)
    return chain


def brute_force_automorphisms(
    lattice: "Lattice | AbstractLattice", max_size: int = DEFAULT_MAX_LATTICE
) -> list[Perm]:
    """Every lattice automorphism, listed from the chain of ``automorphism_group``.

    Each element of the chain is extended to the whole lattice.  Output is
    sorted by mapping, so the identity comes first.
    """
    chain = automorphism_group(lattice, max_size)
    return sorted(map(lattice.context.extend, chain.elements()))


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


def _is_automorphism(ctx: AbstractLattice, phi: Perm) -> bool:
    """Whether phi is a bijection of the elements that keeps the covers."""
    return sorted(phi) == list(range(ctx.n)) and ctx.keeps_covers(phi)


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

    Three orders must agree: a4! * b!, the order of a searched chain, and
    the order Schreier-Sims finds for the group T generated by the maps tau
    of the adjacent transpositions of class-A and of class-B slots (which
    generate S_a4 x S_B), restricted to the join-irreducibles, where
    automorphisms act faithfully.  Additionally every such tau must permute
    the join-irreducibles, sift through the searched chain there, be an
    automorphism, and induce its own slot permutation back.

    Tau is checked to be an automorphism by one pass over the covers: it
    must be a bijection of the elements that sends each element's lower
    covers exactly onto those of its image (``AbstractLattice.keeps_covers``).
    Such a bijection is an order automorphism, and it is the extension of
    its restriction, since J is one-to-one.  So T <= LatAut.

    The chain is the searched group S of ``automorphism_group``, the point
    maps that keep the colours, the order of the points and the J-sets of
    the meet-irreducibles, so T <= LatAut <= S.  When T and S both have
    order a4! * b! and T sifts through S, the three are one group, and no
    generator of S need be extended.  That rests on the lower bound T, not
    on the colours, and holds on any poset the bare lattice accepts.  On a
    mismatch the chain is certified as ``automorphism_group`` certifies it,
    so the searched order reported is LatAut's.
    """
    if lattice is not None and lattice.spec != spec:
        raise SpecMismatch(f"lattice of {format_spec(lattice.spec)} given for {format_spec(spec)}")
    lat = lattice if lattice is not None else searchable_lattice(spec, max_slots, max_size)
    _check_search_size(len(lat), max_size)
    ctx = lat.context
    chain = _search(ctx)
    predicted = factorial(spec.a4) * factorial(spec.b)

    atoms = factor_atoms(lat)
    sigmas = _adjacent_transpositions(spec)
    taus = [tau_on_lattice(sigma, lat) for sigma in sigmas]
    round_trip_ok = all(
        _induced_by_atoms(phi, atoms, spec) == sigma for phi, sigma in zip(taus, sigmas)
    )
    restricted = [ctx.restrict(phi) for phi in taus]
    constructive = schreier_sims((psi for psi in restricted if psi is not None), chain.n).order

    match = (
        constructive == predicted == chain.order
        and round_trip_ok
        and None not in restricted
        and all(psi in chain for psi in restricted)
        and all(_is_automorphism(ctx, phi) for phi in taus)
    )
    if not match:
        _certified(ctx, chain)
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
