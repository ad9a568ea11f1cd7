"""Lattice automorphisms of N(G): constructive ones and a search for the group.

A permutation of the factor slots that keeps degree-4 slots among degree-4
slots induces a lattice automorphism tau by permuting the coordinates of
profiles; the induced maps realise all of LatAut(G), which is the product of
the symmetric groups on the class-A and class-B slots.  The search below
knows none of that: it reads a standard context (J, M), the join-irreducible
points with the J-sets of the meet-irreducibles, backtracks over the points,
and keeps only enough maps to generate the group, as a stabiliser chain on
the points whose orbit lengths give its order.  A full map must keep (J, M),
so the searched group holds every automorphism of the context, which in a
lattice's context are exactly the lattice's automorphisms.  A bare lattice
hands the search the context read off its covers, and ``automorphism_group``
certifies the chain by extending each generator to every element by the
images of the lower covers.

The product formula is checked on N(G)'s context in closed form
(``context.closed_form_context``), with no element of N(G) enumerated: the
maps tau of the adjacent slot transpositions, acting on the points, must
sift through the searched chain and generate a group of order a4! * b! (by
Schreier-Sims), and the searched chain must have that order too.  Every
generator of the chain passed the search's (J, M) row tests, so a tau that
sifts keeps (J, M) too, and no row test runs on the taus.  Each tau must
also send the factor atoms, the individual factors, as its slot
permutation says.

``tau_on_lattice``, ``factor_atoms`` and ``induced_permutation`` act on an
enumerated lattice's elements instead.  A factor atom is the largest element
over one atom alone, complemented by the largest element over all the other
atoms, so any automorphism permutes them.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass
from functools import reduce
from itertools import permutations
from math import factorial
from operator import or_
from typing import TYPE_CHECKING

from .context import StandardContext, closed_form_context, factor_atom_points, slot_action
from .errors import ClassViolation, LatTowerError
from .gf2 import _annihilator_mask, _bits
from .group_spec import ChainPosition, TowerGroupSpec, format_spec
from .stabiliser import Perm, StabiliserChain, schreier_sims

if TYPE_CHECKING:
    from .abstract_lattice import AbstractLattice
    from .lattice_core import Lattice

__all__ = [
    "cycle_notation",
    "factor_atoms",
    "tau_on_lattice",
    "automorphism_group",
    "brute_force_automorphisms",
    "induced_permutation",
    "ProductFormulaReport",
    "verify_product_formula",
]


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
    from .lattice_core import _digits  # here: ``aut`` builds no Lattice and never loads it

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
    chains are TRIV < ALT < FULL.  Each key in the lattice is moved once,
    its digits packed back with digit s at sigma(s), and each W is moved by
    the D of its moved spanning rows, with no reduction; then every image
    is looked up in the profile index, under ``key | D << 2T``.
    """
    from .lattice_core import _digits, _eff_packer  # here, as in ``factor_atoms``

    spec = lat.spec
    _check_class_preserving(spec, sigma)
    n = spec.num_slots
    pack = _eff_packer(sigma)
    moved_keys = {key: pack(_digits(key, n)) for key in set(lat.keys)}
    moved = [0]  # moved[v] is the sign pattern v with bit s carried to bit sigma(s)
    for s in range(n):
        moved += [v | 1 << sigma[s] for v in moved]
    duals = [_annihilator_mask(n, map(moved.__getitem__, rows)) << 2 * n for rows in lat.spans]
    codes = map(or_, map(moved_keys.__getitem__, lat.keys), map(duals.__getitem__, lat.wids))
    return tuple(map(lat._profile_index.__getitem__, codes))


def _refined_classes(ctx: StandardContext) -> list[int]:
    """One colour per point, refined on the points alone to a fixed point.

    The colours start from the context's seeds.  Each round folds in the
    sorted colours of the points below and of those above, read off the
    context's ``below`` and ``above`` lists, until a round splits no class.
    An automorphism permutes the points, keeps their order and keeps the
    seeds, which are invariants, so automorphic points always share a
    colour.  The search branches on the points only, so the other elements
    get no colour (McKay and Piperno, secs. 3-4).
    """
    ids = _canonical_ids(list(ctx.seeds))
    while True:
        new_ids = _canonical_ids(
            [
                (c, tuple(sorted(map(ids.__getitem__, b))), tuple(sorted(map(ids.__getitem__, a))))
                for c, b, a in zip(ids, ctx.below, ctx.above)
            ]
        )
        if len(set(new_ids)) == len(set(ids)):
            return new_ids
        ids = new_ids


def _canonical_ids(keys: list) -> list[int]:
    order = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def automorphism_group(lattice: AbstractLattice) -> StabiliserChain:
    """LatAut of a bare lattice as a stabiliser chain on its join-irreducibles.

    The lattice is an ``AbstractLattice``; an enumerated ``Lattice`` hands
    over its ``context``.  The search never looks at triples, profiles or
    subgroup sets, and builds no order relation: it reads the standard
    context that the bare lattice reads off its covers.  An automorphism is
    fixed by what it does on the join-irreducibles, so the chain acts on
    those, as points 0, ..., m-1; the bare lattice's ``extend`` and
    ``restrict`` go between them and maps of all its elements.  The base is
    all the points, ordered by the size of their class under the colouring
    of ``_refined_classes``, which colours the points only and gives each
    one its candidate images.

    Levels are completed from the deepest to the shallowest, as in McKay and
    Piperno, "Practical graph isomorphism II" (J. Symbolic Comput. 60, 2014,
    secs. 3-4).  At level t, every candidate y of b_t that is not yet in the
    orbit of b_t under the generators found so far gets one backtracking
    run: b_0, ..., b_(t-1) stay fixed, b_t goes to y, the later base points
    range over their candidates, and every assignment must keep the
    standard context (J, M).  The first full assignment becomes a
    generator, which puts y and its whole orbit out of reach of further
    runs; a run that finds none shows y outside the orbit.  So level t ends
    with the full orbit of b_t under the stabiliser of the earlier base
    points, and the order is the product of the orbit lengths.

    A run is a depth-first walk over the base positions t, t+1, ..., kept
    on an explicit stack, so its depth is not bounded by the interpreter's
    recursion limit.  A placement of x at z must keep the order with every
    earlier base point in both directions.  That is two mask tests: the
    points below x among the earlier base points, mapped, must be exactly
    the placed images below z, and likewise above.  A y that fails them
    against the fixed prefix alone gets no run at all.  Each row of (J, M),
    the J-set of a meet-irreducible, is tested as soon as its last point in
    base order is placed, so every row is tested once on each full map, and
    a row inside the fixed prefix, which maps to itself, is never tested.

    The searched group S holds LatAut (``_search``, on the context that
    ``AbstractLattice.standard_context`` reads off the covers).  Each of its
    generators is then extended to the whole lattice (``_certified``): when
    every one extends, S is LatAut exactly.  LatTowerError is raised when
    one does not, or when the input is otherwise not a lattice.  The lattice
    comes already built, so no size bound is checked here.
    """
    return _certified(lattice, _search(lattice.standard_context()))


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


def _keeps_rows(ctx: StandardContext) -> Callable[[Sequence[Sequence[int]], Sequence[int]], bool]:
    """Whether a map psi of the points sends each of the given MI rows, lists
    of points, onto the J-set of a meet-irreducible; psi need be defined on
    their points only.

    On all of ``ctx.rows`` this is the test of the standard context (J, M).
    In a lattice a permutation psi of the points that passes it, with the
    map it induces on the meet-irreducibles, keeps the incidence of the
    context, so psi extends to an automorphism (Ganter and Wille, ch. 1); in
    a poset that is no lattice it need not.

    Each image is written as binary digits, which costs a byte per point,
    where a sum of powers of two costs the width of the context per point.
    """
    extents, zeros = ctx.extents, bytearray(b"0") * len(ctx.under)

    def keeps(rows: Sequence[Sequence[int]], psi: Sequence[int]) -> bool:
        for row in rows:
            digits = zeros[:]
            for k in row:
                digits[psi[k]] = 49  # "1"
            digits.reverse()
            if int(digits, 2) not in extents:
                return False
        return True

    return keeps


def _search(ctx: StandardContext) -> StabiliserChain:
    """The search of ``automorphism_group``: the group S of the point maps
    that keep the colours, the order of the points and (J, M).

    The maps that keep each of the three form a group, and the levels are
    completed over all candidates, so the chain is S exactly.  Every
    automorphism of the context keeps all three, the seeds being invariants,
    so S is the context's automorphism group; on a bare lattice it holds
    LatAut on any poset the bare lattice accepts.
    """
    accept = _keeps_rows(ctx)
    under, over = ctx.under, ctx.over
    colours = _refined_classes(ctx)
    m = len(colours)
    buckets: dict[int, list[int]] = {}
    for k, c in enumerate(colours):
        buckets.setdefault(c, []).append(k)
    candidates = [buckets[c] for c in colours]
    base = sorted(range(m), key=lambda k: (len(candidates[k]), colours[k], k))
    position = [0] * m
    # prefix[s]: the points base[:s]
    prefix = [0]
    for s, k in enumerate(base):
        position[k] = s
        prefix.append(prefix[-1] | 1 << k)
    # rows[s]: the MI rows whose last point in base order is base[s]
    rows: list[list[list[int]]] = [[] for _ in range(m)]
    for row in filter(None, ctx.rows):
        rows[max(map(position.__getitem__, row))].append(row)
    # the map a run at level t starts from: base[:t] fixed, the rest unplaced (-1)
    start = list(range(m))
    # per position s of a run: the candidates left for base[s], and the images
    # of the points below and above it among base[:s]
    options = [iter(())] * m
    wants = [(0, 0)] * m

    def first_automorphism(t: int, y: int) -> tuple[int, ...] | None:
        """A map of the points that fixes base[:t], sends base[t] to y and
        keeps (J, M), or None; ``wants[t]`` is already set."""
        mapping = start[:]
        placed = fixed = prefix[t]  # placed: the images of base[:s]
        options[t] = iter((y,))
        s = t
        while True:
            want_under, want_over = wants[s]
            for z in options[s]:
                if (
                    not placed >> z & 1
                    and under[z] & placed == want_under
                    and over[z] & placed == want_over
                ):
                    mapping[base[s]] = z
                    if accept(rows[s], mapping):
                        break
            else:  # no candidate left: back to the previous position
                mapping[base[s]] = -1
                s -= 1
                if s < t:
                    return None
                placed ^= 1 << mapping[base[s]]
                continue
            placed |= 1 << z
            s += 1
            if s == m:
                return tuple(mapping)
            x, run = base[s], prefix[s] ^ fixed
            # the fixed points map to themselves; the run's points below and
            # above x are mapped one by one, lowest bit first
            want_under, rest = under[x] & fixed, under[x] & run
            while rest:
                low = rest & -rest
                want_under |= 1 << mapping[low.bit_length() - 1]
                rest ^= low
            want_over, rest = over[x] & fixed, over[x] & run
            while rest:
                low = rest & -rest
                want_over |= 1 << mapping[low.bit_length() - 1]
                rest ^= low
            wants[s] = want_under, want_over
            options[s] = iter(candidates[x])

    chain = StabiliserChain(m, base)
    for t in reversed(range(m)):
        b, fixed = base[t], prefix[t]
        start[b] = -1
        wants[t] = below, above = under[b] & fixed, over[b] & fixed
        orbit = chain.orbit(t)
        for y in candidates[b]:
            # a fixed y, or one placed otherwise than b against the fixed
            # points, gets no run
            if y not in orbit and under[y] & fixed == below and over[y] & fixed == above:
                psi = first_automorphism(t, y)
                if psi is not None:
                    chain.generators.append(psi)
                    orbit = chain.orbit(t)
    return chain


def brute_force_automorphisms(lattice: AbstractLattice) -> list[Perm]:
    """Every lattice automorphism, listed from the chain of ``automorphism_group``.

    The lattice is an ``AbstractLattice``, as there.  Each element of the
    chain is extended to the whole lattice by its ``extend``.  Output is
    sorted by mapping, so the identity comes first.
    """
    chain = automorphism_group(lattice)
    return sorted(map(lattice.extend, chain.elements()))


def induced_permutation(phi: Perm, lat: Lattice) -> Perm:
    """Read the slot permutation off an automorphism via the factor atoms."""
    return _induced_by_atoms(phi, factor_atoms(lat), lat.spec)


def _induced_by_atoms(phi: Perm, atoms: list[int], spec: TowerGroupSpec) -> Perm:
    """The slot permutation phi induces on the factor atoms, given per slot
    as elements of a lattice or as points of a context."""
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
    # the searched group's order; the name stays, since the JSON keys are pinned
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
    a_slots, b_slots = spec.a_slots(), spec.b_slots()
    for pa in permutations(a_slots):
        for pb in permutations(b_slots):
            mapping = [0] * spec.num_slots
            for src, dst in zip(a_slots + b_slots, pa + pb):
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


def verify_product_formula(spec: TowerGroupSpec) -> ProductFormulaReport:
    """Check that LatAut(N(G)) is exactly the class-preserving slot group, G being ``spec``.

    N(G) is not enumerated: the check reads its standard context (J, M) in
    closed form (``closed_form_context``), whose size is 2^T + T + a4 - 1
    points for T slots.  TooLarge is raised past ``MAX_CONTEXT_SLOTS``
    slots, the one bound ``aut`` has: no census is read, since no element
    is built.

    Three orders must agree: a4! * b!, the order of the searched chain, and
    the order Schreier-Sims finds for the group T generated by the maps tau
    of the adjacent transpositions of class-A and of class-B slots (which
    generate S_a4 x S_B), acting on the points.  Additionally every such tau
    must sift through the searched chain and send the factor atoms, the
    points P_(e_s), as its own slot permutation does.

    The chain is the searched group S, the point maps that keep the colours,
    the order of the points and (J, M).  The seeds are read off the context
    alone, so S is the automorphism group of the context, which is LatAut
    (Ganter and Wille, ch. 1).  Each generator of S passed every row test
    of the search, so a tau that sifts, a product of transversal elements,
    is a permutation of the points that keeps (J, M): no row test is run
    again here.  So T <= S, and equal orders make them one group.  That is
    also why |S| bounds Schreier-Sims: it stops once T's chain reaches |S|,
    and on a T short of S runs to T's exact order.  a4! * B! would bound T
    only if ``slot_action`` were a homomorphism, which is under test.  An
    automorphism sends the J-set {V_s, A_s, P_(e_s)} of a factor atom onto
    that of its image, so the factor atoms' points are enough for the round
    trip.  No generator is extended: there are no elements to extend to.
    """
    ctx = closed_form_context(spec)
    chain = _search(ctx)
    predicted = factorial(spec.a4) * factorial(spec.b)

    sigmas = _adjacent_transpositions(spec)
    taus = [slot_action(spec, sigma) for sigma in sigmas]
    perms = [psi for psi in taus if psi in chain]
    atoms = factor_atom_points(spec)
    round_trip_ok = all(
        _induced_by_atoms(psi, atoms, spec) == sigma for psi, sigma in zip(taus, sigmas)
    )
    constructive = schreier_sims(perms, chain.n, chain.order).order
    match = (
        constructive == predicted == chain.order
        and len(perms) == len(taus)
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
