"""The standard context (J, M) of a finite lattice, the input of the automorphism search.

A finite lattice is determined by its join-irreducibles (the points), the
J-set of each meet-irreducible (the points below it), and the incidence
between them; its automorphisms are exactly the permutations of the points
that send the meet-irreducibles' J-sets onto themselves (Ganter and Wille,
*Formal Concept Analysis*, Springer 1999, ch. 1).  ``StandardContext`` holds
that much, with the points above each point and each point's neighbours
listed, plus a colour seed per point, which must be an invariant of the
input the context came from; it computes each of these once.
``AbstractLattice.standard_context`` reads one off the covers of a bare
lattice.

``closed_form_context`` writes N(G)'s context down from the spec alone,
without enumerating N(G).  With the profile encoding of ``triples`` an
element is (eff, W), ordered componentwise on eff and by inclusion on W.  The
points are

* V_s at each degree-4 slot s: eff V at s, TRIV elsewhere, W = 0;
* A_s at each slot s: eff ALT at s, TRIV elsewhere, W = 0;
* P_v for each nonzero v in GF(2)^T: FULL on supp v, TRIV elsewhere,
  W = <v>;

2^T + T + a4 - 1 of them, in that order.  The meet-irreducibles are

* per slot s and position q below FULL (TRIV, ALT, and V at degree 4): q at
  s, every other slot FULL, W every sign pattern off s;
* per w of weight >= 2: every slot FULL, W = w-perp.

The incidence is the profile order.  V_s lies under the slot-s MIs at V and
ALT and A_s under the one at ALT; both lie under every MI of another slot
and every w-perp.  P_v lies under the slot-s MIs for s outside supp v, and
under w-perp when v.w = 0: in both cases the set of such v is one
``gf2._perps`` row, that of e_s or of w.  The one claim here that rests on
the paper's classification is that this context is N(G)'s; the tests
referee it against the enumerated lattice's covers on every spec small
enough to enumerate.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from itertools import chain

from .errors import TooLarge, decimal
from .gf2 import _bits, _perps, _span
from .group_spec import TowerGroupSpec
from .stabiliser import Perm

__all__ = [
    "MAX_CONTEXT_SLOTS",
    "StandardContext",
    "closed_form_context",
    "slot_action",
    "factor_atom_points",
]


# The product-formula check on a context of T slots costs four to five times
# that of T - 1: ``aut`` on S3^T in a process of its own took 0.6 s at 10
# slots (1,033 points), 2.3 s at 11 and 12 s at 12 (4,107 points, 137 MB max
# RSS), on 2 cores with Python 3.11.7.  13 slots (8,204 points) took 100 s
# when last timed.
MAX_CONTEXT_SLOTS = 12


@dataclass(frozen=True)
class StandardContext:
    """Points 0, ..., m-1 with ``under[k]`` and ``over[k]``, the points below
    and above point k (k included) as m-bit ints, and ``below[k]`` and
    ``above[k]``, the points strictly below and strictly above k as
    ascending lists; ``extents``, the J-sets of the meet-irreducibles, and
    ``rows``, the same as lists of points; and ``seeds[k]``, point k's colour
    seed.  ``StandardContext.of`` builds one, computing each of these once."""

    under: tuple[int, ...]
    over: tuple[int, ...]
    below: tuple[list[int], ...]
    above: tuple[list[int], ...]
    extents: frozenset[int]
    rows: tuple[list[int], ...]
    seeds: tuple[tuple[int, ...], ...]

    @classmethod
    def of(
        cls,
        under: Sequence[int],
        extents: frozenset[int],
        seeds: Callable[..., Iterable[tuple[int, ...]]],
    ) -> StandardContext:
        """The context of the points' down sets and the meet-irreducibles'
        J-sets.  One walk over each point's ``below`` list transposes it
        into ``above`` and ``under`` into ``over``; ``seeds`` maps the numbers
        of points strictly below and strictly above each point, the lengths
        of those lists, and the rows, to the seeds."""
        below = [_bits(mask ^ 1 << k) for k, mask in enumerate(under)]
        above: list[list[int]] = [[] for _ in below]
        over = [1 << k for k in range(len(under))]
        for k, points in enumerate(below):
            for j in points:
                above[j].append(k)
                over[j] |= 1 << k
        rows = tuple(map(_bits, extents))
        seed = tuple(seeds(list(map(len, below)), list(map(len, above)), rows))
        return cls(tuple(under), tuple(over), tuple(below), tuple(above), extents, rows, seed)


def _layout(spec: TowerGroupSpec) -> tuple[list[int], int]:
    """The index of V_s per slot (-1 off degree 4), and p0 with P_v at p0 + v."""
    v_index, a4 = [], 0
    for d in spec.degrees:
        v_index.append(a4 if d == 4 else -1)
        a4 += d == 4
    return v_index, a4 + spec.num_slots - 1


def closed_form_context(spec: TowerGroupSpec) -> StandardContext:
    """N(G)'s standard context, built from the spec with no element enumerated.

    Its seed is read off the context alone: (points strictly below, points
    strictly above, meet-irreducibles above, the last read off the rows), so
    the automorphism search on it finds exactly the automorphisms of the
    context.  The order of that tuple sets the colour ids, which break ties
    between classes of equal size in the search's base; this one keeps the
    search fast.  The V_s and A_s part of every P_v's down set is entry v of
    ``gf2._span`` of the slots' bits, as ``slot_action``'s moved patterns
    are; ``StandardContext.of`` then lists each point's neighbours.

    TooLarge is raised past ``MAX_CONTEXT_SLOTS`` slots, before any point
    is laid out, for every spec that ``parse_spec`` accepts.
    """
    n = spec.num_slots
    if n > MAX_CONTEXT_SLOTS:
        points = decimal(2**n + n + spec.a4 - 1) or f"2^{n} + {n + spec.a4 - 1}"
        raise TooLarge(
            f"{n} slots exceeds the closed-form context bound {MAX_CONTEXT_SLOTS}: "
            f"the automorphism search on its {points} points would take minutes"
        )
    v_index, p0 = _layout(spec)
    a_first = p0 + 1 - n
    # per slot s, the bits of V_s and A_s
    slot = [(1 << v if v >= 0 else 0) | 1 << (a_first + s) for s, v in enumerate(v_index)]
    down = _span(slot)  # down[v]: the bits of V_s and A_s for s in supp v
    # P_v lies over V_s and A_s for s in supp v
    under = [1 << v for v in v_index if v >= 0] + slot
    under += [down[v] | 1 << (p0 + v) for v in range(1, 1 << n)]
    perps, every = _perps(n), sum(slot)
    # the points P_v with v in a perp row: bit v of the row is P_v's bit
    p_part = [row >> 1 << (p0 + 1) for row in perps]
    extents = set()
    for s, v in enumerate(v_index):
        off = every ^ slot[s] | p_part[1 << s]
        extents.update((off, off | slot[s]))  # TRIV and ALT at s
        if v >= 0:
            extents.add(off | 1 << v)  # V at s
    extents.update(every | p_part[w] for w in range(1, 1 << n) if w & (w - 1))

    def seeds(below, above, rows):
        mis = Counter(chain.from_iterable(rows))  # per point, the MIs above it
        return zip(below, above, map(mis.__getitem__, range(len(below))))

    return StandardContext.of(under, frozenset(extents), seeds)


def slot_action(spec: TowerGroupSpec, sigma: Perm) -> Perm:
    """The map of the points that the class-preserving slot permutation sigma induces:
    V_s to V_sigma(s), A_s to A_sigma(s) and P_v to P_sigma(v)."""
    n = spec.num_slots
    v_index, p0 = _layout(spec)
    moved = _span([1 << t for t in sigma])  # moved[v] is v with bit s carried to bit sigma(s)
    images = [v_index[sigma[s]] for s, v in enumerate(v_index) if v >= 0]
    images += [p0 + 1 - n + sigma[s] for s in range(n)]
    return tuple(images + [p0 + moved[v] for v in range(1, 1 << n)])


def factor_atom_points(spec: TowerGroupSpec) -> list[int]:
    """Per slot s, the point P_(e_s), the factor atom: FULL at s alone, its
    J-set {V_s, A_s, P_(e_s)}."""
    p0 = _layout(spec)[1]
    return [p0 + (1 << s) for s in range(spec.num_slots)]
