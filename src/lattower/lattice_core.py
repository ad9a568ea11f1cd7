"""N(G) of a tower group, enumerated by its admissible triples and held as columns.

``enumerate_lattice`` walks the admissible triples (J, P, H) of ``triples``
a (J, H) block at a time and builds no element object: each element is its
eff packed base 4, the id of its sign subspace W and its block.  ``Lattice``
holds those columns and reads the cover moves off them.  It derives the
element objects of ``triples`` only when asked, so no CLI path loads that
module.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache, reduce
from itertools import combinations, product
from math import factorial, prod
from operator import lshift, or_
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from .census import Census
from .errors import LatTowerError, SpecMismatch
from .gf2 import Subspace, _annihilator_mask, _perps, _pivot, _span
from .group_spec import ChainPosition, TowerGroupSpec, chain, format_spec, position_size

if TYPE_CHECKING:
    from .abstract_lattice import AbstractLattice
    from .triples import LatticeElement, Profile

__all__ = [
    "FAMILY_SUB_PRODUCT",
    "FAMILY_SIGN_PARITY",
    "FAMILY_MIXED",
    "Lattice",
    "enumerate_lattice",
]

FAMILY_SUB_PRODUCT = "sub-product"
FAMILY_SIGN_PARITY = "sign-parity"
FAMILY_MIXED = "mixed"


def _eff_packer(digits: Iterable[int]) -> Callable[[Iterable[ChainPosition]], int]:
    """Packs eff into a base-4 int with eff[s] in digit digits[s].

    ALT is 0b10 and FULL 0b11 there, so ORing 4^s raises ALT to FULL.
    """
    shifts = [2 * d for d in digits]
    return lambda eff: sum(map(lshift, eff, shifts))


_POSITIONS = tuple(ChainPosition)


def _digits(key: int, num_slots: int) -> list[int]:
    """The base-4 digits of a packed eff, slot 0 first."""
    return [(key >> 2 * s) & 3 for s in range(num_slots)]


@lru_cache(maxsize=None)
def _admissible_subspaces(width: int) -> tuple[Subspace, ...]:
    """The sign subgroups of GF(2)^width passing both admissibility conditions.

    They come in the order of ``gf2.iter_subspaces``: by dimension, then by
    pivot set, then by the free entries above the staircase, row 0's in the
    lowest bits.  The candidates are walked as raw echelon rows, each pivot
    the lowest set bit of its row and in no other row, so a sum of two or
    more rows holds two pivots and the two conditions read off the rows:

    * H holds no unit vector exactly when no row is a unit vector, so each
      row's free entries take every value but zero;
    * every coordinate is odd somewhere in H exactly when the OR of the
      rows is full.

    Only the bases that pass are built as a (validated) ``Subspace``.
    """
    full = (1 << width) - 1
    out = []
    for d in range(width + 1):
        for pivots in combinations(range(width), d):
            taken = sum(1 << p for p in pivots)
            free = [[1 << q for q in range(p + 1, width) if not taken >> q & 1] for p in pivots]
            # _span lists a row's free entries in iter_subspaces' order, zero first; the last
            # row goes first, so that product varies row 0's entries fastest
            choices = [[1 << p | x for x in _span(f)[1:]] for p, f in zip(pivots[::-1], free[::-1])]
            for rows in product(*choices):
                if reduce(or_, rows, 0) == full:
                    out.append(Subspace(width, rows[::-1]))
    return tuple(out)


def enumerate_lattice(spec: TowerGroupSpec) -> "Lattice":
    """All normal subgroups, by direct enumeration of admissible triples.

    Iterates the coupled set as a bitmask in ascending order, then the sign
    subgroup, then the chain positions of the uncoupled slots, so the output
    order is deterministic.  The first element is the trivial subgroup.  The
    census counts the families of the elements built, independently of
    ``census.census_of``.

    The columns are filled a (J, H) block at a time, and no element object
    is built.  P's placements (key, FULL-slot mask, size off J) and the
    lift of GF(2)^J are built once per J, |H| prod_{s in J} k_s!/2 and the
    parity-kernel test once per (J, H).  W, spanned by the lifted rows of H
    and the units of the FULL slots off J, gives them back (H holds no unit
    vector), so each (J, H) and FULL mask is a new W, numbered as met.

    No bound is checked here: each caller bounds the work first, by the
    census total (``census.check_lattice_size``) or by |G| >= 6^T (the oracle).
    """
    n = spec.num_slots
    degrees = spec.degrees
    keys, wids, block_of, orders, families = [], [], [], [], []  # the columns
    spans: list[tuple[int, ...]] = []  # per W id, the rows that span it
    blocks: list[tuple[tuple[int, ...], Subspace]] = []
    # per slot and chain position: its digit in the key, its FULL bit and its size
    options = [
        (
            [p << 2 * s for p in chain(d)],
            [(p is ChainPosition.FULL) << s for p in chain(d)],
            [position_size(p, d) for p in chain(d)],
        )
        for s, d in enumerate(degrees)
    ]
    for j_mask in range(1 << n):
        coupled = tuple(s for s in range(n) if (j_mask >> s) & 1)
        subspaces = _admissible_subspaces(len(coupled))
        if not subspaces:
            continue
        off = tuple(s for s in range(n) if not (j_mask >> s) & 1)
        off_mask = ~j_mask & ((1 << n) - 1)
        half = prod(factorial(degrees[s]) // 2 for s in coupled)
        lift = _span([1 << s for s in coupled])  # lift[h]: h, a pattern on J, on all the slots
        j_key = sum(ChainPosition.FULL << 2 * s for s in coupled)
        # every P on the slots off J, the last slot running fastest
        p_keys, p_full, p_sizes = [j_key], [0], [1]
        for s in off:
            keys_s, full_s, sizes_s = options[s]
            p_keys = [k + d for k in p_keys for d in keys_s]
            p_full = [f | d for f in p_full for d in full_s]
            p_sizes = [z * d for z in p_sizes for d in sizes_s]
        full_masks = list(set(p_full))  # a W id per (J, H) and mask, in this order
        p_rank = list(map({full: k for k, full in enumerate(full_masks)}.__getitem__, p_full))
        units = [tuple(1 << s for s in off if (full >> s) & 1) for full in full_masks]
        count = len(p_keys)
        for signs in subspaces:
            block_of += [len(blocks)] * count
            blocks.append((coupled, signs))
            keys += p_keys
            wids += map(len(spans).__add__, p_rank)
            lifted = tuple(map(lift.__getitem__, signs.basis))
            spans += [lifted + u for u in units]
            order = signs.size * half
            orders += [order * size for size in p_sizes]
            if not coupled:
                families += [FAMILY_SUB_PRODUCT] * count
            elif signs.dim == len(coupled) - 1:  # the parity kernel: the one admissible codim-1 H
                kinds = (FAMILY_MIXED, FAMILY_SIGN_PARITY)  # by whether every slot off J is FULL
                families += [kinds[full == off_mask] for full in p_full]
            else:
                families += [FAMILY_MIXED] * count
    counts = Counter(families)
    census = Census(
        sub_products=counts[FAMILY_SUB_PRODUCT],
        sign_parity=counts[FAMILY_SIGN_PARITY],
        mixed=counts[FAMILY_MIXED],
        total=len(keys),
    )
    return Lattice(spec, census, keys, wids, spans, blocks, block_of, orders, families)


class Lattice:
    """The enumerated lattice of one tower group, held as columns in a fixed element order.

    Element i is
    * ``keys[i]``, its eff packed base 4 with eff[s] in digit s (see ``_eff_packer``);
    * ``wids[i]``, the id of its W, spanned by the rows ``spans[wid]``: the
      rows of H lifted onto J, and the unit vectors of the FULL slots off J;
    * ``blocks[block_of[i]]``, its (J, H) as the coupled slots and the sign
      subgroup, with P the digits of the key off J;
    * ``orders[i]`` and ``families[i]``.

    The CLI reads W only through the D and pivots of its rows, and builds no
    element object or sorted basis; ``elements`` and ``bases`` derive them
    for the callers that want them.  The indexes below are built on first use.
    """

    def __init__(
        self,
        spec: TowerGroupSpec,
        census: Census,
        keys: list[int],
        wids: list[int],
        spans: list[tuple[int, ...]],
        blocks: list[tuple[tuple[int, ...], Subspace]],
        block_of: list[int],
        orders: list[int],
        families: list[str],
    ):
        self.spec = spec
        self.census = census
        self.keys, self.wids, self.spans = keys, wids, spans
        self.blocks, self.block_of = blocks, block_of
        self.orders, self.families = orders, families
        self._num_slots = spec.num_slots  # read by every index_of_parts lookup
        self._pack = _eff_packer(range(self._num_slots))

    def __len__(self) -> int:
        return len(self.keys)

    @cached_property
    def bases(self) -> list[tuple[int, ...]]:
        """The reduced basis of each W by id: its rows, none odd at another's pivot, sorted."""
        return [tuple(sorted(rows, key=_pivot)) for rows in self.spans]

    @cached_property
    def elements(self) -> tuple[LatticeElement, ...]:
        """The elements as objects, each what ``element_from_triple`` builds of its triple.

        Their module is loaded here, on first use, as no CLI path builds them.
        """
        from .triples import AdmissibleTriple, LatticeElement, Profile

        spec, n = self.spec, self.spec.num_slots
        signs = [Subspace(n, basis) for basis in self.bases]
        effs = {key: tuple(map(_POSITIONS.__getitem__, _digits(key, n))) for key in set(self.keys)}
        out = []
        for key, wid, b, order, family in zip(
            self.keys, self.wids, self.block_of, self.orders, self.families
        ):
            coupled, h = self.blocks[b]
            eff = effs[key]
            positions = tuple((s, p) for s, p in enumerate(eff) if s not in coupled)
            t = AdmissibleTriple(spec, coupled, positions, h)
            out.append(LatticeElement(t, Profile(spec, eff, signs[wid]), family, order))
        return tuple(out)

    @cached_property
    def _codes(self) -> list[int]:
        """Each element as one int, ``key | D << 2T`` with T the slot count.

        D, the annihilator of W as a 2^T-bit mask (bit u is set when u.w is
        even for every w in W), pins W down, so within one spec the int pins
        a profile down.
        """
        num_slots = self.spec.num_slots
        dual = [_annihilator_mask(num_slots, rows) << 2 * num_slots for rows in self.spans]
        return list(map(or_, self.keys, map(dual.__getitem__, self.wids)))

    @cached_property
    def _profile_index(self) -> dict[int, int]:
        """Element index by code, so a caller that permutes coordinates or
        moves up a cover can look its image up without building a Profile
        or a validated subspace."""
        return dict(zip(self._codes, range(len(self))))

    def index_of_profile(self, p: Profile) -> int:
        """The index of a profile; KeyError when it is not in the lattice."""
        if p.spec != self.spec:
            raise SpecMismatch(f"profile of {format_spec(p.spec)} in {format_spec(self.spec)}")
        return self.index_of_parts(p.eff, p.signs.basis)

    def index_of_parts(self, eff: Sequence[ChainPosition], rows: Iterable[int]) -> int:
        """The index of the element with this eff and the W that rows span,
        any spanning set, its code packed with no Profile or Subspace built;
        KeyError when it is not in the lattice."""
        num_slots = self._num_slots
        dual = _annihilator_mask(num_slots, rows)
        return self._profile_index[self._pack(eff) | dual << 2 * num_slots]

    def up_covers(self) -> Iterator[list[int]]:
        """The elements that cover each element, ascending, a list per element in order.

        The rank sum_s chainrank(min(eff_s, ALT)) + dim W rises strictly
        along the order, so a move that raises it by one lands on a cover.
        The up-covers of x = (eff, W) are exactly these moves:

        * one chain step at a slot below ALT, W unchanged;
        * W + <v> for each nonzero v supported on the slots at ALT or FULL
          and zero on the pivots of W, which raises the ALT slots of v to
          FULL.

        Let y cover x.  A chain step at a slot below ALT that y raises lies
        in [x, y], so it is y.  Otherwise y raises only ALT slots, W_y is
        larger, and W + <v> for the reduced v of any vector of W_y outside W
        lies in [x, y].  Each image is looked up in the profile index, by
        arithmetic on the code of x: a chain step adds to the key, and
        W + <v>, whose D is D(W) & v-perp, is ``(code & M_v) | S_v``, where
        M_v keeps the key and ANDs v-perp into D, and S_v ORs 4^s into the
        key at each slot s of v.  The (M_v, S_v) pairs are listed once per
        mask of free slots, so a row is the index lookups of its chain steps
        and of its pairs, each list built by one comprehension, then sorted.
        The rows come one element at a time, so no list of edges is held.
        ``down_masks`` and ``up_masks`` are their closure, and in the tests a
        column sweep referees both.
        """
        num_slots = self.spec.num_slots
        shift = 2 * num_slots
        index = self._profile_index
        # per key of every eff, built as P is: its chain steps up, and the slots at ALT
        # or FULL; one step up from TRIV or V is TRIV -> V -> ALT at degree 4, TRIV -> ALT elsewhere
        moves_of_key: dict[int, tuple[tuple[int, ...], int]] = {0: ((), 0)}
        for s, d in enumerate(self.spec.degrees):
            step = (1 if d == 4 else 2) << 2 * s
            options = [
                (p << 2 * s, (step,), 0) if p < ChainPosition.ALT else (p << 2 * s, (), 1 << s)
                for p in chain(d)
            ]
            moves_of_key = {
                key + k: (ups + u, up | f)
                for key, (ups, up) in moves_of_key.items() for k, u, f in options
            }
        keep = [perp << shift | (1 << shift) - 1 for perp in _perps(num_slots)]  # M_v
        spread = _span([1 << 2 * s for s in range(num_slots)])  # S_v: bit s of v at bit 2s
        pivots_of = [sum(row & -row for row in rows) for rows in self.spans]
        widenings: dict[int, list[tuple[int, int]]] = {}  # (M_v, S_v) by free-slot mask
        for i, (key, wid, code) in enumerate(zip(self.keys, self.wids, self._codes)):
            ups, upper = moves_of_key[key]
            free = upper & ~pivots_of[wid]
            masks = widenings.get(free)
            if masks is None:
                vs = [v for v in range(1, free + 1) if not v & ~free]
                masks = widenings[free] = [(keep[v], spread[v]) for v in vs]
            try:
                above = [index[code + up] for up in ups]
                above += [index[code & m | s] for m, s in masks]
            except KeyError:
                raise LatTowerError(f"a cover move from element {i} leaves the lattice") from None
            above.sort()
            yield above

    @cached_property
    def context(self) -> AbstractLattice:
        """The bare lattice, read off the cover moves as they are made.

        Its module is loaded here, on first use: ``hasse`` and ``enumerate``
        read the covers alone and never compile it.
        """
        from .abstract_lattice import AbstractLattice

        return AbstractLattice(self.up_covers())

    # the names under which perfbench reads the bare lattice and its order relation
    def to_abstract(self) -> AbstractLattice:
        return self.context

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        return self.context.down

    @cached_property
    def up_masks(self) -> tuple[int, ...]:
        return self.context.up

    def to_json_dict(self) -> dict:
        """Stable JSON form: spec header, census, elements, covering edges.

        The schema referee of ``cli._lattice_json``, and perfbench's trace input.
        """
        return {
            "spec": format_spec(self.spec),
            "slots": [
                {"index": s.index, "degree": s.degree, "copy": s.copy, "class": s.slot_class}
                for s in self.spec.slots
            ],
            "census": {
                "sub_products": self.census.sub_products,
                "sign_parity": self.census.sign_parity,
                "mixed": self.census.mixed,
                "total": self.census.total,
            },
            "elements": [
                {
                    "index": i,
                    "family": e.family,
                    "order": e.order,
                    "triple": {
                        "J": list(e.triple.coupled),
                        "P": {str(s): p.token for s, p in e.triple.positions},
                        "H": list(e.triple.signs.to_strings()),
                    },
                }
                for i, e in enumerate(self.elements)
            ],
            "hasse_edges": [[i, j] for i, above in enumerate(self.up_covers()) for j in above],
        }
