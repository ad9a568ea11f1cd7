"""A bare finite lattice, given by its covers and held as its join-irreducible context.

``AbstractLattice`` is what the automorphism search and the permutation
oracle read: no element data, only the covers, the order they close to and
the J- and M-sets.  ``Lattice.context`` builds one from an enumerated
lattice's cover moves, and ``perm_oracle`` builds one from an order relation
through ``_covers_of_order``.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import or_
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import LatTowerError

if TYPE_CHECKING:
    from .context import StandardContext
    from .stabiliser import Perm

__all__ = ["AbstractLattice"]


def _fold(order: Iterable[int], neighbours: list[list[int]], sets: list[int]) -> list[int]:
    """OR into each element's set those of its neighbours, which come first in order."""
    for x in order:
        sets[x] = reduce(or_, map(sets.__getitem__, neighbours[x]), sets[x])
    return sets


def _covers_of_order(down: Sequence[int], up: Sequence[int]) -> list[list[int]]:
    """The up-covers of each element, ascending, of a poset given by its order relation.

    ``down[j]`` and ``up[j]`` are the bitmasks of all i with i <= j and with
    j <= i.  The caller vouches that ``up`` is the transpose of ``down``, as
    the tests referee for each producer; the checks here take O(n) int
    operations and raise LatTowerError on sets that no poset has.

    The elements that j covers are the maximal elements of its strict down
    set, the candidates.  Climbing from any candidate to any candidate
    strictly above it ends, within the height of the poset, at a maximal
    candidate i.  Record that j covers i, drop i and everything below it
    from the candidates, and climb again until none is left.  This is exact:
    dropping down[i] removes no other maximal candidate, since those are
    incomparable with i; and a later climb cannot end below a dropped
    candidate, because it would then have been dropped with it.  The cost is
    one climb per cover edge instead of a test per pair.
    """
    n = len(down)
    if len(up) != n:
        raise LatTowerError(f"{n} down sets but {len(up)} up sets")
    for kind, masks in (("down", down), ("up", up)):
        for j, mask in enumerate(masks):
            if mask >> n or not (mask >> j) & 1:
                raise LatTowerError(f"{kind} set of {j} must hold {j} and nothing past {n - 1}")
    for j, (below, above) in enumerate(zip(down, up)):
        if below & above != 1 << j:
            raise LatTowerError(f"the down and up sets of {j} share another element")
    if sum(m.bit_count() for m in down) != sum(m.bit_count() for m in up):
        raise LatTowerError("the up sets are not the transpose of the down sets")
    rows: list[list[int]] = [[] for _ in range(n)]
    for j, mask in enumerate(down):
        candidates = mask ^ (1 << j)
        while candidates:
            # element orders put larger elements late, so starting from
            # the highest index usually makes the climb empty
            i = candidates.bit_length() - 1
            while True:
                above = (up[i] & candidates) ^ (1 << i)
                if not above:
                    break
                i = above.bit_length() - 1
            rows[i].append(j)
            candidates &= ~down[i]
    return rows


class AbstractLattice:
    """A finite lattice given by its covers alone, held as its join-irreducible context.

    ``upper[x]``, given, lists the elements that cover x, and ``lower[x]``
    those that x covers, filled in ascending order; ``order`` lists every
    element after its lower covers.  The join-irreducibles, the elements
    with exactly one lower cover, are the points 0, ..., m-1 in element
    order; ``J[x]`` is the set of points under x as an m-bit int, the OR of
    x's own point and the sets of its lower covers.  In a lattice every
    element is the join of the points under it, so J is one-to-one, x <= y
    exactly when J(x) is inside J(y), and an automorphism is fixed by what it
    does on the points (Ganter and Wille, *Formal Concept Analysis*,
    Springer 1999, ch. 1); ``extend`` pins every other image down by the
    images of the lower covers.  The covers are read in one pass.  No element
    data is kept, so consumers cannot peek at triples.  LatTowerError is
    raised unless every cover lies in 0..n-1, no row names an element twice,
    the covers have no cycle, exactly one element is minimal and J is
    one-to-one.
    """

    def __init__(self, upper: Iterable[list[int]]):
        self.upper = list(upper)
        self.n = n = len(self.upper)
        self.lower: list[list[int]] = [[] for _ in range(n)]
        for x, above in enumerate(self.upper):
            if above and not (0 <= min(above) and max(above) < n):
                y = next(y for y in above if not 0 <= y < n)
                raise LatTowerError(f"not a lattice: {x} is covered by {y}, outside 0..{n - 1}")
            if len(set(above)) != len(above):
                y = next(y for y in above if above.count(y) > 1)
                raise LatTowerError(f"not a lattice: {x} is covered by {y} twice")
            for y in above:
                self.lower[y].append(x)
        order = [x for x in range(n) if not self.lower[x]]
        if n and len(order) != 1:
            raise LatTowerError(f"not a lattice: {len(order)} minimal elements")
        waiting = list(map(len, self.lower))
        for x in order:  # the list grows as elements lose their last waiting cover
            for y in self.upper[x]:
                waiting[y] -= 1
                if not waiting[y]:
                    order.append(y)
        if len(order) != n:
            raise LatTowerError("not a lattice: the covers have a cycle")
        self.order = order
        self.irreducibles = [x for x in range(n) if len(self.lower[x]) == 1]
        self.point = {x: k for k, x in enumerate(self.irreducibles)}
        seeds = [0] * n
        for k, x in enumerate(self.irreducibles):
            seeds[x] = 1 << k
        self.J = _fold(order, self.lower, seeds)
        if len(set(self.J)) != n:
            raise LatTowerError(
                "not a lattice: no join, as two elements lie over the same join-irreducibles"
            )

    def __len__(self) -> int:
        return self.n

    @cached_property
    def down(self) -> tuple[int, ...]:
        """Per element j, the bitmask of all i <= j: the closure of the covers.

        j's down set is j and the down sets of its lower covers, folded along
        ``order``; ``up`` is the same fold over the upper covers, in reverse.
        """
        return tuple(_fold(self.order, self.lower, [1 << x for x in range(self.n)]))

    @cached_property
    def up(self) -> tuple[int, ...]:
        return tuple(_fold(reversed(self.order), self.upper, [1 << x for x in range(self.n)]))

    @cached_property
    def M(self) -> list[int]:
        """Per element, the meet-irreducibles above it, the dual of ``J``.

        The meet-irreducibles, the elements with exactly one upper cover, are
        numbered in element order; ``M[x]`` is the OR of x's own bit and the
        sets of its upper covers, folded along ``order`` reversed.  Every
        element is the meet of the meet-irreducibles above it, so in a
        lattice M is one-to-one and M(x join y) = M(x) & M(y).
        """
        seeds = [0] * self.n
        for k, x in enumerate(x for x, above in enumerate(self.upper) if len(above) == 1):
            seeds[x] = 1 << k
        return _fold(reversed(self.order), self.upper, seeds)

    @cached_property
    def by_J(self) -> dict[int, int]:
        return {s: x for x, s in enumerate(self.J)}

    @cached_property
    def by_M(self) -> dict[int, int]:
        return {s: x for x, s in enumerate(self.M)}

    def meet(self, i: int, j: int) -> int:
        """The element whose J-set is J(i) & J(j); KeyError when the poset has no such meet."""
        return self.by_J[self.J[i] & self.J[j]]

    def join(self, i: int, j: int) -> int:
        """The element whose M-set is M(i) & M(j); KeyError when the poset has no such join."""
        return self.by_M[self.M[i] & self.M[j]]

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Pairs (i, j) with j covering i, sorted."""
        return tuple(sorted((x, y) for x, above in enumerate(self.upper) for y in above))

    @cached_property
    def _by_low_covers(self) -> dict[int, int]:
        """Each element with two or more lower covers c0 < c1 < ..., keyed
        ``c0 * n + c1``; -1 where two elements share the key.

        In a lattice no key is shared, as the join of c0 and c1 is the
        element; in a poset the constructor accepts, it can be.
        """
        n, lower, index = self.n, self.lower, {}
        # the values are the ints ``order`` holds, so only the keys are new
        for x in self.order:
            below = lower[x]
            if len(below) > 1:
                key = below[0] * n + below[1]
                index[key] = -1 if key in index else x
        return index

    def extend(self, psi: Sequence[int]) -> Perm | None:
        """The automorphism that permutes the points as psi does, or None.

        One pass along ``order``: the bottom goes to the bottom, the point x
        to the point psi(x), and any other element to the one whose lower
        covers are the images of its own, found under its two lowest in
        ``_by_low_covers``.  Each image is kept only if its whole lower-cover
        row is the sorted images of x's lower covers.  The map is then a
        bijection, by induction along ``order``: points go to distinct
        points, and two other elements with one image would have the same
        lower covers, hence the same J-set, and J is one-to-one.  So a map
        that passes is an automorphism of the covers, and an automorphism
        passes every step.
        """
        m = len(self.irreducibles)
        if sorted(psi) != list(range(m)):
            return None
        n, lower, point, irreducibles = self.n, self.lower, self.point, self.irreducibles
        by_low_covers = self._by_low_covers
        image = [-1] * n
        moved = image.__getitem__
        for x in self.order:
            below = lower[x]
            if len(below) == 1:
                y = irreducibles[psi[point[x]]]
                # a point has one lower cover
                if lower[y][0] != image[below[0]]:
                    return None
            elif below:
                row = sorted(map(moved, below))
                y = by_low_covers.get(row[0] * n + row[1])
                if y is not None and y < 0:  # a shared key: match the whole row
                    y = next((z for z, r in enumerate(lower) if r == row), None)
                if y is None or lower[y] != row:
                    return None
            else:
                y = x
            image[x] = y
        return tuple(image)

    def standard_context(self) -> StandardContext:
        """(J, M) read off the covers: the points' J-sets and those of the
        elements with one upper cover, the meet-irreducibles.  A point's seed
        is its number of upper covers and the numbers of points strictly
        below and above it.  Only the search reads it, so ``context`` is
        loaded here: the oracle's posets never compile it."""
        from .context import StandardContext

        under = [self.J[x] for x in self.irreducibles]
        extents = frozenset(self.J[x] for x, above in enumerate(self.upper) if len(above) == 1)
        covers = [len(self.upper[x]) for x in self.irreducibles]
        return StandardContext.of(under, extents, lambda below, above, _: zip(covers, below, above))
