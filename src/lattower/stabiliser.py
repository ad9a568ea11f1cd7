"""Permutation groups as stabiliser chains, and Schreier-Sims.

A permutation of range(n) is the tuple of its images.  ``autgroup`` fills a
chain from its automorphism search; ``schreier_sims`` fills one from
generators alone.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Iterator

__all__ = ["Perm", "StabiliserChain", "schreier_sims"]

Perm = tuple[int, ...]


def _compose(a: Perm, b: Perm) -> Perm:
    """a after b, as point maps: _compose(a, b)[i] = a[b[i]]."""
    return tuple(map(a.__getitem__, b))


def _inverse(a: Perm) -> Perm:
    return tuple(sorted(range(len(a)), key=a.__getitem__))


class StabiliserChain:
    """A permutation group on range(n) as a base, strong generators and transversals.

    Level k holds the base point b_k and a transversal: for each point p in
    the orbit of b_k under the strong generators that fix b_0, ..., b_(k-1),
    one group element sending b_k to p.  Once every level is closed, each
    group element is exactly one product u_0 u_1 ... of transversal
    elements, so the order is the product of the orbit lengths, membership
    is a sift down the levels, and the elements can be listed without
    repetition (Seress, *Permutation Group Algorithms*, 2003, ch. 4).
    """

    def __init__(self, n: int, base: Iterable[int] = ()):
        self.n = n
        self.identity: Perm = tuple(range(n))
        self.base: list[int] = []
        self.generators: list[Perm] = []
        self.transversals: list[dict[int, Perm]] = []
        self._inverses: list[dict[int, Perm]] = []
        # per strong generator, the first base level it moves, or the length
        # of the base when it was last found to fix all of it
        self._levels: list[int] = []
        self._scanned = 0  # the length of the base when _levels was updated
        # per level, the number of generators when its orbit was last grown:
        # the transversal is closed under those of them that fix b_0, ..., b_(k-1)
        self._closed: list[int] = []
        for point in base:
            self._add_level(point)

    def _add_level(self, point: int) -> None:
        self.base.append(point)
        self.transversals.append({point: self.identity})
        self._inverses.append({point: self.identity})
        self._closed.append(0)

    def _fixing(self, k: int) -> list[int]:
        """Indices of the strong generators that fix b_0, ..., b_(k-1).

        Base points are only appended, so a generator that moves b_t keeps
        level t for good, and its level is found once.  One that fixed the
        whole base is scanned on from there when the base has grown.
        Generators appended to ``generators`` directly are picked up here.
        """
        base, gens, levels = self.base, self.generators, self._levels
        if self._scanned < len(base):
            for i, t in enumerate(levels):
                if t == self._scanned:
                    levels[i] = _first_moved_level(gens[i], base, t)
            self._scanned = len(base)
        for s in gens[len(levels) :]:
            levels.append(_first_moved_level(s, base, 0))
        return [i for i, t in enumerate(levels) if t >= k]

    def orbit(self, k: int) -> dict[int, Perm]:
        """Grow level k's transversal to the whole orbit of its generators.

        Existing entries are kept, so a sift that reached the identity
        before still does.  The transversal is already closed under the
        generators of the last call, so those meet only the new points.
        """
        transversal = self.transversals[k]
        closed, self._closed[k] = self._closed[k], len(self.generators)
        if closed == len(self.generators):
            return transversal
        fixing = self._fixing(k)
        new = [self.generators[i] for i in fixing if i >= closed]
        if not new:
            return transversal
        gens = [self.generators[i] for i in fixing]
        points = list(transversal)
        old = len(points)
        for j, p in enumerate(points):  # the list grows as the orbit does
            u = transversal[p]
            for s in new if j < old else gens:
                q = s[p]
                if q not in transversal:
                    transversal[q] = _compose(s, u)
                    points.append(q)
        return transversal

    def _inverse_of(self, k: int, point: int) -> Perm:
        inverses = self._inverses[k]
        if point not in inverses:
            inverses[point] = _inverse(self.transversals[k][point])
        return inverses[point]

    @property
    def order(self) -> int:
        return prod(len(t) for t in self.transversals)

    def sift(self, g: Perm, start: int = 0) -> tuple[Perm, int]:
        """Strip g by the transversals from level ``start`` down.

        Returns the residue and the level where it dropped out, or the
        number of levels if it passed them all.
        """
        for k in range(start, len(self.base)):
            b = self.base[k]
            y = g[b]
            if y == b:  # the transversal element of b_k is the identity
                continue
            if y not in self.transversals[k]:
                return g, k
            g = _compose(self._inverse_of(k, y), g)
        return g, len(self.base)

    def __contains__(self, g: Perm) -> bool:
        return len(g) == self.n and self.sift(g)[0] == self.identity

    def elements(self) -> Iterator[Perm]:
        """Every group element once, as the products u_0 u_1 ... ."""
        levels = [list(t.values()) for t in self.transversals if len(t) > 1]

        def walk(k: int, g: Perm) -> Iterator[Perm]:
            if k == len(levels):
                yield g
                return
            for u in levels[k]:
                yield from walk(k + 1, _compose(g, u))

        return walk(0, self.identity)


def _first_moved_level(s: Perm, base: list[int], t: int) -> int:
    """The first level from t on whose base point s moves, or len(base)."""
    while t < len(base) and s[base[t]] == base[t]:
        t += 1
    return t


def _moved_point(g: Perm) -> int:
    return next(i for i, j in enumerate(g) if i != j)


def schreier_sims(
    generators: Iterable[Perm], n: int, order_bound: int | None = None
) -> StabiliserChain:
    """The stabiliser chain of the group G the generators generate.

    Deterministic Schreier-Sims (Seress 2003, sec. 4.2): the levels are
    completed from the deepest up.  At level k every Schreier generator
    u_(s(p))^-1 s u_p of a generator s and an orbit point p fixes b_k, so it
    must sift to the identity through the levels below.  One that does not
    becomes a new strong generator (with a new base point if it fixes the
    whole base), and the work resumes at the level where it dropped out.
    A pair that sifted to the identity is not tried again: transversal
    entries never change, so it still would.

    ``order_bound``, if given, must bound |G| from above; the run stops as
    soon as the product of the transversal lengths equals it.  That is
    exact: level k's transversal holds distinct elements of G that fix
    b_0, ..., b_(k-1), so the products u_0 u_1 ... are distinct elements
    of G and the product of the lengths never exceeds |G|.  Reaching the
    bound makes it |G|, every level is then its whole orbit, and no
    Schreier generator would add a thing.  A bound never reached changes
    nothing: the run completes and the order is exact.
    """
    chain = StabiliserChain(n)
    for g in generators:
        if g != chain.identity:
            chain.generators.append(g)
            if all(g[b] == b for b in chain.base):
                chain._add_level(_moved_point(g))
    checked: set[tuple[int, int, int]] = set()
    k = len(chain.base) - 1
    while k >= 0:
        transversal = chain.orbit(k)
        if chain.order == order_bound:
            break
        resume = None
        for i in chain._fixing(k):
            s = chain.generators[i]
            for p in list(transversal):
                if (k, i, p) in checked:
                    continue
                schreier = _compose(chain._inverse_of(k, s[p]), _compose(s, transversal[p]))
                residue, level = chain.sift(schreier, k + 1)
                if residue != chain.identity:
                    chain.generators.append(residue)
                    if level == len(chain.base):
                        chain._add_level(_moved_point(residue))
                    resume = level
                    break
                checked.add((k, i, p))
            if resume is not None:
                break
        k = k - 1 if resume is None else resume
    return chain
