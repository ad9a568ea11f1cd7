"""GF(2) linear algebra on int bitsets.

Sign patterns of a tower group live in {+1,-1}^T; additively a pattern is an
int whose bit i is 1 exactly when slot i carries an odd permutation.  A
Subspace stores its reduced row echelon basis (pivot = lowest set bit, pivots
strictly increasing, each pivot appearing in its own row only), which is a
canonical form: two subspaces are equal iff their bases are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from operator import and_
from typing import Iterable, Iterator

from .errors import BadCoordinate, WidthMismatch

__all__ = [
    "Subspace",
    "span",
    "zero_subspace",
    "unit_span",
    "parity_kernel",
    "iter_subspaces",
]


def _pivot(row: int) -> int:
    return (row & -row).bit_length() - 1


def _reduce(vectors: Iterable[int]) -> tuple[int, ...]:
    """Reduced row echelon basis of the span, rows sorted by pivot."""
    rows: list[int] = []
    for v in vectors:
        for r in rows:
            if v & (r & -r):
                v ^= r
        if v:
            p = v & -v
            rows = [r ^ v if r & p else r for r in rows]
            rows.append(v)
    rows.sort(key=_pivot)
    return tuple(rows)


def _lift(row: int, coords: tuple[int, ...]) -> int:
    """Embed a vector on the listed coordinates: bit j of row goes to bit coords[j]."""
    w = 0
    for j, c in enumerate(coords):
        if (row >> j) & 1:
            w |= 1 << c
    return w


@dataclass(frozen=True)
class Subspace:
    """Subspace of GF(2)^width in canonical reduced echelon form."""

    width: int
    basis: tuple[int, ...]

    def __post_init__(self):
        last_pivot = -1
        mask = (1 << self.width) - 1
        for row in self.basis:
            if row == 0 or row & ~mask:
                raise WidthMismatch(f"row {row:#x} outside width {self.width}")
            p = _pivot(row)
            if p <= last_pivot:
                raise WidthMismatch("basis rows not in echelon order")
            last_pivot = p
        for row in self.basis:
            for other in self.basis:
                if other is not row and other & (row & -row):
                    raise WidthMismatch("basis not fully reduced")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        return 1 << len(self.basis)

    def active_mask(self) -> int:
        """Coordinates where some vector of the subspace is odd."""
        m = 0
        for row in self.basis:
            m |= row
        return m

    def contains(self, v: int) -> bool:
        for r in self.basis:
            if v & (r & -r):
                v ^= r
        return v == 0

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.width != self.width:
            raise WidthMismatch(f"widths {other.width} and {self.width} differ")
        return all(self.contains(r) for r in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        if other.width != self.width:
            raise WidthMismatch(f"widths {self.width} and {other.width} differ")
        return Subspace(self.width, _reduce(self.basis + other.basis))

    def annihilator(self) -> "Subspace":
        """All functionals vanishing on the subspace, as bit vectors."""
        pivots = [_pivot(r) for r in self.basis]
        pivot_set = set(pivots)
        out = []
        for q in range(self.width):
            if q in pivot_set:
                continue
            v = 1 << q
            for p, r in zip(pivots, self.basis):
                if (r >> q) & 1:
                    v |= 1 << p
            out.append(v)
        return Subspace(self.width, _reduce(out))

    def intersect(self, other: "Subspace") -> "Subspace":
        # computed through duals: (U + W)^perp = U^perp with W^perp summed
        if other.width != self.width:
            raise WidthMismatch(f"widths {self.width} and {other.width} differ")
        return self.annihilator().sum(other.annihilator()).annihilator()

    def project(self, coords: tuple[int, ...]) -> "Subspace":
        """Restrict to the listed coordinates (strictly increasing)."""
        for a, b in zip(coords, coords[1:]):
            if b <= a:
                raise BadCoordinate(f"coordinates not strictly increasing: {coords}")
        for c in coords:
            if not 0 <= c < self.width:
                raise BadCoordinate(f"coordinate {c} outside width {self.width}")
        vectors = []
        for row in self.basis:
            v = 0
            for j, c in enumerate(coords):
                if (row >> c) & 1:
                    v |= 1 << j
            vectors.append(v)
        return Subspace(len(coords), _reduce(vectors))

    def elements(self) -> tuple[int, ...]:
        return _elements_of(self)

    def to_strings(self) -> tuple[str, ...]:
        """Each basis row as a string of 0s and 1s, coordinate 0 first."""
        return tuple(f"{r:0{self.width}b}"[::-1] for r in self.basis)


def _span(basis: Iterable[int]) -> list[int]:
    """Every vector of the span of independent rows: entry m XORs the rows at the bits of m."""
    out = [0]
    for row in basis:
        out += [v ^ row for v in out]
    return out


@lru_cache(maxsize=None)
def _elements_of(s: Subspace) -> tuple[int, ...]:
    return tuple(_span(s.basis))


@lru_cache(maxsize=None)
def _perps(width: int) -> tuple[int, ...]:
    """v-perp for every v, each as a 2^width-bit mask: bit u is set when u.v is even.

    The annihilator of a span is the AND of these masks over any spanning
    set, so that of W + <v> is that of W ANDed with ``_perps(width)[v]``.
    Entry 0 has every bit set.
    """
    size = 1 << width
    odd = [0] * size  # odd[v]: the u with u.v odd, additive in v
    for v in range(1, size):
        low = v & -v
        if v == low:  # the u with bit s set: every other run of 2^s bits, from u = 2^s
            odd[v] = sum(((1 << v) - 1) << u for u in range(v, size, 2 * v))
        else:
            odd[v] = odd[v ^ low] ^ odd[low]
    everything = (1 << size) - 1
    return tuple(everything ^ mask for mask in odd)


def _annihilator_mask(width: int, rows: Iterable[int]) -> int:
    """The annihilator of the span of the rows as a 2^width-bit mask, the AND of their perps.

    A span is the annihilator of its annihilator, so the mask pins it down.
    """
    perps = _perps(width)
    return reduce(and_, map(perps.__getitem__, rows), perps[0])


def span(width: int, vectors: Iterable[int]) -> Subspace:
    raw = list(vectors)
    for v in raw:
        if not 0 <= v < (1 << width):
            raise WidthMismatch(f"value {v:#x} outside width {width}")
    return Subspace(width, _reduce(raw))


def zero_subspace(width: int) -> Subspace:
    return Subspace(width, ())


def unit_span(width: int, mask: int) -> Subspace:
    """Span of the unit vectors at the set bits of mask."""
    if not 0 <= mask < (1 << width):
        raise WidthMismatch(f"mask {mask:#x} outside width {width}")
    return Subspace(width, tuple(1 << i for i in range(width) if (mask >> i) & 1))


def parity_kernel(width: int) -> Subspace:
    """Patterns with an even number of odd slots; the product-one subgroup."""
    return span(width, [(1 << i) | (1 << (i + 1)) for i in range(width - 1)])


def iter_subspaces(width: int) -> Iterator[Subspace]:
    """All subspaces of GF(2)^width, in a fixed deterministic order.

    Enumerates echelon bases directly: choose the pivot set, then every
    assignment of the free entries above the staircase.
    """
    yield zero_subspace(width)
    for d in range(1, width + 1):
        for pivots in combinations(range(width), d):
            pivot_set = set(pivots)
            free = [
                (i, q)
                for i, p in enumerate(pivots)
                for q in range(p + 1, width)
                if q not in pivot_set
            ]
            for assignment in range(1 << len(free)):
                rows = [1 << p for p in pivots]
                for t, (i, q) in enumerate(free):
                    if (assignment >> t) & 1:
                        rows[i] |= 1 << q
                yield Subspace(width, tuple(rows))
