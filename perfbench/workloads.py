"""The four workloads: their rungs, and how a seed turns them into ops.

A rung is a group given by its slot degrees.  Class-B slots (degree other
than 4) all have three-step chains, so swapping their degree among
{3, 5, 6, 7} keeps the lattice and the work while changing the labels,
element orders and output bytes; the seed picks that degree per rung and
the order of the ops in a pass.  The oracle's cost depends on the group
order, so there the seed only reorders the ops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement

import checks

B_DEGREES = (3, 5, 6, 7)
WORKLOADS = ("census", "hasse", "aut", "oracle")

# Every start spec with at most six slots and degrees 3..7: 462 towers.
TOWER_DEGREES = (3, 4, 5, 6, 7)
TOWER_MAX_SLOTS = 6


@dataclass(frozen=True)
class Op:
    """One operation of a pass.

    ``kind`` selects the CLI subcommand (or, for ``verify-tower``, the
    library call), ``degrees`` the group in canonical slot order.  ``sharp``
    marks the one tower that must take exactly three steps.
    """

    kind: str
    degrees: tuple[int, ...] = ()
    sharp: bool = False

    @property
    def spec(self) -> str:
        return checks.spec_literal(self.degrees)

    @property
    def argv(self) -> list[str]:
        if self.kind == "enumerate-json":
            return ["enumerate", "--spec", self.spec, "--format", "json"]
        if self.kind == "oracle-diff":
            return ["oracle-diff", "--spec", self.spec, "--format", "json"]
        if self.kind == "lemmas":
            return ["lemmas"]
        return [self.kind, "--spec", self.spec]

    @property
    def name(self) -> str:
        return self.kind if self.kind == "lemmas" else f"{self.kind} {self.spec}"


def degrees_of(a4: int = 0, **by_degree: int) -> tuple[int, ...]:
    """Slot degrees in canonical order; ``degrees_of(2, d3=2)`` is S4^2 x S3^2."""
    counts = {4: a4}
    for key, k in by_degree.items():
        d = int(key[1:])
        counts[d] = counts.get(d, 0) + k
    return tuple(d for d in sorted(counts) for _ in range(counts[d]))


def _b(rng: random.Random, a4: int, b: int) -> tuple[int, ...]:
    return degrees_of(a4, **{f"d{rng.choice(B_DEGREES)}": b})


def build_ops(workload: str, seed: int, smallest: bool = False) -> list[Op]:
    """The ops of one pass, in the order the seed gives.

    ``smallest`` keeps only the cheapest rung of each op kind, for the
    benchmark's own smoke test.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "census":
        # S3^7 (59,866 elements) and S4^4*S3^3 (92,092): triples, elements, memory.
        ops = [Op("enumerate", _b(rng, 0, 7)), Op("enumerate", _b(rng, 4, 3))]
        towers = [
            Op("tower", combo, sharp=combo == (3, 3, 4, 4))
            for t in range(TOWER_MAX_SLOTS + 1)
            for combo in combinations_with_replacement(TOWER_DEGREES, t)
        ]
        if smallest:
            ops = [Op("enumerate", _b(rng, 0, 3))]
            towers = [op for op in towers if len(op.degrees) <= 2 or op.sharp]
        ops += towers
    elif workload == "hasse":
        # S3^5 (930 elements) and S4^2*S3^3 (1,308): the O(n^2) order relation.
        ops = [Op("hasse", _b(rng, 0, 5)), Op("enumerate-json", _b(rng, 2, 3))]
        if smallest:
            ops = [Op("hasse", _b(rng, 0, 2)), Op("enumerate-json", _b(rng, 1, 1))]
    elif workload == "aut":
        d1, d2 = rng.sample(B_DEGREES, 2)
        sharp = _b(rng, 2, 2)
        ops = [
            Op("aut", _b(rng, 0, 4)),
            Op("aut", sharp),
            Op("aut", degrees_of(0, **{f"d{d1}": 2, f"d{d2}": 2})),
            Op("aut", degrees_of(4)),
            Op("verify-tower", sharp),
        ]
        if smallest:
            ops = [Op("aut", _b(rng, 0, 2)), Op("verify-tower", sharp)]
    elif workload == "oracle":
        ops = [
            Op("oracle-diff", degrees_of(0, d3=3)),
            Op("oracle-diff", degrees_of(1, d3=2)),
            Op("oracle-diff", degrees_of(2)),
            Op("oracle-diff", degrees_of(0, d3=1, d5=1)),
            Op("lemmas"),
        ]
        if smallest:
            ops = [Op("oracle-diff", degrees_of(0, d3=2)), Op("lemmas")]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops
