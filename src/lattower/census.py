"""The census of N(G) in closed form, and the lattice-size bound it decides.

The census counts the normal subgroups of a tower group by family without
building one of them, so ``enumerate`` as text and the tower read it alone.
``check_lattice_size`` compares its total with a bound before a lattice is
enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import TooLarge, decimal
from .group_spec import TowerGroupSpec

__all__ = [
    "MAX_CENSUS_SLOTS",
    "DEFAULT_MAX_LATTICE",
    "Census",
    "census_of",
    "check_lattice_size",
]

# census_of costs about T^3 bit operations: 2 ms on S3^240, 0.19 s on
# S4^150*S3^150 and 1.7 s on S4^250*S3^250 (Python 3.11.7).  From 240 slots
# on, every total is past the interpreter's 4,300-digit int-to-str limit, so
# this bound refuses no census that could be printed.
MAX_CENSUS_SLOTS = 300

# The default of `--max-lattice` in the CLI's option table; `check_lattice_size` takes
# no default bound.
# Admits S3^6 (6,482 elements) and S4^3*S3^3 (9,820): `hasse` took 0.26-0.33 s
# and 0.37-0.38 s (22 and 23 MB max RSS) and `enumerate --format json`
# 0.25-0.33 s and 0.34-0.37 s (24 and 28 MB) on them, on 2 cores with
# Python 3.11.7.  Refuses S4^4*S3^2 (11,384) and everything larger.
DEFAULT_MAX_LATTICE = 10_000


@dataclass(frozen=True)
class Census:
    sub_products: int
    sign_parity: int
    mixed: int
    total: int


def _galois_numbers(m: int) -> list[int]:
    """G(0..m), where G(k) counts the subspaces of GF(2)^k.

    These are the Galois numbers of Goldman and Rota ("The number of
    subspaces of a vector space", 1969), G(k+1) = 2 G(k) + (2^k - 1) G(k-1).
    """
    g = [1, 2]
    for k in range(1, m):
        g.append(2 * g[k] + ((1 << k) - 1) * g[k - 1])
    return g[: m + 1]


def census_of(spec: TowerGroupSpec) -> Census:
    """The census of N(G) in closed form, without building an element.

    Of a triple (J, P, H) only H depends on more than the slot classes: J
    takes i of the a4 class-A slots and j of the B class-B slots, H is one
    of the a(i + j) admissible sign subgroups, and P puts each uncoupled
    slot on its chain, 4 positions at degree 4 and 3 elsewhere.  So

        total = sum_{i, j} C(a4, i) C(B, j) a(i + j) 4^(a4 - i) 3^(B - j).

    A coordinate j of H fails admissibility when H contains the unit vector
    e_j or is zero at j, never both, so by inclusion-exclusion
    a(w) = sum_k (-2)^k C(w, k) G(w - k), with G(m) the number of subspaces
    of GF(2)^m (the Galois numbers).  So a(w) is the linear map
    x^m -> G(m) applied to (x - 2)^w, and the total is that map applied to
    (x + 4 - 2)^a4 (x + 3 - 2)^B:

        total = sum_{i, j} C(a4, i) C(B, j) 2^(a4 - i) G(i + j),

    O(a4 B) terms with no a(w) at all.  The sub-products are the J = {}
    term, 4^a4 3^B.  There is one sign-parity element per J with |J| >= 2,
    2^T - T - 1 of them, and the rest are mixed; ``enumerate_lattice``'s
    family count referees this.  Raises TooLarge past ``MAX_CENSUS_SLOTS``,
    before any Galois number is computed.
    """
    if spec.num_slots > MAX_CENSUS_SLOTS:
        raise TooLarge(f"{spec.num_slots} slots exceeds the census bound {MAX_CENSUS_SLOTS}")
    a4, b = spec.a4, spec.b
    g = _galois_numbers(a4 + b)
    total = sum(
        comb(a4, i) * comb(b, j) * 2 ** (a4 - i) * g[i + j]
        for i in range(a4 + 1)
        for j in range(b + 1)
    )
    sub_products = 4**a4 * 3**b
    sign_parity = 2**spec.num_slots - spec.num_slots - 1
    return Census(
        sub_products=sub_products,
        sign_parity=sign_parity,
        mixed=total - sub_products - sign_parity,
        total=total,
    )


def check_lattice_size(spec: TowerGroupSpec, max_size: int) -> None:
    """Raise TooLarge unless N(G)'s closed-form census fits ``max_size``.

    This is the one check of the lattice-size bound, made before anything
    is built: ``hasse`` and ``enumerate --format json`` make it before they
    enumerate, and ``tower.verify_step_against_lattice``, when given a
    bound, before it builds a tower group's closed-form context.
    ``census_of`` refuses past its own fixed slot bound.
    """
    total = census_of(spec).total
    if total > max_size:
        elements = decimal(total) or f"a {total.bit_length()}-bit number of"
        raise TooLarge(f"{elements} elements exceeds the lattice bound {max_size}")
