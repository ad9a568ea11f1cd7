"""Normal-subgroup lattices of products of symmetric groups.

The package computes the full lattice N(G) of a tower group G (a finite
product of symmetric groups of degree at least 3), its group of lattice
automorphisms, and the tower obtained by iterating G -> LatAut(G), which
reaches the trivial group within three steps.  An independent permutation
oracle recomputes small cases from scratch for differential validation.
"""

from __future__ import annotations

from .errors import LatTowerError
from .group_spec import (
    ChainPosition,
    FactorSlot,
    TowerGroupSpec,
    chain,
    format_spec,
    make_spec,
    parse_spec,
)
from .lattice_core import (
    AdmissibleTriple,
    Census,
    Lattice,
    LatticeElement,
    Profile,
    census_of,
    enumerate_lattice,
    join,
    leq,
    meet,
)

__version__ = "0.1.0"

__all__ = [
    "LatTowerError",
    "ChainPosition",
    "FactorSlot",
    "TowerGroupSpec",
    "chain",
    "make_spec",
    "parse_spec",
    "format_spec",
    "AdmissibleTriple",
    "Profile",
    "LatticeElement",
    "Census",
    "Lattice",
    "enumerate_lattice",
    "census_of",
    "leq",
    "meet",
    "join",
    "__version__",
]
