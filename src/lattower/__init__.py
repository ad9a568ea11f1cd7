"""Normal-subgroup lattices of products of symmetric groups.

The package computes the full lattice N(G) of a tower group G (a finite
product of symmetric groups of degree at least 3), its group of lattice
automorphisms, and the tower obtained by iterating G -> LatAut(G), which
reaches the trivial group within three steps.  An independent permutation
oracle recomputes small cases from scratch for differential validation.

The names below are loaded from their modules on first access (PEP 562), so
importing a submodule, such as ``lattower.cli``, compiles only the modules
it imports itself.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# module -> the names re-exported from it
_EXPORTS = {
    "errors": "LatTowerError",
    "group_spec": "ChainPosition FactorSlot TowerGroupSpec chain make_spec parse_spec format_spec",
    "census": "Census census_of",
    "lattice_core": "Lattice enumerate_lattice",
    "triples": "AdmissibleTriple Profile LatticeElement leq meet join",
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    return value
