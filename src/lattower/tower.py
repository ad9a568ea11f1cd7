"""The LatAut tower: iterate G -> LatAut(G) until the trivial group.

For a tower group the automorphism group of N(G) is S_a4 x S_B, where a4
counts the degree-4 slots and B the rest.  That group is itself a product of
at most two symmetric groups, possibly of degree below 3, so tower nodes
after the start are plain pairs (a, b) standing for S_a x S_b with S_0 and
S_1 trivial and S_2 = C2.  One more application of LatAut lands in one of six
isomorphism types whose automorphism lattices are known outright, which is
why every tower dies by step three.  The bound is sharp: S4^2 x S3^2 needs
all three steps.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import factorial
from typing import Union

from .census import check_lattice_size
from .errors import NonTermination, TooLarge
from .group_spec import TowerGroupSpec, format_spec, spec_of_degrees

__all__ = [
    "StartNode",
    "PairNode",
    "TowerNode",
    "TowerRun",
    "is_trivial_node",
    "latauto_step",
    "run_tower",
    "format_node",
    "format_run",
    "StepReport",
    "verify_step_against_lattice",
    "MAX_TOWER_STEPS",
]

# A defensive cap: every tower dies by step three.
MAX_TOWER_STEPS = 10


@dataclass(frozen=True)
class StartNode:
    """The initial tower group, with its full spec."""

    spec: TowerGroupSpec


@dataclass(frozen=True)
class PairNode:
    """S_a x S_b; the a coordinate descends from degree-4 slots."""

    a: int
    b: int


TowerNode = Union[StartNode, PairNode]


def is_trivial_node(node: TowerNode) -> bool:
    if isinstance(node, StartNode):
        return node.spec.is_trivial
    return node.a <= 1 and node.b <= 1


def latauto_step(node: TowerNode) -> PairNode:
    """One application of LatAut, by isomorphism type of the node.

    A start node maps to (a4, B) by the product formula.  A pair falls into
    one of six types: trivial, C2 and a single S_n all have rigid lattices;
    C2^2 carries the diamond, whose automorphism group is S3; C2 x S_m has
    one mirror symmetry, giving C2 (encoded (0, 2), since this C2 has no
    degree-4 ancestry); and a genuine two-factor tower group goes through the
    product formula again.
    """
    if isinstance(node, StartNode):
        return PairNode(node.spec.a4, node.spec.b)
    lo, hi = sorted((node.a, node.b))
    if lo <= 1:
        # trivial group, C2, or a single S_n: the lattice is a chain
        return PairNode(0, 0)
    if (lo, hi) == (2, 2):
        return PairNode(0, 3)
    if lo == 2:
        return PairNode(0, 2)
    a4 = (1 if node.a == 4 else 0) + (1 if node.b == 4 else 0)
    b = (1 if node.a >= 3 and node.a != 4 else 0) + (1 if node.b >= 3 and node.b != 4 else 0)
    return PairNode(a4, b)


@dataclass(frozen=True)
class TowerRun:
    """A complete tower: nodes[0] is the start, the last node is trivial."""

    nodes: tuple[TowerNode, ...]

    @property
    def steps(self) -> int:
        return len(self.nodes) - 1

    @property
    def sharp(self) -> bool:
        return self.steps == 3


def run_tower(start: TowerNode) -> TowerRun:
    """Iterate latauto_step until the trivial group, at most ``MAX_TOWER_STEPS`` times."""
    nodes: list[TowerNode] = [start]
    while not is_trivial_node(nodes[-1]):
        if len(nodes) > MAX_TOWER_STEPS:
            raise NonTermination(
                f"tower exceeded {MAX_TOWER_STEPS} steps from {format_node(start)}"
            )
        nodes.append(latauto_step(nodes[-1]))
    return TowerRun(tuple(nodes))


def _factor_name(n: int) -> str:
    return "C2" if n == 2 else f"S{n}"


def format_node(node: TowerNode) -> str:
    if isinstance(node, StartNode):
        return format_spec(node.spec)
    parts = [_factor_name(x) for x in sorted((node.a, node.b), reverse=True) if x >= 2]
    if not parts:
        return "1"
    if len(parts) == 2 and parts[0] == parts[1]:
        return f"{parts[0]}^2"
    return "*".join(parts)


def format_run(run: TowerRun) -> str:
    """One line, e.g.

    ``G_0 = S4^2*S3^2 → G_1 = C2^2 → G_2 = S3 → G_3 = 1 (3 steps, sharp)``.
    """
    chain = " → ".join(f"G_{i} = {format_node(node)}" for i, node in enumerate(run.nodes))
    plural = "step" if run.steps == 1 else "steps"
    suffix = f"({run.steps} {plural}, sharp)" if run.sharp else f"({run.steps} {plural})"
    return f"{chain} {suffix}"


@dataclass(frozen=True)
class StepReport:
    """Outcome of checking one step against an actual automorphism count."""

    node: str
    result: str
    predicted_order: int
    observed_order: int | None
    skipped: str | None
    match: bool | None

    def to_json_dict(self) -> dict:
        return asdict(self)


def _node_order(node: TowerNode, max_size: int | None) -> int:
    """The order of the searched automorphism group of the node's normal-subgroup lattice.

    Tower groups are searched on their standard context in closed form, so
    no element is enumerated; their census is checked against ``max_size``
    first only when a bound is given, and ``closed_form_context`` refuses
    past its own slot bound.  The census and the context read a degree only
    as 4 or not 4, so a pair S_a x S_b with a, b >= 3 is searched as its
    slot-class representative, each degree other than 4 taken as 3: S25 x S3
    as S3^2.  Anything with a C2 factor goes through the permutation oracle,
    within its default order bound, and ``automorphism_group``; the trivial
    group is searched as the 0-slot spec, whose context has no point.
    TooLarge propagates to the caller.

    The search modules are loaded here, on the first verified step, by one
    import statement, so ``tower`` and ``enumerate`` as text never compile
    them.  No step compiles ``lattice_core``: ``perm_oracle`` loads it only
    to enumerate a lattice for ``differential_validate``.
    """
    from . import autgroup, context, perm_oracle

    if isinstance(node, StartNode):
        spec = node.spec
    else:
        degrees = tuple(sorted(x for x in (node.a, node.b) if x >= 2))
        if degrees[:1] == (2,):
            poset = perm_oracle.normal_subgroup_poset(perm_oracle.ConcreteGroup(degrees))
            return autgroup.automorphism_group(poset).order
        spec = spec_of_degrees(4 if d == 4 else 3 for d in degrees)
    if max_size is not None:
        check_lattice_size(spec, max_size=max_size)
    return autgroup._search(context.closed_form_context(spec)).order


def verify_step_against_lattice(node: TowerNode, max_size: int | None = None) -> StepReport:
    """Check one latauto_step answer against the searched automorphism group.

    The step claims LatAut of the node is S_a x S_b of order a! * b!; the
    check recomputes the node's lattice, or for a tower group its standard
    context in closed form, and reads the order of its automorphism group
    off the stabiliser chain of the order-only search (``_search``, or
    ``automorphism_group`` on a lattice), without listing the automorphisms.  Nodes
    beyond the size bounds are reported as skipped, with ``match`` None,
    rather than guessed at: a tower group past the closed-form context's
    slot bound, or past ``max_size`` elements when one is given, and a group
    with a C2 factor past the oracle's order bound.
    """
    result = latauto_step(node)
    predicted = factorial(result.a) * factorial(result.b)
    try:
        observed, skipped = _node_order(node, max_size=max_size), None
    except TooLarge as exc:
        observed, skipped = None, str(exc)
    return StepReport(
        node=format_node(node),
        result=format_node(result),
        predicted_order=predicted,
        observed_order=observed,
        skipped=skipped,
        match=observed == predicted if skipped is None else None,
    )
