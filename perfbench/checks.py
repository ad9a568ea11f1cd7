"""Output checks made apart from the program.

Every check recomputes what an op should print from the slot degrees alone,
or tests a property the paper proves about N(G).  Nothing here imports
lattower: the admissible sign-subspace counts a(w) come from Gaussian
binomials and inclusion-exclusion, not from the program's GF(2) code.

A check raises CheckFailed with a one-line reason; returning means the
output passed.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, prod


class CheckFailed(Exception):
    """An op's output disagrees with the independent computation."""


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


# ---------------------------------------------------------------- closed forms


def chain_len(degree: int) -> int:
    """Normal subgroups of S_degree: 1 < V < A4 < S4 at degree 4, else 1 < A_n < S_n."""
    return 4 if degree == 4 else 3


def chief_orders(degree: int) -> set[int]:
    """Orders of the chief factors of S_degree (the order ratio of a chain step)."""
    if degree == 3:
        return {3, 2}
    if degree == 4:
        return {4, 3, 2}
    return {factorial(degree) // 2, 2}


def _gaussian_binomial(m: int, r: int) -> int:
    num = prod((1 << (m - i)) - 1 for i in range(r))
    den = prod((1 << (i + 1)) - 1 for i in range(r))
    return num // den


@lru_cache(maxsize=None)
def subspace_count(m: int) -> int:
    """All subspaces of GF(2)^m."""
    return sum(_gaussian_binomial(m, r) for r in range(m + 1))


@lru_cache(maxsize=None)
def _no_unit_count(w: int) -> int:
    # Subspaces containing the units e_j (j in S) are the subspaces of the
    # quotient by their span, so inclusion-exclusion over S counts those
    # containing no unit vector.
    return sum((-1) ** k * comb(w, k) * subspace_count(w - k) for k in range(w + 1))


@lru_cache(maxsize=None)
def admissible_count(w: int) -> int:
    """a(w): subspaces of GF(2)^w with no unit vector and no dead coordinate.

    A subspace with no unit vector whose dead coordinates are exactly D is an
    admissible subspace on the other w - |D| coordinates, so the no-unit
    counts are binomial sums of a(w), which Moebius inversion undoes.
    """
    return sum((-1) ** k * comb(w, k) * _no_unit_count(w - k) for k in range(w + 1))


def census(degrees: tuple[int, ...]) -> dict[str, int]:
    """Closed-form census of N(S_{d_1} x ... x S_{d_T})."""
    t = len(degrees)
    lens = [chain_len(d) for d in degrees]
    total = 0
    for w in range(t + 1):
        a = admissible_count(w)
        if a == 0:
            continue
        for coupled in combinations(range(t), w):
            total += a * prod(lens[s] for s in range(t) if s not in coupled)
    sub_products = prod(lens)
    sign_parity = 2**t - t - 1
    return {
        "total": total,
        "sub_products": sub_products,
        "sign_parity": sign_parity,
        "mixed": total - sub_products - sign_parity,
    }


def spec_literal(degrees: tuple[int, ...]) -> str:
    """The canonical literal the program prints: highest degree first."""
    if not degrees:
        return "1"
    parts = []
    for d in sorted(set(degrees), reverse=True):
        k = degrees.count(d)
        parts.append(f"S{d}" if k == 1 else f"S{d}^{k}")
    return "*".join(parts)


def slot_classes(degrees: tuple[int, ...]) -> tuple[int, int]:
    """(a4, B): degree-4 slots and all other slots."""
    a4 = sum(1 for d in degrees if d == 4)
    return a4, len(degrees) - a4


def group_order(degrees: tuple[int, ...]) -> int:
    return prod(factorial(d) for d in degrees)


# ---------------------------------------------------------------- enumerate


_CENSUS_RE = re.compile(
    r"total (\d+): sub-products (\d+), sign-parity (\d+), mixed (\d+)\n"
)


def check_census_text(out: str, degrees: tuple[int, ...]) -> None:
    m = _CENSUS_RE.fullmatch(out)
    _require(m is not None, f"census line not recognised: {out[:80]!r}")
    got = dict(zip(("total", "sub_products", "sign_parity", "mixed"), map(int, m.groups())))
    want = census(degrees)
    _require(got == want, f"census {got} != closed form {want}")


# ---------------------------------------------------------------- Hasse diagrams


def check_hasse_order(orders: list[int], edges: list[tuple[int, int]], degrees) -> None:
    """Properties of N(G) the paper proves, read off the covering edges.

    Count equals the closed-form census; one bottom of order 1 with exactly T
    upper covers, one top of order |G| with exactly 2^T - 1 lower covers;
    graded of height sum(len chain - 1); every cover's order ratio a chief
    factor order; and, N(G) being modular, two distinct upper covers of one
    element have exactly one common upper cover, and dually.  With a unique
    bottom and top, the last condition fails whenever a cover edge is missing.
    """
    n = len(orders)
    t = len(degrees)
    _require(n == census(degrees)["total"], f"{n} elements, census {census(degrees)['total']}")
    ratios = set().union(*(chief_orders(d) for d in degrees)) if degrees else set()
    up: list[set[int]] = [set() for _ in range(n)]
    down: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        _require(0 <= i < n and 0 <= j < n and i != j, f"bad edge {i}->{j}")
        _require(j not in up[i], f"repeated edge {i}->{j}")
        q, r = divmod(orders[j], orders[i])
        _require(r == 0 and q in ratios, f"cover {i}->{j} has order ratio {orders[j]}/{orders[i]}")
        up[i].add(j)
        down[j].add(i)
    bottoms = [i for i in range(n) if not down[i]]
    tops = [i for i in range(n) if not up[i]]
    _require(len(bottoms) == 1 and len(tops) == 1, f"{len(bottoms)} minimal, {len(tops)} maximal")
    bottom, top = bottoms[0], tops[0]
    _require(orders[bottom] == 1, "bottom is not the trivial subgroup")
    _require(orders[top] == group_order(degrees), "top is not the whole group")
    _require(len(up[bottom]) == t, f"bottom has {len(up[bottom])} upper covers, T = {t}")
    _require(len(down[top]) == 2**t - 1, f"top has {len(down[top])} lower covers")
    rank = [-1] * n
    for j in sorted(range(n), key=orders.__getitem__):
        below = {rank[i] for i in down[j]}
        _require(len(below) <= 1 and -1 not in below, f"element {j} is not graded")
        rank[j] = below.pop() + 1 if below else 0
    height = sum(chain_len(d) - 1 for d in degrees)
    _require(rank[top] == height, f"height {rank[top]}, expected {height}")
    for covers, other in ((up, "upper"), (down, "lower")):
        for x in range(n):
            for a, b in combinations(sorted(covers[x]), 2):
                _require(
                    len(covers[a] & covers[b]) == 1,
                    f"{other} covers {a}, {b} of {x} have {len(covers[a] & covers[b])} common {other} covers",
                )


_DOT_NODE = re.compile(r'  n(\d+) \[label="(sub-product|sign-parity|mixed):(\d+)"\];')
_DOT_EDGE = re.compile(r"  n(\d+) -> n(\d+);")


def parse_dot(out: str) -> tuple[list[int], list[tuple[int, int]]]:
    lines = out.split("\n")
    _require(lines[:2] == ["digraph lattice {", "  rankdir=BT;"], "DOT header")
    _require(lines[-2:] == ["}", ""], "DOT footer")
    orders: list[int] = []
    edges: list[tuple[int, int]] = []
    for line in lines[2:-2]:
        m = _DOT_EDGE.fullmatch(line)
        if m:
            edges.append((int(m.group(1)), int(m.group(2))))
            continue
        m = _DOT_NODE.fullmatch(line)
        _require(m is not None and not edges, f"unexpected DOT line {line!r}")
        _require(int(m.group(1)) == len(orders), f"node n{m.group(1)} out of sequence")
        orders.append(int(m.group(3)))
    return orders, edges


def check_hasse_dot(out: str, degrees: tuple[int, ...]) -> None:
    orders, edges = parse_dot(out)
    check_hasse_order(orders, edges, degrees)


_POSITION_SIZE = {"triv": lambda d: 1, "v4": lambda d: 4, "alt": lambda d: factorial(d) // 2,
                  "full": factorial}


def check_enumerate_json(out: str, degrees: tuple[int, ...]) -> None:
    """Census, slots, every element's order and family from its triple, and the Hasse edges."""
    data = json.loads(out)
    t = len(degrees)
    want = census(degrees)
    _require(data["spec"] == spec_literal(degrees), f"spec {data['spec']}")
    _require([s["degree"] for s in data["slots"]] == list(degrees), "slot degrees")
    _require(data["census"] == want, f"census {data['census']} != closed form {want}")
    elements = data["elements"]
    _require(len(elements) == want["total"], f"{len(elements)} elements")
    families = {"sub-product": 0, "sign-parity": 0, "mixed": 0}
    seen = set()
    orders = []
    for i, e in enumerate(elements):
        _require(e["index"] == i, f"element {i} has index {e['index']}")
        j = e["triple"]["J"]
        p = {int(s): tok for s, tok in e["triple"]["P"].items()}
        h = e["triple"]["H"]
        _require(sorted(j + list(p)) == list(range(t)), f"element {i}: J and P do not partition")
        _require(all(tok != "v4" or degrees[s] == 4 for s, tok in p.items()), f"element {i}: v4")
        _require(all(len(row) == len(j) and set(row) <= {"0", "1"} for row in h), f"element {i}: H")
        order = 2 ** len(h) * prod(factorial(degrees[s]) // 2 for s in j)
        order *= prod(_POSITION_SIZE[tok](degrees[s]) for s, tok in p.items())
        _require(e["order"] == order, f"element {i}: order {e['order']} != {order}")
        if not j:
            family = "sub-product"
        elif all(tok == "full" for tok in p.values()) and len(h) == len(j) - 1 and all(
            row.count("1") % 2 == 0 for row in h
        ):
            family = "sign-parity"
        else:
            family = "mixed"
        _require(e["family"] == family, f"element {i}: family {e['family']} != {family}")
        families[family] += 1
        seen.add((tuple(j), tuple(sorted(p.items())), tuple(h)))
        orders.append(order)
    _require(len(seen) == len(elements), "repeated triple")
    got = {"sub_products": families["sub-product"], "sign_parity": families["sign-parity"],
           "mixed": families["mixed"]}
    _require(got == {k: want[k] for k in got}, f"family counts {got}")
    check_hasse_order(orders, [tuple(edge) for edge in data["hasse_edges"]], degrees)


# ---------------------------------------------------------------- automorphisms


_AUT_RE = re.compile(
    r"spec (\S+): LatAut order (\d+) = (\d+)!\*(\d+)! "
    r"\(brute force (\d+), constructive (\d+)\) (match|MISMATCH)\n(?:generators: (.*)\n)?"
)


def check_aut_text(out: str, degrees: tuple[int, ...]) -> None:
    """Both routes count a4! * B! automorphisms and the verdict is match."""
    m = _AUT_RE.fullmatch(out)
    _require(m is not None, f"aut output not recognised: {out[:80]!r}")
    spec, predicted, a4, b, brute, constructive, verdict, gens = m.groups()
    want_a4, want_b = slot_classes(degrees)
    want = factorial(want_a4) * factorial(want_b)
    _require(spec == spec_literal(degrees), f"spec {spec}")
    _require((int(a4), int(b)) == (want_a4, want_b), f"classes {a4}, {b}")
    _require(int(predicted) == want, f"predicted {predicted} != {want}")
    _require(int(brute) == want, f"brute force {brute} != {want}")
    _require(int(constructive) == want, f"constructive {constructive} != {want}")
    _require(verdict == "match", f"verdict {verdict}")
    n_gens = len(gens.split(", ")) if gens else 0
    _require(n_gens == max(want_a4 - 1, 0) + max(want_b - 1, 0), f"{n_gens} generators")


# LatAut orders along the sharp tower S4^2 x S_d^2 -> C2^2 -> S3 -> 1 -> 1:
# the product formula gives 2!*2!, the diamond N(C2^2) has the symmetry
# group S3, and the chains N(S3) and N(1) are rigid.
SHARP_TOWER_ORDERS = (4, 6, 1, 1)


def check_tower_steps(reports: list[dict], degrees: tuple[int, ...] = ()) -> None:
    """verify_step_against_lattice along the sharp tower: every step ran and matched."""
    got = [r["observed_order"] for r in reports]
    _require(all(r["skipped"] is None for r in reports), "a tower step was skipped")
    _require(all(r["match"] for r in reports), "a tower step reported a mismatch")
    _require(tuple(got) == SHARP_TOWER_ORDERS, f"observed orders {got}")
    _require(all(r["predicted_order"] == o for r, o in zip(reports, got)), "prediction")


# ---------------------------------------------------------------- tower


_TOWER_RE = re.compile(r"(G_0 = .*) \((\d+) steps?(, sharp)?\)\n")
_FACTOR_RE = re.compile(r"(C2|S(\d+))(?:\^(\d+))?")


def _factor_degrees(name: str) -> list[int]:
    """Degrees >= 2 of a printed node such as ``C2*S3`` or ``S4^2*S3``."""
    if name == "1":
        return []
    out = []
    for part in name.split("*"):
        m = _FACTOR_RE.fullmatch(part)
        _require(m is not None, f"tower node {name!r}")
        degree = 2 if m.group(1) == "C2" else int(m.group(2))
        out += [degree] * int(m.group(3) or 1)
    return sorted(out)


def check_tower_text(out: str, degrees: tuple[int, ...], sharp: bool = False) -> None:
    """At most three steps to 1, and G_1 = S_a4 x S_B read from the spec.

    ``sharp`` asks for exactly three steps: S4^2 x S3^2 needs all three.
    """
    m = _TOWER_RE.fullmatch(out)
    _require(m is not None, f"tower output not recognised: {out[:80]!r}")
    nodes = m.group(1).split(" → ")
    steps = int(m.group(2))
    _require(len(nodes) == steps + 1, f"{len(nodes)} nodes for {steps} steps")
    for i, node in enumerate(nodes):
        _require(node.startswith(f"G_{i} = "), f"node {i}: {node!r}")
    names = [node.split(" = ", 1)[1] for node in nodes]
    _require(names[0] == spec_literal(degrees), f"G_0 = {names[0]}")
    _require(names[-1] == "1" and "1" not in names[:-1], "tower does not end at 1")
    _require(steps <= 3, f"{steps} steps")
    _require(bool(m.group(3)) == (steps == 3), "sharp flag")
    if sharp:
        _require(steps == 3, f"{steps} steps from a sharp start")
    if degrees:
        want = sorted(x for x in slot_classes(degrees) if x >= 2)
        _require(_factor_degrees(names[1]) == want, f"G_1 = {names[1]}, want S_a4 x S_B")


# ---------------------------------------------------------------- oracle


def check_oracle_json(out: str, degrees: tuple[int, ...]) -> None:
    """Verdict ok, subgroup count = closed-form census, all n(n+1)/2 pairs refereed."""
    data = json.loads(out)
    n = census(degrees)["total"]
    _require(data["ok"] is True, "oracle verdict is not ok")
    _require(data["spec"] == spec_literal(degrees), f"spec {data['spec']}")
    _require(data["group_order"] == group_order(degrees), f"group order {data['group_order']}")
    _require(data["oracle_count"] == n, f"oracle found {data['oracle_count']}, census {n}")
    _require(data["enumerated_count"] == n, f"enumerated {data['enumerated_count']}, census {n}")
    _require(data["pairs_checked"] == n * (n + 1) // 2, f"{data['pairs_checked']} pairs")


# Automorphisms of the lattices of the small groups the tower visits: the
# diamond N(C2^2) has S3, each N(C2 x S_m) has one mirror, N(C2) is a chain.
LEMMA_AUTOMORPHISMS = {"C2": 1, "C2^2": 6, "C2xS3": 2, "C2xS4": 2, "C2xS5": 2}

_LEMMA_RE = re.compile(r"(\S+): (\d+) elements, (\d+) automorphisms")


def check_lemmas_text(out: str, degrees: tuple[int, ...] = ()) -> None:
    got = {}
    for line in out.rstrip("\n").split("\n"):
        m = _LEMMA_RE.fullmatch(line)
        _require(m is not None, f"lemmas line {line!r}")
        got[m.group(1)] = int(m.group(3))
    _require(got == LEMMA_AUTOMORPHISMS, f"lemma automorphisms {got}")
