"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen; without -s pytest shows them only for failing criteria.  Every check
is exact integer equality, and each criterion carries a wall-clock budget
that is asserted, not just reported.
"""

import time
from contextlib import contextmanager
from functools import reduce
from itertools import combinations, combinations_with_replacement
from math import factorial
from operator import or_

from lattower.abstract_lattice import _fold
from lattower.autgroup import (
    brute_force_automorphisms,
    factor_atoms,
    verify_product_formula,
)
from lattower.errors import LatTowerError, SpecMismatch
from lattower.gf2 import parity_kernel, zero_subspace
from lattower.group_spec import ChainPosition as CP
from lattower.group_spec import format_spec, parse_spec, spec_of_degrees
from lattower.lattice_core import enumerate_lattice
from lattower.perm_oracle import (
    ConcreteGroup,
    differential_validate,
    lemma_lattices,
    normal_subgroup_poset,
)
from lattower.tower import PairNode, StartNode, run_tower
from lattower.triples import element_from_triple, join, leq_patterns, meet, validate_triple


def _bottom_index(lat) -> int:
    """The element whose down set holds nothing else."""
    return next(i for i, mask in enumerate(lat.down_masks) if mask == 1 << i)


def _top_index(lat) -> int:
    """The element whose up set holds nothing else."""
    return next(i for i, mask in enumerate(lat.up_masks) if mask == 1 << i)


def _reference_leq(lat, i: int, j: int) -> bool:
    """Whether element i lies below element j, read off j's down set."""
    return bool((lat.down_masks[j] >> i) & 1)


def index_of_profile(lat, p) -> int:
    """The index of a profile in an enumerated lattice; KeyError when it is not in it."""
    if p.spec != lat.spec:
        raise SpecMismatch(f"profile of {format_spec(p.spec)} in {format_spec(lat.spec)}")
    return lat.index_of_parts(p.eff, p.signs.basis)


def sub_product_element(spec, positions):
    """The uncoupled normal subgroup with the given component per slot."""
    return element_from_triple(validate_triple(spec, (), positions, zero_subspace(0)))


def sign_parity_element(spec, slots):
    """D_I: full everywhere, even total sign across the slots of I (|I| >= 2)."""
    slots_t = tuple(sorted(slots))
    if len(slots_t) < 2:
        raise LatTowerError(f"sign-parity element needs at least 2 slots, got {slots_t}")
    positions = {s: CP.FULL for s in range(spec.num_slots) if s not in slots_t}
    return element_from_triple(
        validate_triple(spec, slots_t, positions, parity_kernel(len(slots_t)))
    )


def bottom_element(spec):
    return sub_product_element(spec, {s: CP.TRIV for s in range(spec.num_slots)})


def top_element(spec):
    return sub_product_element(spec, {s: CP.FULL for s in range(spec.num_slots)})


def _heights(n, covers) -> list[int]:
    """The length of the longest chain of covers up to each element.

    Every cover (i, j) lifts j above i, pass after pass until a pass lifts
    nothing; over an acyclic relation that takes at most one pass more than
    the longest chain.
    """
    covers = list(covers)
    heights = [0] * n
    lifted = True
    while lifted:
        lifted = False
        for i, j in covers:
            if heights[j] <= heights[i]:
                heights[j], lifted = heights[i] + 1, True
    return heights


def _edges(up_covers) -> list[tuple[int, int]]:
    """The pairs (i, j) with j covering i, from the rows of up-covers."""
    return [(i, j) for i, above in enumerate(up_covers) for j in above]


@contextmanager
def criterion(num, name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({name}): FAIL after {time.perf_counter() - start:.2f}s")
        raise
    elapsed = time.perf_counter() - start
    if elapsed < budget_s:
        print(f"criterion {num} ({name}): PASS in {elapsed:.2f}s (budget {budget_s:g}s)")
    else:
        print(f"criterion {num} ({name}): FAIL, {elapsed:.2f}s over the {budget_s:g}s budget")
        raise AssertionError(f"criterion {num} took {elapsed:.2f}s, budget {budget_s:g}s")


def test_criterion_1_census_s3_cubed():
    with criterion(1, "census of N(S3^3)", 1.0):
        c = enumerate_lattice(parse_spec("S3^3")).census
        assert (c.sub_products, c.sign_parity, c.mixed, c.total) == (27, 4, 7, 38)


def test_criterion_2_oracle_agreement():
    with criterion(2, "oracle agreement on eleven groups", 60.0):
        for text in ("S3^2", "S3^3", "S3*S4", "S4^2", "S3^2*S4", "S3^4"):
            report = differential_validate(parse_spec(text))
            assert report.ok, text
            assert report.oracle_count == report.enumerated_count
        assert (report.oracle_count, report.pairs_checked) == (170, 14535)
        report = differential_validate(parse_spec("S6*S3"))
        assert report.ok
        assert (report.oracle_count, report.pairs_checked) == (10, 55)
        # orders 20,736, 7,776, 497,664 and 5,040, past DEFAULT_MAX_ORDER, so their
        # bounds are given here
        report = differential_validate(parse_spec("S4^2*S3^2"), max_order=20_736)
        assert report.ok
        assert (report.oracle_count, report.pairs_checked) == (256, 32896)
        report = differential_validate(parse_spec("S3^5"), max_order=7776)
        assert report.ok
        assert (report.oracle_count, report.pairs_checked) == (930, 432915)
        report = differential_validate(parse_spec("S4^3*S3^2"), max_order=497_664)
        assert report.ok
        assert (report.oracle_count, report.pairs_checked) == (1564, 1223830)
        report = differential_validate(parse_spec("S7"), max_order=5040)
        assert report.ok
        assert (report.oracle_count, report.pairs_checked) == (3, 6)


PRODUCT_FORMULA_CASES = {
    "S3^2": 2,
    "S3^3": 6,
    "S4^2": 2,
    "S3*S4": 1,
    "S4^2*S3^2": 4,
    "S5^2*S3^2": 24,
    "S3^5": 120,
    "S4^3*S3^2": 12,
    "S3^6": 720,
    "S4^3*S3^3": 36,
}
def _shape_specs(max_slots: int) -> tuple[str, ...]:
    """Every shape (a4, B) with 1 <= a4 + B <= max_slots, realised with degrees 4 and 3."""
    return tuple(
        format_spec(spec_of_degrees((4,) * a4 + (3,) * (t - a4)))
        for t in range(1, max_slots + 1)
        for a4 in range(t + 1)
    )


# Up to isomorphism the lattice depends only on the shape (a4, B).  The 27
# shapes with at most 6 slots, at most 15,541 elements (S4^6), are the ones
# the referees enumerate.
SHAPE_SPECS = _shape_specs(6)


def test_criterion_3_product_formula():
    with criterion(3, "automorphism product formula", 60.0):
        # on the closed-form context: no lattice is enumerated
        cases = [
            (text, expected, verify_product_formula(parse_spec(text)))
            for text, expected in PRODUCT_FORMULA_CASES.items()
        ]
        cases.append(("S4^4*S3^2", 48, verify_product_formula(parse_spec("S4^4*S3^2"))))
        cases.append(("S3^7", 5040, verify_product_formula(parse_spec("S3^7"))))
        # the 54 shapes with at most 9 slots, up to S3^9 (13.4 million
        # elements) and contexts of 520 to 529 points
        for text in _shape_specs(9):
            spec = parse_spec(text)
            report = verify_product_formula(spec)
            cases.append((text, factorial(spec.a4) * factorial(spec.b), report))
        for text, expected, report in cases:
            assert report.match, text
            assert report.predicted_order == expected, text
            assert report.brute_force_order == expected, text
            assert report.constructive_order == expected, text


def test_criterion_4_lemma_lattices():
    with criterion(4, "small-group automorphism counts", 5.0):
        counts = {
            name: len(brute_force_automorphisms(poset))
            for name, poset in lemma_lattices().items()
        }
        assert counts == {"C2": 1, "C2^2": 6, "C2xS3": 2, "C2xS4": 2, "C2xS5": 2}
        for n in (3, 4, 5, 6, 7):
            poset = normal_subgroup_poset(ConcreteGroup((n,), max_order=5040))
            assert len(brute_force_automorphisms(poset)) == 1, f"S{n}"


def test_criterion_5_tower_termination_and_sharpness():
    with criterion(5, "tower termination and sharpness", 5.0):
        degrees = (3, 4, 5, 6, 7)
        checked = 0
        for t in range(7):
            for combo in combinations_with_replacement(degrees, t):
                run = run_tower(StartNode(spec_of_degrees(combo)))
                assert run.steps <= 3, combo
                assert run.sharp == (run.steps == 3)
                checked += 1
        assert checked == 462
        sharp = run_tower(StartNode(parse_spec("S4^2*S3^2")))
        assert sharp.nodes[1:] == (PairNode(2, 2), PairNode(0, 3), PairNode(0, 0))
        assert sharp.sharp
        # the step-2 node is S3, strictly between C2^2 and the trivial group
        assert sharp.nodes[2] != PairNode(0, 0)


MODULAR_SPECS = (
    "S3", "S4", "S3^2", "S3*S4", "S4^2", "S3^3", "S3^2*S4", "S3*S4^2", "S4^3", "S3^4", "S4^2*S3^2",
)
ROUND_TRIP_SPECS = ("S3^2", "S3*S4", "S4^2", "S3^3", "S3^2*S4", "S4^2*S3^2", "S5^2*S3^2", "S3^5")


def test_criterion_6_property_suites(lattices):
    with criterion(6, "lattice property suites", 120.0):
        # modular law x v (y ^ z) = (x v y) ^ z whenever x <= z, exhaustively
        for text in MODULAR_SPECS:
            lat = lattices.get(text)
            n = len(lat)
            down, meet_of, join_of = lat.down_masks, lat.context.meet, lat.context.join
            for z in range(n):
                below = [x for x in range(n) if (down[z] >> x) & 1]
                for y in range(n):
                    for x in below:
                        assert join_of(x, meet_of(y, z)) == meet_of(join_of(x, y), z), (
                            text, x, y, z
                        )

        # rank identity h(x) + h(y) = h(x ^ y) + h(x v y) on every pair of S3^5
        # and S4^3*S3^2: with gradedness, modularity again (Birkhoff, Lattice Theory)
        for text, expected_pairs in (("S3^5", 432_915), ("S4^3*S3^2", 1_223_830)):
            lat = lattices.get(text)
            h = _heights(len(lat), _edges(lat.up_covers()))
            meet_of, join_of = lat.context.meet, lat.context.join
            pairs = 0
            for x in range(len(lat)):
                for y in range(x, len(lat)):
                    assert h[x] + h[y] == h[meet_of(x, y)] + h[join_of(x, y)], (text, x, y)
                    pairs += 1
            assert pairs == expected_pairs, text

        # triple <-> profile round trip on every element, T up to 5
        from lattower.triples import profile_to_triple, triple_to_profile

        for text in ROUND_TRIP_SPECS:
            for e in lattices.get(text).elements:
                assert profile_to_triple(triple_to_profile(e.triple)) == e.triple, text

        # the two inclusion tests agree on every ordered pair, T up to 5: the
        # pattern test referees the closure of the cover moves
        for text in ("S3^2*S4", "S4^2*S3^2", "S3^5", "S4^2*S3^3"):
            lat = lattices.get(text)
            down = lat.down_masks
            for j, ej in enumerate(lat.elements):
                mask = down[j]
                for i, ei in enumerate(lat.elements):
                    assert leq_patterns(ei, ej) == bool((mask >> i) & 1), (text, i, j)

        # sign-parity elements form an antichain with pairwise join the top
        for text in ("S3^3", "S4^2*S3^2", "S3^5"):
            lat = lattices.get(text)
            spec = lat.spec
            slots = range(spec.num_slots)
            subsets = [c for r in range(2, spec.num_slots + 1) for c in combinations(slots, r)]
            top = top_element(spec)
            ds = {c: sign_parity_element(spec, c) for c in subsets}
            for a in subsets:
                for b in subsets:
                    if a == b:
                        continue
                    i, j = (index_of_profile(lat, ds[c].profile) for c in (a, b))
                    assert not _reference_leq(lat, i, j)
                    assert join(ds[a], ds[b]) == top

        # concrete orders: 54 and index 4 for a pairwise meet, 18 and index 2 for one D
        s3 = parse_spec("S3^3")
        e = meet(sign_parity_element(s3, (0, 1)), sign_parity_element(s3, (1, 2)))
        assert e.order == 54
        assert s3.group_order // e.order == 4
        s2 = parse_spec("S3^2")
        d = sign_parity_element(s2, (0, 1))
        assert d.order == 18
        assert s2.group_order // d.order == 2
        for text in ("S3^3", "S4^2*S3^2"):
            spec = lattices.get(text).spec
            order = spec.group_order
            slots = range(spec.num_slots)
            subsets = [c for r in range(2, spec.num_slots + 1) for c in combinations(slots, r)]
            for c in subsets:
                assert order // sign_parity_element(spec, c).order == 2
            for a, b in combinations(subsets, 2):
                m = meet(sign_parity_element(spec, a), sign_parity_element(spec, b))
                assert order // m.order == 4, (text, a, b)


COMPLEMENTED_SPECS = ("S3^2", "S3*S4", "S4^2", "S3^3", "S3^2*S4", "S3^4", "S4^2*S3^2")


def complemented_elements(ctx) -> set[int]:
    """Indices of all elements of the bare lattice ctx with a complement:
    meet at bottom, join at top.

    In a finite lattice x ^ c is the bottom exactly when no atom lies under
    both, and x v c is the top exactly when no coatom lies over both.  Both
    sets are read off the covers as bits, the atoms out of J(x) and the
    coatoms over x by a sweep that starts at the top.  Elements with the same
    atoms are handled together: their coatom sets are compared only with
    those of the groups whose atoms miss theirs.  Raises LatTowerError
    unless exactly one element is minimal and one maximal.
    """
    tops = [x for x, above in enumerate(ctx.upper) if not above]
    if len(tops) != 1:
        raise LatTowerError(f"not a lattice: {len(tops)} maximal elements")
    bottom, (top,) = ctx.order[0], tops
    atoms = reduce(or_, map(ctx.J.__getitem__, ctx.upper[bottom]), 0)
    coatoms = [0] * ctx.n
    for k, c in enumerate(ctx.lower[top]):
        coatoms[c] = 1 << k
    over = _fold(reversed(ctx.order), ctx.upper, coatoms)
    groups: dict[int, list[int]] = {}
    for x, under in enumerate(ctx.J):
        groups.setdefault(under & atoms, []).append(x)
    overs = {a: {over[x] for x in xs} for a, xs in groups.items()}
    out = set()
    for a, xs in groups.items():
        partners = [c for b, cs in overs.items() if not a & b for c in cs]
        out.update(x for x in xs if any(not over[x] & c for c in partners))
    return out


def test_criterion_7_complemented_elements(lattices):
    with criterion(7, "complemented elements and factor atoms", 30.0):
        for text in COMPLEMENTED_SPECS:
            lat = lattices.get(text)
            spec = lat.spec
            t = spec.num_slots
            expected = set()
            for bits in range(1 << t):
                positions = {s: (CP.FULL if (bits >> s) & 1 else CP.TRIV) for s in range(t)}
                expected.add(index_of_profile(lat, sub_product_element(spec, positions).profile))
            comp = complemented_elements(lat.context)
            assert comp == expected, text
            assert len(comp) == 1 << t
            atoms = factor_atoms(lat)
            assert len(atoms) == t
            down = lat.down_masks
            for s, atom in enumerate(atoms):
                interval = bin(down[atom]).count("1")
                assert interval == (4 if spec.slots[s].degree == 4 else 3), (text, s)
