from functools import reduce
from itertools import combinations, permutations
from operator import xor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lattower.errors import BadCoordinate, WidthMismatch
from lattower.gf2 import (
    Subspace,
    _lift,
    _span,
    iter_subspaces,
    parity_kernel,
    span,
    unit_span,
    zero_subspace,
)


def test_span_is_canonical():
    # same subspace from different generating sets must compare equal
    a = span(3, [0b011, 0b110])
    b = span(3, [0b110, 0b101, 0b011])
    assert a == b
    assert a.dim == 2
    assert a.size == 4


def test_subspace_rejects_non_echelon_basis():
    with pytest.raises(WidthMismatch):
        Subspace(3, (0b011, 0b010))
    with pytest.raises(WidthMismatch):
        Subspace(2, (0b00,))


def test_contains():
    s = span(3, [0b011, 0b110])
    assert s.contains(0b101)
    assert not s.contains(0b001)
    assert s.contains(0b000)


def test_elements():
    s = span(3, [0b011, 0b110])
    assert sorted(s.elements()) == [0b000, 0b011, 0b101, 0b110]


@pytest.mark.parametrize(
    "rows", [(), (0b1,), (0b011, 0b110), (0b0011, 0b0110, 0b1101), (0b10000, 0b101, 0b1010, 0b1)]
)
def test_span_entry_m_xors_the_rows_at_the_bits_of_m(rows):
    table = _span(rows)
    assert len(table) == 1 << len(rows)
    for m, entry in enumerate(table):
        assert entry == reduce(xor, (row for j, row in enumerate(rows) if m >> j & 1), 0)


# the sign-pattern tables of the enumeration, the context and the tau maps are
# _span of disjoint unit rows: entry m carries bit j of m to bit coords[j]
@pytest.mark.parametrize(
    "coords",
    [*permutations(range(5)), (), (3,), (0, 2), (1, 2, 6), (0, 3, 4, 9), (2, 5, 7, 8, 11, 12)],
)
def test_span_of_unit_rows_lifts_each_pattern(coords):
    table = _span([1 << c for c in coords])
    assert table == [_lift(m, coords) for m in range(1 << len(coords))]


def test_annihilator_of_parity_kernel():
    # brute force over all functionals: f kills the kernel iff f is all-ones
    for width in range(2, 6):
        k = parity_kernel(width)
        members = set(k.elements())
        vanishing = [
            f
            for f in range(1 << width)
            if all(bin(f & v).count("1") % 2 == 0 for v in members)
        ]
        assert sorted(k.annihilator().elements()) == sorted(vanishing)
        assert k.annihilator().basis == ((1 << width) - 1,)


def test_intersect_matches_set_intersection():
    a = span(4, [0b0011, 0b1100])
    b = span(4, [0b0110, 0b1001])
    got = set(a.intersect(b).elements())
    want = set(a.elements()) & set(b.elements())
    assert got == want


def test_project():
    s = span(4, [0b0011, 0b1100])
    p = s.project((0, 2))
    assert set(p.elements()) == {0b00, 0b01, 0b10, 0b11}
    with pytest.raises(BadCoordinate):
        s.project((2, 0))
    with pytest.raises(BadCoordinate):
        s.project((0, 4))


def test_named_subspaces():
    assert zero_subspace(3).dim == 0
    assert unit_span(3, 0b111).size == 8
    u = unit_span(4, 0b0101)
    assert u.basis == (0b0001, 0b0100)
    assert parity_kernel(3).size == 4
    assert parity_kernel(1).dim == 0


# subspace counts of GF(2)^n; sums of Gaussian binomials
SUBSPACE_COUNTS = {1: 2, 2: 5, 3: 16, 4: 67}


@pytest.mark.parametrize("width, count", sorted(SUBSPACE_COUNTS.items()))
def test_iter_subspaces_is_complete_and_duplicate_free(width, count):
    seen = list(iter_subspaces(width))
    assert len(seen) == count
    assert len(set(seen)) == count
    element_sets = {frozenset(s.elements()) for s in seen}
    assert len(element_sets) == count


def _subspaces(width):
    vectors = st.lists(st.integers(min_value=0, max_value=(1 << width) - 1), max_size=4)
    return vectors.map(lambda vs: span(width, vs))


@given(st.integers(min_value=1, max_value=5).flatmap(lambda w: _subspaces(w)))
def test_double_annihilator_is_identity(s):
    assert s.annihilator().annihilator() == s
    assert s.dim + s.annihilator().dim == s.width


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda w: st.tuples(_subspaces(w), _subspaces(w))
    )
)
def test_sum_and_intersect_bounds(pair):
    a, b = pair
    total = a.sum(b)
    common = a.intersect(b)
    assert total.contains_subspace(a) and total.contains_subspace(b)
    assert a.contains_subspace(common) and b.contains_subspace(common)
    # dimension formula for a pair of subspaces
    assert total.dim + common.dim == a.dim + b.dim


@given(st.integers(min_value=1, max_value=5).flatmap(lambda w: _subspaces(w)))
def test_annihilator_is_orthogonal(s):
    for v in s.elements():
        for f in s.annihilator().elements():
            assert bin(v & f).count("1") % 2 == 0


def test_contains_subspace_on_chain():
    for a, b in combinations(list(iter_subspaces(3)), 2):
        inc = b.contains_subspace(a)
        assert inc == (set(a.elements()) <= set(b.elements()))
