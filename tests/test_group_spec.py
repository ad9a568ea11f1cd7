import pytest
from hypothesis import given
from hypothesis import strategies as st

from lattower.errors import (
    ChainLengthMismatch,
    DegreeTooLarge,
    DegreeTooSmall,
    IllegalChainPosition,
    NegativeExponent,
    SpecParseError,
)
from lattower.group_spec import (
    ChainPosition,
    chain,
    chain_iso,
    format_spec,
    legal_position,
    make_spec,
    parse_spec,
    position_size,
)


def test_parse_basic():
    spec = parse_spec("S4^2*S3^2")
    assert spec.exponents == ((3, 2), (4, 2))
    assert spec.num_slots == 4
    assert spec.a4 == 2
    assert spec.b == 2
    assert spec.degrees == (3, 3, 4, 4)


def test_parse_is_case_and_whitespace_insensitive():
    assert parse_spec(" s4 ^ 2 * S3\t^2 ") == parse_spec("S4^2*S3^2")


def test_parse_accumulates_repeated_degrees():
    assert parse_spec("S3*S3") == parse_spec("S3^2")
    assert parse_spec("S3*S4*S3") == parse_spec("S4*S3^2")


def test_parse_trivial():
    spec = parse_spec("1")
    assert spec.is_trivial
    assert spec.num_slots == 0
    assert spec.group_order == 1
    assert format_spec(spec) == "1"


@pytest.mark.parametrize(
    "bad, exc",
    [
        ("", SpecParseError),
        ("S3**S4", SpecParseError),
        ("garbage!", SpecParseError),
        ("S3^", SpecParseError),
        ("S3^0", SpecParseError),
        ("S2", DegreeTooSmall),
        ("S1", DegreeTooSmall),
        ("S21", DegreeTooLarge),
    ],
)
def test_parse_rejects(bad, exc):
    with pytest.raises(exc):
        parse_spec(bad)


def test_make_spec_drops_zero_and_rejects_negative():
    assert make_spec({3: 2, 5: 0}) == make_spec({3: 2})
    with pytest.raises(NegativeExponent):
        make_spec({3: -1})


def test_slot_order_and_labels():
    spec = parse_spec("S4^2*S3^2")
    assert [s.label for s in spec.slots] == ["3.1", "3.2", "4.1", "4.2"]
    assert [s.slot_class for s in spec.slots] == ["B", "B", "A", "A"]
    assert spec.a_slots() == (2, 3)
    assert spec.b_slots() == (0, 1)


def test_group_order():
    assert parse_spec("S3^3").group_order == 216
    assert parse_spec("S4^2*S3^2").group_order == 24 * 24 * 6 * 6


def test_format_spec_descending():
    assert format_spec(parse_spec("s3^2*s5*s4")) == "S5*S4*S3^2"
    assert str(parse_spec("S3")) == "S3"


def test_chain_lengths():
    assert len(chain(3)) == 3
    assert len(chain(4)) == 4
    assert len(chain(7)) == 3
    assert chain(4) == (
        ChainPosition.TRIV,
        ChainPosition.V,
        ChainPosition.ALT,
        ChainPosition.FULL,
    )
    with pytest.raises(DegreeTooSmall):
        chain(2)


def test_chain_iso_fixes_positions():
    iso = chain_iso(3, 7)
    assert iso == {p: p for p in (ChainPosition.TRIV, ChainPosition.ALT, ChainPosition.FULL)}
    assert chain_iso(4, 4)[ChainPosition.V] is ChainPosition.V


def test_chain_iso_rejects_cross_class():
    with pytest.raises(ChainLengthMismatch):
        chain_iso(3, 4)
    with pytest.raises(ChainLengthMismatch):
        chain_iso(4, 5)


@pytest.mark.parametrize(
    "pos, degree, size",
    [
        (ChainPosition.TRIV, 5, 1),
        (ChainPosition.V, 4, 4),
        (ChainPosition.ALT, 3, 3),
        (ChainPosition.ALT, 4, 12),
        (ChainPosition.FULL, 5, 120),
    ],
)
def test_position_size(pos, degree, size):
    assert position_size(pos, degree) == size


def test_position_v_needs_degree_4():
    assert legal_position(ChainPosition.V, 4)
    assert not legal_position(ChainPosition.V, 5)
    with pytest.raises(IllegalChainPosition):
        position_size(ChainPosition.V, 5)


def test_chain_position_tokens_round_trip():
    for p in ChainPosition:
        assert ChainPosition.from_token(p.token) is p
    with pytest.raises(IllegalChainPosition):
        ChainPosition.from_token("klein")


exponent_maps = st.dictionaries(
    st.integers(min_value=3, max_value=9), st.integers(min_value=1, max_value=3), max_size=4
)


@given(exponent_maps)
def test_parse_format_round_trip(exponents):
    spec = make_spec(exponents)
    assert parse_spec(format_spec(spec)) == spec


@given(exponent_maps)
def test_slot_indices_are_canonical(exponents):
    spec = make_spec(exponents)
    assert [s.index for s in spec.slots] == list(range(spec.num_slots))
    degrees = spec.degrees
    assert list(degrees) == sorted(degrees)
    assert spec.a4 + spec.b == spec.num_slots
