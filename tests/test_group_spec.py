import pytest
from hypothesis import given
from hypothesis import strategies as st

from lattower.errors import (
    DegreeTooLarge,
    DegreeTooSmall,
    IllegalChainPosition,
    NegativeExponent,
    SpecParseError,
    TooLarge,
)
from lattower.group_spec import (
    MAX_MULTIPLICITY,
    ChainPosition,
    chain,
    format_spec,
    legal_position,
    make_spec,
    parse_spec,
    position_size,
    spec_of_degrees,
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
        # more digits than int() converts
        ("S" + "9" * 5000, SpecParseError),
        ("S3^" + "9" * 5000, SpecParseError),
        ("S3^99999999999", TooLarge),
        ("S3^999*S3^2", TooLarge),
    ],
)
def test_parse_rejects(bad, exc):
    with pytest.raises(exc):
        parse_spec(bad)


def test_multiplicity_bound():
    assert make_spec({3: MAX_MULTIPLICITY}).num_slots == MAX_MULTIPLICITY
    with pytest.raises(TooLarge):
        make_spec({5: MAX_MULTIPLICITY + 1})


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


def test_every_class_b_chain_is_the_same_tuple():
    # tau permutes profile coordinates and keeps every position name, which
    # is right only because a class-preserving slot permutation moves a
    # position between equal chains
    class_b = {chain(d) for d in range(3, 21) if d != 4}
    assert class_b == {(ChainPosition.TRIV, ChainPosition.ALT, ChainPosition.FULL)}


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


@given(exponent_maps)
def test_spec_of_degrees_inverts_degrees(exponents):
    spec = make_spec(exponents)
    assert spec_of_degrees(spec.degrees) == spec
    assert spec_of_degrees(reversed(spec.degrees)) == spec


factor_texts = st.builds(
    lambda s, degree, mult: f"{s}{degree}" + ("" if mult is None else f"^{mult}"),
    st.sampled_from("sS"),
    st.integers(0, 25),
    st.none() | st.integers(0, 1200),
)
spec_texts = st.one_of(
    st.text(),
    st.text(alphabet="sS0123456789^* \t", max_size=24),
    st.lists(factor_texts, min_size=1, max_size=4).map("*".join),
)


@given(spec_texts)
def test_parse_spec_parses_round_trips_or_refuses(text):
    try:
        spec = parse_spec(text)
    except (SpecParseError, DegreeTooSmall, DegreeTooLarge, NegativeExponent, TooLarge):
        return
    assert parse_spec(format_spec(spec)) == spec
