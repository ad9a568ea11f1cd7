import pytest
from hypothesis import given
from hypothesis import strategies as st

from lattower import lattice_core, tower
from lattower.abstract_lattice import AbstractLattice
from lattower.autgroup import _search
from lattower.context import closed_form_context
from lattower.errors import NonTermination
from lattower.group_spec import format_spec, parse_spec, spec_of_degrees
from lattower.lattice_core import enumerate_lattice
from lattower.tower import (
    PairNode,
    StartNode,
    format_node,
    format_run,
    is_trivial_node,
    latauto_step,
    run_tower,
    verify_step_against_lattice,
)
from test_cli import TOWER_START_SPECS


def test_start_step_uses_slot_classes():
    assert latauto_step(StartNode(parse_spec("S4^2*S3^2"))) == PairNode(2, 2)
    assert latauto_step(StartNode(parse_spec("S3^3"))) == PairNode(0, 3)
    assert latauto_step(StartNode(parse_spec("S5^2*S3^2"))) == PairNode(0, 4)
    assert latauto_step(StartNode(parse_spec("1"))) == PairNode(0, 0)


@pytest.mark.parametrize(
    "pair, result",
    [
        ((0, 0), (0, 0)),
        ((1, 0), (0, 0)),
        ((0, 3), (0, 0)),  # a single S_n: rigid chain
        ((1, 7), (0, 0)),
        ((2, 0), (0, 0)),  # C2 alone: rigid two-point chain
        ((2, 2), (0, 3)),  # the diamond: automorphism group S3
        ((2, 3), (0, 2)),  # C2 x Sm: one mirror symmetry
        ((2, 4), (0, 2)),
        ((5, 2), (0, 2)),
        ((3, 3), (0, 2)),  # genuine tower group, product formula again
        ((4, 4), (2, 0)),
        ((4, 3), (1, 1)),
        ((4, 5), (1, 1)),
        ((5, 7), (0, 2)),
    ],
)
def test_pair_step_cases(pair, result):
    assert latauto_step(PairNode(*pair)) == PairNode(*result)


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12))
def test_step_is_total_and_towers_die_fast(a, b):
    run = run_tower(PairNode(a, b))
    assert run.steps <= 3
    assert is_trivial_node(run.nodes[-1])


def test_format_node():
    assert format_node(PairNode(0, 0)) == "1"
    assert format_node(PairNode(2, 0)) == "C2"
    assert format_node(PairNode(2, 2)) == "C2^2"
    assert format_node(PairNode(0, 3)) == "S3"
    assert format_node(PairNode(3, 3)) == "S3^2"
    assert format_node(PairNode(4, 3)) == "S4*S3"
    assert format_node(PairNode(2, 5)) == "S5*C2"
    assert format_node(PairNode(3, 2)) == format_node(PairNode(2, 3)) == "S3*C2"
    assert format_node(StartNode(parse_spec("s3^2*s4^2"))) == "S4^2*S3^2"


def test_sharp_tower():
    run = run_tower(StartNode(parse_spec("S4^2*S3^2")))
    assert run.steps == 3
    assert run.sharp
    assert (
        format_run(run)
        == "G_0 = S4^2*S3^2 → G_1 = C2^2 → G_2 = S3 → G_3 = 1 (3 steps, sharp)"
    )


def test_short_towers():
    assert format_run(run_tower(StartNode(parse_spec("S3")))) == "G_0 = S3 → G_1 = 1 (1 step)"
    assert format_run(run_tower(StartNode(parse_spec("1")))) == "G_0 = 1 (0 steps)"
    run = run_tower(StartNode(parse_spec("S3^3")))
    assert run.steps == 2 and not run.sharp
    run = run_tower(StartNode(parse_spec("S5^2*S3^2")))
    assert format_run(run) == "G_0 = S5^2*S3^2 → G_1 = S4 → G_2 = 1 (2 steps)"


def test_non_termination_guard(monkeypatch):
    monkeypatch.setattr(tower, "MAX_TOWER_STEPS", 1)
    with pytest.raises(NonTermination):
        run_tower(StartNode(parse_spec("S4^2*S3^2")))


@pytest.mark.parametrize(
    "node, predicted",
    [
        (PairNode(2, 2), 6),
        (PairNode(2, 3), 2),
        (PairNode(2, 4), 2),
        (PairNode(0, 3), 1),
        (PairNode(1, 1), 1),
        (PairNode(2, 0), 1),
        (PairNode(4, 5), 1),
        (StartNode(parse_spec("S3^2")), 2),
    ],
)
def test_verify_step(node, predicted):
    report = verify_step_against_lattice(node)
    assert report.match
    assert report.skipped is None
    assert report.predicted_order == predicted
    assert report.observed_order == predicted


def test_verify_step_skips_oversized_nodes():
    report = verify_step_against_lattice(PairNode(2, 7))  # order 10080, oracle bound 5000
    assert report.skipped is not None
    assert report.observed_order is None
    assert report.match is None
    d = report.to_json_dict()
    assert d["node"] == "S7*C2"
    assert d["skipped"]


def test_verify_step_skips_a_start_node_past_the_context_slot_bound():
    node = StartNode(parse_spec("S3^13"))
    report = verify_step_against_lattice(node)
    assert report.skipped.startswith("13 slots exceeds the closed-form context bound 12: ")
    assert (report.observed_order, report.match) == (None, None)


def test_verify_step_skips_an_oversized_start_node():
    report = verify_step_against_lattice(StartNode(parse_spec("S4^2*S3^2")), max_size=10)
    assert report.skipped == "256 elements exceeds the lattice bound 10"
    assert report.observed_order is None
    assert report.to_json_dict()["match"] is None


@pytest.mark.parametrize(
    "node, max_size, elements",
    [
        (StartNode(parse_spec("S3^7")), 2000, 59866),
        (StartNode(parse_spec("S4^2*S3^2")), 10, None),
        (PairNode(3, 4), 5, None),
        (PairNode(5, 5), 9, None),
    ],
)
def test_oversized_nodes_are_skipped_before_enumerating(node, max_size, elements, monkeypatch):
    if elements is None:
        spec = node.spec if isinstance(node, StartNode) else parse_spec(format_node(node))
        elements = len(enumerate_lattice(spec))

    def must_not_enumerate(*args, **kwargs):
        raise AssertionError("enumerate_lattice called")

    monkeypatch.setattr(lattice_core, "enumerate_lattice", must_not_enumerate)
    report = verify_step_against_lattice(node, max_size=max_size)
    assert report.skipped == f"{elements} elements exceeds the lattice bound {max_size}"
    assert report.observed_order is None
    assert report.match is None


@pytest.mark.parametrize(
    "node, order",
    [
        (StartNode(parse_spec("S4^2*S3^2")), 4),
        (PairNode(0, 3), 1),
        (PairNode(3, 4), 1),
        (PairNode(0, 0), 1),
        (PairNode(1, 1), 1),
    ],
)
def test_tower_group_nodes_are_searched_on_the_closed_form_context(node, order, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a lattice was built")

    monkeypatch.setattr(lattice_core, "enumerate_lattice", refuse)
    monkeypatch.setattr(lattice_core.Lattice, "up_covers", refuse)
    monkeypatch.setattr(AbstractLattice, "__init__", refuse)
    report = verify_step_against_lattice(node)
    assert (report.match, report.observed_order) == (True, order)


# Two sharp towers whose nodes are past a bound of the spec or of the
# interpreter: S25 is past the largest degree a spec takes, 28 and 2002
# slots are past the closed-form context bound (a context of 2^T + T + a4 - 1
# points), and 2 * 2000! is past the int-to-str digit limit.
CONTEXT_BOUND = "exceeds the closed-form context bound 12: the automorphism search on"
MINUTES = "points would take minutes"
LARGE_TOWERS = {
    "S4^3*S3^25": [
        ("S4^3*S3^25", "S25*S3", None, f"28 slots {CONTEXT_BOUND} its 268435486 {MINUTES}"),
        ("S25*S3", "C2", 2, None),
        ("C2", "1", 1, None),
        ("1", "1", 1, None),
    ],
    "S5^1000*S4^2*S3^1000": [
        (
            "S5^1000*S4^2*S3^1000",
            "S2000*C2",
            None,
            f"2002 slots {CONTEXT_BOUND} its {2**2002 + 2002 + 2 - 1} {MINUTES}",
        ),
        ("S2000*C2", "C2", None, "group order of 19054 bits exceeds the oracle bound 5000"),
        ("C2", "1", 1, None),
        ("1", "1", 1, None),
    ],
}


@pytest.mark.parametrize("text", sorted(LARGE_TOWERS))
def test_every_node_of_a_large_tower_gets_a_step_report(text):
    run = run_tower(StartNode(parse_spec(text)))
    assert run.sharp
    reports = [verify_step_against_lattice(node) for node in run.nodes]
    assert len(reports) == len(LARGE_TOWERS[text])
    for r, (node, result, observed, skipped) in zip(reports, LARGE_TOWERS[text]):
        assert (r.node, r.result, r.observed_order) == (node, result, observed)
        if skipped is None:
            assert (r.skipped, r.match) == (None, True)
        else:
            assert r.skipped.endswith(skipped) and r.match is None


def _true_order(degrees):
    """The searched automorphism order of N(S_d1 x ...) on its own degrees."""
    return _search(closed_form_context(spec_of_degrees(degrees))).order


@pytest.mark.parametrize("a", range(3, 21))
def test_a_pair_is_searched_as_its_slot_class_representative(a):
    for b in (0, 1, *range(3, 21)):
        report = verify_step_against_lattice(PairNode(a, b))
        assert report.observed_order == _true_order(tuple(d for d in (a, b) if d > 1)), (a, b)
    # past the largest degree a spec takes, the pair is searched all the same
    assert verify_step_against_lattice(PairNode(a, 25)).observed_order == _true_order((a, 5))


# The formatting and the pair step as they were before they stopped sorting
# and building part lists, kept as the referee of today's.
def _reference_format_spec(spec):
    if spec.is_trivial:
        return "1"
    parts = []
    for degree, mult in sorted(spec.exponents, reverse=True):
        parts.append(f"S{degree}" if mult == 1 else f"S{degree}^{mult}")
    return "*".join(parts)


def _reference_factor_name(n):
    return "C2" if n == 2 else f"S{n}"


def _reference_format_node(node):
    if isinstance(node, StartNode):
        return _reference_format_spec(node.spec)
    parts = [_reference_factor_name(x) for x in sorted((node.a, node.b), reverse=True) if x >= 2]
    if not parts:
        return "1"
    if len(parts) == 2 and parts[0] == parts[1]:
        return f"{parts[0]}^2"
    return "*".join(parts)


def _reference_format_run(run):
    chain = " → ".join(
        f"G_{i} = {_reference_format_node(node)}" for i, node in enumerate(run.nodes)
    )
    plural = "step" if run.steps == 1 else "steps"
    suffix = f"({run.steps} {plural}, sharp)" if run.sharp else f"({run.steps} {plural})"
    return f"{chain} {suffix}"


def _reference_pair_step(node):
    lo, hi = sorted((node.a, node.b))
    if lo <= 1:
        return PairNode(0, 0)
    if (lo, hi) == (2, 2):
        return PairNode(0, 3)
    if lo == 2:
        return PairNode(0, 2)
    a4 = (1 if node.a == 4 else 0) + (1 if node.b == 4 else 0)
    b = (1 if node.a >= 3 and node.a != 4 else 0) + (1 if node.b >= 3 and node.b != 4 else 0)
    return PairNode(a4, b)


SMALL_PAIRS = [PairNode(a, b) for a in range(31) for b in range(31)]
# the census start specs, the large towers and the trivial group
REFEREED_SPECS = [*TOWER_START_SPECS, *sorted(LARGE_TOWERS), "1"]


def test_pair_steps_and_formatting_are_the_reference_on_small_pairs():
    for node in SMALL_PAIRS:
        assert latauto_step(node) == _reference_pair_step(node), node
        assert format_node(node) == _reference_format_node(node), node
        run = run_tower(node)
        assert format_run(run) == _reference_format_run(run), node


def test_tower_formatting_is_the_reference_on_the_start_specs():
    for text in REFEREED_SPECS:
        spec = parse_spec(text)
        run = run_tower(StartNode(spec))
        assert format_spec(spec) == _reference_format_spec(spec) == text
        assert [format_node(n) for n in run.nodes] == [_reference_format_node(n) for n in run.nodes]
        assert format_run(run) == _reference_format_run(run), text


def test_slot_counts_are_those_of_the_slots():
    for text in REFEREED_SPECS:
        spec = parse_spec(text)
        assert spec.num_slots == len(spec.slots), text
        assert (spec.a4, spec.b) == (len(spec.a_slots()), len(spec.b_slots())), text
        assert spec.is_trivial == (len(spec.slots) == 0), text
