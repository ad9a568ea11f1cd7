import errno
import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lattower import autgroup, cli, perm_oracle
from lattower.cli import main
from lattower.errors import LatTowerError, OracleMismatch
from lattower.group_spec import parse_spec
from lattower.lattice_core import (
    Census,
    Lattice,
    LatticeElement,
    bottom_element,
    enumerate_lattice,
    sign_parity_element,
    top_element,
)
from lattower.tower import StartNode, run_tower, verify_step_against_lattice
from test_acceptance import ROUND_TRIP_SPECS
from test_lattice_core import _lattice_of_elements


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def _readme_examples():
    """Each ``$ lattower ...`` line of the README's Command line block, with
    the lines shown under it."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```\n", 2)[1]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ lattower "):
            examples.append((line.removeprefix("$ lattower "), []))
        elif line:
            examples[-1][1].append(line)
    assert examples
    return examples


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("command, shown", README_EXAMPLES, ids=[c for c, _ in README_EXAMPLES])
def test_readme_command_line_examples(command, shown, capsys, tmp_path, monkeypatch):
    # an example with no lines shown under it must still succeed
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(command)
    code, out = run_cli(capsys, *argv)
    assert code == 0
    if shown:
        assert out.splitlines() == shown
    if "--out" in argv:
        assert (tmp_path / argv[argv.index("--out") + 1]).stat().st_size > 0


def test_enumerate_text(capsys):
    code, out = run_cli(capsys, "enumerate", "--spec", "S3^3")
    assert code == 0
    assert out == "total 38: sub-products 27, sign-parity 4, mixed 7\n"


@pytest.mark.parametrize("spec", ["1", "S5", "S3^3", "S4^2*S3^2", "S4^4", "S7*S3^2"])
def test_enumerate_text_is_the_enumerated_census(spec, capsys):
    c = enumerate_lattice(parse_spec(spec)).census
    code, out = run_cli(capsys, "enumerate", "--spec", spec)
    assert code == 0
    assert out == (
        f"total {c.total}: sub-products {c.sub_products}, "
        f"sign-parity {c.sign_parity}, mixed {c.mixed}\n"
    )


def _must_not_enumerate(*args, **kwargs):
    raise AssertionError("enumerate_lattice called")


def test_enumerate_text_builds_no_element(monkeypatch, capsys):
    monkeypatch.setattr(autgroup, "enumerate_lattice", _must_not_enumerate)
    code, out = run_cli(capsys, "enumerate", "--spec", "S3^8")
    assert code == 0
    assert out == "total 756682: sub-products 6561, sign-parity 247, mixed 749874\n"
    assert main(["enumerate", "--spec", "S3^9"]) == 3
    assert capsys.readouterr().err == "error: 9 slots exceeds the enumeration bound 8\n"
    assert main(["enumerate", "--spec", "S3^3", "--max-T", "2"]) == 3
    assert capsys.readouterr().err == "error: 3 slots exceeds the enumeration bound 2\n"


def test_enumerate_total_past_the_digit_limit_is_a_bound_violation(capsys):
    limit = sys.get_int_max_str_digits()
    assert main(["enumerate", "--spec", "S3^300", "--max-T", "300"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: census of S3^300 has a total of 22503 bits, too long to print in decimal\n"
    )
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize(
    "argv, err",
    [
        (["--spec", "S3^7"], "error: 59866 elements exceeds the search bound 10000\n"),
        (
            ["--spec", "S4^3*S3^2", "--max-lattice", "100"],
            "error: 1564 elements exceeds the search bound 100\n",
        ),
        (["--spec", "S3^9"], "error: 9 slots exceeds the enumeration bound 8\n"),
    ],
)
def test_aut_refuses_an_oversized_lattice_before_enumerating(argv, err, monkeypatch, capsys):
    monkeypatch.setattr(autgroup, "enumerate_lattice", _must_not_enumerate)
    assert main(["aut", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


@pytest.mark.parametrize(
    "argv",
    [
        ["hasse", "--spec", "S3^8", "--max-T", "8"],
        ["enumerate", "--spec", "S3^8", "--format", "json"],
        ["hasse", "--spec", "S3^3", "--max-lattice", "37"],
    ],
)
def test_order_relation_refuses_an_oversized_lattice_before_enumerating(
    argv, monkeypatch, capsys
):
    monkeypatch.setattr(autgroup, "enumerate_lattice", _must_not_enumerate)
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    elements, bound = ("38", "37") if "S3^3" in argv else ("756682", "10000")
    assert captured.err == f"error: {elements} elements exceeds the search bound {bound}\n"


def test_the_lattice_bound_admits_what_it_names(capsys):
    code, out = run_cli(capsys, "hasse", "--spec", "S3^3", "--max-lattice", "38")
    assert code == 0
    assert out.count(" -> ") == sum(map(len, enumerate_lattice(parse_spec("S3^3")).up_covers()))


def test_aut_reports_a_wrong_tau_generator_as_a_mismatch(monkeypatch, capsys):
    def identity_tau(sigma, lat):
        return tuple(range(len(lat)))

    monkeypatch.setattr(autgroup, "tau_on_lattice", identity_tau)
    code, out = run_cli(capsys, "aut", "--spec", "S3^3")
    assert code == 4
    assert out.startswith("spec S3^3: LatAut order 6 = 0!*3! (brute force 6, constructive 1) ")
    assert "MISMATCH" in out


def test_enumerate_json(capsys):
    code, out = run_cli(capsys, "enumerate", "--spec", "S3^2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["census"]["total"] == 10
    assert data["spec"] == "S3^2"
    assert len(data["elements"]) == 10


# sha256 of stdout, pinned from the output the order-relation route printed
# before the Hasse diagram was read off the profiles
HASSE_S3_4_SHA256 = "84cd93ff844d17eb78bfc8336f0b8f9f69312c62ebca360d7b18fb98ad706b83"
JSON_S4_2_S3_2_SHA256 = "0c31217ed9e302c879d1f7be261692fa51e0de29fcd175b55baacf1171616785"
# taken while the writers batched one edge per item: the 7,298 edges of
# S4^3*S3^2 filled two batches of 4,096, and the 6,482 rows of S3^6 fill two
HASSE_S3_6_SHA256 = "ab2d336f9978ece8ce1e1b27074d0e44e33736e2d50d726f6784677ea50c4e46"
JSON_S4_3_S3_2_SHA256 = "be09006f38f0af595ea56666a190a8c4b89422ab0c2cee52ae2596579caa3350"
PINNED_DIGESTS = [
    (["hasse", "--spec", "S3^4"], HASSE_S3_4_SHA256),
    (["enumerate", "--spec", "S4^2*S3^2", "--format", "json"], JSON_S4_2_S3_2_SHA256),
    (["hasse", "--spec", "S3^6"], HASSE_S3_6_SHA256),
    (["enumerate", "--spec", "S4^3*S3^2", "--format", "json"], JSON_S4_3_S3_2_SHA256),
]


@pytest.mark.parametrize("argv, digest", PINNED_DIGESTS)
def test_hasse_and_json_bytes_are_pinned(argv, digest, capsys):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the exact stdout of aut, pinned from the output printed while the search
# still transposed its down sets bit by bit
AUT_BYTES = {
    ("aut", "--spec", "S4^2*S3^2"): (
        "spec S4^2*S3^2: LatAut order 4 = 2!*2! (brute force 4, constructive 4) match\n"
        "generators: (4.1 4.2), (3.1 3.2)\n"
    ),
    ("aut", "--spec", "S3^5", "--format", "json"): (
        '{\n  "a4": 0,\n  "b": 5,\n  "brute_force_order": 120,\n  "constructive_order": 120,\n'
        '  "generators": [\n    "(3.1 3.2)",\n    "(3.2 3.3)",\n    "(3.3 3.4)",\n    "(3.4 3.5)"\n'
        '  ],\n  "match": true,\n  "predicted_order": 120,\n  "spec": "S3^5"\n}\n'
    ),
}


@pytest.mark.parametrize("argv", sorted(AUT_BYTES))
def test_aut_bytes_are_pinned(argv, capsys):
    assert run_cli(capsys, *argv) == (0, AUT_BYTES[argv])


@pytest.fixture
def no_element_objects(monkeypatch):
    """Make ``Lattice.elements`` and every ``LatticeElement`` construction raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("element object built")

    monkeypatch.setattr(Lattice, "elements", property(refuse))
    monkeypatch.setattr(LatticeElement, "__init__", refuse)
    with pytest.raises(AssertionError):
        bottom_element(parse_spec("S3"))


def test_the_cli_builds_no_element_object(no_element_objects, capsys):
    for argv, digest in PINNED_DIGESTS:
        code, out = run_cli(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest), argv
    for argv, out in AUT_BYTES.items():
        assert run_cli(capsys, *argv) == (0, out), argv
    code, out = run_cli(capsys, "oracle-diff", "--spec", "S4^2*S3^2", "--max-order", "20736")
    assert (code, out) == (0, "ok\n")
    run = run_tower(StartNode(parse_spec("S4^2*S3^2")))
    assert run.sharp
    for node in run.nodes:
        report = verify_step_against_lattice(node)
        assert report.match and report.skipped is None, report


@pytest.fixture
def no_sorted_bases(monkeypatch):
    """Make ``Lattice.bases``, the sorted basis of every W, raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("sorted W bases built")

    monkeypatch.setattr(Lattice, "bases", property(refuse))
    with pytest.raises(AssertionError):
        enumerate_lattice(parse_spec("S3")).bases


def test_the_writers_and_aut_sort_no_basis(no_sorted_bases, capsys):
    for argv, digest in PINNED_DIGESTS:
        code, out = run_cli(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest), argv
    for argv, out in AUT_BYTES.items():
        assert run_cli(capsys, *argv) == (0, out), argv


def _json_via_dict(lat):
    return json.dumps(lat.to_json_dict(), indent=2, sort_keys=True)


@pytest.mark.parametrize("spec", ROUND_TRIP_SPECS + ("S3", "S7*S5", "S6^3*S4^2"))
def test_lattice_json_is_the_dict_route_byte_for_byte(spec, lattices):
    lat = lattices.get(spec)
    assert "".join(cli._lattice_json(lat)) == _json_via_dict(lat)


def test_lattice_json_orders_p_keys_as_strings():
    # eleven slots, so the P keys run to "10", which sorts before "2"
    spec = parse_spec("S3^11")
    elements = (bottom_element(spec), sign_parity_element(spec, (0, 1)), top_element(spec))
    census = Census(sub_products=2, sign_parity=1, mixed=0, total=3)
    lat = _lattice_of_elements(spec, elements, census)
    lat.up_covers = lambda: iter([[1], [2], []])
    text = "".join(cli._lattice_json(lat))
    assert text == _json_via_dict(lat)
    element = json.loads(text)["elements"][1]
    assert list(element["triple"]["P"]) == ["10", "2", "3", "4", "5", "6", "7", "8", "9"]


def test_enumerate_json_writes_the_same_bytes_to_out(tmp_path, capsys):
    argv = ["enumerate", "--spec", "S4^2*S3^2", "--format", "json"]
    _, out = run_cli(capsys, *argv)
    target = tmp_path / "lattice.json"
    code, printed = run_cli(capsys, *argv, "--out", str(target))
    assert (code, printed) == (0, "")
    assert target.read_bytes() == out.encode()


def test_enumerate_json_builds_no_dict_tree(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("dict tree built")

    monkeypatch.setattr(cli, "_json_dump", refuse)
    monkeypatch.setattr(Lattice, "to_json_dict", refuse)
    code, out = run_cli(capsys, "enumerate", "--spec", "S4^2*S3^2", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_S4_2_S3_2_SHA256


def test_enumerate_is_deterministic(capsys):
    _, first = run_cli(capsys, "enumerate", "--spec", "S3^3", "--format", "json")
    _, second = run_cli(capsys, "enumerate", "--spec", "S3^3", "--format", "json")
    assert first == second


def test_exit_code_on_parse_error(capsys):
    assert main(["enumerate", "--spec", "S2"]) == 2
    assert main(["enumerate", "--spec", "junk"]) == 2
    assert main(["tower", "--spec", "S3^"]) == 2
    assert main(["tower", "--spec", "S" + "9" * 5000]) == 2


def test_exit_code_on_bound_violation(capsys):
    assert main(["enumerate", "--spec", "S3^9"]) == 3
    assert main(["enumerate", "--spec", "S3^3", "--max-T", "2"]) == 3
    assert main(["aut", "--spec", "S4^3*S3^2", "--max-lattice", "100"]) == 3
    assert main(["aut", "--spec", "S3^2", "--max-T", "1"]) == 3
    assert main(["hasse", "--spec", "S3^3", "--max-T", "2"]) == 3
    assert main(["hasse", "--spec", "C2^2", "--max-order", "1"]) == 3
    assert main(["oracle-diff", "--spec", "S3", "--max-T", "0"]) == 3
    assert main(["lemmas", "--max-order", "1"]) == 3
    assert main(["lemmas", "--max-lattice", "0"]) == 3
    assert main(["tower", "--spec", "S3^99999999999"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert all(line.startswith("error:") for line in captured.err.splitlines())


# The options each subcommand takes besides --out.
ACCEPTED = {
    "enumerate": {"--spec", "--format", "--max-T", "--max-lattice"},
    "aut": {"--spec", "--format", "--max-T", "--max-lattice"},
    "tower": {"--spec", "--format"},
    "oracle-diff": {"--spec", "--format", "--max-order", "--max-T"},
    "hasse": {"--spec", "--max-order", "--max-T", "--max-lattice"},
    "lemmas": {"--format", "--max-order", "--max-lattice"},
}
REJECTED = [
    ("enumerate", "--max-order", "1"),
    ("enumerate", "--format", "dot"),
    ("aut", "--max-order", "1"),
    ("aut", "--format", "dot"),
    ("tower", "--max-T", "1"),
    ("tower", "--max-order", "1"),
    ("tower", "--max-lattice", "1"),
    ("tower", "--format", "dot"),
    ("oracle-diff", "--max-lattice", "1"),
    ("oracle-diff", "--format", "dot"),
    ("hasse", "--format", "text"),
    ("lemmas", "--max-T", "1"),
    ("lemmas", "--format", "dot"),
]


@pytest.mark.parametrize("command, option, value", REJECTED)
def test_options_a_subcommand_does_not_read_are_rejected(command, option, value, capsys):
    spec = [] if command == "lemmas" else ["--spec", "S3"]
    with pytest.raises(SystemExit) as exc:
        main([command, *spec, option, value])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# Each bound option on each subcommand that takes it.
BOUNDS = [
    (command, option)
    for command, options in sorted(ACCEPTED.items())
    for option in ("--max-order", "--max-T", "--max-lattice")
    if option in options
]


@pytest.mark.parametrize("command, option", BOUNDS)
def test_a_negative_bound_is_a_usage_error(command, option, monkeypatch, capsys):
    # the parser refuses it, so the handler never runs; a bound of 0 is
    # parsed and exits 3, as test_exit_code_on_bound_violation shows
    def no_work(args):
        raise AssertionError("the handler ran")

    monkeypatch.setitem(cli._HANDLERS, command, no_work)
    spec = [] if command == "lemmas" else ["--spec", "S3"]
    with pytest.raises(SystemExit) as exc:
        main([command, *spec, option, "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: must not be negative, got -1" in captured.err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_oracle_mismatch_goes_to_stderr(fmt, monkeypatch, capsys):
    def mismatch(*args, **kwargs):
        raise OracleMismatch("S3^2: leq disagrees on pair (0, 1)")

    monkeypatch.setattr(cli, "differential_validate", mismatch)
    assert main(["oracle-diff", "--spec", "S3^2", "--format", fmt]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@given(
    command=st.sampled_from(sorted(ACCEPTED)),
    spec=st.sampled_from([None, "1", "S3", "S4", "S3^2", "S4*S3", "C2^2", "S2", "S3^", "junk"]),
    fmt=st.sampled_from([None, "text", "json", "dot"]),
    bounds=st.dictionaries(
        st.sampled_from(["--max-order", "--max-T", "--max-lattice"]), st.integers(-1, 3)
    ),
)
def test_exit_codes_of_any_old_flag_combination(command, spec, fmt, bounds):
    argv = [command]
    if spec is not None:
        argv += ["--spec", spec]
    if fmt is not None:
        argv += ["--format", fmt]
    for option, value in bounds.items():
        argv += [option, str(value)]
    used = set(argv[1::2])
    usage_error = (
        not used <= ACCEPTED[command]
        or fmt == "dot"
        or (command != "lemmas" and spec is None)
        or any(value < 0 for value in bounds.values())
    )
    try:
        code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2 and usage_error
    else:
        assert not usage_error
        assert code in (0, 2, 3, 4)


def test_tower_text(capsys):
    code, out = run_cli(capsys, "tower", "--spec", "S4^2*S3^2")
    assert code == 0
    assert out == "G_0 = S4^2*S3^2 → G_1 = C2^2 → G_2 = S3 → G_3 = 1 (3 steps, sharp)\n"


def test_tower_json(capsys):
    code, out = run_cli(capsys, "tower", "--spec", "S3^3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["nodes"] == ["S3^3", "S3", "1"]
    assert data["steps"] == 2
    assert data["sharp"] is False


def test_aut_text(capsys):
    code, out = run_cli(capsys, "aut", "--spec", "S3^2")
    assert code == 0
    assert "LatAut order 2" in out
    assert out.rstrip().endswith("(3.1 3.2)")


def test_aut_json(capsys):
    code, out = run_cli(capsys, "aut", "--spec", "S3*S4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["match"] is True
    assert data["predicted_order"] == 1


def test_oracle_diff(capsys):
    code, out = run_cli(capsys, "oracle-diff", "--spec", "S3^2")
    assert code == 0
    assert out == "ok\n"
    code, out = run_cli(capsys, "oracle-diff", "--spec", "S3^2", "--format", "json")
    assert json.loads(out)["ok"] is True


def test_oracle_diff_respects_max_order(capsys):
    assert main(["oracle-diff", "--spec", "S3^2", "--max-order", "10"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["--spec", "S3^5", "--max-order", "7776", "--max-T", "4"],
        ["--spec", "S3^5", "--max-T", "4"],
        ["--spec", "S3^3", "--max-order", "100"],
    ],
)
def test_oracle_diff_checks_its_bounds_before_the_class_table(argv, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("class table built")

    monkeypatch.setattr(perm_oracle, "ClassTable", refuse)
    assert main(["oracle-diff", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("check", ["join", "meet", "leq"])
def test_oracle_diff_on_a_corrupted_lattice_exits_4(
    check, fmt, corrupt_lattice, monkeypatch, capsys
):
    real = perm_oracle.enumerate_lattice
    monkeypatch.setattr(
        perm_oracle, "enumerate_lattice", lambda *args: corrupt_lattice(real(*args), check)
    )
    assert main(["oracle-diff", "--spec", "S4*S3", "--format", fmt]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert f"{check} disagrees" in captured.err


def test_hasse_of_lemma_group(capsys):
    code, out = run_cli(capsys, "hasse", "--spec", "C2^2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "digraph lattice {"
    assert sum("label=" in l for l in lines) == 5
    assert sum("->" in l for l in lines) == 6


# Nodes are numbered in the oracle's (order, ids) order, so equal-order normal
# subgroups keep their places only while that tie-break holds.
HASSE_OF_LEMMA_GROUP = {}
HASSE_OF_LEMMA_GROUP["C2xS3"] = """digraph lattice {
  rankdir=BT;
  n0 [label="1"];
  n1 [label="2"];
  n2 [label="3"];
  n3 [label="6"];
  n4 [label="6"];
  n5 [label="6"];
  n6 [label="12"];
  n0 -> n1;
  n0 -> n2;
  n1 -> n4;
  n2 -> n3;
  n2 -> n4;
  n2 -> n5;
  n3 -> n6;
  n4 -> n6;
  n5 -> n6;
}
"""

HASSE_OF_LEMMA_GROUP["C2xS4"] = """digraph lattice {
  rankdir=BT;
  n0 [label="1"];
  n1 [label="2"];
  n2 [label="4"];
  n3 [label="8"];
  n4 [label="12"];
  n5 [label="24"];
  n6 [label="24"];
  n7 [label="24"];
  n8 [label="48"];
  n0 -> n1;
  n0 -> n2;
  n1 -> n3;
  n2 -> n3;
  n2 -> n4;
  n3 -> n6;
  n4 -> n5;
  n4 -> n6;
  n4 -> n7;
  n5 -> n8;
  n6 -> n8;
  n7 -> n8;
}
"""


@pytest.mark.parametrize("spec", sorted(HASSE_OF_LEMMA_GROUP))
def test_hasse_of_lemma_group_is_pinned(spec, capsys):
    code, out = run_cli(capsys, "hasse", "--spec", spec)
    assert code == 0
    assert out == HASSE_OF_LEMMA_GROUP[spec]


@pytest.mark.parametrize(
    "spelling, name",
    [
        ("c2", "C2"),
        (" C2 ^ 2 ", "C2^2"),
        ("C2 x S3", "C2xS3"),
        ("c2XS4", "C2xS4"),
        ("C2 xs5", "C2xS5"),
    ],
)
def test_hasse_ignores_case_and_whitespace_in_small_group_names(spelling, name, capsys):
    canonical = run_cli(capsys, "hasse", "--spec", name)
    assert run_cli(capsys, "hasse", "--spec", spelling) == canonical
    assert canonical[0] == 0


def test_hasse_of_tower_group(capsys):
    code, out = run_cli(capsys, "hasse", "--spec", "S4")
    assert code == 0
    lines = out.splitlines()
    assert sum("label=" in l for l in lines) == 4
    assert sum("->" in l for l in lines) == 3
    assert 'label="sub-product:12"' in out


def test_lemmas_listing(capsys):
    code, out = run_cli(capsys, "lemmas")
    assert code == 0
    assert "C2^2: 5 elements, 6 automorphisms" in out
    assert "C2xS5: 7 elements, 2 automorphisms" in out
    code, out = run_cli(capsys, "lemmas", "--format", "json")
    rows = json.loads(out)
    assert {r["group"]: r["automorphisms"] for r in rows}["C2xS4"] == 2


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "lattice.json"
    code, out = run_cli(
        capsys, "enumerate", "--spec", "S3^2", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["census"]["total"] == 10


@pytest.mark.parametrize(
    "chunks, text",
    [
        ("ab", "ab\n"),
        ("ab\n", "ab\n"),
        ("", "\n"),
        (["a", "b"], "ab\n"),
        (["a\n", ""], "a\n"),
        (["a", "\n", "b"], "a\nb\n"),
        ([], "\n"),
    ],
)
def test_emit_ends_whole_or_chunked_text_with_one_newline(chunks, text, tmp_path, capsys):
    cli._emit(iter(chunks) if isinstance(chunks, list) else chunks, None)
    assert capsys.readouterr().out == text
    target = tmp_path / "out.txt"
    cli._emit(iter(chunks) if isinstance(chunks, list) else chunks, str(target))
    assert target.read_text() == text


def test_emit_opens_no_file_when_the_writer_fails_first(tmp_path):
    def failing():
        raise LatTowerError("no first chunk")
        yield ""

    target = tmp_path / "out.txt"
    with pytest.raises(LatTowerError):
        cli._emit(failing(), str(target))
    assert not target.exists()


@pytest.mark.parametrize(
    "argv, error",
    [
        (["enumerate", "--spec", "S3"], errno.ENOENT),
        (["hasse", "--spec", "S3^2"], errno.EISDIR),
    ],
    ids=["no-such-directory", "a-directory"],
)
def test_an_out_path_that_cannot_be_written_is_a_usage_error(argv, error, tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt" if error == errno.ENOENT else tmp_path
    assert main([*argv, "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {target}: {os.strerror(error)}\n"


def test_a_pipe_closed_after_the_first_line_ends_the_run_quietly(src_env):
    # about 1 MB of DOT, far more than a pipe buffers, so the writer is
    # still writing when the reader goes
    proc = subprocess.Popen(
        [sys.executable, "-m", "lattower.cli", "hasse", "--spec", "S3^6"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,
        env=src_env,
    )
    assert proc.stdout.readline() == b"digraph lattice {\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


def test_module_entry_point(src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "lattower.cli", "tower", "--spec", "S3"],
        capture_output=True,
        text=True,
        env=src_env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "G_0 = S3 → G_1 = 1 (1 step)"


@pytest.mark.parametrize("command", ["enumerate", "aut", "tower", "oracle-diff", "hasse"])
def test_spec_flag_is_required(command):
    with pytest.raises(SystemExit):
        main([command])
