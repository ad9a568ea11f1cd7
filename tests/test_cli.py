import argparse
import errno
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations_with_replacement
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lattower import autgroup, census, cli, group_spec, lattice_core, perm_oracle
from lattower.census import Census, census_of
from lattower.cli import main
from lattower.errors import LatTowerError, OracleMismatch
from lattower.group_spec import parse_spec
from lattower.lattice_core import Lattice, enumerate_lattice
from lattower.tower import StartNode, run_tower, verify_step_against_lattice
from lattower.triples import LatticeElement
from test_acceptance import ROUND_TRIP_SPECS, bottom_element, sign_parity_element, top_element
from test_lattice_core import _lattice_of_elements


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _readme_examples():
    """Each ``$ lattower ...`` line of the README's Command line block, with
    the lines shown under it."""
    block = README.split("## Command line", 1)[1].split("```\n", 2)[1]
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


def test_readme_library_example(capsys):
    block = README.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "756682",
        "Census(sub_products=144, sign_parity=11, mixed=101, total=256)",
        "True",
        "G_0 = S4^2*S3^2 → G_1 = C2^2 → G_2 = S3 → G_3 = 1 (3 steps, sharp)",
    ]


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


# the census lines of specs past the old slot bound of 8 too
CENSUS_LINES = {
    "S3^8": "total 756682: sub-products 6561, sign-parity 247, mixed 749874",
    "S3^9": "total 13384290: sub-products 19683, sign-parity 502, mixed 13364105",
    "S4^10*S3^10": "total 9655618694309985162962230546432: sub-products 61917364224, "
    "sign-parity 1048555, mixed 9655618694309985162900312133653",
}


def test_enumerate_text_builds_no_element(monkeypatch, capsys):
    monkeypatch.setattr(lattice_core, "enumerate_lattice", _must_not_enumerate)
    for spec, line in CENSUS_LINES.items():
        assert run_cli(capsys, "enumerate", "--spec", spec) == (0, line + "\n"), spec


def test_enumerate_total_past_the_digit_limit_is_a_bound_violation(capsys):
    limit = sys.get_int_max_str_digits()
    assert main(["enumerate", "--spec", "S3^300"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: census of S3^300 has a total of 22503 bits, too long to print in decimal\n"
    )
    assert sys.get_int_max_str_digits() == limit


@pytest.fixture
def no_lattice(monkeypatch):
    """Make the enumeration, the census and ``Lattice.up_covers`` raise."""
    monkeypatch.setattr(lattice_core, "enumerate_lattice", _must_not_enumerate)
    for module in (cli, census):
        monkeypatch.setattr(module, "census_of", _must_not_enumerate)
    monkeypatch.setattr(Lattice, "up_covers", _must_not_enumerate)


# 15,000 slots, which parse_spec accepts: 2^15000 has more decimal digits
# than the interpreter converts by default
SLOTS_15000 = "*".join(f"S{d}^1000" for d in range(17, 2, -1))


@pytest.mark.parametrize(
    "argv, err",
    [
        # the search on the 8,204 points of S3^13 would take minutes
        (
            ["--spec", "S3^13"],
            "error: 13 slots exceeds the closed-form context bound 12: "
            "the automorphism search on its 8204 points would take minutes\n",
        ),
        (
            ["--spec", SLOTS_15000],
            "error: 15000 slots exceeds the closed-form context bound 12: "
            "the automorphism search on its 2^15000 + 15999 points would take minutes\n",
        ),
    ],
)
def test_aut_refuses_an_oversized_lattice_before_enumerating(argv, err, no_lattice, capsys):
    limit = sys.get_int_max_str_digits()
    assert main(["aut", *argv]) == 3
    assert sys.get_int_max_str_digits() == limit
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


# Past the census bound of 300 slots, each command that reads a census or
# builds a group refuses in one line: the census refusal, or the oracle's
# (6^301 has 234 digits; the order of the 15,000 slots is past the
# interpreter's int-to-str digit limit, which stays as it is).
PAST_THE_CENSUS_BOUND = [
    (command, spec, err)
    for spec, slots, order in [
        ("S3^301", 301, str(6**301)),
        (SLOTS_15000, 15000, "of 347231 bits"),
    ]
    for command, err in [
        (["enumerate"], f"{slots} slots exceeds the census bound 300"),
        (["enumerate", "--format", "json"], f"{slots} slots exceeds the census bound 300"),
        (["hasse"], f"{slots} slots exceeds the census bound 300"),
        (["oracle-diff"], f"group order {order} exceeds the oracle bound 5000"),
    ]
]


@pytest.mark.parametrize(
    "command, spec, err",
    PAST_THE_CENSUS_BOUND,
    ids=[f"{' '.join(c)}-{s[:6]}" for c, s, _ in PAST_THE_CENSUS_BOUND],
)
def test_a_spec_past_the_census_bound_is_refused_in_one_line(
    command, spec, err, monkeypatch, capsys
):
    def refuse(*args, **kwargs):
        raise AssertionError("work done past the bound")

    monkeypatch.setattr(lattice_core, "enumerate_lattice", refuse)
    monkeypatch.setattr(census, "_galois_numbers", refuse)
    monkeypatch.setattr(perm_oracle, "ClassTable", refuse)
    limit = sys.get_int_max_str_digits()
    assert main([command[0], "--spec", spec, *command[1:]]) == 3
    assert sys.get_int_max_str_digits() == limit
    assert capsys.readouterr() == ("", f"error: {err}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["hasse", "--spec", "S3^8"],
        ["enumerate", "--spec", "S3^8", "--format", "json"],
        ["hasse", "--spec", "S3^3", "--max-lattice", "37"],
        ["hasse", "--spec", "S3^9"],
        ["hasse", "--spec", "S3^250"],
        ["enumerate", "--spec", "S3^250", "--format", "json"],
    ],
)
def test_order_relation_refuses_an_oversized_lattice_before_enumerating(
    argv, monkeypatch, capsys
):
    monkeypatch.setattr(lattice_core, "enumerate_lattice", _must_not_enumerate)
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    # the total of S3^250 (15,628 bits) is past the interpreter's int-to-str
    # digit limit, which stays as it is
    elements = {
        "S3^3": "38",
        "S3^8": "756682",
        "S3^9": "13384290",
        "S3^250": "a 15628-bit number of",
    }[argv[2]]
    bound = "37" if "--max-lattice" in argv else "10000"
    assert captured.err == f"error: {elements} elements exceeds the lattice bound {bound}\n"


def test_the_lattice_bound_admits_what_it_names(capsys):
    code, out = run_cli(capsys, "hasse", "--spec", "S3^3", "--max-lattice", "38")
    assert code == 0
    assert out.count(" -> ") == sum(map(len, enumerate_lattice(parse_spec("S3^3")).up_covers()))


def test_aut_reports_a_wrong_tau_generator_as_a_mismatch(monkeypatch, capsys):
    real = autgroup.slot_action

    def identity_tau(spec, sigma):
        return real(spec, tuple(range(spec.num_slots)))

    monkeypatch.setattr(autgroup, "slot_action", identity_tau)
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


# the sha256 and byte count of aut's stdout on S3^8, as scripts/output_digests.py
# printed them while aut still enumerated the lattice's 756,682 elements
AUT_S3_8_DIGESTS = {
    "text": ("25f133fbface09df52d45ab7b4032bc45f14f8df43ff14945c2f1d7b8ee189c4", 172),
    "json": ("8d8391dec52c483305bf165a1ecc46354abec37363be6137fc3b49a10cca4fcd", 289),
}


# the same of S3^7, as scripts/output_digests.py printed them with --max-lattice
# 100000 (and the --max-T 7 it then took), while aut still refused S3^7
# (59,866 elements) by default
AUT_S3_7_DIGESTS = {
    "text": ("555d9357c068886a612dae765797e446585e9f63f052286f368f5bd1e132b709", 158),
    "json": ("ad3469d0cdd191e7fb0fe4b00ff361c01d712632fa0481cf002694190a6b51e0", 269),
}


@pytest.mark.parametrize("fmt", sorted(AUT_S3_8_DIGESTS))
def test_aut_builds_no_lattice(fmt, no_lattice, capsys):
    # and takes no bound flag: both specs run with the defaults
    for spec, digests in (("S3^7", AUT_S3_7_DIGESTS), ("S3^8", AUT_S3_8_DIGESTS)):
        code, out = run_cli(capsys, "aut", "--spec", spec, "--format", fmt)
        assert code == 0, spec
        assert (hashlib.sha256(out.encode()).hexdigest(), len(out.encode())) == digests[fmt]


def test_aut_checks_a_spec_past_the_old_slot_bound(no_lattice, capsys):
    # S3^10 (335,573,314 elements) has a context of 1,033 points, which the
    # search, recursing once per point, used to refuse
    code, out = run_cli(capsys, "aut", "--spec", "S3^10")
    assert code == 0
    first, generators = out.splitlines()
    assert first == (
        "spec S3^10: LatAut order 3628800 = 0!*10! "
        "(brute force 3628800, constructive 3628800) match"
    )
    assert generators == "generators: " + ", ".join(f"(3.{i} 3.{i + 1})" for i in range(1, 10))


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
    assert main(["enumerate", "--spec", "S3^301"]) == 3
    assert main(["enumerate", "--spec", "S3^3", "--format", "json", "--max-lattice", "0"]) == 3
    assert main(["hasse", "--spec", "S3^3", "--max-lattice", "0"]) == 3
    assert main(["oracle-diff", "--spec", "S3", "--max-order", "0"]) == 3
    assert main(["tower", "--spec", "S3^99999999999"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert all(line.startswith("error:") for line in captured.err.splitlines())


# The options each subcommand takes besides --out.
ACCEPTED = {
    "enumerate": {"--spec", "--format", "--max-lattice"},
    "aut": {"--spec", "--format"},
    "tower": {"--spec", "--format"},
    "oracle-diff": {"--spec", "--format", "--max-order"},
    "hasse": {"--spec", "--max-lattice"},
    "lemmas": {"--format"},
}
REJECTED = [
    ("enumerate", "--max-order", "1"),
    ("enumerate", "--max-T", "1"),
    ("enumerate", "--format", "dot"),
    ("aut", "--max-order", "1"),
    ("aut", "--max-T", "1"),
    ("aut", "--max-lattice", "1"),
    ("aut", "--format", "dot"),
    ("tower", "--max-T", "1"),
    ("tower", "--max-order", "1"),
    ("tower", "--max-lattice", "1"),
    ("tower", "--format", "dot"),
    ("oracle-diff", "--max-lattice", "1"),
    ("oracle-diff", "--max-T", "1"),
    ("oracle-diff", "--format", "dot"),
    ("hasse", "--max-order", "1"),
    ("hasse", "--max-T", "1"),
    ("hasse", "--format", "text"),
    ("lemmas", "--max-order", "1"),
    ("lemmas", "--max-T", "1"),
    ("lemmas", "--max-lattice", "1"),
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
    for option in ("--max-order", "--max-lattice")
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

    monkeypatch.setattr(perm_oracle, "differential_validate", mismatch)
    assert main(["oracle-diff", "--spec", "S3^2", "--format", fmt]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


OLD_FLAGS = dict(
    command=st.sampled_from(sorted(ACCEPTED)),
    spec=st.sampled_from([None, "1", "S3", "S4", "S3^2", "S4*S3", "C2^2", "S2", "S3^", "junk"]),
    fmt=st.sampled_from([None, "text", "json", "dot"]),
    bounds=st.dictionaries(
        st.sampled_from(["--max-order", "--max-T", "--max-lattice"]), st.integers(-1, 3)
    ),
)


def _old_flag_argv(command, spec, fmt, bounds):
    argv = [command]
    if spec is not None:
        argv += ["--spec", spec]
    if fmt is not None:
        argv += ["--format", fmt]
    for option, value in bounds.items():
        argv += [option, str(value)]
    return argv


@given(**OLD_FLAGS)
def test_exit_codes_of_any_old_flag_combination(command, spec, fmt, bounds):
    argv = _old_flag_argv(command, spec, fmt, bounds)
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


def _outcome(parse, argv):
    """What ``parse(argv)`` returns, or the code it exits with."""
    try:
        return parse(argv)
    except SystemExit as exc:
        return exc.code


@given(**OLD_FLAGS)
def test_main_reaches_the_handler_with_the_top_level_namespace(command, spec, fmt, bounds):
    # main hands a call that starts with a subcommand to that subcommand's
    # parser alone; the namespace, or the usage error, must be the one the
    # top-level parser gives when it parses the whole argv
    argv = _old_flag_argv(command, spec, fmt, bounds)
    reached = []
    handlers = {name: lambda args: reached.append(args) or 0 for name in cli._HANDLERS}
    with mock.patch.dict(cli._HANDLERS, handlers), redirect_stderr(io.StringIO()):
        code = _outcome(main, argv)
        want = _outcome(cli._PARSER.parse_args, argv)
    if isinstance(want, argparse.Namespace):
        assert (code, reached) == (0, [want])
    else:
        assert (code, want, reached) == (2, 2, [])


# What is put into OLD_FLAGS's argv, at any place: one word, or an option
# with a value.  The words are abbreviations, --opt=value, help, a bare --,
# dash-led values and an empty word; the options give an option twice.
REFEREE_WORDS = ["--sp", "--form", "--spec=S3", "-h", "--help", "--", "-1", "-x", "-", ""]
REFEREE_INSERTS = st.one_of(
    st.tuples(st.sampled_from(REFEREE_WORDS)),
    st.tuples(
        st.sampled_from(["--spec", "--format", "--out", "--max-order", "--max-lattice"]),
        st.sampled_from(REFEREE_WORDS + ["S4", "text", "json", "dot", "0", "2", "f"]),
    ),
)
REFEREE_FLAGS = dict(
    OLD_FLAGS, extras=st.lists(st.tuples(st.integers(0, 9), REFEREE_INSERTS), max_size=3)
)


def _referee_examples(test):
    """Always try a dash-led value, a last option with no value, and an option
    given twice, with a bad value first: each is left to argparse."""
    for extras, fmt in [
        ([(0, ("--out", "-x"))], None),
        ([(2, ("--out",))], None),
        ([(0, ("--format", "dot"))], "json"),
    ]:
        test = example(command="tower", spec="S3", fmt=fmt, bounds={}, extras=extras)(test)
    return test


def _referee_argv(command, spec, fmt, bounds, extras):
    argv = _old_flag_argv(command, spec, fmt, bounds)
    for at, words in extras:
        at = 1 + at % len(argv)
        argv[at:at] = words
    return argv


def _argparse_outcome(command, rest):
    """What the subcommand's own parser makes of ``rest``: a namespace, or its exit code,
    stdout and stderr."""
    parse = cli._PARSER.subcommands[command].parse_args
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        args = _outcome(lambda rest: parse(rest, argparse.Namespace(command=command)), rest)
    return args if isinstance(args, argparse.Namespace) else (args, out.getvalue(), err.getvalue())


@settings(max_examples=500)
@_referee_examples
@given(**REFEREE_FLAGS)
def test_a_plain_call_gets_the_namespace_argparse_gives(command, spec, fmt, bounds, extras):
    argv = _referee_argv(command, spec, fmt, bounds, extras)
    args = cli._plain_args(command, argv[1:])
    if args is not None:
        assert args == _argparse_outcome(command, argv[1:])


@settings(max_examples=300)
@_referee_examples
@given(**REFEREE_FLAGS)
def test_main_parses_as_the_subcommand_parser_does(command, spec, fmt, bounds, extras):
    # the handler gets argparse's namespace, or main exits as argparse does,
    # with its help or its usage error
    argv = _referee_argv(command, spec, fmt, bounds, extras)
    reached = []
    handlers = {name: lambda args: reached.append(args) or 0 for name in cli._HANDLERS}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(cli._HANDLERS, handlers), redirect_stdout(out), redirect_stderr(err):
        code = _outcome(main, argv)
    want = _argparse_outcome(command, argv[1:])
    if isinstance(want, argparse.Namespace):
        assert (code, reached, out.getvalue(), err.getvalue()) == (0, [want], "", "")
    else:
        assert (code, out.getvalue(), err.getvalue()) == want
        assert reached == [] and code in (0, 2)


TOWER_HELP = """usage: lattower tower [-h] --spec SPEC [--format {text,json}] [--out OUT]

options:
  -h, --help            show this help message and exit
  --spec SPEC           group literal, e.g. S4^2*S3^2
  --format {text,json}
  --out OUT             write output to this file
"""


@pytest.mark.parametrize(
    "argv, code",
    [([], 2), (["-h"], 0), (["bogus"], 2), (["--", "tower", "--spec", "S3"], 2)],
    ids=["no-arguments", "help", "unknown-word", "leading-double-dash"],
)
def test_an_argv_without_a_leading_subcommand_goes_to_the_top_level_parser(
    argv, code, monkeypatch, capsys
):
    monkeypatch.setenv("COLUMNS", "80")
    calls = []
    real = cli._PARSER.parse_known_args
    monkeypatch.setattr(cli._PARSER, "parse_known_args", lambda *a: calls.append(a) or real(*a))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert (exc.value.code, len(calls)) == (code, 1)
    captured = capsys.readouterr()
    if code == 0:
        assert captured.out == cli._PARSER.format_help()
        assert captured.out.startswith("usage: lattower [-h] {enumerate,aut,tower,")
    else:
        assert captured.err.startswith("usage: lattower [-h] {enumerate,aut,tower,")


def test_subcommand_help_is_unchanged(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["tower", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == TOWER_HELP


def test_an_unknown_option_is_reported_by_the_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tower", "--spec", "S3", "--max-T", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "lattower tower: error: unrecognized arguments: --max-T 1"
    )


# the op shapes of the benchmark's four workloads
WORKLOAD_ARGV = [
    ["enumerate", "--spec", "S4^2*S3"],
    ["enumerate", "--spec", "S4*S3^2", "--format", "json"],
    ["hasse", "--spec", "S3^2"],
    ["aut", "--spec", "S4*S3^2"],
    ["tower", "--spec", "S4^2*S3^2"],
    ["oracle-diff", "--spec", "S4*S3", "--format", "json"],
    ["lemmas"],
]


def test_a_valid_command_never_calls_the_top_level_parser(monkeypatch, capsys):
    # nor, on a plain call, the subcommand's parser: main reads it off the
    # option table, and only help, abbreviations and the like reach argparse
    def refuse(*args, **kwargs):
        raise AssertionError("top-level parser called")

    def refuse_sub(*args, **kwargs):
        raise AssertionError("subcommand parser called")

    for method in ("parse_args", "parse_known_args"):
        monkeypatch.setattr(cli._PARSER, method, refuse)
    for sub in cli._PARSER.subcommands.values():
        monkeypatch.setattr(sub, "parse_args", refuse_sub)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "scripts"))
    import output_digests

    digest_argv = output_digests.commands("S3^2", 100) + output_digests.commands("S3^2", None)
    for argv in WORKLOAD_ARGV + digest_argv:
        assert run_cli(capsys, *argv)[0] == 0, argv
    monkeypatch.setattr(sys, "argv", ["lattower", "tower", "--spec", "S3"])
    assert main() == 0
    assert capsys.readouterr().out == "G_0 = S3 → G_1 = 1 (1 step)\n"
    for argv in (["tower", "-h"], ["tower", "--spec=S3"], ["tower", "--sp", "S3"]):
        with pytest.raises(AssertionError, match="subcommand parser called"):
            main(argv)


# Every start spec with at most six slots and degrees 3..7, the towers of the
# census benchmark workload, as canonical literals
TOWER_START_SPECS = [
    "*".join(f"S{d}" if combo.count(d) == 1 else f"S{d}^{combo.count(d)}"
             for d in sorted(set(combo), reverse=True)) or "1"
    for t in range(7)
    for combo in combinations_with_replacement((3, 4, 5, 6, 7), t)
]
# the sha256 and byte count of tower's stdout over all of them, one call each,
# taken while every spec still built one FactorSlot per slot and main parsed
# each call with the top-level parser
TOWER_DIGESTS = {
    "text": ("8e6e2b4c1a23843a1c680f9b30dee14133b5d163834b72eec76f9f75e652f617", 26218),
    "json": ("fec472d27665453375bfdedff6ac5dd4b0baaffb8bf4bc94d2a100eee1a79d0d", 42199),
}


@pytest.fixture
def no_factor_slots(monkeypatch):
    """Make every ``FactorSlot`` construction raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("FactorSlot built")

    monkeypatch.setattr(group_spec, "FactorSlot", refuse)
    with pytest.raises(AssertionError):
        parse_spec("S3").slots


@pytest.mark.parametrize("fmt", sorted(TOWER_DIGESTS))
def test_tower_bytes_over_the_start_specs_are_pinned(fmt, no_factor_slots, capsys):
    assert len(TOWER_START_SPECS) == len(set(TOWER_START_SPECS)) == 462
    out = []
    for spec in TOWER_START_SPECS:
        code, text = run_cli(capsys, "tower", "--spec", spec, "--format", fmt)
        assert code == 0, spec
        out.append(text)
    data = "".join(out).encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == TOWER_DIGESTS[fmt]


@pytest.mark.parametrize("spec", ["1", "S5", "S4^2*S3^2", "S7*S5*S4^2*S3", "S3^8"])
def test_enumerate_text_builds_no_factor_slot(spec, no_factor_slots, capsys):
    c = census_of(parse_spec(spec))
    code, out = run_cli(capsys, "enumerate", "--spec", spec)
    assert (code, out) == (0, f"total {c.total}: sub-products {c.sub_products}, "
                              f"sign-parity {c.sign_parity}, mixed {c.mixed}\n")


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
        ["--spec", "S3^5"],
        ["--spec", "S3^3", "--max-order", "100"],
        ["--spec", "S8^1000"],
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
    real = lattice_core.enumerate_lattice
    monkeypatch.setattr(
        lattice_core, "enumerate_lattice", lambda *args: corrupt_lattice(real(*args), check)
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


# the modules the text paths load; hasse on a spec adds the enumeration
TEXT_PATH_MODULES = ["census", "cli", "errors", "group_spec", "tower"]
# what the search on a closed-form context adds, and what the oracle's posets add
SEARCH_MODULES = ["autgroup", "context", "gf2", "stabiliser"]
ORACLE_MODULES = ["abstract_lattice", "gf2", "perm_oracle", "stabiliser"]
# prints the lattower modules loaded so far to stderr
_PRINT_LOADED = (
    "print(sorted(m for m in sys.modules if m.startswith('lattower.')), file=sys.stderr)"
)
# runs main on the arguments, then prints the modules it loaded
_FOOTPRINT = (
    f"import sys; from lattower.cli import main; code = main(sys.argv[1:]); {_PRINT_LOADED}; "
    "sys.exit(code)"
)


# Only the lattice paths (hasse and enumerate --format json on a tower spec,
# oracle-diff) load the enumeration, and no path loads ``triples``.
@pytest.mark.parametrize(
    "argv, modules",
    [
        (["enumerate", "--spec", "S3^3"], TEXT_PATH_MODULES),
        (["tower", "--spec", "S4^2*S3^2"], TEXT_PATH_MODULES),
        (["hasse", "--spec", "S3^2"], sorted(TEXT_PATH_MODULES + ["gf2", "lattice_core"])),
        (
            ["enumerate", "--spec", "S3^2", "--format", "json"],
            sorted(TEXT_PATH_MODULES + ["gf2", "lattice_core"]),
        ),
        (["aut", "--spec", "S4^2*S3^2"], sorted(TEXT_PATH_MODULES + SEARCH_MODULES)),
        (["lemmas"], sorted(set(TEXT_PATH_MODULES + SEARCH_MODULES + ORACLE_MODULES))),
        (
            ["oracle-diff", "--spec", "S3^2"],
            sorted(set(TEXT_PATH_MODULES + ORACLE_MODULES + ["lattice_core"])),
        ),
        (["hasse", "--spec", "C2^2"], sorted(set(TEXT_PATH_MODULES + ORACLE_MODULES))),
    ],
    ids=[
        "enumerate",
        "tower",
        "hasse",
        "enumerate-json",
        "aut",
        "lemmas",
        "oracle-diff",
        "hasse-small-group",
    ],
)
def test_a_subcommand_loads_only_the_modules_it_runs(argv, modules, src_env, capsys):
    code, out = run_cli(capsys, *argv)
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, *argv], capture_output=True, env=src_env
    )
    assert proc.returncode == code == 0
    assert proc.stdout == out.encode()
    assert proc.stderr.decode() == f"{[f'lattower.{m}' for m in modules]}\n"


# checks every step of a sharp tower against its lattice, as perfbench's
# verify-tower op does: the tower groups on their closed-form context, the
# C2 factors on the oracle's posets
_TOWER_STEP_FOOTPRINT = (
    "import sys; from lattower.group_spec import parse_spec; "
    "from lattower.tower import StartNode, run_tower, verify_step_against_lattice; "
    "run = run_tower(StartNode(parse_spec('S4^2*S3^2'))); "
    "assert all(verify_step_against_lattice(node).match for node in run.nodes); "
    + _PRINT_LOADED
)


def test_the_tower_step_check_loads_no_enumeration(src_env):
    proc = subprocess.run(
        [sys.executable, "-c", _TOWER_STEP_FOOTPRINT], capture_output=True, env=src_env
    )
    assert proc.returncode == 0, proc.stderr
    modules = set(TEXT_PATH_MODULES + SEARCH_MODULES + ORACLE_MODULES) - {"cli"}
    assert proc.stderr.decode() == f"{[f'lattower.{m}' for m in sorted(modules)]}\n"


@pytest.mark.parametrize("command", ["enumerate", "aut", "tower", "oracle-diff", "hasse"])
def test_spec_flag_is_required(command):
    with pytest.raises(SystemExit):
        main([command])
