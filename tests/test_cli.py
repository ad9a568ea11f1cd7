import json
import subprocess
import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lattower import autgroup, cli
from lattower.cli import main
from lattower.errors import OracleMismatch
from lattower.group_spec import parse_spec
from lattower.lattice_core import enumerate_lattice


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


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
    assert out.count(" -> ") == len(enumerate_lattice(parse_spec("S3^3")).covers())


def test_aut_reports_a_wrong_tau_generator_as_a_mismatch(monkeypatch, capsys):
    def identity_tau(sigma, lat):
        return autgroup.LatticeAutomorphism(tuple(range(len(lat))))

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
    code, out = run_cli(capsys, "enumerate", "--spec", "S3^2", "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["census"]["total"] == 10


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lattower.cli", "tower", "--spec", "S3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "G_0 = S3 → G_1 = 1 (1 step)"


@pytest.mark.parametrize("command", ["enumerate", "aut", "tower", "oracle-diff", "hasse"])
def test_spec_flag_is_required(command):
    with pytest.raises(SystemExit):
        main([command])
